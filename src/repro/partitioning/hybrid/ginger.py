"""Ginger (HG) — PowerLyra's heuristic hybrid-cut, Chen et al. 2015.

Eq. 8 of the paper: a FENNEL-like greedy that assigns each *vertex* ``v``
together with all of its in-edges to the partition maximising

    |P_i ∩ N_in(v)|  -  c · ½ (|V_i| + (|V| / |E|) · |E_i|)

i.e. FENNEL's neighbour affinity, but with a balance term that mixes the
partition's vertex count ``|V_i|`` and (rescaled) edge count ``|E_i|``.
After the first phase, vertices whose in-degree exceeds a user threshold
are declared high-degree and their in-edges are *re-assigned* by hashing
on the source, exactly like HCR — preserving low-degree locality while
spreading hubs.

On an edge stream Ginger therefore "works in two phases" (Section 4.3):
we buffer arrivals, group them by target in first-arrival order, and run
the greedy vertex pass over that order.  Only that pass is sequential:
every in-edge then takes its target's partition in one gather, and the
high-degree in-edges are re-hashed in one vectorised call.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.partitioning.base import (
    EdgePartition,
    EdgePartitioner,
    check_num_partitions,
    edge_stream_arrays,
)
from repro.partitioning.hybrid.hybrid_hash import DEFAULT_DEGREE_THRESHOLD
from repro.partitioning.kernels import argmax_tie_least_loaded
from repro.rng import SeededHash, make_rng


class GingerPartitioner(EdgePartitioner):
    """Ginger hybrid-cut streaming partitioner (HG).

    Parameters
    ----------
    degree_threshold:
        In-degree above which a vertex's in-edges are spread by source hash.
    balance_coefficient:
        The ``c`` of Eq. 8; ``None`` derives FENNEL's
        ``sqrt(k) * m / n^1.5`` at run time.
    hash_seed, seed:
        Hash seed for the high-degree phase / tie-break randomness.
    """

    name = "hg"

    def __init__(self, degree_threshold: int = DEFAULT_DEGREE_THRESHOLD,
                 balance_coefficient: float | None = None,
                 hash_seed: int = 0, seed=None):
        if degree_threshold < 1:
            raise ConfigurationError("degree_threshold must be >= 1")
        self.degree_threshold = degree_threshold
        self.balance_coefficient = balance_coefficient
        self.hash_seed = hash_seed
        self.seed = seed

    def partition_stream(self, stream, num_partitions: int, *,
                         num_vertices: int, num_edges: int) -> EdgePartition:
        k = check_num_partitions(num_partitions)
        rng = make_rng(self.seed)
        hasher = SeededHash(k, self.hash_seed)
        coefficient = self.balance_coefficient
        if coefficient is None:
            n = max(num_vertices, 1)
            coefficient = float(np.sqrt(k) * num_edges / n ** 1.5)
        edge_scale = num_vertices / max(num_edges, 1)

        # Buffer the stream grouped by target, keeping first-arrival order
        # of targets (the two-phase behaviour the paper describes): sort
        # the edges stably by where their target first arrived.
        edge_ids, sources, targets = edge_stream_arrays(stream)
        unique_targets, first_arrival, inverse = np.unique(
            targets, return_index=True, return_inverse=True)
        by_arrival = np.argsort(first_arrival)
        in_degree = np.bincount(inverse, minlength=unique_targets.size)
        bounds = np.concatenate(([0], np.cumsum(in_degree[by_arrival])
                                 )).tolist()
        grouped_sources = sources[np.argsort(first_arrival[inverse],
                                             kind="stable")].tolist()

        # Phase 1: FENNEL-like greedy per target vertex.  The balance term
        # of a partition changes only when it gains a vertex, so it is
        # kept per partition and recomputed for the winner alone.
        vertex_part = [-1] * num_vertices
        vertex_sizes = [0] * k
        edge_sizes = [0] * k
        half_c = coefficient * 0.5
        balance = [0.0] * k
        for rank, v in enumerate(unique_targets[by_arrival].tolist()):
            lo, hi = bounds[rank], bounds[rank + 1]
            counts = [0] * k
            for src in grouped_sources[lo:hi]:
                part = vertex_part[src]
                if part >= 0:
                    counts[part] += 1
            scores = [c - b for c, b in zip(counts, balance)]
            target = argmax_tie_least_loaded(scores, edge_sizes, rng)
            vertex_part[v] = target
            vertex_sizes[target] += 1
            edge_sizes[target] += hi - lo
            balance[target] = half_c * (vertex_sizes[target]
                                        + edge_scale * edge_sizes[target])

        # Vertices that only appear as sources still need a home (they own
        # no in-edges): place them greedily on the least-loaded partition.
        for v in range(num_vertices):
            if vertex_part[v] < 0:
                target = vertex_sizes.index(min(vertex_sizes))
                vertex_part[v] = target
                vertex_sizes[target] += 1
        masters = np.array(vertex_part, dtype=np.int32)

        # Every in-edge follows its target's master ...
        assignment = np.full(num_edges, -1, dtype=np.int32)
        assignment[edge_ids] = masters[targets]
        # ... except that Phase 2 spreads the in-edges of high-degree
        # vertices by hashing their source.
        spread = in_degree[inverse] > self.degree_threshold
        assignment[edge_ids[spread]] = hasher(sources[spread])

        return EdgePartition(k, assignment, algorithm=self.name,
                             masters=masters)
