"""Implementation-independent oracles for HDRF, Ginger (HG) and MTS.

The golden digests in ``tests/data_golden_digests.json`` only prove that
an output did not change.  These tests state what the output must be
from the algorithms' definitions, so they hold for any correct decision
loop:

* HDRF's replica matrix is exactly the incidence of its assignment and
  its loads are exactly the assignment's partition sizes;
* Ginger places every in-edge of a low-degree target on the target's
  master and every in-edge of a high-degree target on the source hash;
* one multilevel refinement call never raises the weighted edge cut and
  never moves a vertex into a partition it would push over capacity.

Degenerate inputs (no edges, isolated vertices, self-loops only, k = 1,
k > n) and the three stream shapes (graph-backed, generic iterable,
file-backed ``.redg``) are pinned for the same three algorithms.
"""

import numpy as np
import pytest

from repro.graph import Graph
from repro.graph.generators import ldbc_like, twitter_like
from repro.graph.stream import EdgeStream
from repro.ingest import FileEdgeStream, spill_graph_edges
from repro.partitioning import make_partitioner
from repro.partitioning.degree_state import make_degree_state
from repro.partitioning.hybrid.ginger import GingerPartitioner
from repro.partitioning.kernels import iter_edge_chunks
from repro.partitioning.multilevel import _refine, _undirected_csr
from repro.partitioning.vertex_cut.hdrf import HdrfCore
from repro.rng import SeededHash, make_rng

K = 8


@pytest.fixture(scope="module")
def hubby():
    """A heavy-tailed graph: many targets above a small in-degree cut."""
    return twitter_like(num_vertices=600, seed=7)


@pytest.fixture(scope="module")
def social():
    return ldbc_like(num_vertices=500, avg_degree=8, seed=3)


def _hdrf_core(graph, k, state="exact"):
    degrees = make_degree_state(state, graph.num_vertices,
                                sketch_width=64, sketch_depth=2)
    return HdrfCore(k, graph.num_vertices,
                    capacity=max(1.0, graph.num_edges / k),
                    balance_weight=1.1, degrees=degrees, rng=make_rng(5))


def _incidence(graph, assignment, k):
    expected = np.zeros((graph.num_vertices, k), dtype=bool)
    expected[graph.src, assignment] = True
    expected[graph.dst, assignment] = True
    return expected


class TestHdrfState:
    @pytest.mark.parametrize("state", ["exact", "sketch"])
    @pytest.mark.parametrize("chunk_size", [1, 97, 1 << 14])
    def test_replicas_are_assignment_incidence(self, hubby, state,
                                               chunk_size):
        core = _hdrf_core(hubby, K, state)
        assignment = np.full(hubby.num_edges, -1, dtype=np.int32)
        stream = EdgeStream(hubby, order="random", seed=2)
        for edge_ids, src, dst in iter_edge_chunks(stream, chunk_size):
            core.process_chunk(edge_ids, src, dst, assignment)
        assert (assignment >= 0).all()
        assert np.array_equal(core.replicas,
                              _incidence(hubby, assignment, K))
        assert core.sizes.tolist() == \
            np.bincount(assignment, minlength=K).tolist()

    def test_state_nbytes_is_the_packed_footprint(self, hubby):
        core = _hdrf_core(hubby, K)
        # Replica bits, degree table, and four k-wide 8-byte rows: the
        # loads, the balance term and the per-arrival gains and scores.
        assert core.state_nbytes() == (hubby.num_vertices * K
                                       + core.degrees.nbytes + 4 * K * 8)

    def test_rebase_sizes_steers_the_next_decision(self):
        core = HdrfCore(4, 10, capacity=5.0, balance_weight=1.1,
                        degrees=make_degree_state("exact", 10), rng=None)
        core.rebase_sizes(np.array([3, 0, 3, 3], dtype=np.int64))
        assert core.sizes.tolist() == [3, 0, 3, 3]
        assignment = np.full(1, -1, dtype=np.int32)
        # A fresh edge has no replica anywhere: the balance term decides.
        core.process_chunk(np.array([0]), np.array([1]), np.array([2]),
                           assignment)
        assert assignment.tolist() == [1]
        assert core.sizes.tolist() == [3, 1, 3, 3]
        assert core.balance.tolist() == pytest.approx(
            [1.1 - 1.1 * s / 5.0 for s in (3, 1, 3, 3)])


class TestGingerPlacement:
    @pytest.mark.parametrize("threshold", [1, 8, 100])
    @pytest.mark.parametrize("order", ["random", "bfs"])
    def test_in_edges_follow_master_or_source_hash(self, hubby, threshold,
                                                   order):
        partitioner = GingerPartitioner(degree_threshold=threshold,
                                        hash_seed=3, seed=1)
        partition = partitioner.partition(hubby, K, order=order, seed=4)
        in_degree = np.bincount(hubby.dst, minlength=hubby.num_vertices)
        high = in_degree[hubby.dst] > threshold
        assert partition.masters.min() >= 0
        assert np.array_equal(partition.assignment[~high],
                              partition.masters[hubby.dst[~high]])
        hashed = SeededHash(K, 3)(hubby.src[high])
        assert np.array_equal(partition.assignment[high], hashed)


def _cut(level, assignment):
    owner = np.repeat(np.arange(level.num_vertices), np.diff(level.indptr))
    crossing = assignment[owner] != assignment[level.indices]
    return level.weights[crossing].sum() / 2.0


class TestRefineOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_never_raises_cut_or_overfills(self, social, seed, weighted):
        rng = np.random.default_rng(seed)
        n = social.num_vertices
        # Integer-valued vertex weights keep every load sum exact, so the
        # capacity bound is asserted without slack.
        vweights = (rng.integers(1, 6, n).astype(np.float64) if weighted
                    else np.ones(n))
        level = _undirected_csr(social, vweights)
        capacity = 1.05 * vweights.sum() / K
        before = rng.integers(0, K, n).astype(np.int32)
        after = _refine(level, before.copy(), K, capacity, make_rng(seed))
        assert _cut(level, after) <= _cut(level, before)
        assert (after != before).any()
        loads = np.bincount(after, weights=vweights, minlength=K)
        gained = np.unique(after[after != before])
        assert (loads[gained] <= capacity).all()

    def test_float_weights_never_raise_cut(self, social):
        rng = np.random.default_rng(9)
        vweights = rng.gamma(1.5, 2.0, social.num_vertices) + 0.25
        level = _undirected_csr(social, vweights)
        before = rng.integers(0, K, social.num_vertices).astype(np.int32)
        after = _refine(level, before.copy(), K,
                        1.05 * vweights.sum() / K, make_rng(3))
        assert _cut(level, after) <= _cut(level, before)


ALGORITHMS = ("hdrf", "hg", "mts")


def _run(algorithm, graph, k):
    return make_partitioner(algorithm, seed=1).partition(graph, k, seed=2)


def _items(algorithm, graph):
    return graph.num_vertices if algorithm == "mts" else graph.num_edges


class TestDegenerateInputs:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("graph", [
        Graph(0, np.zeros(0, np.int64), np.zeros(0, np.int64)),
        Graph(5, np.zeros(0, np.int64), np.zeros(0, np.int64)),
        Graph(4, np.array([0, 1, 1, 3]), np.array([0, 1, 1, 3])),
    ], ids=["empty", "isolated", "self-loops"])
    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_complete_and_in_range(self, algorithm, graph, k):
        partition = _run(algorithm, graph, k)
        assert partition.assignment.shape == (_items(algorithm, graph),)
        assert partition.is_complete()
        assert ((partition.assignment >= 0)
                & (partition.assignment < k)).all()
        if k == 1:
            assert not partition.assignment.any()

    def test_ginger_homes_every_vertex(self):
        isolated = Graph(5, np.zeros(0, np.int64), np.zeros(0, np.int64))
        partition = _run("hg", isolated, 3)
        # Source-only (here: isolated) vertices go least-loaded first.
        assert partition.masters.tolist() == [0, 1, 2, 0, 1]

    def test_self_loops_stay_on_their_master(self):
        loops = Graph(4, np.array([0, 1, 1, 3]), np.array([0, 1, 1, 3]))
        partition = _run("hg", loops, 3)
        assert np.array_equal(partition.assignment,
                              partition.masters[loops.dst])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_more_partitions_than_vertices(self, algorithm, social):
        partition = _run(algorithm, social, social.num_vertices + 5)
        assert partition.is_complete()
        assert partition.assignment.max() < social.num_vertices + 5


class TestStreamShapes:
    @pytest.mark.parametrize("algorithm", ["hdrf", "hg"])
    def test_generic_iterable_matches_graph_stream(self, algorithm, social):
        partitioner = make_partitioner(algorithm, seed=4)
        graph_backed = partitioner.partition(social, K, order="random",
                                             seed=6)
        arrivals = list(EdgeStream(social, order="random", seed=6))
        generic = make_partitioner(algorithm, seed=4).partition_stream(
            iter(arrivals), K, num_vertices=social.num_vertices,
            num_edges=social.num_edges)
        assert np.array_equal(generic.assignment, graph_backed.assignment)

    @pytest.mark.parametrize("algorithm", ["hdrf", "hg"])
    def test_file_stream_matches_graph_stream(self, algorithm, social,
                                              tmp_path):
        path = spill_graph_edges(social, tmp_path / "g.redg",
                                 chunk_edges=333)
        from_file = make_partitioner(algorithm, seed=4).partition_stream(
            FileEdgeStream(path), K, num_vertices=social.num_vertices,
            num_edges=social.num_edges)
        graph_backed = make_partitioner(algorithm, seed=4).partition(
            social, K, order="natural")
        assert np.array_equal(from_file.assignment, graph_backed.assignment)
