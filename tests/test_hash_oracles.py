"""Closed-form quality oracles for the hash partitioners.

Hashing places each item uniformly and independently, so both hash
baselines have quality figures that follow from probability alone, not
from the implementation:

* ECR (hash edge-cut): an edge is cut unless both endpoints land in the
  same of k partitions, so the expected edge-cut ratio is (k-1)/k.
* VCR (hash vertex-cut): a vertex v spans partition p unless every edge
  at v misses p.  Duplicate edges hash to the same partition, so what
  counts is d'(v), the number of distinct directed ``(src, dst)`` pairs
  at v, and the expected replication factor is
  mean_v k * (1 - (1 - 1/k) ** d'(v)) over vertices with an edge.
"""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi, twitter_like
from repro.metrics import edge_cut_ratio, replication_factor
from repro.partitioning import make_partitioner

GRAPHS = {
    "erdos-renyi": lambda: erdos_renyi(5000, 40000, seed=3),
    "twitter-like": lambda: twitter_like(5000, seed=3),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


def distinct_pair_degree(graph) -> np.ndarray:
    """d'(v): distinct directed (src, dst) pairs incident to each vertex."""
    pairs = np.unique(np.stack([graph.src, graph.dst], axis=1), axis=0)
    return (np.bincount(pairs[:, 0], minlength=graph.num_vertices)
            + np.bincount(pairs[:, 1], minlength=graph.num_vertices))


@pytest.mark.parametrize("k", [4, 16])
def test_ecr_edge_cut_ratio_is_k_minus_one_over_k(graph, k):
    partition = make_partitioner("ecr").partition(graph, k)
    assert abs(edge_cut_ratio(graph, partition) - (k - 1) / k) < 0.01


@pytest.mark.parametrize("k", [4, 16])
def test_vcr_replication_factor_matches_expectation(graph, k):
    degree = distinct_pair_degree(graph)
    degree = degree[degree > 0]
    expected = float(np.mean(k * (1.0 - (1.0 - 1.0 / k) ** degree)))
    partition = make_partitioner("vcr").partition(graph, k)
    measured = replication_factor(graph, partition)
    assert abs(measured - expected) / expected < 0.01
