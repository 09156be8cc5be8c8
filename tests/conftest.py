"""Shared fixtures: reference graphs, decompositions, and partitions.

Session scope keeps the dense eigendecompositions (the expensive part) to one
run each across the whole suite.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from avgsampling import (
    WeightedGraph,
    bfs_partition,
    build_laplacian,
    eigendecompose,
    generate_graph,
    pairs_partition,
    validate_partition,
)

settings.register_profile(
    "deterministic",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


ER_SUITE_SPECS = [
    (8, 101), (12, 102), (16, 103), (20, 104), (24, 105),
    (32, 106), (40, 107), (48, 108), (56, 109), (64, 110),
]


def complete_graph(n: int) -> WeightedGraph:
    return WeightedGraph.from_edges(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])


def star_graph(n: int) -> WeightedGraph:
    return WeightedGraph.from_edges(n, [(0, v, 1.0) for v in range(1, n)])


def dense_weighted_graph(n: int, seed: int) -> WeightedGraph:
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = [(u, v, float(rng.uniform(0.5, 1.5))) for u in range(n) for v in range(u + 1, n)]
    return WeightedGraph.from_edges(n, edges)


def dense_indicators(partition) -> np.ndarray:
    """The J x n normalized cluster indicators, built densely from the cluster tuples."""
    xi = np.zeros((partition.num_clusters, partition.n))
    for j, verts in enumerate(partition.clusters):
        xi[j, list(verts)] = 1.0 / np.sqrt(len(verts))
    return xi


def cluster_laplacian(graph: WeightedGraph, verts) -> np.ndarray:
    """Laplacian of the subgraph a vertex list induces, rows in the list's order."""
    W = graph.weight_matrix()[np.ix_(verts, verts)]
    return np.diag(W.sum(axis=1)) - W


def _bundle(graph, clusters):
    decomp = eigendecompose(build_laplacian(graph))
    partition = validate_partition(graph, clusters)
    return graph, decomp, partition


@pytest.fixture(scope="session")
def path4():
    return _bundle(generate_graph("path", 4), pairs_partition(4))


@pytest.fixture(scope="session")
def path16():
    return _bundle(generate_graph("path", 16), pairs_partition(16))


@pytest.fixture(scope="session")
def path64():
    return _bundle(generate_graph("path", 64), pairs_partition(64))


@pytest.fixture(scope="session")
def er_suite():
    """Ten seeded random connected graphs (n <= 64) with BFS-ball partitions."""
    bundles = []
    for n, seed in ER_SUITE_SPECS:
        graph = generate_graph("erdos-renyi-weighted", n, seed=seed, p=0.3)
        bundles.append(_bundle(graph, bfs_partition(graph, 1)))
    return bundles


@pytest.fixture(scope="session")
def small_suite():
    """Graphs with n <= 12 for brute-force oracle comparisons."""
    cases = [
        ("K6", complete_graph(6), [(0, 1, 2), (3, 4, 5)]),
        ("C8", generate_graph("cycle", 8), [(0, 1), (2, 3), (4, 5), (6, 7)]),
        ("star6", star_graph(6), [(0, 1, 2), (3,), (4,), (5,)]),
        ("dense10", dense_weighted_graph(10, 3), [(0, 1, 2), (3, 4), (5, 6, 7), (8, 9)]),
        ("dense12", dense_weighted_graph(12, 4), [(0, 1, 2, 3), (4, 5), (6, 7, 8), (9, 10, 11)]),
        ("P4", generate_graph("path", 4), [(0, 1), (2, 3)]),
        ("P6", generate_graph("path", 6), [(0, 1), (2, 3), (4, 5)]),
        ("P12", generate_graph("path", 12), [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]),
    ]
    out = []
    for name, graph, clusters in cases:
        graph_, decomp, partition = _bundle(graph, clusters)
        out.append((name, graph_, decomp, partition))
    return out


def unit_signals(n: int, count: int, seed: int) -> np.ndarray:
    """Column matrix of unit-norm standard-normal signals."""
    rng = np.random.Generator(np.random.PCG64(seed))
    F = rng.standard_normal((n, count))
    return F / np.linalg.norm(F, axis=0)
