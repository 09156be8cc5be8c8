"""Shared fixtures: reference graphs, decompositions, and partitions, and the
quantities in the paper's inequalities, computed from the package's own
private formulas.

Session scope keeps the dense eigendecompositions (the expensive part) to one
run each across the whole suite.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from avgsampling import (
    WeightedGraph,
    analyze,
    bfs_partition,
    build_laplacian,
    eigendecompose,
    generate_graph,
    pairs_partition,
    validate_partition,
)
from avgsampling.spectral import _power_weights
from avgsampling.splines import _basis, _order_factors, _smoothness_defect

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


def clusters_of(partition) -> tuple[tuple[int, ...], ...]:
    """Each cluster's vertices ascending, read from the partition's label vector."""
    return tuple(tuple(np.flatnonzero(partition.labels == j).tolist()) for j in range(partition.num_clusters))


def dense_indicators(partition) -> np.ndarray:
    """The J x n normalized cluster indicators, built densely from the cluster tuples."""
    xi = np.zeros((partition.num_clusters, partition.n))
    for j, verts in enumerate(clusters_of(partition)):
        xi[j, list(verts)] = 1.0 / np.sqrt(len(verts))
    return xi


def weight_matrix(graph: WeightedGraph) -> np.ndarray:
    """The dense symmetric weight matrix, one edge of ``graph.edges()`` at a time."""
    W = np.zeros((graph.n, graph.n))
    for u, v, w in graph.edges():
        W[u, v] = W[v, u] = w
    return W


def cluster_laplacian(graph: WeightedGraph, verts) -> np.ndarray:
    """Laplacian of the subgraph a vertex list induces, rows in the list's order."""
    W = weight_matrix(graph)[np.ix_(verts, verts)]
    return np.diag(W.sum(axis=1)) - W


def gradient_sq(graph: WeightedGraph, f: np.ndarray) -> float:
    """Squared weighted gradient seminorm: w(u,v) * (f(u) - f(v))**2 summed once per edge."""
    us, vs, ws = graph._edge_arrays
    diffs = f[us] - f[vs]
    return float(np.sum(ws * diffs * diffs))


def power(decomp, s, f: np.ndarray) -> np.ndarray:
    """L^{s/2} f through the eigenvalues, roundoff kernel pinned to 0 (s > 0)."""
    V = decomp.eigenvectors
    return V @ (_power_weights(decomp, s) * (V.T @ f))


def zero_average(decomp, partition, coefficients: np.ndarray) -> np.ndarray:
    """The signal with zero cluster averages whose kernel coordinates are ``coefficients``."""
    return decomp.eigenvectors @ (_basis(decomp, partition).kernel @ coefficients)


def energy_slack(decomp, partition, f: np.ndarray, alpha: float) -> float:
    """rhs - lhs of the partition energy inequality ``norm(f)**2 <= (1+alpha)/alpha
    / Lambda * norm(L^{1/2} f)**2 + (1+alpha) * sum of squared scaled averages``."""
    coeffs = decomp.eigenvectors.T @ f
    grad2 = float(np.sum(_power_weights(decomp, 2) * coeffs * coeffs))
    averages = analyze(partition, f)
    sampled = float(averages @ averages)
    if math.isfinite(partition.lambda_xi):
        smooth_term = (1.0 + alpha) / alpha * grad2 / partition.lambda_xi
    else:
        smooth_term = 0.0
    return smooth_term + (1.0 + alpha) * sampled - float(f @ f)


def orthogonality_defect(decomp, partition, u: np.ndarray, k: int) -> tuple[float, float]:
    """Largest inner product of L^{k/2} u with L^{k/2} of the zero-average basis, and its scale.

    u is the order-k spline of its own averages exactly when the defect
    vanishes; ``defect / scale`` is the relative defect ``kkt_residual`` reports.
    """
    basis = _basis(decomp, partition)
    factors = _order_factors(decomp, basis, k)
    return _smoothness_defect(basis.kernel, factors, factors.weights * (decomp.eigenvectors.T @ u))


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
