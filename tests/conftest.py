"""Shared fixtures: reference graphs, decompositions, and partitions, the
quantities in the paper's inequalities, and the eigen-coordinate spline route
that the package's null-space splines are checked against.

Session scope keeps the dense eigendecompositions (the expensive part) to one
run each across the whole suite.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.linalg import qr
from scipy.sparse import csr_matrix

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
from avgsampling.partitions import _cluster_rows

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


def coo_cluster_rows(partition, matrix: np.ndarray) -> np.ndarray:
    """The scaled cluster sums of ``matrix``'s rows by the indicator CSR that
    scipy converts from COO triplets (row label, column vertex, value
    1/sqrt(size))."""
    labels = partition.labels
    indicators = csr_matrix((1.0 / partition._sqrt_sizes[labels], (labels, np.arange(partition.n))),
                            shape=(partition.num_clusters, partition.n))
    return indicators @ matrix


def write_rows(path, rows, sep=" ", header=None):
    """Write a fixture file in the package's text formats: the header line, if
    any, then one line per row, its fields by ``str`` (a float's shortest
    round-trip digits) joined by ``sep``. Returns ``path``."""
    lines = [header] * (header is not None) + [sep.join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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


def power_weights(decomp, s: float) -> np.ndarray:
    """lambda**(s/2) per eigenvalue, the roundoff kernel (at or below ``1e-9 * abs(lambda_max)``) pinned to 0."""
    lam = decomp.eigenvalues
    return np.where(lam > 1e-9 * abs(decomp.lambda_max), lam, 0.0) ** (s / 2.0)


def power(decomp, s, f: np.ndarray) -> np.ndarray:
    """L^{s/2} f through the eigenvalues, roundoff kernel pinned to 0 (s > 0)."""
    V = decomp.eigenvectors
    return V @ (power_weights(decomp, s) * (V.T @ f))


def eigen_kernel(decomp, partition) -> tuple[np.ndarray, np.ndarray]:
    """B, the scaled cluster averages of every eigenvector (J x n), and an
    orthonormal basis N of its kernel (n x (n - J)) from one complete QR of B^T."""
    B = _cluster_rows(partition, decomp.eigenvectors)
    return B, qr(B.T)[0][:, B.shape[0]:]


def zero_average(decomp, partition, coefficients: np.ndarray) -> np.ndarray:
    """The signal with zero cluster averages whose kernel coordinates are ``coefficients``."""
    return decomp.eigenvectors @ (eigen_kernel(decomp, partition)[1] @ coefficients)


def energy_slack(decomp, partition, f: np.ndarray, alpha: float) -> float:
    """rhs - lhs of the partition energy inequality ``norm(f)**2 <= (1+alpha)/alpha
    / Lambda * norm(L^{1/2} f)**2 + (1+alpha) * sum of squared scaled averages``."""
    coeffs = decomp.eigenvectors.T @ f
    grad2 = float(np.sum(power_weights(decomp, 2) * coeffs * coeffs))
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
    vanishes. The scale is the product of the factor norms, at least 1, so that
    ``defect / scale`` is a relative orthogonality defect.
    """
    kernel = eigen_kernel(decomp, partition)[1]
    weights = power_weights(decomp, k)
    smoothed = weights * (decomp.eigenvectors.T @ u)
    defect = float(np.max(np.abs(kernel.T @ (weights * smoothed)), initial=0.0))
    column_norm = float(np.max(np.linalg.norm(weights[:, None] * kernel, axis=0), initial=0.0))
    return defect, max(1.0, float(np.linalg.norm(smoothed)) * column_norm)


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
