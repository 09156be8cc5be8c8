"""Cluster partitions, average functionals, and frame bounds on band subspaces.

A partition splits the vertex set into disjoint clusters, each inducing a
connected subgraph. Each cluster carries the spectral gap of its induced
subgraph; the partition constant is the smallest of those gaps. Sampling a
signal means recording, per cluster, the scaled average
``sum(f over cluster) / sqrt(cluster size)`` - the inner product against the
normalized indicator of the cluster.

For signals of bandwidth omega, those averages form a frame whenever
``gamma = (1 + alpha)/alpha * omega / Lambda < 1`` for some alpha > 0, with
lower frame bound at least ``(1 - gamma)/(1 + alpha)`` and upper bound 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize_scalar
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InputError, NumericalError
from .graph import WeightedGraph
from .spectral import SpectralDecomposition, pw_space

#: Singular values at or below this fraction of the largest are treated as
#: zero when deciding whether the analysis map has a kernel.
RANK_CUTOFF = 1e-10


@dataclass(frozen=True)
class ClusterPartition:
    """Disjoint cover of the vertex set by connected clusters.

    ``lambda1s[j]`` is the spectral gap of the induced subgraph of cluster j
    (+inf for singletons, whose within-cluster deviation is identically
    zero). ``lambda_xi`` is the minimum over clusters, +inf if every cluster
    is a singleton.
    """

    n: int
    clusters: tuple[tuple[int, ...], ...]
    lambda1s: tuple[float, ...]
    lambda_xi: float

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @cached_property
    def sizes(self) -> np.ndarray:
        out = np.array([len(c) for c in self.clusters], dtype=float)
        out.flags.writeable = False
        return out


def validate_partition(graph: WeightedGraph, clusters: Sequence[Sequence[int]]) -> ClusterPartition:
    """Check a cluster list and compute the per-cluster spectral gaps.

    Raises InputError for overlapping clusters, uncovered vertices, empty
    clusters, out-of-range indices, or a cluster whose induced subgraph is
    disconnected.
    """
    norm_clusters: list[tuple[int, ...]] = []
    seen = np.zeros(graph.n, dtype=bool)
    for idx, cluster in enumerate(clusters):
        verts = sorted(int(v) for v in cluster)
        if not verts:
            raise InputError(f"cluster {idx} is empty")
        if len(set(verts)) != len(verts):
            raise InputError(f"cluster {idx} has repeated vertices")
        if verts[0] < 0 or verts[-1] >= graph.n:
            raise InputError(f"cluster {idx} has out-of-range vertices for n={graph.n}")
        for v in verts:
            if seen[v]:
                raise InputError(f"vertex {v} appears in more than one cluster")
            seen[v] = True
        norm_clusters.append(tuple(verts))
    uncovered = np.flatnonzero(~seen)
    if uncovered.size:
        raise InputError(f"vertices not covered by any cluster: {uncovered[:8].tolist()}")

    gaps = _cluster_gaps(graph, norm_clusters)
    finite = [g for g in gaps if math.isfinite(g)]
    lam_xi = min(finite) if finite else math.inf
    return ClusterPartition(
        n=graph.n,
        clusters=tuple(norm_clusters),
        lambda1s=tuple(gaps),
        lambda_xi=lam_xi,
    )


def _cluster_gaps(graph: WeightedGraph, clusters: Sequence[tuple[int, ...]]) -> list[float]:
    """Spectral gap of each cluster's induced subgraph, from one pass over the edges.

    The intra-cluster edges are grouped by cluster label; each cluster's
    Laplacian block is assembled from its group alone. Raises InputError
    for the first cluster whose induced subgraph is disconnected.
    """
    sizes = np.array([len(c) for c in clusters], dtype=np.intp)
    members = np.concatenate(clusters).astype(np.intp)
    labels = np.empty(graph.n, dtype=np.intp)
    labels[members] = np.repeat(np.arange(len(clusters)), sizes)
    position = np.empty(graph.n, dtype=np.intp)
    position[members] = np.arange(graph.n) - np.repeat(np.cumsum(sizes) - sizes, sizes)

    us, vs, ws = graph._edge_arrays
    intra = labels[us] == labels[vs]
    us, vs, ws = us[intra], vs[intra], ws[intra]
    order = np.argsort(labels[us], kind="stable")
    us, vs, ws = us[order], vs[order], ws[order]
    bounds = np.searchsorted(labels[us], np.arange(len(clusters) + 1))

    count, component = connected_components(
        coo_matrix((np.ones(len(us)), (us, vs)), shape=(graph.n, graph.n)), directed=False
    )
    if count > len(clusters):
        per_cluster = np.bincount(labels[np.unique(component, return_index=True)[1]],
                                  minlength=len(clusters))
        idx = int(np.flatnonzero(per_cluster > 1)[0])
        raise InputError(f"cluster {idx} {clusters[idx]} induces a disconnected subgraph")

    gaps: list[float] = []
    for idx, size in enumerate(sizes):
        if size == 1:
            gaps.append(math.inf)
            continue
        lo, hi = bounds[idx], bounds[idx + 1]
        i, j, w = position[us[lo:hi]], position[vs[lo:hi]], ws[lo:hi]
        block = np.zeros((size, size))
        block[i, j] = -w
        block[j, i] = -w
        block[np.diag_indices(size)] = -block.sum(axis=1)
        gaps.append(float(sla.eigvalsh(block, check_finite=False)[1]))
    return gaps


@dataclass(frozen=True)
class AverageFunctionals:
    """Indicator-based sampling vectors for a partition.

    ``xi[j]`` is the cluster indicator scaled by 1/sqrt(size) (unit norm, and
    pairwise orthonormal because clusters are disjoint); ``zeta[j]`` is the
    indicator scaled by 1/size, so that the inner product against zeta is the
    plain arithmetic mean over the cluster.
    """

    xi: np.ndarray  # J x n
    zeta: np.ndarray  # J x n


def average_functionals(partition: ClusterPartition) -> AverageFunctionals:
    J = partition.num_clusters
    xi = np.zeros((J, partition.n))
    zeta = np.zeros((J, partition.n))
    for j, verts in enumerate(partition.clusters):
        size = len(verts)
        xi[j, list(verts)] = 1.0 / math.sqrt(size)
        zeta[j, list(verts)] = 1.0 / size
    xi.flags.writeable = False
    zeta.flags.writeable = False
    return AverageFunctionals(xi=xi, zeta=zeta)


def analyze(partition: ClusterPartition, f: np.ndarray) -> np.ndarray:
    """Scaled cluster averages: s_j = sum(f over cluster j) / sqrt(size j)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (partition.n,):
        raise InputError(f"signal shape {f.shape} does not match n={partition.n}")
    return np.array([f[list(verts)].sum() / math.sqrt(len(verts)) for verts in partition.clusters])


def cluster_means(partition: ClusterPartition, f: np.ndarray) -> np.ndarray:
    """Plain arithmetic means of a signal over each cluster."""
    f = np.asarray(f, dtype=float)
    return np.array([f[list(verts)].mean() for verts in partition.clusters])


@dataclass(frozen=True)
class FrameSystem:
    """Cluster-average analysis of a band subspace, with frame bounds.

    ``analysis`` has one row per cluster and one column per in-band
    eigenvector; applied to band coefficients it produces the scaled cluster
    averages. ``lower``/``upper`` are the extreme squared singular values;
    ``lower`` is zero when there are more band dimensions than clusters (or
    the analysis map otherwise loses rank), in which case the averages do not
    determine the signal.
    """

    omega: float
    alpha: float
    gamma: float
    lambda_xi: float
    analysis: np.ndarray  # J x m
    basis: np.ndarray  # n x m band eigenvectors
    band_eigenvalues: np.ndarray
    lower: float
    upper: float
    partition: ClusterPartition

    @property
    def dim(self) -> int:
        return self.analysis.shape[1]

    @property
    def num_clusters(self) -> int:
        return self.analysis.shape[0]

    @property
    def guarantee_active(self) -> bool:
        """True when gamma < 1, so the proven frame bounds apply."""
        return self.gamma < 1.0

    @property
    def is_frame(self) -> bool:
        """True when the lower frame bound is numerically positive."""
        return math.sqrt(self.lower) > RANK_CUTOFF * math.sqrt(self.upper)

    def to_signal(self, coefficients: np.ndarray) -> np.ndarray:
        """Map band coefficients back to a vertex-space signal."""
        return self.basis @ np.asarray(coefficients, dtype=float)


def build_frame_system(
    decomp: SpectralDecomposition,
    partition: ClusterPartition,
    omega: float,
    alpha: float,
) -> FrameSystem:
    """Assemble the analysis matrix of the cluster averages on a band subspace.

    The contraction parameter gamma = (1+alpha)/alpha * omega/Lambda decides
    whether the proven bounds are active; the actual bounds are always
    computed from the singular values of the analysis matrix.
    """
    if alpha <= 0:
        raise InputError(f"alpha must be positive, got {alpha}")
    space = pw_space(decomp, omega)
    if space.dim < 1:
        raise NumericalError(f"band subspace is empty for omega={omega}")
    if partition.n != decomp.n:
        raise InputError("partition and decomposition sizes differ")

    analysis = average_functionals(partition).xi @ space.basis  # J x m
    analysis.flags.writeable = False

    J, m = analysis.shape
    singular = np.linalg.svd(analysis, compute_uv=False)
    upper = float(singular[0] ** 2) if singular.size else 0.0
    lower = float(singular[-1] ** 2) if (J >= m and singular.size == m) else 0.0

    if math.isfinite(partition.lambda_xi) and partition.lambda_xi > 0:
        gamma = (1.0 + alpha) / alpha * omega / partition.lambda_xi
    else:
        gamma = 0.0  # every cluster is a singleton: averages are point samples
    return FrameSystem(
        omega=float(omega),
        alpha=float(alpha),
        gamma=float(gamma),
        lambda_xi=partition.lambda_xi,
        analysis=analysis,
        basis=space.basis,
        band_eigenvalues=space.eigenvalues,
        lower=lower,
        upper=upper,
        partition=partition,
    )


@dataclass(frozen=True)
class PoincareCheck:
    holds: bool
    slack: float
    lhs: float
    rhs: float


def global_poincare_check(
    decomp: SpectralDecomposition,
    partition: ClusterPartition,
    f: np.ndarray,
    alpha: float,
    tol: float = 1e-9,
) -> PoincareCheck:
    """Verify the partition energy inequality for one signal.

    Checks ``norm(f)**2 <= (1+alpha)/alpha / Lambda * grad2
    + (1+alpha) * sum of squared scaled averages`` where grad2 is the squared
    gradient seminorm, and returns the slack (rhs - lhs). ``holds`` allows a
    small scale-aware negative slack for roundoff.
    """
    if alpha <= 0:
        raise InputError(f"alpha must be positive, got {alpha}")
    f = np.asarray(f, dtype=float)
    if f.shape != (decomp.n,):
        raise InputError(f"signal shape {f.shape} does not match n={decomp.n}")
    lhs = float(f @ f)
    lam = np.maximum(decomp.eigenvalues, 0.0)
    coeffs = decomp.eigenvectors.T @ f
    grad2 = float(np.sum(lam * coeffs * coeffs))
    averages = analyze(partition, f)
    sampled = float(averages @ averages)
    if math.isfinite(partition.lambda_xi):
        smooth_term = (1.0 + alpha) / alpha * grad2 / partition.lambda_xi
    else:
        smooth_term = 0.0
    rhs = smooth_term + (1.0 + alpha) * sampled
    slack = rhs - lhs
    return PoincareCheck(holds=slack >= -tol * max(1.0, lhs), slack=slack, lhs=lhs, rhs=rhs)


def optimal_alpha(omega: float, lambda_xi: float, upper: float = 1e6) -> tuple[float, float]:
    """The alpha maximizing the guaranteed lower frame bound (1-gamma)/(1+alpha).

    Only meaningful when omega < lambda_xi (otherwise no alpha makes
    gamma < 1). Returns (alpha, bound). Found by bounded scalar search over
    (omega/(lambda_xi - omega), upper), the interval on which gamma < 1.
    """
    if not math.isfinite(lambda_xi):
        # Point samples: gamma is 0 for every alpha and the bound 1/(1+alpha)
        # has no interior maximum; report the open-end supremum.
        return 0.0, 1.0
    if omega >= lambda_xi:
        raise InputError(f"no alpha yields gamma < 1 for omega={omega} >= Lambda={lambda_xi}")
    ratio = omega / lambda_xi

    def negative_bound(alpha: float) -> float:
        gamma = (1.0 + alpha) / alpha * ratio
        return -(1.0 - gamma) / (1.0 + alpha)

    lo = ratio / (1.0 - ratio) if ratio > 0 else 0.0
    result = minimize_scalar(
        negative_bound, bounds=(lo + 1e-12, upper), method="bounded",
        options={"xatol": 1e-10},
    )
    alpha_star = float(result.x)
    return alpha_star, -float(result.fun)


def pairs_partition(n: int) -> list[tuple[int, int]]:
    """Consecutive pairs {0,1}, {2,3}, ...; n must be even."""
    if n % 2 != 0:
        raise InputError(f"pairs partition needs an even vertex count, got n={n}")
    return [(2 * j, 2 * j + 1) for j in range(n // 2)]


def blocks_partition(n: int, size: int) -> list[tuple[int, ...]]:
    """Consecutive index blocks of a given size; the last block may be shorter."""
    if size < 1:
        raise InputError(f"block size must be at least 1, got {size}")
    return [tuple(range(start, min(start + size, n))) for start in range(0, n, size)]


def bfs_partition(graph: WeightedGraph, radius: int) -> list[tuple[int, ...]]:
    """Greedy cover by breadth-first balls of a given hop radius.

    Repeatedly grows a ball from the smallest unassigned vertex, restricted
    to unassigned vertices, so every cluster induces a connected subgraph.
    """
    if radius < 0:
        raise InputError(f"radius must be nonnegative, got {radius}")
    assigned = np.zeros(graph.n, dtype=bool)
    clusters: list[tuple[int, ...]] = []
    for start in range(graph.n):
        if assigned[start]:
            continue
        ball = [start]
        assigned[start] = True
        frontier = [start]
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for v in graph.neighbors(u):
                    if not assigned[v]:
                        assigned[v] = True
                        ball.append(v)
                        nxt.append(v)
            if not nxt:
                break
            frontier = nxt
        clusters.append(tuple(sorted(ball)))
    return clusters
