"""Cluster partitions, cluster averages, and frame bounds on band subspaces.

A partition splits the vertex set into disjoint clusters, each inducing a
connected subgraph. Each cluster carries the spectral gap of its induced
subgraph; the partition constant is the smallest of those gaps. Sampling a
signal means recording, per cluster, the scaled average
``sum(f over cluster) / sqrt(cluster size)`` - the inner product against the
normalized indicator of the cluster. The label vector is the only stored form
of a partition; averages, the frame's analysis matrix and the spline
constraint rows are all computed from it.

For signals of bandwidth omega, those averages form a frame whenever
``gamma = (1 + alpha)/alpha * omega / Lambda < 1`` for some alpha > 0, with
lower frame bound at least ``(1 - gamma)/(1 + alpha)`` and upper bound 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InputError, NumericalError
from .graph import WeightedGraph
from .spectral import SpectralDecomposition, pw_space

#: Singular values at or below this fraction of the largest are treated as
#: zero when deciding whether the analysis map has a kernel.
RANK_CUTOFF = 1e-10
#: Relative cutoff under which singular values are treated as zero in the
#: pseudoinverse, matching the rank test used for the lower frame bound.
PINV_CUTOFF = 1e-10


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

    @cached_property
    def labels(self) -> np.ndarray:
        """Cluster index of each vertex."""
        out = _label_vector(self.n, self.clusters)
        out.flags.writeable = False
        return out


def _label_vector(n: int, clusters: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Cluster index of each vertex of a disjoint cover of 0..n-1."""
    labels = np.empty(n, dtype=np.intp)
    labels[np.concatenate(clusters).astype(np.intp)] = np.repeat(
        np.arange(len(clusters)), [len(c) for c in clusters])
    return labels


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

    sizes = np.fromiter(map(len, norm_clusters), dtype=np.intp, count=len(norm_clusters))
    gaps = _cluster_gaps(graph, norm_clusters, _label_vector(graph.n, norm_clusters), sizes)
    finite = [g for g in gaps if math.isfinite(g)]
    lam_xi = min(finite) if finite else math.inf
    return ClusterPartition(
        n=graph.n,
        clusters=tuple(norm_clusters),
        lambda1s=tuple(gaps),
        lambda_xi=lam_xi,
    )


def _cluster_gaps(
    graph: WeightedGraph, clusters: Sequence[tuple[int, ...]], labels: np.ndarray, sizes: np.ndarray
) -> list[float]:
    """Spectral gap of each cluster's induced subgraph, from one pass over the edges.

    ``labels`` and ``sizes`` are the cover's label vector and cluster sizes.
    The intra-cluster edges are sorted once by (cluster size, cluster label);
    the Laplacian blocks of all clusters of one size, in cluster order, are
    filled from one contiguous slice and solved by a single batched
    eigensolve. Raises InputError for the first cluster whose induced
    subgraph is disconnected.
    """
    us, vs, ws = graph._edge_arrays
    edge_cluster = labels[us]
    intra = edge_cluster == labels[vs]
    us, vs, ws, edge_cluster = us[intra], vs[intra], ws[intra], edge_cluster[intra]

    count, component = connected_components(
        coo_matrix((np.ones(len(us)), (us, vs)), shape=(graph.n, graph.n)), directed=False
    )
    if count > len(clusters):
        per_cluster = np.bincount(labels[np.unique(component, return_index=True)[1]],
                                  minlength=len(clusters))
        idx = int(np.flatnonzero(per_cluster > 1)[0])
        raise InputError(f"cluster {idx} {clusters[idx]} induces a disconnected subgraph")

    # Each vertex's index inside its (sorted) cluster, from the vertices in
    # (label, vertex) order.
    by_cluster = np.argsort(labels, kind="stable")
    position = np.empty(graph.n, dtype=np.intp)
    position[by_cluster] = np.arange(graph.n) - np.repeat(np.cumsum(sizes) - sizes, sizes)

    # Clusters ranked by (size, label); an edge sorts by its cluster's rank.
    by_size = np.argsort(sizes, kind="stable")
    rank = np.empty(len(clusters), dtype=np.intp)
    rank[by_size] = np.arange(len(clusters))
    edge_rank = rank[edge_cluster]
    order = np.argsort(edge_rank, kind="stable")
    edge_rank, us, vs, ws = edge_rank[order], us[order], vs[order], ws[order]

    gaps = np.full(len(clusters), math.inf)
    ranked_sizes = sizes[by_size]
    starts = np.flatnonzero(np.diff(ranked_sizes, prepend=0))  # first rank of each size
    starts = starts[ranked_sizes[starts] > 1]
    stops = np.append(starts[1:], len(clusters))
    slices = zip(starts, stops, np.searchsorted(edge_rank, starts), np.searchsorted(edge_rank, stops))
    for start, stop, lo, hi in slices:
        size = int(ranked_sizes[start])
        c, i, j, w = edge_rank[lo:hi] - start, position[us[lo:hi]], position[vs[lo:hi]], ws[lo:hi]
        blocks = np.zeros((stop - start, size, size))
        blocks[c, i, j] = -w
        blocks[c, j, i] = -w
        diagonal = np.arange(size)
        blocks[:, diagonal, diagonal] = -blocks.sum(axis=2)
        gaps[by_size[start:stop]] = np.linalg.eigvalsh(blocks)[:, 1]
    return gaps.tolist()


def _cluster_rows(partition: ClusterPartition, matrix: np.ndarray) -> np.ndarray:
    """Scaled cluster sums of each column of an n-row matrix (J rows).

    Row j is the sum of the rows of cluster j divided by sqrt(size j), the
    normalized indicators applied to every column. The indicators are built
    sparse from the label vector (n nonzeros), never as a dense J x n array;
    a cluster index that no vertex carries gets a zero row.
    """
    labels = partition.labels
    indicators = csr_matrix((1.0 / np.sqrt(partition.sizes)[labels], (labels, np.arange(partition.n))),
                            shape=(partition.num_clusters, partition.n))
    return indicators @ matrix


def analyze(partition: ClusterPartition, f: np.ndarray) -> np.ndarray:
    """Scaled cluster averages: s_j = sum(f over cluster j) / sqrt(size j)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (partition.n,):
        raise InputError(f"signal shape {f.shape} does not match n={partition.n}")
    return np.bincount(partition.labels, f, minlength=partition.num_clusters) / np.sqrt(partition.sizes)


@dataclass(frozen=True)
class FrameSystem:
    """Cluster-average analysis of a band subspace, with frame bounds.

    ``analysis`` has one row per cluster and one column per in-band
    eigenvector; applied to band coefficients it produces the scaled cluster
    averages. ``lower``/``upper`` are the extreme squared singular values;
    ``lower`` is zero when there are more band dimensions than clusters (or
    the analysis map otherwise loses rank), in which case the averages do not
    determine the signal.

    The bounds, the pseudoinverse ``pinv`` (the canonical dual frame,
    singular values at or below ``PINV_CUTOFF`` times the largest dropped),
    the Gram matrix ``gram`` (``analysis.T @ analysis``), and the
    ``singular_values`` and right singular vectors ``right_vectors`` (as
    columns, m x min(J, m)) are derived from ``analysis`` by one thin SVD
    when the system is built. ``_schedules`` memoises the frame iteration's
    step schedule per ``(mu, tol, max_iter)``: built by the first
    ``reconstruct.frame_algorithm`` call with that config, it holds at most
    ``reconstruct._ERROR_LOG_BLOCK`` x m doubles.
    """

    omega: float
    alpha: float
    gamma: float
    lambda_xi: float
    analysis: np.ndarray  # J x m
    basis: np.ndarray  # n x m band eigenvectors
    band_eigenvalues: np.ndarray
    partition: ClusterPartition
    lower: float = field(init=False)
    upper: float = field(init=False)
    pinv: np.ndarray = field(init=False, repr=False)  # m x J
    gram: np.ndarray = field(init=False, repr=False)  # m x m
    singular_values: np.ndarray = field(init=False, repr=False)  # min(J, m), descending
    right_vectors: np.ndarray = field(init=False, repr=False)  # m x min(J, m)
    _schedules: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        J, m = self.analysis.shape
        u, singular, vt = np.linalg.svd(self.analysis, full_matrices=False)
        kept = singular > PINV_CUTOFF * singular[0]
        inverse = np.divide(1.0, singular, where=kept, out=np.zeros_like(singular))
        right = vt.T
        pinv = right @ (inverse[:, None] * u.T)
        gram = self.analysis.T @ self.analysis
        for derived in (pinv, gram, singular, right):
            derived.flags.writeable = False
        object.__setattr__(self, "upper", float(singular[0] ** 2))
        object.__setattr__(self, "lower", float(singular[-1] ** 2) if J >= m else 0.0)
        object.__setattr__(self, "pinv", pinv)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "singular_values", singular)
        object.__setattr__(self, "right_vectors", right)
        object.__setattr__(self, "_schedules", {})

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


def _gamma(omega: float, alpha: float, lambda_xi: float) -> float:
    """The contraction parameter gamma = (1+alpha)/alpha * omega/Lambda.

    0 when every cluster is a singleton (Lambda = +inf: averages are point
    samples); +inf when Lambda is not positive, so no guarantee applies.
    """
    if alpha <= 0:
        raise InputError(f"alpha must be positive, got {alpha}")
    if not math.isfinite(lambda_xi):
        return 0.0
    if lambda_xi <= 0:
        return math.inf
    return (1.0 + alpha) / alpha * omega / lambda_xi


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
    gamma = _gamma(omega, alpha, partition.lambda_xi)
    space = pw_space(decomp, omega)
    if space.dim < 1:
        raise NumericalError(f"band subspace is empty for omega={omega}")
    if partition.n != decomp.n:
        raise InputError("partition and decomposition sizes differ")

    analysis = _cluster_rows(partition, space.basis)  # J x m
    analysis.flags.writeable = False
    return FrameSystem(
        omega=float(omega),
        alpha=float(alpha),
        gamma=float(gamma),
        lambda_xi=partition.lambda_xi,
        analysis=analysis,
        basis=space.basis,
        band_eigenvalues=space.eigenvalues,
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


def optimal_alpha(omega: float, lambda_xi: float) -> tuple[float, float]:
    """The alpha maximizing the guaranteed lower frame bound (1-gamma)/(1+alpha).

    With r = omega/Lambda the bound is 1/(1+alpha) - r/alpha, maximal at
    alpha* = sqrt(r)/(1 - sqrt(r)), where it equals (1 - sqrt(r))**2 (and
    gamma = sqrt(r)). Returns (alpha*, bound); omega = 0 gives (0.0, 1.0).
    Requires 0 <= omega < Lambda, since otherwise no alpha makes gamma < 1.
    """
    if not omega >= 0:
        raise InputError(f"omega must be nonnegative, got {omega}")
    if not math.isfinite(lambda_xi):
        # Point samples: gamma is 0 for every alpha and the bound 1/(1+alpha)
        # has no interior maximum; report the open-end supremum.
        return 0.0, 1.0
    if omega >= lambda_xi:
        raise InputError(f"no alpha yields gamma < 1 for omega={omega} >= Lambda={lambda_xi}")
    root = math.sqrt(omega / lambda_xi)
    # 1 - sqrt(r) = (1 - r)/(1 + sqrt(r)) stays positive when r rounds near 1.
    complement = (lambda_xi - omega) / lambda_xi / (1.0 + root)
    return root / complement, complement * complement


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
    indptr, indices = graph._adjacency
    indptr, indices = indptr.tolist(), indices.tolist()  # a ball is too small for numpy calls to pay
    assigned = [False] * graph.n
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
                for v in indices[indptr[u]:indptr[u + 1]]:
                    if not assigned[v]:
                        assigned[v] = True
                        ball.append(v)
                        nxt.append(v)
            if not nxt:
                break
            frontier = nxt
        clusters.append(tuple(sorted(ball)))
    return clusters
