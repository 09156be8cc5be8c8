"""Cluster partitions, cluster averages, and frame bounds on band subspaces.

A partition splits the vertex set into disjoint clusters, each inducing a
connected subgraph. Each cluster carries the spectral gap of its induced
subgraph; the partition constant is the smallest of those gaps. Sampling a
signal means recording, per cluster, the scaled average
``sum(f over cluster) / sqrt(cluster size)`` - the inner product against the
normalized indicator of the cluster.

A partition is valid by construction: :func:`validate_partition`, its only
constructor, checks the cover and stores it once, as the label vector (the
cluster index of each vertex), with the square roots of the cluster sizes and
the cluster gaps. Averages, the frame's analysis matrix and the spline
constraint rows are all computed from those two arrays.

For signals of bandwidth omega, those averages form a frame whenever
``gamma = (1 + alpha)/alpha * omega / Lambda < 1`` for some alpha > 0, with
lower frame bound at least ``(1 - gamma)/(1 + alpha)`` and upper bound 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import InputError, NumericalError
from .graph import WeightedGraph, _components
from .spectral import SpectralDecomposition, pw_space

#: Singular values at or below this fraction of the largest are treated as
#: zero, both in the pseudoinverse and when deciding whether the analysis map
#: has a kernel.
RANK_CUTOFF = 1e-10


@dataclass(frozen=True, init=False, eq=False)
class ClusterPartition:
    """Disjoint cover of the vertex set by connected clusters, valid by construction; equal only to itself.

    Build one with :func:`validate_partition`, which checks the cover; direct
    construction and ``dataclasses.replace`` raise TypeError, so no partition
    carries an unchecked cluster or gap.

    ``labels`` is the read-only cluster index of each vertex; cluster j is
    the vertices labelled j. ``lambda1s[j]`` is the spectral gap of its
    induced subgraph (+inf for singletons, whose within-cluster deviation is
    identically zero). ``lambda_xi`` is the minimum over clusters, +inf if
    every cluster is a singleton. ``_sqrt_sizes`` is the read-only square
    root of each cluster's vertex count, which scales every average.
    """

    n: int
    lambda1s: tuple[float, ...]
    lambda_xi: float
    labels: np.ndarray = field(repr=False)
    _sqrt_sizes: np.ndarray = field(repr=False)

    def __init__(self, *args, **kwargs):
        raise TypeError("build a ClusterPartition with validate_partition")

    @property
    def num_clusters(self) -> int:
        return len(self._sqrt_sizes)


def validate_partition(graph: WeightedGraph, clusters: Sequence[Sequence[int]]) -> ClusterPartition:
    """Check a cluster list and compute the per-cluster spectral gaps.

    Raises InputError, naming the first offending cluster, for a non-integer
    (fractional, NaN or infinite) vertex id, an empty cluster, repeated or
    out-of-range vertices, a vertex in more than one cluster; then for
    uncovered vertices or a cluster whose induced subgraph is disconnected.
    """
    n, clusters = graph.n, list(clusters)
    sizes = np.fromiter(map(len, clusters), dtype=np.intp, count=len(clusters))
    raw = np.array([v for cluster in clusters for v in cluster], dtype=float)
    whole = np.isfinite(raw) & (raw == np.floor(raw))
    # Clipping keeps an out-of-range id out of range and the cast exact.
    ids = np.where(whole, np.clip(raw, -1, n), 0).astype(np.intp)
    order = np.argsort(ids, kind="stable")  # an id's first entry sorts first
    again = np.zeros(len(ids), dtype=bool)
    again[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    bad = ~whole | (ids < 0) | (ids >= n) | again
    owner = np.repeat(np.arange(len(clusters)), sizes)
    faulty = (sizes == 0) | (np.bincount(owner[bad], minlength=len(clusters)) > 0)
    if faulty.any():
        idx = int(faulty.argmax())
        entries = slice(int(sizes[:idx].sum()), int(sizes[: idx + 1].sum()))
        values, verts = raw[entries], ids[entries]
        if not whole[entries].all():
            raise InputError(f"cluster {idx} has a non-integer vertex id {float(values[~whole[entries]][0])}")
        if not verts.size:
            raise InputError(f"cluster {idx} is empty")
        if np.unique(values).size < values.size:
            raise InputError(f"cluster {idx} has repeated vertices")
        if verts.min() < 0 or verts.max() >= n:
            raise InputError(f"cluster {idx} has out-of-range vertices for n={n}")
        raise InputError(f"vertex {int(verts[again[entries]].min())} appears in more than one cluster")
    labels = np.full(n, -1, dtype=np.intp)
    labels[ids] = owner
    uncovered = np.flatnonzero(labels < 0)
    if uncovered.size:
        raise InputError(f"vertices not covered by any cluster: {uncovered[:8].tolist()}")

    gaps = _cluster_gaps(graph, labels, sizes)
    finite = [g for g in gaps if math.isfinite(g)]
    partition = object.__new__(ClusterPartition)
    sqrt_sizes = np.sqrt(sizes.astype(float))
    labels.flags.writeable = sqrt_sizes.flags.writeable = False
    vars(partition).update(n=n, lambda1s=tuple(gaps), lambda_xi=min(finite) if finite else math.inf,
                           labels=labels, _sqrt_sizes=sqrt_sizes)
    return partition


def _cluster_gaps(graph: WeightedGraph, labels: np.ndarray, sizes: np.ndarray) -> list[float]:
    """Spectral gap of each cluster's induced subgraph, from one pass over the edges.

    ``labels`` and ``sizes`` are the cover's label vector and cluster sizes.
    The clusters are ranked by (size, label), and each s x s Laplacian block
    has its place, in rank order, in one flat buffer. Two scatter writes put
    every intra-cluster edge's off-diagonal entries there, with no edge sort.
    The blocks of one size form a contiguous run of the buffer, which one
    reshape views as a stack for its diagonal and one batched eigensolve.
    Raises InputError for the first cluster whose induced subgraph is
    disconnected.
    """
    us, vs, ws = graph._edge_arrays
    edge_cluster = labels[us]
    intra = edge_cluster == labels[vs]
    us, vs, ws, edge_cluster = us[intra], vs[intra], ws[intra], edge_cluster[intra]

    count, component = _components(graph.n, us, vs)
    if count > len(sizes):
        per_cluster = np.bincount(labels[np.unique(component, return_index=True)[1]], minlength=len(sizes))
        idx = int(np.flatnonzero(per_cluster > 1)[0])
        members = tuple(np.flatnonzero(labels == idx).tolist())
        raise InputError(f"cluster {idx} {members} induces a disconnected subgraph")

    by_cluster = np.argsort(labels, kind="stable")  # the vertices in (label, vertex) order
    # Each vertex's index inside its (sorted) cluster.
    position = np.empty(graph.n, dtype=np.intp)
    position[by_cluster] = np.arange(graph.n) - np.repeat(np.cumsum(sizes) - sizes, sizes)

    # Clusters ranked by (size, label); the block of rank r starts at ranked_start[r].
    by_size = np.argsort(sizes, kind="stable")
    ranked_sizes = sizes[by_size]
    ranked_area = ranked_sizes * ranked_sizes
    ranked_start = np.cumsum(ranked_area) - ranked_area
    start_of = np.empty(len(sizes), dtype=np.intp)
    start_of[by_size] = ranked_start
    buffer = np.zeros(int(ranked_area.sum()))
    base, size_of, i, j = start_of[edge_cluster], sizes[edge_cluster], position[us], position[vs]
    buffer[base + i * size_of + j] = -ws
    buffer[base + j * size_of + i] = -ws

    gaps = np.full(len(sizes), math.inf)
    starts = np.flatnonzero(np.diff(ranked_sizes, prepend=0))  # first rank of each size
    starts = starts[ranked_sizes[starts] > 1]
    stops = np.append(starts[1:], len(sizes))
    for start, stop in zip(starts.tolist(), stops.tolist()):
        size, first = int(ranked_sizes[start]), int(ranked_start[start])
        blocks = buffer[first:first + (stop - start) * size * size].reshape(stop - start, size, size)
        diagonal = np.arange(size)
        blocks[:, diagonal, diagonal] = -blocks.sum(axis=2)
        gaps[by_size[start:stop]] = np.linalg.eigvalsh(blocks)[:, 1]
    return gaps.tolist()


def _cluster_rows(partition: ClusterPartition, matrix: np.ndarray) -> np.ndarray:
    """Scaled cluster sums of each column of an n-row matrix (J rows).

    Row j is the sum of the rows of cluster j divided by sqrt(size j), the
    normalized indicators applied to every column. The indicators are built
    sparse from the label vector (n nonzeros), never as a dense J x n array.
    """
    labels = partition.labels
    indicators = csr_matrix((1.0 / partition._sqrt_sizes[labels], (labels, np.arange(partition.n))),
                            shape=(partition.num_clusters, partition.n))
    return indicators @ matrix


def analyze(partition: ClusterPartition, f: np.ndarray) -> np.ndarray:
    """Scaled cluster averages: s_j = sum(f over cluster j) / sqrt(size j)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (partition.n,):
        raise InputError(f"signal shape {f.shape} does not match n={partition.n}")
    return np.bincount(partition.labels, f, minlength=partition.num_clusters) / partition._sqrt_sizes


@dataclass(frozen=True)
class FrameSystem:
    """Cluster-average analysis of a band subspace, with frame bounds.

    ``analysis`` has one row per cluster and one column per in-band
    eigenvector (the columns of ``basis``); applied to band coefficients it
    produces the scaled cluster averages. ``lower``/``upper`` are the extreme
    squared singular values; ``lower`` is zero when there are more band
    dimensions than clusters (or the analysis map otherwise loses rank), in
    which case the averages do not determine the signal.

    Everything but the five init fields is derived when the system is built.
    ``gamma`` comes from ``omega``, ``alpha`` and the partition constant by
    the one formula for it, so it cannot disagree with them. The bounds, the
    pseudoinverse ``pinv`` (the canonical dual frame, singular values at or
    below ``RANK_CUTOFF`` times the largest dropped), the Gram matrix
    ``gram`` (``analysis.T @ analysis``), and the ``singular_values`` and
    right singular vectors ``right_vectors`` (as columns, m x min(J, m)) come
    from ``analysis`` by one thin SVD. ``_schedules`` memoises the frame
    iteration's step schedule per ``(mu, tol, max_iter)``: built by the first
    ``reconstruct.frame_algorithm`` call with that config, it holds at most
    two ``reconstruct._ERROR_LOG_BLOCK`` x m tables of doubles.
    """

    omega: float
    alpha: float
    analysis: np.ndarray  # J x m
    basis: np.ndarray  # n x m band eigenvectors
    partition: ClusterPartition
    gamma: float = field(init=False)
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
        kept = singular > RANK_CUTOFF * singular[0]
        inverse = np.divide(1.0, singular, where=kept, out=np.zeros_like(singular))
        right = vt.T
        pinv = right @ (inverse[:, None] * u.T)
        gram = self.analysis.T @ self.analysis
        for derived in (pinv, gram, singular, right):
            derived.flags.writeable = False
        object.__setattr__(self, "gamma", _gamma(self.omega, self.alpha, self.partition.lambda_xi))
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


def _check_alpha(alpha: float) -> None:
    """InputError unless alpha is finite and positive (NaN fails both tests)."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise InputError(f"alpha must be positive and finite, got {alpha}")


def _gamma(omega: float, alpha: float, lambda_xi: float) -> float:
    """The contraction parameter gamma = (1+alpha)/alpha * omega/Lambda.

    0 when every cluster is a singleton (Lambda = +inf: averages are point
    samples); +inf when Lambda is not positive, so no guarantee applies.
    """
    _check_alpha(alpha)
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
    _check_alpha(alpha)
    space = pw_space(decomp, omega)
    if space.dim < 1:
        raise NumericalError(f"band subspace is empty for omega={omega}")
    if partition.n != decomp.n:
        raise InputError("partition and decomposition sizes differ")

    analysis = _cluster_rows(partition, space.basis)  # J x m
    analysis.flags.writeable = False
    return FrameSystem(omega=float(omega), alpha=float(alpha), analysis=analysis, basis=space.basis,
                       partition=partition)


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


def _integer(value, name: str, least: int = 1) -> int:
    """``value`` as an int; InputError unless it is an integer (not a bool) >= ``least`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InputError(f"{name} must be a {'positive' if least else 'nonnegative'} integer, got {value!r}")
    return int(value)


def pairs_partition(n: int) -> list[tuple[int, int]]:
    """Consecutive pairs {0,1}, {2,3}, ...; n must be even."""
    if n % 2 != 0:
        raise InputError(f"pairs partition needs an even vertex count, got n={n}")
    return [(2 * j, 2 * j + 1) for j in range(n // 2)]


def blocks_partition(n: int, size: int) -> list[tuple[int, ...]]:
    """Consecutive index blocks of a given size; the last block may be shorter."""
    size = _integer(size, "block size")
    return [tuple(range(start, min(start + size, n))) for start in range(0, n, size)]


def bfs_partition(graph: WeightedGraph, radius: int) -> list[tuple[int, ...]]:
    """Greedy cover by breadth-first balls of a given hop radius.

    Repeatedly grows a ball from the smallest unassigned vertex, restricted
    to unassigned vertices, so every cluster induces a connected subgraph.
    """
    radius = _integer(radius, "radius", least=0)
    indptr, indices = graph._adjacency
    # A ball is too small for numpy calls to pay; the memoryview turns only
    # the neighbour slices the frontier reads into Python ints.
    indptr, indices = indptr.tolist(), memoryview(indices)
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
