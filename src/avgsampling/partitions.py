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
the cluster gaps. Averages and the frame's analysis rows Xi B are per-label
sums by ``np.bincount``; the cluster gaps and the spline memo's Xi and
Helmert contrasts H read the one layout of the labels that :func:`_layout` derives.

For signals of bandwidth omega, those averages form a frame whenever
``gamma = (1 + alpha)/alpha * omega / Lambda < 1`` for some alpha > 0, with
lower frame bound at least ``(1 - gamma)/(1 + alpha)`` and upper bound 1.
A frame system is valid by construction too: :func:`build_frame_system`
derives every field once, and nothing re-sets omega, alpha or the analysis.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import InputError, NumericalError, _ids, _integer, _shown
from .graph import WeightedGraph, _adjacency, _components
from .spectral import SpectralDecomposition, pw_space

#: Singular values at or below this fraction of the largest are treated as
#: zero, both in the pseudoinverse and when deciding whether the analysis map
#: has a kernel.
RANK_CUTOFF = 1e-10
_EPS = np.finfo(float).eps


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

    Raises InputError, naming the first offending cluster, for a cluster that is a string or bytes, or no
    sequence of ``numbers.Real`` (no string, None, Decimal or list is one), a non-integer
    (fractional, NaN or infinite) vertex id, an empty cluster, repeated or
    out-of-range vertices, a vertex in more than one cluster; then for
    uncovered vertices or a cluster whose induced subgraph is disconnected.
    The cover is decided fast and explained slowly: n whole ids, no empty
    cluster and one ``np.bincount`` that counts each vertex once pass it, and
    only other input runs the diagnostic pass that names its first fault.
    Connectivity is read from the gaps once every cluster's block is solved
    (see :func:`_cluster_gaps`): a gap above its roundoff floor proves its
    cluster connected, and an exact component search runs only when some
    gap is not above it, to name the first disconnected cluster. Then raises
    NumericalError for a cluster whose gap overflows to a non-finite value.
    """
    n, clusters = graph.n, list(clusters)
    try:
        sizes = np.fromiter(map(len, clusters), dtype=np.intp, count=len(clusters))
        raw = np.array([v for cluster in clusters for v in cluster])
    except (TypeError, ValueError):  # a cluster that is no sequence, or an entry that is not one number
        raw = None
    if raw is None or raw.ndim != 1 or raw.dtype.kind not in "biuf" or any(isinstance(c, _STRINGS) for c in clusters):
        parts = [_cluster_entries(idx, cluster) for idx, cluster in enumerate(clusters)]
        sizes, raw = np.array(list(map(len, parts)), dtype=np.intp), np.array([v for part in parts for v in part])
    ids, whole = _ids(raw, n)
    owner = np.repeat(np.arange(len(clusters)), sizes)
    if not (len(ids) == n and whole.all() and sizes.all() and (np.bincount(ids + 1, minlength=n + 2)[1:-1] == 1).all()):
        order = np.argsort(ids, kind="stable")  # an id's first entry sorts first
        again = np.zeros(len(ids), dtype=bool)
        again[order[1:]] = ids[order[1:]] == ids[order[:-1]]
        bad = ~whole | (ids < 0) | (ids >= n) | again
        faulty = (sizes == 0) | (np.bincount(owner[bad], minlength=len(clusters)) > 0)
        if faulty.any():
            idx = int(faulty.argmax())
            entries = slice(int(sizes[:idx].sum()), int(sizes[: idx + 1].sum()))
            values, verts = raw[entries], ids[entries]
            if not whole[entries].all():
                raise InputError(f"cluster {idx} has a non-integer vertex id {_shown(values[~whole[entries]][0])}")
            if not verts.size:
                raise InputError(f"cluster {idx} is empty")
            if np.unique(values).size < values.size:
                raise InputError(f"cluster {idx} has repeated vertices")
            if verts.min() < 0 or verts.max() >= n:
                raise InputError(f"cluster {idx} has out-of-range vertices for n={n}")
            raise InputError(f"vertex {int(verts[again[entries]].min())} appears in more than one cluster")
        covered = np.zeros(n, dtype=bool)
        covered[ids] = True
        raise InputError(f"vertices not covered by any cluster: {np.flatnonzero(~covered)[:8].tolist()}")
    labels = np.empty(n, dtype=np.intp)
    labels[ids] = owner

    gaps = _cluster_gaps(graph, labels, sizes)  # finite but for the singletons' inf
    partition = object.__new__(ClusterPartition)
    sqrt_sizes = np.sqrt(sizes.astype(float))
    labels.flags.writeable = sqrt_sizes.flags.writeable = False
    vars(partition).update(n=n, lambda1s=tuple(gaps), lambda_xi=min(gaps), labels=labels, _sqrt_sizes=sqrt_sizes)
    return partition


#: Not a cluster, though numpy reads a numeric string as a number and bytes as their values.
_STRINGS = (str, bytes, bytearray)


def _cluster_entries(idx: int, cluster) -> list:
    """A cluster's entries; InputError unless it is a sequence, not a string, of real numbers, as edge ids are."""
    try:
        entries = None if isinstance(cluster, _STRINGS) else list(cluster)
    except TypeError:
        entries = None
    if entries is None or not all(isinstance(v, numbers.Real) for v in entries):
        raise InputError(f"cluster {idx} is not a sequence of numeric vertex ids: {cluster!r}")
    return entries


def _cluster_gaps(graph: WeightedGraph, labels: np.ndarray, sizes: np.ndarray) -> list[float]:
    """Spectral gap of each cluster's induced subgraph, from one pass over the edges.

    ``labels`` and ``sizes`` are the cover's label vector and cluster sizes.
    The clusters are ranked by (size, label), and each s x s Laplacian block
    has its place, in rank order, in one flat buffer. Two scatter writes put
    every intra-cluster edge's off-diagonal entries there, with no edge sort.
    The blocks of one size form a contiguous run of the buffer, which one
    reshape views as a stack for its diagonal and one batched eigensolve.

    The gaps certify connectivity: a cluster is connected when its computed
    gap clears a roundoff floor that scales with its block (see below). Only
    when some gap fails to clear it (NaN and inf fail too) does an exact
    component search over the intra-cluster edges run, which raises
    InputError for the first cluster whose induced subgraph is disconnected.
    A non-finite gap left after it (the weights overflow) raises NumericalError.
    """
    us, vs, ws = graph._edge_arrays
    edge_cluster = labels[us]
    intra = (edge_cluster == labels[vs]).nonzero()[0]  # one scan of the mask, then four gathers
    us, vs, ws, edge_cluster = us[intra], vs[intra], ws[intra], edge_cluster[intra]

    by_cluster, rank = _layout(labels, sizes)
    position = np.empty(graph.n, dtype=np.intp)  # each vertex's index inside its (sorted) cluster
    position[by_cluster] = rank

    # Clusters ranked by (size, label); the block of rank r starts at ranked_start[r].
    by_size = sizes.argsort(kind="stable")
    ranked_sizes = sizes[by_size]
    ranked_area = ranked_sizes * ranked_sizes
    ranked_start = ranked_area.cumsum() - ranked_area
    start_of = np.empty(len(sizes), dtype=np.intp)
    start_of[by_size] = ranked_start
    buffer = np.zeros(int(ranked_start[-1] + ranked_area[-1]))
    base, size_of, i, j = start_of[edge_cluster], sizes[edge_cluster], position[us], position[vs]
    buffer[base + i * size_of + j] = -ws
    buffer[base + j * size_of + i] = -ws

    ranked_gaps, ranked_dmax = np.full(len(sizes), math.inf), np.zeros(len(sizes))
    bounds = [0, *((ranked_sizes[1:] != ranked_sizes[:-1]).nonzero()[0] + 1).tolist(), len(sizes)]
    bounds = bounds[int(ranked_sizes[0] == 1):]  # the singletons rank first and keep their gap inf
    with np.errstate(over="ignore"):  # an overflowing degree leaves a non-finite gap, refused below
        for start, stop in zip(bounds[:-1], bounds[1:]):  # the ranks of one size
            size, first = int(ranked_sizes[start]), int(ranked_start[start])
            blocks = buffer[first:first + (stop - start) * size * size].reshape(stop - start, size, size)
            degrees = -blocks.sum(axis=2)
            diagonal = np.arange(size)
            blocks[:, diagonal, diagonal] = degrees
            ranked_gaps[start:stop] = np.linalg.eigvalsh(blocks)[:, 1]
            ranked_dmax[start:stop] = degrees.max(axis=1)
    gaps = np.empty(len(sizes))
    gaps[by_size] = ranked_gaps
    # A disconnected cluster's exact Laplacian L has 0 as a double
    # eigenvalue, so its exact gap is 0. The assembled block differs from
    # L only on the diagonal, by the rounding of each degree's sum of at
    # most s - 1 weights: at most (s - 1)·eps·d_max in the 2-norm, where
    # d_max is the largest degree in the block. eigvalsh is backward
    # stable (LAPACK Users' Guide §4.7): each computed eigenvalue is
    # within p(s)·eps·||block||_2 of the block's own, with
    # ||block||_2 <= 2·d_max (Gershgorin). By Weyl's inequality a
    # disconnected cluster's computed gap is thus at most
    # (s - 1 + 2·p(s))·eps·d_max, below the floor C·s·eps·d_max with
    # C = 32 for any p(s) <= 15·s. A gap above the floor proves the
    # cluster connected; a singleton keeps its gap inf over the floor 0.
    certified = bool((ranked_gaps > 32 * ranked_sizes * _EPS * ranked_dmax).all())
    if not certified:
        count, component = _components(graph.n, us, vs)
        if count > len(sizes):
            per_cluster = np.bincount(labels[np.unique(component, return_index=True)[1]], minlength=len(sizes))
            idx = int(np.flatnonzero(per_cluster > 1)[0])
            members = tuple(np.flatnonzero(labels == idx).tolist())
            raise InputError(f"cluster {idx} {members} induces a disconnected subgraph")
    broken = ~np.isfinite(gaps) & (sizes > 1)
    if broken.any():
        idx = int(broken.argmax())
        raise NumericalError(f"cluster {idx} has a non-finite spectral gap {gaps[idx]}: its weights overflow")
    return gaps.tolist()


def _layout(labels: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertices in (cluster, vertex) order by one stable argsort, and each one's rank in its cluster."""
    return labels.argsort(kind="stable"), np.arange(labels.size) - (sizes.cumsum() - sizes).repeat(sizes)


def _scales(partition: ClusterPartition, n: int) -> np.ndarray:
    """Xi's entry 1/sqrt(size j) of each cluster j; InputError unless n, a decomposition's size, is the partition's."""
    if n != partition.n:
        raise InputError("partition and decomposition sizes differ")
    return 1.0 / partition._sqrt_sizes


def _indicators(partition: ClusterPartition, n: int) -> csr_matrix:
    """Xi, J x n, row j cluster j's vertices ascending, each 1/sqrt(size j); InputError unless n is the partition's."""
    sizes = np.bincount(partition.labels)
    return csr_matrix((np.repeat(_scales(partition, n), sizes), _layout(partition.labels, sizes)[0],
                       np.concatenate([[0], np.cumsum(sizes)])), shape=(len(sizes), n))


def _contrasts(partition: ClusterPartition) -> csr_matrix:
    """H, the n x (n - J) Helmert contrasts: with Xi^T's columns an orthonormal basis of R^n, zero-sum in each cluster.

    With a cluster's vertices ascending as v_0 < ... < v_{s-1}, contrast
    i = 1 .. s-1 is ``(e_{v_0} + ... + e_{v_{i-1}} - i e_{v_i}) / sqrt(i (i+1))``.
    """
    order, rank = _layout(partition.labels, np.bincount(partition.labels))
    head = np.flatnonzero(rank > 0)  # one column each: contrast i = rank[head], entries at positions head-i .. head
    count = rank[head] + 1
    column = np.repeat(np.arange(head.size), count)
    back = np.repeat(np.cumsum(count), count) - 1 - np.arange(column.size)  # i .. 0 within each column
    i = np.repeat(rank[head], count).astype(float)
    values = np.where(back > 0, 1.0, -i) / np.sqrt(i * (i + 1.0))
    return csr_matrix((values, (order[head[column] - back], column)), shape=(partition.n, head.size))


def _cluster_rows(partition: ClusterPartition, matrix: np.ndarray) -> np.ndarray:
    """``Xi @ matrix``, one ``np.bincount`` per block of columns of at most 2**16 entries; InputError as ``_scales``.

    Entry (v, k), v in cluster j, adds ``matrix[v, k] * (1/sqrt(size j))`` at key ``j * width + k``, in index order
    from 0: vertex ascending, ``((0 + x_0) + x_1) + ...``, the CSR product's terms and order, so its bits.
    """
    (n, m), J, labels = matrix.shape, partition.num_clusters, partition.labels
    scale, width = _scales(partition, n)[labels][:, None], max(1, min(m, 2**16 // n))
    keys, rows = ((labels * width)[:, None] + np.arange(width)).ravel(), np.empty((J, m))
    for k in [min(start, m - width) for start in range(0, m, width)]:  # the last ends at column m, redoing its overlap
        block = np.multiply(matrix[:, k:k + width], scale, order="C")  # ravels without a copy
        rows[:, k:k + width] = np.bincount(keys, block.ravel(), minlength=J * width).reshape(J, width)
    return rows


def analyze(partition: ClusterPartition, f: np.ndarray) -> np.ndarray:
    """Scaled cluster averages: s_j = sum(f over cluster j) / sqrt(size j).

    Checks f's shape only: a finiteness scan would add over half to this hot
    per-signal call, and a non-finite average is refused where it is used,
    as samples by the recovery routes or as targets by ``solve_spline``.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (partition.n,):
        raise InputError(f"signal shape {f.shape} does not match n={partition.n}")
    return np.bincount(partition.labels, f, minlength=partition.num_clusters) / partition._sqrt_sizes


@dataclass(frozen=True, init=False, eq=False)
class FrameSystem:
    """Cluster-average analysis of a band subspace, with frame bounds; valid by construction, equal only to itself.

    Build one with :func:`build_frame_system`; direct construction and
    ``dataclasses.replace`` raise TypeError, so ``omega``, ``alpha`` and the
    analysis matrix cannot be re-set apart from what is derived from them.

    ``analysis`` has one row per cluster and one column per in-band
    eigenvector (the columns of ``basis``); applied to band coefficients it
    produces the scaled cluster averages. ``lower``/``upper`` are the extreme
    squared singular values; ``lower`` is zero when there are more band
    dimensions than clusters (or the analysis map otherwise loses rank), in
    which case the averages do not determine the signal.

    ``gamma`` comes from ``omega``, ``alpha`` and the partition constant by
    the one formula for it, so it cannot disagree with them. The bounds, the
    pseudoinverse ``pinv`` (the canonical dual frame, singular values at or
    below ``RANK_CUTOFF`` times the largest dropped), the Gram matrix
    ``gram`` (``analysis.T @ analysis``), and the ``singular_values`` and
    right singular vectors ``right_vectors`` (as columns, m x min(J, m)) come
    from ``analysis`` by one thin SVD.
    """

    omega: float
    alpha: float
    analysis: np.ndarray  # J x m
    basis: np.ndarray  # n x m band eigenvectors
    gamma: float
    lower: float
    upper: float
    pinv: np.ndarray = field(repr=False)  # m x J
    gram: np.ndarray = field(repr=False)  # m x m
    singular_values: np.ndarray = field(repr=False)  # min(J, m), descending
    right_vectors: np.ndarray = field(repr=False)  # m x min(J, m)

    def __init__(self, *args, **kwargs):
        raise TypeError("build a FrameSystem with build_frame_system")

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
    samples); +inf when Lambda is not positive (NaN included), so no
    guarantee applies.
    """
    _check_alpha(alpha)
    if lambda_xi == math.inf:
        return 0.0
    if not lambda_xi > 0:
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
    return _frame(_cluster_rows(partition, space.basis), space.basis, float(omega), float(alpha), partition.lambda_xi)


def _frame(analysis: np.ndarray, basis: np.ndarray, omega: float, alpha: float, lambda_xi: float) -> FrameSystem:
    """The frame of a J x m analysis matrix on the band ``basis``, every derived field from one thin SVD.

    Marks ``analysis`` read-only. The one place a FrameSystem is made.
    """
    J, m = analysis.shape
    u, singular, vt = np.linalg.svd(analysis, full_matrices=False)
    kept = singular > RANK_CUTOFF * singular[0]
    inverse = np.divide(1.0, singular, where=kept, out=np.zeros(len(singular)))
    right = vt.T
    pinv = right @ (inverse[:, None] * u.T)
    gram = analysis.T @ analysis
    for array in (analysis, pinv, gram, singular, right):
        array.flags.writeable = False
    frame = object.__new__(FrameSystem)
    vars(frame).update(omega=omega, alpha=alpha, analysis=analysis, basis=basis,
                       gamma=_gamma(omega, alpha, lambda_xi), lower=float(singular[-1] ** 2) if J >= m else 0.0,
                       upper=float(singular[0] ** 2), pinv=pinv, gram=gram, singular_values=singular,
                       right_vectors=right)
    return frame


def optimal_alpha(omega: float, lambda_xi: float) -> tuple[float, float]:
    """The alpha maximizing the guaranteed lower frame bound (1-gamma)/(1+alpha).

    With r = omega/Lambda the bound is 1/(1+alpha) - r/alpha, maximal at
    alpha* = sqrt(r)/(1 - sqrt(r)), where it equals (1 - sqrt(r))**2 (and
    gamma = sqrt(r)). Returns (alpha*, bound); omega = 0 gives (0.0, 1.0).
    Requires 0 <= omega < Lambda, since otherwise no alpha makes gamma < 1,
    and refuses a NaN Lambda.
    """
    if not omega >= 0:
        raise InputError(f"omega must be nonnegative, got {omega}")
    if lambda_xi == math.inf:
        # Point samples: gamma is 0 for every alpha and the bound 1/(1+alpha)
        # has no interior maximum; report the open-end supremum.
        return 0.0, 1.0
    if not omega < lambda_xi:
        if math.isnan(lambda_xi):
            raise InputError("partition constant Lambda is NaN")
        raise InputError(f"no alpha yields gamma < 1 for omega={omega} >= Lambda={lambda_xi}")
    root = math.sqrt(omega / lambda_xi)
    # 1 - sqrt(r) = (1 - r)/(1 + sqrt(r)) stays positive when r rounds near 1.
    complement = (lambda_xi - omega) / lambda_xi / (1.0 + root)
    return root / complement, complement * complement


def pairs_partition(n: int) -> list[tuple[int, int]]:
    """Consecutive pairs {0,1}, {2,3}, ...; n must be an even positive integer."""
    n = _integer(n, "n")
    if n % 2 != 0:
        raise InputError(f"pairs partition needs an even vertex count, got n={n}")
    return [(2 * j, 2 * j + 1) for j in range(n // 2)]


def blocks_partition(n: int, size: int) -> list[tuple[int, ...]]:
    """Consecutive index blocks of a given size; the last block may be shorter."""
    n, size = _integer(n, "n"), _integer(size, "block size")
    return [tuple(range(start, min(start + size, n))) for start in range(0, n, size)]


def bfs_partition(graph: WeightedGraph, radius: int) -> list[tuple[int, ...]]:
    """Greedy cover by breadth-first balls of a given hop radius.

    Repeatedly grows a ball from the smallest unassigned vertex, restricted
    to unassigned vertices, so every cluster induces a connected subgraph.
    """
    radius = _integer(radius, "radius", least=0)
    indptr, indices = _adjacency(graph)
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
