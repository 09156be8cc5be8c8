"""Variational splines interpolating prescribed cluster averages.

The order-k spline for targets v is the unique signal minimizing the
smoothness seminorm ``norm(L^{k/2} u)`` among all signals whose scaled
cluster averages equal v. With a full disjoint cover by connected clusters
the minimizer exists and is unique for every k >= 1, as the bound below shows.

Solved on the null space of the averages (Benzi, Golub and Liesen, Acta
Numerica 14, 2005, section 6), with no eigenvector. Xi^T holds the normalized
cluster indicators (n x J) and H the Helmert contrasts within each cluster
(s - 1 per cluster of size s); together their columns are an orthonormal
basis of R^n, and the signals with zero averages are exactly those Hy. So the
spline is ``Xi^T v + H y`` with ``A_k y = -H^T Lhat^k Xi^T v``, where
``A_k = H^T Lhat^k H`` and Lhat = L / lambda_max; that division leaves the
spline unchanged and keeps every entry within [-1, 1] at any weight scale.
None of this depends on v, so each order's A_k is Cholesky-factored once and
its J cardinal splines ``S_k = Xi^T - H A_k^{-1} H^T Lhat^k Xi^T`` (column j
has targets e_j) are memoised: n*J doubles per order, for each decomposition
and its last partition (``_CARDINALS``). A spline then costs one product
``S_k @ v``.

The partition constant Lambda certifies the solve. For u = Hy:
  1. each cluster's Poincare inequality, summed, gives <L u, u> >= Lambda |u|^2
     (u has zero average on every cluster, and edges between clusters only add);
  2. the moment inequality <L^k u, u> >= <L u, u>^k for unit u then gives
     <L^k u, u> >= Lambda^k |u|^2, so y^T A_k y >= (Lambda/lambda_max)^k |y|^2;
  3. |Lhat| <= 1 and |H| = 1 give A_k <= I, so cond(A_k) <= (lambda_max/Lambda)^k.
An order whose bound exceeds ``CONDITION_LIMIT`` is refused before anything
is factored.

When a signal of bandwidth omega is interpolated through a partition with
gamma = (1+alpha)/alpha * omega/Lambda < 1, the spline of order k = 2^l
recovers it up to a factor 2*gamma**k of its norm.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import csr_matrix, identity, issparse, spmatrix

from .errors import InputError, NumericalError, _integer, _vector
from .partitions import ClusterPartition, _cluster_rows, _gamma, analyze
from .spectral import SpectralDecomposition, pw_project

#: Refuse spline orders whose certified condition bound (lambda_max/Lambda)**k exceeds this.
CONDITION_LIMIT = 1e14


@dataclass(frozen=True, eq=False)
class SplineSolution:
    """An order-k spline, its stationarity residual and its order's certified condition bound; equal only to itself.

    ``kkt_residual`` is ``max |H^T Lhat^k u|`` over the contrasts, divided by
    ``norm(u)`` (0 for u = 0): 0 for an exact minimizer, about a rounding
    error for a computed one, at most 1 always. ``condition_estimate`` is the
    bound (lambda_max/Lambda)**k on the condition of the order's system, read
    off the inputs before solving (1 when every cluster is a singleton and
    there is no system).
    """

    signal: np.ndarray
    kkt_residual: float
    condition_estimate: float


class _Order(NamedTuple):
    """One order's n x J cardinal splines and its sparse stationarity map ``H^T Lhat^k``."""

    splines: np.ndarray
    stationarity: spmatrix


@dataclass(frozen=True, eq=False)
class _Cardinals:
    """Lhat, the indicators Xi, the contrasts H and each order so far, all read-only, for one partition."""

    partition: ClusterPartition
    laplacian: csr_matrix
    indicators: csr_matrix
    contrasts: csr_matrix
    orders: dict[int, _Order] = field(default_factory=dict)


#: Each live decomposition's cardinal splines for the last partition used with it.
_CARDINALS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _read_only(*matrices) -> None:
    """Marks each dense array, and the three arrays behind each sparse matrix, read-only."""
    for m in matrices:
        for a in (m.data, m.indices, m.indptr) if issparse(m) else (m,):
            a.flags.writeable = False


def _helmert(partition: ClusterPartition) -> csr_matrix:
    """The n x (n - J) Helmert contrasts: orthonormal, zero-sum within each cluster, from the label vector.

    With a cluster's vertices ascending as v_0 < ... < v_{s-1}, contrast
    i = 1 .. s-1 is ``(e_{v_0} + ... + e_{v_{i-1}} - i e_{v_i}) / sqrt(i (i+1))``.
    """
    labels = partition.labels
    order = np.argsort(labels, kind="stable")  # the clusters one after another, each ascending
    sizes = np.bincount(labels, minlength=partition.num_clusters)
    rank = np.arange(partition.n) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # of order[p] in its cluster
    head = np.flatnonzero(rank > 0)  # one column each: contrast i = rank[head], entries at positions head-i .. head
    count = rank[head] + 1
    column = np.repeat(np.arange(head.size), count)
    back = np.repeat(np.cumsum(count), count) - 1 - np.arange(column.size)  # i .. 0 within each column
    i = np.repeat(rank[head], count).astype(float)
    values = np.where(back > 0, 1.0, -i) / np.sqrt(i * (i + 1.0))
    return csr_matrix((values, (order[head[column] - back], column)), shape=(partition.n, head.size))


def _condition(decomp: SpectralDecomposition, partition: ClusterPartition, k: int) -> float:
    """(lambda_max/Lambda)**k, at least 1, inf past the largest double; NumericalError beyond ``CONDITION_LIMIT``."""
    try:
        condition = max(1.0, (decomp.lambda_max / partition.lambda_xi) ** k)
    except OverflowError:
        condition = math.inf
    if condition > CONDITION_LIMIT:
        raise NumericalError(
            f"order-{k} spline system condition bound (lambda_max/Lambda)^k ~{condition:.2e} exceeds "
            f"{CONDITION_LIMIT:.0e}; reduce the order or use clusters with larger spectral gaps"
        )
    return condition


def _orders(decomp: SpectralDecomposition, partition: ClusterPartition, k_list) -> list[tuple[int, float, _Order]]:
    """Each order with its condition bound and memoised cardinal splines, in ``k_list``'s order.

    Checks every order and its bound first, so a refused order caches
    nothing. The missing orders are then built in ascending order, each
    from ``Lhat^k H`` by sparse products that reuse the last one's power.
    The memo (``_CARDINALS``) is replaced when called with another
    partition object; NumericalError when a Cholesky factorisation fails.
    """
    ks = [_integer(k, "spline order") for k in k_list]
    conditions = {k: _condition(decomp, partition, k) for k in ks}
    memo = _CARDINALS.get(decomp)
    if memo is None or memo.partition is not partition:
        # Xi from the one maker of cluster sums, which refuses a partition of another size
        indicators = _cluster_rows(partition, identity(decomp.n, format="csr"))
        laplacian = csr_matrix(decomp.matrix)
        laplacian.data /= decomp.lambda_max
        contrasts = _helmert(partition)
        _read_only(indicators, laplacian, contrasts)
        memo = _CARDINALS[decomp] = _Cardinals(partition, laplacian, indicators, contrasts)
    H, power, j = memo.contrasts, memo.contrasts, 0
    for k in sorted(conditions.keys() - memo.orders.keys()):
        while j < k:
            power, j = memo.laplacian @ power, j + 1
        stationarity = power.T  # H^T Lhat^k, as Lhat is symmetric
        factor, info = lapack.dpotrf((H.T @ power).toarray(order="F"), lower=1, overwrite_a=1, clean=0)
        solved = (stationarity @ memo.indicators.T).toarray(order="F")
        if info == 0 and solved.size:  # empty when every cluster is a singleton
            solved, info = lapack.dpotrs(factor, solved, lower=1, overwrite_b=1)
        if info != 0:
            raise NumericalError(f"order-{k} Cholesky factorisation failed (LAPACK info {info})")
        splines = H @ solved  # S_k = Xi^T - H A_k^{-1} H^T Lhat^k Xi^T
        np.negative(splines, out=splines)
        splines[np.arange(decomp.n), partition.labels] += 1.0 / partition._sqrt_sizes[partition.labels]
        _read_only(splines, stationarity)
        memo.orders[k] = _Order(splines, stationarity)
    return [(k, conditions[k], memo.orders[k]) for k in ks]


def solve_spline(
    decomp: SpectralDecomposition,
    partition: ClusterPartition,
    targets: np.ndarray,
    k: int,
) -> SplineSolution:
    """Minimize the order-k smoothness seminorm among signals whose scaled cluster averages are ``targets``.

    The recovery rate 2*gamma**k is proven for orders that are powers of two
    (``ConvergenceRow.proved``); other positive integer orders are solved
    too. Raises InputError unless k is a positive integer and the targets are
    one finite value per cluster, and NumericalError when the order's
    certified condition bound exceeds the double-precision budget, rather
    than returning digits that cannot be trusted.
    """
    targets = _vector(targets, partition.num_clusters, "targets")
    (_, condition, order), = _orders(decomp, partition, [k])
    signal = order.splines @ targets
    residual, norm = order.stationarity @ signal, math.sqrt(signal @ signal)
    kkt = float(np.abs(residual).max()) / norm if norm and residual.size else 0.0
    return SplineSolution(signal=signal, kkt_residual=kkt, condition_estimate=condition)


def interpolate(
    decomp: SpectralDecomposition,
    partition: ClusterPartition,
    f: np.ndarray,
    k: int,
) -> SplineSolution:
    """Spline of order k whose cluster averages match those of the signal."""
    return solve_spline(decomp, partition, analyze(partition, f), k)


@dataclass(frozen=True)
class ConvergenceRow:
    order: int
    rel_error: float
    bound: float
    within_bound: bool
    proved: bool


def spline_convergence_experiment(
    decomp: SpectralDecomposition,
    partition: ClusterPartition,
    omega: float,
    alpha: float,
    f: np.ndarray,
    k_list: tuple[int, ...] | list[int],
) -> tuple[ConvergenceRow, ...]:
    """Interpolate a bandlimited signal at several orders against 2*gamma**k.

    Refuses when gamma >= 1 (no rate is guaranteed there) or when the signal
    has out-of-band content (the bound's hypothesis would be violated). A
    row is ``within_bound`` when its error is at most the bound plus 1e-8.
    Rows with ``proved=False`` mark orders that are not powers of two, where
    the bound is reported for reference only.
    """
    gamma = _gamma(omega, alpha, partition.lambda_xi)
    if gamma >= 1.0:
        raise InputError(
            f"gamma={gamma:.4f} >= 1 for omega={omega}, alpha={alpha}, "
            f"Lambda={partition.lambda_xi}; no convergence rate applies"
        )
    f = _vector(f, decomp.n, "signal")
    norm_f = float(np.linalg.norm(f))  # f may be a strided view; the differences below are not
    if norm_f == 0.0:
        raise InputError("signal is zero")
    out_of_band = f - pw_project(decomp, omega, f)
    if math.sqrt(out_of_band @ out_of_band) > 1e-9 * norm_f:
        raise InputError(
            f"signal has out-of-band content for omega={omega}; "
            "project it first or lower the bandwidth"
        )
    targets = analyze(partition, f)
    rows = []
    for k, _, order in _orders(decomp, partition, k_list):
        error = f - order.splines @ targets
        rel = math.sqrt(error @ error) / norm_f
        bound = 2.0 * gamma ** k
        rows.append(
            ConvergenceRow(
                order=k,
                rel_error=rel,
                bound=bound,
                within_bound=rel <= bound + 1e-8,
                proved=k & (k - 1) == 0,
            )
        )
    return tuple(rows)
