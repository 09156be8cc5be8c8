"""Variational splines interpolating prescribed cluster averages.

The order-k spline for targets v is the unique signal minimizing the
smoothness seminorm ``norm(L^{k/2} u)`` among all signals whose scaled
cluster averages equal v. With a full disjoint cover by connected clusters
the minimizer exists and is unique for every k >= 1, as the bound below shows.

Solved on the null space of the averages (Benzi, Golub and Liesen, Acta
Numerica 14, 2005, section 6), with no eigenvector. Xi^T holds the normalized
cluster indicators (n x J) and H the Helmert contrasts within each cluster
(s - 1 per cluster of size s), both from ``partitions``; together their columns
are an orthonormal basis of R^n, and the signals with zero averages are exactly
those Hy. So the spline is ``Xi^T v + H y`` with ``A_k y = -H^T Lhat^k Xi^T v``, where
``A_k = H^T Lhat^k H`` and Lhat = L / lambda_max; that division leaves the
spline unchanged and keeps every entry within [-1, 1] at any weight scale.
None of this depends on v, so each order's A_k is Cholesky-factored once and
its J cardinal splines ``S_k = Xi^T - H A_k^{-1} H^T Lhat^k Xi^T`` (column j
has targets e_j) are memoised with the certified bound below that the order
was built under: n*J doubles per order, for each decomposition and its last
partition (``_CARDINALS``). A spline then costs one product ``S_k @ v``, and
no bound is derived again. The recovery-rate sweep keeps its last checked
plan beside them (``_Sweep``), so a warm sweep checks only its orders and
its signal.

The smaller of two proven bounds certifies the solve. For u = Hy, |y| = 1:
  1. each cluster's Poincare inequality, summed, gives <L u, u> >= Lambda |u|^2
     (u has zero average on every cluster, and edges between clusters only add),
     so lambda_min(A_1) >= Lambda/lambda_max;
  2. the moment inequality (Jensen) <Lhat^k u, u> >= <Lhat u, u>^k for unit u
     then gives y^T A_k y >= lambda_min(A_1)^k >= (Lambda/lambda_max)^k;
  3. |Lhat| <= 1 and |H| = 1 give A_k <= I, so
     cond(A_k) <= lambda_min(A_1)^-k <= (lambda_max/Lambda)^k.
The bound (lambda_max/Lambda)^k needs only the partition constant. Edges
between clusters make it loose, so when it exceeds ``CONDITION_LIMIT``,
lambda_min(A_1)^-k is computed too, from one dense eigensolve of A_1 less its
roundoff slack (``_Cardinals.floor``). An order whose smaller bound still
exceeds the limit is refused before anything is factored.

When a signal of bandwidth omega is interpolated through a partition with
gamma = (1+alpha)/alpha * omega/Lambda < 1, the spline of order k = 2^l
recovers it up to a factor 2*gamma**k of its norm.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import csr_matrix, issparse, spmatrix

from .errors import InputError, NumericalError, _integer, _vector
from .partitions import ClusterPartition, _contrasts, _gamma, _indicators, analyze
from .spectral import SpectralDecomposition, pw_space

#: Refuse spline orders whose certified condition bound exceeds this.
CONDITION_LIMIT = 1e14


@dataclass(frozen=True, eq=False)
class SplineSolution:
    """An order-k spline, its stationarity residual and its order's certified condition bound; equal only to itself.

    ``kkt_residual`` is ``max |H^T Lhat^k u|`` over the contrasts, divided by
    ``norm(u)`` (0 for u = 0): 0 for an exact minimizer, about a rounding
    error for a computed one, at most 1 always. ``condition_estimate`` is the
    certified bound on the condition of the order's system used before
    solving: (lambda_max/Lambda)**k, or lambda_min(A_1)**-k where that one
    exceeds ``CONDITION_LIMIT`` and this one is smaller (1 when every cluster
    is a singleton and there is no system).
    """

    signal: np.ndarray
    kkt_residual: float
    condition_estimate: float


class _Order(NamedTuple):
    """One order's n x J cardinal splines, its sparse stationarity map ``H^T Lhat^k`` and its certified bound."""

    splines: np.ndarray
    stationarity: spmatrix
    condition: float


class _Sweep(NamedTuple):
    """A checked sweep: partition, omega and alpha (by type and repr), band basis, (k, order, bound, proved) rows."""

    key: tuple
    basis: np.ndarray
    rows: tuple[tuple[int, _Order, float, bool], ...]


@dataclass(eq=False)
class _Cardinals:
    """Lhat, Xi, H and each order so far, all read-only, and the last checked sweep (replaced whole), per partition."""

    partition: ClusterPartition
    laplacian: csr_matrix
    indicators: csr_matrix
    contrasts: csr_matrix
    orders: dict[int, _Order] = field(default_factory=dict)
    sweep: _Sweep | None = None

    @cached_property
    def floor(self) -> float:
        """A lower bound on lambda_min(A_1), A_1 = H^T Lhat H: its computed least eigenvalue less a roundoff slack.

        With eps = 2**-53, s the largest cluster and d the most nonzeros in a
        row of L, A_1 is assembled by rounding each entry of Lhat once and by
        two sparse products whose entries sum at most d and s terms. It thus
        differs from the exact A_1 entrywise by at most
        gamma_m |H|^T |Lhat| |H|, m = d + s + 1 and gamma_m = m eps / (1 - m eps)
        (Higham, Accuracy and Stability of Numerical Algorithms, section 3.5).
        The 2-norm of ``|Lhat|`` is at most 2 d_max/lambda_max <= 2 (Gershgorin,
        and lambda_max >= d_max), and that of ``|H|``, squared, at most its
        largest column sum (under 2) times its largest row sum (under
        1 + ln s), so the perturbation's is at most 4 (1 + ln s) gamma_m. eigvalsh is backward stable:
        each computed eigenvalue is within p(N)·eps·||A_1|| of the assembled
        matrix's, with ||A_1|| <= 1 and p(N) <= 15 N for its N columns, as in
        ``partitions._cluster_gaps``. By Weyl's inequality the exact
        lambda_min(A_1) is thus at least the computed one less
        ``(8 (1 + ln s) m + 16 N) eps``: the first term is twice the
        perturbation bound with gamma_m taken as m eps, which covers
        gamma_m <= 2 m eps and a computed lambda_max a little below the true
        one, and the second exceeds 15 N eps ||A_1|| on the same margin.
        """
        H = self.contrasts
        s = int(np.bincount(self.partition.labels).max())
        m = int(np.diff(self.laplacian.indptr).max()) + s + 1
        slack = (8 * (1 + math.log(s)) * m + 16 * H.shape[1]) * np.finfo(float).eps
        return float(np.linalg.eigvalsh((H.T @ (self.laplacian @ H)).toarray())[0]) - slack


#: Each live decomposition's cardinal splines for the last partition used with it.
_CARDINALS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _read_only(*matrices) -> None:
    """Marks each dense array, and the three arrays behind each sparse matrix, read-only."""
    for m in matrices:
        for a in (m.data, m.indices, m.indptr) if issparse(m) else (m,):
            a.flags.writeable = False


def _power(ratio: float, k: int) -> float:
    """ratio**k, at least 1, inf past the largest double."""
    try:
        return max(1.0, ratio ** k)
    except OverflowError:
        return math.inf


def _condition(decomp: SpectralDecomposition, memo: _Cardinals, k: int) -> float:
    """The order's certified condition bound; NumericalError beyond ``CONDITION_LIMIT``.

    (lambda_max/Lambda)**k, or the smaller lambda_min(A_1)**-k when that one
    is over the limit; the eigensolve for lambda_min(A_1) runs only then.
    """
    condition = _power(decomp.lambda_max / memo.partition.lambda_xi, k)
    if condition > CONDITION_LIMIT:
        condition = min(condition, _power(1.0 / memo.floor, k) if memo.floor > 0 else math.inf)
    if condition > CONDITION_LIMIT:
        raise NumericalError(
            f"order-{k} spline system condition bound min((lambda_max/Lambda)^k, lambda_min(A_1)^-k) ~{condition:.2e} "
            f"exceeds {CONDITION_LIMIT:.0e}; reduce the order or use clusters with larger spectral gaps"
        )
    return condition


def _orders(decomp: SpectralDecomposition, partition: ClusterPartition, k_list) -> list[tuple[int, _Order]]:
    """Each order with its memoised cardinal splines and condition bound, in ``k_list``'s order.

    Checks every order, and the bound of each order not yet memoised, first,
    so a refused order caches nothing: the memo (``_CARDINALS``) is replaced
    when called with another partition object, and only once every order
    passes. The missing orders are then built in ascending order, each from
    ``Lhat^k H`` by sparse products that reuse the last one's power, and
    keep the bound they were built under (no power when every cluster is a
    singleton). InputError for a partition and decomposition of different
    sizes, checked only as the memo is replaced; NumericalError when a
    Cholesky factorisation fails.
    """
    ks = [_integer(k, "spline order") for k in k_list]
    memo = _CARDINALS.get(decomp)
    stale = memo is None or memo.partition is not partition
    if stale:
        indicators, contrasts = _indicators(partition, decomp.n), _contrasts(partition)
        laplacian = csr_matrix(decomp.matrix)
        laplacian.data /= decomp.lambda_max
        _read_only(indicators, laplacian, contrasts)
        memo = _Cardinals(partition, laplacian, indicators, contrasts)
    conditions = {k: _condition(decomp, memo, k) for k in ks if k not in memo.orders}
    if stale:
        _CARDINALS[decomp] = memo
    H, power, j = memo.contrasts, memo.contrasts, 0
    for k in sorted(conditions):
        while j < k and H.shape[1]:  # with no contrasts the spline is Xi^T v at every order
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
        memo.orders[k] = _Order(splines, stationarity, conditions[k])
    return [(k, memo.orders[k]) for k in ks]


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
    (_, order), = _orders(decomp, partition, [k])
    signal = order.splines.dot(targets)
    residual, norm = order.stationarity @ signal, math.sqrt(signal.dot(signal))
    kkt = float(np.abs(residual).max()) / norm if norm and residual.size else 0.0
    solution = object.__new__(SplineSolution)
    vars(solution).update(signal=signal, kkt_residual=kkt, condition_estimate=order.condition)
    return solution


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

    Refuses, in this order, when gamma >= 1 (no rate is guaranteed there),
    a bandwidth ``pw_space`` refuses, a partition and decomposition of
    different sizes or an order as ``solve_spline`` does, then a zero
    signal, a nonzero one whose squared norm underflows to 0 (no relative
    error can be formed), or one with out-of-band content (the bound's
    hypothesis would be violated). A row is ``within_bound`` when its error
    is at most the bound plus 1e-8. Rows with ``proved=False`` mark orders
    that are not powers of two, where the bound is reported for reference
    only. What is checked before the signal is kept as the sweep's plan.
    """
    memo = _CARDINALS.get(decomp)
    sweep = memo.sweep if memo is not None else None
    key = (partition, type(omega), repr(omega), type(alpha), repr(alpha))  # repr tells -0.0 from 0.0
    if sweep is not None and sweep.key == key:  # so gamma < 1, which a cold call checks before the orders
        k_list = [_integer(k, "spline order") for k in k_list]
    if sweep is None or sweep.key != key or k_list != [row[0] for row in sweep.rows]:
        gamma = _gamma(omega, alpha, partition.lambda_xi)
        if gamma >= 1.0:
            raise InputError(
                f"gamma={gamma:.4f} >= 1 for omega={omega}, alpha={alpha}, "
                f"Lambda={partition.lambda_xi}; no convergence rate applies"
            )
        basis = pw_space(decomp, omega).basis  # before the orders, so a NaN omega (gamma NaN) builds none
        rows = tuple((k, order, 2.0 * gamma ** k, k & (k - 1) == 0) for k, order in _orders(decomp, partition, k_list))
        sweep = _CARDINALS[decomp].sweep = _Sweep(key, basis, rows)
    f = _vector(f, decomp.n, "signal")
    norm_f = math.sqrt(f.dot(f))
    if norm_f == 0.0:
        raise InputError("signal is zero" if not f.any() else "signal is too small: its squared norm underflows to 0")
    out_of_band = f - sweep.basis.dot(sweep.basis.T.dot(f))
    if math.sqrt(out_of_band.dot(out_of_band)) > 1e-9 * norm_f:
        raise InputError(
            f"signal has out-of-band content for omega={omega}; "
            "project it first or lower the bandwidth"
        )
    targets = analyze(partition, f)
    rows = []
    for k, order, bound, proved in sweep.rows:
        error = f - order.splines.dot(targets)
        rel = math.sqrt(error.dot(error)) / norm_f
        row = object.__new__(ConvergenceRow)
        vars(row).update(order=k, rel_error=rel, bound=bound, within_bound=rel <= bound + 1e-8, proved=proved)
        rows.append(row)
    return tuple(rows)
