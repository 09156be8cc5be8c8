"""Variational splines interpolating prescribed cluster averages.

The order-k spline for targets v is the unique signal minimizing the
smoothness seminorm ``norm(L^{k/2} u)`` among all signals whose scaled
cluster averages equal v. On a connected graph with a full disjoint cover the
minimizer exists and is unique for every k >= 1: the only constant signal
with all-zero averages is zero.

Solved in eigen-coordinates. Writing B for the averages-of-eigenvectors
matrix (which has exactly orthonormal rows, so B^T v is a feasible point) and
N for an orthonormal basis of its kernel, the spline is ``B^T v + N y`` with
y the least-squares solution of ``min || D^{1/2} (B^T v + N y) ||`` where
D^{1/2} scales each eigen-coordinate by lambda**(k/2). The scaling keeps the
solve's condition near (lambda_max/lambda_1)**(k/2) instead of its square,
and kernel coordinates (lambda = 0) carry no weight at all, entering through
the constraints only. N comes from one complete QR of B^T per partition, and
each order is one Householder QR of the scaled kernel ``D^{1/2} N`` and a
triangular solve. None of this depends on v, so each decomposition memoises
B, N and every order's QR factors for its last partition (``_basis``); a
spline then costs matvecs, one Q^T application and one triangular solve.

When a signal of bandwidth omega is interpolated through a partition with
gamma = (1+alpha)/alpha * omega/Lambda < 1, the spline of order k = 2^l
recovers it up to a factor 2*gamma**k of its norm.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack, qr

from .errors import InputError, NumericalError
from .partitions import ClusterPartition, _cluster_rows, _gamma, analyze
from .spectral import SpectralDecomposition, pw_project

#: Refuse spline solves whose equilibrated system is estimated worse than this.
CONDITION_LIMIT = 1e14


@dataclass(frozen=True)
class SplineProblem:
    """Order, target averages, and the partition they live on.

    The recovery rate 2*gamma**k is proven for orders that are powers of two;
    other positive integer orders are accepted and solved, but results carry
    ``order_is_power_of_two=False`` so reports can label them.
    """

    order: int
    targets: np.ndarray
    partition: ClusterPartition

    def __post_init__(self):
        object.__setattr__(self, "order", _order(self.order))
        targets = np.asarray(self.targets, dtype=float)
        if targets.shape != (self.partition.num_clusters,):
            raise InputError(
                f"targets length {targets.shape} does not match "
                f"{self.partition.num_clusters} clusters"
            )
        if not np.all(np.isfinite(targets)):
            raise InputError("targets contain non-finite entries")
        object.__setattr__(self, "targets", targets)

    @property
    def order_is_power_of_two(self) -> bool:
        return self.order & (self.order - 1) == 0


def _order(order) -> int:
    """A spline order as an int; InputError unless it is an integer (not a bool) >= 1."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 1:
        raise InputError(f"spline order must be a positive integer, got {order!r}")
    return int(order)


@dataclass(frozen=True)
class SplineSolution:
    signal: np.ndarray
    order: int
    seminorm: float
    achieved_averages: np.ndarray
    targets: np.ndarray
    kkt_residual: float
    condition_estimate: float
    order_is_power_of_two: bool


@dataclass(frozen=True, eq=False)
class _SplineBasis:
    """B, N and each order's QR factors so far, all read-only, for one partition; never the decomposition."""

    partition: ClusterPartition
    constraints: np.ndarray
    kernel: np.ndarray
    factors: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


#: Each live decomposition's basis for the last partition used with it.
_BASES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _basis(decomp: SpectralDecomposition, partition: ClusterPartition) -> _SplineBasis:
    """The constraint matrix B in eigen-coordinates and an orthonormal basis N of its kernel.

    Row j of B holds the scaled averages over cluster j of every eigenvector
    (J x n); N is n x (n - J). Memoised per decomposition and replaced when
    the partition changes; a rank-deficient partition raises and stores nothing.
    """
    basis = _BASES.get(decomp)
    if basis is not None and (basis.partition is partition or basis.partition == partition):
        return basis
    if partition.n != decomp.n:
        raise InputError("partition and decomposition sizes differ")
    B = _cluster_rows(partition, decomp.eigenvectors)
    J = B.shape[0]
    # Column pivoting orders |diag R| decreasingly, so counting the large
    # pivots gives the numerical rank; the pivoting leaves the span unchanged.
    q, r, _ = qr(B.T, pivoting=True, check_finite=False)
    pivots = np.abs(np.diag(r))
    rank = int(np.sum(pivots > 1e-10 * pivots[0])) if pivots.size else 0
    if rank < J:
        raise InputError(
            f"average constraints are rank-deficient (rank {rank} of {J}); "
            "the partition does not define an interpolation problem"
        )
    kernel = q[:, J:].copy(order="F")  # not all of q; q's layout, so products keep their digits
    B.flags.writeable = kernel.flags.writeable = False
    basis = _BASES[decomp] = _SplineBasis(partition, B, kernel)
    return basis


def _power_weights(decomp: SpectralDecomposition, k: int) -> np.ndarray:
    """lambda**(k/2) with kernel eigenvalues pinned exactly to zero."""
    lam = decomp.eigenvalues
    weights = np.where(lam > decomp.default_zero_tol, np.maximum(lam, 0.0), 0.0)
    return weights ** (k / 2.0)


def _condition_estimate(decomp: SpectralDecomposition, k: int) -> float:
    lam = decomp.eigenvalues
    positive = lam[lam > decomp.default_zero_tol]
    if positive.size == 0:
        return 1.0
    return float((positive[-1] / positive[0]) ** (k / 2.0))


def _smoothness_defect(scaled_kernel: np.ndarray, smoothed: np.ndarray) -> tuple[float, float]:
    """Largest inner product of a smoothed signal with the smoothed kernel basis, and its scale.

    The scale is the product of the factor norms (at least 1), so that
    ``defect / scale`` is a relative orthogonality defect.
    """
    defect_vec = scaled_kernel.T @ smoothed
    defect = float(np.max(np.abs(defect_vec))) if defect_vec.size else 0.0
    col_norms = np.linalg.norm(scaled_kernel, axis=0)
    scale = max(1.0, float(np.linalg.norm(smoothed)) * float(col_norms.max() if col_norms.size else 0.0))
    return defect, scale


def _least_squares(factors: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Least-squares solution for one right-hand side, from the ``dgeqrf`` factors of the system.

    The scaled kernel has full column rank (the constant eigenvector, the
    only one with weight zero, lies in the row space of the constraints), and
    its condition is at most ``_condition_estimate``, which ``_spline`` bounds
    before factoring it.
    """
    factored, tau = factors
    if tau.size == 0:  # every cluster a singleton: the averages fix the signal
        return np.zeros(0)
    qt_rhs, _, info = lapack.dormqr("L", "T", factored, tau, rhs[:, None], 1)
    if info == 0:
        solution, info = lapack.dtrtrs(factored, qt_rhs)
    if info != 0:
        raise NumericalError(f"QR least-squares solve failed (LAPACK info {info})")
    return solution[: tau.size, 0]


def _spline(
    decomp: SpectralDecomposition, basis: _SplineBasis, k: int, targets: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Condition estimate, eigen-coefficients and signal of the order-k spline.

    Refuses an order beyond ``CONDITION_LIMIT`` before factoring its system.
    """
    condition = _condition_estimate(decomp, k)
    if condition > CONDITION_LIMIT:
        raise NumericalError(
            f"order-{k} spline system condition ~{condition:.2e} exceeds "
            f"{CONDITION_LIMIT:.0e}; reduce the order or improve the spectral gap"
        )
    weights, kernel = _power_weights(decomp, k), basis.kernel
    factors = basis.factors.get(k)
    if factors is None:
        factored, tau, _, info = lapack.dgeqrf(weights[:, None] * kernel)
        if info != 0:
            raise NumericalError(f"QR factorisation failed (LAPACK info {info})")
        factored.flags.writeable = tau.flags.writeable = False
        factors = basis.factors[k] = factored, tau
    feasible = basis.constraints.T @ targets  # minimum-norm feasible point, exact by row orthonormality
    coeffs = feasible + kernel @ _least_squares(factors, -(weights * feasible))
    return condition, coeffs, decomp.eigenvectors @ coeffs


def solve_spline(
    decomp: SpectralDecomposition,
    partition: ClusterPartition,
    problem: SplineProblem,
) -> SplineSolution:
    """Minimize the order-k smoothness seminorm subject to prescribed averages.

    Raises NumericalError when the estimated condition of the equilibrated
    system exceeds the double-precision budget, rather than returning digits
    that cannot be trusted. Raises InputError when ``problem.partition``
    differs from ``partition``.
    """
    if not (problem.partition is partition or problem.partition == partition):
        raise InputError("the spline problem's partition differs from the partition given")
    basis = _basis(decomp, partition)
    k = problem.order
    condition, coeffs, signal = _spline(decomp, basis, k, problem.targets)
    weights = _power_weights(decomp, k)
    smoothed = weights * coeffs
    defect, scale = _smoothness_defect(weights[:, None] * basis.kernel, smoothed)
    return SplineSolution(
        signal=signal,
        order=k,
        seminorm=float(np.linalg.norm(smoothed)),
        achieved_averages=analyze(partition, signal),
        targets=problem.targets,
        kkt_residual=defect / scale,
        condition_estimate=condition,
        order_is_power_of_two=problem.order_is_power_of_two,
    )


def interpolate(
    decomp: SpectralDecomposition,
    partition: ClusterPartition,
    f: np.ndarray,
    k: int,
) -> SplineSolution:
    """Spline of order k whose cluster averages match those of the signal."""
    targets = analyze(partition, np.asarray(f, dtype=float))
    return solve_spline(decomp, partition, SplineProblem(order=k, targets=targets, partition=partition))


@dataclass(frozen=True)
class OrthogonalityResult:
    """Outcome of the spline characterization test.

    A signal minimizes the order-k seminorm among signals with its averages
    exactly when its smoothed image is orthogonal to the smoothed image of
    every zero-average signal. ``defect`` is the largest such inner product
    over an orthonormal basis of the zero-average space; ``normalized``
    rescales it by the product of the factor norms, and ``is_spline`` applies
    the acceptance threshold to that.
    """

    defect: float
    scale: float
    normalized: float
    is_spline: bool


def orthogonality_check(
    decomp: SpectralDecomposition,
    partition: ClusterPartition,
    u: np.ndarray,
    k: int,
    tol: float = 1e-8,
) -> OrthogonalityResult:
    k = _order(k)
    u = np.asarray(u, dtype=float)
    if u.shape != (decomp.n,):
        raise InputError(f"signal shape {u.shape} does not match n={decomp.n}")
    kernel = _basis(decomp, partition).kernel
    weights = _power_weights(decomp, k)
    smoothed = weights * (decomp.eigenvectors.T @ u)
    defect, scale = _smoothness_defect(weights[:, None] * kernel, smoothed)
    normalized = defect / scale
    return OrthogonalityResult(
        defect=defect,
        scale=scale,
        normalized=normalized,
        is_spline=normalized <= tol,
    )


def zero_average_signal(
    decomp: SpectralDecomposition,
    partition: ClusterPartition,
    coefficients: np.ndarray,
) -> np.ndarray:
    """A vertex-space signal with zero averages, from kernel coordinates.

    Maps arbitrary coefficients through the orthonormal kernel basis of the
    constraint matrix; useful for building feasible perturbations of a spline.
    """
    kernel = _basis(decomp, partition).kernel
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (kernel.shape[1],):
        raise InputError(
            f"expected {kernel.shape[1]} kernel coordinates, got {coefficients.shape}"
        )
    return decomp.eigenvectors @ (kernel @ coefficients)


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
    tol: float = 1e-8,
) -> tuple[ConvergenceRow, ...]:
    """Interpolate a bandlimited signal at several orders against 2*gamma**k.

    Refuses when gamma >= 1 (no rate is guaranteed there) or when the signal
    has out-of-band content (the bound's hypothesis would be violated).
    Rows with ``proved=False`` mark orders that are not powers of two, where
    the bound is reported for reference only.
    """
    gamma = _gamma(omega, alpha, partition.lambda_xi)
    if gamma >= 1.0:
        raise InputError(
            f"gamma={gamma:.4f} >= 1 for omega={omega}, alpha={alpha}, "
            f"Lambda={partition.lambda_xi}; no convergence rate applies"
        )
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise InputError("signal contains non-finite entries")
    norm_f = float(np.linalg.norm(f))
    if norm_f == 0.0:
        raise InputError("signal is zero")
    in_band = pw_project(decomp, omega, f)
    if float(np.linalg.norm(f - in_band)) > 1e-9 * norm_f:
        raise InputError(
            f"signal has out-of-band content for omega={omega}; "
            "project it first or lower the bandwidth"
        )
    basis = _basis(decomp, partition)
    targets = analyze(partition, f)
    rows = []
    for k in map(_order, k_list):
        rel = float(np.linalg.norm(f - _spline(decomp, basis, k, targets)[2])) / norm_f
        bound = 2.0 * gamma ** k
        rows.append(
            ConvergenceRow(
                order=k,
                rel_error=rel,
                bound=bound,
                within_bound=rel <= bound + tol,
                proved=k & (k - 1) == 0,
            )
        )
    return tuple(rows)
