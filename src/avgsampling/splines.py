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
B, N and every order's weights, QR factors and scale for its last partition
(``_basis``); a spline then costs matvecs, one Q^T application and one
triangular solve.

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
from scipy.linalg import lapack, qr

from .errors import InputError, NumericalError
from .partitions import ClusterPartition, _cluster_rows, _gamma, _integer, analyze
from .spectral import SpectralDecomposition, _power_weights, pw_project

#: Refuse spline solves whose equilibrated system is estimated worse than this.
CONDITION_LIMIT = 1e14


@dataclass(frozen=True)
class SplineSolution:
    """An order-k spline, its seminorm ``norm(L^{k/2} signal)``, its relative
    orthogonality defect (``_smoothness_defect``; 0 for an exact minimizer)
    and the order's condition estimate (lambda_max/lambda_1)**(k/2)."""

    signal: np.ndarray
    order: int
    seminorm: float
    kkt_residual: float
    condition_estimate: float


class _OrderFactors(NamedTuple):
    """One order's condition estimate, weights lambda**(k/2), ``dgeqrf`` factors
    of the scaled kernel ``weights[:, None] * N`` and its largest column norm."""

    condition: float
    weights: np.ndarray
    factored: np.ndarray
    tau: np.ndarray
    column_norm: float


@dataclass(frozen=True, eq=False)
class _SplineBasis:
    """B, N and each order's factors so far, all read-only, for one partition; never the decomposition."""

    partition: ClusterPartition
    constraints: np.ndarray
    kernel: np.ndarray
    factors: dict[int, _OrderFactors] = field(default_factory=dict)


#: Each live decomposition's basis for the last partition used with it.
_BASES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _basis(decomp: SpectralDecomposition, partition: ClusterPartition) -> _SplineBasis:
    """The constraint matrix B in eigen-coordinates and an orthonormal basis N of its kernel.

    Row j of B holds the scaled averages over cluster j of every eigenvector
    (J x n); N is n x (n - J). A partition is a valid cover by construction,
    so B has orthonormal rows and one complete QR of B^T gives N. Memoised
    per decomposition and replaced when called with another partition object.
    """
    basis = _BASES.get(decomp)
    if basis is not None and basis.partition is partition:
        return basis
    if partition.n != decomp.n:
        raise InputError("partition and decomposition sizes differ")
    B = _cluster_rows(partition, decomp.eigenvectors)
    q = qr(B.T, check_finite=False)[0]
    kernel = q[:, B.shape[0]:].copy(order="F")  # not all of q; q's layout, so products keep their digits
    B.flags.writeable = kernel.flags.writeable = False
    basis = _BASES[decomp] = _SplineBasis(partition, B, kernel)
    return basis


def _condition_estimate(decomp: SpectralDecomposition, k: int) -> float:
    """(lambda_max / lambda_1)**(k/2) over the eigenvalues ``_power_weights`` leaves positive."""
    lam = _power_weights(decomp, 2)
    positive = lam[lam > 0.0]
    if positive.size == 0:
        return 1.0
    return float((positive[-1] / positive[0]) ** (k / 2.0))


def _order_factors(decomp: SpectralDecomposition, basis: _SplineBasis, k: int) -> _OrderFactors:
    """The order-k factors, memoised in ``basis``.

    Refuses an order beyond ``CONDITION_LIMIT`` before factoring its system,
    and so caches nothing for it.
    """
    factors = basis.factors.get(k)
    if factors is not None:
        return factors
    condition = _condition_estimate(decomp, k)
    if condition > CONDITION_LIMIT:
        raise NumericalError(
            f"order-{k} spline system condition ~{condition:.2e} exceeds "
            f"{CONDITION_LIMIT:.0e}; reduce the order or improve the spectral gap"
        )
    weights = _power_weights(decomp, k)
    scaled = weights[:, None] * basis.kernel
    column_norms = np.linalg.norm(scaled, axis=0)
    factored, tau, _, info = lapack.dgeqrf(scaled, overwrite_a=True)
    if info != 0:
        raise NumericalError(f"QR factorisation failed (LAPACK info {info})")
    weights.flags.writeable = factored.flags.writeable = tau.flags.writeable = False
    factors = basis.factors[k] = _OrderFactors(
        condition, weights, factored, tau, float(column_norms.max()) if column_norms.size else 0.0)
    return factors


def _smoothness_defect(kernel: np.ndarray, factors: _OrderFactors, smoothed: np.ndarray) -> tuple[float, float]:
    """Largest inner product of a smoothed signal with the smoothed kernel basis, and its scale.

    The scale is the product of the factor norms (at least 1), so that
    ``defect / scale`` is a relative orthogonality defect.
    """
    defect_vec = kernel.T @ (factors.weights * smoothed)
    defect = float(np.max(np.abs(defect_vec))) if defect_vec.size else 0.0
    return defect, max(1.0, float(np.linalg.norm(smoothed)) * factors.column_norm)


def _least_squares(factors: _OrderFactors, rhs: np.ndarray) -> np.ndarray:
    """Least-squares solution for one right-hand side, from the ``dgeqrf`` factors of the system.

    The scaled kernel has full column rank (the constant eigenvector, the
    only one with weight zero, lies in the row space of the constraints), and
    its condition is at most ``_condition_estimate``, which ``_order_factors`` bounds
    before factoring it.
    """
    factored, tau = factors.factored, factors.tau
    if tau.size == 0:  # every cluster a singleton: the averages fix the signal
        return np.zeros(0)
    qt_rhs, _, info = lapack.dormqr("L", "T", factored, tau, rhs[:, None], 1)
    if info == 0:
        solution, info = lapack.dtrtrs(factored, qt_rhs)
    if info != 0:
        raise NumericalError(f"QR least-squares solve failed (LAPACK info {info})")
    return solution[: tau.size, 0]


def _spline(
    decomp: SpectralDecomposition, basis: _SplineBasis, factors: _OrderFactors, feasible: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-coefficients and signal of the spline whose order ``factors`` belong to.

    ``feasible`` is ``B^T v`` for the targets v: the minimum-norm point with
    those averages, exact by row orthonormality, and the same for every order.
    """
    coeffs = feasible + basis.kernel @ _least_squares(factors, -(factors.weights * feasible))
    return coeffs, decomp.eigenvectors @ coeffs


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
    one finite value per cluster, and NumericalError when the estimated
    condition of the equilibrated system exceeds the double-precision budget,
    rather than returning digits that cannot be trusted.
    """
    k = _integer(k, "spline order")
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (partition.num_clusters,):
        raise InputError(f"targets length {targets.shape} does not match {partition.num_clusters} clusters")
    if not np.all(np.isfinite(targets)):
        raise InputError("targets contain non-finite entries")
    basis = _basis(decomp, partition)
    factors = _order_factors(decomp, basis, k)
    coeffs, signal = _spline(decomp, basis, factors, basis.constraints.T @ targets)
    smoothed = factors.weights * coeffs
    defect, scale = _smoothness_defect(basis.kernel, factors, smoothed)
    return SplineSolution(
        signal=signal,
        order=k,
        seminorm=float(np.linalg.norm(smoothed)),
        kkt_residual=defect / scale,
        condition_estimate=factors.condition,
    )


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
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise InputError("signal contains non-finite entries")
    norm_f = float(np.linalg.norm(f))  # f may be a strided view; the differences below are not
    if norm_f == 0.0:
        raise InputError("signal is zero")
    out_of_band = f - pw_project(decomp, omega, f)
    if math.sqrt(out_of_band @ out_of_band) > 1e-9 * norm_f:
        raise InputError(
            f"signal has out-of-band content for omega={omega}; "
            "project it first or lower the bandwidth"
        )
    basis = _basis(decomp, partition)
    feasible = basis.constraints.T @ analyze(partition, f)
    rows = []
    for k in k_list:
        k = _integer(k, "spline order")
        factors = _order_factors(decomp, basis, k)
        error = f - _spline(decomp, basis, factors, feasible)[1]
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
