"""Recovery of bandlimited signals from their cluster averages.

Two routes. The iterative frame algorithm is a relaxed Richardson iteration
on band coefficients, ``c_next = c + mu * A^T (s - A c)``, converging
geometrically with factor ``eta = max(|1 - mu*a|, |1 - mu*b|)`` whenever the
averages form a frame (a > 0). For a fixed frame and ``mu`` the k-th iterate
is a fixed polynomial in the frame operator, so it is evaluated in closed
form in the eigenbasis of ``A^T A``: the right singular vectors of the thin
SVD ``A = U S V^T``, in which mode i contracts by ``1 - mu*sigma_i^2`` per
step. The step count is the first k whose residual meets the tolerance. The
decay of every mode over the first steps, and the share ``1 - rho^k`` of the
fixed point each mode has reached, are tabulated once per frame and config,
in a step schedule memoised per frame in ``_SCHEDULES`` that holds two
tables of at most ``_TABLE_STEPS`` steps of m doubles each; a signal
reads its step count off one product with the first table and its iterate's
mode weights off a row of the second, and steps past them are found by
bisection and evaluated afresh. A signal thus costs a few m x m matvecs
whatever the number of steps. The default config, once checked against a
frame, is kept there too, so a warm default call checks only its samples.
The direct route applies the canonical dual frame, the minimum-norm
least-squares solve ``c = pinv(A) s``. The singular vectors,
the Gram matrix ``G = A^T A`` and ``pinv(A)`` are all formed once in
``build_frame_system``, from the one thin SVD that gives the frame bounds.
Each per-signal product is ``ndarray.dot`` on the C-contiguous samples that
``_vector`` hands over: the same BLAS call as ``@``, without its dispatch.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, _integer, _vector
from .partitions import FrameSystem

#: Steps in each of a step schedule's two tables, which bounds each to this
#: many band-coefficient vectors.
_TABLE_STEPS = 1024

#: Each live frame's step schedules, keyed by ``(mu, tol, max_iter)``, and by
#: None for the default config once checked against the frame.
_SCHEDULES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class FrameIterationConfig:
    """Relaxation parameter, iteration budget and stopping threshold.

    ``mu`` must lie in (0, 2/b); None picks 2/(a+b), which minimizes the
    contraction factor. The stopping rule uses the normal-equations residual
    ``norm(A^T (s - A c)) <= tol * norm(A^T s)``, computable without the
    ground truth; ``tol`` must be finite and positive and ``max_iter`` at
    least 1.
    """

    mu: float | None = None
    max_iter: int = 10000
    tol: float = 1e-10


_DEFAULT_CONFIG = FrameIterationConfig()


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """A recovered signal, its band coefficients and how the solve ended; equal only to itself."""

    signal: np.ndarray
    coefficients: np.ndarray
    iterations: int
    residual: float
    converged: bool
    eta: float | None = None
    error_log: tuple[float, ...] | None = None


@dataclass(frozen=True)
class _StepSchedule:
    """What the frame iteration needs of one frame and config, all read-only.

    Mode i contracts by ``rho[i]`` per step. For k = 1..min(bracket,
    _TABLE_STEPS), row k-1 of ``decay`` is ``rho**(2k)`` and row k-1 of
    ``complement`` is ``1 - rho**k``: ``decay`` times a signal's mode shares
    gives its squared closed-form residual after each of those steps, and a
    row of ``complement`` times its fixed point gives the iterate after that
    many steps in the V basis. ``bracket`` is a step by which the residual
    meets ``tol`` (``max_iter`` when eta gives none).
    """

    tol: float
    max_iter: int
    eta: float
    sigma2: np.ndarray
    rho: np.ndarray
    positive: np.ndarray
    log_rho: np.ndarray
    bracket: int
    decay: np.ndarray
    complement: np.ndarray

    def complement_after(self, steps: int) -> np.ndarray:
        """``1 - rho**steps``: a row of ``complement``, evaluated afresh past the table."""
        if steps <= len(self.complement):
            return self.complement[steps - 1]
        return _complement(self.positive, self.rho, self.log_rho, steps)


def _complement(positive: np.ndarray, rho: np.ndarray, log_rho: np.ndarray, steps: int) -> np.ndarray:
    """``1 - rho**steps`` per mode, for one step count.

    Where rho > 0 it is ``-expm1(steps * log1p(-mu*sigma^2))``, which keeps
    its digits when mu*sigma^2 is tiny; where rho <= 0 nothing cancels.
    """
    return np.where(positive, -np.expm1(steps * log_rho), 1.0 - rho ** steps)


def _step_schedule(frame: FrameSystem, mu: float, tol: float, max_iter: int) -> _StepSchedule:
    """The step schedule of a frame for a checked config, memoised in ``_SCHEDULES``."""
    key = (mu, tol, max_iter)
    schedules = _SCHEDULES.get(frame)
    if schedules is None:
        schedules = _SCHEDULES[frame] = {}
    schedule = schedules.get(key)
    if schedule is not None:
        return schedule
    eta = max(abs(1.0 - mu * frame.lower), abs(1.0 - mu * frame.upper))
    sigma2 = frame.singular_values ** 2
    rho = 1.0 - mu * sigma2
    rho_squared = rho * rho
    positive = rho > 0.0
    log_rho = np.log1p(-np.where(positive, mu * sigma2, 0.0))
    # The residual after k steps is at most eta**k, so that k brackets the
    # first step within tol; max_iter stands in if roundoff moved it.
    bracket = max_iter
    if 0.0 < eta < 1.0:
        bracket = min(max_iter, max(1, math.ceil(math.log(tol) / math.log(eta))))
    steps = range(1, min(bracket, _TABLE_STEPS) + 1)
    decay = np.stack([rho_squared ** k for k in steps])
    # Row by row with k a Python int, so that each row has the bits of the
    # same formula evaluated for that one step (numpy squares for k = 2
    # rather than calling pow, which may round differently).
    complement = np.stack([_complement(positive, rho, log_rho, k) for k in steps])
    for derived in (sigma2, rho, positive, log_rho, decay, complement):
        derived.flags.writeable = False
    schedule = schedules[key] = _StepSchedule(
        tol, max_iter, eta, sigma2, rho, positive, log_rho, bracket, decay, complement)
    return schedule


def _first_step_past_table(schedule: _StepSchedule, share: np.ndarray) -> int | None:
    """The first step past the decay table whose closed-form residual meets tol, by bisection.

    Bisects between the table's end and the first of the bracket and
    ``max_iter`` that meets tol; None when neither does. ``decay[0]`` is
    rho**2 bit for bit.
    """
    def within_tol(steps: int) -> bool:
        return math.sqrt(float(share.dot(schedule.decay[0] ** steps))) <= schedule.tol

    lo = len(schedule.decay) + 1
    hi = next((k for k in (schedule.bracket, schedule.max_iter) if k >= lo and within_tol(k)), None)
    if hi is None:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if within_tol(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def frame_algorithm(
    frame: FrameSystem,
    samples: np.ndarray,
    config: FrameIterationConfig | None = None,
    truth: np.ndarray | None = None,
) -> ReconstructionResult:
    """Recover band coefficients from cluster averages by the frame iteration.

    Requires a positive lower frame bound. The iteration is evaluated in
    closed form in the frame's SVD basis ``A = U S V^T``: with
    ``y = V^T A^T s``, mode i contracts by ``rho_i = 1 - mu*sigma_i^2`` per
    step, so after k steps the iterate is ``V ((1 - rho^k)/sigma^2 * y)`` and
    the residual is ``norm(rho^k * y) / norm(y)``. That residual never
    increases with k. The first call with a given ``(mu, tol, max_iter)``
    tabulates ``rho^(2k)`` and ``1 - rho^k`` once per frame for every step up
    to the one by which ``eta^k`` meets ``tol``, capped at
    ``_TABLE_STEPS`` steps, so one table product gives the first step
    meeting ``tol`` and one table row its iterate; beyond the tables the step
    is found by bisection. The returned residual is recomputed
    from the iterate. When
    ``truth`` (a vertex-space signal assumed to lie in the band) is
    supplied, the per-iteration error ``norm(truth - iterate)`` is logged
    alongside the run, step k's from the row ``complement_after(k)`` that
    its iterate is formed from.
    """
    s = _vector(samples, frame.num_clusters, "samples")
    # Only None is kept as checked: a config equal to the default may hold a refused type (max_iter=10000.0).
    schedule = _SCHEDULES.get(frame, {}).get(None) if config is None else None
    if schedule is None:
        settings = config or _DEFAULT_CONFIG
        if not frame.is_frame:
            raise NumericalError(
                f"averages are not a frame for omega={frame.omega} with this partition "
                f"(lower bound {frame.lower:.3e}); reconstruction is not stable"
            )
        a, b = frame.lower, frame.upper
        mu = 2.0 / (a + b) if settings.mu is None else float(settings.mu)
        if not (0.0 < mu < 2.0 / b):
            raise InputError(f"relaxation parameter mu={mu} outside (0, 2/b)=(0, {2.0 / b})")
        tol, max_iter = float(settings.tol), _integer(settings.max_iter, "max_iter")
        if not (math.isfinite(tol) and tol > 0.0):
            raise InputError(f"tolerance tol={settings.tol} must be finite and positive")
        schedule = _step_schedule(frame, mu, tol, max_iter)
        if config is None:
            _SCHEDULES[frame][None] = schedule
    tol, max_iter = schedule.tol, schedule.max_iter

    truth_coeffs = None
    if truth is not None:
        truth_coeffs = frame.basis.T.dot(_vector(truth, frame.basis.shape[0], "truth"))

    right, gram = frame.right_vectors, frame.gram
    normal_rhs = frame.analysis.T.dot(s)
    denom = math.sqrt(normal_rhs.dot(normal_rhs))
    if denom == 0.0:
        # Zero samples: the zero signal is already the fixed point.
        c, iterations, residual, converged = np.zeros(frame.dim), 0, 0.0, True
    else:
        y = right.T.dot(normal_rhs)
        fixed_point = y / schedule.sigma2  # the least-squares solution in the V basis
        share = y / denom  # norm(y) = norm(A^T s), as V is orthogonal
        share *= share
        within = np.sqrt(schedule.decay.dot(share)) <= tol
        row = int(within.argmax())
        first = row + 1 if within[row] else _first_step_past_table(schedule, share)
        # The closed form has no roundoff floor, the recomputed residual has.
        # One step more covers a closed-form residual that lands within
        # roundoff below tol; a miss beyond that is the floor, where a
        # stepwise run exhausts its budget, so the last try is max_iter,
        # unconverged.
        tries = () if first is None else tuple(range(first, min(first + 1, max_iter) + 1))
        for iterations in (*tries, max_iter):
            c = right.dot(schedule.complement_after(iterations) * fixed_point)
            direction = normal_rhs - gram.dot(c)
            residual = math.sqrt(direction.dot(direction)) / denom
            converged = residual <= tol and iterations in tries
            if converged:
                break

    errors = None
    if truth_coeffs is not None:
        target = right.T.dot(truth_coeffs)
        errors = tuple(float(np.linalg.norm(target - schedule.complement_after(k) * fixed_point))
                       for k in range(1, iterations + 1))
    result = object.__new__(ReconstructionResult)
    vars(result).update(signal=frame.basis.dot(c), coefficients=c, iterations=iterations, residual=residual,
                        converged=converged, eta=schedule.eta, error_log=errors)
    return result


def dual_frame_reconstruct(frame: FrameSystem, samples: np.ndarray) -> ReconstructionResult:
    """Recover band coefficients through the canonical dual frame.

    Applies the pseudoinverse formed in ``build_frame_system``, giving the
    minimum-norm least-squares solution; exact (up to roundoff) for
    consistent samples of a band signal whenever the averages form a frame.
    For rank-deficient analysis maps this still returns the least-squares
    signal, with the deficiency reflected in the residual.
    """
    s = _vector(samples, frame.num_clusters, "samples")
    c = frame.pinv.dot(s)
    normal_rhs = frame.analysis.T.dot(s)
    denom = math.sqrt(normal_rhs.dot(normal_rhs))
    direction = normal_rhs - frame.gram.dot(c)
    result = object.__new__(ReconstructionResult)
    vars(result).update(signal=frame.basis.dot(c), coefficients=c, iterations=0,
                        residual=math.sqrt(direction.dot(direction)) / denom if denom > 0 else 0.0,
                        converged=True, eta=None, error_log=None)
    return result
