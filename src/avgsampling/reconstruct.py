"""Recovery of bandlimited signals from their cluster averages.

Two routes. The iterative frame algorithm is a relaxed Richardson iteration
on band coefficients, ``c_next = c + mu * A^T (s - A c)``, converging
geometrically with factor ``eta = max(|1 - mu*a|, |1 - mu*b|)`` whenever the
averages form a frame (a > 0). For a fixed frame and ``mu`` the k-th iterate
is a fixed polynomial in the frame operator, so it is evaluated in closed
form in the eigenbasis of ``A^T A``: the right singular vectors of the thin
SVD ``A = U S V^T``, in which mode i contracts by ``1 - mu*sigma_i^2`` per
step. The step count is the first k whose residual meets the tolerance. The
decay of every mode over the first steps is tabulated once per frame and
config, in a step schedule memoised on the frame that holds at most
``_ERROR_LOG_BLOCK`` steps of m doubles each; a signal reads its step count
off one product with that table, and steps past it are found by bisection.
A signal thus costs a few m x m matvecs whatever the number of steps. The
direct route applies the canonical dual frame, the minimum-norm
least-squares solve ``c = pinv(A) s``. The singular vectors,
the Gram matrix ``G = A^T A`` and ``pinv(A)`` are all formed once in
``build_frame_system``, from the one thin SVD that gives the frame bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .graph import WeightedGraph
from .partitions import ClusterPartition, FrameSystem, analyze, build_frame_system
from .spectral import SpectralDecomposition, build_laplacian, eigendecompose, pw_project

#: Steps per block when the error log is evaluated, and steps in a step
#: schedule's decay table, which bounds each to this many band-coefficient
#: vectors.
_ERROR_LOG_BLOCK = 1024


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


@dataclass(frozen=True)
class ReconstructionResult:
    method: str
    signal: np.ndarray
    coefficients: np.ndarray
    iterations: int
    residual: float
    converged: bool
    eta: float | None = None
    error_log: tuple[float, ...] | None = None


def _check_samples(frame: FrameSystem, samples: np.ndarray) -> np.ndarray:
    s = np.asarray(samples, dtype=float)
    if s.shape != (frame.num_clusters,):
        raise InputError(
            f"samples length {s.shape} does not match cluster count {frame.num_clusters}"
        )
    if not np.all(np.isfinite(s)):
        raise InputError("samples contain non-finite entries")
    return s


@dataclass(frozen=True)
class _StepSchedule:
    """What the frame iteration needs of one frame and config, all read-only.

    Mode i contracts by ``rho[i]`` per step. Row k-1 of ``decay`` is
    ``rho**(2k)`` for k = 1..min(bracket, _ERROR_LOG_BLOCK), so ``decay``
    times a signal's mode shares gives its squared closed-form residual after
    each of those steps. ``bracket`` is a step by which the residual meets
    ``tol`` (``max_iter`` when eta gives none).
    """

    eta: float
    sigma2: np.ndarray
    rho: np.ndarray
    positive: np.ndarray
    log_rho: np.ndarray
    bracket: int
    decay: np.ndarray


def _step_schedule(frame: FrameSystem, mu: float, tol: float, max_iter: int) -> _StepSchedule:
    """The step schedule of a frame for a checked config, memoised on the frame."""
    key = (mu, tol, max_iter)
    schedule = frame._schedules.get(key)
    if schedule is not None:
        return schedule
    eta = max(abs(1.0 - mu * frame.lower), abs(1.0 - mu * frame.upper))
    sigma2 = frame.singular_values ** 2
    rho = 1.0 - mu * sigma2
    rho_squared = rho * rho
    # 1 - rho**k is -expm1(k * log1p(-mu*sigma^2)) where rho > 0, which keeps
    # its digits when mu*sigma^2 is tiny; where rho <= 0 nothing cancels.
    positive = rho > 0.0
    log_rho = np.log1p(-np.where(positive, mu * sigma2, 0.0))
    # The residual after k steps is at most eta**k, so that k brackets the
    # first step within tol; max_iter stands in if roundoff moved it.
    bracket = max_iter
    if 0.0 < eta < 1.0:
        bracket = min(max_iter, max(1, math.ceil(math.log(tol) / math.log(eta))))
    decay = np.stack([rho_squared ** k for k in range(1, min(bracket, _ERROR_LOG_BLOCK) + 1)])
    for derived in (sigma2, rho, positive, log_rho, decay):
        derived.flags.writeable = False
    schedule = frame._schedules[key] = _StepSchedule(eta, sigma2, rho, positive, log_rho, bracket, decay)
    return schedule


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
    tabulates ``rho^(2k)`` on the frame for every step up to the one by
    which ``eta^k`` meets ``tol``, capped at ``_ERROR_LOG_BLOCK`` steps, so
    one table product gives the first step meeting ``tol``; beyond the
    table it is found by bisection. The returned residual is recomputed
    from the iterate. When
    ``truth`` (a vertex-space signal assumed to lie in the band) is
    supplied, the per-iteration error ``norm(truth - iterate)`` is logged
    alongside the run.
    """
    config = config or FrameIterationConfig()
    s = _check_samples(frame, samples)
    if not frame.is_frame:
        raise NumericalError(
            f"averages are not a frame for omega={frame.omega} with this partition "
            f"(lower bound {frame.lower:.3e}); reconstruction is not stable"
        )
    a, b = frame.lower, frame.upper
    mu = 2.0 / (a + b) if config.mu is None else float(config.mu)
    if not (0.0 < mu < 2.0 / b):
        raise InputError(f"relaxation parameter mu={mu} outside (0, 2/b)=(0, {2.0 / b})")
    tol, max_iter = float(config.tol), config.max_iter
    if not (math.isfinite(tol) and tol > 0.0):
        raise InputError(f"tolerance tol={config.tol} must be finite and positive")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise InputError(f"max_iter must be a positive integer, got {max_iter!r}")
    max_iter = int(max_iter)

    truth_coeffs = None
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (frame.basis.shape[0],):
            raise InputError(
                f"truth shape {truth.shape} does not match n={frame.basis.shape[0]}"
            )
        if not np.all(np.isfinite(truth)):
            raise InputError("truth contains non-finite entries")
        truth_coeffs = frame.basis.T @ truth

    schedule = _step_schedule(frame, mu, tol, max_iter)
    eta = schedule.eta
    normal_rhs = frame.analysis.T @ s
    denom = float(np.linalg.norm(normal_rhs))
    if denom == 0.0:
        # Zero samples: the zero signal is already the fixed point.
        c = np.zeros(frame.dim)
        return ReconstructionResult(
            method="frame-iter",
            signal=frame.to_signal(c),
            coefficients=c,
            iterations=0,
            residual=0.0,
            converged=True,
            eta=eta,
            error_log=() if truth_coeffs is not None else None,
        )

    right = frame.right_vectors
    positive, rho, log_rho = schedule.positive, schedule.rho, schedule.log_rho
    y = right.T @ normal_rhs
    fixed_point = y / schedule.sigma2  # the least-squares solution in the V basis
    share = (y / denom) ** 2  # norm(y) = norm(A^T s), as V is orthogonal

    def complement(steps) -> np.ndarray:
        return np.where(positive, -np.expm1(steps * log_rho), 1.0 - rho ** steps)

    def closed_form_within_tol(steps: int) -> bool:
        return math.sqrt(float(share @ (rho * rho) ** steps)) <= tol

    def iterate(steps: int) -> tuple[np.ndarray, float]:
        c = right @ (complement(steps) * fixed_point)
        direction = normal_rhs - frame.gram @ c
        return c, math.sqrt(direction @ direction) / denom

    def first_step_within_tol() -> int | None:
        within = np.sqrt(schedule.decay @ share) <= tol
        if within.any():
            return int(within.argmax()) + 1
        # Past the table, bisect between its end and the first bracket within tol.
        lo = len(schedule.decay) + 1
        hi = next((k for k in (schedule.bracket, max_iter) if k >= lo and closed_form_within_tol(k)), None)
        if hi is None:
            return None
        while lo < hi:
            mid = (lo + hi) // 2
            if closed_form_within_tol(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def run() -> tuple[int, np.ndarray, float, bool]:
        first = first_step_within_tol()
        if first is not None:
            # The closed form has no roundoff floor, the recomputed residual
            # has. One step more covers a closed-form residual that lands
            # within roundoff below tol; a miss beyond that is the floor,
            # where a stepwise run exhausts its budget.
            for steps in range(first, min(first + 1, max_iter) + 1):
                c, residual = iterate(steps)
                if residual <= tol:
                    return steps, c, residual, True
        return (max_iter, *iterate(max_iter), False)

    iterations, c, residual, converged = run()

    errors = None
    if truth_coeffs is not None:
        target = right.T @ truth_coeffs
        errors = []
        for start in range(1, iterations + 1, _ERROR_LOG_BLOCK):
            steps = np.arange(start, min(start + _ERROR_LOG_BLOCK, iterations + 1))
            iterates = complement(steps[:, None]) * fixed_point
            errors.extend(np.linalg.norm(target - iterates, axis=1).tolist())
        errors = tuple(errors)
    return ReconstructionResult(
        method="frame-iter",
        signal=frame.to_signal(c),
        coefficients=c,
        iterations=iterations,
        residual=residual,
        converged=converged,
        eta=eta,
        error_log=errors,
    )


def dual_frame_reconstruct(frame: FrameSystem, samples: np.ndarray) -> ReconstructionResult:
    """Recover band coefficients through the canonical dual frame.

    Applies the pseudoinverse formed in ``build_frame_system``, giving the
    minimum-norm least-squares solution; exact (up to roundoff) for
    consistent samples of a band signal whenever the averages form a frame.
    For rank-deficient analysis maps this still returns the least-squares
    signal, with the deficiency reflected in the residual.
    """
    s = _check_samples(frame, samples)
    c = frame.pinv @ s
    normal_rhs = frame.analysis.T @ s
    denom = float(np.linalg.norm(normal_rhs))
    residual = float(np.linalg.norm(normal_rhs - frame.gram @ c)) / denom if denom > 0 else 0.0
    return ReconstructionResult(
        method="dual",
        signal=frame.to_signal(c),
        coefficients=c,
        iterations=0,
        residual=residual,
        converged=True,
    )


@dataclass(frozen=True)
class RoundtripReport:
    """Outcome of sampling a signal's band content and reconstructing it."""

    omega: float
    alpha: float
    gamma: float
    lower: float
    upper: float
    eta: float | None
    frame_ok: bool
    failure: str | None
    sampled_raw: bool
    target_norm: float
    frame_iter: ReconstructionResult | None
    dual: ReconstructionResult | None
    frame_iter_error: float | None
    dual_error: float | None
    method_gap: float | None


def sample_and_reconstruct_roundtrip(
    graph: WeightedGraph,
    partition: ClusterPartition,
    omega: float,
    alpha: float,
    f: np.ndarray,
    config: FrameIterationConfig | None = None,
    decomp: SpectralDecomposition | None = None,
    sample_raw: bool = False,
) -> RoundtripReport:
    """Sample a signal by cluster averages and reconstruct, reporting errors.

    The signal is first projected onto the bandwidth-omega subspace and the
    *projection* is sampled, so the recovery guarantees apply; errors are
    measured against that projection. With ``sample_raw=True`` the raw signal
    is sampled instead, demonstrating the bias out-of-band content induces
    (the report is labeled accordingly).
    """
    if decomp is None:
        decomp = eigendecompose(build_laplacian(graph))
    projected = pw_project(decomp, omega, np.asarray(f, dtype=float))
    target_norm = float(np.linalg.norm(projected))
    frame = build_frame_system(decomp, partition, omega, alpha)
    samples = analyze(partition, np.asarray(f, dtype=float) if sample_raw else projected)

    if not frame.is_frame:
        return RoundtripReport(
            omega=frame.omega,
            alpha=frame.alpha,
            gamma=frame.gamma,
            lower=frame.lower,
            upper=frame.upper,
            eta=None,
            frame_ok=False,
            failure=(
                f"analysis map has a kernel (band dimension {frame.dim} vs "
                f"{frame.num_clusters} clusters, lower bound {frame.lower:.3e}); "
                "averages do not determine the band content"
            ),
            sampled_raw=sample_raw,
            target_norm=target_norm,
            frame_iter=None,
            dual=None,
            frame_iter_error=None,
            dual_error=None,
            method_gap=None,
        )

    iterative = frame_algorithm(frame, samples, config, truth=projected)
    direct = dual_frame_reconstruct(frame, samples)
    iter_err = float(np.linalg.norm(projected - iterative.signal))
    dual_err = float(np.linalg.norm(projected - direct.signal))
    gap = float(np.linalg.norm(iterative.signal - direct.signal))
    return RoundtripReport(
        omega=frame.omega,
        alpha=frame.alpha,
        gamma=frame.gamma,
        lower=frame.lower,
        upper=frame.upper,
        eta=iterative.eta,
        frame_ok=True,
        failure=None,
        sampled_raw=sample_raw,
        target_norm=target_norm,
        frame_iter=iterative,
        dual=direct,
        frame_iter_error=iter_err,
        dual_error=dual_err,
        method_gap=gap,
    )
