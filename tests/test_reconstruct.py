"""Frame-iteration and dual-frame recovery from cluster averages."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avgsampling import (
    FrameIterationConfig,
    InputError,
    NumericalError,
    analyze,
    bfs_partition,
    build_frame_system,
    build_laplacian,
    dual_frame_reconstruct,
    eigendecompose,
    frame_algorithm,
    generate_graph,
    generate_pw_signal,
    validate_partition,
)
from avgsampling.partitions import _frame
from avgsampling.reconstruct import _SCHEDULES, _TABLE_STEPS


@pytest.fixture(scope="module")
def frame64(path64):
    _, d, part = path64
    return build_frame_system(d, part, omega=0.5, alpha=1.0)


@pytest.fixture(scope="module")
def grid_frame():
    """A near-critical frame: the 10x10 grid with radius-1 balls at omega=3.22
    (band dim 41, 50 clusters, a ~ 0.108), which needs about 100 iterations."""
    g = generate_graph("grid2d", 100)
    d = eigendecompose(build_laplacian(g))
    part = validate_partition(g, bfs_partition(g, 1))
    return d, part, build_frame_system(d, part, omega=3.22, alpha=1.0)


def planted(analysis):
    """A frame with a planted J x m analysis matrix on the identity band basis;
    omega, alpha and Lambda set only gamma, which no recovery reads."""
    return _frame(analysis, np.eye(analysis.shape[1]), 0.5, 1.0, 2.0)


def unmemoised(frame, part):
    """A frame on ``frame``'s analysis matrix and basis with an empty schedule memo."""
    return _frame(frame.analysis, frame.basis, frame.omega, frame.alpha, part.lambda_xi)


def richardson_reference(A, s, mu, tol, max_iter=10000, truth_coeffs=None):
    """The frame iteration written directly: two matvecs with A per step.

    Returns the last iterate, the step count and, given ``truth_coeffs``,
    the error against them after every step.
    """
    c = np.zeros(A.shape[1])
    normal_rhs = A.T @ s
    direction = normal_rhs
    errors = []
    for iterations in range(1, max_iter + 1):
        c = c + mu * direction
        if truth_coeffs is not None:
            errors.append(np.linalg.norm(truth_coeffs - c))
        direction = A.T @ (s - A @ c)
        if np.linalg.norm(direction) <= tol * np.linalg.norm(normal_rhs):
            break
    return c, iterations, errors


def bisection_reference(frame, samples, config):
    """The closed-form iteration with its step count bisected afresh for each
    signal, as before the step schedule was memoised.

    Returns (iterations, coefficients, residual, converged).
    """
    a, b = frame.lower, frame.upper
    mu = 2.0 / (a + b) if config.mu is None else float(config.mu)
    tol, max_iter = config.tol, config.max_iter
    eta = max(abs(1.0 - mu * a), abs(1.0 - mu * b))
    normal_rhs = frame.analysis.T @ samples
    denom = float(np.linalg.norm(normal_rhs))
    right = frame.right_vectors
    sigma2 = frame.singular_values ** 2
    y = right.T @ normal_rhs
    fixed_point = y / sigma2
    rho = 1.0 - mu * sigma2
    rho_squared = rho * rho
    share = (y / denom) ** 2
    positive = rho > 0.0
    log_rho = np.log1p(-np.where(positive, mu * sigma2, 0.0))

    def within_tol(steps):
        return math.sqrt(float(share @ rho_squared ** steps)) <= tol

    def iterate(steps):
        complement = np.where(positive, -np.expm1(steps * log_rho), 1.0 - rho ** steps)
        c = right @ (complement * fixed_point)
        direction = normal_rhs - frame.gram @ c
        return c, math.sqrt(direction @ direction) / denom

    brackets = [max_iter]
    if 0.0 < eta < 1.0:
        brackets.insert(0, min(max_iter, max(1, math.ceil(math.log(tol) / math.log(eta)))))
    hi = next((k for k in brackets if within_tol(k)), None)
    if hi is not None:
        lo = 1
        while lo < hi:
            mid = (lo + hi) // 2
            if within_tol(mid):
                hi = mid
            else:
                lo = mid + 1
        for steps in range(lo, min(lo + 1, max_iter) + 1):
            c, residual = iterate(steps)
            if residual <= tol:
                return steps, c, residual, True
    return (max_iter, *iterate(max_iter), False)


def per_step_complement(schedule, k):
    """``1 - rho**k`` per mode, evaluated for the one step k."""
    return np.where(schedule.positive, -np.expm1(k * schedule.log_rho), 1.0 - schedule.rho ** k)


def dual_reference(frame, samples):
    """The dual-frame solve with numpy's norms and the band basis.

    Returns (signal, coefficients, residual).
    """
    c = frame.pinv @ samples
    normal_rhs = frame.analysis.T @ samples
    denom = float(np.linalg.norm(normal_rhs))
    residual = float(np.linalg.norm(normal_rhs - frame.gram @ c)) / denom if denom > 0 else 0.0
    return frame.basis @ c, c, residual


def assert_same_run(result, expected):
    iterations, coefficients, residual, converged = expected
    assert result.iterations == iterations
    assert result.residual == residual
    assert result.converged == converged
    assert np.array_equal(result.coefficients, coefficients)


@pytest.fixture(scope="module")
def both_frames(path64, frame64, grid_frame):
    """(decomposition, partition, frame, omega) for path64 and the near-critical grid."""
    return [(path64[1], path64[2], frame64, 0.5), (*grid_frame, 3.22)]


class TestFrameAlgorithm:
    def test_matches_two_matvec_reference(self, both_frames):
        config = FrameIterationConfig()
        for d, part, frame, omega in both_frames:
            A = frame.analysis
            mu = 2.0 / (frame.lower + frame.upper)
            for seed in range(5):
                samples = analyze(part, generate_pw_signal(d, omega, seed))
                result = frame_algorithm(frame, samples, config)
                expected, iterations, _ = richardson_reference(A, samples, mu, config.tol)
                assert abs(result.iterations - iterations) <= 1
                assert np.linalg.norm(result.coefficients - expected) <= 1e-10 * np.linalg.norm(expected)
                recomputed = (np.linalg.norm(A.T @ (samples - A @ result.coefficients))
                              / np.linalg.norm(A.T @ samples))
                # both are relative to norm(A^T s), so they differ by a few roundings
                assert abs(result.residual - recomputed) <= 16 * np.finfo(float).eps
                assert result.converged and result.residual <= config.tol

    def test_error_log_matches_stepwise_reference(self, both_frames):
        for d, part, frame, omega in both_frames:
            mu = 2.0 / (frame.lower + frame.upper)
            for seed in range(3):
                f = generate_pw_signal(d, omega, seed)
                samples = analyze(part, f)
                result = frame_algorithm(frame, samples, truth=f)
                _, iterations, expected = richardson_reference(
                    frame.analysis, samples, mu, 1e-10, truth_coeffs=frame.basis.T @ f)
                assert abs(len(result.error_log) - iterations) <= 1
                assert len(result.error_log) == result.iterations
                common = min(len(expected), result.iterations)
                assert np.max(np.abs(np.subtract(result.error_log[:common], expected[:common]))) \
                    <= 1e-10 * np.linalg.norm(f)

    @pytest.mark.parametrize("scale", [1.9, 1.0])
    def test_other_relaxations_match_reference(self, both_frames, scale):
        # mu = 1.9/b makes the stiffest mode's contraction negative
        for d, part, frame, omega in both_frames:
            mu = scale / frame.upper
            for seed in range(3):
                samples = analyze(part, generate_pw_signal(d, omega, seed))
                result = frame_algorithm(frame, samples, FrameIterationConfig(mu=mu))
                expected, iterations, _ = richardson_reference(frame.analysis, samples, mu, 1e-10)
                assert result.converged
                assert abs(result.iterations - iterations) <= 1
                assert np.linalg.norm(result.coefficients - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_exhausted_budget_returns_last_iterate(self, both_frames):
        for d, part, frame, omega in both_frames:
            samples = analyze(part, generate_pw_signal(d, omega, 4))
            result = frame_algorithm(frame, samples, FrameIterationConfig(max_iter=5))
            expected, _, _ = richardson_reference(
                frame.analysis, samples, 2.0 / (frame.lower + frame.upper), 1e-10, max_iter=5)
            assert not result.converged and result.iterations == 5
            assert result.residual > 1e-10
            assert np.linalg.norm(result.coefficients - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_tolerance_below_roundoff_floor_runs_out_the_budget(self, both_frames):
        # the closed-form residual reaches 1e-18; the residual of the iterate cannot
        for d, part, frame, omega in both_frames:
            samples = analyze(part, generate_pw_signal(d, omega, 6))
            config = FrameIterationConfig(tol=1e-18)
            result = frame_algorithm(frame, samples, config)
            assert not result.converged and result.iterations == config.max_iter
            normal_rhs = frame.analysis.T @ samples
            recomputed = (np.linalg.norm(normal_rhs - frame.gram @ result.coefficients)
                          / np.linalg.norm(normal_rhs))
            assert result.residual == pytest.approx(recomputed, rel=1e-12)
            expected, _, _ = richardson_reference(
                frame.analysis, samples, 2.0 / (frame.lower + frame.upper), config.tol)
            assert np.linalg.norm(result.coefficients - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_tolerance_within_roundoff_of_a_step_still_converges(self, grid_frame):
        # tol just above the exact residual after k steps: the residual of the
        # computed iterate may land on either side of it, so the result is
        # step k or k + 1, and never an exhausted budget
        d, part, frame = grid_frame
        A = frame.analysis
        mu = 2.0 / (frame.lower + frame.upper)
        _, singular, vt = np.linalg.svd(A, full_matrices=False)
        steps_seen = []
        for seed in range(3):
            samples = analyze(part, generate_pw_signal(d, 3.22, seed))
            y = vt @ (A.T @ samples)
            for k in range(95, 125, 3):
                exact = np.linalg.norm((1.0 - mu * singular ** 2) ** k * y) / np.linalg.norm(y)
                result = frame_algorithm(frame, samples, FrameIterationConfig(tol=exact * (1 + 1e-13)))
                assert result.converged and result.iterations in (k, k + 1)
                steps_seen.append(result.iterations - k)
        assert 0 in steps_seen and 1 in steps_seen

    @pytest.mark.parametrize("config", [
        FrameIterationConfig(tol=0.0),
        FrameIterationConfig(tol=-1e-10),
        FrameIterationConfig(tol=float("nan")),
        FrameIterationConfig(tol=float("inf")),
        FrameIterationConfig(max_iter=0),
        FrameIterationConfig(max_iter=-3),
        FrameIterationConfig(max_iter=2.5),
        FrameIterationConfig(max_iter=True),
    ])
    def test_bad_tolerance_or_budget_rejected(self, frame64, path64, config):
        samples = analyze(path64[2], generate_pw_signal(path64[1], 0.5, 1))
        with pytest.raises(InputError):
            frame_algorithm(frame64, samples, config)

    def test_bad_truth_rejected(self, frame64, path64):
        _, d, part = path64
        f = generate_pw_signal(d, 0.5, 2)
        samples = analyze(part, f)
        bad = f.copy()
        bad[5] = np.nan
        for truth in (f[:-1], np.append(f, 0.0), f.reshape(8, 8), bad):
            with pytest.raises(InputError, match="truth"):
                frame_algorithm(frame64, samples, truth=truth)

    def test_zero_samples_give_zero_signal(self, frame64):
        result = frame_algorithm(frame64, np.zeros(32))
        assert result.iterations <= 1
        assert result.converged
        assert np.max(np.abs(result.signal)) == 0.0

    def test_tight_frame_exact_in_one_iteration(self, path4):
        # omega=0.5 on the 4-path keeps only constants: a = b = 1, eta = 0
        _, d, part = path4
        frame = build_frame_system(d, part, omega=0.5, alpha=1.0)
        f = generate_pw_signal(d, 0.5, 3)
        samples = analyze(part, f)
        result = frame_algorithm(frame, samples, FrameIterationConfig(mu=1.0 / frame.lower))
        assert result.eta == pytest.approx(0.0, abs=1e-12)
        assert result.iterations == 1
        assert result.signal == pytest.approx(f, abs=1e-10)

    def test_geometric_error_decay(self, frame64, path64):
        _, d, part = path64
        for seed in range(10):
            f = generate_pw_signal(d, 0.5, seed)
            samples = analyze(part, f)
            result = frame_algorithm(frame64, samples, truth=f)
            eta = result.eta
            for step, err in enumerate(result.error_log, start=1):
                assert err <= eta ** step * np.linalg.norm(f) * (1.0 + 1e-8)
            assert result.converged

    def test_converges_to_tiny_relative_error(self, frame64, path64):
        _, d, part = path64
        f = generate_pw_signal(d, 0.5, 42)
        samples = analyze(part, f)
        result = frame_algorithm(frame64, samples)
        assert np.linalg.norm(result.signal - f) <= 1e-10 * np.linalg.norm(f) * 10

    def test_result_stays_in_band(self, frame64, path64):
        from avgsampling import pw_project

        _, d, part = path64
        samples = analyze(part, generate_pw_signal(d, 0.5, 12))
        for result in (
            frame_algorithm(frame64, samples),
            dual_frame_reconstruct(frame64, samples),
        ):
            projected = pw_project(d, 0.5, result.signal)
            assert np.linalg.norm(projected - result.signal) <= 1e-10

    def test_rank_deficient_frame_refused(self, path4):
        _, d, part = path4
        frame = build_frame_system(d, part, omega=4.0, alpha=1.0)  # band dim 4 > 2 clusters
        with pytest.raises(NumericalError, match="not a frame"):
            frame_algorithm(frame, np.zeros(2))

    def test_bad_mu_rejected(self, frame64):
        with pytest.raises(InputError):
            frame_algorithm(frame64, np.zeros(32), FrameIterationConfig(mu=5.0))
        with pytest.raises(InputError):
            frame_algorithm(frame64, np.zeros(32), FrameIterationConfig(mu=0.0))

    def test_non_finite_samples_rejected(self, frame64):
        bad = np.zeros(32)
        bad[3] = np.inf
        with pytest.raises(InputError):
            frame_algorithm(frame64, bad)
        with pytest.raises(InputError):
            frame_algorithm(frame64, np.zeros(5))


CONFIGS = {
    "default": lambda frame: FrameIterationConfig(),
    "mu=1/b": lambda frame: FrameIterationConfig(mu=1.0 / frame.upper),
    "tol=1e-6": lambda frame: FrameIterationConfig(tol=1e-6),
    "max_iter=5": lambda frame: FrameIterationConfig(max_iter=5),
}


class TestStepSchedule:
    @pytest.mark.parametrize("make_config", CONFIGS.values(), ids=CONFIGS.keys())
    def test_matches_bisection(self, both_frames, make_config):
        for d, part, frame, omega in both_frames:
            config = make_config(frame)
            for seed in range(8):
                samples = analyze(part, generate_pw_signal(d, omega, seed))
                result = frame_algorithm(frame, samples, config)
                assert_same_run(result, bisection_reference(frame, samples, config))

    def test_beyond_one_block(self):
        # b/a = 204: the bracket, about 2350 steps, exceeds one table block
        rng = np.random.Generator(np.random.PCG64(41))
        left, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        right, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        frame = planted(left @ np.diag([1.0, 0.3, 0.07]) @ right.T)
        config = FrameIterationConfig()
        mu = 2.0 / (frame.lower + frame.upper)
        for seed in range(3):
            samples = rng.standard_normal(6)
            result = frame_algorithm(frame, samples, config)
            assert result.converged and result.iterations > _TABLE_STEPS
            assert_same_run(result, bisection_reference(frame, samples, config))
            expected, iterations, _ = richardson_reference(frame.analysis, samples, mu, config.tol)
            assert abs(result.iterations - iterations) <= 1
            assert np.linalg.norm(result.coefficients - expected) <= 1e-10 * np.linalg.norm(expected)
        (schedule,) = _SCHEDULES[frame].values()
        assert schedule.bracket > _TABLE_STEPS
        assert schedule.decay.shape == (_TABLE_STEPS, frame.dim)

    def test_complement_rows_match_per_step_formula(self, both_frames):
        # On the synthetic frame, at mu = 1.99/b, evaluating the formula for
        # a column of steps at once (a broadcast pow) can miss the per-step
        # bits in row k = 2, where numpy squares instead of calling pow; it
        # does with numpy 2.4 on an x86-64 CPU with AVX-512.
        rng = np.random.Generator(np.random.PCG64(78))
        left, _ = np.linalg.qr(rng.standard_normal((40, 32)))
        right, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        synthetic = planted(left @ np.diag(rng.uniform(0.2, 1.0, 32)) @ right.T)
        # test_beyond_one_block's frame, whose steps run past the table
        long_rng = np.random.Generator(np.random.PCG64(41))
        left, _ = np.linalg.qr(long_rng.standard_normal((6, 3)))
        right, _ = np.linalg.qr(long_rng.standard_normal((3, 3)))
        long = planted(left @ np.diag([1.0, 0.3, 0.07]) @ right.T)
        cases = [(frame, analyze(part, generate_pw_signal(d, omega, 0))) for d, part, frame, omega in both_frames]
        cases += [(synthetic, rng.standard_normal(40)), (long, long_rng.standard_normal(6))]
        for frame, samples in cases:
            for mu in (None, 1.99 / frame.upper):
                frame_algorithm(frame, samples, FrameIterationConfig(mu=mu))
            for schedule in _SCHEDULES[frame].values():
                assert schedule.complement.shape == schedule.decay.shape
                for k, row in enumerate(schedule.complement, start=1):
                    assert np.array_equal(row, per_step_complement(schedule, k))
                    assert np.array_equal(schedule.complement_after(k), row)
                past = len(schedule.complement)
                for k in (past + 1, past + 2, max(past + 1, schedule.bracket)):
                    assert np.array_equal(schedule.complement_after(k), per_step_complement(schedule, k))
        assert len(_SCHEDULES[long][(2.0 / (long.lower + long.upper), 1e-10, 10000)].complement) == _TABLE_STEPS

    def test_bool_budget_refused_after_a_one_step_schedule(self, frame64, path64):
        # True == 1 and both hash alike, so a memo keyed on the unchecked
        # config would hand the max_iter=1 schedule to max_iter=True.
        _, d, part = path64
        frame = unmemoised(frame64, part)
        samples = analyze(part, generate_pw_signal(d, 0.5, 0))
        frame_algorithm(frame, samples, FrameIterationConfig(max_iter=1))
        assert [key[2] for key in _SCHEDULES[frame]] == [1]
        with pytest.raises(InputError, match="max_iter"):
            frame_algorithm(frame, samples, FrameIterationConfig(max_iter=True))

    def test_warm_default_refuses_what_a_cold_call_refuses(self, frame64, path64, path4):
        # the default config is checked once per frame; a passed one on every call,
        # even one equal to the default (10000.0 == 10000)
        _, d, part = path64
        frame = unmemoised(frame64, part)
        samples = analyze(part, generate_pw_signal(d, 0.5, 1))
        cold = frame_algorithm(frame, samples)
        plan = _SCHEDULES[frame][None]
        assert FrameIterationConfig(max_iter=10000.0) == FrameIterationConfig()
        refused = {"max_iter": FrameIterationConfig(max_iter=True), "mu=5.0": FrameIterationConfig(mu=5.0),
                   "max_iter must": FrameIterationConfig(max_iter=10000.0)}
        for match, config in refused.items():
            for fresh in (frame, unmemoised(frame64, part)):
                with pytest.raises(InputError, match=match):
                    frame_algorithm(fresh, samples, config)
        assert _SCHEDULES[frame][None] is plan and len(_SCHEDULES[frame]) == 2
        for warm in (frame_algorithm(frame, samples), frame_algorithm(frame, samples, FrameIterationConfig())):
            assert_same_run(warm, (cold.iterations, cold.coefficients, cold.residual, cold.converged))
            assert np.array_equal(warm.signal, cold.signal)
        # a frame refused for the default config keeps no plan and is refused again
        _, d4, part4 = path4
        rank_deficient = build_frame_system(d4, part4, omega=4.0, alpha=1.0)
        for _ in range(2):
            with pytest.raises(NumericalError, match="not a frame"):
                frame_algorithm(rank_deficient, np.ones(2))
        assert rank_deficient not in _SCHEDULES

    def test_configs_do_not_interfere(self, grid_frame):
        d, part, frame = grid_frame
        shared = unmemoised(frame, part)
        configs = [make_config(frame) for make_config in CONFIGS.values()]
        for seed in range(3):
            samples = analyze(part, generate_pw_signal(d, 3.22, seed))
            for config in configs:
                fresh = frame_algorithm(unmemoised(frame, part), samples, config)
                result = frame_algorithm(shared, samples, config)
                assert_same_run(result, (fresh.iterations, fresh.coefficients, fresh.residual, fresh.converged))
        assert len(_SCHEDULES[shared]) == len(configs)

    def test_arrays_read_only(self, grid_frame):
        d, part, frame = grid_frame
        frame_algorithm(frame, analyze(part, generate_pw_signal(d, 3.22, 0)))
        assert _SCHEDULES[frame]
        for schedule in _SCHEDULES[frame].values():
            arrays = [value for value in vars(schedule).values() if isinstance(value, np.ndarray)]
            assert len(arrays) == 6
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0


class TestPerCallArithmetic:
    """Samples, recoveries and residuals keep the bits of the per-call arithmetic:
    the complement evaluated per signal, numpy's norms and the band basis."""

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical(self, both_frames, seed):
        for d, part, frame, omega in both_frames:
            f = generate_pw_signal(d, omega, seed)
            samples = analyze(part, f)
            expected = np.bincount(part.labels, f, minlength=part.num_clusters) / np.sqrt(np.bincount(part.labels))
            assert np.array_equal(samples, expected)
            for make_config in CONFIGS.values():
                config = make_config(frame)
                result = frame_algorithm(frame, samples, config)
                reference = bisection_reference(frame, samples, config)
                assert_same_run(result, reference)
                assert np.array_equal(result.signal, frame.basis @ reference[1])
            result = dual_frame_reconstruct(frame, samples)
            signal, coefficients, residual = dual_reference(frame, samples)
            assert np.array_equal(result.signal, signal)
            assert np.array_equal(result.coefficients, coefficients)
            assert result.residual == residual


class TestDualFrame:
    def test_matches_numpy_pinv(self, path4, frame64, grid_frame):
        _, d, part = path4
        rank_deficient = build_frame_system(d, part, omega=4.0, alpha=1.0)  # band dim 4 > 2 clusters
        assert not rank_deficient.is_frame
        rng = np.random.Generator(np.random.PCG64(37))
        # singular values on either side of the 1e-10 relative cutoff
        left, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        right, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        graded = planted(left @ np.diag([1.0, 1e-6, 1e-12]) @ right.T)
        for frame in (rank_deficient, frame64, grid_frame[2], graded):
            samples = rng.standard_normal(frame.num_clusters)
            expected = np.linalg.pinv(frame.analysis, rcond=1e-10) @ samples
            got = dual_frame_reconstruct(frame, samples).coefficients
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_exact_recovery(self, frame64, path64):
        _, d, part = path64
        for seed in range(10):
            f = generate_pw_signal(d, 0.5, seed)
            samples = analyze(part, f)
            result = dual_frame_reconstruct(frame64, samples)
            assert np.linalg.norm(result.signal - f) <= 1e-8 * np.linalg.norm(f)

    def test_zero_samples(self, frame64):
        result = dual_frame_reconstruct(frame64, np.zeros(32))
        assert np.max(np.abs(result.signal)) == 0.0

    def test_noise_amplification_bounded(self, small_suite):
        # pseudoinverse error bound checked against an independent least-squares fit
        for name, g, d, part in small_suite:
            if not np.isfinite(part.lambda_xi):
                continue
            omega = 0.4 * part.lambda_xi
            frame = build_frame_system(d, part, omega, alpha=1.0)
            if not frame.is_frame:
                continue
            rng = np.random.Generator(np.random.PCG64(29))
            f = generate_pw_signal(d, omega, 1)
            samples = analyze(part, f)
            noise = 0.01 * rng.standard_normal(len(samples))
            result = dual_frame_reconstruct(frame, samples + noise)
            err = np.linalg.norm(result.signal - f)
            assert err <= np.linalg.norm(noise) / np.sqrt(frame.lower) + 1e-12, name
            # brute-force least squares agrees with the pseudoinverse route
            coeffs, *_ = np.linalg.lstsq(frame.analysis, samples + noise, rcond=None)
            assert frame.basis @ coeffs == pytest.approx(result.signal, abs=1e-10)

    def test_agreement_with_iterative(self, frame64, path64):
        _, d, part = path64
        f = generate_pw_signal(d, 0.5, 8)
        samples = analyze(part, f)
        direct = dual_frame_reconstruct(frame64, samples)
        iterative = frame_algorithm(frame64, samples, FrameIterationConfig(tol=1e-13))
        gap = np.linalg.norm(direct.signal - iterative.signal)
        assert gap <= 1e-7 * np.linalg.norm(f)

    def test_linearity(self, frame64, path64):
        _, d, part = path64
        s1 = analyze(part, generate_pw_signal(d, 0.5, 1))
        s2 = analyze(part, generate_pw_signal(d, 0.5, 2))
        for method in (dual_frame_reconstruct, frame_algorithm):
            combined = method(frame64, s1 + s2).signal
            separate = method(frame64, s1).signal + method(frame64, s2).signal
            assert combined == pytest.approx(separate, abs=1e-9)


class TestNoisySamples:
    @given(seed=st.integers(0, 2**16), scale=st.floats(1e-4, 10.0), worst=st.floats(0.0, 1.0))
    def test_recovery_stays_inside_frame_bound(self, both_frames, seed, scale, worst):
        """Dual recovery from averages plus noise e is within norm(e)/sqrt(a) of f; the
        converged frame iteration within that plus tol*norm(f)*b/a. ``worst`` mixes in
        the noise direction the frame amplifies most, where the dual bound is attained."""
        for d, part, frame, omega in both_frames:
            f = generate_pw_signal(d, omega, seed)
            rng = np.random.Generator(np.random.PCG64(seed))
            u, _, _ = np.linalg.svd(frame.analysis, full_matrices=False)
            direction = rng.standard_normal(frame.num_clusters)
            noise = scale * ((1.0 - worst) * direction / np.linalg.norm(direction) + worst * u[:, -1])
            samples = analyze(part, f) + noise
            bound = np.linalg.norm(noise) / np.sqrt(frame.lower) * (1.0 + 1e-9)

            dual = dual_frame_reconstruct(frame, samples)
            assert np.linalg.norm(f - dual.signal) <= bound

            config = FrameIterationConfig()
            iterative = frame_algorithm(frame, samples, config)
            assert iterative.converged
            slack = config.tol * np.linalg.norm(f) * frame.upper / frame.lower
            assert np.linalg.norm(f - iterative.signal) <= bound + slack
