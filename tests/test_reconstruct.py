"""Frame-iteration and dual-frame recovery from cluster averages."""
import dataclasses

import numpy as np
import pytest

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
    sample_and_reconstruct_roundtrip,
    validate_partition,
)


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


def richardson_reference(A, s, mu, tol, max_iter=10000):
    """The frame iteration written directly: two matvecs with A per step."""
    c = np.zeros(A.shape[1])
    normal_rhs = A.T @ s
    direction = normal_rhs
    for iterations in range(1, max_iter + 1):
        c = c + mu * direction
        direction = A.T @ (s - A @ c)
        if np.linalg.norm(direction) <= tol * np.linalg.norm(normal_rhs):
            break
    return c, iterations


class TestFrameAlgorithm:
    def test_matches_two_matvec_reference(self, path64, frame64, grid_frame):
        config = FrameIterationConfig()
        for d, part, frame, omega in [(path64[1], path64[2], frame64, 0.5), (*grid_frame, 3.22)]:
            A = frame.analysis
            mu = 2.0 / (frame.lower + frame.upper)
            for seed in range(5):
                samples = analyze(part, generate_pw_signal(d, omega, seed))
                result = frame_algorithm(frame, samples, config)
                expected, iterations = richardson_reference(A, samples, mu, config.tol)
                assert abs(result.iterations - iterations) <= 1
                assert np.linalg.norm(result.coefficients - expected) <= 1e-10 * np.linalg.norm(expected)
                recomputed = (np.linalg.norm(A.T @ (samples - A @ result.coefficients))
                              / np.linalg.norm(A.T @ samples))
                # both are relative to norm(A^T s), so they differ by a few roundings
                assert abs(result.residual - recomputed) <= 16 * np.finfo(float).eps
                assert result.converged and result.residual <= config.tol

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


class TestDualFrame:
    def test_matches_numpy_pinv(self, path4, frame64, grid_frame):
        _, d, part = path4
        rank_deficient = build_frame_system(d, part, omega=4.0, alpha=1.0)  # band dim 4 > 2 clusters
        assert not rank_deficient.is_frame
        rng = np.random.Generator(np.random.PCG64(37))
        # singular values on either side of the 1e-10 relative cutoff
        left, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        right, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        graded = dataclasses.replace(
            frame64, analysis=left @ np.diag([1.0, 1e-6, 1e-12]) @ right.T, basis=np.eye(3))
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
            assert frame.to_signal(coeffs) == pytest.approx(result.signal, abs=1e-10)

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


class TestRoundtrip:
    def test_band_signal_recovered_by_both_methods(self, path64):
        g, d, part = path64
        f = generate_pw_signal(d, 0.5, 5)
        report = sample_and_reconstruct_roundtrip(g, part, 0.5, 1.0, f, decomp=d)
        assert report.frame_ok
        assert report.frame_iter_error <= 1e-8 * report.target_norm
        assert report.dual_error <= 1e-8 * report.target_norm
        assert report.method_gap <= 1e-7 * report.target_norm

    def test_out_of_band_content_is_projected_away(self, path64):
        g, d, part = path64
        rng = np.random.Generator(np.random.PCG64(31))
        f = rng.standard_normal(64)  # full-band content
        report = sample_and_reconstruct_roundtrip(g, part, 0.5, 1.0, f, decomp=d)
        # recovery matches the band projection of f, not f itself
        assert report.dual_error <= 1e-8 * max(report.target_norm, 1.0)
        assert report.target_norm < 0.9 * np.linalg.norm(f)

    def test_aliasing_mode_shows_bias(self, path64):
        g, d, part = path64
        rng = np.random.Generator(np.random.PCG64(33))
        f = rng.standard_normal(64)
        report = sample_and_reconstruct_roundtrip(
            g, part, 0.5, 1.0, f, decomp=d, sample_raw=True
        )
        assert report.sampled_raw
        # raw averages see out-of-band content, so the band recovery is biased
        assert report.dual_error > 1e-3 * report.target_norm

    def test_structured_failure_when_not_a_frame(self, path4):
        g, d, part = path4
        f = generate_pw_signal(d, 4.0, 0)
        report = sample_and_reconstruct_roundtrip(g, part, 4.0, 1.0, f, decomp=d)
        assert not report.frame_ok
        assert report.lower == 0.0
        assert "kernel" in report.failure
        assert report.frame_iter is None and report.dual is None
