"""Variational splines: exact interpolation, minimality, characterization, rate."""
import math

import numpy as np
import pytest

from avgsampling import (
    InputError,
    NumericalError,
    SplineProblem,
    analyze,
    apply_power,
    generate_pw_signal,
    interpolate,
    orthogonality_check,
    solve_spline,
    spline_convergence_experiment,
    zero_average_signal,
)


def raw_kkt_spline(L: np.ndarray, xi_rows: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    """Independent oracle: stationarity system on the raw Laplacian matrix.

    Minimizing u^T L^k u subject to xi_rows @ u = targets gives the block
    system [[2 L^k, X^T], [X, 0]] [u; nu] = [0; targets], solved densely with
    no spectral machinery.
    """
    n = L.shape[0]
    J = xi_rows.shape[0]
    Lk = np.linalg.matrix_power(L, k)
    system = np.zeros((n + J, n + J))
    system[:n, :n] = 2.0 * Lk
    system[:n, n:] = xi_rows.T
    system[n:, :n] = xi_rows
    rhs = np.concatenate([np.zeros(n), targets])
    return np.linalg.solve(system, rhs)[:n]


def xi_matrix(partition) -> np.ndarray:
    from avgsampling import average_functionals

    return average_functionals(partition).xi


class TestSolveSpline:
    def test_constant_averages_give_constant(self, path16):
        _, d, part = path16
        c = 2.75
        targets = analyze(part, np.full(16, c))
        sol = solve_spline(d, part, SplineProblem(order=3, targets=targets, partition=part))
        assert sol.signal == pytest.approx(np.full(16, c), abs=1e-10)
        assert sol.seminorm <= 1e-10

    def test_zero_targets_give_zero(self, path16):
        _, d, part = path16
        sol = solve_spline(d, part, SplineProblem(order=2, targets=np.zeros(8), partition=part))
        assert np.max(np.abs(sol.signal)) <= 1e-12

    def test_path4_order1_hand_solution(self, path4):
        # oracle: minimizing (a-b)^2+(b-c)^2+(c-d)^2 with a+b=2, c+d=6 gives
        # u = (2/3, 4/3, 8/3, 10/3), seminorm^2 = 8/3
        _, d, part = path4
        targets = np.array([math.sqrt(2.0) * 1.0, math.sqrt(2.0) * 3.0])
        sol = solve_spline(d, part, SplineProblem(order=1, targets=targets, partition=part))
        assert sol.signal == pytest.approx([2 / 3, 4 / 3, 8 / 3, 10 / 3], abs=1e-9)
        assert sol.seminorm ** 2 == pytest.approx(8.0 / 3.0, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_matches_raw_matrix_oracle(self, small_suite, k):
        from avgsampling import build_laplacian

        for name, g, d, part in small_suite:
            L = build_laplacian(g).matrix
            X = xi_matrix(part)
            rng = np.random.Generator(np.random.PCG64(37))
            for _ in range(2):
                targets = rng.standard_normal(part.num_clusters)
                sol = solve_spline(d, part, SplineProblem(order=k, targets=targets, partition=part))
                oracle = raw_kkt_spline(L, X, targets, k)
                scale = max(1.0, float(np.max(np.abs(oracle))))
                assert np.max(np.abs(sol.signal - oracle)) <= 1e-8 * scale, (name, k)

    def test_achieved_averages_match_targets(self, path64):
        _, d, part = path64
        rng = np.random.Generator(np.random.PCG64(41))
        for k in (1, 2, 4, 8):
            targets = rng.standard_normal(32)
            sol = solve_spline(d, part, SplineProblem(order=k, targets=targets, partition=part))
            tol = 1e-8 * max(1.0, float(np.linalg.norm(targets)))
            assert np.max(np.abs(sol.achieved_averages - targets)) <= tol
            assert sol.kkt_residual <= 1e-9

    def test_condition_refusal(self, path64):
        _, d, part = path64
        with pytest.raises(NumericalError, match="condition"):
            solve_spline(d, part, SplineProblem(order=16, targets=np.zeros(32), partition=part))

    def test_bad_problem_rejected(self, path4):
        _, d, part = path4
        with pytest.raises(InputError):
            SplineProblem(order=0, targets=np.zeros(2), partition=part)
        with pytest.raises(InputError):
            SplineProblem(order=1, targets=np.zeros(3), partition=part)
        with pytest.raises(InputError):
            SplineProblem(order=1, targets=np.array([np.nan, 0.0]), partition=part)

    def test_non_power_of_two_accepted_and_flagged(self, path16):
        _, d, part = path16
        sol = interpolate(d, part, generate_pw_signal(d, 0.5, 0), 3)
        assert not sol.order_is_power_of_two
        assert np.max(np.abs(sol.achieved_averages - sol.targets)) <= 1e-8


class TestInterpolate:
    def test_constant_is_reproduced(self, path16):
        _, d, part = path16
        f = np.full(16, -1.25)
        sol = interpolate(d, part, f, 4)
        assert sol.signal == pytest.approx(f, abs=1e-10)

    def test_averages_preserved_for_eigenvector(self, path16):
        _, d, part = path16
        f = d.eigenvectors[:, 1].copy()
        sol = interpolate(d, part, f, 2)
        assert sol.achieved_averages == pytest.approx(analyze(part, f), abs=1e-10)
        smoothed_f = np.linalg.norm(apply_power(d, 2, f))
        assert sol.seminorm <= smoothed_f + 1e-12

    def test_minimality_against_feasible_perturbations(self, path16):
        _, d, part = path16
        f = generate_pw_signal(d, 1.0, 9)
        k = 2
        sol = interpolate(d, part, f, k)
        rng = np.random.Generator(np.random.PCG64(43))
        dim = 16 - part.num_clusters
        for _ in range(100):
            h = zero_average_signal(d, part, rng.standard_normal(dim))
            perturbed = sol.signal + h
            assert np.max(np.abs(analyze(part, perturbed) - sol.targets)) <= 1e-9
            assert (
                np.linalg.norm(apply_power(d, k, perturbed))
                >= np.linalg.norm(apply_power(d, k, sol.signal)) - 1e-9
            )

    def test_pythagoras_at_the_solution(self, path16):
        _, d, part = path16
        f = generate_pw_signal(d, 1.0, 10)
        k = 2
        sol = interpolate(d, part, f, k)
        rng = np.random.Generator(np.random.PCG64(47))
        h = zero_average_signal(d, part, rng.standard_normal(16 - part.num_clusters))
        lhs = np.linalg.norm(apply_power(d, k, sol.signal + h)) ** 2
        rhs = sol.seminorm ** 2 + np.linalg.norm(apply_power(d, k, h)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestOrthogonalityCheck:
    def test_solver_output_passes(self, path64):
        _, d, part = path64
        for k in (1, 2, 4, 8):
            sol = interpolate(d, part, generate_pw_signal(d, 0.5, k), k)
            result = orthogonality_check(d, part, sol.signal, k)
            assert result.is_spline
            assert result.normalized <= 1e-8

    def test_perturbed_solution_fails(self, path64):
        _, d, part = path64
        k = 2
        sol = interpolate(d, part, generate_pw_signal(d, 0.5, 3), k)
        rng = np.random.Generator(np.random.PCG64(53))
        h = zero_average_signal(d, part, rng.standard_normal(32))
        h *= 0.1 / np.linalg.norm(apply_power(d, k, h))
        result = orthogonality_check(d, part, sol.signal + h, k)
        assert not result.is_spline
        assert result.normalized > 1e-4

    def test_constant_passes_for_any_order(self, path16):
        _, d, part = path16
        result = orthogonality_check(d, part, np.full(16, 5.0), 6)
        assert result.is_spline
        assert result.defect <= 1e-9


class TestConvergence:
    def test_rate_bound_on_path64(self, path64):
        _, d, part = path64
        f = generate_pw_signal(d, 0.5, 21)
        rows = spline_convergence_experiment(d, part, 0.5, 1.0, f, [1, 2, 4, 8])
        for row in rows:
            assert row.within_bound
            assert row.bound == pytest.approx(2.0 * 0.5 ** row.order, abs=1e-15)
            assert row.proved

    def test_rows_match_per_order_interpolate(self, path64):
        _, d, part = path64
        f = generate_pw_signal(d, 0.5, 21)
        rows = spline_convergence_experiment(d, part, 0.5, 1.0, f, [1, 2, 3, 4, 8])
        assert [row.order for row in rows] == [1, 2, 3, 4, 8]
        for row in rows:
            solution = interpolate(d, part, f, row.order)
            rel = np.linalg.norm(f - solution.signal) / np.linalg.norm(f)
            assert row.rel_error == pytest.approx(rel, rel=1e-12, abs=0)
            assert row.proved == solution.order_is_power_of_two

    def test_spline_fixed_point_has_zero_error(self, path16):
        _, d, part = path16
        k = 2
        sol = interpolate(d, part, generate_pw_signal(d, 0.5, 2), k)
        again = interpolate(d, part, sol.signal, k)
        assert np.linalg.norm(sol.signal - again.signal) <= 1e-9

    def test_gamma_at_least_one_refused(self, path64):
        _, d, part = path64
        f = generate_pw_signal(d, 2.5, 0)
        with pytest.raises(InputError, match="gamma"):
            spline_convergence_experiment(d, part, 2.5, 1.0, f, [1, 2])

    def test_out_of_band_signal_refused(self, path64):
        _, d, part = path64
        rng = np.random.Generator(np.random.PCG64(59))
        with pytest.raises(InputError, match="out-of-band"):
            spline_convergence_experiment(d, part, 0.5, 1.0, rng.standard_normal(64), [1])

    def test_non_power_of_two_rows_labeled_unproved(self, path64):
        _, d, part = path64
        f = generate_pw_signal(d, 0.5, 6)
        rows = spline_convergence_experiment(d, part, 0.5, 1.0, f, [3, 4])
        assert not rows[0].proved
        assert rows[1].proved
