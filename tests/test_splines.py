"""Variational splines: exact interpolation, minimality, characterization, rate."""
import gc
import math
import weakref

import numpy as np
import pytest
from scipy.linalg import lapack, qr

from avgsampling import (
    InputError,
    NumericalError,
    analyze,
    bfs_partition,
    blocks_partition,
    build_laplacian,
    eigendecompose,
    generate_graph,
    generate_pw_signal,
    interpolate,
    pairs_partition,
    pw_project,
    solve_spline,
    spline_convergence_experiment,
    validate_partition,
)
from avgsampling import partitions, splines

from conftest import dense_indicators, orthogonality_defect, power, zero_average


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


def reference_spline(decomp, partition, targets: np.ndarray, k: int) -> np.ndarray:
    """The per-vector route, factoring every system afresh for each target vector.

    One complete QR of the constraint rows gives the kernel basis N;
    the spline is ``V (B^T v + N y)`` with y from one Householder QR solve of
    ``min || D^{1/2} (B^T v + N y) ||`` for this target vector alone.
    """
    B = partitions._cluster_rows(partition, decomp.eigenvectors)
    J = B.shape[0]
    kernel = qr(B.T)[0][:, J:]
    lam = decomp.eigenvalues
    weights = np.where(lam > decomp.default_zero_tol, np.maximum(lam, 0.0), 0.0) ** (k / 2.0)
    feasible = B.T @ targets
    y = np.zeros(kernel.shape[1])
    if y.size:
        factored, tau, _, info = lapack.dgeqrf(weights[:, None] * kernel)
        qt_rhs, _, info = lapack.dormqr("L", "T", factored, tau, -(weights * feasible)[:, None], 1)
        y = lapack.dtrtrs(factored, qt_rhs)[0][: y.size, 0]
    return decomp.eigenvectors @ (feasible + kernel @ y)


@pytest.fixture(scope="module")
def grid100():
    """The 10x10 grid with radius-1 balls: (decomposition, partition)."""
    g = generate_graph("grid2d", 100)
    return eigendecompose(build_laplacian(g)), validate_partition(g, bfs_partition(g, 1))


def fresh_path64():
    """A path64 decomposition that no spline call has seen yet, with its graph and pairs."""
    g = generate_graph("path", 64)
    return g, eigendecompose(build_laplacian(g)), validate_partition(g, pairs_partition(64))


class TestSolveSpline:
    def test_constant_averages_give_constant(self, path16):
        _, d, part = path16
        c = 2.75
        targets = analyze(part, np.full(16, c))
        sol = solve_spline(d, part, targets, 3)
        assert sol.signal == pytest.approx(np.full(16, c), abs=1e-10)
        assert sol.seminorm <= 1e-10

    def test_zero_targets_give_zero(self, path16):
        _, d, part = path16
        sol = solve_spline(d, part, np.zeros(8), 2)
        assert np.max(np.abs(sol.signal)) <= 1e-12

    def test_path4_order1_hand_solution(self, path4):
        # oracle: minimizing (a-b)^2+(b-c)^2+(c-d)^2 with a+b=2, c+d=6 gives
        # u = (2/3, 4/3, 8/3, 10/3), seminorm^2 = 8/3
        _, d, part = path4
        targets = np.array([math.sqrt(2.0) * 1.0, math.sqrt(2.0) * 3.0])
        sol = solve_spline(d, part, targets, 1)
        assert sol.signal == pytest.approx([2 / 3, 4 / 3, 8 / 3, 10 / 3], abs=1e-9)
        assert sol.seminorm ** 2 == pytest.approx(8.0 / 3.0, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_matches_raw_matrix_oracle(self, small_suite, k):
        from avgsampling import build_laplacian

        for name, g, d, part in small_suite:
            L = build_laplacian(g)
            X = dense_indicators(part)
            rng = np.random.Generator(np.random.PCG64(37))
            for _ in range(2):
                targets = rng.standard_normal(part.num_clusters)
                sol = solve_spline(d, part, targets, k)
                oracle = raw_kkt_spline(L, X, targets, k)
                scale = max(1.0, float(np.max(np.abs(oracle))))
                assert np.max(np.abs(sol.signal - oracle)) <= 1e-8 * scale, (name, k)

    def test_achieved_averages_match_targets(self, path64):
        _, d, part = path64
        rng = np.random.Generator(np.random.PCG64(41))
        for k in (1, 2, 4, 8):
            targets = rng.standard_normal(32)
            sol = solve_spline(d, part, targets, k)
            tol = 1e-8 * max(1.0, float(np.linalg.norm(targets)))
            assert np.max(np.abs(analyze(part, sol.signal) - targets)) <= tol
            assert sol.kkt_residual <= 1e-9

    def test_condition_refusal(self, path64):
        _, d, part = path64
        with pytest.raises(NumericalError, match="condition"):
            solve_spline(d, part, np.zeros(32), 16)

    def test_all_singletons_reproduce_the_signal(self, path16):
        # no zero-average signals: the constraints alone fix the spline
        g, d, _ = path16
        singletons = validate_partition(g, [(v,) for v in range(16)])
        f = generate_pw_signal(d, 1.0, 4)
        for k in (1, 2):
            assert interpolate(d, singletons, f, k).signal == pytest.approx(f, abs=1e-12)

    def test_partition_mismatch_refused(self):
        g = generate_graph("path", 8)
        d = eigendecompose(build_laplacian(g))
        blocks = validate_partition(g, blocks_partition(8, 4))
        with pytest.raises(InputError, match="does not match 2 clusters"):
            solve_spline(d, blocks, np.zeros(4), 1)  # targets for the four pairs
        first = validate_partition(g, [(0, 1, 2), (3, 4, 5), (6, 7)])
        equal = validate_partition(g, [(2, 1, 0), (3, 4, 5), (7, 6)])
        assert equal is not first
        targets = np.arange(3.0)
        assert np.array_equal(solve_spline(d, equal, targets, 1).signal, solve_spline(d, first, targets, 1).signal)

    def test_bad_problem_rejected(self, path4):
        _, d, part = path4
        with pytest.raises(InputError, match="positive integer"):
            solve_spline(d, part, np.zeros(2), 0)
        with pytest.raises(InputError, match="does not match 2 clusters"):
            solve_spline(d, part, np.zeros(3), 1)
        with pytest.raises(InputError, match="non-finite"):
            solve_spline(d, part, np.array([np.nan, 0.0]), 1)

    @pytest.mark.parametrize("order", [2.5, 2.0, True, np.bool_(True), "2", None, 0, -1, np.int64(0)])
    def test_non_integral_orders_rejected(self, path4, order):
        _, d, part = path4
        f = np.arange(4.0)
        with pytest.raises(InputError, match="positive integer"):
            solve_spline(d, part, np.zeros(2), order)
        with pytest.raises(InputError, match="positive integer"):
            interpolate(d, part, f, order)

    def test_sweep_rejects_fractional_order(self, path64):
        # a fractional order is refused, not truncated to an order-2 row
        _, d, part = path64
        f = generate_pw_signal(d, 0.5, 21)
        with pytest.raises(InputError, match="positive integer"):
            spline_convergence_experiment(d, part, 0.5, 1.0, f, [1, 2.5])
        with pytest.raises(InputError, match="positive integer"):
            spline_convergence_experiment(d, part, 0.5, 1.0, f, [True])

    def test_numpy_integer_orders_accepted(self, path64):
        _, d, part = path64
        f = generate_pw_signal(d, 0.5, 21)
        sol = solve_spline(d, part, np.zeros(32), np.int64(4))
        assert type(sol.order) is int
        rows = spline_convergence_experiment(d, part, 0.5, 1.0, f, np.array([1, 2, 4], dtype=np.int32))
        assert [type(row.order) for row in rows] == [int] * 3
        assert [row.order for row in rows] == [1, 2, 4]
        assert np.array_equal(interpolate(d, part, f, np.int32(4)).signal, interpolate(d, part, f, 4).signal)

    def test_non_power_of_two_accepted(self, path16):
        _, d, part = path16
        f = generate_pw_signal(d, 0.5, 0)
        sol = interpolate(d, part, f, 3)
        assert np.max(np.abs(analyze(part, sol.signal) - analyze(part, f))) <= 1e-8


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
        assert analyze(part, sol.signal) == pytest.approx(analyze(part, f), abs=1e-10)
        smoothed_f = np.linalg.norm(power(d, 2, f))
        assert sol.seminorm <= smoothed_f + 1e-12

    def test_minimality_against_feasible_perturbations(self, path16):
        _, d, part = path16
        f = generate_pw_signal(d, 1.0, 9)
        k = 2
        sol = interpolate(d, part, f, k)
        targets = analyze(part, f)
        rng = np.random.Generator(np.random.PCG64(43))
        dim = 16 - part.num_clusters
        for _ in range(100):
            h = zero_average(d, part, rng.standard_normal(dim))
            perturbed = sol.signal + h
            assert np.max(np.abs(analyze(part, perturbed) - targets)) <= 1e-9
            assert (
                np.linalg.norm(power(d, k, perturbed))
                >= np.linalg.norm(power(d, k, sol.signal)) - 1e-9
            )

    def test_pythagoras_at_the_solution(self, path16):
        _, d, part = path16
        f = generate_pw_signal(d, 1.0, 10)
        k = 2
        sol = interpolate(d, part, f, k)
        rng = np.random.Generator(np.random.PCG64(47))
        h = zero_average(d, part, rng.standard_normal(16 - part.num_clusters))
        lhs = np.linalg.norm(power(d, k, sol.signal + h)) ** 2
        rhs = sol.seminorm ** 2 + np.linalg.norm(power(d, k, h)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestOrthogonalityCheck:
    def test_solver_output_passes(self, path64):
        _, d, part = path64
        for k in (1, 2, 4, 8):
            sol = interpolate(d, part, generate_pw_signal(d, 0.5, k), k)
            defect, scale = orthogonality_defect(d, part, sol.signal, k)
            assert defect / scale <= 1e-8

    def test_perturbed_solution_fails(self, path64):
        _, d, part = path64
        k = 2
        sol = interpolate(d, part, generate_pw_signal(d, 0.5, 3), k)
        rng = np.random.Generator(np.random.PCG64(53))
        h = zero_average(d, part, rng.standard_normal(32))
        h *= 0.1 / np.linalg.norm(power(d, k, h))
        defect, scale = orthogonality_defect(d, part, sol.signal + h, k)
        assert defect / scale > 1e-4

    def test_constant_passes_for_any_order(self, path16):
        _, d, part = path16
        defect, scale = orthogonality_defect(d, part, np.full(16, 5.0), 6)
        assert defect / scale <= 1e-8
        assert defect <= 1e-9


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
            assert row.proved == (row.order in (1, 2, 4, 8))

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_bit_identical_to_per_order_route(self, path64, grid100, seed):
        # The sweep forms the feasible point once and takes norms as
        # sqrt(x @ x); the per-vector route forms it per order, numpy's norm.
        orders = [1, 2, 3, 4, 8]
        for d, part, omega in [(*path64[1:], 0.5), (*grid100, 0.3)]:
            f = pw_project(d, omega, generate_pw_signal(d, omega, seed))
            targets = analyze(part, f)
            rows = spline_convergence_experiment(d, part, omega, 1.0, f, orders)
            norm = float(np.linalg.norm(f))
            assert [row.rel_error for row in rows] == [
                float(np.linalg.norm(f - reference_spline(d, part, targets, k))) / norm for k in orders]

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_refused(self, path64, bad):
        _, d, part = path64
        f = generate_pw_signal(d, 0.5, 23)
        f[17] = bad
        with pytest.raises(InputError, match="non-finite"):
            spline_convergence_experiment(d, part, 0.5, 1.0, f, [1, 2])

    def test_non_power_of_two_rows_labeled_unproved(self, path64):
        _, d, part = path64
        f = generate_pw_signal(d, 0.5, 6)
        rows = spline_convergence_experiment(d, part, 0.5, 1.0, f, [3, 4])
        assert not rows[0].proved
        assert rows[1].proved


class TestReferenceRoute:
    """The memo keeps factorisations, not products of them, so every spline is the per-vector route, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_matches_per_vector_route_on_path64(self, path64, k):
        _, d, part = path64
        rng = np.random.Generator(np.random.PCG64(61))
        targets = [analyze(part, generate_pw_signal(d, 0.5, k))] + [rng.standard_normal(32) for _ in range(3)]
        for v in targets:
            got = solve_spline(d, part, v, k).signal
            assert np.array_equal(got, reference_spline(d, part, v, k))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_matches_per_vector_route_on_er_suite(self, er_suite, k):
        rng = np.random.Generator(np.random.PCG64(67))
        for g, d, part in er_suite:
            for _ in range(2):
                v = rng.standard_normal(part.num_clusters)
                got = solve_spline(d, part, v, k).signal
                assert np.array_equal(got, reference_spline(d, part, v, k)), (g.n, k)


class TestMemo:
    """Factorisations are memoised per decomposition; results must not depend on it."""

    CALLS = {
        "interpolate": lambda d, p, f: interpolate(d, p, f, 4).signal,
        "solve_spline": lambda d, p, f: solve_spline(d, p, analyze(p, f), 2).signal,
        "sweep": lambda d, p, f: [
            row.rel_error for row in spline_convergence_experiment(d, p, 0.5, 1.0, f, [1, 2, 3, 4, 8])],
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_cold_and_warm_are_bit_identical(self, name):
        _, d, part = fresh_path64()
        f = generate_pw_signal(d, 0.5, 5)
        assert d not in splines._BASES
        cold = self.CALLS[name](d, part, f)
        assert d in splines._BASES
        warm = self.CALLS[name](d, part, f)
        assert np.array_equal(cold, warm)

    def test_alternating_partitions_match_fresh_decompositions(self):
        g, d, pairs = fresh_path64()
        blocks = validate_partition(g, blocks_partition(64, 4))
        f = generate_pw_signal(d, 0.5, 7)
        for part in (pairs, blocks, pairs, blocks):
            for k in (1, 4):
                fresh = eigendecompose(build_laplacian(g))
                assert np.array_equal(interpolate(d, part, f, k).signal, interpolate(fresh, part, f, k).signal)
            assert splines._BASES[d].partition is part

    def test_rebuilt_partition_gets_its_own_entry_and_the_same_bits(self):
        # a partition is equal only to itself, so the memo keys on the object
        g, d, part = fresh_path64()
        f = generate_pw_signal(d, 0.5, 8)
        first = interpolate(d, part, f, 2).signal
        basis = splines._BASES[d]
        rebuilt = validate_partition(g, pairs_partition(64))
        assert rebuilt != part
        assert np.array_equal(interpolate(d, rebuilt, f, 2).signal, first)
        assert splines._BASES[d] is not basis and splines._BASES[d].partition is rebuilt

    def test_condition_refusal_caches_no_factors(self):
        _, d, part = fresh_path64()
        with pytest.raises(NumericalError, match="condition"):
            solve_spline(d, part, np.zeros(32), 16)
        assert splines._BASES[d].factors == {}

    def test_entry_dies_with_its_decomposition(self):
        _, d, part = fresh_path64()
        interpolate(d, part, generate_pw_signal(d, 0.5, 9), 8)
        ref = weakref.ref(d)
        entries = len(splines._BASES)
        del d
        gc.collect()
        assert ref() is None
        assert len(splines._BASES) == entries - 1

    def test_cached_arrays_are_read_only(self):
        _, d, part = fresh_path64()
        spline_convergence_experiment(d, part, 0.5, 1.0, generate_pw_signal(d, 0.5, 11), [1, 2, 8])
        basis = splines._BASES[d]
        assert sorted(basis.factors) == [1, 2, 8]
        arrays = [basis.constraints, basis.kernel,
                  *(a for f in basis.factors.values() for a in (f.weights, f.factored, f.tau))]
        assert [a.shape for a in arrays] == [(32, 64), (64, 32)] + [(64,), (64, 32), (32,)] * 3
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 1.0
