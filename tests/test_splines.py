"""Variational splines: exact interpolation, minimality, characterization, rate."""
import gc
import itertools
import math
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, null_space

from avgsampling import (
    InputError,
    NumericalError,
    WeightedGraph,
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
from avgsampling import splines

from conftest import dense_indicators, eigen_kernel, orthogonality_defect, power, power_weights, zero_average

#: Cross-route agreement: a spline and an independent solve of it differ by at
#: most this many units of roundoff times the order's certified condition
#: bound, relative to the spline's norm.
ROUNDOFF_UNITS = 16


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
    """The eigen-coordinate route, factoring every system afresh for each target vector.

    One complete QR of the constraint rows B gives the kernel basis N;
    the spline is ``V (B^T v + N y)`` with y from one Householder QR solve of
    ``min || D^{1/2} (B^T v + N y) ||`` for this target vector alone, where
    D^{1/2} scales each eigen-coordinate by lambda**(k/2).
    """
    B, kernel = eigen_kernel(decomp, partition)
    weights = power_weights(decomp, k)
    feasible = B.T @ targets
    y = np.zeros(kernel.shape[1])
    if y.size:
        factored, tau, _, info = lapack.dgeqrf(weights[:, None] * kernel)
        qt_rhs, _, info = lapack.dormqr("L", "T", factored, tau, -(weights * feasible)[:, None], 1)
        y = lapack.dtrtrs(factored, qt_rhs)[0][: y.size, 0]
    return decomp.eigenvectors @ (feasible + kernel @ y)


def mp_spline(decomp, partition, targets: np.ndarray, k: int, digits: int = 50) -> np.ndarray:
    """Independent oracle at ``digits`` digits: the stationarity system
    [[L^k, X^T], [X, 0]] [u; nu] = [0; targets] on the decomposition's own
    matrix, with X's entries 1/sqrt(size) and the solve in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    n, J = partition.n, partition.num_clusters
    sizes = np.bincount(partition.labels)
    with mpmath.workdps(digits):
        Lk = mpmath.matrix(decomp.matrix.tolist()) ** k
        system = mpmath.zeros(n + J)
        for u in range(n):
            for v in range(n):
                system[u, v] = Lk[u, v]
            j = int(partition.labels[u])
            system[u, n + j] = system[n + j, u] = 1 / mpmath.sqrt(int(sizes[j]))
        solution = mpmath.lu_solve(system, mpmath.matrix([0] * n + [mpmath.mpf(float(t)) for t in targets]))
        return np.array([float(solution[u]) for u in range(n)])


def assert_agrees(solution, oracle: np.ndarray) -> None:
    """``solution`` is within ``ROUNDOFF_UNITS`` eps times its certified condition bound of ``oracle``."""
    tol = ROUNDOFF_UNITS * np.finfo(float).eps * solution.condition_estimate
    assert np.linalg.norm(solution.signal - oracle) <= tol * np.linalg.norm(oracle)


def weak_pair_path64():
    """path64 ``pairs`` whose first pair is joined by weight 1e-9: Lambda = 2e-9,
    so (lambda_max/Lambda)**k is about 2e9 at k=1 and 4e18 at k=2, while
    lambda_min(A_1) is about 0.1 and the true condition of A_k is 30, 200 and
    5.6e3 at k = 2, 4 and 8."""
    g = WeightedGraph.from_edges(64, [(v, v + 1, 1e-9 if v == 0 else 1.0) for v in range(63)])
    return g, eigendecompose(build_laplacian(g)), validate_partition(g, pairs_partition(64))


def bridge_path64():
    """path64 as one cluster whose halves are joined by the edge 31-32 at weight
    1e-9: both certified bounds are about 6.4e10 at k=1 and 4.1e21 at k=2, and
    A_2's least eigenvalue is below its roundoff."""
    g = WeightedGraph.from_edges(64, [(v, v + 1, 1e-9 if v == 31 else 1.0) for v in range(63)])
    return g, eigendecompose(build_laplacian(g)), validate_partition(g, blocks_partition(64, 64))


def dense_condition(graph, decomp, partition, k: int) -> float:
    """cond(Q^T Lhat^k Q), Lhat = L/lambda_max, for an orthonormal basis Q of the
    zero-average signals from scipy's SVD null space of the dense indicators.

    It is the squared ratio of the extreme singular values of
    ``G^(k mod 2) Lhat^(k // 2) Q``, with G the weighted incidence matrix
    scaled so that G^T G = Lhat: an SVD resolves the least one to about eps
    absolute, so the condition to about eps times its square root, where an
    eigensolve of Q^T Lhat^k Q would give only eps times the condition itself.
    """
    Q = null_space(dense_indicators(partition))
    B = np.linalg.matrix_power(decomp.matrix / decomp.lambda_max, k // 2) @ Q
    if k % 2:
        us, vs, ws = graph._edge_arrays
        G = np.zeros((len(ws), graph.n))
        rows, scale = np.arange(len(ws)), np.sqrt(ws / decomp.lambda_max)
        G[rows, us], G[rows, vs] = scale, -scale
        B = G @ B
    singular = np.linalg.svd(B, compute_uv=False)
    return float((singular[0] / singular[-1]) ** 2)


@pytest.fixture(scope="module")
def grid100():
    """The 10x10 grid with radius-1 balls: (decomposition, partition)."""
    g = generate_graph("grid2d", 100)
    return eigendecompose(build_laplacian(g)), validate_partition(g, bfs_partition(g, 1))


def fresh_path64():
    """A path64 decomposition that no spline call has seen yet, with its graph and pairs."""
    g = generate_graph("path", 64)
    return g, eigendecompose(build_laplacian(g)), validate_partition(g, pairs_partition(64))


def fresh_rgg200_bfs2():
    """A random-geometric n=200 decomposition that no spline call has seen yet, with its graph and radius-2
    cover, whose order-8 bound is lambda_min(A_1)**-8 (``_Cardinals.floor``)."""
    g = generate_graph("random-geometric", 200, seed=2)
    return g, eigendecompose(build_laplacian(g)), validate_partition(g, bfs_partition(g, 2))


class TestSolveSpline:
    def test_constant_averages_give_constant(self, path16):
        _, d, part = path16
        c = 2.75
        targets = analyze(part, np.full(16, c))
        sol = solve_spline(d, part, targets, 3)
        assert sol.signal == pytest.approx(np.full(16, c), abs=1e-10)
        assert np.linalg.norm(power(d, 3, sol.signal)) <= 1e-10

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
        assert np.linalg.norm(power(d, 1, sol.signal)) ** 2 == pytest.approx(8.0 / 3.0, rel=1e-9)

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

    def test_condition_refusal(self):
        # refused from the certified bounds alone, order by order
        _, d, part = bridge_path64()
        assert part.lambda_xi == pytest.approx(6.25e-11, rel=1e-3)
        assert solve_spline(d, part, np.ones(1), 1).condition_estimate == d.lambda_max / part.lambda_xi
        for k in (2, 4, 8, 16):
            with pytest.raises(NumericalError, match=r"condition bound .* exceeds 1e\+14"):
                solve_spline(d, part, np.ones(1), k)

    def test_weak_pair_orders_are_solved_by_the_sharper_bound(self):
        # (lambda_max/Lambda)**k is over the limit from k = 2; lambda_min(A_1)**-k is not until k = 16
        g, d, part = weak_pair_path64()
        rng = np.random.Generator(np.random.PCG64(43))
        for k in (2, 4, 8):
            assert (d.lambda_max / part.lambda_xi) ** k > splines.CONDITION_LIMIT
            for v in [np.ones(32), rng.standard_normal(32)]:
                sol = solve_spline(d, part, v, k)
                assert dense_condition(g, d, part, k) <= sol.condition_estimate <= splines.CONDITION_LIMIT
                assert_agrees(sol, reference_spline(d, part, v, k))
        with pytest.raises(NumericalError, match=r"condition bound .* exceeds 1e\+14"):
            solve_spline(d, part, np.ones(32), 16)

    def test_rgg200_bfs2_sweep_is_solved(self):
        # order 8's bound (lambda_max/Lambda)**8 is about 4.9e15, its dense condition about 5.2e7
        g, d, part = fresh_rgg200_bfs2()
        assert (d.lambda_max / part.lambda_xi) ** 8 > splines.CONDITION_LIMIT
        f = generate_pw_signal(d, 0.05, 7)
        rows = spline_convergence_experiment(d, part, 0.05, 1.0, f, [1, 2, 4, 8])
        assert [row.order for row in rows] == [1, 2, 4, 8]
        assert all(row.within_bound for row in rows)
        estimate = interpolate(d, part, f, 8).condition_estimate
        assert dense_condition(g, d, part, 8) <= estimate <= splines.CONDITION_LIMIT

    def test_path128_order8_is_solved(self):
        # the certified bound on path pairs is (lambda_max/2)**k, 256 at most for k=8
        g = generate_graph("path", 128)
        d, part = eigendecompose(build_laplacian(g)), validate_partition(g, pairs_partition(128))
        f = generate_pw_signal(d, 0.5, 7)
        rows = spline_convergence_experiment(d, part, 0.5, 1.0, f, [1, 2, 4, 8])
        assert all(row.within_bound for row in rows)
        assert interpolate(d, part, f, 8).condition_estimate == (d.lambda_max / 2.0) ** 8 <= 256.0

    def test_all_singletons_reproduce_the_signal(self, path16):
        # no zero-average signals: the constraints alone fix the spline, Xi^T v
        # at every order, so no system and no power of L is built even at k = 10**9
        g, d, _ = path16
        singletons = validate_partition(g, [(v,) for v in range(16)][::-1])
        f = generate_pw_signal(d, 1.0, 4)
        first = interpolate(d, singletons, f, 1)
        for k in (1, 2, 10**9):
            spline = interpolate(d, singletons, f, k)
            assert spline.signal.tobytes() == first.signal.tobytes() and np.array_equal(spline.signal, f)
            assert (spline.condition_estimate, spline.kkt_residual) == (1.0, 0.0)
        assert splines._CARDINALS[d].orders[10**9].stationarity.shape == (0, 16)
        row, = spline_convergence_experiment(d, singletons, 1.0, 1.0, f, [10**9 + 1])
        assert (row.rel_error, row.bound, row.within_bound) == (0.0, 0.0, True)

    def test_partition_mismatch_refused(self):
        g = generate_graph("path", 8)
        d = eigendecompose(build_laplacian(g))
        blocks = validate_partition(g, blocks_partition(8, 4))
        with pytest.raises(InputError, match=r"^targets has shape \(4,\), expected \(2,\)$"):
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
        with pytest.raises(InputError, match=r"^targets has shape \(3,\), expected \(2,\)$"):
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
        targets = analyze(part, f)
        sol = solve_spline(d, part, targets, np.int64(4))
        assert np.array_equal(sol.signal, solve_spline(d, part, targets, 4).signal)
        orders = splines._CARDINALS[d].orders
        assert 4 in orders and all(type(k) is int for k in orders)
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
        assert np.linalg.norm(power(d, 2, sol.signal)) <= smoothed_f + 1e-12

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
        rhs = np.linalg.norm(power(d, k, sol.signal)) ** 2 + np.linalg.norm(power(d, k, h)) ** 2
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
    def test_rows_agree_with_the_eigen_route(self, path64, grid100, seed):
        # a row's error moves by at most the distance between the two splines
        orders = [1, 2, 3, 4, 8]
        for d, part, omega in [(*path64[1:], 0.5), (*grid100, 0.3)]:
            f = pw_project(d, omega, generate_pw_signal(d, omega, seed))
            targets = analyze(part, f)
            rows = spline_convergence_experiment(d, part, omega, 1.0, f, orders)
            norm = float(np.linalg.norm(f))
            for row, k in zip(rows, orders, strict=True):
                tol = ROUNDOFF_UNITS * np.finfo(float).eps * (d.lambda_max / part.lambda_xi) ** k
                oracle = float(np.linalg.norm(f - reference_spline(d, part, targets, k))) / norm
                assert abs(row.rel_error - oracle) <= tol

    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_rows_are_the_single_solves(self, path64, grid100, seed):
        # One order's cardinal splines serve both the sweep and interpolate,
        # so a row's error and an order's condition bound agree to the bit.
        orders = (1, 2, 3, 4, 8)
        for d, part, omega in [(*path64[1:], 0.5), (*grid100, 0.3)]:
            f = pw_project(d, omega, generate_pw_signal(d, omega, seed))
            rows = spline_convergence_experiment(d, part, omega, 1.0, f, orders)
            for row, k in zip(rows, orders, strict=True):
                solution = interpolate(d, part, f, k)
                e = f - solution.signal
                assert row.rel_error == math.sqrt(e @ e) / float(np.linalg.norm(f))
                assert solution.condition_estimate == (d.lambda_max / part.lambda_xi) ** k

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

    def test_zero_signal_refused(self, path64):
        _, d, part = path64
        with pytest.raises(InputError, match="^signal is zero$"):
            spline_convergence_experiment(d, part, 0.5, 1.0, np.zeros(64), [1])

    def test_underflowing_signal_refused_as_too_small(self, path64):
        # its squared norm underflows to 0, and it was refused as zero
        _, d, part = path64
        f = generate_pw_signal(d, 0.5, 23) * 2.0 ** -600
        assert f.any() and f.dot(f) == 0.0
        with pytest.raises(InputError, match="^signal is too small: its squared norm underflows to 0$"):
            spline_convergence_experiment(d, part, 0.5, 1.0, f, [1])

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
    """The null-space splines agree with the eigen-coordinate route and with a
    50-digit KKT solve, within ``ROUNDOFF_UNITS`` eps times the certified bound."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_matches_per_vector_route_on_path64(self, path64, k):
        _, d, part = path64
        rng = np.random.Generator(np.random.PCG64(61))
        targets = [analyze(part, generate_pw_signal(d, 0.5, k))] + [rng.standard_normal(32) for _ in range(3)]
        for v in targets:
            assert_agrees(solve_spline(d, part, v, k), reference_spline(d, part, v, k))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_matches_per_vector_route_on_er_suite(self, er_suite, k):
        rng = np.random.Generator(np.random.PCG64(67))
        for g, d, part in er_suite:
            for _ in range(2):
                v = rng.standard_normal(part.num_clusters)
                assert_agrees(solve_spline(d, part, v, k), reference_spline(d, part, v, k))

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("case", ["path8-pairs", "er10-3-clusters"])
    def test_matches_50_digit_kkt_solve(self, case, k):
        if case == "path8-pairs":
            g = generate_graph("path", 8)
            clusters = pairs_partition(8)
        else:
            g = generate_graph("erdos-renyi-weighted", 10, seed=3, p=0.3)
            clusters = bfs_partition(g, 1)
        d, part = eigendecompose(build_laplacian(g)), validate_partition(g, clusters)
        assert part.num_clusters == (4 if case == "path8-pairs" else 3)
        rng = np.random.Generator(np.random.PCG64(71))
        for v in [rng.standard_normal(part.num_clusters) for _ in range(2)]:
            assert_agrees(solve_spline(d, part, v, k), mp_spline(d, part, v, k))


class TestCertificate:
    """The certified bound is at least the dense condition of every order's system it lets through."""

    @staticmethod
    def assert_bounds_condition(g, d, part, orders=(1, 2, 4, 8)):
        for k in orders:
            try:
                estimate = solve_spline(d, part, np.ones(part.num_clusters), k).condition_estimate
            except NumericalError:
                continue
            assert dense_condition(g, d, part, k) <= estimate * (1 + 1e-6), k

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 16), data=st.data())
    def test_random_trees(self, n, data):
        # weights uniform in [0.25, 4] and radius-2 balls, where edges between clusters make the old bound loose
        parents = [data.draw(st.integers(0, v - 1), label="parent") for v in range(1, n)]
        weights = data.draw(st.lists(st.floats(0.25, 4.0), min_size=n - 1, max_size=n - 1), label="weights")
        g = WeightedGraph.from_edges(n, [(u, v, w) for v, (u, w) in enumerate(zip(parents, weights), start=1)])
        self.assert_bounds_condition(g, eigendecompose(build_laplacian(g)), validate_partition(g, bfs_partition(g, 2)))

    @pytest.mark.parametrize("k, condition", [(2, 61.7), (4, 3805.3), (8, 1.448e7)])
    def test_overflowing_ratio_falls_back_to_the_floor(self, k, condition):
        # path4 with its first pair joined by 1e-200: lambda_max/Lambda = 1.5e200, whose k-th power overflows
        g = WeightedGraph.from_edges(4, [(0, 1, 1e-200), (1, 2, 1.0), (2, 3, 1.0)])
        d, part = eigendecompose(build_laplacian(g)), validate_partition(g, pairs_partition(4))
        assert splines._power(d.lambda_max / part.lambda_xi, k) == math.inf
        solution = solve_spline(d, part, np.array([1.0, -2.0]), k)
        assert solution.condition_estimate == (1.0 / splines._CARDINALS[d].floor) ** k
        assert solution.condition_estimate == pytest.approx(condition, rel=1e-3)
        assert solution.kkt_residual < 1e-15
        self.assert_bounds_condition(g, d, part, orders=(k,))

    @pytest.mark.parametrize("kind, n, radius", [("path", 64, None), ("grid2d", 100, 1), ("random-geometric", 1000, 1)])
    def test_bench_covers(self, kind, n, radius):
        g = generate_graph(kind, n, seed=4101)
        clusters = pairs_partition(n) if radius is None else bfs_partition(g, radius)
        self.assert_bounds_condition(g, eigendecompose(build_laplacian(g)), validate_partition(g, clusters))


class TestMemo:
    """Cardinal splines are memoised per decomposition; results must not depend on it."""

    CALLS = {
        "interpolate": lambda d, p, f: interpolate(d, p, f, 4).signal,
        "solve_spline": lambda d, p, f: solve_spline(d, p, analyze(p, f), 2).signal,
        "sweep": lambda d, p, f: [
            row.rel_error for row in spline_convergence_experiment(d, p, 0.5, 1.0, f, [1, 2, 3, 4, 8])],
        # a warm order reads the bound it was built under from the memo
        "conditions": lambda d, p, f: [
            solve_spline(d, p, analyze(p, f), k).condition_estimate for k in (1, 2, 4, 8)],
    }
    COVERS = {"path64": fresh_path64, "rgg200-bfs2": fresh_rgg200_bfs2}

    # the sweep's omega = 0.5 gives gamma >= 1 on rgg200-bfs2
    @pytest.mark.parametrize("name, cover", [
        pytest.param(name, cover, id=name if cover == "path64" else f"{name}-{cover}")
        for name, cover in itertools.product(sorted(CALLS), sorted(COVERS)) if (name, cover) != ("sweep", "rgg200-bfs2")])
    def test_cold_and_warm_are_bit_identical(self, name, cover):
        _, d, part = self.COVERS[cover]()
        f = generate_pw_signal(d, 0.5, 5)
        assert d not in splines._CARDINALS
        cold = self.CALLS[name](d, part, f)
        assert d in splines._CARDINALS
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
            assert splines._CARDINALS[d].partition is part

    def test_rebuilt_partition_gets_its_own_entry_and_the_same_bits(self):
        # a partition is equal only to itself, so the memo keys on the object
        g, d, part = fresh_path64()
        f = generate_pw_signal(d, 0.5, 8)
        first = interpolate(d, part, f, 2).signal
        memo = splines._CARDINALS[d]
        rebuilt = validate_partition(g, pairs_partition(64))
        assert rebuilt != part
        assert np.array_equal(interpolate(d, rebuilt, f, 2).signal, first)
        assert splines._CARDINALS[d] is not memo and splines._CARDINALS[d].partition is rebuilt

    def test_condition_refusal_caches_no_factors(self):
        # every order's bound is checked before anything is built
        _, d, part = bridge_path64()
        f = generate_pw_signal(d, 1e-11, 0)
        with pytest.raises(NumericalError, match="condition"):
            spline_convergence_experiment(d, part, 1e-11, 1.0, f, [1, 2])
        assert d not in splines._CARDINALS
        solve_spline(d, part, np.ones(1), 1)
        with pytest.raises(NumericalError, match="condition"):
            solve_spline(d, part, np.ones(1), 2)
        assert sorted(splines._CARDINALS[d].orders) == [1]
        # with order 1 memoised, order 2's bound is still checked before anything is built
        with pytest.raises(NumericalError, match="condition"):
            spline_convergence_experiment(d, part, 1e-11, 1.0, f, [1, 2])
        assert sorted(splines._CARDINALS[d].orders) == [1]

    def test_indicators_and_contrasts_are_an_orthonormal_basis(self, er_suite):
        for g, d, part in er_suite:
            solve_spline(d, part, np.ones(part.num_clusters), 1)
            memo = splines._CARDINALS[d]
            basis = np.vstack([memo.indicators.toarray(), memo.contrasts.T.toarray()])
            assert np.max(np.abs(basis @ basis.T - np.eye(g.n))) <= 4 * g.n * np.finfo(float).eps

    def test_entry_dies_with_its_decomposition(self):
        _, d, part = fresh_path64()
        interpolate(d, part, generate_pw_signal(d, 0.5, 9), 8)
        ref = weakref.ref(d)
        gc.collect()  # entries other tests left behind die here, not below
        entries = len(splines._CARDINALS)
        del d
        gc.collect()
        assert ref() is None
        assert len(splines._CARDINALS) == entries - 1

    def test_cached_arrays_are_read_only(self):
        _, d, part = fresh_path64()
        spline_convergence_experiment(d, part, 0.5, 1.0, generate_pw_signal(d, 0.5, 11), [1, 2, 8])
        memo = splines._CARDINALS[d]
        assert sorted(memo.orders) == [1, 2, 8]
        matrices = [memo.laplacian, memo.indicators, memo.contrasts,
                    *(m for order in memo.orders.values() for m in (order.splines, order.stationarity))]
        assert [m.shape for m in matrices] == [(64, 64), (32, 64), (64, 32)] + [(64, 32), (32, 64)] * 3
        arrays = [a for m in matrices for a in ((m,) if isinstance(m, np.ndarray) else (m.data, m.indices, m.indptr))]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 1


def sweep_outcome(d, part, omega, alpha, f, orders):
    """A sweep's rows with every float as its hex (so -0.0 is not 0.0), or its refusal's type and message."""
    try:
        rows = spline_convergence_experiment(d, part, omega, alpha, f, orders)
    except (InputError, TypeError) as error:
        return type(error), str(error)
    return [(row.order, float(row.rel_error).hex(), float(row.bound).hex(), row.within_bound, row.proved)
            for row in rows]


class TestSweepPlan:
    """A warm sweep reads the plan its first call checked and built; it refuses what a cold sweep refuses and
    returns the same bits, and the plan is rebuilt for another partition object, orders or omega and alpha."""

    ORDERS = (1, 2, 4, 8)
    # (omega, alpha, orders) after the plan for (0.5, 1.0, ORDERS): Decimal("0.5") and np.int64 orders compare and
    # hash equal to the plan's; alpha = 0.25 gives gamma = 1.25 on path64 pairs (Lambda = 2)
    REFUSED = {
        "bool order": (0.5, 1.0, (True, 2, 4, 8)),
        "Decimal omega": (Decimal("0.5"), 1.0, ORDERS),
        "NaN alpha": (0.5, math.nan, ORDERS),
        "gamma >= 1": (0.5, 0.25, ORDERS),
        "NaN omega": (math.nan, 1.0, ORDERS),
    }
    REBUILT = {
        "Fraction omega": (Fraction(1, 2), 1.0, ORDERS),
        "numpy omega": (np.float64(0.5), 1.0, ORDERS),
        "int alpha": (0.5, 1, ORDERS),
        "other omega": (0.25, 1.0, ORDERS),
        "other orders": (0.5, 1.0, (8, 1, 3)),
    }

    @pytest.mark.parametrize("omega, alpha, orders", REFUSED.values(), ids=REFUSED.keys())
    def test_warm_refuses_what_a_cold_sweep_refuses(self, omega, alpha, orders):
        _, d, part = fresh_path64()
        f = generate_pw_signal(d, 0.5, 3)
        spline_convergence_experiment(d, part, 0.5, 1.0, f, self.ORDERS)
        plan = splines._CARDINALS[d].sweep
        _, cold_d, cold_part = fresh_path64()
        cold = sweep_outcome(cold_d, cold_part, omega, alpha, f, orders)
        assert cold[0] in (InputError, TypeError)
        assert sweep_outcome(d, part, omega, alpha, f, orders) == cold
        assert splines._CARDINALS[d].sweep is plan
        assert cold_d not in splines._CARDINALS  # a refused sweep keeps no plan and builds no order

    @pytest.mark.parametrize("omega, alpha, orders", REBUILT.values(), ids=REBUILT.keys())
    def test_another_key_rebuilds_the_plan_with_the_cold_bits(self, omega, alpha, orders):
        _, d, part = fresh_path64()
        f = generate_pw_signal(d, 0.25, 4)  # in band at both bandwidths
        spline_convergence_experiment(d, part, 0.5, 1.0, f, self.ORDERS)
        plan = splines._CARDINALS[d].sweep
        _, cold_d, cold_part = fresh_path64()
        warm = sweep_outcome(d, part, omega, alpha, f, orders)
        assert isinstance(warm, list) and warm == sweep_outcome(cold_d, cold_part, omega, alpha, f, orders)
        rebuilt = splines._CARDINALS[d].sweep
        assert rebuilt is not plan and rebuilt.key[1:] == (type(omega), repr(omega), type(alpha), repr(alpha))
        assert [row[0] for row in rebuilt.rows] == list(orders)
        assert sweep_outcome(d, part, omega, alpha, f, orders) == warm and splines._CARDINALS[d].sweep is rebuilt

    def test_numpy_orders_reuse_the_plan(self):
        _, d, part = fresh_path64()
        f = generate_pw_signal(d, 0.5, 5)
        cold = sweep_outcome(d, part, 0.5, 1.0, f, self.ORDERS)
        plan = splines._CARDINALS[d].sweep
        for orders in (np.array(self.ORDERS, dtype=np.int64), list(self.ORDERS), (k for k in self.ORDERS)):
            assert sweep_outcome(d, part, 0.5, 1.0, f, orders) == cold
            assert splines._CARDINALS[d].sweep is plan

    def test_signed_zero_bandwidth_keeps_its_sign(self):
        # gamma = -0.0 at omega = -0.0, so the order-1 bound is -0.0, which == 0.0 and hashes alike
        _, d, part = fresh_path64()
        f = np.ones(64)  # the band at omega = 0 holds the constants
        positive = sweep_outcome(d, part, 0.0, 1.0, f, [1, 2])
        negative = sweep_outcome(d, part, -0.0, 1.0, f, [1, 2])
        _, cold_d, cold_part = fresh_path64()
        assert negative == sweep_outcome(cold_d, cold_part, -0.0, 1.0, f, [1, 2])
        assert [row[2] for row in positive] == ["0x0.0p+0"] * 2 and negative[0][2] == "-0x0.0p+0"

    def test_another_partition_object_rebuilds_the_plan(self):
        g, d, part = fresh_path64()
        f = generate_pw_signal(d, 0.5, 6)
        first = sweep_outcome(d, part, 0.5, 1.0, f, self.ORDERS)
        rebuilt = validate_partition(g, pairs_partition(64))
        assert sweep_outcome(d, rebuilt, 0.5, 1.0, f, self.ORDERS) == first
        assert splines._CARDINALS[d].sweep.key[0] is rebuilt
        assert sweep_outcome(d, part, 0.5, 1.0, f, self.ORDERS) == first
        assert splines._CARDINALS[d].sweep.key[0] is part
        assert sweep_outcome(eigendecompose(build_laplacian(g)), part, 0.5, 1.0, f, self.ORDERS) == first
