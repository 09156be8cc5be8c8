"""Laplacian assembly, LAPACK eigendecomposition, band filters, smoothness powers."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avgsampling import (
    InputError,
    SpectralDecomposition,
    WeightedGraph,
    analyze,
    bfs_partition,
    build_frame_system,
    build_laplacian,
    dual_frame_reconstruct,
    eigendecompose,
    generate_graph,
    generate_pw_signal,
    pairs_partition,
    pw_project,
    pw_space,
    spline_convergence_experiment,
    validate_partition,
)

from conftest import gradient_sq, power, weight_matrix


def path_eigenvalues(n: int) -> np.ndarray:
    return 2.0 - 2.0 * np.cos(np.arange(n) * np.pi / n)


class TestBuildLaplacian:
    def test_single_edge_matrix(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 0.7)])
        L = build_laplacian(g)
        assert np.array_equal(L, np.array([[0.7, -0.7], [-0.7, 0.7]]))

    def test_single_edge_eigenvalues(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        d = eigendecompose(build_laplacian(g))
        assert d.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_edgeless_graph_zero_matrix(self):
        g = WeightedGraph.from_edges(2, [])
        assert np.array_equal(build_laplacian(g), np.zeros((2, 2)))

    def test_row_sums_and_entries(self):
        g = generate_graph("erdos-renyi-weighted", 12, seed=9, p=0.4)
        L = build_laplacian(g)
        assert np.max(np.abs(L.sum(axis=1))) <= 1e-12
        for u, v, w in g.edges():
            assert L[u, v] == -w
        for v in range(g.n):
            degree = sum(w for a, b, w in g.edges() if v in (a, b))
            assert L[v, v] == pytest.approx(degree, rel=1e-12)

    @pytest.mark.parametrize("kind, n, seed, p", [
        ("erdos-renyi-weighted", 60, 3, 0.3), ("erdos-renyi-weighted", 200, 4, 0.5), ("random-geometric", 1000, 5, None)])
    def test_bits_of_degrees_minus_weights(self, kind, n, seed, p):
        g = generate_graph(kind, n, seed=seed, **({"p": p} if p else {}))
        W = weight_matrix(g)
        L, expected = build_laplacian(g), np.diag(W.sum(axis=1)) - W
        assert np.array_equal(L, expected)
        assert np.array_equal(np.signbit(L), np.signbit(expected))

    def test_isolated_vertex_degree_is_positive_zero(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 0.3), (1, 2, 1e-300)])
        W = weight_matrix(g)
        L = build_laplacian(g)
        assert repr(L.tolist()) == repr((np.diag(W.sum(axis=1)) - W).tolist())
        assert not np.signbit(L[3, 3])

    def test_peak_memory_is_one_matrix(self):
        g = generate_graph("grid2d", 1024)
        tracemalloc.start()
        try:
            build_laplacian(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * g.n ** 2

    def test_dense_read_only_matrix_and_its_form(self):
        L = build_laplacian(generate_graph("path", 3))
        assert type(L) is np.ndarray and not L.flags.writeable
        f = np.array([0.0, 1.0, 3.0])
        assert f @ (L @ f) == 5.0


class TestEigendecompose:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_path_eigenvalues_match_cos_formula(self, n):
        d = eigendecompose(build_laplacian(generate_graph("path", n)))
        assert np.max(np.abs(d.eigenvalues - path_eigenvalues(n))) <= 1e-9
        assert d.eigenvalues[0] >= -1e-10
        assert d.eigenvalues[-1] <= 4.0 + 1e-10

    def test_path4_closed_forms(self):
        d = eigendecompose(build_laplacian(generate_graph("path", 4)))
        expected = [0.0, 2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
        assert d.eigenvalues == pytest.approx(expected, abs=1e-12)

    def test_disjoint_edges_block_spectrum(self):
        g = WeightedGraph.from_edges(6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
        d = eigendecompose(build_laplacian(g))
        assert d.eigenvalues == pytest.approx([0, 0, 0, 2, 2, 2], abs=1e-12)

    def test_invariants(self, path64):
        _, d, _ = path64
        n = d.n
        L = build_laplacian(generate_graph("path", n))
        resid = np.max(np.abs(L @ d.eigenvectors - d.eigenvectors * d.eigenvalues))
        assert resid <= 1e-9 * max(1.0, d.lambda_max)
        gram = d.eigenvectors.T @ d.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
        assert d.eigenvalues[0] <= 1e-10
        assert np.all(np.diff(d.eigenvalues) >= -1e-12)

    def test_deterministic_and_sign_convention(self):
        g = generate_graph("erdos-renyi-weighted", 10, seed=2, p=0.5)
        L = build_laplacian(g)
        d1 = eigendecompose(L)
        d2 = eigendecompose(L)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
        for j in range(d1.n):
            col = d1.eigenvectors[:, j]
            lead = col[np.abs(col) > 1e-12 * np.max(np.abs(col))][0]
            assert lead > 0

    def test_equality_and_hash_by_identity(self):
        # equal arrays do not make equal decompositions: equality and hashing go by
        # identity, so a decomposition can key a cache
        L = build_laplacian(generate_graph("path", 6))
        d1, d2 = eigendecompose(L), eigendecompose(L)
        assert d1 == d1
        assert d1 != d2
        assert hash(d1) == hash(d1)
        assert {d1: 1, d2: 2}[d2] == 2

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InputError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(3)
        m[1, 1] = bad
        with pytest.raises(InputError, match="non-finite"):
            eigendecompose(m)

    def test_diagonal_matrix_sorted_with_positive_lead(self):
        d = eigendecompose(np.diag([3.0, 1.0, 2.0]))
        assert d.eigenvalues.tolist() == [1.0, 2.0, 3.0]
        assert np.array_equal(d.eigenvectors, np.eye(3)[:, [1, 2, 0]])


class TestLambda1:
    """The spectral gap of a connected graph is its second eigenvalue."""

    def test_single_edge(self):
        d = eigendecompose(build_laplacian(WeightedGraph.from_edges(2, [(0, 1, 1.0)])))
        assert d.eigenvalues[1] == pytest.approx(2.0, abs=1e-12)

    def test_path4(self):
        d = eigendecompose(build_laplacian(generate_graph("path", 4)))
        assert d.eigenvalues[1] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)

    def test_triangle(self):
        # brute-force oracle: eigenvalues of [[2,-1,-1],[-1,2,-1],[-1,-1,2]] are {0, 3, 3}
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        d = eigendecompose(build_laplacian(g))
        assert d.eigenvalues[1] == pytest.approx(3.0, abs=1e-12)


class TestBandFilters:
    def test_eigenvector_in_band_unchanged(self, path16):
        _, d, _ = path16
        f = d.eigenvectors[:, 2].copy()
        out = pw_project(d, d.eigenvalues[2], f)
        assert out == pytest.approx(f, abs=1e-12)

    def test_eigenvector_out_of_band_zeroed(self, path16):
        _, d, _ = path16
        f = d.eigenvectors[:, 5].copy()
        out = pw_project(d, d.eigenvalues[4], f)
        assert np.max(np.abs(out)) <= 1e-12

    def test_full_band_identity(self, path16):
        _, d, _ = path16
        f = np.random.Generator(np.random.PCG64(0)).standard_normal(16)
        assert pw_project(d, d.lambda_max + 1.0, f) == pytest.approx(f, abs=1e-12)

    def test_idempotent_and_self_adjoint(self, path16):
        _, d, _ = path16
        rng = np.random.Generator(np.random.PCG64(1))
        f, g = rng.standard_normal((2, 16))
        pf = pw_project(d, 1.0, f)
        assert pw_project(d, 1.0, pf) == pytest.approx(pf, abs=1e-12)
        assert f @ pw_project(d, 1.0, g) == pytest.approx(pf @ g, abs=1e-10)

    def test_band_includes_roundoff_equal_eigenvalue(self, path16):
        _, d, _ = path16
        omega = float(d.eigenvalues[3])
        assert pw_space(d, omega).dim == 4

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    def test_band_dim_invariant_under_weight_scale(self, scale):
        # 12-cycle spectrum 2 - 2cos(2 pi k / 12): 0, 2 - sqrt(3) (x2), 1 (x2), ...
        g = WeightedGraph.from_edges(12, [(i, (i + 1) % 12, scale) for i in range(12)])
        d = eigendecompose(build_laplacian(g))
        assert pw_space(d, scale).dim == 5

    def test_negative_bandwidth_rejected(self, path16):
        _, d, _ = path16
        with pytest.raises(InputError):
            pw_space(d, -0.1)

    def test_nan_bandwidth_rejected(self, path16):
        # NaN once passed the sign test and gave an empty band, a numerical failure
        _, d, _ = path16
        with pytest.raises(InputError, match="bandwidth must be nonnegative"):
            pw_space(d, math.nan)
        with pytest.raises(InputError, match="bandwidth must be nonnegative"):
            pw_project(d, math.nan, np.ones(16))


class TestApplyPower:
    """L^{s/2} applied through the eigenvalue weights ``_power_weights``."""

    def test_eigen_relation(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        d = eigendecompose(build_laplacian(g))
        f = d.eigenvectors[:, 1].copy()  # eigenvalue 2
        assert power(d, 2, f) == pytest.approx(2.0 * f, abs=1e-12)

    def test_half_power_norm_matches_gradient(self, path16):
        g, d, _ = path16
        f = np.random.Generator(np.random.PCG64(4)).standard_normal(16)
        half = power(d, 1, f)
        grad2 = gradient_sq(g, f)
        assert float(half @ half) == pytest.approx(grad2, rel=1e-9)

    @pytest.mark.parametrize("kind,n", [("path", 64), ("cycle", 30), ("path", 7)])
    def test_constant_is_annihilated(self, kind, n):
        # roundoff kernel eigenvalues (about 1e-16) are pinned to 0, not raised to a power
        d = eigendecompose(build_laplacian(generate_graph(kind, n)))
        for s in (1, 2, 3):
            assert np.linalg.norm(power(d, s, np.full(n, 1.0 / math.sqrt(n)))) <= 1e-13


class TestSpectralInequalities:
    @given(seed=st.integers(0, 100), s=st.sampled_from([1, 2, 3, 4]))
    def test_bandlimited_power_bound(self, seed, s):
        g = generate_graph("path", 16)
        d = eigendecompose(build_laplacian(g))
        omega = 1.0
        f = generate_pw_signal(d, omega, seed)
        out = power(d, s, f)
        assert np.linalg.norm(out) <= omega ** (s / 2.0) * np.linalg.norm(f) + 1e-9

    def test_mean_deviation_bound(self, path64):
        """Deviation from the mean is controlled by the gradient over the spectral gap."""
        g, d, _ = path64
        gap = d.eigenvalues[1]
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            f = rng.standard_normal(64)
            dev = f - f.mean()
            lhs = float(dev @ dev)
            rhs = gradient_sq(g, f) / gap
            assert lhs <= rhs + 1e-9 * max(1.0, lhs)

    def test_mean_deviation_equality_for_gap_eigenvector(self, path64):
        g, d, _ = path64
        f = d.eigenvectors[:, 1].copy()
        lhs = float((f - f.mean()) @ (f - f.mean()))
        rhs = gradient_sq(g, f) / d.eigenvalues[1]
        assert lhs == pytest.approx(rhs, rel=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_operator_power_lower_bound(self, path64, k):
        """Mean-zero signals: norm(f) <= gap**(-k/2) * norm(L^{k/2} f) for k = 2^l."""
        g, d, _ = path64
        a = d.eigenvalues[1] ** -0.5
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(5):
            f = rng.standard_normal(64)
            f -= f.mean()
            powered = power(d, k, f)
            assert np.linalg.norm(f) <= a ** k * np.linalg.norm(powered) + 1e-9

    def test_path_spectrum_inside_0_4(self):
        for n in (4, 16, 64, 65):
            d = eigendecompose(build_laplacian(generate_graph("path", n)))
            assert d.eigenvalues[0] >= -1e-10
            assert d.eigenvalues[-1] <= 4.0 + 1e-10


def rotated_within_eigenspaces(decomp, seed):
    """The same eigenvalues with each group of eigenvectors whose eigenvalues
    agree within 1e-9 * lambda_max turned by a seeded random orthogonal
    matrix, and the number of groups turned."""
    values, vectors = decomp.eigenvalues, decomp.eigenvectors.copy()
    groups = np.split(np.arange(decomp.n), np.flatnonzero(np.diff(values) > 1e-9 * decomp.lambda_max) + 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    turned = 0
    for group in groups:
        if len(group) > 1:
            q, r = np.linalg.qr(rng.standard_normal((len(group), len(group))))
            vectors[:, group] = vectors[:, group] @ (q * np.sign(np.diag(r)))
            turned += 1
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors), turned


class TestSolverIndependence:
    """What the eigensolver may choose (the basis inside a repeated
    eigenvalue) must not change a result, and what it must deliver
    (residuals and orthogonality near roundoff) is checked at n=400."""

    @pytest.mark.parametrize("kind, n, omega, alpha", [
        ("cycle", 12, 1.0, 2.0),  # pairs; in band: 0 and two double eigenvalues
        ("grid2d", 100, 0.9, 20.0),  # bfs:1; in band: 11 of 100 eigenvalues, 4 double ones
    ])
    def test_results_invariant_under_eigenbasis_rotation(self, kind, n, omega, alpha):
        graph = generate_graph(kind, n)
        partition = validate_partition(graph, pairs_partition(n) if kind == "cycle" else bfs_partition(graph, 1))
        decomp = eigendecompose(build_laplacian(graph))
        turned, count = rotated_within_eigenspaces(decomp, seed=3)
        assert count >= 2
        f = pw_project(decomp, omega, np.random.Generator(np.random.PCG64(1)).standard_normal(n))
        f /= np.linalg.norm(f)

        assert pw_space(turned, omega).dim == pw_space(decomp, omega).dim
        assert np.max(np.abs(pw_project(turned, omega, f) - f)) <= 1e-12
        frames = [build_frame_system(d, partition, omega, alpha) for d in (decomp, turned)]
        assert frames[0].lower > 0.1
        assert frames[1].lower == pytest.approx(frames[0].lower, rel=1e-12)
        assert frames[1].upper == pytest.approx(frames[0].upper, rel=1e-12)
        recovered = [dual_frame_reconstruct(frame, analyze(partition, f)).signal for frame in frames]
        assert np.max(np.abs(recovered[0] - f)) <= 1e-12
        assert np.max(np.abs(recovered[1] - recovered[0])) <= 1e-12
        rows = [spline_convergence_experiment(d, partition, omega, alpha, f, [1, 2, 4, 8]) for d in (decomp, turned)]
        assert [row.rel_error for row in rows[1]] == pytest.approx([row.rel_error for row in rows[0]], abs=1e-12)

    @pytest.mark.parametrize("kind", ["grid2d", "cycle", "random-geometric"])
    def test_residual_and_orthogonality_at_n400(self, kind):
        L = build_laplacian(generate_graph(kind, 400))
        d = eigendecompose(L)
        V = d.eigenvectors
        assert np.max(np.abs(L @ V - V * d.eigenvalues)) <= 1e-13 * np.linalg.norm(L, 2)
        assert np.max(np.abs(V.T @ V - np.eye(400))) <= 1e-13
