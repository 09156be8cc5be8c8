"""The weight scale carries no meaning: scaling every weight and omega by c changes no result."""
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from avgsampling import (
    FrameIterationConfig,
    NumericalError,
    WeightedGraph,
    analyze,
    bfs_partition,
    build_frame_system,
    build_laplacian,
    dual_frame_reconstruct,
    eigendecompose,
    frame_algorithm,
    generate_graph,
    generate_pw_signal,
    interpolate,
    pairs_partition,
    pw_project,
    solve_spline,
    spline_convergence_experiment,
    validate_partition,
)

ORDERS = (1, 2, 4, 8)
#: Gaps narrower than this fraction of lambda_max are not used as band edges.
MIN_GAP = 1e-6
#: Splines of the two scales differ by at most this many units of roundoff
#: times the order's certified condition bound, relative to their norm.
ROUNDOFF_UNITS = 16


@st.composite
def scaled_graphs(draw, low=1e-9, high=1e9):
    """A connected weighted graph, a scale c in [low, high], and the graph with every weight times c.

    A random tree (each vertex hangs off an earlier one) keeps the graph
    connected; extra edges close cycles.
    """
    n = draw(st.integers(2, 16), label="n")
    weights = st.floats(0.25, 4.0)
    edges = {(draw(st.integers(0, v - 1), label="parent"), v): draw(weights, label="weight") for v in range(1, n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    for pair in draw(st.lists(extra, max_size=n, unique=True), label="extra edges"):
        edges.setdefault(pair, draw(weights, label="weight"))
    c = draw(st.floats(low, high), label="scale")
    graph = WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()])
    scaled = WeightedGraph.from_edges(n, [(u, v, c * w) for (u, v), w in edges.items()])
    return graph, scaled, c


def relative_error(truth: np.ndarray, estimate: np.ndarray) -> float:
    return float(np.linalg.norm(truth - estimate)) / float(np.linalg.norm(truth))


@given(scaled_graphs(), st.integers(1, 2), st.integers(0, 100), st.data())
def test_results_invariant_under_weight_and_bandwidth_scale(graphs, radius, seed, data):
    graph, scaled, c = graphs
    clusters = bfs_partition(graph, radius)
    assert bfs_partition(scaled, radius) == clusters
    parts = [validate_partition(g, clusters) for g in (graph, scaled)]
    decomps = [eigendecompose(build_laplacian(g)) for g in (graph, scaled)]
    lam, scale = decomps[0].eigenvalues, decomps[0].lambda_max
    assert abs(decomps[1].lambda_max - c * scale) <= 1e-12 * c * scale
    gaps = [np.array(part.lambda1s) for part in parts]
    assert np.array_equal(np.isinf(gaps[0]), np.isinf(gaps[1]))
    finite = np.isfinite(gaps[0])
    assert np.max(np.abs(gaps[1][finite] - c * gaps[0][finite]), initial=0.0) <= 1e-12 * c * scale
    lambda_xi = parts[0].lambda_xi

    # omega halfway across a gap of at least MIN_GAP * lambda_max, with at
    # most as many band dimensions as clusters and a frame on that band, so
    # roundoff in the scaled spectrum cannot move an eigenvalue across the
    # band edge. One band dimension (the constants) always qualifies.
    def frame_band(m):
        if lam[m] - lam[m - 1] <= MIN_GAP * scale or m > parts[0].num_clusters:
            return False
        return build_frame_system(decomps[0], parts[0], 0.5 * (lam[m - 1] + lam[m]), 1.0).is_frame

    m = data.draw(st.sampled_from([m for m in range(1, graph.n) if frame_band(m)]), label="band dimension")
    gap = lam[m] - lam[m - 1]
    omega = 0.5 * (lam[m - 1] + lam[m])
    frames = [build_frame_system(d, part, w, 1.0) for d, part, w in zip(decomps, parts, (omega, c * omega))]
    assert frames[0].dim == frames[1].dim == m
    # The band subspace moves by about roundoff * lambda_max / gap.
    drift = 1e-13 * scale / gap
    assert abs(frames[1].lower - frames[0].lower) <= drift
    assert abs(frames[1].upper - frames[0].upper) <= drift
    assert abs(frames[1].gamma - frames[0].gamma) <= 1e-12 * frames[0].gamma * scale / lambda_xi

    a, config = frames[0].lower, FrameIterationConfig()
    f = generate_pw_signal(decomps[0], omega, seed)
    bands = [pw_project(d, w, f) for d, w in zip(decomps, (omega, c * omega))]
    samples = [analyze(part, band) for part, band in zip(parts, bands)]
    dual = [relative_error(band, dual_frame_reconstruct(frame, s).signal)
            for band, frame, s in zip(bands, frames, samples)]
    assert abs(dual[1] - dual[0]) <= 1e-12 / a
    iterative = [frame_algorithm(frame, s, config) for frame, s in zip(frames, samples)]
    assert abs(iterative[1].iterations - iterative[0].iterations) <= 1
    errors = [relative_error(band, result.signal) for band, result in zip(bands, iterative)]
    # Each run stops with a normal-equations residual within tol, so its
    # error is at most tol * b / a.
    assert abs(errors[1] - errors[0]) <= 2.0 * config.tol * frames[0].upper / a + 1e-12 / a


@given(scaled_graphs(1e-150, 1e150), st.integers(1, 2), st.integers(0, 100))
def test_splines_invariant_over_the_double_range(graphs, radius, seed):
    # splines see only L / lambda_max, so no weight scale can overflow or underflow them
    graph, scaled, c = graphs
    clusters = bfs_partition(graph, radius)
    parts = [validate_partition(g, clusters) for g in (graph, scaled)]
    decomps = [eigendecompose(build_laplacian(g)) for g in (graph, scaled)]
    f = np.random.Generator(np.random.PCG64(seed)).standard_normal(graph.n)
    for k in ORDERS:
        splines = []
        for d, part in zip(decomps, parts):
            try:
                splines.append(interpolate(d, part, f, k))
            except NumericalError:
                splines.append(None)
        # both certified bounds are scale-free, so an order refused at one scale is refused at every scale
        assert (splines[0] is None) == (splines[1] is None), k
        if splines[0] is None:
            continue
        condition = splines[0].condition_estimate
        assert math.isclose(splines[1].condition_estimate, condition, rel_tol=1e-9)
        assert all(math.isfinite(spline.kkt_residual) for spline in splines)
        tol = ROUNDOFF_UNITS * np.finfo(float).eps * condition
        assert relative_error(splines[0].signal, splines[1].signal) <= tol


@pytest.mark.parametrize("c", [1e-150, 1e-100, 1e-60, 1e60, 1e100, 1e150])
def test_path64_splines_at_extreme_weight_scales(c):
    # path64 pairs at omega = 0.5 c: every order's bound is below 256, so the
    # rows and the splines match the unscaled run to 1e-12 of the signal's norm
    runs = []
    for scale in (1.0, c):
        graph = WeightedGraph.from_edges(64, [(v, v + 1, scale) for v in range(63)])
        d, part = eigendecompose(build_laplacian(graph)), validate_partition(graph, pairs_partition(64))
        runs.append((d, part, 0.5 * scale))
    f = generate_pw_signal(runs[0][0], 0.5, 7)
    rows = [spline_convergence_experiment(d, part, omega, 1.0, f, [1, 2, 4, 8]) for d, part, omega in runs]
    for row0, row1 in zip(*rows, strict=True):
        assert abs(row1.rel_error - row0.rel_error) <= 1e-12
        assert row1.bound == pytest.approx(row0.bound, rel=1e-12)
        assert (row1.order, row1.within_bound, row1.proved) == (row0.order, row0.within_bound, row0.proved)
    for k in (1, 2, 4, 8):
        splines = [interpolate(d, part, f, k) for d, part, _ in runs]
        assert relative_error(splines[0].signal, splines[1].signal) <= 1e-12
        assert all(math.isfinite(spline.kkt_residual) for spline in splines)


@pytest.fixture(scope="module", params=["path64 pairs", "grid100 bfs:1"])
def signal_scale_setting(request, path64):
    """A decomposition and cover; their frame at the recovery bandwidth (path64 at 0.5, grid100 near critical at
    3.22) and a band signal there; the sweep's bandwidth (grid100's Lambda is 1, so 0.3 keeps gamma < 1) and a
    band signal there."""
    if request.param == "path64 pairs":
        (_, decomp, partition), omega, sweep_omega = path64, 0.5, 0.5
    else:
        graph, omega, sweep_omega = generate_graph("grid2d", 100), 3.22, 0.3
        decomp, partition = eigendecompose(build_laplacian(graph)), validate_partition(graph, bfs_partition(graph, 1))
    frame = build_frame_system(decomp, partition, omega, 1.0)
    return (decomp, partition, frame, generate_pw_signal(decomp, omega, 5),
            sweep_omega, generate_pw_signal(decomp, sweep_omega, 5))


@given(e=st.integers(-400, 400))
@example(e=-400)
@example(e=400)
def test_per_signal_routes_are_exactly_equivariant_under_signal_scale(signal_scale_setting, e):
    # A power of two scales every product exactly while no square leaves the normal range, so a signal scaled
    # by 2**e is recovered, projected and interpolated as the signal itself, times 2**e, with the same steps,
    # residuals and errors. Below about 2**-475 a squared norm is subnormal, so it holds only above that; past
    # 2**400 every route refuses the input (errors._vector), before any squared norm could overflow.
    decomp, partition, frame, signal, sweep_omega, sweep_signal = signal_scale_setting
    c = 2.0 ** e
    samples, targets = analyze(partition, signal), analyze(partition, sweep_signal)
    for route in (frame_algorithm, dual_frame_reconstruct):
        base, scaled = route(frame, samples), route(frame, samples * c)
        assert np.array_equal(scaled.signal, base.signal * c) and np.array_equal(scaled.coefficients, base.coefficients * c)
        assert (scaled.iterations, scaled.residual, scaled.converged) == (base.iterations, base.residual, base.converged)
    assert np.array_equal(pw_project(decomp, frame.omega, signal * c), pw_project(decomp, frame.omega, signal) * c)
    for k in ORDERS:
        base, scaled = solve_spline(decomp, partition, targets, k), solve_spline(decomp, partition, targets * c, k)
        assert np.array_equal(scaled.signal, base.signal * c)
        assert (scaled.kkt_residual, scaled.condition_estimate) == (base.kkt_residual, base.condition_estimate)
    rows = [spline_convergence_experiment(decomp, partition, sweep_omega, 1.0, sweep_signal * x, ORDERS) for x in (1.0, c)]
    assert rows[1] == rows[0]
