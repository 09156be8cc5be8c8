"""Vertex labels carry no meaning: relabelling a graph and its clusters changes no result."""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from avgsampling import (
    WeightedGraph,
    analyze,
    bfs_partition,
    build_frame_system,
    build_laplacian,
    dual_frame_reconstruct,
    eigendecompose,
    generate_pw_signal,
    interpolate,
    optimal_alpha,
    spline_convergence_experiment,
    validate_partition,
)

ORDERS = (1, 2, 4)


@st.composite
def relabelled_graphs(draw):
    """A connected weighted graph, a vertex permutation, and the graph relabelled by it.

    A random tree (each vertex hangs off an earlier one) keeps the graph
    connected; extra edges close cycles.
    """
    n = draw(st.integers(2, 16), label="n")
    weights = st.floats(0.25, 4.0)
    edges = {(draw(st.integers(0, v - 1), label="parent"), v): draw(weights, label="weight") for v in range(1, n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    for pair in draw(st.lists(extra, max_size=n, unique=True), label="extra edges"):
        edges.setdefault(pair, draw(weights, label="weight"))
    perm = np.array(draw(st.permutations(range(n)), label="relabelling"))
    graph = WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()])
    relabelled = WeightedGraph.from_edges(n, [(perm[u], perm[v], w) for (u, v), w in edges.items()])
    return graph, relabelled, perm


@given(relabelled_graphs(), st.integers(1, 2), st.integers(0, 100))
def test_results_invariant_under_relabelling(graphs, radius, seed):
    graph, relabelled, perm = graphs
    n = graph.n
    clusters = bfs_partition(graph, radius)
    parts = [validate_partition(graph, clusters),
             validate_partition(relabelled, [[perm[v] for v in cluster] for cluster in clusters])]
    decomps = [eigendecompose(build_laplacian(g)) for g in (graph, relabelled)]
    # Every eigenvalue and cluster gap is at most twice the largest weighted degree.
    scale = max(d.lambda_max for d in decomps)
    gaps = [np.array(part.lambda1s) for part in parts]
    assert np.array_equal(np.isinf(gaps[0]), np.isinf(gaps[1]))
    finite = np.isfinite(gaps[0])
    assert np.max(np.abs(gaps[1][finite] - gaps[0][finite]), initial=0.0) <= 1e-12 * scale
    lambda_xi = parts[0].lambda_xi
    assert abs(parts[1].lambda_xi - lambda_xi) <= 1e-12 * scale

    # A bandwidth halfway between two eigenvalues, below Lambda, so gamma < 1
    # and no eigenvalue sits near the band edge.
    lam = decomps[0].eigenvalues
    m = int(np.sum(lam <= 0.5 * lambda_xi))
    omega = 0.5 * (lam[m - 1] + min(lam[m] if m < n else lambda_xi, lambda_xi))
    alpha, _ = optimal_alpha(omega, lambda_xi)
    frames = [build_frame_system(d, part, omega, alpha) for d, part in zip(decomps, parts)]
    assert frames[0].dim == frames[1].dim == m
    assert abs(frames[1].lower - frames[0].lower) <= 1e-12
    assert abs(frames[1].upper - frames[0].upper) <= 1e-12

    f = generate_pw_signal(decomps[0], omega, seed)
    moved = np.empty(n)
    moved[perm] = f
    norm = float(np.linalg.norm(f))
    samples = [analyze(part, signal) for part, signal in zip(parts, (f, moved))]
    assert np.max(np.abs(samples[1] - samples[0])) <= 1e-14 * np.sum(np.abs(f))
    recovered = [dual_frame_reconstruct(frame, s).signal for frame, s in zip(frames, samples)]
    assert np.max(np.abs(recovered[1][perm] - recovered[0])) <= 1e-12 * norm / frames[0].lower
    errors = [np.linalg.norm(r - signal) / norm for r, signal in zip(recovered, (f, moved))]
    assert abs(errors[1] - errors[0]) <= 1e-12 / frames[0].lower

    rows = [spline_convergence_experiment(d, part, omega, alpha, signal, ORDERS)
            for d, part, signal in zip(decomps, parts, (f, moved))]
    for k, row0, row1 in zip(ORDERS, *rows):
        condition = interpolate(decomps[0], parts[0], f, k).condition_estimate
        assert abs(row1.rel_error - row0.rel_error) <= 1e-13 * condition
