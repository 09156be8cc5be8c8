"""Graph construction, validation, induced subgraphs, gradient seminorm."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avgsampling import (
    InputError,
    WeightedGraph,
    as_signal,
    build_laplacian,
    connected_components,
    generate_graph,
    gradient_norm_sq,
    induced_subgraph,
    is_connected,
    quadratic_form,
    restrict_signal,
    validate,
)


class TestValidate:
    def test_single_edge_is_valid(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        assert validate(g).ok

    def test_asymmetric_weights_reported(self):
        g = WeightedGraph(2, {(0, 1): 1.0, (1, 0): 2.0})
        report = validate(g)
        assert not report.ok
        assert any(issue.kind == "asymmetric" for issue in report.issues)

    def test_loop_reported(self):
        g = WeightedGraph(2, {(0, 0): 1.0})
        report = validate(g)
        assert any(issue.kind == "loop" for issue in report.issues)

    def test_negative_weight_reported(self):
        g = WeightedGraph(2, {(0, 1): -1.0, (1, 0): -1.0})
        report = validate(g)
        assert any(issue.kind == "negative" for issue in report.issues)

    def test_from_edges_rejects_duplicates_and_loops(self):
        with pytest.raises(InputError):
            WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(InputError):
            WeightedGraph.from_edges(3, [(1, 1, 1.0)])
        with pytest.raises(InputError):
            WeightedGraph.from_edges(3, [(0, 1, -0.5)])


class TestInducedSubgraph:
    def test_path_prefix_is_single_edge(self):
        g = generate_graph("path", 3)
        sub = induced_subgraph(g, {0, 1})
        assert sub.n == 2
        assert sub.edges() == [(0, 1, 1.0)]

    def test_nonadjacent_pair_has_no_edges(self):
        g = generate_graph("path", 3)
        sub = induced_subgraph(g, {0, 2})
        assert sub.n == 2
        assert sub.num_edges == 0

    def test_full_cluster_is_identity(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        sub = induced_subgraph(g, {0, 1, 2})
        assert sub.edges() == g.edges()

    def test_weights_copied_bit_equal(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 0.1), (1, 2, 0.2 + 1e-16), (2, 3, 7.25)])
        sub = induced_subgraph(g, {1, 2, 3})
        # vertex i of sub is sorted cluster position i: 1->0, 2->1, 3->2
        assert sub.weight(0, 1) == g.weight(1, 2)
        assert sub.weight(1, 2) == g.weight(2, 3)

    def test_errors(self):
        g = generate_graph("path", 3)
        with pytest.raises(InputError):
            induced_subgraph(g, [])
        with pytest.raises(InputError):
            induced_subgraph(g, [0, 5])


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(generate_graph("path", 3))

    def test_isolated_pair_disconnected(self):
        assert not is_connected(WeightedGraph(2, {}))

    def test_single_vertex_connected(self):
        assert is_connected(WeightedGraph(1, {}))

    def test_components(self):
        g = WeightedGraph.from_edges(5, [(0, 1, 1.0), (3, 4, 2.0)])
        assert connected_components(g) == [[0, 1], [2], [3, 4]]

    @given(n=st.integers(1, 30), data=st.data())
    def test_components_match_traversal(self, n, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
        g = WeightedGraph.from_edges(n, [(u, v, 1.0) for u, v in {(min(p), max(p)) for p in pairs if p[0] != p[1]}])
        seen = [False] * n
        expected = []
        for start in range(n):
            if seen[start]:
                continue
            seen[start], comp, stack = True, [start], [start]
            while stack:
                for v in g.neighbors(stack.pop()):
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        stack.append(v)
            expected.append(sorted(comp))
        assert connected_components(g) == expected
        assert is_connected(g) == (len(expected) == 1)


def reference_edges(weights):
    """Edge views as a loop over the raw entries: each unordered pair read
    through its (min, max) orientation when present, loops and zeros dropped."""
    out = []
    for u, v in sorted({(min(u, v), max(u, v)) for (u, v) in weights}):
        w = weights.get((u, v), weights.get((v, u), 0.0))
        if u != v and w != 0.0:
            out.append((u, v, w))
    return out


class TestEdgeViews:
    @given(n=st.integers(1, 12), data=st.data())
    def test_edges_match_loop_reference(self, n, data):
        """Asymmetric, one-sided, zero and loop entries included."""
        keys = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=50, unique=True))
        values = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 1e-300]),
                                    min_size=len(keys), max_size=len(keys)))
        weights = dict(zip(keys, values))
        g = WeightedGraph(n, weights)
        expected = reference_edges(weights)
        assert g.edges() == expected
        assert g.num_edges == len(expected)
        for v in range(n):
            assert g.neighbors(v) == sorted({b for a, b, _ in expected if a == v} | {a for a, b, _ in expected if b == v})

    def test_generated_graph_edges_sorted(self):
        g = generate_graph("random-geometric", 200, seed=3)
        edges = g.edges()
        assert edges == sorted(edges)
        assert edges == reference_edges(g.raw_weights())


class TestGradientNorm:
    def test_single_edge(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        assert gradient_norm_sq(g, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=0)

    def test_constant_vanishes(self):
        g = generate_graph("erdos-renyi-weighted", 10, seed=5, p=0.5)
        assert gradient_norm_sq(g, np.full(10, 3.7)) == pytest.approx(0.0, abs=1e-12)

    def test_path4_hand_sum(self):
        # edges (0,1),(1,2),(2,3): (2-1)^2 + (4-2)^2 + (8-4)^2 = 21
        g = generate_graph("path", 4)
        assert gradient_norm_sq(g, np.array([1.0, 2.0, 4.0, 8.0])) == pytest.approx(21.0, abs=1e-12)

    def test_length_mismatch(self):
        g = generate_graph("path", 4)
        with pytest.raises(InputError):
            gradient_norm_sq(g, np.zeros(3))

    def test_zero_iff_constant_per_component(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        f = np.array([5.0, 5.0, -2.0, -2.0])
        assert gradient_norm_sq(g, f) == 0.0
        f[1] += 1e-3
        assert gradient_norm_sq(g, f) > 0.0

    @given(n=st.integers(3, 10), seed=st.integers(0, 50), c=st.floats(-8, 8), shift=st.floats(-5, 5))
    def test_scaling_and_shift_invariance(self, n, seed, c, shift):
        g = generate_graph("erdos-renyi-weighted", n, seed=seed, p=0.6)
        f = np.random.Generator(np.random.PCG64(seed + 1)).standard_normal(n)
        base = gradient_norm_sq(g, f)
        assert gradient_norm_sq(g, c * f) == pytest.approx(c * c * base, rel=1e-12, abs=1e-12)
        assert gradient_norm_sq(g, f + shift) == pytest.approx(base, rel=1e-9, abs=1e-9)

    @given(n=st.integers(2, 12), seed=st.integers(0, 50))
    def test_matches_laplacian_quadratic_form(self, n, seed):
        g = generate_graph("erdos-renyi-weighted", n, seed=seed, p=0.5)
        f = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
        grad2 = gradient_norm_sq(g, f)
        form = quadratic_form(build_laplacian(g), f)
        assert abs(form - grad2) <= 1e-9 * max(1.0, grad2)


class TestSignals:
    def test_as_signal_checks(self):
        g = generate_graph("path", 3)
        with pytest.raises(InputError):
            as_signal(g, [1.0, 2.0])
        with pytest.raises(InputError):
            as_signal(g, [1.0, np.nan, 2.0])
        out = as_signal(g, [1, 2, 3])
        assert out.dtype == float

    def test_restrict_signal_order_matches_induced(self):
        f = np.array([10.0, 11.0, 12.0, 13.0])
        assert restrict_signal(f, [3, 1]).tolist() == [11.0, 13.0]
