"""Graph construction, validation, connectivity, gradient seminorm."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgsampling import (
    InputError,
    WeightedGraph,
    as_signal,
    build_laplacian,
    connected_components,
    generate_graph,
    gradient_norm_sq,
    is_connected,
    quadratic_form,
    validate,
)
from avgsampling.graph import ValidationIssue


def raw_weights(graph):
    """The stored weight entries, in storage order, as a dict."""
    return dict(zip(map(tuple, graph._keys.tolist()), graph._values.tolist()))


def reference_issues(raw):
    """Validation as a loop over the raw entries in sorted (u, v) order."""
    issues = []
    for (u, v), w in sorted(raw.items()):
        if not math.isfinite(w):
            issues.append(ValidationIssue("non-finite", u, v, f"w({u},{v})={w}"))
        if w < 0:
            issues.append(ValidationIssue("negative", u, v, f"w({u},{v})={w}"))
        if u == v and w != 0.0:
            issues.append(ValidationIssue("loop", u, v, f"w({u},{u})={w} must be 0"))
        if u < v:
            other = raw.get((v, u), 0.0)
            if other != w:
                issues.append(
                    ValidationIssue("asymmetric", u, v, f"w({u},{v})={w} but w({v},{u})={other}")
                )
    return issues


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

    @given(n=st.integers(1, 12), data=st.data())
    def test_matches_loop_reference(self, n, data):
        """Malformed dicts: one-sided, asymmetric, negative, zero, loop and non-finite entries."""
        keys = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=60, unique=True))
        values = data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.0, 1e-300, np.inf, -np.inf, np.nan])
            | st.floats(allow_nan=True, allow_infinity=True),
            min_size=len(keys), max_size=len(keys)))
        raw = dict(zip(keys, values))
        report = validate(WeightedGraph(n, raw))
        expected = reference_issues(raw)
        assert list(report.issues) == expected
        assert report.ok == (not expected)

    def test_from_edges_rejects_duplicates_and_loops(self):
        with pytest.raises(InputError):
            WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(InputError):
            WeightedGraph.from_edges(3, [(1, 1, 1.0)])
        with pytest.raises(InputError):
            WeightedGraph.from_edges(3, [(0, 1, -0.5)])


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
        assert edges == reference_edges(raw_weights(g))


def reference_init(n, weights):
    """``WeightedGraph(n, weights)`` as a dict comprehension with a range check per entry."""
    if n < 1:
        raise InputError(f"graph needs at least one vertex, got n={n}")
    raw = {(int(u), int(v)): float(w) for (u, v), w in weights.items()}
    for (u, v) in raw:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"weight entry ({u},{v}) out of range for n={n}")
    return raw


def reference_from_edges(n, edges):
    """``WeightedGraph.from_edges`` as a loop over the edges with a set of seen pairs."""
    weights = {}
    seen = set()
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise InputError(f"loop edge ({u},{v}) is not allowed")
        if w < 0:
            raise InputError(f"negative weight {w} on edge ({u},{v})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"duplicate edge ({u},{v})")
        seen.add(key)
        if w != 0.0:
            weights[(u, v)] = w
            weights[(v, u)] = w
    return reference_init(n, weights)


def reference_views(n, raw):
    """Edges, neighbours and degrees as loops over the raw dict; a degree sums
    w(v, u) over the neighbours u, reading (v, u) first."""
    edges = reference_edges(raw)
    neighbors = [sorted({b for a, b, _ in edges if a == v} | {a for a, b, _ in edges if b == v})
                 for v in range(n)]
    weight = lambda u, v: raw[(u, v)] if (u, v) in raw else raw.get((v, u), 0.0)
    degrees = [float(sum(weight(v, u) for u in neighbors[v])) for v in range(n)]
    return edges, neighbors, degrees


def outcome(build, *args):
    try:
        return build(*args)
    except InputError as err:
        return ("InputError", str(err))


def assert_matches_reference(graph, n, raw):
    """Same entries in the same order, and the same views and validation."""
    if isinstance(raw, tuple):  # the reference raised
        assert graph == raw
        return
    assert not isinstance(graph, tuple), graph
    assert repr(list(raw_weights(graph).items())) == repr(list(raw.items()))
    edges, neighbors, degrees = reference_views(n, raw)
    assert repr(graph.edges()) == repr(edges)
    assert graph.num_edges == len(edges)
    assert [graph.neighbors(v) for v in range(n)] == neighbors
    assert repr([graph.degree(v) for v in range(n)]) == repr(degrees)
    assert list(validate(graph).issues) == reference_issues(raw)
    pairs = [(u, v) for u in range(-1, n + 1) for v in range(-1, n + 1)]
    expected = [raw[(u, v)] if (u, v) in raw else raw.get((v, u), 0.0) for u, v in pairs]
    assert repr([graph.weight(u, v) for u, v in pairs]) == repr(expected)


def vertex_ids(n):
    """In-range vertex ids as Python or numpy integers."""
    inside = st.integers(0, max(n, 1) - 1)
    return st.one_of(inside, inside.map(np.int64), inside.map(np.int32))


def stray_ids(n):
    """Out-of-range vertex ids as Python or numpy integers."""
    return st.sampled_from([-2, -1, n, n + 3]).flatmap(lambda k: st.sampled_from([k, np.int64(k)]))


ODD_WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -1e-300, np.nan, np.inf, -np.inf]),
                        st.floats(allow_nan=True, allow_infinity=True))
GOOD_WEIGHTS = st.sampled_from([0.5, 1.0, 2.5, 1e-300]) | st.floats(0.0, 1e6)


@st.composite
def faulty_edges(draw, n):
    """Distinct edges u != v, then up to three faults: an odd weight, a loop,
    an out-of-range id, or a repeat of an edge in either orientation."""
    ids = vertex_ids(n)
    edges = draw(st.lists(st.tuples(ids, ids, GOOD_WEIGHTS).filter(lambda e: e[0] != e[1]),
                          max_size=10, unique_by=lambda e: frozenset((int(e[0]), int(e[1])))))
    for fault in draw(st.lists(st.sampled_from(["weight", "loop", "stray", "repeat"]), max_size=3)):
        if not edges:
            break
        i = draw(st.integers(0, len(edges) - 1))
        u, v, w = edges[i]
        if fault == "weight":
            edges[i] = (u, v, draw(ODD_WEIGHTS))
        elif fault == "loop":
            edges[i] = (u, u, w)
        elif fault == "stray":
            edges[i] = (u, draw(stray_ids(n)), w) if draw(st.booleans()) else (draw(stray_ids(n)), v, w)
        else:
            repeat = draw(st.sampled_from([(u, v, w), (v, u, w), (v, u, 0.0)]))
            edges.insert(draw(st.integers(0, len(edges))), repeat)
    return edges


class TestConstructors:
    @settings(max_examples=300)
    @given(n=st.integers(0, 8), data=st.data())
    def test_from_edges_matches_loop_reference(self, n, data):
        """Loops, negative, zero, -0.0 and NaN weights, repeats in either
        orientation, numpy ids, out-of-range ids, and (E, 3) array input."""
        edges = data.draw(faulty_edges(n))
        if data.draw(st.booleans()):
            edges = np.array(edges, dtype=float).reshape(-1, 3)
        expected = outcome(reference_from_edges, n, edges)
        assert_matches_reference(outcome(WeightedGraph.from_edges, n, edges), n, expected)

    @settings(max_examples=200)
    @given(n=st.integers(0, 8), data=st.data())
    def test_mapping_matches_loop_reference(self, n, data):
        """One-sided, asymmetric and loop entries, odd weights, numpy ids, out-of-range ids."""
        ids = vertex_ids(n)
        weights = data.draw(st.dictionaries(st.tuples(ids, ids), GOOD_WEIGHTS | ODD_WEIGHTS, max_size=16))
        if data.draw(st.integers(0, 2)) == 0:
            weights[(data.draw(ids), data.draw(stray_ids(n)))] = data.draw(GOOD_WEIGHTS)
        expected = outcome(reference_init, n, weights)
        assert_matches_reference(outcome(WeightedGraph, n, weights), n, expected)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_first_repeat_named_among_many(self, seed):
        """Hundreds of repeats of a few pairs, enough for an unstable sort to reorder them."""
        pairs = np.random.default_rng(seed).integers(0, 5, (400, 2))
        edges = [(int(u), int(v), 1.0) for u, v in pairs if u != v]
        expected = outcome(reference_from_edges, 5, edges)
        assert expected[1].startswith("duplicate")
        assert outcome(WeightedGraph.from_edges, 5, edges) == expected
        assert outcome(WeightedGraph.from_edges, 5, np.array(edges)) == expected

    def test_integer_array_and_generator_input(self):
        edges = [(0, 1, 2), (2, 1, 3), (3, 2, 0)]
        for given_edges in (np.array(edges), iter(edges), tuple(edges)):
            g = WeightedGraph.from_edges(4, given_edges)
            assert raw_weights(g) == reference_from_edges(4, edges)
        assert WeightedGraph.from_edges(3, np.empty((0, 3))).num_edges == 0

    def test_weight_reads_each_edge_both_ways(self):
        g = generate_graph("random-geometric", 1000, seed=7)
        assert all(g.weight(u, v) == g.weight(v, u) == w for u, v, w in g.edges())
        assert sum(g.weight(0, v) for v in range(g.n)) == g.degree(0)
        path = generate_graph("path", 3)  # (0, 3) and (1, 0) would share the code 3
        assert path.weight(0, 3) == path.weight(3, 0) == path.weight(-1, 1) == 0.0

    def test_stored_and_derived_arrays_are_read_only(self):
        for g in (WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]),
                  WeightedGraph(3, {(0, 1): 1.0, (1, 0): 1.0, (2, 1): 0.5})):
            g.degree(0)
            g.weight(0, 1)
            arrays = (g._keys, g._values, *g._codes, *g._pairs, *g._adjacency)
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0


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
