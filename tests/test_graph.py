"""Graph construction and connectivity."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avgsampling import (
    InputError,
    WeightedGraph,
    generate_graph,
    build_laplacian,
    is_connected,
    validate,
)
from avgsampling import generators
from avgsampling.fileio import read_edge_list
from avgsampling.graph import MAX_VERTICES, _adjacency, _components
from conftest import gradient_sq


def component_sets(graph: WeightedGraph) -> list[list[int]]:
    """The vertex sets ``_components`` labels, each sorted, ordered by least vertex."""
    count, labels = _components(graph.n, *graph._edge_arrays[:2])
    comps = [np.flatnonzero(labels == c).tolist() for c in range(count)]
    assert all(comps), "a component index labels no vertex"
    return sorted(comps)


class TestValidate:
    def test_single_edge_is_valid(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        assert validate(g).ok

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
        assert not is_connected(WeightedGraph.from_edges(2, []))

    def test_single_vertex_connected(self):
        assert is_connected(WeightedGraph.from_edges(1, []))

    def test_components(self):
        g = WeightedGraph.from_edges(5, [(0, 1, 1.0), (3, 4, 2.0)])
        assert component_sets(g) == [[0, 1], [2], [3, 4]]

    @given(n=st.integers(1, 30), data=st.data())
    def test_components_match_traversal(self, n, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
        g = WeightedGraph.from_edges(n, [(u, v, 1.0) for u, v in {(min(p), max(p)) for p in pairs if p[0] != p[1]}])
        neighbors = [[] for _ in range(n)]
        for u, v, _ in g.edges():
            neighbors[u].append(v)
            neighbors[v].append(u)
        seen = [False] * n
        expected = []
        for start in range(n):
            if seen[start]:
                continue
            seen[start], comp, stack = True, [start], [start]
            while stack:
                for v in neighbors[stack.pop()]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        stack.append(v)
            expected.append(sorted(comp))
        assert component_sets(g) == expected
        assert is_connected(g) == (len(expected) == 1)


class TestEdgeViews:
    def test_generated_graph_edges_sorted(self):
        g = generate_graph("random-geometric", 200, seed=3)
        edges = g.edges()
        assert edges == sorted(edges)
        assert all(u < v and w == 1.0 for u, v, w in edges)
        assert WeightedGraph.from_edges(g.n, reversed(edges)).edges() == edges


def reference_from_edges(n, edges):
    """``WeightedGraph.from_edges`` as a loop over the edges with a set of seen
    pairs: the stored (u, v, w) with u < v, sorted, zero weights dropped.
    Float ids must be whole numbers; an out-of-range one is compared exactly."""
    if n < 1:
        raise InputError(f"n must be a positive integer, got {n}")
    kept, seen = [], set()
    for u, v, w in edges:
        if any(isinstance(x, (float, np.floating)) and not float(x).is_integer() for x in (u, v)):
            raise InputError(f"edge ({float(u)},{float(v)}) has a non-integer vertex id")
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise InputError(f"loop edge ({u},{v}) is not allowed")
        if not math.isfinite(w):
            raise InputError(f"non-finite weight {w} on edge ({u},{v})")
        if w < 0:
            raise InputError(f"negative weight {w} on edge ({u},{v})")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise InputError(f"duplicate edge ({u},{v})")
        seen.add(pair)
        if w != 0.0:
            kept.append((*pair, w))
    return sorted(kept)


def reference_views(n, edges):
    """CSR ``indptr`` and ``indices`` (neighbours ascending) and the dense
    weight matrix (nested lists), as loops over the stored edges."""
    neighbors = [sorted([b for a, b, _ in edges if a == v] + [a for a, b, _ in edges if b == v])
                 for v in range(n)]
    indptr = [0]
    for nbrs in neighbors:
        indptr.append(indptr[-1] + len(nbrs))
    matrix = [[0.0] * n for _ in range(n)]
    for u, v, w in edges:
        matrix[u][v] = matrix[v][u] = w
    return indptr, [v for nbrs in neighbors for v in nbrs], matrix


def outcome(build, *args):
    try:
        return build(*args)
    except InputError as err:
        return ("InputError", str(err))


def assert_matches_reference(graph, n, expected):
    """Same stored edges in the same order, the same views, and the Laplacian
    of the reference weight matrix W, ``diag(W.sum(axis=1)) - W``, to the bit."""
    if isinstance(expected, tuple):  # the reference raised
        assert graph == expected
        return
    assert not isinstance(graph, tuple), graph
    us, vs, ws = graph._edge_arrays
    assert (us.dtype, vs.dtype, ws.dtype) == (np.intp, np.intp, np.float64)
    assert repr(list(zip(us.tolist(), vs.tolist(), ws.tolist()))) == repr(expected)
    assert repr(graph.edges()) == repr(expected)
    assert graph.n == n and graph.num_edges == len(expected)
    indptr, indices, matrix = reference_views(n, expected)
    assert [arr.tolist() for arr in _adjacency(graph)] == [indptr, indices]
    W = np.array(matrix, dtype=float).reshape(n, n)
    assert repr(build_laplacian(graph).tolist()) == repr((np.diag(W.sum(axis=1)) - W).tolist())


def vertex_ids(n):
    """In-range vertex ids as Python or numpy integers."""
    inside = st.integers(0, max(n, 1) - 1)
    return st.one_of(inside, inside.map(np.int64), inside.map(np.int32))


def stray_ids(n):
    """Out-of-range vertex ids as Python or numpy integers."""
    return st.sampled_from([-2, -1, n, n + 3]).flatmap(lambda k: st.sampled_from([k, np.int64(k)]))


def fractional_ids(n):
    """Float vertex ids that are not integers: fractions, NaN and infinities."""
    return st.sampled_from([0.5, -0.5, n - 0.5, 1.7, np.nan, np.inf, -np.inf]).flatmap(
        lambda x: st.sampled_from([x, np.float64(x)]))


ODD_WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -1e-300, np.nan, np.inf, -np.inf]),
                        st.floats(allow_nan=True, allow_infinity=True))
GOOD_WEIGHTS = st.sampled_from([0.5, 1.0, 2.5, 1e-300]) | st.floats(0.0, 1e6)


@st.composite
def faulty_edges(draw, n):
    """Distinct edges u != v, then up to three faults: an odd weight, a loop,
    an out-of-range or non-integer id, or a repeat of an edge in either orientation."""
    ids = vertex_ids(n)
    edges = draw(st.lists(st.tuples(ids, ids, GOOD_WEIGHTS).filter(lambda e: e[0] != e[1]),
                          max_size=10, unique_by=lambda e: frozenset((int(e[0]), int(e[1])))))
    for fault in draw(st.lists(st.sampled_from(["weight", "loop", "stray", "fraction", "repeat"]), max_size=3)):
        if not edges:
            break
        i = draw(st.integers(0, len(edges) - 1))
        u, v, w = edges[i]
        if fault == "weight":
            edges[i] = (u, v, draw(ODD_WEIGHTS))
        elif fault == "loop":
            edges[i] = (u, u, w)
        elif fault in ("stray", "fraction"):
            odd = stray_ids(n) if fault == "stray" else fractional_ids(n)
            edges[i] = (u, draw(odd), w) if draw(st.booleans()) else (draw(odd), v, w)
        else:
            repeat = draw(st.sampled_from([(u, v, w), (v, u, w), (v, u, 0.0)]))
            edges.insert(draw(st.integers(0, len(edges))), repeat)
    return edges


class TestConstructors:
    @settings(max_examples=300)
    @given(n=st.integers(0, 8), data=st.data())
    def test_from_edges_matches_loop_reference(self, n, data):
        """Loops, negative, zero, -0.0, NaN and infinite weights, repeats in
        either orientation, numpy ids, out-of-range ids, fractional, NaN and
        infinite ids, and (E, 3) array input."""
        edges = data.draw(faulty_edges(n))
        if data.draw(st.booleans()):
            edges = np.array(edges, dtype=float).reshape(-1, 3)
        expected = outcome(reference_from_edges, n, edges)
        assert_matches_reference(outcome(WeightedGraph.from_edges, n, edges), n, expected)

    @pytest.mark.parametrize("n, edges, message", [
        (3, [(0, 1, 1.0), (1, 0, 1.0)], "duplicate edge (1,0)"),
        (3, [(0, 1, 1.0), (0, 1, 0.0)], "duplicate edge (0,1)"),
        (3, [(1, 1, 1.0)], "loop edge (1,1) is not allowed"),
        (3, [(0, 1, -0.5)], "negative weight -0.5 on edge (0,1)"),
        (3, [(0, 1, math.nan)], "non-finite weight nan on edge (0,1)"),
        (3, [(0, 1, math.inf)], "non-finite weight inf on edge (0,1)"),
        (3, [(1, 2, 1.0), (0, 1, -math.inf)], "non-finite weight -inf on edge (0,1)"),
        (3, [(0, 3, 1.0)], "edge (0,3) out of range for n=3"),
        (3, [(-1, 2, 0.0)], "edge (-1,2) out of range for n=3"),
        (0, [], "n must be a positive integer, got 0"),
        (3, [(0.5, 1.7, 1.0), (1.2, 2.9, 2.0)], "edge (0.5,1.7) has a non-integer vertex id"),
        (3, [(0, 1, 1.0), (1, math.nan, 1.0)], "edge (1.0,nan) has a non-integer vertex id"),
        (3, [(math.inf, 1, 1.0)], "edge (inf,1.0) has a non-integer vertex id"),
        (3, [(2, -math.inf, 1.0)], "edge (2.0,-inf) has a non-integer vertex id"),
        (3, [(0, 5, 1.0), (0.5, 1, 1.0)], "edge (0,5) out of range for n=3"),
        (3, [(0.5, 1, 1.0), (0, 5, 1.0)], "edge (0.5,1.0) has a non-integer vertex id"),
        (3, [(0, 1e20, 1.0)], "edge (0,100000000000000000000) out of range for n=3"),
        (3.5, [(2, 3, 1.0)], "n must be a positive integer, got 3.5"),
        (np.float64(3.5), [(0, 1, 1.0)], f"n must be a positive integer, got {np.float64(3.5)!r}"),
        (1.5, [], "n must be a positive integer, got 1.5"),
        (4.0, [(2, 3, 1.0)], "n must be a positive integer, got 4.0"),
        (np.float64(4.0), [(0, 1, 1.0)], f"n must be a positive integer, got {np.float64(4.0)!r}"),
    ])
    def test_from_edges_rejects(self, n, edges, message):
        for given_edges in (edges, np.array(edges, dtype=float).reshape(-1, 3)):
            with pytest.raises(InputError, match=re.escape(message)):
                WeightedGraph.from_edges(n, given_edges)

    @pytest.mark.parametrize("edges, message", [
        # zip once truncated the first edge to (0, 1, 1.0) and built a graph
        ([(0, 1, 1.0, 9), (1, 2, 1.0)], "edge (0, 1, 1.0, 9) is not a (u, v, w) triple"),
        ([(0, 1, 1.0), (1, 2)], "edge (1, 2) is not a (u, v, w) triple"),
        ([(0, 1)], "edge (0, 1) is not a (u, v, w) triple"),
        ([(0, 1, 1.0, 9)], "edge (0, 1, 1.0, 9) is not a (u, v, w) triple"),
        ([(0, 1, 1.0), 2], "edge 2 is not a (u, v, w) triple"),
        ([("a", 1, 1.0)], "edge ('a', 1, 1.0) has a non-numeric vertex id 'a'"),
        ([(0, 1, 1.0), (1, None, 1.0)], "edge (1, None, 1.0) has a non-numeric vertex id None"),
        ([(0, 1, "x")], "edge (0, 1, 'x') has a non-numeric weight 'x'"),
        ([(0, 1, 1.0), (1, 2, "1.0")], "edge (1, 2, '1.0') has a non-numeric weight '1.0'"),
        ([(0, 1, 1j)], "edge (0, 1, 1j) has a non-numeric weight 1j"),
        ([(0, [1], 1.0)], "edge (0, [1], 1.0) has a non-numeric vertex id [1]"),
        (np.zeros((2, 4)), "edge array has shape (2, 4), expected (E, 3)"),
        (np.zeros(3), "edge array has shape (3,), expected (E, 3)"),
        (np.array([["0", "1", "1.0"]]), "edge ('0', '1', '1.0') has a non-numeric vertex id '0'"),
        (np.array([[0, 1, None]], dtype=object), "edge (0, 1, None) has a non-numeric weight None"),
        # object-kind ids were truncated: (1/2, 1) built the edge (0, 1) and 5/2 became 2
        ([(Fraction(1, 2), 1, 1.0)], "edge (0.5,1.0) has a non-integer vertex id"),
        ([(Fraction(5, 2), 1, 1.0)], "edge (2.5,1.0) has a non-integer vertex id"),
        ([(0, 1, 1.0), (1, Fraction(3, 2), 2.0)], "edge (1.0,1.5) has a non-integer vertex id"),
        ([(0, 1, 1.0), (Fraction(1), 2, 1.0), (math.inf, 2, 1.0)], "edge (inf,2.0) has a non-integer vertex id"),
        ([(Fraction(1), 2, 1.0), (math.nan, 2, 1.0)], "edge (nan,2.0) has a non-integer vertex id"),
        ([(Fraction(1, 2), 2**1100, 1.0)], f"edge (0.5,{2**1100}) has a non-integer vertex id"),
        ([(0, 2**1100, 1.0)], f"edge (0,{2**1100}) out of range for n=3"),
        # shown as the whole floats 1.0 and 0.0
        ([(Fraction(10**400 + 1, 10**400), 2, 1.0)],
         f"edge ({Fraction(10**400 + 1, 10**400)},2.0) has a non-integer vertex id"),
        ([(0, Fraction(1, 10**400), 1.0)], f"edge (0.0,{Fraction(1, 10**400)}) has a non-integer vertex id"),
        # weights past the largest float raised a bare OverflowError
        ([(0, 1, 2**1100)], f"weight {2**1100} on edge (0,1) is beyond the largest float"),
        ([(0, 1, 1.0), (1, 2, -(10**400))], f"weight {-(10**400)} on edge (1,2) is beyond the largest float"),
        ([(0, 1, Fraction(3**700, 2))], f"weight {Fraction(3**700, 2)} on edge (0,1) is beyond the largest float"),
        ([(1, 1, 2**1100)], "loop edge (1,1) is not allowed"),
        ([(0, 2, -1), (0, 1, 2**1100)], "negative weight -1.0 on edge (0,2)"),
        ([(0, 1, Fraction(1)), (1, 2, math.nan)], "non-finite weight nan on edge (1,2)"),
        ([(0, 1, Fraction(1)), (1, 2, -math.inf)], "non-finite weight -inf on edge (1,2)"),
    ])
    def test_from_edges_rejects_what_is_not_three_numbers(self, edges, message):
        """Malformed rows, once a bare ValueError or TypeError, and cases with no float (E, 3) array."""
        with pytest.raises(InputError) as err:
            WeightedGraph.from_edges(3, edges)
        assert str(err.value) == message

    def test_whole_object_kind_ids_and_large_finite_weights_accepted(self):
        g = WeightedGraph.from_edges(3, [(Fraction(2), 1, Fraction(1, 2)), (0, 2**0, 10**20), (0, 2, 2**1023)])
        assert g.edges() == [(0, 1, 1e20), (0, 2, 2.0**1023), (1, 2, 0.5)]

    @pytest.mark.parametrize("n", [4, np.int64(4), np.int32(4)])
    def test_whole_number_vertex_count_accepted(self, n):
        g = WeightedGraph.from_edges(n, [(2, 3, 1.0), (0, 1, 2.0)])
        assert type(g.n) is int and g.n == 4
        assert g.edges() == [(0, 1, 2.0), (2, 3, 1.0)]

    @pytest.mark.parametrize("n", [True, False, np.True_, np.False_])
    def test_boolean_vertex_count_refused(self, n):
        """True once built a 1-vertex graph; generate_graph("path", True) refuses it too."""
        for edges in ([], np.empty((0, 3))):
            with pytest.raises(InputError, match=f"^n must be a positive integer, got {re.escape(repr(n))}$"):
                WeightedGraph.from_edges(n, edges)

    @pytest.mark.parametrize("args", [(2, {}), (2, {(0, 1): 1.0, (1, 0): 2.0}), (2, [(0, 1, -1.0)])])
    def test_no_constructor_but_from_edges(self, args):
        with pytest.raises(TypeError, match="from_edges"):
            WeightedGraph(*args)

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
            assert repr(g.edges()) == repr(reference_from_edges(4, edges)) == "[(0, 1, 2.0), (1, 2, 3.0)]"
        assert WeightedGraph.from_edges(3, np.empty((0, 3))).num_edges == 0

    def test_stored_and_derived_arrays_are_read_only(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (2, 1, 2.0)])
        for arr in (*g._edge_arrays, *_adjacency(g)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0


def sparse_edges(n, count, seed):
    """``count`` distinct pairs on n vertices in random orientation, weights in
    [0.5, 1.5) with about one in ten set to zero."""
    rng = np.random.default_rng(seed)
    pairs = {}
    while len(pairs) < count:
        u, v = rng.integers(0, n, 2).tolist()
        if u != v:
            pairs.setdefault((min(u, v), max(u, v)), (u, v))
    weights = np.where(rng.random(count) < 0.1, 0.0, rng.uniform(0.5, 1.5, count))
    return [(u, v, w) for (u, v), w in zip(pairs.values(), weights.tolist())]


def with_faults(edges, n, seed, repeats, strays):
    """``edges`` with repeats of some pairs in either orientation (some weight 0)
    and stray ids -1 and n, each inserted at a random position."""
    rng = np.random.default_rng(seed)
    edges = list(edges)
    for _ in range(repeats):
        u, v, w = edges[int(rng.integers(len(edges)))]
        repeat = (v, u, w) if rng.random() < 0.5 else (u, v, 0.0)
        edges.insert(int(rng.integers(len(edges) + 1)), repeat)
    for _ in range(strays):
        u = int(rng.integers(n))
        stray = (-1, u, 1.0) if rng.random() < 0.5 else (u, n, 1.0)
        edges.insert(int(rng.integers(len(edges) + 1)), stray)
    return edges


#: Every place a graph's vertex count enters, as a function of n.
VERTEX_COUNT_ENTRIES = {
    "from_edges": lambda n, tmp_path: WeightedGraph.from_edges(n, []),
    **{kind: lambda n, tmp_path, kind=kind: generate_graph(kind, n, seed=1) for kind in generators.GRAPH_KINDS},
}


def edge_list_header(n, tmp_path):
    path = tmp_path / "header.edges"
    path.write_text(f"n={n}\n", encoding="utf-8")
    return read_edge_list(path)


class TestVertexCountRule:
    """One rule and one set of words for a graph's vertex count, wherever it enters."""

    @pytest.mark.parametrize("entry", sorted(VERTEX_COUNT_ENTRIES))
    @pytest.mark.parametrize("n", [0, -1, -3, 3.5, 16.5, 4.0, np.float64(4.0), True, np.True_, math.nan],
                             ids=["0", "-1", "-3", "3.5", "16.5", "4.0", "np.float64(4.0)", "True", "np.True_", "nan"])
    def test_refuses_all_but_a_positive_integer(self, entry, n, tmp_path):
        with pytest.raises(InputError) as err:
            VERTEX_COUNT_ENTRIES[entry](n, tmp_path)
        assert str(err.value) == f"n must be a positive integer, got {n!r}"

    @pytest.mark.parametrize("entry", sorted(VERTEX_COUNT_ENTRIES))
    def test_cap_refused_before_anything_is_built(self, entry, tmp_path):
        # refused before any array of length n is allocated: 2**31 vertices would take gigabytes
        with pytest.raises(InputError) as err:
            VERTEX_COUNT_ENTRIES[entry](MAX_VERTICES + 1, tmp_path)
        assert str(err.value) == "n must be at most 2147483647, got 2147483648"

    @pytest.mark.parametrize("n, message", [(0, "n must be a positive integer, got 0"),
                                            (-1, "n must be a positive integer, got -1"),
                                            (2**31, "n must be at most 2147483647, got 2147483648")])
    def test_edge_list_header(self, n, message, tmp_path):
        # a header parses as an integer first, so only integers reach the rule
        with pytest.raises(InputError) as err:
            edge_list_header(n, tmp_path)
        assert str(err.value) == f"{tmp_path / 'header.edges'}: {message}"

    @pytest.mark.parametrize("entry", [*sorted(VERTEX_COUNT_ENTRIES), "read_edge_list"])
    def test_numpy_integer_accepted(self, entry, tmp_path):
        build = edge_list_header if entry == "read_edge_list" else VERTEX_COUNT_ENTRIES[entry]
        graph = build(np.int64(4), tmp_path)
        assert type(graph.n) is int and graph.n == 4


class TestLargeEdgeLists:
    """The one-key edge sort against the loop reference at 1e4-1e5 vertices.

    Only ``from_edges`` and the stored edge arrays are read: nothing here
    allocates an array of length n.
    """

    @pytest.mark.parametrize("n, count, seed", [(10_000, 4_000, 1), (100_000, 6_000, 2), (100_000, 3_000, 3)])
    @pytest.mark.parametrize("repeats, strays", [(0, 0), (200, 0), (0, 3), (50, 2)])
    def test_matches_loop_reference(self, n, count, seed, repeats, strays):
        edges = with_faults(sparse_edges(n, count, seed), n, seed, repeats, strays)
        expected = outcome(reference_from_edges, n, edges)
        if repeats or strays:
            assert isinstance(expected, tuple)
        for given_edges in (edges, np.array(edges, dtype=float)):
            graph = outcome(WeightedGraph.from_edges, n, given_edges)
            if isinstance(expected, tuple):
                assert graph == expected
            else:
                assert repr(graph.edges()) == repr(expected)
                assert all(arr.dtype == dtype for arr, dtype in zip(graph._edge_arrays, (np.intp, np.intp, float)))

    def test_vertex_count_bound(self):
        """The sort key reaches about (n + 2)**2, below 2**63 at the largest n."""
        n = 2**31 - 1
        edges = [(n - 1, 0, 1.0), (5, n - 2, 2.0), (n - 1, n - 2, 0.0), (3, 1, 4.0)]
        graph = WeightedGraph.from_edges(n, edges)
        assert graph.n == n
        assert repr(graph.edges()) == repr(reference_from_edges(n, edges))
        assert graph.edges() == [(0, n - 1, 1.0), (1, 3, 4.0), (5, n - 2, 2.0)]
        for faulty, message in [([*edges, (n - 2, n - 1, 1.0)], f"duplicate edge ({n - 2},{n - 1})"),
                                ([*edges, (0, n, 1.0)], f"edge (0,{n}) out of range for n={n}")]:
            assert outcome(WeightedGraph.from_edges, n, faulty) == ("InputError", message)
            assert outcome(reference_from_edges, n, faulty) == ("InputError", message)
        for too_many in (2**31, 2**40):
            with pytest.raises(InputError, match=re.escape(f"n must be at most 2147483647, got {too_many}")):
                WeightedGraph.from_edges(too_many, [(0, 1, 1.0)])

    def test_nan_vertex_count_refused(self):
        with pytest.raises(InputError, match="^n must be a positive integer, got nan$"):
            WeightedGraph.from_edges(math.nan, [(0, 1, 1.0)])


def argsort_and_gather(graph):
    """CSR ``indptr`` and ``indices`` by an argsort of the keys ``head * n + tail`` and a gather of the tails."""
    us, vs, _ = graph._edge_arrays
    heads, tails = np.concatenate([us, vs]), np.concatenate([vs, us])
    tails = tails[np.argsort(heads * graph.n + tails)]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=graph.n))])
    return indptr, tails


@st.composite
def edge_sets(draw):
    """n, small or past 2**16 (keys past 32 bits), and distinct pairs in either orientation with positive weights;
    the vertices no pair names are isolated."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(2**16 + 1, 2**20)))
    ids = st.one_of(st.integers(0, n - 1), st.integers(max(0, n - 3), n - 1))
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=40,
                          unique_by=lambda p: (min(p), max(p))))
    return n, [(u, v, draw(st.floats(0.5, 2.0))) for u, v in pairs]


class TestAdjacency:
    @settings(max_examples=200)
    @given(edge_sets())
    @example((1, []))
    @example((5, []))
    @example((2**17 + 3, [(2**17 + 2, 2**17 + 1, 1.0), (0, 2**17 + 2, 1.0), (7, 2**17 + 1, 1.0), (2, 1, 1.0)]))
    def test_sorted_keys_equal_argsort_and_gather(self, graph_input):
        graph = WeightedGraph.from_edges(*graph_input)
        got, expected = _adjacency(graph), argsort_and_gather(graph)
        for arr, ref in zip(got, expected):
            assert arr.dtype == ref.dtype and arr.shape == ref.shape
            assert np.array_equal(arr, ref)
            assert not arr.flags.writeable
        assert len(got[0]) == graph.n + 1 and len(got[1]) == 2 * graph.num_edges


class TestGradientNorm:
    """The stored edge arrays against hand sums and the Laplacian form."""

    def test_single_edge(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        assert gradient_sq(g, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=0)

    def test_constant_vanishes(self):
        g = generate_graph("erdos-renyi-weighted", 10, seed=5, p=0.5)
        assert gradient_sq(g, np.full(10, 3.7)) == pytest.approx(0.0, abs=1e-12)

    def test_path4_hand_sum(self):
        # edges (0,1),(1,2),(2,3): (2-1)^2 + (4-2)^2 + (8-4)^2 = 21
        g = generate_graph("path", 4)
        assert gradient_sq(g, np.array([1.0, 2.0, 4.0, 8.0])) == pytest.approx(21.0, abs=1e-12)

    def test_zero_iff_constant_per_component(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        f = np.array([5.0, 5.0, -2.0, -2.0])
        assert gradient_sq(g, f) == 0.0
        f[1] += 1e-3
        assert gradient_sq(g, f) > 0.0

    @given(n=st.integers(3, 10), seed=st.integers(0, 50), c=st.floats(-8, 8), shift=st.floats(-5, 5))
    def test_scaling_and_shift_invariance(self, n, seed, c, shift):
        g = generate_graph("erdos-renyi-weighted", n, seed=seed, p=0.6)
        f = np.random.Generator(np.random.PCG64(seed + 1)).standard_normal(n)
        base = gradient_sq(g, f)
        assert gradient_sq(g, c * f) == pytest.approx(c * c * base, rel=1e-12, abs=1e-12)
        assert gradient_sq(g, f + shift) == pytest.approx(base, rel=1e-9, abs=1e-9)

    @given(n=st.integers(2, 12), seed=st.integers(0, 50))
    def test_matches_laplacian_quadratic_form(self, n, seed):
        g = generate_graph("erdos-renyi-weighted", n, seed=seed, p=0.5)
        f = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
        grad2 = gradient_sq(g, f)
        form = f @ (build_laplacian(g) @ f)
        assert abs(form - grad2) <= 1e-9 * max(1.0, grad2)


def stored_by_argsort_and_gather(n, lo, hi, ws):
    """The edge arrays the constructor for valid pairs stores: a stable argsort of ``lo * n + hi`` and a gather
    of each column, frozen."""
    lo, hi = np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)
    order = np.argsort(lo.astype(np.int64) * n + hi, kind="stable")
    arrays = lo[order], hi[order], np.asarray(ws, dtype=np.float64)[order]
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class TestFromPairs:
    @settings(max_examples=200)
    @given(edge_sets(), st.booleans())
    @example((5, []), False)
    @example((2**17 + 3, [(2**17 + 2, 2**17 + 1, 1.0), (0, 2**17 + 2, 1.0), (2, 1, 1.0)]), True)
    def test_sorted_or_shuffled_pairs_are_stored_as_argsort_and_gather(self, graph_input, shuffle):
        """Pairs handed over in (lo, hi) order or shuffled are stored in (lo, hi) order, with the argsort-and-gather
        arrays, dtypes and flags, in new arrays; the caller's arrays stay writeable."""
        n, edges = graph_input
        edges = sorted((min(u, v), max(u, v), w) for u, v, w in edges)
        if shuffle:
            edges = [edges[i] for i in np.random.default_rng(len(edges)).permutation(len(edges))]
        pairs = np.array([(lo, hi) for lo, hi, _ in edges], dtype=np.intp).reshape(-1, 2)
        ws = np.array([w for _, _, w in edges], dtype=float)
        lo, hi = pairs[:, 0], pairs[:, 1]  # strided views, as the random-geometric generator hands over
        graph = WeightedGraph._from_pairs(n, lo, hi, ws)
        expected = stored_by_argsort_and_gather(n, lo, hi, ws)
        for arr, ref in zip(graph._edge_arrays, expected, strict=True):
            assert arr.dtype == ref.dtype and arr.shape == ref.shape and np.array_equal(arr, ref)
            assert arr.flags.c_contiguous and not arr.flags.writeable
            assert not any(np.shares_memory(arr, given) for given in (pairs, ws))
        assert lo.flags.writeable and hi.flags.writeable and ws.flags.writeable
