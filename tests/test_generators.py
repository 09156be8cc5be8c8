"""Graph and signal generators: shapes, connectivity, determinism."""
import hashlib
import inspect
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgsampling
from avgsampling import (
    InputError,
    NumericalError,
    WeightedGraph,
    build_laplacian,
    eigendecompose,
    generate_graph,
    generate_pw_signal,
    is_connected,
    pw_project,
)
from avgsampling import generators


def reference_random_geometric(n, seed):
    """Brute-force neighbour rows with np.hypot, redrawn until connected."""
    radius = 1.5 * math.sqrt(math.log(n) / (math.pi * n))
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        points = rng.random((n, 2))
        edges = []
        for u in range(n):
            delta = points[u] - points[u + 1:]
            for v in np.flatnonzero(np.hypot(delta[:, 0], delta[:, 1]) <= radius) + u + 1:
                edges.append((u, int(v), 1.0))
        if is_connected(WeightedGraph.from_edges(n, edges)):
            return edges


class TestGraphGenerators:
    def test_path_shape(self):
        g = generate_graph("path", 4)
        assert g.edges() == [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]

    def test_cycle_is_triangle_at_three(self):
        g = generate_graph("cycle", 3)
        assert g.num_edges == 3
        assert is_connected(g)

    def test_grid_requires_square(self):
        g = generate_graph("grid2d", 9)
        assert g.num_edges == 12
        with pytest.raises(InputError):
            generate_graph("grid2d", 10)

    @pytest.mark.parametrize("n", [-1, -4])
    def test_grid_refuses_negative_n(self, n):
        # math.isqrt raised a bare ValueError here
        with pytest.raises(InputError, match="^n must be a positive integer"):
            generate_graph("grid2d", n)

    def test_random_geometric_refuses_nan_radius(self):
        # NaN passed the sign test and gave 50 edgeless draws, then a NumericalError
        with pytest.raises(InputError, match="radius must be positive"):
            generate_graph("random-geometric", 20, radius=math.nan)

    def test_misspelt_parameter_refused(self):
        # A catch-all keyword dropped prob=0.9 and built the default p=0.3 graph.
        with pytest.raises(TypeError):
            generate_graph("erdos-renyi-weighted", 12, seed=1, prob=0.9)
        assert generate_graph("erdos-renyi-weighted", 12, seed=1, p=0.9).num_edges == 63

    def test_erdos_renyi_deterministic(self):
        g1 = generate_graph("erdos-renyi-weighted", 20, seed=7, p=0.3)
        g2 = generate_graph("erdos-renyi-weighted", 20, seed=7, p=0.3)
        assert g1.edges() == g2.edges()
        assert is_connected(g1)
        g3 = generate_graph("erdos-renyi-weighted", 20, seed=8, p=0.3)
        assert g1.edges() != g3.edges()

    def test_random_geometric_connected_and_deterministic(self):
        g1 = generate_graph("random-geometric", 25, seed=3)
        g2 = generate_graph("random-geometric", 25, seed=3)
        assert g1.edges() == g2.edges()
        assert is_connected(g1)

    @pytest.mark.parametrize("n", [50, 300])
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_random_geometric_matches_brute_force(self, n, seed):
        radius = 1.5 * math.sqrt(math.log(n) / (math.pi * n))
        rng = np.random.Generator(np.random.PCG64(seed))
        while True:  # the generator redraws until the graph is connected
            points = rng.random((n, 2))
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    if np.hypot(*(points[u] - points[v])) <= radius:
                        edges.append((u, v, 1.0))
            if is_connected(WeightedGraph.from_edges(n, edges)):
                break
        assert generate_graph("random-geometric", n, seed=seed).edges() == edges

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_geometric_1000_matches_brute_force(self, seed):
        assert generate_graph("random-geometric", 1000, seed=seed).edges() == reference_random_geometric(1000, seed)

    @pytest.mark.parametrize("kind", ["torus", ["path"], None])
    def test_unknown_kind(self, kind):
        with pytest.raises(InputError) as err:
            generate_graph(kind, 8)
        assert str(err.value) == (f"unknown graph kind {kind!r}; "
                                  "choices: path, cycle, grid2d, random-geometric, erdos-renyi-weighted")

    def test_each_kind_is_one_table_entry(self):
        """Kinds keep the order that ``--help`` and the unknown-kind message print,
        and each entry's options are keyword parameters of its builder and of generate_graph."""
        assert list(generators.GRAPH_KINDS) == ["path", "cycle", "grid2d", "random-geometric", "erdos-renyi-weighted"]
        dispatch = inspect.signature(generate_graph).parameters
        for kind, (build, options) in generators.GRAPH_KINDS.items():
            params = inspect.signature(build).parameters
            assert list(params)[0] == "n" and set(params) == {"n", *options}, kind
            for name in options:
                assert params[name].kind is dispatch[name].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, (kind, name)

    @pytest.mark.parametrize("kind", ["random-geometric", "erdos-renyi-weighted"])
    @pytest.mark.parametrize("seed", [1.5, 1.0, -1, True, None, "1"])
    def test_seed_must_be_a_nonnegative_integer(self, kind, seed):
        """A fractional seed is not truncated, and a negative one is not left to numpy."""
        with pytest.raises(InputError, match="^seed must be a nonnegative integer"):
            generate_graph(kind, 20, seed=seed)

    @pytest.mark.parametrize("kind, n, message", [
        ("cycle", 2, "cycle needs n >= 3, got 2"),
        ("random-geometric", 1, "random graph needs n >= 2, got 1"),
        ("erdos-renyi-weighted", 1, "random graph needs n >= 2, got 1"),
    ])
    def test_each_kind_refuses_a_count_below_its_own_least(self, kind, n, message):
        with pytest.raises(InputError) as err:
            generate_graph(kind, n, seed=1)
        assert str(err.value) == message

    @pytest.mark.parametrize("p", [0.0, 1.5, math.nan])
    def test_edge_probability_outside_zero_one_refused(self, p):
        with pytest.raises(InputError) as err:
            generate_graph("erdos-renyi-weighted", 8, seed=1, p=p)
        assert str(err.value) == f"edge probability must be in (0, 1], got {p}"

    @pytest.mark.parametrize(("kind", "n", "seed", "p", "radius"), [
        *[(kind, n, 0, 0.3, None) for kind, least in (("path", 1), ("cycle", 3), ("grid2d", 1))
          for n in (least, 2025)],
        *[("erdos-renyi-weighted", n, seed, p, None) for n in (12, 60) for seed in (0, 7) for p in (0.05, 0.3)],
        *[("random-geometric", n, seed, 0.3, radius) for n in (2, 3, 100, 1000) for seed in (1, 4101)
          for radius in (None, 0.05, 0.3, 1.5)],
        # radius 0.3 or 1.5 at n = 4000 makes millions of edges
        *[("random-geometric", 4000, seed, 0.3, radius) for seed in (1, 4101) for radius in (None, 0.05)],
    ])
    def test_generated_graph_equals_its_validated_construction(self, monkeypatch, kind, n, seed, p, radius):
        """Every draw a generator builds without per-edge checks is the graph that
        from_edges builds from its edge list, in bytes, dtypes and read-only flags."""
        built = []
        from_pairs = WeightedGraph._from_pairs
        monkeypatch.setattr(WeightedGraph, "_from_pairs",
                            classmethod(lambda cls, *args: built.append(from_pairs(*args)) or built[-1]))
        try:
            generate_graph(kind, n, seed=seed, p=p, radius=radius)
        except NumericalError:  # no connected draw: each draw is still compared
            assert len(built) == generators.RETRY_BUDGET
        monkeypatch.undo()
        assert built
        for graph in built:
            checked = WeightedGraph.from_edges(n, graph.edges())
            assert graph.n == checked.n == n
            for mine, theirs in zip(graph._edge_arrays, checked._edge_arrays, strict=True):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
                assert not mine.flags.writeable and not theirs.flags.writeable

    def test_numpy_integer_seed_is_its_value(self):
        assert generate_graph("random-geometric", 30, seed=np.int64(4)).edges() == \
            generate_graph("random-geometric", 30, seed=4).edges()

    def test_random_geometric_graph_leaves_scipy_spatial_unloaded(self):
        """Neither the package import nor a random-geometric graph loads scipy.spatial."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(avgsampling.__file__)))
        probe = ("import sys; import avgsampling; "
                 "avgsampling.generate_graph('random-geometric', 300, seed=3); "
                 "print('scipy.spatial' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


def all_close_pairs(points, radius):
    """Every pair u < v with np.hypot of its coordinate differences at most radius, as arrays u, v sorted by (u, v)."""
    us, vs = np.triu_indices(len(points), 1)
    delta = points[us] - points[vs]
    close = np.hypot(delta[:, 0], delta[:, 1]) <= radius
    return us[close], vs[close]


def assert_same_pairs(got, expected):
    """Both arrays of ``_close_pairs`` equal the brute force's, and are contiguous int64."""
    assert len(got) == len(expected) == 2
    for mine, theirs in zip(got, expected):
        assert mine.dtype == np.int64 and mine.flags.c_contiguous
        assert np.array_equal(mine, theirs)


#: Points on multiples of 1/q for q up to 20, which include every cell
#: boundary at n <= 60 (at most 8 cells a side) and pairs exactly 1/q apart.
lattice = st.integers(1, 20).flatmap(lambda q: st.integers(0, q).map(lambda j: j / q))


def either_side(radius):
    """The radius and the floats just below and above it."""
    return st.sampled_from([np.nextafter(radius, 0.0), radius, np.nextafter(radius, 2.0)])


@st.composite
def unit_square_points(draw):
    """2 to 60 points in the unit square, some on the lattice, some within 1e-150
    of the origin (their squared distances underflow) and some repeated."""
    coordinate = st.one_of(st.floats(0.0, 1.0), lattice, st.floats(0.0, 1e-150))
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=60))
    index = st.integers(0, len(points) - 1)
    for source, target in draw(st.lists(st.tuples(index, index), max_size=10)):
        points[target] = points[source]
    return np.array(points)


#: (n, seed, radius) -> edge count and SHA-256 of the bytes of ``_edge_arrays``
#: (us, vs, ws in that order), captured from the KD-tree generator that the
#: cell list replaced; both decide each pair by np.hypot.
EDGE_DIGESTS = {
    (2, 0, None): (1, "846df8c7560685a7285a7ae4a9e0ae8bdbe83082afd224526b5000519303686b"),
    (2, 1, 1.5): (1, "846df8c7560685a7285a7ae4a9e0ae8bdbe83082afd224526b5000519303686b"),
    (3, 5, 0.7): (2, "e97dac7e24af6eb9eed9e3521652bda61e5ab64febe0b7dc8f0ec8852d4bdbaa"),
    (10, 3, None): (17, "21eb016a06f83548b6df6ed96f56d88687bc1687fa42586e9ee399379be55483"),
    (10, 3, 0.3): (18, "4d289fba9c21d7a042b1d6f9c29377f9b4d118a5836e697182ce1c11d5424632"),
    (100, 7, None): (413, "7d01195836aa885136c88ed15a68b6bdaa3066ec3f05ca64c62aab19b91d4855"),
    (100, 7, 0.3): (981, "fe5cdf0317b927e8e19f20ba029d59e94558a395f0ccf7605db345d2b4ea4f30"),
    (100, 11, 1.5): (4950, "de1e67bf2cf88fba074350c9c5ef622de35c95c43c4fc64a48e1f9ad88253d67"),
    (1000, 4101, None): (7128, "b83c8e0848319d6d56d2098dfe9f3b8089f12f26bf343d00b02bf3f7a042181e"),
    (1000, 1, None): (7219, "2313c3a13ec6dfe53bb64c56399ecda7fda88396eb76eb87521011d1e01a241f"),
    (1000, 2, 0.1): (14364, "ff2536601a5b39aeb8f15ef442d20cc1155f282db980f20002df61ce4b302285"),
    (4000, 4101, None): (36029, "f37944ee963ac7c3112f1aa36c06709b075402234ddba1c083cca9d764b978a5"),
    (4000, 9, None): (36210, "b13ee23027f92b32e9af419245820b0752d24482aac161efc9ecf1062ab8ab02"),
}


class TestCloseCellList:
    @settings(max_examples=400)
    @given(points=unit_square_points(), radius=st.one_of(
        st.sampled_from([1e-300, 1e-17, 0.5, 1.0, math.sqrt(2.0), 2.0]),
        st.integers(1, 20).flatmap(lambda q: either_side(1.0 / q)),
        st.floats(1e-3, 1.5),
    ))
    def test_matches_all_pairs_hypot(self, points, radius):
        assert_same_pairs(generators._close_pairs(points, radius), all_close_pairs(points, radius))

    @settings(max_examples=400)
    @given(points=unit_square_points(), data=st.data())
    def test_matches_all_pairs_hypot_at_a_pair_distance(self, points, data):
        """At the np.hypot distance of two of the points, a squared-distance test alone
        decides some pair otherwise in about one case in four."""
        u = data.draw(st.integers(0, len(points) - 1))
        v = (u + data.draw(st.integers(1, len(points) - 1))) % len(points)
        distance = float(np.hypot(*(points[u] - points[v])))
        radius = data.draw(either_side(distance).filter(lambda r: r > 0))
        assert_same_pairs(generators._close_pairs(points, radius), all_close_pairs(points, radius))

    @pytest.mark.parametrize(("radius", "a", "b"), [(0.25, 0.25, 0.5), (0.2, 0.4, 0.6), (0.125, 0.125, 0.25)])
    def test_pair_across_a_cell_one_radius_apart(self, radius, a, b):
        """x just below a lies in the cell before a's, and b - x rounds to the radius: with
        cells exactly one radius wide, the pair would sit two cells apart and be missed."""
        q = round(1 / radius)
        # q*q far points more, so that the cap on the cell count allows q cells a side
        points = np.array([(np.nextafter(a, 0.0), 0.5), (b, 0.5)] + [(0.99, 0.99)] * (q * q))
        lo, hi = pairs = generators._close_pairs(points, radius)
        assert (lo[0], hi[0]) == (0, 1)
        assert_same_pairs(pairs, all_close_pairs(points, radius))

    @pytest.mark.parametrize(("n", "seed", "radius"), list(EDGE_DIGESTS))
    def test_edge_arrays_are_pinned(self, n, seed, radius):
        graph = generate_graph("random-geometric", n, seed=seed, radius=radius)
        assert [a.dtype for a in graph._edge_arrays] == [np.intp, np.intp, np.float64]
        digest = hashlib.sha256(b"".join(a.tobytes() for a in graph._edge_arrays)).hexdigest()
        assert (graph.num_edges, digest) == EDGE_DIGESTS[n, seed, radius]

    @pytest.mark.parametrize(("n", "seed", "radius"), [(1000, 0, 1e-12), (1000, 5, 1e-300), (100, 2, 1e-3)])
    def test_tiny_radius_is_refused_after_the_budget_in_capped_cells(self, monkeypatch, n, seed, radius):
        """Uncapped, radius 1e-12 would ask for 1e24 cells; capped, a draw holds kilobytes."""
        draws = []
        close_pairs = generators._close_pairs
        monkeypatch.setattr(generators, "_close_pairs", lambda *args: draws.append(1) or close_pairs(*args))
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError) as refused:
                generate_graph("random-geometric", n, seed=seed, radius=radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == f"no connected graph in 50 draws for n={n}, radius={radius}, seed={seed}"
        assert len(draws) == generators.RETRY_BUDGET == 50
        assert peak <= 2**20


class TestSignalGenerator:
    def test_unit_norm(self, path16):
        _, d, _ = path16
        f = generate_pw_signal(d, 1.0, 5)
        assert abs(np.linalg.norm(f) - 1.0) <= 1e-12

    def test_fixed_by_band_projection(self, path16):
        _, d, _ = path16
        f = generate_pw_signal(d, 1.0, 6)
        assert pw_project(d, 1.0, f) == pytest.approx(f, abs=1e-12)

    def test_zero_bandwidth_gives_constant(self):
        d = eigendecompose(build_laplacian(generate_graph("path", 8)))
        f = generate_pw_signal(d, 0.0, 11)
        assert np.max(np.abs(f - f[0])) <= 1e-12
        assert abs(abs(f[0]) - 1.0 / np.sqrt(8)) <= 1e-12

    @pytest.mark.parametrize("seed", [9.5, 9.0, -9, False])
    def test_seed_must_be_a_nonnegative_integer(self, path16, seed):
        _, d, _ = path16
        with pytest.raises(InputError, match="^seed must be a nonnegative integer"):
            generate_pw_signal(d, 1.0, seed)

    def test_deterministic_per_seed(self, path16):
        _, d, _ = path16
        f1 = generate_pw_signal(d, 1.0, 9)
        f2 = generate_pw_signal(d, 1.0, 9)
        assert np.array_equal(f1, f2)
        assert not np.array_equal(f1, generate_pw_signal(d, 1.0, 10))
