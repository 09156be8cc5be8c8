"""Graph and signal generators: shapes, connectivity, determinism."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import avgsampling
from avgsampling import (
    InputError,
    WeightedGraph,
    build_laplacian,
    eigendecompose,
    generate_graph,
    generate_pw_signal,
    is_connected,
    pw_project,
)


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
        with pytest.raises(InputError, match="perfect-square"):
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

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            generate_graph("torus", 8)

    @pytest.mark.parametrize("kind", ["random-geometric", "erdos-renyi-weighted"])
    @pytest.mark.parametrize("seed", [1.5, 1.0, -1, True, None, "1"])
    def test_seed_must_be_a_nonnegative_integer(self, kind, seed):
        """A fractional seed is not truncated, and a negative one is not left to numpy."""
        with pytest.raises(InputError, match="^seed must be a nonnegative integer"):
            generate_graph(kind, 20, seed=seed)

    def test_numpy_integer_seed_is_its_value(self):
        assert generate_graph("random-geometric", 30, seed=np.int64(4)).edges() == \
            generate_graph("random-geometric", 30, seed=4).edges()

    def test_package_import_leaves_the_kd_tree_unloaded(self):
        """scipy.spatial loads with the first random-geometric graph, not with the package
        (unless the scipy modules the package imports load it themselves)."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(avgsampling.__file__)))
        probe = ("import sys; import numpy, scipy.linalg, scipy.sparse.csgraph; "
                 "before = 'scipy.spatial' in sys.modules; import avgsampling; "
                 "print(before, 'scipy.spatial' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before


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
