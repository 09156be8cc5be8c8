"""Partitions, cluster averages, frame bounds, and the energy inequalities."""
import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from avgsampling import (
    ClusterPartition,
    FrameSystem,
    InputError,
    NumericalError,
    WeightedGraph,
    analyze,
    bfs_partition,
    blocks_partition,
    build_frame_system,
    build_laplacian,
    eigendecompose,
    generate_graph,
    generate_pw_signal,
    interpolate,
    optimal_alpha,
    pairs_partition,
    pw_space,
    solve_spline,
    spline_convergence_experiment,
    validate_partition,
)

from avgsampling import partitions
from avgsampling.partitions import _cluster_rows, _frame, _gamma

from conftest import (
    cluster_laplacian,
    clusters_of,
    complete_graph,
    coo_cluster_rows,
    dense_indicators,
    energy_slack,
    power,
)


def cluster_lists(n):
    """(n, clusters): up to five clusters of up to four ids each, whole ids in [-1, n + 1] or 0.5, 2.0, nan, inf."""
    ids = st.one_of(st.integers(-1, n + 1), st.sampled_from([0.5, 2.0, math.nan, math.inf]))
    return st.tuples(st.just(n), st.lists(st.lists(ids, max_size=4), max_size=5))


class TestValidatePartition:
    def test_path4_pairs(self, path4):
        _, _, part = path4
        assert part.lambda1s == pytest.approx((2.0, 2.0), abs=1e-12)
        assert part.lambda_xi == pytest.approx(2.0, abs=1e-12)

    def test_overlap_rejected(self):
        g = generate_graph("path", 4)
        with pytest.raises(InputError, match="more than one cluster"):
            validate_partition(g, [(0, 1), (1, 2, 3)])

    def test_disconnected_cluster_rejected(self):
        g = generate_graph("path", 4)
        with pytest.raises(InputError, match="disconnected"):
            validate_partition(g, [(0, 2), (1, 3)])

    def test_uncovered_vertex_rejected(self):
        g = generate_graph("path", 4)
        with pytest.raises(InputError, match="not covered"):
            validate_partition(g, [(0, 1), (2,)])

    def test_empty_cluster_rejected(self):
        g = generate_graph("path", 4)
        with pytest.raises(InputError, match="empty"):
            validate_partition(g, [(0, 1), (), (2, 3)])

    @pytest.mark.parametrize("bad", [1.7, 3.9, math.nan, math.inf, -math.inf, Fraction(10**400 + 1, 10**400)])
    def test_non_integer_vertex_id_rejected(self, bad):
        # once truncated: (0, 1.7) became (0, 1) and (2, 3.9) became (2, 3)
        g = generate_graph("path", 4)
        for idx, clusters in enumerate(([(0, bad), (2, 3)], [(0, 1), (2, bad)])):
            with pytest.raises(InputError, match=f"cluster {idx} has a non-integer vertex id"):
                validate_partition(g, clusters)
        whole, pairs = validate_partition(g, [(0.0, 1.0), (np.int64(3), 2)]), validate_partition(g, pairs_partition(4))
        assert whole.labels.tolist() == pairs.labels.tolist() and whole.lambda1s == pairs.lambda1s

    @pytest.mark.parametrize("clusters, idx", [
        ([["a", 1], [2, 3]], 0),
        ([[0, 1], [2, [3]]], 1),
        ([[0, 1], [2, np.array([3])]], 1),
        ([[[0], [1]], [[2], [3]]], 0),
        ([[0, 1], 2], 1),
        # numeric strings and bytes once built the pairs cover, read as numbers or as their bytes
        ([["0", "1"], "23"], 0),
        ([[0, 1], "23"], 1),
        ([[0, 1], b"\x02\x03"], 1),
        ([[0, 1], bytearray(b"\x02\x03")], 1),
        ([[0, 1], [2, "3"]], 1),
        ([[0, 1], [2, b"3"]], 1),
        ([[0, 1], np.array(["2", "3"])], 1),
        ([[0, 1], [2, np.str_("3")]], 1),
        (["01", "23"], 0),
        # a Decimal built the cover, and None was read as the non-integer id nan
        ([[Decimal(1), 0], [2, 3]], 0),
        ([[None, 0], [2, 3]], 0),
    ])
    def test_non_numeric_or_nested_entry_rejected(self, clusters, idx):
        # once a bare ValueError or TypeError from the array of all entries
        with pytest.raises(InputError) as err:
            validate_partition(generate_graph("path", 4), clusters)
        assert str(err.value) == f"cluster {idx} is not a sequence of numeric vertex ids: {clusters[idx]!r}"

    @pytest.mark.parametrize("vertex_id, vertex", [
        (2**1100, None), (-(2**1100), None), (Fraction(3**700, 2), None), (Fraction(1, 2), None), (Decimal(1), None),
        (None, None), ("1", None), (np.float64(2.0), 2), (Fraction(2), 2), (True, 1),
    ], ids=["2**1100", "-2**1100", "3**700/2", "1/2", "Decimal(1)", "None", "'1'", "float64(2.0)", "Fraction(2)",
            "True"])
    def test_outside_ids_follow_the_edge_rule(self, vertex_id, vertex):
        # an id past the largest float or a huge fraction raised OverflowError here, and a Decimal built the cover,
        # where from_edges refused each; a cover holding the id beside singletons of the other vertices is accepted
        # exactly where an edge (id, 3) is, and for the same vertex
        def accepts(build):
            try:
                build()
            except InputError:
                return False
            return True

        g = generate_graph("path", 4)
        edge = accepts(lambda: WeightedGraph.from_edges(4, [(vertex_id, 3, 1.0)]))
        assert edge == (vertex is not None)
        if edge:
            assert WeightedGraph.from_edges(4, [(vertex_id, 3, 1.0)]).edges() == [(vertex, 3, 1.0)]
        covered = [u for u in range(4)
                   if accepts(lambda: validate_partition(g, [[vertex_id], *([v] for v in range(4) if v != u)]))]
        assert covered == ([] if vertex is None else [vertex])

    @settings(max_examples=200)
    @given(st.integers(1, 6).flatmap(cluster_lists))
    # n entries that are no cover, each of which only one of the fast test's conditions refuses
    @example((4, [[0, 1], [1, 2]]))  # a vertex in two clusters and a missing one
    @example((4, [[0, 0], [2, 3]]))  # a vertex repeated in its cluster and a missing one
    @example((4, [[0, 1], [], [2, 3]]))  # an empty cluster beside a full cover
    @example((4, [[-1, 1], [2, 4]]))  # ids -1 and n standing in for vertices 0 and 3
    @example((4, [[0.5, 1], [2, 3]]))  # a fractional id, which reads as vertex 0
    def test_refusals_match_a_sequential_check(self, cover):
        # the first offending cluster, and its first fault, as a loop over the clusters finds them
        n, clusters = cover
        expected, seen = None, set()
        for idx, cluster in enumerate(clusters):
            if not all(math.isfinite(v) and v == int(v) for v in cluster):
                expected = f"cluster {idx} has a non-integer vertex id"
            elif not cluster:
                expected = f"cluster {idx} is empty"
            elif len(set(cluster)) < len(cluster):
                expected = f"cluster {idx} has repeated vertices"
            elif min(cluster) < 0 or max(cluster) >= n:
                expected = f"cluster {idx} has out-of-range vertices"
            elif seen & set(cluster):
                expected = f"vertex {min(seen & set(cluster))} appears in more than one cluster"
            if expected:
                break
            seen |= {int(v) for v in cluster}
        if expected is None and len(seen) < n:
            expected = "not covered"
        if expected is None:
            part = validate_partition(complete_graph(n), clusters)
            assert clusters_of(part) == tuple(tuple(sorted(int(v) for v in c)) for c in clusters)
        else:
            with pytest.raises(InputError, match=expected):
                validate_partition(complete_graph(n), clusters)

    def test_valid_by_construction(self, path4):
        _, _, part = path4
        given_fields = {f.name: getattr(part, f.name) for f in dataclasses.fields(ClusterPartition)}
        with pytest.raises(TypeError):
            ClusterPartition(**given_fields)
        with pytest.raises(TypeError):
            ClusterPartition(n=4, lambda1s=(5.0, 5.0), lambda_xi=123.0)
        with pytest.raises(TypeError):
            dataclasses.replace(part, lambda_xi=123.0)
        with pytest.raises(TypeError):
            dataclasses.replace(part)
        assert part.labels.dtype == np.intp and part.labels.tolist() == [0, 0, 1, 1]
        assert part._sqrt_sizes.dtype == float and part._sqrt_sizes.tolist() == [math.sqrt(2.0)] * 2
        for array in (part.labels, part._sqrt_sizes):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_singletons_get_infinite_gap(self):
        g = generate_graph("path", 3)
        part = validate_partition(g, [(0, 1), (2,)])
        assert part.lambda1s[1] == math.inf
        assert part.lambda_xi == pytest.approx(2.0)
        all_single = validate_partition(g, [(0,), (1,), (2,)])
        assert all_single.lambda_xi == math.inf

    @pytest.mark.parametrize("n, seed", [(30, 5), (64, 110)])
    def test_gaps_match_induced_subgraph_eigvalsh(self, n, seed):
        g = generate_graph("erdos-renyi-weighted", n, seed=seed, p=0.3)
        part = validate_partition(g, bfs_partition(g, 1))
        assert part.num_clusters > 1
        for verts, gap in zip(clusters_of(part), part.lambda1s):
            if len(verts) == 1:
                assert gap == math.inf
                continue
            expected = sla.eigvalsh(cluster_laplacian(g, list(verts)))[1]
            assert gap == pytest.approx(expected, rel=1e-12)

    def test_gaps_equal_one_eigensolve_per_cluster_on_er_suite(self, er_suite):
        for graph, _, part in er_suite:
            assert np.array_equal(part.lambda1s, reference_gaps(graph, part))

    @pytest.mark.parametrize("n, seed", [(400, 3), (1000, 4101)])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_gaps_equal_one_eigensolve_per_cluster_on_bfs_covers(self, n, seed, radius):
        graph = generate_graph("random-geometric", n, seed=seed)
        part = validate_partition(graph, bfs_partition(graph, radius))
        assert len({len(c) for c in clusters_of(part)}) > 1  # several block sizes share the buffer
        gaps = reference_gaps(graph, part)
        assert np.array_equal(part.lambda1s, gaps)
        assert part.lambda_xi == gaps.min()

    def test_disconnected_cluster_named_after_connected_ones(self):
        g = generate_graph("path", 8)
        with pytest.raises(InputError, match=r"cluster 2 \(4, 6\) induces a disconnected"):
            validate_partition(g, [(0, 1), (2, 3), (4, 6), (5, 7)])


def first_disconnected(graph, clusters):
    """The refusal of the first cluster whose induced subgraph a breadth-first
    search does not span, or None when every cluster is connected."""
    neighbours = {v: set() for v in range(graph.n)}
    for u, v, _ in graph.edges():
        neighbours[u].add(v)
        neighbours[v].add(u)
    for idx, cluster in enumerate(clusters):
        members, reached = set(cluster), {cluster[0]}
        queue = [cluster[0]]
        for u in queue:
            for v in neighbours[u] & members - reached:
                reached.add(v)
                queue.append(v)
        if reached != members:
            return f"cluster {idx} {tuple(sorted(members))} induces a disconnected subgraph"
    return None


def reweighted(graph, scale, dropped=frozenset(), n=None, extra=()):
    """``graph`` with every weight times ``scale``, the pairs in ``dropped``
    left out, on ``n`` vertices (default ``graph.n``), plus the ``extra`` edges."""
    edges = [(u, v, w * scale) for u, v, w in graph.edges() if (u, v) not in dropped]
    return WeightedGraph.from_edges(graph.n if n is None else n, edges + list(extra))


cover_kinds = st.sampled_from(["erdos-renyi-weighted", "random-geometric", "grid2d"])


class TestGapCertificate:
    """A cluster is connected when its computed gap clears a roundoff floor
    scaled by its size and largest degree; the exact component search runs
    only when some gap does not clear it."""

    @given(kind=cover_kinds, size=st.integers(0, 200), seed=st.integers(0, 1000), radius=st.integers(1, 3),
           exponent=st.integers(-150, 150), data=st.data())
    def test_planted_disconnected_clusters_are_refused(self, kind, size, seed, radius, exponent, data):
        graph = cover_graph(kind, size, seed)
        clusters = bfs_partition(graph, radius)
        candidates = [j for j, cluster in enumerate(clusters) if len(cluster) > 1]
        assume(candidates)
        planted = data.draw(st.sets(st.sampled_from(candidates), min_size=1, max_size=3), label="planted")
        cut = set()
        for j in planted:
            verts = clusters[j]
            side = set(data.draw(st.lists(st.sampled_from(verts), min_size=1, max_size=len(verts) - 1, unique=True),
                                 label=f"side of cluster {j}"))
            cut |= {(min(u, v), max(u, v)) for u in side for v in set(verts) - side}
        planted_graph = reweighted(graph, 10.0 ** exponent, dropped=cut)
        expected = first_disconnected(planted_graph, clusters)
        assert expected.startswith(f"cluster {min(planted)} ")
        with pytest.raises(InputError) as refusal:
            validate_partition(planted_graph, clusters)
        assert str(refusal.value) == expected

    @given(kind=cover_kinds, size=st.integers(0, 200), seed=st.integers(0, 1000), radius=st.integers(1, 3),
           exponent=st.integers(-150, 150))
    def test_separated_gaps_skip_the_component_search(self, kind, size, seed, radius, exponent):
        graph = reweighted(cover_graph(kind, size, seed), 10.0 ** exponent)
        clusters = bfs_partition(graph, radius)

        def no_search(*args):
            raise AssertionError("the exact component search ran")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(partitions, "_components", no_search)
            part = validate_partition(graph, clusters)
        assert np.array_equal(part.lambda1s, reference_gaps(graph, part))
        # well separated: each gap is far above its floor 32 * s * eps * d_max
        degrees = np.zeros(graph.n)
        for u, v, w in graph.edges():
            if part.labels[u] == part.labels[v]:
                degrees[u] += w
                degrees[v] += w
        for verts, gap in zip(clusters_of(part), part.lambda1s):
            if len(verts) > 1:
                assert gap > 1e6 * 32 * len(verts) * np.finfo(float).eps * degrees[list(verts)].max()

    @given(kind=cover_kinds, size=st.integers(0, 200), seed=st.integers(0, 1000), radius=st.integers(1, 3),
           exponent=st.integers(-150, 150), data=st.data())
    def test_faint_bridge_takes_the_exact_check(self, kind, size, seed, radius, exponent, data):
        # A new vertex joins cluster j by one edge of weight 1e-20 of the others,
        # so the cluster is connected but its gap sits below the floor.
        graph = cover_graph(kind, size, seed)
        clusters = bfs_partition(graph, radius)
        candidates = [j for j, cluster in enumerate(clusters) if len(cluster) > 1]
        assume(candidates)
        j = data.draw(st.sampled_from(candidates), label="bridged cluster")
        anchor = data.draw(st.sampled_from(clusters[j]), label="anchor")
        scale = 10.0 ** exponent
        bridged = reweighted(graph, scale, n=graph.n + 1, extra=[(anchor, graph.n, 1e-20 * scale)])
        clusters[j] = clusters[j] + (graph.n,)
        components, searches = partitions._components, []

        def counted(*args):
            searches.append(args)
            return components(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(partitions, "_components", counted)
            part = validate_partition(bridged, clusters)
        assert len(searches) == 1
        assert np.array_equal(part.lambda1s, reference_gaps(bridged, part))

    def test_overflowing_degree_takes_the_exact_check(self):
        # Two weights of 1e308 at vertex 0 sum to inf, so the block's gap is NaN:
        # the disconnected cluster is named, and the connected one, whose NaN
        # gap once left Lambda = inf and certified gamma = 0, is refused. The
        # suite turns warnings into errors, so no overflow warning leaks.
        star = [(0, 1, 1e308), (0, 2, 1e308)]
        graph = WeightedGraph.from_edges(5, star + [(3, 4, 1.0)])
        with pytest.raises(InputError) as refusal:
            validate_partition(graph, [(3,), (0, 1, 2, 4)])
        assert str(refusal.value) == "cluster 1 (0, 1, 2, 4) induces a disconnected subgraph"
        with pytest.raises(NumericalError) as overflow:
            validate_partition(WeightedGraph.from_edges(3, star), [(0, 1, 2)])
        assert str(overflow.value) == "cluster 0 has a non-finite spectral gap nan: its weights overflow"
        # a single 1e308 edge keeps its degree finite, but its gap 2e308 is inf
        with pytest.raises(NumericalError, match="cluster 1 has a non-finite spectral gap inf"):
            validate_partition(WeightedGraph.from_edges(3, [(1, 2, 1e308)]), [(0,), (1, 2)])


def draw_shuffled_partition(data):
    """Any vertex set of a complete graph is connected, so every split of a
    shuffled vertex order, in shuffled cluster order, is a partition: the
    drawn clusters, and the partition they make."""
    n = data.draw(st.integers(1, 24), label="n")
    order = data.draw(st.permutations(range(n)), label="vertex order")
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1), label="cuts")) if n > 1 else []
    pieces = [tuple(order[lo:hi]) for lo, hi in zip([0] + cuts, cuts + [n])]
    clusters = data.draw(st.permutations(pieces), label="cluster order")
    return clusters, validate_partition(complete_graph(n), clusters)


class TestAverageFunctionals:
    def test_pair_average_formula(self):
        g = generate_graph("path", 6)
        part = validate_partition(g, pairs_partition(6))
        f = np.array([3.0, 5.0, 1.0, 1.0, 0.0, 2.0])
        s = analyze(part, f)
        assert s[0] == pytest.approx((3.0 + 5.0) / math.sqrt(2.0), abs=1e-15)

    def test_constant_signal_saturates_upper_bound(self, path4):
        _, _, part = path4
        f = np.ones(4)
        s = analyze(part, f)
        assert s == pytest.approx([math.sqrt(2.0)] * 2, abs=1e-15)
        assert float(s @ s) == pytest.approx(float(f @ f), abs=1e-12)

    def test_indicator_orthonormality(self, path4):
        _, _, part = path4
        xi = dense_indicators(part)
        s = analyze(part, xi[0])
        assert s == pytest.approx([1.0, 0.0], abs=1e-15)
        gram = xi @ xi.T
        # disjoint supports make the off-diagonal exactly zero; the diagonal
        # is 1 up to one rounding of 1/sqrt(size)
        assert gram[0, 1] == 0.0 and gram[1, 0] == 0.0
        assert np.diag(gram) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_length_mismatch(self, path4):
        _, _, part = path4
        with pytest.raises(InputError):
            analyze(part, np.zeros(5))
        with pytest.raises(InputError):
            analyze(part, np.zeros(3))

    @given(st.data())
    def test_label_vector_matches_functional_rows(self, data):
        clusters, part = draw_shuffled_partition(data)
        n = part.n
        f = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n), label="f"))

        for j, verts in enumerate(clusters):
            assert (part.labels[list(verts)] == j).all()
        xi = dense_indicators(part)
        scale = 1e-12 * (1.0 + np.abs(xi) @ np.abs(f))
        assert (np.abs(analyze(part, f) - xi @ f) <= scale).all()

    @given(st.data())
    def test_layout_of_shuffled_covers(self, data):
        # clusters listed out of order, each with its vertices unsorted
        clusters, part = draw_shuffled_partition(data)
        n, J, eps = part.n, len(clusters), np.finfo(float).eps
        xi, H = partitions._indicators(part, n), partitions._contrasts(part)
        assert xi.shape == (J, n) and H.shape == (n, n - J)
        for j, verts in enumerate(clusters):
            row = slice(xi.indptr[j], xi.indptr[j + 1])
            assert xi.indices[row].tolist() == sorted(verts)
            assert (xi.data[row] == 1.0 / math.sqrt(len(verts))).all()
        basis = np.vstack([xi.toarray(), H.T.toarray()])
        assert np.max(np.abs(basis @ basis.T - np.eye(n))) <= 4 * n * eps
        contrasts = H.toarray()
        for verts in clusters:
            assert np.max(np.abs(contrasts[list(verts)].sum(axis=0)), initial=0.0) <= 4 * n * eps
        # each contrast lives on one cluster
        assert all(np.unique(part.labels[np.flatnonzero(column)]).size == 1 for column in contrasts.T)

    @given(st.data())
    def test_cluster_rows_match_dense_indicators(self, data):
        part = draw_shuffled_partition(data)[1]
        n = part.n
        m = data.draw(st.integers(1, 4), label="columns")
        M = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n * m, max_size=n * m),
                               label="matrix")).reshape(n, m)
        singletons = validate_partition(complete_graph(n), [(v,) for v in range(n)][::-1])
        for p in (part, singletons):
            xi = dense_indicators(p)
            scale = 1e-12 * (1.0 + np.abs(xi) @ np.abs(M))
            assert _cluster_rows(p, M).shape == (p.num_clusters, m)
            assert (np.abs(_cluster_rows(p, M) - xi @ M) <= scale).all()

    @given(st.data())
    def test_cluster_rows_bits_equal_the_coo_product_on_shuffled_covers(self, data):
        part = draw_shuffled_partition(data)[1]
        n = part.n
        m = data.draw(st.integers(1, 4), label="columns")
        M = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n * m, max_size=n * m),
                               label="matrix")).reshape(n, m)
        assert _cluster_rows(part, M).tobytes() == coo_cluster_rows(part, M).tobytes()

    @pytest.mark.parametrize("kind, n", [("path", 64), ("grid2d", 100), ("random-geometric", 400),
                                         ("erdos-renyi-weighted", 40)])
    def test_cluster_rows_bits_equal_the_coo_product(self, kind, n):
        # The direct CSR must add each cluster's rows in the COO-built CSR's
        # order, vertex ascending, one at a time. Not every segment sum does:
        # np.add.reduceat adds a segment's first row to the sum of its tail
        # (x0 + (x1 + x2) for three rows), so on path 240 in blocks of 3
        # every row of the full eigenvector matrix's cluster sums differed
        # from the CSR product's in the last bits.
        graph = generate_graph(kind, n, seed=7)
        decomp = eigendecompose(build_laplacian(graph))
        band = pw_space(decomp, float(np.median(decomp.eigenvalues))).basis
        # Any vertex set of a complete graph is connected, so pairs and
        # blocks of 16 are covers there whatever the graph's edges.
        covers = [validate_partition(complete_graph(n), pairs_partition(n)),
                  validate_partition(complete_graph(n), blocks_partition(n, 16))]
        covers += [validate_partition(graph, bfs_partition(graph, radius)) for radius in (1, 2, 3)]
        # all singletons, and one cluster, whose single row sums all n vertices one at a time; on
        # random-geometric 400 both matrices span several column blocks, the last overlapping the one before
        covers += [validate_partition(graph, blocks_partition(n, 1)), validate_partition(graph, [tuple(range(n))])]
        for part in covers:
            for matrix in (band, decomp.eigenvectors):
                assert _cluster_rows(part, matrix).tobytes() == coo_cluster_rows(part, matrix).tobytes()

    def test_frame_set_up_builds_no_sparse_matrix(self, monkeypatch):
        """The analysis rows are one bincount: building a frame constructs no scipy CSR matrix."""
        graph = generate_graph("grid2d", 100)
        decomp, part = eigendecompose(build_laplacian(graph)), validate_partition(graph, bfs_partition(graph, 1))

        def refuse(*args, **kwargs):
            raise AssertionError("the frame set-up built a CSR matrix")

        monkeypatch.setattr(partitions, "csr_matrix", refuse)
        frame = build_frame_system(decomp, part, 3.22, 1.0)
        monkeypatch.undo()
        assert frame.analysis.tobytes() == coo_cluster_rows(part, frame.basis).tobytes()


class TestFrameSystem:
    def test_size_rule_refuses_frames_and_splines_after_alpha_and_band(self):
        graph8 = generate_graph("path", 8)
        partition8 = validate_partition(graph8, pairs_partition(8))
        decomp6 = eigendecompose(build_laplacian(generate_graph("path", 6)))
        for refused in (lambda: build_frame_system(decomp6, partition8, 0.5, 1.0),
                        lambda: interpolate(decomp6, partition8, np.ones(8), 1),
                        lambda: solve_spline(decomp6, partition8, np.ones(4), 1),
                        # the sweep, with a signal of either size
                        lambda: spline_convergence_experiment(decomp6, partition8, 0.5, 1.0, np.ones(6), [1]),
                        lambda: spline_convergence_experiment(decomp6, partition8, 0.5, 1.0, np.ones(8), [1, 2])):
            with pytest.raises(InputError, match="^partition and decomposition sizes differ$"):
                refused()
        with pytest.raises(InputError, match="^alpha must be positive"):
            build_frame_system(decomp6, partition8, -1.0, 0.0)
        with pytest.raises(InputError, match="^bandwidth must be nonnegative"):
            build_frame_system(decomp6, partition8, -1.0, 1.0)

    def test_bounds_dual_and_gram_are_derived(self, path64):
        _, d, part = path64
        frame = build_frame_system(d, part, omega=0.5, alpha=1.0)
        rebuilt = _frame(frame.analysis, frame.basis, frame.omega, frame.alpha, part.lambda_xi)
        assert (rebuilt.lower, rebuilt.upper) == (frame.lower, frame.upper)
        assert np.array_equal(rebuilt.pinv, frame.pinv) and np.array_equal(rebuilt.gram, frame.gram)
        assert np.array_equal(frame.gram, frame.analysis.T @ frame.analysis)
        assert np.array_equal(rebuilt.singular_values, frame.singular_values)
        assert np.array_equal(rebuilt.right_vectors, frame.right_vectors)
        right, singular = frame.right_vectors, frame.singular_values
        assert np.allclose(right.T @ right, np.eye(frame.dim), atol=1e-13)
        assert np.allclose(right @ (singular[:, None] ** 2 * right.T), frame.gram, atol=1e-13)
        assert (singular[0] ** 2, singular[-1] ** 2) == (frame.upper, frame.lower)
        for name in ("analysis", "pinv", "gram", "singular_values", "right_vectors"):
            assert not getattr(frame, name).flags.writeable
        assert rebuilt.gamma == frame.gamma == _gamma(0.5, 1.0, part.lambda_xi)
        # no field is given from outside, so none can disagree with the others
        fields = {f.name: getattr(frame, f.name) for f in dataclasses.fields(FrameSystem)}
        assert "partition" not in fields and not hasattr(FrameSystem, "__post_init__")
        with pytest.raises(TypeError):
            FrameSystem(**fields)
        for name, value in fields.items():
            with pytest.raises(TypeError):
                FrameSystem(**{name: value})

    def test_gamma_cannot_be_forged(self, path64):
        # replace() once kept a gamma=3.0 frame's analysis matrix but reported
        # the gamma and guarantee_active of omega=0.1
        _, d, part = path64
        frame = build_frame_system(d, part, omega=3.0, alpha=1.0)
        assert not frame.guarantee_active
        for change in ({"omega": 0.1}, {"alpha": 4.0}, {"gamma": 0.1}, {}):
            with pytest.raises(TypeError):
                dataclasses.replace(frame, **change)
        assert (frame.omega, frame.alpha, frame.gamma) == (3.0, 1.0, _gamma(3.0, 1.0, part.lambda_xi))

    def test_gamma_without_positive_gap_has_no_guarantee(self):
        # frames once reported gamma = 0 here and splines divided by zero
        assert _gamma(0.5, 1.0, 0.0) == math.inf
        assert _gamma(0.5, 1.0, -1.0) == math.inf

    def test_full_band_has_kernel(self, path4):
        _, d, part = path4
        frame = build_frame_system(d, part, omega=4.0, alpha=1.0)
        assert frame.dim == 4
        assert frame.lower == 0.0
        assert not frame.is_frame

    def test_constants_only_band_is_tight(self, path4):
        # brute force: the only unit band vector is constant, and its two
        # scaled averages are both 1/sqrt(2), so the sum of squares is 1.
        _, d, part = path4
        frame = build_frame_system(d, part, omega=0.5, alpha=1.0)
        assert frame.dim == 1
        assert frame.lower == pytest.approx(1.0, abs=1e-12)
        assert frame.upper == pytest.approx(1.0, abs=1e-12)

    def test_path64_bounds_and_gamma(self, path64):
        _, d, part = path64
        frame = build_frame_system(d, part, omega=0.5, alpha=1.0)
        assert frame.gamma == pytest.approx(0.5, abs=1e-15)
        assert frame.guarantee_active
        assert frame.lower >= (1.0 - frame.gamma) / (1.0 + frame.alpha) - 1e-9
        assert frame.upper <= 1.0 + 1e-9

    def test_frame_bounds_against_gram_eigenvalues(self, path64):
        # independent route: extreme eigenvalues of the Gram matrix A^T A
        _, d, part = path64
        frame = build_frame_system(d, part, omega=0.5, alpha=1.0)
        gram_eigs = np.linalg.eigvalsh(frame.analysis.T @ frame.analysis)
        assert frame.lower == pytest.approx(float(gram_eigs[0]), rel=1e-10)
        assert frame.upper == pytest.approx(float(gram_eigs[-1]), rel=1e-10)

    def test_upper_bound_never_exceeded(self, path64):
        _, d, part = path64
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(50):
            f = rng.standard_normal(64)
            s = analyze(part, f)
            assert float(s @ s) <= float(f @ f) + 1e-10

    def test_lower_bound_on_band_signals(self, path64):
        _, d, part = path64
        frame = build_frame_system(d, part, omega=0.5, alpha=1.0)
        floor = (1.0 - frame.gamma) / (1.0 + frame.alpha)
        for seed in range(30):
            f = generate_pw_signal(d, 0.5, seed)
            s = analyze(part, f)
            assert float(s @ s) >= floor * float(f @ f) - 1e-9

    def test_bad_alpha_rejected(self, path4):
        _, d, part = path4
        with pytest.raises(InputError):
            build_frame_system(d, part, omega=0.5, alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, path4, alpha):
        _, d, part = path4
        with pytest.raises(InputError, match="alpha must be positive and finite"):
            build_frame_system(d, part, omega=0.5, alpha=alpha)
        with pytest.raises(InputError, match="alpha must be positive and finite"):
            _gamma(0.5, alpha, part.lambda_xi)

    def test_bad_alpha_refused_before_the_band(self, path4, monkeypatch):
        _, d, part = path4

        def refuse(*args):
            raise AssertionError("band formed before alpha was checked")

        monkeypatch.setattr("avgsampling.partitions.pw_space", refuse)
        with pytest.raises(InputError, match="alpha"):
            build_frame_system(d, part, omega=0.5, alpha=math.nan)


class TestLocalDeviationBound:
    def test_per_cluster_on_random_signals(self, er_suite):
        for g, d, part in er_suite[:4]:
            rng = np.random.Generator(np.random.PCG64(13))
            for _ in range(5):
                f = rng.standard_normal(g.n)
                for verts, gap in zip(clusters_of(part), part.lambda1s):
                    local = f[list(verts)]
                    dev = local - local.mean()
                    lhs = float(dev @ dev)
                    if math.isinf(gap):
                        assert lhs <= 1e-12
                        continue
                    rhs = float(local @ cluster_laplacian(g, list(verts)) @ local) / gap
                    assert lhs <= rhs + 1e-9 * max(1.0, lhs)


class TestGlobalPoincare:
    def test_constant_signal(self, path4):
        _, d, part = path4
        f = np.full(4, 2.5)
        lhs, slack = float(f @ f), energy_slack(d, part, f, alpha=1.0)
        assert slack >= -1e-9 * max(1.0, lhs)
        # gradient term vanishes; rhs reduces to (1+alpha)*lhs
        assert lhs + slack == pytest.approx(2.0 * lhs, rel=1e-12)

    def test_random_signals(self, path64):
        _, d, part = path64
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(25):
            f = rng.standard_normal(64)
            f /= np.linalg.norm(f)
            assert energy_slack(d, part, f, alpha=1.0) >= -1e-9

    def test_local_eigenvector_extended_by_zero(self, path64):
        g, d, part = path64
        verts = list(clusters_of(part)[3])
        sub_d = eigendecompose(cluster_laplacian(g, verts))
        f = np.zeros(64)
        f[verts] = sub_d.eigenvectors[:, 1]
        for alpha in (0.5, 1.0, 4.0):
            assert energy_slack(d, part, f, alpha=alpha) >= -1e-9 * max(1.0, float(f @ f))

    def test_all_singletons(self):
        g = generate_graph("path", 4)
        part = validate_partition(g, [(0,), (1,), (2,), (3,)])
        f = np.array([1.0, -2.0, 0.5, 3.0])
        lhs, slack = float(f @ f), energy_slack(eigendecompose(build_laplacian(g)), part, f, alpha=2.0)
        assert slack >= -1e-9 * max(1.0, lhs)
        assert lhs + slack == pytest.approx(3.0 * lhs, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_iterated_power_inequality(self, path64, k):
        """Chain the energy inequality with operator powers: with
        A = sqrt((1+alpha) * sum of squared averages) and
        a = sqrt((1+alpha)/alpha / Lambda), norm(f) <= A + a*norm(L^{1/2}f)
        implies norm(f) <= k*A + 8**(k-1) * a**k * norm(L^{k/2}f) for k = 2^l."""
        _, d, part = path64
        alpha = 1.0
        a = math.sqrt((1.0 + alpha) / alpha / part.lambda_xi)
        rng = np.random.Generator(np.random.PCG64(23))
        for _ in range(5):
            f = rng.standard_normal(64)
            s = analyze(part, f)
            A = math.sqrt((1.0 + alpha) * float(s @ s))
            half = power(d, 1, f)
            assert np.linalg.norm(f) <= A + a * np.linalg.norm(half) + 1e-9
            powered = power(d, k, f)
            bound = k * A + 8.0 ** (k - 1) * a ** k * np.linalg.norm(powered)
            assert np.linalg.norm(f) <= bound + 1e-9


def reference_bfs(graph, radius):
    """Greedy BFS balls as hop distances: each ball holds the unassigned
    vertices within ``radius`` hops of its start in the subgraph the
    unassigned vertices induce, the start being the least unassigned vertex."""
    neighbours = {v: set() for v in range(graph.n)}
    for u, v, _ in graph.edges():
        neighbours[u].add(v)
        neighbours[v].add(u)
    unassigned, clusters = set(range(graph.n)), []
    while unassigned:
        start = min(unassigned)
        distance, queue = {start: 0}, [start]
        for u in queue:
            if distance[u] < radius:
                for v in sorted(neighbours[u] & unassigned):
                    if v not in distance:
                        distance[v] = distance[u] + 1
                        queue.append(v)
        unassigned -= set(distance)
        clusters.append(tuple(sorted(distance)))
    return clusters


def reference_gaps(graph, partition):
    """Each cluster's gap from its own block, built as the partition code
    builds it (zeros, -w off the diagonal, minus the row sums on it) and
    solved alone by ``np.linalg.eigvalsh``; inf for a singleton."""
    clusters = clusters_of(partition)
    index = {v: (j, i) for j, verts in enumerate(clusters) for i, v in enumerate(verts)}
    blocks = [np.zeros((len(verts), len(verts))) for verts in clusters]
    for u, v, w in graph.edges():
        (ju, iu), (jv, iv) = index[u], index[v]
        if ju == jv:
            blocks[ju][iu, iv] = blocks[ju][iv, iu] = -w
    gaps = []
    for block in blocks:
        if len(block) == 1:
            gaps.append(math.inf)
            continue
        block[np.diag_indices(len(block))] = -block.sum(axis=1)
        gaps.append(np.linalg.eigvalsh(block)[1])
    return np.array(gaps)


def cover_graph(kind, size, seed):
    """An erdos-renyi-weighted, random-geometric or grid2d graph of a drawn size."""
    if kind == "grid2d":
        return generate_graph(kind, (size % 15 + 1) ** 2)
    if kind == "erdos-renyi-weighted":
        return generate_graph(kind, size % 39 + 2, seed=seed, p=0.3)
    return generate_graph(kind, size + 20, seed=seed)


class TestPartitionGenerators:
    def test_pairs_requires_even(self):
        with pytest.raises(InputError):
            pairs_partition(5)

    def test_blocks_cover_everything(self):
        g = generate_graph("path", 10)
        part = validate_partition(g, blocks_partition(10, 3))
        assert clusters_of(part) == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9,))

    def test_bfs_partition_valid_on_random_graphs(self, er_suite):
        for g, _, part in er_suite[:3]:
            assert sum(map(len, clusters_of(part))) == g.n

    @pytest.mark.parametrize("size", [0, -1, 2.5, True, None])
    def test_blocks_rejects_bad_size(self, size):
        with pytest.raises(InputError, match="block size must be a positive integer"):
            blocks_partition(8, size)

    @pytest.mark.parametrize("make", [pairs_partition, lambda n: blocks_partition(n, 2)], ids=["pairs", "blocks"])
    @pytest.mark.parametrize("n", [4.0, True, 0, -2])
    def test_cover_makers_refuse_a_bad_vertex_count(self, make, n):
        # 4.0 raised a bare TypeError, True gave one block, and 0 or -2 gave no clusters
        with pytest.raises(InputError, match="^n must be a positive integer"):
            make(n)

    @pytest.mark.parametrize("radius", [-1, 1.5, True, None])
    def test_bfs_rejects_bad_radius(self, radius):
        with pytest.raises(InputError, match="radius must be a nonnegative integer"):
            bfs_partition(generate_graph("path", 5), radius)

    def test_bfs_radius_zero_gives_singletons(self):
        g = generate_graph("path", 5)
        assert bfs_partition(g, 0) == [(i,) for i in range(5)]

    @settings(max_examples=60)
    @given(kind=st.sampled_from(["erdos-renyi-weighted", "random-geometric", "grid2d"]),
           size=st.integers(0, 280), seed=st.integers(0, 1000), radius=st.integers(0, 4))
    def test_bfs_matches_hop_distance_reference(self, kind, size, seed, radius):
        graph = cover_graph(kind, size, seed)
        assert bfs_partition(graph, radius) == reference_bfs(graph, radius)


class TestOptimalAlpha:
    def test_matches_closed_form(self):
        # maximizing (1 - (1+a)/a * r)/(1 + a) over a gives a* = (r + sqrt(r))/(1 - r)
        for omega, lam in [(0.5, 2.0), (1.5, 2.0), (0.2, 1.0)]:
            r = omega / lam
            expected_alpha = (r + math.sqrt(r)) / (1.0 - r)
            expected_bound = (1.0 - (1.0 + expected_alpha) / expected_alpha * r) / (1.0 + expected_alpha)
            alpha_star, bound = optimal_alpha(omega, lam)
            assert bound == pytest.approx(expected_bound, rel=1e-9)
            assert alpha_star == pytest.approx(expected_alpha, rel=1e-5)

    def test_rejects_omega_at_or_above_gap(self):
        with pytest.raises(InputError):
            optimal_alpha(2.0, 2.0)

    @pytest.mark.parametrize("omega", [-0.5, -1e-300, math.nan])
    def test_rejects_negative_omega(self, omega):
        # a negative bandwidth once "certified" a lower frame bound of 5.1e9
        with pytest.raises(InputError, match="nonnegative"):
            optimal_alpha(omega, 2.0)

    @pytest.mark.parametrize("lambda_xi, gamma", [(math.nan, math.inf), (-math.inf, math.inf),
                                                  (math.inf, 0.0), (0.0, math.inf)])
    def test_point_samples_only_for_infinite_constant(self, lambda_xi, gamma):
        # a NaN or -inf constant once certified the point-sample answer (0.0, 1.0)
        assert _gamma(0.5, 1.0, lambda_xi) == gamma
        if lambda_xi == math.inf:
            assert optimal_alpha(0.5, lambda_xi) == (0.0, 1.0)
        else:
            with pytest.raises(InputError, match="is NaN" if math.isnan(lambda_xi) else "no alpha yields"):
                optimal_alpha(0.5, lambda_xi)

    def test_zero_omega_matches_point_samples(self):
        assert optimal_alpha(0.0, 2.0) == (0.0, 1.0)
        assert optimal_alpha(0.0, math.inf) == optimal_alpha(0.7, math.inf) == (0.0, 1.0)

    @pytest.mark.parametrize("omega", [1.999999, 2.0 - 1e-12, math.nextafter(2.0, 0.0)])
    def test_ratio_close_to_one(self, omega):
        # once a raw scipy ValueError: the search interval's lower end passed its upper end
        alpha_star, bound = optimal_alpha(omega, 2.0)
        with localcontext() as ctx:
            ctx.prec = 60
            root = (Decimal(omega) / Decimal(2.0)).sqrt()
            expected_alpha = float(root / (1 - root))
            expected_bound = float((1 - root) ** 2)
        assert alpha_star == pytest.approx(expected_alpha, rel=1e-12)
        assert bound == pytest.approx(expected_bound, rel=1e-12)
        assert 0.0 < bound < 1e-12
