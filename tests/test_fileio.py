"""Edge-list, signal, and partition file formats."""
import numpy as np
import pytest

from avgsampling import InputError, generate_graph
from avgsampling.fileio import (
    read_edge_list,
    read_partition,
    read_signal,
    write_edge_list,
    write_partition,
    write_signal,
)


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = generate_graph("erdos-renyi-weighted", 12, seed=1, p=0.4)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.n == g.n
        assert back.edges() == g.edges()

    def test_parse_basic(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n=3\n0\t1\t1.0\n1\t2\t0.5\n", encoding="utf-8")
        g = read_edge_list(path)
        assert g.edges() == [(0, 1, 1.0), (1, 2, 0.5)]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0\t1\t1.0\n", "header"),
            ("n=three\n", "vertex count"),
            ("n=3\n1\t0\t1.0\n", "u < v"),
            ("n=3\n0\t1\t-2.0\n", "positive"),
            ("n=3\n0\t1\t1.0\n0\t1\t2.0\n", "duplicate"),
            ("n=3\n0\t5\t1.0\n", "out of range"),
            ("n=3\n0 1 1.0\n", "TAB"),
        ],
    )
    def test_malformed_rejected(self, tmp_path, body, message):
        path = tmp_path / "bad.edges"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(InputError, match=message):
            read_edge_list(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_weight_names_its_line(self, tmp_path, weight):
        path = tmp_path / "bad.edges"
        path.write_text(f"n=3\n# comment\n0\t1\t1.0\n1\t2\t{weight}\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}:4: edge weight must be positive and finite, got {float(weight)}"

    @pytest.mark.parametrize("body, message", [
        ("n=3\n0\t1\t1.0\n1\t2\t1.0\n0\t1\t2.0\n", "duplicate edge (0,1)"),
        ("n=0\n", "graph needs at least one vertex, got n=0"),
    ])
    def test_graph_rules_name_the_file(self, tmp_path, body, message):
        # the graph constructor's own refusals, re-raised with the path
        path = tmp_path / "bad.edges"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}: {message}"


class TestSignalFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        f = np.random.Generator(np.random.PCG64(2)).standard_normal(9)
        path = tmp_path / "f.sig"
        write_signal(f, path)
        assert np.array_equal(read_signal(path, n=9), f)

    def test_length_checked(self, tmp_path):
        path = tmp_path / "f.sig"
        write_signal(np.zeros(4), path)
        with pytest.raises(InputError, match="expected 5"):
            read_signal(path, n=5)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "f.sig"
        path.write_text("1.0\noops\n", encoding="utf-8")
        with pytest.raises(InputError, match="unparsable"):
            read_signal(path, n=2)


class TestPartitionFile:
    def test_roundtrip(self, tmp_path):
        clusters = [(0, 1), (2,), (3, 4, 5)]
        path = tmp_path / "p.part"
        write_partition(clusters, path)
        assert read_partition(path) == clusters

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "p.part"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(InputError, match="empty"):
            read_partition(path)
