"""Edge-list, signal, and partition file formats."""
import numpy as np
import pytest

from avgsampling import InputError, generate_graph
from avgsampling.fileio import read_edge_list, read_partition, read_signal

from conftest import write_rows


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = generate_graph("erdos-renyi-weighted", 12, seed=1, p=0.4)
        path = write_rows(tmp_path / "g.edges", g.edges(), sep="\t", header=f"n={g.n}")
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
            # int() reads both as 10
            ("n=1_0\n", "vertex count"),
            ("n=\u0661\u0660\n", "vertex count"),
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

    @pytest.mark.parametrize("body, message", [
        ("", ": empty edge-list file"),
        ("# only a comment\n\n", ": empty edge-list file"),
        ("n=3\n0\tx\t1.0\n", ":2: unparsable edge line '0\\tx\\t1.0'"),
        # read as the edge (0, 10), and as the weight 10.5
        ("n=11\n0\t1_0\t1.0\n", ":2: unparsable edge line '0\\t1_0\\t1.0'"),
        ("n=11\n0\t1\t1_0.5\n", ":2: unparsable edge line '0\\t1\\t1_0.5'"),
        ("n=11\n0\t\u0661\u0660\t1.0\n", ":2: unparsable edge line '0\\t\u0661\u0660\\t1.0'"),
    ], ids=["empty", "comment only", "unparsable", "underscore id", "underscore weight", "non-ASCII digits"])
    def test_empty_file_and_unparsable_line_are_refused(self, tmp_path, body, message):
        path = tmp_path / "bad.edges"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}{message}"

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_weight_names_its_line(self, tmp_path, weight):
        path = tmp_path / "bad.edges"
        path.write_text(f"n=3\n# comment\n0\t1\t1.0\n1\t2\t{weight}\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}:4: edge weight must be positive and finite, got {float(weight)}"

    @pytest.mark.parametrize("body, message", [
        ("n=3\n0\t1\t1.0\n1\t2\t1.0\n0\t1\t2.0\n", "duplicate edge (0,1)"),
        ("n=0\n", "n must be a positive integer, got 0"),
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
        path = write_rows(tmp_path / "f.sig", zip(f.tolist()))
        assert np.array_equal(read_signal(path, n=9), f)

    def test_length_checked(self, tmp_path):
        path = write_rows(tmp_path / "f.sig", [[0.0]] * 4)
        with pytest.raises(InputError, match=r"signal has shape \(4,\), expected \(5,\)$"):
            read_signal(path, n=5)

    @pytest.mark.parametrize("line", ["1_0.5", "\u0661.5"], ids=["underscore", "non-ASCII digit"])
    def test_digits_float_reads_but_the_format_forbids(self, tmp_path, line):
        # read as 10.5 and as 1.5
        path = tmp_path / "f.sig"
        path.write_text(f"1.0\n{line}\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_signal(path, n=2)
        assert str(err.value) == f"{path}:2: unparsable signal value {line!r}"

    def test_bad_value(self, tmp_path):
        path = tmp_path / "f.sig"
        path.write_text("1.0\noops\n", encoding="utf-8")
        with pytest.raises(InputError, match="unparsable"):
            read_signal(path, n=2)


class TestPartitionFile:
    def test_roundtrip(self, tmp_path):
        clusters = [(0, 1), (2,), (3, 4, 5)]
        path = write_rows(tmp_path / "p.part", clusters)
        assert read_partition(path) == clusters

    def test_unparsable_line_names_it(self, tmp_path):
        path = tmp_path / "p.part"
        path.write_text("0 1\n# comment\n2 x\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_partition(path)
        assert str(err.value) == f"{path}:3: unparsable cluster line '2 x'"

    @pytest.mark.parametrize("line", ["0 1_0", "0 \u0661"], ids=["underscore", "non-ASCII digit"])
    def test_digits_int_reads_but_the_format_forbids(self, tmp_path, line):
        # read as the cluster (0, 10) and as (0, 1)
        path = tmp_path / "p.part"
        path.write_text(f"2 3\n{line}\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_partition(path)
        assert str(err.value) == f"{path}:2: unparsable cluster line {line!r}"

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "p.part"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(InputError, match="empty"):
            read_partition(path)
