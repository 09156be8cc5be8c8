"""CLI subcommands, output formats, exit codes, and the public names' callers."""
import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avgsampling
from avgsampling.cli import build_parser, main
from avgsampling import InputError, demo_path, generate_graph

from conftest import write_rows


def child_env(**overrides) -> dict:
    """Environment for a fresh interpreter that imports the package under test,
    installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(avgsampling.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def run_cli(args, capsys):
    """Exit code, stdout and stderr of one run; the parser refuses arguments by SystemExit."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_csv_matches_cos_formula(self, capsys):
        code, out, _ = run_cli(["spectrum", "--generate", "path", "--n", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        values = [float(row.split(",")[1]) for row in lines[1:]]
        expected = [2 - 2 * math.cos(k * math.pi / 4) for k in range(4)]
        assert values == pytest.approx(expected, abs=1e-9)

    def test_json_lists_the_eigenvalues(self, capsys):
        code, out, _ = run_cli(["spectrum", "--generate", "path", "--n", "4", "--format", "json"], capsys)
        assert code == 0 and out.endswith("\n") and list(json.loads(out)) == ["eigenvalues"]
        expected = [2 - 2 * math.cos(k * math.pi / 4) for k in range(4)]
        assert json.loads(out)["eigenvalues"] == pytest.approx(expected, abs=1e-9)

    def test_generate_without_n_is_refused(self, capsys):
        code, out, err = run_cli(["spectrum", "--generate", "path"], capsys)
        assert (code, out, err) == (1, "", "error: --generate requires --n\n")

    def test_from_file(self, tmp_path, capsys):
        g = generate_graph("cycle", 5)
        path = write_rows(tmp_path / "g.edges", g.edges(), sep="\t", header=f"n={g.n}")
        code, out, _ = run_cli(["spectrum", "--graph", str(path)], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 6


class TestFrameCheck:
    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            ["frame-check", "--generate", "path", "--n", "64", "--clusters", "pairs",
             "--omega", "1.5", "--alpha", "4"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma"] == pytest.approx(0.9375, abs=1e-15)
        assert payload["lambda_Xi"] == pytest.approx(2.0)
        assert payload["guarantee_active"] is True
        assert payload["a"] >= (1 - 0.9375) / 5 - 1e-9
        assert payload["b"] <= 1 + 1e-9

    def test_partition_file(self, tmp_path, capsys):
        g = generate_graph("path", 6)
        gpath = write_rows(tmp_path / "g.edges", g.edges(), sep="\t", header=f"n={g.n}")
        ppath = write_rows(tmp_path / "p.part", [(0, 1, 2), (3, 4, 5)])
        code, out, _ = run_cli(
            ["frame-check", "--graph", str(gpath), "--partition", str(ppath),
             "--omega", "0.3"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["lambda_Xi"] == pytest.approx(1.0, abs=1e-12)

    def test_singleton_cover_reports_an_infinite_constant_as_a_string(self, capsys):
        # JSON has no infinity, so a non-finite float is written as its repr
        code, out, _ = run_cli(["frame-check", "--generate", "path", "--n", "8", "--clusters", "blocks:1",
                                "--omega", "0.5"], capsys)
        assert code == 0
        assert '"lambda_Xi":"inf"' in out and json.loads(out)["gamma"] == 0.0


class TestReconstructCommand:
    @pytest.mark.parametrize("method", ["frame-iter", "dual"])
    def test_recovers_seeded_signal(self, method, capsys):
        code, out, _ = run_cli(
            ["reconstruct", "--generate", "path", "--n", "64", "--clusters", "pairs",
             "--omega", "0.5", "--method", method, "--random-seed", "7"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == method
        assert payload["rel_error"] <= 1e-8

    def test_default_iteration_settings_print_the_same_bytes(self, capsys):
        argv = ["reconstruct", "--generate", "grid2d", "--n", "100", "--clusters", "bfs:1",
                "--omega", "3.22", "--random-seed", "5", "--method", "frame-iter"]
        plain = run_cli(argv, capsys)
        assert plain[0] == 0 and json.loads(plain[1])["converged"] is True
        assert run_cli([*argv, "--tol", "1e-10", "--max-iter", "10000"], capsys) == plain

    def test_signal_file_roundtrip(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.PCG64(1))
        g = generate_graph("path", 8)
        gpath = write_rows(tmp_path / "g.edges", g.edges(), sep="\t", header=f"n={g.n}")
        spath = write_rows(tmp_path / "f.sig", zip(rng.standard_normal(8).tolist()))
        code, out, _ = run_cli(
            ["reconstruct", "--graph", str(gpath), "--clusters", "pairs",
             "--omega", "0.5", "--signal", str(spath)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["rel_error"] <= 1e-8

    @pytest.mark.parametrize("command", [["reconstruct", "--method", "dual"],
                                         ["reconstruct", "--method", "frame-iter"], ["spline"]])
    def test_signal_without_band_content_refused(self, command, tmp_path, capsys):
        path = write_rows(tmp_path / "zero.sig", [[0.0]] * 8)
        code, out, err = run_cli([*command, "--generate", "path", "--n", "8", "--clusters", "pairs",
                                  "--omega", "0.5", "--signal", str(path)], capsys)
        assert code == 1 and out == ""
        assert err == "error: signal has no content inside the requested band\n"


class TestSplineCommand:
    def test_csv_rows_within_bounds(self, capsys):
        code, out, _ = run_cli(
            ["spline", "--generate", "path", "--n", "64", "--clusters", "pairs",
             "--omega", "0.5", "--random-seed", "3", "--k", "1", "--k", "8"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,rel_error,bound_2gamma_k,within_bound"
        assert len(lines) == 3
        for row in lines[1:]:
            k, rel, bound, ok = row.split(",")
            assert ok == "true"
            assert float(rel) <= float(bound) + 1e-8

    def test_path128_sweeps_every_default_order(self, capsys):
        # order 8 was refused with an estimated condition of 1.9e15; its certified bound is 256
        code, out, err = run_cli(["spline", "--generate", "path", "--n", "128", "--clusters", "pairs",
                                  "--omega", "0.5", "--random-seed", "7", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert [row["k"] for row in rows] == [1, 2, 4, 8]
        assert all(row["within_bound"] is True for row in rows)

    def test_order_over_its_certified_bound_is_exit_two(self, tmp_path, capsys):
        # path64 as one cluster whose halves are joined by 1e-9: both of order 2's bounds are ~4e21
        graph = write_rows(tmp_path / "bridge.edges", [(v, v + 1, 1e-9 if v == 31 else 1.0) for v in range(63)],
                           sep="\t", header="n=64")
        code, out, err = run_cli(["spline", "--graph", str(graph), "--clusters", "blocks:64", "--omega", "1e-11",
                                  "--random-seed", "7"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: order-2 spline system condition bound")

    def test_rgg200_sweeps_every_default_order(self, capsys):
        # order 8's bound (lambda_max/Lambda)**8 is ~4.9e15; lambda_min(A_1)**-8 is ~6.3e8
        code, out, err = run_cli(["spline", "--generate", "random-geometric", "--n", "200", "--seed", "2",
                                  "--clusters", "bfs:2", "--omega", "0.05", "--random-seed", "7", "--format", "json"],
                                 capsys)
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert [row["k"] for row in rows] == [1, 2, 4, 8]
        assert all(row["within_bound"] is True for row in rows)

    def test_json_rows_have_the_demo_report_keys(self, capsys):
        keys = {"k", "rel_error", "bound_2gamma_k", "within_bound", "proved"}
        code, out, _ = run_cli(
            ["spline", "--generate", "path", "--n", "16", "--clusters", "pairs",
             "--omega", "0.5", "--random-seed", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert [set(row) for row in json.loads(out)["rows"]] == [keys] * 4
        code, out, _ = run_cli(["demo-path", "--n", "16", "--omega", "0.5", "--trials", "1"], capsys)
        assert code == 0
        assert [set(row) for row in json.loads(out)["trials"][0]["splines"]] == [keys] * 4


class TestDemoPath:
    def test_byte_identical_reports(self, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            target = tmp_path / name
            code = main(["demo-path", "--n", "64", "--omega", "0.5", "--alpha", "1",
                         "--seed", "42", "--out", str(target)])
            assert code == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]

    def test_gamma_arithmetic(self, capsys):
        code, out, _ = run_cli(
            ["demo-path", "--n", "64", "--omega", "1.5", "--alpha", "4", "--trials", "1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma"] == pytest.approx(0.9375, abs=1e-15)
        assert payload["guarantee_active"] is True

    @pytest.mark.parametrize("omega", ["0.5", "1.0", "2.5"])
    def test_alpha_star_reported_as_frame_check_reports_it(self, omega, capsys):
        # both report the optimal alpha whenever omega < Lambda = 2, also when
        # gamma = 1 at the given alpha (omega = 1.0)
        keys = ("alpha_star", "lower_bound_at_alpha_star")
        reports = []
        for command in (["demo-path", "--n", "16", "--seed", "3", "--trials", "1"],
                        ["frame-check", "--generate", "path", "--n", "16", "--clusters", "pairs"]):
            code, out, _ = run_cli([*command, "--omega", omega], capsys)
            assert code == 0
            payload = json.loads(out)
            reports.append({key: payload[key] for key in keys if key in payload})
        assert reports[0] == reports[1]
        assert set(reports[0]) == (set(keys) if float(omega) < 2.0 else set())
        if omega == "1.0":
            assert reports[0]["alpha_star"] == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)

    def test_gamma_above_one_is_empirical_only(self, capsys):
        code, out, _ = run_cli(
            ["demo-path", "--n", "64", "--omega", "2.5", "--trials", "1"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["guarantee_active"] is False
        assert payload["frame"]["is_frame"] is False
        assert "kernel" in payload["trials"][0]["reconstruction_failure"]

    def test_small_demo_spectrum_row(self, capsys):
        code, out, _ = run_cli(
            ["demo-path", "--n", "4", "--omega", "0.5", "--trials", "1"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        eigs = payload["spectrum"]["eigenvalues"]
        expected = [0.0, 2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)]
        assert eigs == pytest.approx(expected, abs=1e-9)
        assert payload["spectrum"]["within_0_4"] is True

    @pytest.mark.parametrize("n, trials, name", [(16, True, "trials"), (16, 1.5, "trials"),
                                                 (16.0, 3, "n"), (True, 3, "n")])
    def test_integer_rule(self, n, trials, name):
        with pytest.raises(InputError, match=f"^{name} must be a positive integer"):
            demo_path(n, 0.5, 1.0, trials=trials)

    @pytest.mark.parametrize("n", [2, 7])
    def test_even_n_of_at_least_four(self, n):
        with pytest.raises(InputError, match=f"^demo needs an even n >= 4, got {n}$"):
            demo_path(n, 0.5, 1.0, trials=1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, -1, True])
    def test_seed_integer_rule(self, seed):
        """A fractional seed is refused, not recorded as one seed and drawn as another."""
        with pytest.raises(InputError, match="^seed must be a nonnegative integer"):
            demo_path(16, 0.5, 1.0, seed=seed, trials=1)

    def test_bytes_identical_across_blas_thread_counts(self):
        """On the path and on a 10x10 grid, whose spectrum repeats eigenvalues."""
        commands = [
            ["demo-path", "--n", "64", "--omega", "0.5", "--seed", "42"],
            ["reconstruct", "--generate", "grid2d", "--n", "100", "--clusters", "bfs:1",
             "--omega", "3.22", "--method", "frame-iter", "--random-seed", "5"],
        ]
        for command in commands:
            outputs = []
            for threads in ("1", "2"):
                env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                                MKL_NUM_THREADS=threads)
                proc = subprocess.run([sys.executable, "-m", "avgsampling.cli", *command],
                                      capture_output=True, env=env)
                assert proc.returncode == 0, proc.stderr
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], command


class TestInputChecksBeforeEigensolve:
    """Bad graphs, partitions, signals and formats exit 1 without paying for the eigensolve."""

    @pytest.fixture
    def no_eigensolve(self, monkeypatch):
        def refuse(matrix):
            raise AssertionError("eigensolve ran before the input checks")

        monkeypatch.setattr("avgsampling.cli.eigendecompose", refuse)

    @pytest.mark.parametrize("command", ["frame-check", "reconstruct", "spline"])
    @pytest.mark.parametrize("partition, message", [
        (["--clusters", "rings:2"], "bad --clusters spec"),
        (["--clusters", "blocks:0"], "block size"),
        (["--partition", "uncovered"], "not covered"),
        (["--partition", "missing"], "No such file"),
        ([], "one of the arguments --partition --clusters is required"),
    ])
    def test_bad_partition(self, command, partition, message, no_eigensolve, tmp_path, capsys):
        if partition[:1] == ["--partition"]:
            path = tmp_path / f"{partition[1]}.clusters"
            if partition[1] == "uncovered":
                path.write_text("0 1\n2 3\n", encoding="utf-8")
            partition = ["--partition", str(path)]
        signal = [] if command == "frame-check" else ["--random-seed", "0"]
        code, out, err = run_cli([command, "--generate", "path", "--n", "6", *partition,
                                  "--omega", "0.5", *signal], capsys)
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize("spec", ["blocks:2.5", "bfs:x", "blocks:", "bfs:"])
    def test_non_integer_cluster_spec(self, spec, no_eigensolve, capsys):
        code, out, err = run_cli(["frame-check", "--generate", "path", "--n", "8", "--clusters", spec,
                                  "--omega", "0.5"], capsys)
        assert code == 1 and out == ""
        assert err == f"error: bad --clusters spec {spec!r}; blocks:<m> and bfs:<r> take integers\n"

    @pytest.mark.parametrize("command", ["frame-check", "reconstruct", "demo-path"])
    def test_csv_format(self, command, no_eigensolve, capsys):
        inputs = {"frame-check": ["--generate", "path", "--clusters", "pairs"],
                  "reconstruct": ["--generate", "path", "--clusters", "pairs", "--random-seed", "0"],
                  "demo-path": []}[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--n", "6", "--omega", "0.5", *inputs, "--format", "csv"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 1 and captured.out == ""
        assert "unrecognized arguments: --format csv" in captured.err

    @pytest.mark.parametrize("command", ["reconstruct", "spline"])
    @pytest.mark.parametrize("signal, message", [
        (["--signal", "short"], "signal has shape (2,), expected (6,)"),
        (["--signal", "unparsable"], "unparsable signal value 'x'"),
        (["--signal", "good", "--random-seed", "0"], "argument --random-seed: not allowed with argument --signal"),
        ([], "one of the arguments --signal --random-seed is required"),
    ])
    def test_bad_signal(self, command, signal, message, no_eigensolve, tmp_path, capsys):
        contents = {"short": "1.0\n2.0\n", "unparsable": "0\n1\nx\n3\n4\n5\n", "good": "0\n1\n2\n3\n4\n5\n"}
        if signal[:1] == ["--signal"]:
            path = tmp_path / f"{signal[1]}.sig"
            path.write_text(contents[signal[1]], encoding="utf-8")
            signal = ["--signal", str(path), *signal[2:]]
        code, out, err = run_cli([command, "--generate", "path", "--n", "6", "--clusters", "pairs",
                                  "--omega", "0.5", *signal], capsys)
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize("command", [["spectrum"], ["reconstruct", "--partition", "missing.clusters",
                                                        "--omega", "0.5", "--signal", "missing.sig"]])
    @pytest.mark.parametrize("graph, message", [
        (["--graph", "missing.edges", "--n", "50"], "--n is read only by --generate, not with --graph"),
        (["--graph", "missing.edges", "--seed", "0"], "--seed is read only by --generate, not with --graph"),
        (["--graph", "missing.edges", "--p", "0.5"], "--p is read only by --generate, not with --graph"),
        (["--graph", "missing.edges", "--radius", "0.1"], "--radius is read only by --generate, not with --graph"),
        (["--generate", "path", "--n", "4", "--p", "0.9"],
         "--p is read only by --generate erdos-renyi-weighted, not by --generate path"),
        (["--generate", "random-geometric", "--n", "20", "--p", "0.9"],
         "--p is read only by --generate erdos-renyi-weighted, not by --generate random-geometric"),
        (["--generate", "path", "--n", "4", "--radius", "0.1"],
         "--radius is read only by --generate random-geometric, not by --generate path"),
        (["--generate", "erdos-renyi-weighted", "--n", "20", "--radius", "0.1"],
         "--radius is read only by --generate random-geometric, not by --generate erdos-renyi-weighted"),
        *[(["--generate", kind, "--n", "4", "--seed", "3"],
           f"--seed is read only by --generate random-geometric or erdos-renyi-weighted, not by --generate {kind}")
          for kind in ("path", "cycle", "grid2d")],
        # the first unread option in the parser's order, whatever the command line's
        *[(["--generate", "path", "--n", "4", *options],
           "--p is read only by --generate erdos-renyi-weighted, not by --generate path")
          for options in (["--p", "0.9", "--radius", "0.1"], ["--radius", "0.1", "--p", "0.9"])],
    ])
    def test_unread_generator_option(self, command, graph, message, no_eigensolve, tmp_path, monkeypatch, capsys):
        """Refused before any file is read: each named file is missing."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli([*command, *graph], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("graph", [
        ["--generate", "path", "--n", "4"],
        ["--generate", "erdos-renyi-weighted", "--n", "20", "--p", "0.5", "--seed", "1"],
        ["--generate", "random-geometric", "--n", "20", "--radius", "0.6", "--seed", "1"],
    ])
    def test_generator_options_read_by_the_kind_reach_the_eigensolve(self, graph, no_eigensolve):
        with pytest.raises(AssertionError, match="eigensolve ran"):
            main(["spectrum", *graph])

    def test_non_finite_weight_file(self, no_eigensolve, tmp_path, capsys):
        path = tmp_path / "nan.edges"
        path.write_text("n=3\n0\t1\t1.0\n1\t2\tnan\n", encoding="utf-8")
        code, out, err = run_cli(["spectrum", "--graph", str(path)], capsys)
        assert code == 1 and out == ""
        assert f"{path}:3: edge weight must be positive and finite, got nan" in err

    @pytest.mark.parametrize("flag, value", [("--mu", "123"), ("--tol", "5"), ("--max-iter", "1")])
    def test_iteration_setting_with_the_dual_method(self, flag, value, no_eigensolve, capsys):
        code, out, err = run_cli(["reconstruct", "--generate", "path", "--n", "16", "--clusters", "pairs",
                                  "--omega", "0.5", "--random-seed", "1", "--method", "dual", flag, value], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {flag} is read only by --method frame-iter, not by --method dual\n"

    @pytest.mark.parametrize("source", [["--generate", "grid2d", "--n", "2025"], ["--graph", "grid.edges"]])
    @pytest.mark.parametrize("flag, value, message", [
        ("--max-iter", "0", "max_iter must be a positive integer, got 0"),
        ("--tol", "nan", "tolerance tol=nan must be finite and positive"),
    ])
    def test_bad_iteration_setting_before_any_file_or_eigensolve(
            self, source, flag, value, message, no_eigensolve, monkeypatch, capsys):
        def refuse(path):
            raise AssertionError("edge list read before the iteration settings were checked")

        monkeypatch.setattr("avgsampling.fileio.read_edge_list", refuse)
        code, out, err = run_cli(["reconstruct", *source, "--clusters", "bfs:1", "--omega", "0.4",
                                  "--method", "frame-iter", flag, value, "--random-seed", "1"], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_valid_input_reaches_the_eigensolve(self, no_eigensolve, capsys):
        with pytest.raises(AssertionError, match="eigensolve ran"):
            main(["frame-check", "--generate", "path", "--n", "6", "--clusters", "pairs",
                  "--omega", "0.5"])


class TestNumbersFollowTheFileRule:
    """Numeric options and the ``--clusters`` integer are read as the file readers read numbers: an underscore or a
    non-ASCII digit, which bare ``int`` and ``float`` accept, exits 1 before anything runs."""

    PATH8 = ["--generate", "path", "--n", "8", "--clusters", "pairs", "--omega", "0.5"]
    OPTIONS = {
        "--n": (["spectrum", "--generate", "path"], "int"),
        "--seed": (["spectrum", "--generate", "random-geometric", "--n", "20"], "int"),
        "--p": (["spectrum", "--generate", "erdos-renyi-weighted", "--n", "8"], "float"),
        "--radius": (["spectrum", "--generate", "random-geometric", "--n", "20"], "float"),
        "--omega": (["frame-check", "--generate", "path", "--n", "8", "--clusters", "pairs"], "float"),
        "--alpha": (["frame-check", *PATH8], "float"),
        "--random-seed": (["reconstruct", *PATH8], "int"),
        "--k": (["spline", *PATH8, "--random-seed", "1"], "int"),
        "--mu": (["reconstruct", *PATH8, "--random-seed", "1", "--method", "frame-iter"], "float"),
        "--tol": (["reconstruct", *PATH8, "--random-seed", "1", "--method", "frame-iter"], "float"),
        "--max-iter": (["reconstruct", *PATH8, "--random-seed", "1", "--method", "frame-iter"], "int"),
        "--trials": (["demo-path", "--n", "8", "--omega", "0.5"], "int"),
    }

    @pytest.mark.parametrize("flag", sorted(OPTIONS))
    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11"], ids=["underscore", "arabic-indic", "fullwidth"])
    def test_option(self, flag, value, capsys):
        argv, kind = self.OPTIONS[flag]
        code, out, err = run_cli([*argv, flag, value], capsys)
        assert code == 1 and out == ""
        assert err.startswith("usage:") and f"error: argument {flag}: invalid {kind} value: {value!r}\n" in err

    @pytest.mark.parametrize("flag", ["--n", "--seed", "--trials"])
    def test_demo_path_option(self, flag, capsys):
        argv = {"--n": ["--n", "8_0"], "--seed": ["--n", "8", "--seed", "1_1"], "--trials": ["--n", "8", "--trials", "\u0663"]}
        code, out, err = run_cli(["demo-path", "--omega", "0.5", *argv[flag]], capsys)
        assert code == 1 and out == ""
        assert err.startswith("usage:") and f"error: argument {flag}: invalid int value: {argv[flag][-1]!r}\n" in err

    def test_underscored_path_and_bandwidth(self, capsys):
        # once ran at n = 64 and omega = 5.0
        code, out, err = run_cli(["frame-check", "--generate", "path", "--n", "6_4", "--clusters", "pairs",
                                  "--omega", "0_5"], capsys)
        assert code == 1 and out == ""
        assert "error: argument --n: invalid int value: '6_4'" in err

    @pytest.mark.parametrize("spec", ["blocks:1_0", "blocks:\u0662", "bfs:1_0", "bfs:\uff11"])
    def test_cluster_spec(self, spec, capsys):
        # blocks:1_0 once ran as blocks:10, and blocks:\u0662 as blocks:2
        code, out, err = run_cli(["frame-check", "--generate", "path", "--n", "64", "--clusters", spec,
                                  "--omega", "0.5"], capsys)
        assert code == 1 and out == ""
        assert err == f"error: bad --clusters spec {spec!r}; blocks:<m> and bfs:<r> take integers\n"

    def test_plain_ascii_forms_are_read_as_before(self, capsys):
        runs = [run_cli(["frame-check", "--generate", "path", "--n", n, "--clusters", spec, "--omega", omega,
                         "--alpha", alpha], capsys)
                for n, spec, omega, alpha in [("64", "blocks:2", "0.5", "1.0"), (" 64 ", "blocks: 2", "5e-1", "+1")]]
        assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][2] == ""


class TestExitCodes:
    def test_missing_graph_is_usage_error(self, capsys):
        code, _, err = run_cli(["spectrum"], capsys)
        assert code == 1
        assert err.startswith("usage:") and "one of the arguments --graph --generate is required" in err

    def test_unknown_flag_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "avgsampling.cli", "spectrum", "--bogus"],
            capture_output=True, env=child_env(),
        )
        assert proc.returncode == 1

    def test_numerical_failure_is_exit_two(self, capsys):
        # full band on pairs: more band dimensions than clusters, not a frame
        code, _, err = run_cli(
            ["reconstruct", "--generate", "path", "--n", "8", "--clusters", "pairs",
             "--omega", "5.0", "--method", "frame-iter", "--random-seed", "0"],
            capsys,
        )
        assert code == 2
        assert "not a frame" in err

    def test_overflowing_degrees_are_exit_two(self, tmp_path, capsys):
        # the cluster's NaN gap once certified gamma = 0, and the eigensolve then exited 1
        graph = write_rows(tmp_path / "g.edges", [(0, 1, 1e308), (0, 2, 1e308)], sep="\t", header="n=3")
        partition = write_rows(tmp_path / "p.part", [(0, 1, 2)])
        code, out, err = run_cli(["frame-check", "--graph", str(graph), "--partition", str(partition),
                                  "--omega", "0.5"], capsys)
        assert code == 2 and out == ""
        assert err == "numerical failure: cluster 0 has a non-finite spectral gap nan: its weights overflow\n"

    def test_vertex_id_past_the_largest_float_is_exit_one(self, tmp_path, capsys):
        # validate_partition let an OverflowError escape, and the CLI printed a traceback
        partition = write_rows(tmp_path / "p.part", [(0, 1), (2, 2**1100)])
        code, out, err = run_cli(["frame-check", "--generate", "path", "--n", "4", "--partition", str(partition),
                                  "--omega", "0.5"], capsys)
        assert code == 1 and out == ""
        assert err == "error: cluster 1 has out-of-range vertices for n=4\n"

    def test_overflowing_degrees_in_spectrum_are_exit_two(self, tmp_path, capsys):
        # build_laplacian's row sum warned of the overflow, and the eigensolve then exited 1
        graph = write_rows(tmp_path / "g.edges", [(0, 1, 1e308), (0, 2, 1e308)], sep="\t", header="n=3")
        code, out, err = run_cli(["spectrum", "--graph", str(graph)], capsys)
        assert code == 2 and out == ""
        assert err == "numerical failure: vertex 0 has a non-finite weighted degree inf: its weights overflow\n"

    def test_overflowing_spectrum_is_exit_two(self, tmp_path, capsys):
        # finite degrees of 1e308 and an eigenvalue of 2e308: spectrum printed "1,inf" with exit 0
        graph = write_rows(tmp_path / "g.edges", [(0, 1, 1e308)], sep="\t", header="n=2")
        code, out, err = run_cli(["spectrum", "--graph", str(graph)], capsys)
        assert code == 2 and out == ""
        assert err == "numerical failure: eigenvalue 1 is inf: the spectrum overflows\n"

    @pytest.mark.parametrize("argv", [
        ["frame-check", "--generate", "random-geometric", "--n", "20", "--seed", "-1",
         "--clusters", "bfs:1", "--omega", "0.1"],
        ["reconstruct", "--generate", "path", "--n", "8", "--clusters", "pairs", "--omega", "0.5",
         "--random-seed", "-1"],
        ["demo-path", "--n", "8", "--omega", "0.5", "--seed", "-1"],
    ])
    def test_negative_seed_is_exit_one(self, argv, capsys):
        """Refused with one error line, not a traceback from numpy."""
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == "error: seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("flags", [["--tol", "0"], ["--tol", "nan"], ["--max-iter", "0"]])
    def test_bad_iteration_settings_are_exit_one(self, flags, capsys):
        code, out, err = run_cli(
            ["reconstruct", "--generate", "path", "--n", "64", "--clusters", "pairs",
             "--omega", "0.5", "--method", "frame-iter", "--random-seed", "7", *flags],
            capsys,
        )
        assert code == 1 and out == ""
        assert "tol" in err or "max_iter" in err

    @pytest.mark.parametrize("command", ["frame-check", "spline", "demo-path"])
    @pytest.mark.parametrize("omega, alpha, message", [
        ("0.5", "nan", "alpha must be positive and finite"),
        ("0.5", "inf", "alpha must be positive and finite"),
        ("nan", "1.0", "bandwidth must be nonnegative"),
    ])
    def test_non_finite_alpha_or_omega_is_exit_one(self, command, omega, alpha, message, capsys):
        # these printed "gamma":"nan" with exit 0, or exited 2 for an empty band
        args = {"frame-check": ["--generate", "path", "--n", "8", "--clusters", "pairs"],
                "spline": ["--generate", "path", "--n", "8", "--clusters", "pairs", "--random-seed", "1"],
                "demo-path": ["--n", "8"]}[command]
        code, out, err = run_cli([command, *args, "--omega", omega, "--alpha", alpha], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("args, message", [
        (["--generate", "grid2d", "--n", "-4"], "n must be a positive integer, got -4"),
        (["--generate", "random-geometric", "--n", "20", "--radius", "nan"], "radius must be positive"),
    ])
    def test_bad_generator_input_is_exit_one(self, args, message, capsys):
        code, out, err = run_cli(["spectrum", *args], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    def test_invalid_graph_file_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("n=2\n0\t1\t1.0\n0\t1\t1.0\n", encoding="utf-8")
        code, _, err = run_cli(["spectrum", "--graph", str(bad)], capsys)
        assert code == 1
        assert "duplicate" in err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "avgsampling.cli", "spectrum",
             "--generate", "path", "--n", "3"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("index,eigenvalue")


GRAPH_OPTIONS = {"--graph", "--generate", "--n", "--seed", "--p", "--radius"}
GRAPH_GROUP = (frozenset({"--graph", "--generate"}), True)
COVER_GROUP = (frozenset({"--partition", "--clusters"}), True)
SIGNAL_GROUP = (frozenset({"--signal", "--random-seed"}), True)
CLI_SURFACE = {
    "spectrum": (GRAPH_OPTIONS | {"--out", "--format"}, set(), {GRAPH_GROUP}),
    "frame-check": (GRAPH_OPTIONS | {"--partition", "--clusters", "--omega", "--alpha", "--out"},
                    {"--omega"}, {GRAPH_GROUP, COVER_GROUP}),
    "reconstruct": (GRAPH_OPTIONS | {"--partition", "--clusters", "--omega", "--method", "--mu", "--tol",
                                     "--max-iter", "--signal", "--random-seed", "--out"},
                    {"--omega"}, {GRAPH_GROUP, COVER_GROUP, SIGNAL_GROUP}),
    "spline": (GRAPH_OPTIONS | {"--partition", "--clusters", "--k", "--omega", "--alpha", "--signal",
                                "--random-seed", "--out", "--format"},
               {"--omega"}, {GRAPH_GROUP, COVER_GROUP, SIGNAL_GROUP}),
    "demo-path": ({"--n", "--omega", "--alpha", "--seed", "--trials", "--out"}, {"--n", "--omega"}, set()),
}


def test_cli_surface():
    """Each subcommand's option strings, its required options and its
    either-or groups (their options and whether one is required)."""
    parser = build_parser()
    commands = next(a for a in parser._actions if a.choices and a.dest == "command").choices
    surface = {}
    for name, command in commands.items():
        actions = [a for a in command._actions if a.dest != "help"]
        surface[name] = (
            {s for a in actions for s in a.option_strings},
            {a.option_strings[0] for a in actions if a.required},
            {(frozenset(s for a in group._group_actions for s in a.option_strings), group.required)
             for group in command._mutually_exclusive_groups},
        )
    assert surface == CLI_SURFACE


def read_names(paths) -> set[str]:
    """Every name the code in ``paths`` reads, bare or as an attribute; a
    definition, an import or a docstring reads none."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public name that only the tests read belongs in the tests: each needs
    a reader in the package, apart from ``__init__.py``, or in the benchmark."""
    repo = Path(__file__).resolve().parents[1]
    paths = [p for p in (repo / "src" / "avgsampling").glob("*.py") if p.name != "__init__.py"]
    paths += (repo / "perfbench").glob("*.py")
    assert sorted(set(avgsampling.__all__) - read_names(paths)) == []


def path8_pipeline():
    """Path8 with its pairs at omega 0.5: graph, decomposition, partition, frame, a band signal and its averages."""
    graph = avgsampling.generate_graph("path", 8)
    decomp = avgsampling.eigendecompose(avgsampling.build_laplacian(graph))
    partition = avgsampling.validate_partition(graph, avgsampling.pairs_partition(8))
    frame = avgsampling.build_frame_system(decomp, partition, 0.5, 1.0)
    signal = avgsampling.generate_pw_signal(decomp, 0.5, 0)
    return graph, decomp, partition, frame, signal, avgsampling.analyze(partition, signal)


def test_every_public_dataclass_holding_arrays_is_equal_only_to_itself():
    """Field-wise ``==`` on arrays raises ValueError and a frozen dataclass
    hashes its fields, so each public dataclass with an ndarray field compares
    and hashes by identity: two built alike differ, and each equals itself."""
    graph, decomp, partition, frame, _, samples = path8_pipeline()
    build = {
        "SpectralDecomposition": lambda: avgsampling.eigendecompose(avgsampling.build_laplacian(graph)),
        "PWSpace": lambda: avgsampling.pw_space(decomp, 0.5),
        "ClusterPartition": lambda: avgsampling.validate_partition(graph, avgsampling.pairs_partition(8)),
        "FrameSystem": lambda: avgsampling.build_frame_system(decomp, partition, 0.5, 1.0),
        "ReconstructionResult": lambda: avgsampling.dual_frame_reconstruct(frame, samples),
        "SplineSolution": lambda: avgsampling.solve_spline(decomp, partition, samples, 2),
        "WeightedGraph": lambda: avgsampling.generate_graph("path", 8),
    }
    public = {name: getattr(avgsampling, name) for name in avgsampling.__all__}
    holders = {name for name, obj in public.items() if isinstance(obj, type) and dataclasses.is_dataclass(obj)
               and any("ndarray" in str(f.type) for f in dataclasses.fields(obj))}
    assert holders == set(build)
    for name, make in build.items():
        one, other = make(), make()
        assert type(one) is public[name]
        assert one == one and one != other, name
        assert hash(one) == hash(one) and {one: 1, other: 2}[other] == 2, name
        for field in dataclasses.fields(one):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(one, field.name, None)


@pytest.mark.parametrize("route", ["frame-iter", "frame-iter-truth", "dual", "solve_spline", "sweep-row"])
def test_results_built_without_init_are_whole_frozen_dataclasses(route):
    """Results are built by ``object.__new__`` and ``vars().update``: each still
    holds every field and no other, refuses assignment, and ``replace`` rebuilds it."""
    _, decomp, partition, frame, signal, samples = path8_pipeline()
    make = {
        "frame-iter": lambda: avgsampling.frame_algorithm(frame, samples),
        "frame-iter-truth": lambda: avgsampling.frame_algorithm(frame, samples, truth=signal),
        "dual": lambda: avgsampling.dual_frame_reconstruct(frame, samples),
        "solve_spline": lambda: avgsampling.solve_spline(decomp, partition, samples, 2),
        "sweep-row": lambda: avgsampling.spline_convergence_experiment(decomp, partition, 0.5, 1.0, signal, [4])[0],
    }
    result = make[route]()
    names = [f.name for f in dataclasses.fields(result)]
    assert list(vars(result)) == names
    for name in (names[0], names[-1], "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, name, None)
    assert list(vars(result)) == names
    copy = dataclasses.replace(result)
    assert type(copy) is type(result) and copy is not result
    assert all(getattr(copy, name) is getattr(result, name) for name in names)


def test_value_types_stay_as_built():
    """A graph, its decomposition, a band, a partition and a frame hold only
    what they were built with after every stage has used them: numbers,
    strings, tuples of those and read-only arrays, so no module keeps a cache
    on another's value."""
    graph = avgsampling.generate_graph("grid2d", 100)
    decomp = avgsampling.eigendecompose(avgsampling.build_laplacian(graph))
    space = avgsampling.pw_space(decomp, 3.22)
    partition = avgsampling.validate_partition(graph, avgsampling.bfs_partition(graph, 1))
    frame = avgsampling.build_frame_system(decomp, partition, 3.22, 1.0)
    f = avgsampling.generate_pw_signal(decomp, 3.22, 0)
    samples = avgsampling.analyze(partition, f)
    for config in (avgsampling.FrameIterationConfig(), avgsampling.FrameIterationConfig(mu=1.0 / frame.upper)):
        avgsampling.frame_algorithm(frame, samples, config)
    avgsampling.dual_frame_reconstruct(frame, samples)
    avgsampling.interpolate(decomp, partition, f, 2)

    def as_built(value) -> bool:
        if isinstance(value, tuple):
            return all(map(as_built, value))
        if isinstance(value, np.ndarray):
            return not value.flags.writeable
        return isinstance(value, (int, float, str, np.number))

    for value_object in (graph, decomp, space, partition, frame):
        for name, value in vars(value_object).items():
            assert as_built(value), (type(value_object).__name__, name, type(value).__name__)
    assert set(vars(graph)) == {"n", "_edge_arrays"}
