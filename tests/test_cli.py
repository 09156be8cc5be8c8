"""CLI subcommands, output formats, exit codes, and the public names' callers."""
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avgsampling
from avgsampling.cli import main
from avgsampling.fileio import write_edge_list, write_partition, write_signal
from avgsampling import InputError, demo_path, generate_graph


def child_env(**overrides) -> dict:
    """Environment for a fresh interpreter that imports the package under test,
    installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(avgsampling.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def run_cli(args, capsys):
    code = main(args)
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

    def test_from_file(self, tmp_path, capsys):
        g = generate_graph("cycle", 5)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
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
        gpath = tmp_path / "g.edges"
        ppath = tmp_path / "p.part"
        write_edge_list(g, gpath)
        write_partition([(0, 1, 2), (3, 4, 5)], ppath)
        code, out, _ = run_cli(
            ["frame-check", "--graph", str(gpath), "--partition", str(ppath),
             "--omega", "0.3"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["lambda_Xi"] == pytest.approx(1.0, abs=1e-12)


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

    def test_signal_file_roundtrip(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.PCG64(1))
        g = generate_graph("path", 8)
        gpath = tmp_path / "g.edges"
        spath = tmp_path / "f.sig"
        write_edge_list(g, gpath)
        write_signal(rng.standard_normal(8), spath)
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
        path = tmp_path / "zero.sig"
        write_signal(np.zeros(8), path)
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
        ([], "partition is required"),
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
        (["--signal", "short"], "signal has 2 values, expected 6"),
        (["--signal", "unparsable"], "unparsable signal value 'x'"),
        (["--signal", "good", "--random-seed", "0"], "not both"),
        ([], "a signal is required"),
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

    def test_non_finite_weight_file(self, no_eigensolve, tmp_path, capsys):
        path = tmp_path / "nan.edges"
        path.write_text("n=3\n0\t1\t1.0\n1\t2\tnan\n", encoding="utf-8")
        code, out, err = run_cli(["spectrum", "--graph", str(path)], capsys)
        assert code == 1 and out == ""
        assert f"{path}:3: edge weight must be positive and finite, got nan" in err

    def test_valid_input_reaches_the_eigensolve(self, no_eigensolve, capsys):
        with pytest.raises(AssertionError, match="eigensolve ran"):
            main(["frame-check", "--generate", "path", "--n", "6", "--clusters", "pairs",
                  "--omega", "0.5"])


class TestExitCodes:
    def test_missing_graph_is_usage_error(self, capsys):
        code, _, err = run_cli(["spectrum"], capsys)
        assert code == 1
        assert "graph is required" in err

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
        (["--generate", "grid2d", "--n", "-4"], "perfect-square"),
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
