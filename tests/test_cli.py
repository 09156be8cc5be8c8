"""CLI subcommands, output formats, exit codes."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import avgsampling
from avgsampling.cli import main
from avgsampling.fileio import write_edge_list, write_partition, write_signal
from avgsampling import generate_graph


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
        assert payload["method"] in ("frame-iter", "dual")
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

    def test_gamma_above_one_is_empirical_only(self, capsys):
        code, out, _ = run_cli(
            ["demo-path", "--n", "64", "--omega", "2.5", "--trials", "1"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["guarantee_active"] is False
        assert payload["frame"]["is_frame"] is False
        assert "reconstruction_failure" in payload["trials"][0]

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

    def test_bytes_identical_across_blas_thread_counts(self):
        outputs = []
        for threads in ("1", "2"):
            env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                            MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "avgsampling.cli", "demo-path",
                 "--n", "64", "--omega", "0.5", "--seed", "42"],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestInputChecksBeforeEigensolve:
    """Bad partitions and formats exit 1 without paying for the eigensolve."""

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

    @pytest.mark.parametrize("command", ["frame-check", "reconstruct"])
    def test_csv_format(self, command, no_eigensolve, capsys):
        signal = [] if command == "frame-check" else ["--random-seed", "0"]
        code, out, err = run_cli([command, "--generate", "path", "--n", "6", "--clusters", "pairs",
                                  "--omega", "0.5", *signal, "--format", "csv"], capsys)
        assert code == 1 and out == ""
        assert "emits JSON only" in err

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

    @pytest.mark.parametrize("flags", [["--tol", "0"], ["--tol", "nan"], ["--max-iter", "0"]])
    def test_bad_iteration_settings_are_exit_one(self, flags, capsys):
        code, out, err = run_cli(
            ["reconstruct", "--generate", "path", "--n", "64", "--clusters", "pairs",
             "--omega", "0.5", "--method", "frame-iter", "--random-seed", "7", *flags],
            capsys,
        )
        assert code == 1 and out == ""
        assert "tol" in err or "max_iter" in err

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
