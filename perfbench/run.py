#!/usr/bin/env python3
"""Benchmark of the avgsampling pipeline.

Run from the root of a checkout (the package is imported from ``./src``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one call at a time (a closed loop), BLAS pinned to one thread.
A run has a few rounds. Each builds the workload's ready object (``setup_s``,
median) and issues one operation per seeded signal for its share of
``--seconds`` (``signal_ms_p50``, ``signal_ms_p90``); both are host-scaled
(see hostspeed). The last round also runs the workload's command in a fresh
interpreter. Every output is checked against an independent oracle; a
raised error, a refusal or a miss counts as a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, taken from spans around every
call the benchmark makes into the package. A result file with provenance
(and, traced, a span file) lands in ``.perfbench_out/``. See README.md here.
"""
from __future__ import annotations

import os

# Fixed before numpy loads, and passed on to every subprocess.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import gc
import hashlib
import json
import platform
import resource
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import hostspeed
from oracle import Checks
from tracer import Tracer, Untraced

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: The keys of ``workloads.WORKLOADS``, which can only be imported once the
#: package source has been found.
WORKLOAD_NAMES = ("path64-pairs-splines", "grid100-bfs1-recover", "rgg1000-bfs1-certify")

#: Untraced signals per run at full size, so that ten lie beyond p99.
MIN_SIGNALS = 1000
#: Cold starts per traced run at full size, spread over the rounds.
COLD_STARTS = 6
COMMAND_TIMEOUT_S = 60
#: A fresh interpreter that imports the package and prints the import's own time.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import avgsampling; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "setup_s": "s",
    "signal_ms_p50": "ms",
    "signal_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer times: the median duration of the spans of one package call,
#: named by the span plus its unit. A layer a workload does not call reads 0.
LAYER_TIMES = (
    "generators.generate_graph_s",
    "graph.validate_s",
    "fileio.read_edge_list_s",
    "fileio.read_partition_s",
    "spectral.build_laplacian_s",
    "spectral.eigendecompose_s",
    "spectral.pw_project_ms",
    "partitions.make_clusters_s",
    "partitions.validate_partition_s",
    "partitions.build_frame_system_s",
    "partitions.optimal_alpha_ms",
    "partitions.analyze_ms",
    "reconstruct.frame_algorithm_ms",
    "reconstruct.dual_frame_reconstruct_ms",
    "splines.interpolate_k1_ms",
    "splines.interpolate_k2_ms",
    "splines.interpolate_k4_ms",
    "splines.interpolate_k8_ms",
    "harness.demo_path_s",
    "cli.import_s",
    "cli.cold_start_s",
    "cli.command_s",
)

#: Phase spans and the self time each reports (median over its spans).
PHASES = {"bench.setup_self_s": "setup", "bench.signal_self_ms": "signal", "bench.cli_self_s": "cli"}

#: Counts and health values gathered while checking outputs:
#: metric name -> (statistic the workload appends to, unit, aggregate).
HEALTH = {
    "graph.edges": ("graph.edges", "count", "median"),
    "partitions.clusters": ("partitions.clusters", "count", "median"),
    "partitions.cluster_size_max": ("partitions.cluster_size_max", "count", "max"),
    "spectral.band_dim": ("spectral.band_dim", "count", "median"),
    "spectral.eig_residual": ("spectral.eig_residual", "ratio", "max"),
    "spectral.orth_error": ("spectral.orth_error", "ratio", "max"),
    "spectral.band_edge_gap": ("spectral.band_edge_gap", "1", "min"),
    "partitions.lambda_xi": ("partitions.lambda_xi", "1", "min"),
    "partitions.frame_a": ("partitions.frame_a", "1", "min"),
    "partitions.frame_cond": ("partitions.frame_cond", "ratio", "max"),
    "reconstruct.iterations_p50": ("reconstruct.iterations", "count", "median"),
    "reconstruct.iters_over_eta_bound": ("reconstruct.iters_over_eta_bound", "ratio", "median"),
    "reconstruct.not_converged": ("reconstruct.not_converged", "count", "sum"),
    "reconstruct.rel_error_max": ("reconstruct.rel_error", "ratio", "max"),
    "reconstruct.dual_residual_max": ("reconstruct.dual_residual", "ratio", "max"),
    "splines.kkt_residual_max": ("splines.kkt_residual", "ratio", "max"),
    "splines.condition_max": ("splines.condition", "ratio", "max"),
    "splines.error_over_bound_max": ("splines.error_over_bound", "ratio", "max"),
    "splines.refused": ("splines.refused", "count", "sum"),
}


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


AGGREGATES = {"median": _median, "max": max, "min": min, "sum": sum}
UNIT_SCALE = {"s": 1.0, "ms": 1e3}


class Tally:
    """Operations attempted and failed, their misses, and the statistics checks gather."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.stats: dict[str, list[float]] = defaultdict(list)

    def attempt(self, label: str, operation):
        """Run one operation with its checks; a raise or any miss fails it.

        Returns the operation's result (None if it raised) and whether it passed.
        """
        self.attempted += 1
        checks = Checks()
        try:
            result = operation(checks)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            checks.misses.append(f"{type(exc).__name__}: {exc}")
            result = None
        if checks.misses:
            self.failed += 1
            self.misses.append(f"{label}: {'; '.join(checks.misses)}")
        return result, not checks.misses


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the avgsampling pipeline.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes and repeats, for the self-test")
    return parser.parse_args(argv)


def run_command(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=COMMAND_TIMEOUT_S)


class Run:
    """The timed phases of one run, in rounds of set-up, signals and CLI.

    Each round builds the ready object once and issues signals against it for
    its share of ``--seconds``, so that every metric samples the whole run
    rather than one stretch of it. In a traced run, each round also starts
    its share of fresh interpreters that import the package. The last round
    runs the workload's command.
    """

    def __init__(self, workload, traced: bool, tally: Tally):
        self.workload = workload
        self.traced = traced
        self.tally = tally
        self.untraced = Untraced()
        self.tracer = Tracer() if traced else self.untraced
        # (raw, host-scaled) times of set-ups and cold starts (see hostspeed), and per
        # signal (traced, raw time or None when it failed, the kernel's time after it).
        self.setup_times: list[tuple[float, float]] = []
        self.signal_log: list[tuple[bool, float | None, float]] = []
        self.commands = 0
        self.signals = 0

    def timed_scaled(self, fn):
        """Run fn between two kernel brackets; return its result, raw time and scaled time."""
        before = hostspeed.bracket()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        reference = float(np.median(before + hostspeed.bracket()))
        return result, elapsed, hostspeed.scale(elapsed, reference)

    def signal_times(self, traced: bool, scaled: bool) -> list[float]:
        references = hostspeed.local_references([kernel for _, _, kernel in self.signal_log])
        return [hostspeed.scale(elapsed, reference) if scaled else elapsed
                for (split, elapsed, _), reference in zip(self.signal_log, references)
                if split == traced and elapsed is not None]

    def setup(self, i: int):
        workload, tracer = self.workload, self.tracer
        tracer.group = f"setup-{i}"

        def one(checks):
            with tracer.span("setup"):
                built, elapsed, scaled = self.timed_scaled(lambda: workload.setup(tracer))
            workload.check_setup(built, checks, self.tally.stats)
            self.setup_times.append((elapsed, scaled))
            return built

        return self.tally.attempt(f"setup {i}", one)[0]

    def signal_loop(self, ready, seconds: float, minimum: int, rng) -> None:
        """Closed loop of seeded signals; a traced run traces every other one.

        Runs for ``seconds`` and until ``minimum`` untraced signals are timed.
        The reference kernel runs once after each signal.
        """
        workload = self.workload
        gc.collect()
        deadline = time.perf_counter() + seconds
        count = 0
        while time.perf_counter() < deadline or count < minimum:
            x = workload.make_input(rng)
            split = self.traced and self.signals % 2 == 0
            t = self.tracer if split else self.untraced
            self.tracer.group = f"signal-{self.signals}"

            def one(checks):
                with t.span("signal"):
                    start = time.perf_counter()
                    out = workload.signal(ready, x, t, split)
                    elapsed = time.perf_counter() - start
                workload.check_signal(ready, x, out, checks, self.tally.stats)
                return elapsed

            elapsed, passed = self.tally.attempt(f"signal {self.signals}", one)
            self.signal_log.append((split, elapsed if passed else None, hostspeed.kernel_time()))
            self.signals += 1
            count += not split

    def cold_start(self, label: str) -> None:
        def one(checks):
            with self.tracer.span("cli"):
                proc = self.tracer.call("cli.cold_start", run_command, ["-c", IMPORT_PROBE])
            checks.expect(proc.returncode == 0, f"cold start exited {proc.returncode}")
            self.tally.stats["cli.import"].append(float(proc.stdout))

        self.tally.attempt(label, one)

    def command(self, label: str, reference) -> None:
        workload = self.workload

        def one(checks):
            with self.tracer.span("cli"):
                proc = self.tracer.call("cli.command", run_command, workload.command_argv())
            checks.expect(proc.returncode == 0,
                          f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            if proc.returncode == 0:
                self.commands += 1
                workload.check_command(proc.stdout, reference, checks)

        self.tally.attempt(label, one)

    def rounds(self, seconds: float, rng) -> bool:
        """Run every round; False when no set-up succeeded."""
        workload = self.workload
        rounds = 1 if workload.small else workload.rounds
        minimum = 20 if workload.small else -(-MIN_SIGNALS // rounds)
        # Cold starts feed per-layer metrics only, so only a traced run makes them.
        cold_starts = 0 if not self.traced else 1 if workload.small else COLD_STARTS
        ready = reference = None
        for i in range(rounds):
            ready = self.setup(i) or ready
            if ready is None:
                continue
            if reference is None:
                reference, _ = self.tally.attempt(
                    "in-process reference", lambda checks: workload.command_reference(ready, self.tracer))
            self.signal_loop(ready, seconds / rounds, minimum, rng)
            for j in range(i * cold_starts // rounds, (i + 1) * cold_starts // rounds):
                self.tracer.group = f"cold-start-{j}"
                self.cold_start(f"cold start {j}")
            if i == rounds - 1:
                self.tracer.group = "command"
                self.command("command", reference)
        return ready is not None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "avgsampling").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_libraries() -> list[dict]:
    """The BLAS libraries loaded in this process, with their configuration and thread count."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if line.split()[-1].startswith("/")
                    and Path(line.split()[-1]).name.startswith("lib")
                    and "blas" in Path(line.split()[-1]).name.lower()})
    found = []
    for path in paths:
        entry = {"library": Path(path).name}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(entry)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode(errors="replace").strip()
                    entry["threads"] = int(threads())
        found.append(entry)
    return found


def provenance(seed: int) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def end_to_end_metrics(run: Run) -> dict[str, float]:
    """The bounded metrics, in host-scaled time (see hostspeed).

    Raw, the median set-up and signal times of whole runs moved by up to
    1.8x with the host's load, so that a quarter to a half of the runs on a
    busy host read far apart from the rest; scaled by the local kernel time,
    the same stretches moved by 1.06-1.17x. The tail is p90: scaled p99
    still spread 0.04-0.30 across runs, as hiccups shorter than the
    kernel's window reach the slowest 1% of signals; p90 spread 0.05-0.06.
    p99 and the raw times are per-layer.
    """
    scaled_signals = run.signal_times(traced=False, scaled=True)
    return {
        "setup_s": _median([scaled for _, scaled in run.setup_times]),
        "signal_ms_p50": _percentile_ms(scaled_signals, 50),
        "signal_ms_p90": _percentile_ms(scaled_signals, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """Raw times of the traced calls and phases, counts, health and raw end-to-end times."""
    tracer, stats = run.tracer, run.tally.stats
    metrics = {}
    for name in LAYER_TIMES:
        span, unit = name.rsplit("_", 1)
        durations = stats["cli.import"] if span == "cli.import" else tracer.durations(span)
        metrics[name] = (_median(durations) * UNIT_SCALE[unit] if durations else 0.0, unit)
    for name, phase in PHASES.items():
        unit = name.rsplit("_", 1)[-1]
        durations = tracer.self_times(phase)
        metrics[name] = (_median(durations) * UNIT_SCALE[unit] if durations else 0.0, unit)
    for name, (stat, unit, how) in HEALTH.items():
        values = stats.get(stat)
        metrics[name] = (float(AGGREGATES[how](values)) if values else 0.0, unit)
    traced = run.signal_times(traced=True, scaled=False)
    untraced = run.signal_times(traced=False, scaled=False)
    metrics["bench.trace_overhead_frac"] = (_median(traced) / _median(untraced) - 1.0, "ratio")
    metrics["bench.signal_ms_p99"] = (
        _percentile_ms(run.signal_times(traced=False, scaled=True), 99), "ms")
    metrics["bench.host_kernel_ms"] = (_median([k for _, _, k in run.signal_log]) * 1e3, "ms")
    metrics["bench.raw_setup_s"] = (_median([raw for raw, _ in run.setup_times]), "s")
    metrics["bench.raw_signal_ms_p50"] = (_percentile_ms(untraced, 50), "ms")
    metrics["bench.raw_signal_ms_p90"] = (_percentile_ms(untraced, 90), "ms")
    metrics["bench.raw_signal_ms_p99"] = (_percentile_ms(untraced, 99), "ms")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "avgsampling" / "__init__.py").is_file():
        print(f"error: no package source in {SRC / 'avgsampling'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import avgsampling

    if not Path(avgsampling.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: avgsampling was imported from {avgsampling.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.small, OUT)
    workload.prepare()

    # Warm-up: the same pipeline at reduced size, untimed and outside the tally,
    # so that first-call costs (imports, BLAS start-up) stay out of the timed calls.
    # check_setup runs for the reference values make_input needs. A failure here
    # shows again, and is counted, in the timed phases.
    warm = WORKLOADS[args.workload](args.seed, True, OUT)
    try:
        warm.prepare()
        warm_ready = warm.setup(Untraced())
        warm.check_setup(warm_ready, Checks(), defaultdict(list))
        warm_rng = np.random.default_rng(args.seed)
        for _ in range(3):
            warm.signal(warm_ready, warm.make_input(warm_rng), Untraced(), bool(args.trace))
    except Exception as exc:  # reported; the timed phases count the failure
        print(f"warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    tally = Tally()
    run = Run(workload, bool(args.trace), tally)
    if not run.rounds(args.seconds, np.random.default_rng(args.seed)):
        print("error: every set-up failed:\n  " + "\n  ".join(tally.misses), file=sys.stderr)
        return 1
    untraced = run.signal_times(traced=False, scaled=False)
    traced = run.signal_times(traced=True, scaled=False)
    if not run.setup_times or not untraced or (args.trace and not traced):
        print("error: nothing measured:\n  " + "\n  ".join(tally.misses[:20]), file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer_metrics(run)
    else:
        values = {name: (value, END_TO_END_UNITS[name])
                  for name, value in end_to_end_metrics(run).items()}
    metrics = {name: {"value": float(value), "unit": unit} for name, (value, unit) in values.items()}

    prov = provenance(args.seed)
    samples = {"setups": len(run.setup_times), "signals": len(untraced),
               "traced_signals": len(traced), "commands": run.commands}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "small": args.small, "provenance": prov, "samples": samples,
        "attempted": tally.attempted, "failed": tally.failed, "misses": tally.misses[:100],
        "metrics": metrics,
        "raw_seconds": {"setup": [raw for raw, _ in run.setup_times],
                        "signal_p50": _percentile_ms(untraced, 50) / 1e3,
                        "signal_p99": _percentile_ms(untraced, 99) / 1e3,
                        "kernel_p50": _median([k for _, _, k in run.signal_log])},
    }, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        run.tracer.write(OUT / f"spans-{stem}.jsonl")

    for miss in tally.misses[:20]:
        print(f"miss: {miss}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in samples.items()))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_frac':40s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
