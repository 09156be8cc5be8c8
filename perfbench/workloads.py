"""The benchmark workloads.

Each workload turns the seed into inputs, builds a ready object from them
(the timed set-up), issues one timed operation per signal in a closed loop,
and names the command a user would run for the same job in a fresh
interpreter. Every output is checked against ``oracle``, untimed.

Only names in ``avgsampling.__all__`` are called, plus ``avgsampling.fileio``
for the file-input workload, always with default knobs.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import avgsampling as avg
from avgsampling import fileio

import oracle
from oracle import BandReference, Checks

SPLINE_ORDERS = (1, 2, 4, 8)
ALPHA = 1.0
DEMO_TRIALS = 3
#: Relative error the canonical dual frame must reach on exact samples.
DUAL_TOL = 1e-9
#: The frame iteration's default stopping threshold, read so that the
#: error bound follows whatever default the package ships.
FRAME_TOL = avg.FrameIterationConfig().tol


@dataclass
class Ready:
    """What one set-up produces."""

    graph: avg.WeightedGraph
    report: avg.ValidationReport
    clusters: list
    partition: avg.ClusterPartition
    decomp: avg.SpectralDecomposition | None = None
    frame: avg.FrameSystem | None = None
    certificate: tuple[float, float] | None = None


def _cli(*args) -> list[str]:
    return ["-m", "avgsampling.cli", *(str(a) for a in args)]


class FrameWorkload:
    """Shared part of the workloads that recover band signals through a frame.

    Subclasses set ``n``, ``omega``, ``edges`` and ``clusters`` (the inputs
    as the benchmark knows them) and implement ``load``, which reads or
    generates the graph and clusters through the package.
    """

    rounds = 3

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        self.small = small
        self.workdir = workdir

    def prepare(self) -> None:
        self.ref = BandReference.build(self.n, self.edges, self.clusters, self.omega)
        gaps = oracle.cluster_gaps(self.n, self.edges, self.clusters)
        self.gamma = (1.0 + ALPHA) / ALPHA * self.omega / float(gaps[np.isfinite(gaps)].min())

    def setup(self, t) -> Ready:
        graph, report, clusters = self.load(t)
        partition = t.call("partitions.validate_partition", avg.validate_partition, graph, clusters)
        laplacian = t.call("spectral.build_laplacian", avg.build_laplacian, graph)
        decomp = t.call("spectral.eigendecompose", avg.eigendecompose, laplacian)
        frame = t.call("partitions.build_frame_system", avg.build_frame_system,
                       decomp, partition, self.omega, ALPHA)
        return Ready(graph, report, clusters, partition, decomp=decomp, frame=frame)

    def check_setup(self, ready: Ready, checks: Checks, stats) -> None:
        ref = self.ref
        checks.expect(ready.report.ok, "graph validation reported issues")
        checks.expect(ready.graph.n == self.n and ready.graph.edges() == self.edges,
                      "graph differs from its input")
        checks.expect([tuple(c) for c in ready.clusters] == [tuple(c) for c in self.clusters],
                      "clusters differ from their input")
        oracle.check_gaps(self.n, self.edges, self.clusters, ready.partition.lambda1s,
                          ready.partition.lambda_xi, checks)
        residual, orth = ref.check_decomposition(
            ready.decomp.eigenvalues, ready.decomp.eigenvectors, checks)
        frame = ready.frame
        ref.check_frame(frame.dim, frame.lower, frame.upper, checks)
        values = ready.decomp.eigenvalues
        stats["graph.edges"].append(ready.graph.num_edges)
        stats["partitions.clusters"].append(ready.partition.num_clusters)
        stats["partitions.cluster_size_max"].append(max(len(c) for c in ready.clusters))
        stats["spectral.band_dim"].append(frame.dim)
        stats["spectral.eig_residual"].append(residual)
        stats["spectral.orth_error"].append(orth)
        stats["spectral.band_edge_gap"].append(values[frame.dim] - values[frame.dim - 1])
        stats["partitions.lambda_xi"].append(ready.partition.lambda_xi)
        stats["partitions.frame_a"].append(frame.lower)
        stats["partitions.frame_cond"].append(frame.upper / frame.lower)

    def make_input(self, rng: np.random.Generator) -> np.ndarray:
        return self.ref.signal(rng)

    def signal(self, ready: Ready, f: np.ndarray, t, split: bool) -> dict:
        samples = t.call("partitions.analyze", avg.analyze, ready.partition, f)
        iterative = t.call("reconstruct.frame_algorithm", avg.frame_algorithm, ready.frame, samples)
        samples_dual = t.call("partitions.analyze", avg.analyze, ready.partition, f)
        dual = t.call("reconstruct.dual_frame_reconstruct", avg.dual_frame_reconstruct,
                      ready.frame, samples_dual)
        return {"samples": (samples, samples_dual), "frame_iter": iterative, "dual": dual}

    def check_signal(self, ready: Ready, f: np.ndarray, out: dict, checks: Checks, stats) -> None:
        ref = self.ref
        expected = ref.averages(f)
        for samples in out["samples"]:
            checks.expect(float(np.max(np.abs(samples - expected))) <= 1e-12,
                          "cluster averages differ from the reference")
        iterative = out["frame_iter"]
        error = oracle.rel_error(f, iterative.signal)
        bound = ref.frame_iter_bound(FRAME_TOL)
        checks.expect(iterative.converged, f"frame iteration stopped unconverged "
                                           f"after {iterative.iterations} iterations")
        checks.expect(error <= bound, f"frame iteration error {error:.2e} above {bound:.2e}")
        eta_steps = math.ceil(math.log(FRAME_TOL) / math.log(iterative.eta)) if iterative.eta > 0 else 1
        stats["reconstruct.iterations"].append(iterative.iterations)
        stats["reconstruct.iters_over_eta_bound"].append(iterative.iterations / eta_steps)
        stats["reconstruct.not_converged"].append(0 if iterative.converged else 1)
        dual = out["dual"]
        dual_error = oracle.rel_error(f, dual.signal)
        checks.expect(dual_error <= DUAL_TOL, f"dual frame error {dual_error:.2e}")
        stats["reconstruct.rel_error"].append(max(error, dual_error))
        stats["reconstruct.dual_residual"].append(dual.residual)


class PathPairsSplines(FrameWorkload):
    name = "path64-pairs-splines"
    rounds = 5

    def __init__(self, seed: int, small: bool, workdir: Path):
        super().__init__(seed, small, workdir)
        self.n = 16 if small else 64
        self.omega = 0.5
        self.edges = [(i, i + 1, 1.0) for i in range(self.n - 1)]
        self.clusters = [(2 * j, 2 * j + 1) for j in range(self.n // 2)]

    def load(self, t):
        graph = t.call("generators.generate_graph", avg.generate_graph, "path", self.n)
        report = t.call("graph.validate", avg.validate, graph)
        clusters = t.call("partitions.make_clusters", avg.pairs_partition, self.n)
        return graph, report, clusters

    def signal(self, ready: Ready, f: np.ndarray, t, split: bool) -> dict:
        """Recover, then sweep the spline orders.

        Traced (``split``), the sweep is issued as the projection plus one
        ``interpolate`` per order, and an order the package refuses is
        counted and skipped; untraced, a refusal fails the whole signal.
        """
        out = super().signal(ready, f, t, split)
        if not split:
            out["rows"] = avg.spline_convergence_experiment(
                ready.decomp, ready.partition, self.omega, ALPHA, f, SPLINE_ORDERS)
            return out
        out["band"] = t.call("spectral.pw_project", avg.pw_project, ready.decomp, self.omega, f)
        out["splines"] = {}
        for k in SPLINE_ORDERS:
            try:
                out["splines"][k] = t.call(f"splines.interpolate_k{k}", avg.interpolate,
                                           ready.decomp, ready.partition, f, k)
            except avg.NumericalError:
                pass
        return out

    def check_signal(self, ready: Ready, f: np.ndarray, out: dict, checks: Checks, stats) -> None:
        super().check_signal(ready, f, out, checks, stats)
        if "rows" in out:
            orders = [row.order for row in out["rows"]]
            checks.expect(orders == list(SPLINE_ORDERS), f"spline rows for orders {orders}")
            for row in out["rows"]:
                bound = 2.0 * self.gamma ** row.order
                checks.expect(row.rel_error <= bound,
                              f"order-{row.order} spline error {row.rel_error:.3e} above 2*gamma^k={bound:.3e}")
                checks.expect(abs(row.bound - bound) <= 1e-12 * bound,
                              f"order-{row.order} reported bound {row.bound!r} vs {bound!r}")
                stats["splines.error_over_bound"].append(row.rel_error / bound)
            return
        ref = self.ref
        refused = len(SPLINE_ORDERS) - len(out["splines"])
        stats["splines.refused"].append(refused)
        checks.expect(refused == 0, f"{refused} spline order(s) refused")
        checks.expect(oracle.rel_error(f, out["band"]) <= 1e-9, "band projection moved a band signal")
        targets = ref.averages(f)
        for k, solution in out["splines"].items():
            achieved = ref.averages(solution.signal)
            miss = float(np.max(np.abs(achieved - targets)))
            checks.expect(miss <= 1e-9, f"order-{k} spline misses its averages by {miss:.2e}")
            error = oracle.rel_error(f, solution.signal)
            bound = 2.0 * self.gamma ** k
            checks.expect(error <= bound, f"order-{k} spline error {error:.3e} above {bound:.3e}")
            stats["splines.error_over_bound"].append(error / bound)
            stats["splines.kkt_residual"].append(solution.kkt_residual)
            stats["splines.condition"].append(solution.condition_estimate)

    def command_argv(self) -> list[str]:
        return _cli("demo-path", "--n", self.n, "--omega", self.omega,
                    "--trials", DEMO_TRIALS, "--seed", self.seed)

    def command_reference(self, ready: Ready, t) -> str:
        report = t.call("harness.demo_path", avg.demo_path, self.n, self.omega, ALPHA,
                        self.seed, DEMO_TRIALS)
        return avg.stable_json(report)

    def check_command(self, stdout: str, reference: str, checks: Checks) -> None:
        checks.expect(stdout == reference, "demo-path report differs from the in-process report")
        report = json.loads(stdout)
        ref = self.ref
        spectrum = np.asarray(report["spectrum"]["eigenvalues"], dtype=float)
        checks.expect(spectrum.shape == ref.eigenvalues.shape
                      and float(np.max(np.abs(spectrum - ref.eigenvalues))) <= oracle.EIG_TOL * ref.norm,
                      "demo-path spectrum differs from the reference")
        checks.expect(report["frame"]["band_dim"] == ref.dim, "demo-path band dimension")
        checks.expect(len(report["trials"]) == DEMO_TRIALS, "demo-path trial count")
        bound = ref.frame_iter_bound(FRAME_TOL)
        for trial in report["trials"]:
            checks.expect(trial["frame_iter"]["converged"]
                          and trial["frame_iter"]["rel_error"] <= bound,
                          f"demo-path trial {trial['trial']} frame iteration")
            checks.expect(trial["dual"]["rel_error"] <= DUAL_TOL,
                          f"demo-path trial {trial['trial']} dual error")
            for row in trial.get("splines", []):
                checks.expect(row["rel_error"] <= 2.0 * self.gamma ** row["k"],
                              f"demo-path trial {trial['trial']} order-{row['k']} spline error")
            checks.expect(len(trial.get("splines", [])) == len(SPLINE_ORDERS),
                          f"demo-path trial {trial['trial']} spline rows")


def _grid_edges(side: int) -> list[tuple[int, int, float]]:
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, 1.0))
            if r + 1 < side:
                edges.append((v, v + side, 1.0))
    return sorted(edges)


def _radius1_balls(n: int, edges) -> list[tuple[int, ...]]:
    """Greedy cover by hop-radius-1 balls grown from the smallest unassigned vertex."""
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    assigned = [False] * n
    balls = []
    for start in range(n):
        if assigned[start]:
            continue
        ball = [start] + [v for v in sorted(neighbors[start]) if not assigned[v]]
        for v in ball:
            assigned[v] = True
        balls.append(tuple(sorted(ball)))
    return balls


class GridBfsRecover(FrameWorkload):
    name = "grid100-bfs1-recover"
    rounds = 4

    def __init__(self, seed: int, small: bool, workdir: Path):
        super().__init__(seed, small, workdir)
        side = 4 if small else 10
        self.n = side * side
        # Inside the eigenvalue gap (2, 2.586) of the 4x4 grid and (3.176, 3.273)
        # of the 10x10 grid, away from the repeated eigenvalues at either end.
        self.omega = 2.29 if small else 3.22
        self.edges = _grid_edges(side)
        self.clusters = _radius1_balls(self.n, self.edges)

    def prepare(self) -> None:
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.graph_file = inputs / f"grid{self.n}.edges"
        self.partition_file = inputs / f"grid{self.n}-bfs1.clusters"
        lines = [f"n={self.n}"] + [f"{u}\t{v}\t{w!r}" for u, v, w in self.edges]
        self.graph_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.partition_file.write_text(
            "".join(" ".join(map(str, c)) + "\n" for c in self.clusters), encoding="utf-8")
        super().prepare()

    def load(self, t):
        graph = t.call("fileio.read_edge_list", fileio.read_edge_list, self.graph_file)
        report = t.call("graph.validate", avg.validate, graph)
        clusters = t.call("fileio.read_partition", fileio.read_partition, self.partition_file)
        return graph, report, clusters

    def command_argv(self) -> list[str]:
        return _cli("reconstruct", "--graph", self.graph_file, "--partition", self.partition_file,
                    "--omega", self.omega, "--method", "frame-iter", "--random-seed", self.seed)

    def command_reference(self, ready: Ready, t) -> dict:
        """The same recovery the command makes, run in this process."""
        truth = avg.pw_project(ready.decomp, self.omega,
                               avg.generate_pw_signal(ready.decomp, self.omega, self.seed))
        frame = ready.frame
        samples = frame.analysis @ (frame.basis.T @ truth)
        result = avg.frame_algorithm(frame, samples, avg.FrameIterationConfig(), truth)
        return {"result": result, "rel_error": oracle.rel_error(truth, result.signal)}

    def check_command(self, stdout: str, reference: dict, checks: Checks) -> None:
        payload = json.loads(stdout)
        result = reference["result"]
        checks.expect(payload["method"] == "frame-iter" and payload["converged"] is True,
                      "reconstruct did not converge")
        checks.expect(payload["iterations"] == result.iterations,
                      f"reconstruct took {payload['iterations']} iterations, "
                      f"{result.iterations} in process")
        checks.expect(abs(payload["rel_error"] - reference["rel_error"]) <= 1e-12,
                      "reconstruct error differs from the in-process error")
        bound = self.ref.frame_iter_bound(FRAME_TOL)
        checks.expect(payload["rel_error"] <= bound,
                      f"reconstruct error {payload['rel_error']:.2e} above {bound:.2e}")


class RggCertify:
    name = "rgg1000-bfs1-certify"
    rounds = 3
    omega = 0.25

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        self.small = small
        self.n = 100 if small else 1000
        self.first = None

    def prepare(self) -> None:
        pass

    def setup(self, t) -> Ready:
        graph = t.call("generators.generate_graph", avg.generate_graph,
                       "random-geometric", self.n, self.seed)
        report = t.call("graph.validate", avg.validate, graph)
        clusters = t.call("partitions.make_clusters", avg.bfs_partition, graph, 1)
        partition = t.call("partitions.validate_partition", avg.validate_partition, graph, clusters)
        certificate = t.call("partitions.optimal_alpha", avg.optimal_alpha,
                             self.omega, partition.lambda_xi)
        return Ready(graph, report, clusters, partition, certificate=certificate)

    def check_setup(self, ready: Ready, checks: Checks, stats) -> None:
        graph, partition = ready.graph, ready.partition
        edges = graph.edges()
        checks.expect(ready.report.ok, "graph validation reported issues")
        checks.expect(graph.n == self.n and oracle.is_connected(self.n, edges),
                      "generated graph is not a connected graph on n vertices")
        labels = oracle.cluster_labels(self.n, ready.clusters, checks)
        self.lambda_ref = oracle.check_gaps(self.n, edges, ready.clusters, partition.lambda1s,
                                            partition.lambda_xi, checks)
        oracle.check_certificate(self.omega, self.lambda_ref, ready.certificate, checks)
        if self.first is None:
            self.first = (edges, ready.clusters)
        checks.expect((edges, ready.clusters) == self.first,
                      "set-up is not deterministic for a fixed seed")
        self.labels = labels
        self.sizes = np.bincount(labels).astype(float)
        stats["graph.edges"].append(graph.num_edges)
        stats["partitions.clusters"].append(partition.num_clusters)
        stats["partitions.cluster_size_max"].append(max(len(c) for c in ready.clusters))
        stats["partitions.lambda_xi"].append(partition.lambda_xi)

    def make_input(self, rng: np.random.Generator):
        return rng.standard_normal(self.n), float(rng.uniform(0.02, 0.98)) * self.lambda_ref

    def signal(self, ready: Ready, x, t, split: bool) -> dict:
        f, omega = x
        samples = t.call("partitions.analyze", avg.analyze, ready.partition, f)
        certificate = t.call("partitions.optimal_alpha", avg.optimal_alpha,
                             omega, ready.partition.lambda_xi)
        return {"samples": samples, "certificate": certificate}

    def check_signal(self, ready: Ready, x, out: dict, checks: Checks, stats) -> None:
        f, omega = x
        expected = oracle.averages(self.labels, self.sizes, f)
        checks.expect(float(np.max(np.abs(out["samples"] - expected))) <= 1e-12 * np.abs(f).max(),
                      "cluster averages differ from the reference")
        oracle.check_certificate(omega, self.lambda_ref, out["certificate"], checks)

    def command_argv(self) -> list[str]:
        script = Path(__file__).resolve().parent / "certify.py"
        return [str(script), "--n", str(self.n), "--seed", str(self.seed), "--omega", str(self.omega)]

    def command_reference(self, ready: Ready, t) -> dict:
        alpha, bound = ready.certificate
        return {"alpha": alpha, "bound": bound, "clusters": ready.partition.num_clusters,
                "edges": ready.graph.num_edges, "lambda_xi": ready.partition.lambda_xi}

    def check_command(self, stdout: str, reference: dict, checks: Checks) -> None:
        checks.expect(json.loads(stdout) == reference,
                      "certificate from a fresh interpreter differs from the in-process one")


WORKLOADS = {w.name: w for w in (PathPairsSplines, GridBfsRecover, RggCertify)}
