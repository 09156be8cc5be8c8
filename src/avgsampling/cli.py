"""Command-line interface.

Subcommands: spectrum, frame-check, reconstruct, spline, demo-path.
Exit codes: 0 success, 1 usage/input error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import InputError, NumericalError
from .generators import GRAPH_KINDS, generate_graph, generate_pw_signal
from .graph import WeightedGraph
from .harness import (DEFAULT_SPLINE_ORDERS, SCHEMA_VERSION, alpha_star_entries, demo_path, recovery_entries,
                      spline_rows, stable_json)
from .partitions import (
    analyze,
    bfs_partition,
    blocks_partition,
    build_frame_system,
    pairs_partition,
    validate_partition,
)
from .reconstruct import FrameIterationConfig, dual_frame_reconstruct, frame_algorithm
from .spectral import build_laplacian, eigendecompose, pw_project
from .splines import spline_convergence_experiment


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_graph_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="FILE", help="edge-list file")
    source.add_argument("--generate", metavar="KIND", choices=GRAPH_KINDS,
                        help=f"generate a graph ({'|'.join(GRAPH_KINDS)})")
    parser.add_argument("--n", type=int, help="vertex count for --generate")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--p", type=float, default=0.3,
                        help="edge probability for erdos-renyi-weighted")
    parser.add_argument("--radius", type=float, default=None,
                        help="connection radius for random-geometric")


def _add_partition_options(parser: argparse.ArgumentParser) -> None:
    cover = parser.add_mutually_exclusive_group(required=True)
    cover.add_argument("--partition", metavar="FILE", help="partition file")
    cover.add_argument("--clusters", metavar="SPEC",
                       help="generate clusters: pairs | blocks:<m> | bfs:<r>")


def _add_signal_options(parser: argparse.ArgumentParser) -> None:
    signal = parser.add_mutually_exclusive_group(required=True)
    signal.add_argument("--signal", metavar="FILE", help="signal file")
    signal.add_argument("--random-seed", metavar="INT", type=int, help="seed of a random band signal")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="FILE", help="output file (default stdout)")


def _load_graph(args) -> WeightedGraph:
    if args.graph is not None:
        return fileio.read_edge_list(args.graph)
    if args.n is None:
        raise InputError("--generate requires --n")
    return generate_graph(args.generate, args.n, seed=args.seed, p=args.p, radius=args.radius)


def _load_partition(args, graph: WeightedGraph):
    if args.partition is not None:
        return validate_partition(graph, fileio.read_partition(args.partition))
    spec = args.clusters
    kind, colon, value = spec.partition(":")
    if spec == "pairs":
        clusters = pairs_partition(graph.n)
    elif colon and kind in ("blocks", "bfs"):
        try:
            size = int(value)
        except ValueError:
            raise InputError(f"bad --clusters spec {spec!r}; blocks:<m> and bfs:<r> take integers") from None
        clusters = blocks_partition(graph.n, size) if kind == "blocks" else bfs_partition(graph, size)
    else:
        raise InputError(f"bad --clusters spec {spec!r}; use pairs | blocks:<m> | bfs:<r>")
    return validate_partition(graph, clusters)


def _read_signal(args, graph) -> np.ndarray | None:
    """The --signal file's values, or None when --random-seed asks for a band signal."""
    return None if args.signal is None else fileio.read_signal(args.signal, n=graph.n)


def _band_signal(args, decomp, signal: np.ndarray | None) -> tuple[np.ndarray, float]:
    """The band projection of the signal (a seeded band draw when none was read) and its norm.

    Refuses a signal with no in-band content: nothing to recover and no norm to scale errors by.
    """
    if signal is None:
        signal = generate_pw_signal(decomp, args.omega, args.random_seed)
    band = pw_project(decomp, args.omega, signal)
    norm = float(np.linalg.norm(band))
    if norm == 0.0:
        raise InputError("signal has no content inside the requested band")
    return band, norm


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args) -> int:
    graph = _load_graph(args)
    decomp = eigendecompose(build_laplacian(graph))
    if args.format == "json":
        _emit(stable_json({"eigenvalues": decomp.eigenvalues}), args.out)
    else:
        lines = ["index,eigenvalue"]
        lines += [f"{i},{v:.15g}" for i, v in enumerate(decomp.eigenvalues)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_frame_check(args) -> int:
    graph = _load_graph(args)
    partition = _load_partition(args, graph)
    decomp = eigendecompose(build_laplacian(graph))
    frame = build_frame_system(decomp, partition, args.omega, args.alpha)
    payload = {
        "schema": SCHEMA_VERSION,
        "omega": frame.omega,
        "alpha": frame.alpha,
        "gamma": frame.gamma,
        "lambda_Xi": partition.lambda_xi,
        "a": frame.lower,
        "b": frame.upper,
        "guarantee_active": frame.guarantee_active,
    }
    payload.update(alpha_star_entries(args.omega, partition.lambda_xi))
    _emit(stable_json(payload), args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    graph = _load_graph(args)
    partition = _load_partition(args, graph)
    signal = _read_signal(args, graph)
    decomp = eigendecompose(build_laplacian(graph))
    truth, truth_norm = _band_signal(args, decomp, signal)
    # alpha only sets gamma, which recovery neither uses nor reports.
    frame = build_frame_system(decomp, partition, args.omega, 1.0)
    samples = analyze(partition, truth)
    if args.method == "frame-iter":
        config = FrameIterationConfig(mu=args.mu, max_iter=args.max_iter, tol=args.tol)
        result = frame_algorithm(frame, samples, config)
    else:
        result = dual_frame_reconstruct(frame, samples)
    payload = {"schema": SCHEMA_VERSION, "method": args.method, **recovery_entries(result, truth, truth_norm)}
    _emit(stable_json(payload), args.out)
    return 0


def _cmd_spline(args) -> int:
    graph = _load_graph(args)
    partition = _load_partition(args, graph)
    signal = _read_signal(args, graph)
    decomp = eigendecompose(build_laplacian(graph))
    signal = _band_signal(args, decomp, signal)[0]
    rows = spline_convergence_experiment(
        decomp, partition, args.omega, args.alpha, signal, args.k or DEFAULT_SPLINE_ORDERS
    )
    if args.format == "json":
        _emit(stable_json({"schema": SCHEMA_VERSION, "rows": spline_rows(rows)}), args.out)
    else:
        lines = ["k,rel_error,bound_2gamma_k,within_bound"]
        lines += [f"{r.order},{r.rel_error:.15g},{r.bound:.15g},{str(r.within_bound).lower()}"
                  for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_demo_path(args) -> int:
    report = demo_path(args.n, args.omega, args.alpha, seed=args.seed, trials=args.trials)
    _emit(stable_json(report), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="avgsampling",
                     description="Sample and reconstruct bandlimited graph signals "
                                 "from vertex-cluster averages.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", parents=[], help="Laplacian eigenvalues as CSV")
    _add_graph_options(p_spec)
    _add_output_options(p_spec)
    p_spec.add_argument("--format", choices=("json", "csv"), default="csv", help="output format")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_frame = sub.add_parser("frame-check", help="frame bounds of cluster averages on a band")
    _add_graph_options(p_frame)
    _add_partition_options(p_frame)
    p_frame.add_argument("--omega", type=float, required=True, help="bandwidth")
    p_frame.add_argument("--alpha", type=float, default=1.0, help="balance parameter")
    _add_output_options(p_frame)
    p_frame.set_defaults(func=_cmd_frame_check)

    p_rec = sub.add_parser("reconstruct", help="recover a band signal from its averages")
    _add_graph_options(p_rec)
    _add_partition_options(p_rec)
    p_rec.add_argument("--omega", type=float, required=True)
    p_rec.add_argument("--method", choices=("frame-iter", "dual"), default="dual")
    p_rec.add_argument("--mu", type=float, default=None, help="relaxation parameter")
    p_rec.add_argument("--tol", type=float, default=1e-10)
    p_rec.add_argument("--max-iter", type=int, default=10000)
    _add_signal_options(p_rec)
    _add_output_options(p_rec)
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_spl = sub.add_parser("spline", help="spline interpolation error against 2*gamma^k")
    _add_graph_options(p_spl)
    _add_partition_options(p_spl)
    p_spl.add_argument("--k", type=int, action="append", help="spline order (repeatable)")
    p_spl.add_argument("--omega", type=float, required=True)
    p_spl.add_argument("--alpha", type=float, default=1.0)
    _add_signal_options(p_spl)
    _add_output_options(p_spl)
    p_spl.add_argument("--format", choices=("json", "csv"), default="csv", help="output format")
    p_spl.set_defaults(func=_cmd_spline)

    p_demo = sub.add_parser("demo-path", help="full pipeline on a path graph with pair clusters")
    p_demo.add_argument("--n", type=int, required=True, help="even vertex count")
    p_demo.add_argument("--omega", type=float, required=True)
    p_demo.add_argument("--alpha", type=float, default=1.0)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--trials", type=int, default=3)
    _add_output_options(p_demo)
    p_demo.set_defaults(func=_cmd_demo_path)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
