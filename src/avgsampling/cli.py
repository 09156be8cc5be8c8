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
from .harness import (DEFAULT_SPLINE_ORDERS, SCHEMA_VERSION, alpha_star_entries, demo_path, recovery_entries,
                      spline_rows, stable_json)
from .partitions import (
    ClusterPartition,
    analyze,
    bfs_partition,
    blocks_partition,
    build_frame_system,
    pairs_partition,
    validate_partition,
)
from .reconstruct import FrameIterationConfig, dual_frame_reconstruct, frame_algorithm
from .spectral import SpectralDecomposition, build_laplacian, eigendecompose, pw_project
from .splines import spline_convergence_experiment


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(kind):
    """``kind`` by the file readers' rule (``fileio._plain``), under ``kind``'s name, which argparse's errors show."""
    def read(text: str):
        return kind(fileio._plain(text))
    read.__name__ = kind.__name__
    return read


def _clusters(spec: str, graph) -> list[tuple[int, ...]]:
    """The clusters a ``--clusters`` spec names: pairs | blocks:<m> | bfs:<r>."""
    kind, colon, value = spec.partition(":")
    if spec == "pairs":
        return pairs_partition(graph.n)
    if not (colon and kind in ("blocks", "bfs")):
        raise InputError(f"bad --clusters spec {spec!r}; use pairs | blocks:<m> | bfs:<r>")
    try:
        size = int(fileio._plain(value))
    except ValueError:
        raise InputError(f"bad --clusters spec {spec!r}; blocks:<m> and bfs:<r> take integers") from None
    return blocks_partition(graph.n, size) if kind == "blocks" else bfs_partition(graph, size)


def _inputs(args) -> tuple[SpectralDecomposition, ClusterPartition | None, np.ndarray | None]:
    """The run's eigendecomposition, its validated cover and its band signal.

    The cover is read when the command takes one (``--partition | --clusters``)
    and the band signal when it takes a signal (``--signal | --random-seed``);
    each is None otherwise. The graph, the cover and the signal file are all
    checked before the eigensolve. The band signal is the projection of the
    file's values, or a seeded draw from the band; one with no in-band content
    is refused, for there is nothing to recover and no norm to scale errors by.
    """
    given = {name: value for name, value in vars(args).items()
             if name in ("n", "seed", "p", "radius") and value is not None}
    if args.graph is not None:
        if given:
            raise InputError(f"--{next(iter(given))} is read only by --generate, not with --graph")
        graph = fileio.read_edge_list(args.graph)
    else:
        for name in given:
            if name != "n" and name not in GRAPH_KINDS[args.generate][1]:
                readers = " or ".join(kind for kind, (_, options) in GRAPH_KINDS.items() if name in options)
                raise InputError(f"--{name} is read only by --generate {readers}, not by --generate {args.generate}")
        if "n" not in given:
            raise InputError("--generate requires --n")
        graph = generate_graph(args.generate, **given)
    partition = None
    if "clusters" in args:
        clusters = _clusters(args.clusters, graph) if args.partition is None else fileio.read_partition(args.partition)
        partition = validate_partition(graph, clusters)
    signal = getattr(args, "signal", None)
    if signal is not None:
        signal = fileio.read_signal(signal, n=graph.n)
    decomp = eigendecompose(build_laplacian(graph))
    band = None
    if "signal" in args:
        if signal is None:
            signal = generate_pw_signal(decomp, args.omega, args.random_seed)
        band = pw_project(decomp, args.omega, signal)
        if not np.linalg.norm(band):
            raise InputError("signal has no content inside the requested band")
    return decomp, partition, band


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _emit(args, text: str) -> int:
    """Write ``text`` to ``--out``, or to stdout when none is given; exit status 0."""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_spectrum(args) -> int:
    eigenvalues = _inputs(args)[0].eigenvalues
    if args.format == "json":
        return _emit(args, stable_json({"eigenvalues": eigenvalues}))
    return _emit(args, _csv("index,eigenvalue", (f"{i},{v:.15g}" for i, v in enumerate(eigenvalues))))


def _cmd_frame_check(args) -> int:
    decomp, partition, _ = _inputs(args)
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
    return _emit(args, stable_json(payload))


def _cmd_reconstruct(args) -> int:
    given = {name: value for name, value in vars(args).items()
             if name in ("mu", "tol", "max_iter") and value is not None}
    if given and args.method == "dual":
        flag = next(iter(given)).replace("_", "-")
        raise InputError(f"--{flag} is read only by --method frame-iter, not by --method dual")
    config = FrameIterationConfig(**given)
    decomp, partition, truth = _inputs(args)
    # alpha only sets gamma, which recovery neither uses nor reports.
    frame = build_frame_system(decomp, partition, args.omega, 1.0)
    samples = analyze(partition, truth)
    if args.method == "frame-iter":
        result = frame_algorithm(frame, samples, config)
    else:
        result = dual_frame_reconstruct(frame, samples)
    entries = recovery_entries(result, truth, float(np.linalg.norm(truth)))
    return _emit(args, stable_json({"schema": SCHEMA_VERSION, "method": args.method, **entries}))


def _cmd_spline(args) -> int:
    decomp, partition, signal = _inputs(args)
    rows = spline_convergence_experiment(
        decomp, partition, args.omega, args.alpha, signal, args.k or DEFAULT_SPLINE_ORDERS
    )
    if args.format == "json":
        return _emit(args, stable_json({"schema": SCHEMA_VERSION, "rows": spline_rows(rows)}))
    return _emit(args, _csv("k,rel_error,bound_2gamma_k,within_bound",
                            (f"{r.order},{r.rel_error:.15g},{r.bound:.15g},{str(r.within_bound).lower()}"
                             for r in rows)))


def _cmd_demo_path(args) -> int:
    return _emit(args, stable_json(demo_path(args.n, args.omega, args.alpha, seed=args.seed, trials=args.trials)))


def build_parser() -> argparse.ArgumentParser:
    # Each shared option group is declared once, as a parent parser that subcommands list.
    graph, cover, signal, omega, alpha, out, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(7))
    source = graph.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="FILE", help="edge-list file")
    source.add_argument("--generate", metavar="KIND", choices=GRAPH_KINDS,
                        help=f"generate a graph ({'|'.join(GRAPH_KINDS)})")
    graph.add_argument("--n", type=_number(int), help="vertex count for --generate")
    graph.add_argument("--seed", type=_number(int), help="generator seed (default 0)")
    graph.add_argument("--p", type=_number(float), help="edge probability for erdos-renyi-weighted (default 0.3)")
    graph.add_argument("--radius", type=_number(float), help="connection radius for random-geometric")
    clusters = cover.add_mutually_exclusive_group(required=True)
    clusters.add_argument("--partition", metavar="FILE", help="partition file")
    clusters.add_argument("--clusters", metavar="SPEC", help="generate clusters: pairs | blocks:<m> | bfs:<r>")
    values = signal.add_mutually_exclusive_group(required=True)
    values.add_argument("--signal", metavar="FILE", help="signal file")
    values.add_argument("--random-seed", metavar="INT", type=_number(int), help="seed of a random band signal")
    omega.add_argument("--omega", type=_number(float), required=True, help="bandwidth")
    alpha.add_argument("--alpha", type=_number(float), default=1.0, help="balance parameter")
    out.add_argument("--out", metavar="FILE", help="output file (default stdout)")
    fmt.add_argument("--format", choices=("json", "csv"), default="csv", help="output format")

    parser = _Parser(prog="avgsampling",
                     description="Sample and reconstruct bandlimited graph signals "
                                 "from vertex-cluster averages.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", parents=[graph, out, fmt], help="Laplacian eigenvalues as CSV")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_frame = sub.add_parser("frame-check", parents=[graph, cover, omega, alpha, out],
                             help="frame bounds of cluster averages on a band")
    p_frame.set_defaults(func=_cmd_frame_check)

    p_rec = sub.add_parser("reconstruct", parents=[graph, cover, omega, signal, out],
                           help="recover a band signal from its averages")
    p_rec.add_argument("--method", choices=("frame-iter", "dual"), default="dual")
    p_rec.add_argument("--mu", type=_number(float), help="relaxation parameter (frame-iter only)")
    p_rec.add_argument("--tol", type=_number(float), help="stopping threshold (frame-iter only)")
    p_rec.add_argument("--max-iter", type=_number(int), help="iteration budget (frame-iter only)")
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_spl = sub.add_parser("spline", parents=[graph, cover, omega, alpha, signal, out, fmt],
                           help="spline interpolation error against 2*gamma^k")
    p_spl.add_argument("--k", type=_number(int), action="append", help="spline order (repeatable)")
    p_spl.set_defaults(func=_cmd_spline)

    p_demo = sub.add_parser("demo-path", parents=[omega, alpha, out],
                            help="full pipeline on a path graph with pair clusters")
    p_demo.add_argument("--n", type=_number(int), required=True, help="even vertex count")
    p_demo.add_argument("--seed", type=_number(int), default=0)
    p_demo.add_argument("--trials", type=_number(int), default=3)
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
