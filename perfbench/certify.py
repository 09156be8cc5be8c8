"""Certify the cluster-average frame of a random geometric graph, in a fresh interpreter.

This is the command of the rgg1000-bfs1-certify workload. Every CLI command
computes a global eigendecomposition first, which the pure-Python solver
cannot do at n=1000 in a benchmark run, so this workload's command calls the
same public functions as its set-up from a script instead. It prints the
certificate as stable JSON. Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/certify.py --n 1000 --seed 3 --omega 0.25
"""
from __future__ import annotations

import argparse
import sys

import avgsampling as avg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--omega", type=float, required=True)
    args = parser.parse_args(argv)
    graph = avg.generate_graph("random-geometric", args.n, seed=args.seed)
    report = avg.validate(graph)
    if not report.ok:
        print(f"error: generated graph is invalid: {report.issues[0].detail}", file=sys.stderr)
        return 1
    partition = avg.validate_partition(graph, avg.bfs_partition(graph, 1))
    alpha, bound = avg.optimal_alpha(args.omega, partition.lambda_xi)
    sys.stdout.write(avg.stable_json({
        "alpha": alpha,
        "bound": bound,
        "clusters": partition.num_clusters,
        "edges": graph.num_edges,
        "lambda_xi": partition.lambda_xi,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
