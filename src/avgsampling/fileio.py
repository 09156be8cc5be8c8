"""Text file formats: edge lists, signals, cluster partitions.

Edge-list files are UTF-8 text: a header line ``n=<int>``, then one line per
undirected edge ``u<TAB>v<TAB>w`` with u < v and finite w > 0. Signal files carry
one decimal per line, one line per vertex. Partition files carry one line per
cluster with space-separated vertex indices.
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError
from .graph import WeightedGraph


def read_edge_list(path: str | Path) -> WeightedGraph:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    stripped = [ln.strip() for ln in lines]
    rows = [(i + 1, ln) for i, ln in enumerate(stripped) if ln and not ln.startswith("#")]
    if not rows:
        raise InputError(f"{path}: empty edge-list file")
    header_no, header = rows[0]
    if not header.startswith("n="):
        raise InputError(f"{path}:{header_no}: expected header 'n=<int>', got {header!r}")
    try:
        n = int(header[2:])
    except ValueError:
        raise InputError(f"{path}:{header_no}: bad vertex count in header {header!r}") from None
    edges = []
    seen: set[tuple[int, int]] = set()
    for line_no, line in rows[1:]:
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputError(f"{path}:{line_no}: expected 'u<TAB>v<TAB>w', got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise InputError(f"{path}:{line_no}: unparsable edge line {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"{path}:{line_no}: edge ({u},{v}) out of range for n={n}")
        if u >= v:
            raise InputError(f"{path}:{line_no}: edges must have u < v, got ({u},{v})")
        if not 0 < w < math.inf:
            raise InputError(f"{path}:{line_no}: edge weight must be positive and finite, got {w}")
        if (u, v) in seen:
            raise InputError(f"{path}:{line_no}: duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v, w))
    return WeightedGraph.from_edges(n, edges)


def write_edge_list(graph: WeightedGraph, path: str | Path) -> None:
    lines = [f"n={graph.n}"]
    for u, v, w in graph.edges():
        lines.append(f"{u}\t{v}\t{w!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_signal(path: str | Path, n: int) -> np.ndarray:
    values = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise InputError(f"{path}:{line_no}: unparsable signal value {line!r}") from None
    f = np.array(values, dtype=float)
    if f.shape[0] != n:
        raise InputError(f"{path}: signal has {f.shape[0]} values, expected {n}")
    if not np.all(np.isfinite(f)):
        raise InputError(f"{path}: signal contains non-finite values")
    return f


def write_signal(values: np.ndarray, path: str | Path) -> None:
    Path(path).write_text(
        "\n".join(repr(float(x)) for x in np.asarray(values, dtype=float)) + "\n",
        encoding="utf-8",
    )


def read_partition(path: str | Path) -> list[tuple[int, ...]]:
    clusters = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            clusters.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise InputError(f"{path}:{line_no}: unparsable cluster line {line!r}") from None
    if not clusters:
        raise InputError(f"{path}: empty partition file")
    return clusters


def write_partition(clusters: Sequence[Sequence[int]], path: str | Path) -> None:
    Path(path).write_text(
        "\n".join(" ".join(str(v) for v in cluster) for cluster in clusters) + "\n",
        encoding="utf-8",
    )
