"""Text file formats: edge lists, signals, cluster partitions.

Edge-list files are UTF-8 text: a header line ``n=<int>``, then one line per
undirected edge ``u<TAB>v<TAB>w`` with u < v and finite w > 0. Signal files carry
one decimal per line, one line per vertex. Partition files carry one line per
cluster with space-separated vertex indices. Every number is plain ASCII
with no underscore: ``int`` and ``float`` would read ``1_0`` as 10 and
accept non-ASCII digits, which the readers refuse as unparsable.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import InputError, _vector
from .graph import WeightedGraph


def _records(path: str | Path):
    """Yield (line number, stripped line) for each line that is neither blank nor a ``#`` comment."""
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _plain(text: str) -> str:
    """``text``; ValueError for an underscore or a non-ASCII character, which ``int`` and ``float`` accept."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return text


def read_edge_list(path: str | Path) -> WeightedGraph:
    """The graph of an edge-list file; :meth:`WeightedGraph.from_edges` refuses repeated pairs."""
    rows = _records(path)
    header_no, header = next(rows, (None, None))
    if header is None:
        raise InputError(f"{path}: empty edge-list file")
    if not header.startswith("n="):
        raise InputError(f"{path}:{header_no}: expected header 'n=<int>', got {header!r}")
    try:
        n = int(_plain(header[2:]))
    except ValueError:
        raise InputError(f"{path}:{header_no}: bad vertex count in header {header!r}") from None
    edges = []
    for line_no, line in rows:
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputError(f"{path}:{line_no}: expected 'u<TAB>v<TAB>w', got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
            _plain(line)
        except ValueError:
            raise InputError(f"{path}:{line_no}: unparsable edge line {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"{path}:{line_no}: edge ({u},{v}) out of range for n={n}")
        if u >= v:
            raise InputError(f"{path}:{line_no}: edges must have u < v, got ({u},{v})")
        if not 0 < w < math.inf:
            raise InputError(f"{path}:{line_no}: edge weight must be positive and finite, got {w}")
        edges.append((u, v, w))
    try:
        return WeightedGraph.from_edges(n, edges)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_signal(path: str | Path, n: int) -> np.ndarray:
    values = []
    for line_no, line in _records(path):
        try:
            values.append(float(_plain(line)))
        except ValueError:
            raise InputError(f"{path}:{line_no}: unparsable signal value {line!r}") from None
    return _vector(values, n, f"{path}: signal")


def read_partition(path: str | Path) -> list[tuple[int, ...]]:
    clusters = []
    for line_no, line in _records(path):
        try:
            clusters.append(tuple(int(tok) for tok in _plain(line).split()))
        except ValueError:
            raise InputError(f"{path}:{line_no}: unparsable cluster line {line!r}") from None
    if not clusters:
        raise InputError(f"{path}: empty partition file")
    return clusters
