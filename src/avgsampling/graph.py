"""Finite weighted graphs and their connected components.

Vertices are dense integer indices 0..n-1. Edges carry positive finite
symmetric weights; a pair with weight zero is a non-edge. Signals on a graph
are plain 1-D numpy arrays of length n.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .errors import InputError, _ids, _integer, _shown

#: The most vertices a graph may have. It keeps the int64 sort keys below
#: 2**63: ``from_edges``'s reaches about (n + 2)**2, ``_from_pairs``'s n**2.
MAX_VERTICES = 2**31 - 1


@dataclass(frozen=True, init=False, eq=False)
class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1, valid by construction.

    One constructor, ``_from_pairs``, lays out every graph: it takes pairs
    already known valid and stores each edge once, in ``_edge_arrays``:
    read-only arrays ``us < vs``, sorted by (u, v), and their positive
    finite weights ``ws``. Input from outside the package goes through
    :meth:`from_edges`, which checks every edge before handing the valid
    pairs on; the generators hand over the pairs they built.

    Instances are frozen dataclasses, immutable after construction and safe
    to share across threads; a graph equals only itself.
    """

    n: int
    _edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, *args, **kwargs):
        raise TypeError("build a WeightedGraph with WeightedGraph.from_edges")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]] | np.ndarray) -> "WeightedGraph":
        """Build a graph from undirected edges.

        ``edges`` is an iterable of (u, v, w) triples or an (E, 3) array.
        Rejects an n that is not an integer from 1 to ``MAX_VERTICES``, an
        edge that is not three real numbers, another array shape,
        non-integer (fractional, NaN or infinite) ids of any numeric type,
        out-of-range ids, loops, negative or non-finite weights, weights
        beyond the largest float and pairs repeated in either
        orientation, naming the first offending edge. Zero-weight edges are dropped (a zero weight means
        "no edge"). One stable sort of the int64 key
        ``(lo + 1) * (n + 2) + (hi + 1)`` of each pair's ends ``lo <= hi``,
        clipped to [-1, n], orders the edges by (lo, hi), a repeat after the
        entry it repeats. The valid nonzero-weight pairs then go to
        ``_from_pairs``.
        """
        n = _integer(n, "n", most=MAX_VERTICES)
        raw_us, raw_vs, raw_ws = _columns(edges)
        huge = None
        if raw_ws.dtype.kind == "O":  # an int or fraction past the largest float, which float() refuses
            with np.errstate(invalid="ignore"):  # a NaN entry does not order
                huge = (abs(raw_ws) > sys.float_info.max) & (abs(raw_ws) != math.inf)
        ws = (raw_ws if huge is None else np.where(huge, math.inf, raw_ws)).astype(float, copy=False)
        (us, u_whole), (vs, v_whole) = _ids(raw_us, n), _ids(raw_vs, n)
        whole = u_whole & v_whole
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        key = (lo.astype(np.int64) + 1) * (n + 2) + (hi + 1)
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        repeated = np.zeros(len(us), dtype=bool)
        repeated[order[1:]] = sorted_key[1:] == sorted_key[:-1]
        bad = ~whole | (lo < 0) | (hi >= n) | (us == vs) | ~np.isfinite(ws) | (ws < 0) | repeated
        if bad.any():
            i = int(bad.argmax())
            if not whole[i]:
                u, v = _shown(raw_us[i]), _shown(raw_vs[i])
                raise InputError(f"edge ({u},{v}) has a non-integer vertex id")
            u, v, w = int(raw_us[i]), int(raw_vs[i]), float(ws[i])
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop edge ({u},{v}) is not allowed")
            if huge is not None and huge[i]:
                raise InputError(f"weight {raw_ws[i]} on edge ({u},{v}) is beyond the largest float")
            if not math.isfinite(w):
                raise InputError(f"non-finite weight {w} on edge ({u},{v})")
            if w < 0:
                raise InputError(f"negative weight {w} on edge ({u},{v})")
            raise InputError(f"duplicate edge ({u},{v})")
        keep = order[ws[order] != 0.0]
        return cls._from_pairs(n, lo[keep], hi[keep], ws[keep])

    @classmethod
    def _from_pairs(cls, n: int, lo: np.ndarray, hi: np.ndarray, ws: np.ndarray) -> "WeightedGraph":
        """The graph of pairs already known valid, with no per-edge check.

        The caller guarantees an int n from 1 to ``MAX_VERTICES``,
        ``0 <= lo < hi < n``, no pair twice, and finite positive weights
        ``ws``. One stable sort of the int64 key ``lo * n + hi`` orders the
        edges by (lo, hi).
        """
        lo, hi = np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)
        order = np.argsort(lo.astype(np.int64) * n + hi, kind="stable")
        arrays = lo[order], hi[order], np.asarray(ws, dtype=np.float64)[order]
        for arr in arrays:
            arr.flags.writeable = False
        graph = object.__new__(cls)
        vars(graph).update(n=n, _edge_arrays=arrays)
        return graph

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as (u, v, w) with u < v, sorted."""
        us, vs, ws = self._edge_arrays
        return list(zip(us.tolist(), vs.tolist(), ws.tolist()))

    @property
    def num_edges(self) -> int:
        return len(self._edge_arrays[0])


def _columns(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The u, v and w columns of (u, v, w) triples or of an (E, 3) array.

    InputError for an array of another shape, and otherwise naming the first
    edge that is not three entries or has an entry that is not a real number.
    Flat columns of numpy's bool, integer or float kinds are taken as they
    are; the edges are scanned one by one only when some column is not.
    """
    if isinstance(edges, np.ndarray):
        if edges.ndim != 2 or edges.shape[1] != 3:
            raise InputError(f"edge array has shape {edges.shape}, expected (E, 3)")
        columns = list(edges.T)
    else:
        edges = list(edges)
        try:
            columns = [np.asarray(column) for column in zip(*edges, strict=True)] or [np.empty(0)] * 3
        except (TypeError, ValueError):  # an edge that is no sequence, edges of unequal lengths or a nested entry
            columns = []
    if len(columns) == 3 and all(column.dtype.kind in "biuf" and column.ndim == 1 for column in columns):
        return tuple(columns)
    for edge in edges.tolist() if isinstance(edges, np.ndarray) else edges:
        try:
            entries = tuple(edge)
        except TypeError:
            entries = ()
        if len(entries) != 3:
            raise InputError(f"edge {edge!r} is not a (u, v, w) triple")
        for entry, what in zip(entries, ("vertex id", "vertex id", "weight")):
            if not isinstance(entry, numbers.Real):
                raise InputError(f"edge {entries!r} has a non-numeric {what} {entry!r}")
    return tuple(columns)


def _adjacency(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``indptr`` and ``indices``, each vertex's neighbours ascending: one sort of the keys ``head * n + tail``."""
    us, vs, _ = graph._edge_arrays
    heads = np.concatenate([us, vs])
    tails = np.sort(heads * graph.n + np.concatenate([vs, us]))
    tails %= graph.n
    indptr = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=graph.n))])
    indptr.flags.writeable = tails.flags.writeable = False
    return indptr, tails


@dataclass(frozen=True)
class ValidationReport:
    """What :func:`validate` found; always nothing, see there."""

    issues: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(graph: WeightedGraph) -> ValidationReport:
    """An empty report: :meth:`WeightedGraph.from_edges` refuses every malformed
    edge, so no graph can hold one. Kept for callers that read ``.ok``."""
    return ValidationReport()


def is_connected(graph: WeightedGraph) -> bool:
    """True iff the nonzero-weight edge relation has a single component."""
    return _components(graph.n, *graph._edge_arrays[:2])[0] == 1


def _components(n: int, us: np.ndarray, vs: np.ndarray) -> tuple[int, np.ndarray]:
    """Number of connected components of the edges (us, vs) on n vertices, and each vertex's component index.

    The edges must be sorted by ``us``; each enters once, as a row entry of
    a triangular CSR matrix, which ``directed=False`` makes enough.
    """
    indptr = np.concatenate([[0], np.cumsum(np.bincount(us, minlength=n))])
    return csgraph.connected_components(
        csr_matrix((np.ones(len(vs)), vs, indptr), shape=(n, n)), directed=False)
