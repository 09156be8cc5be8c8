"""Seeded graph and signal generators for experiments and tests.

Randomness comes from numpy's PCG64 generator, so a (kind, params, seed)
triple reproduces the same graph bit for bit; the generator name is embedded
in experiment reports.

Random-geometric graphs find their close pairs with a numpy cell list
(``_close_pairs``): the unit square is cut into cells at least one radius
wide, so only pairs inside one cell or in two neighbouring cells are
candidates. Squared distances decide every candidate away from the radius,
and ``np.hypot`` decides the few on a thin band around it, so the edge set
is exactly the all-pairs ``np.hypot(dx, dy) <= radius`` one.

Each generator builds its edges as integer arrays ``lo < hi`` with positive
weights, valid by construction, and hands them to the graph's constructor
for valid pairs (``WeightedGraph._from_pairs``), which sorts them once; the
per-edge checks of ``WeightedGraph.from_edges`` are for input from outside
the package. ``GRAPH_KINDS`` is the one table of graph kinds, and
``generate_graph`` reads n once, with the integer rule and cap of
``from_edges``, for every builder.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalError, _integer
from .graph import MAX_VERTICES, WeightedGraph, is_connected
from .spectral import SpectralDecomposition, pw_space

GENERATOR_NAME = "numpy-PCG64"

#: How many fresh draws a random generator may take before giving up on
#: producing a connected graph.
RETRY_BUDGET = 50


def _rng(seed: int) -> np.random.Generator:
    """PCG64 stream of a seed; InputError unless the seed is a nonnegative integer."""
    return np.random.Generator(np.random.PCG64(_integer(seed, "seed", least=0)))


def _path(n: int) -> WeightedGraph:
    lo = np.arange(n - 1, dtype=np.intp)
    return WeightedGraph._from_pairs(n, lo, lo + 1, np.ones(n - 1))


def _cycle(n: int) -> WeightedGraph:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    us = np.arange(n, dtype=np.intp)
    vs = (us + 1) % n
    return WeightedGraph._from_pairs(n, np.minimum(us, vs), np.maximum(us, vs), np.ones(n))


def _grid2d(n: int) -> WeightedGraph:
    side = math.isqrt(n)
    if side * side != n:
        raise InputError(f"grid2d needs a perfect-square vertex count, got {n}")
    v = np.arange(n, dtype=np.intp).reshape(side, side)
    lo = np.concatenate([v[:, :-1].ravel(), v[:-1, :].ravel()])  # right, then down
    hi = np.concatenate([v[:, 1:].ravel(), v[1:, :].ravel()])
    return WeightedGraph._from_pairs(n, lo, hi, np.ones(len(lo)))


def _erdos_renyi_weighted(n: int, p: float, seed: int) -> WeightedGraph:
    """G(n, p) with edge weights uniform in [0.5, 1.5]; redrawn until connected."""
    if n < 2:
        raise InputError(f"random graph needs n >= 2, got {n}")
    if not (0.0 < p <= 1.0):
        raise InputError(f"edge probability must be in (0, 1], got {p}")
    rng = _rng(seed)
    for _ in range(RETRY_BUDGET):
        us, vs, ws = [], [], []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    us.append(u)
                    vs.append(v)
                    ws.append(float(rng.uniform(0.5, 1.5)))
        graph = WeightedGraph._from_pairs(n, np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp), np.array(ws))
        if is_connected(graph):
            return graph
    raise NumericalError(
        f"no connected graph in {RETRY_BUDGET} draws for n={n}, p={p}, seed={seed}"
    )


#: Relative half-width of the band of squared distances around radius**2 on
#: which ``_close_pairs`` lets ``np.hypot`` decide, and the absolute width
#: added to it; see the rounding bound there.
_BAND = 1e-12
_BAND_FLOOR = 2.0**-1000

#: The cell offsets whose pairs ``_close_pairs`` tests: a point's own cell and
#: four of its eight neighbours, so each pair of neighbouring cells once.
_CELL_OFFSETS = ((0, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


def _partner_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with lo[i] <= j < hi[i], as two arrays ordered by i, then j."""
    lengths = hi - lo
    owners = np.repeat(np.arange(len(lo)), lengths)
    return owners, np.arange(len(owners)) + np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)


def _close_pairs(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs u < v with ``np.hypot(*(points[u] - points[v])) <= radius``, as int64 arrays u, v sorted by (u, v).

    ``points`` is an (n, 2) float array in the unit square, n >= 1, and
    ``radius`` is positive. Each side is cut into m cells of side
    1/m >= radius * (1 + 1e-9), so a close pair lies in one cell or in two
    neighbouring ones (the cell index ``floor(x * m)`` is monotone in x under
    rounding, and the widening covers the rounding of m). m is capped at
    ceil(sqrt(n)): a wider cell is still correct, and the cap keeps the
    m**2 cells within n + 2 sqrt(n) + 1 however small the radius. One stable
    sort puts the points in cell order; each offset's candidates are filtered
    before the next offset's are made, so what is held is one offset's
    candidates plus the close pairs so far, keyed once after the last offset.

    The decision is ``np.hypot``'s. With u = 2**-53, the squared distance
    ``d2 = dx*dx + dy*dy`` of the computed differences is within 3u of their
    exact sum of squares, plus 2**-1073 for underflow; the two thresholds
    below err alike; and the C library's hypot errs by under an ulp (2u),
    so it can decide differently from the exact distance only within about
    5u * radius**2 of radius**2. A candidate with ``d2`` at most
    ``radius**2 * (1 - _BAND) - _BAND_FLOOR`` is therefore close for hypot
    too, and one above ``radius**2 * (1 + _BAND) + _BAND_FLOOR`` is not: the
    band is 1e-12 relative (about 4500u) and 2**-1000 absolute. Candidates
    between the two are decided by ``np.hypot`` itself. A difference taken
    the other way round changes only its sign, exactly, and neither hypot
    nor ``d2`` sees a sign.
    """
    n = len(points)
    radius = float(radius)
    m = max(1, int(min(math.isqrt(n - 1) + 1, 1.0 / (radius * (1.0 + 1e-9)))))
    cells = np.minimum((points * m).astype(np.intp), m - 1)  # x * m is m at x = 1, and may round up to it below
    order = np.argsort(cells[:, 0] * m + cells[:, 1], kind="stable")
    cx, cy = cells[order, 0], cells[order, 1]
    xs, ys = points[order, 0], points[order, 1]
    starts = np.concatenate([[0], np.cumsum(np.bincount(cx * m + cy, minlength=m * m))])
    squared = radius * radius
    accept_to, reject_above = squared * (1.0 - _BAND) - _BAND_FLOOR, squared * (1.0 + _BAND) + _BAND_FLOOR
    firsts, seconds = [], []
    for ox, oy in _CELL_OFFSETS:
        nx, ny = cx + ox, cy + oy
        inside = (nx >= 0) & (nx < m) & (ny < m)  # oy >= 0, so ny >= 0
        neighbour = np.where(inside, nx * m + ny, 0)
        hi = np.where(inside, starts[neighbour + 1], 0)
        # Within its own cell a point pairs with the points after it.
        lo = np.arange(1, n + 1) if (ox, oy) == (0, 0) else np.minimum(starts[neighbour], hi)
        a, b = _partner_ranges(lo, hi)
        dx, dy = xs[a] - xs[b], ys[a] - ys[b]
        d2 = dx * dx
        d2 += dy * dy
        close = d2 <= accept_to
        band = np.flatnonzero(~close & (d2 <= reject_above))
        close[band] = np.hypot(dx[band], dy[band]) <= radius
        keep = np.flatnonzero(close)
        firsts.append(a[keep])
        seconds.append(b[keep])
    u, v = order[np.concatenate(firsts)], order[np.concatenate(seconds)]
    keys = np.sort(np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v))
    return np.divmod(keys, n)


def _random_geometric(n: int, radius: float | None, seed: int) -> WeightedGraph:
    """Unit-weight edges between uniform points in the unit square within radius.

    Each draw is n uniform points; a pair is an edge exactly when
    ``np.hypot`` of its coordinate differences is at most the radius (the
    default is 1.5 * sqrt(log n / (pi n)), a little above the connectivity
    threshold). The close pairs come from ``_close_pairs``, a cell list
    whose squared-distance shortcut defers to ``np.hypot`` near the radius,
    so every edge decision is the all-pairs ``np.hypot`` one. A draw whose
    graph is not connected is redrawn, up to ``RETRY_BUDGET`` draws.
    """
    if n < 2:
        raise InputError(f"random graph needs n >= 2, got {n}")
    if radius is None:
        radius = 1.5 * math.sqrt(math.log(max(n, 2)) / (math.pi * n))
    if not radius > 0:  # NaN included
        raise InputError(f"radius must be positive, got {radius}")
    rng = _rng(seed)
    for _ in range(RETRY_BUDGET):
        lo, hi = _close_pairs(rng.random((n, 2)), radius)
        graph = WeightedGraph._from_pairs(n, lo, hi, np.ones(len(lo)))
        if is_connected(graph):
            return graph
    raise NumericalError(
        f"no connected graph in {RETRY_BUDGET} draws for n={n}, radius={radius}, seed={seed}"
    )


#: Each graph kind, in the order ``--help`` lists them: its builder and the options it reads besides n.
GRAPH_KINDS = {
    "path": (_path, ()),
    "cycle": (_cycle, ()),
    "grid2d": (_grid2d, ()),
    "random-geometric": (_random_geometric, ("radius", "seed")),
    "erdos-renyi-weighted": (_erdos_renyi_weighted, ("p", "seed")),
}


def generate_graph(kind: str, n: int, seed: int = 0, p: float = 0.3,
                   radius: float | None = None) -> WeightedGraph:
    """A connected graph of a kind in ``GRAPH_KINDS`` on n vertices, built
    from only the options that kind's entry lists, or raise."""
    if not (isinstance(kind, str) and kind in GRAPH_KINDS):
        raise InputError(f"unknown graph kind {kind!r}; choices: {', '.join(GRAPH_KINDS)}")
    build, options = GRAPH_KINDS[kind]
    given = {"seed": seed, "p": p, "radius": radius}
    return build(_integer(n, "n", most=MAX_VERTICES), **{name: given[name] for name in options})


def generate_pw_signal(decomp: SpectralDecomposition, omega: float, seed: int) -> np.ndarray:
    """Unit-norm signal with standard-normal coefficients on the band basis."""
    space = pw_space(decomp, omega)
    coeffs = _rng(seed).standard_normal(space.dim)
    signal = space.basis.dot(coeffs)
    norm = float(np.linalg.norm(signal))
    if norm == 0.0:
        raise NumericalError(f"degenerate zero draw for seed={seed}")
    return signal / norm
