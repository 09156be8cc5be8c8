"""Exception types shared across the package, and the three rules that raise them for its input.

- Counts: a graph's vertex count is an integer from 1 to ``graph.MAX_VERTICES`` = 2**31 - 1 (``_integer``).
- Ids: a vertex id is a whole real number in [0, n), tested exactly whatever its type (``_ids``).
- Vectors: a signal, its samples or its targets are finite floats of magnitude at most ``_VECTOR_BOUND``
  = B = 2**400 (``_vector``).

No squared norm formed from checked input overflows. A checked vector has at most 2**31 entries, so its squared
norm is at most 2**31 B². The analysis map A has norm 1 (the band holds the constant vectors, whose averages
keep their norm), and so has each orthonormal basis. A frame is used only where its least kept singular value
exceeds 1e-10 (``partitions.RANK_CUTOFF``), so the dual frame's band coefficients and the frame iteration's
fixed point have at most 1e10 times the samples' norm, and a frame iterate (each mode's share ``1 - rho**k`` is
at most 2 in magnitude) at most 2e10 times. A spline's cardinal map has norm at most 1 + κ, with κ at most
``splines.CONDITION_LIMIT`` < 2**47. Each squared norm that a route or a report forms, of one of these vectors
or of a difference of two, is thus at most 4 (1 + 2**47)² 2**31 B² < 2**128 B² = 2**928, far below the largest
float (about 2**1024).
"""
import sys

import numpy as np

#: The largest magnitude of a checked vector's entries, B in the bound above.
_VECTOR_BOUND = 2.0 ** 400


class InputError(ValueError):
    """Malformed or out-of-contract input: bad files, bad indices, bad parameters."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: no convergence, rank collapse, ill-conditioning."""


def _integer(value, name: str, least: int = 1, most: int | None = None) -> int:
    """``value`` as an int; InputError unless it is an integer (not a bool) >= ``least`` (0 or 1) and <= ``most``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InputError(f"{name} must be a {'positive' if least else 'nonnegative'} integer, got {value!r}")
    if most is not None and value > most:
        raise InputError(f"{name} must be at most {most}, got {value!r}")
    return int(value)


def _vector(values, length: int, name: str) -> np.ndarray:
    """``values`` as a C-contiguous float array, so no route's bits depend on the caller's memory layout; InputError
    unless it has shape ``(length,)``, ``length`` >= 1, and finite entries of magnitude at most ``_VECTOR_BOUND``
    (``order="C"`` keeps a scalar 0-d, so one is refused)."""
    values = np.asarray(values, dtype=float, order="C")
    if values.shape != (length,):
        raise InputError(f"{name} has shape {values.shape}, expected ({length},)")
    if not np.abs(values).max() <= _VECTOR_BOUND:  # a NaN maximum fails too
        if not np.isfinite(values).all():
            raise InputError(f"{name} contains non-finite entries")
        raise InputError(f"{name} has an entry of magnitude above 2**400, where a squared norm could overflow")
    return values


def _ids(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A flat array of outside vertex ids (numpy's bool, integer or float kind, or ``numbers.Real`` objects such as
    ints past int64 and fractions) as ``intp``, and the mask of the whole ones, each tested exactly. A non-whole id
    becomes 0; clipping to [-1, n] keeps an out-of-range id out of range and the cast exact."""
    kind = values.dtype.kind
    if kind == "f":
        whole = np.isfinite(values) & (values == np.floor(values))
    elif kind == "O":
        with np.errstate(invalid="ignore"):  # inf and NaN leave a NaN remainder
            whole = values % 1 == 0
    else:
        whole = np.ones(len(values), dtype=bool)
    return np.where(whole, values, 0).clip(-1, n).astype(np.intp), whole  # no NaN reaches the clip


def _shown(value):
    """An id as a message shows it: as a float where that float equals it, else exactly, so no fraction reads whole."""
    return float(value) if abs(value) <= sys.float_info.max and float(value) == value else value
