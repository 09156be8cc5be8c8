"""Exception types shared across the package, and the integer and vector rules that raise them for its input.

A graph's vertex count is an integer from 1 to ``graph.MAX_VERTICES`` = 2**31 - 1."""
import numpy as np


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
    unless it has shape ``(length,)`` and finite entries (``order="C"`` keeps a scalar 0-d, so one is refused)."""
    values = np.asarray(values, dtype=float, order="C")
    if values.shape != (length,):
        raise InputError(f"{name} has shape {values.shape}, expected ({length},)")
    if not np.isfinite(values).all():
        raise InputError(f"{name} contains non-finite entries")
    return values
