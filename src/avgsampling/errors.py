"""Exception types shared across the package, and the integer and vector rules that raise them for its input."""
import numpy as np


class InputError(ValueError):
    """Malformed or out-of-contract input: bad files, bad indices, bad parameters."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: no convergence, rank collapse, ill-conditioning."""


def _integer(value, name: str, least: int = 1) -> int:
    """``value`` as an int; InputError unless it is an integer (not a bool) >= ``least`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InputError(f"{name} must be a {'positive' if least else 'nonnegative'} integer, got {value!r}")
    return int(value)


def _vector(values, length: int, name: str) -> np.ndarray:
    """``values`` as a float array; InputError unless it has shape ``(length,)`` and finite entries."""
    values = np.asarray(values, dtype=float)
    if values.shape != (length,):
        raise InputError(f"{name} has shape {values.shape}, expected ({length},)")
    if not np.isfinite(values).all():
        raise InputError(f"{name} contains non-finite entries")
    return values
