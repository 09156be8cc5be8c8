"""A fixed reference computation that measures how fast the host runs right now.

This box is a 2-core virtual machine on a shared host. Other tenants' load
slows every computation here by up to 1.8x, for stretches from a few seconds
to over a minute, so a run can fall entirely in a slow stretch. A fixed
kernel, a 48x48 SVD, is timed next to every measured operation, and the
operation's time is divided by the kernel's local time. Over 5-s windows in
which the benchmark's signals slowed by 1.45-1.78x, their ratio to this
kernel moved by 1.06-1.17x. Scaled times are reported for a nominal host, on
which the kernel takes ``NOMINAL_S``.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.ndimage import median_filter

#: The kernel's time on the nominal host; scaled times are in its seconds.
NOMINAL_S = 0.5e-3
#: Kernel calls timed before and after a long operation.
BRACKET = 8
#: Kernel calls (one per signal) whose median is a signal's local reference.
SIGNAL_WINDOW = 17

_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def kernel_time() -> float:
    start = time.perf_counter()
    np.linalg.svd(_MATRIX)
    return time.perf_counter() - start


def bracket() -> list[float]:
    return [kernel_time() for _ in range(BRACKET)]


def scale(elapsed: float, reference: float) -> float:
    """An elapsed time at the nominal host, given the kernel's local time."""
    return elapsed * NOMINAL_S / reference


def local_references(kernel_times: list[float]) -> np.ndarray:
    """Each signal's reference: the median kernel time of the signals around it."""
    return median_filter(np.asarray(kernel_times), size=SIGNAL_WINDOW, mode="nearest")
