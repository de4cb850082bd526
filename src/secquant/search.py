"""Search primitives: scalar golden-section maximization and bisection, and
a unimodality pre-scan, evaluated as one array, used to validate
quasi-concavity assumptions before trusting a golden-section result."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import UnimodalityError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Grid size for the unimodality pre-scan.
PRESCAN_POINTS = 1024


def count_direction_changes(values: Sequence[float], noise_floor: float) -> int:
    """Sign alternations of the discrete differences, ignoring steps below
    ``noise_floor`` (flat tails produce float-level jitter)."""
    steps = np.diff(np.asarray(values, dtype=float))
    # a NaN step is kept and counts as falling, like any step that is not
    # a rise
    signs = np.where(steps > 0.0, 1, -1)[~(np.abs(steps) <= noise_floor)]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def assert_unimodal(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, label: str
) -> None:
    """Raise :class:`UnimodalityError` unless ``f`` looks single-peaked on a
    PRESCAN_POINTS grid over ``[lo, hi]``.

    ``f`` maps the whole grid, as one array, to the array of its values.
    """
    step = (hi - lo) / (PRESCAN_POINTS - 1)
    values = np.asarray(f(lo + np.arange(PRESCAN_POINTS) * step), dtype=float)
    scale = max(1.0, float(np.max(np.abs(values))))
    if count_direction_changes(values, noise_floor=1e-12 * scale) > 2:
        raise UnimodalityError((
            f"{label} is not unimodal on [{lo!r}, {hi!r}]; "
            "refusing to run a golden-section search"
        ))


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 300,
) -> tuple[float, float]:
    """Maximize a unimodal scalar function on ``[lo, hi]``.

    Returns ``(x_star, f(x_star))`` with ``x_star`` located to within
    ``tol`` absolute.  The caller is responsible for validating
    unimodality (see :func:`assert_unimodal`).
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
    x = 0.5 * (a + b)
    return x, f(x)


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    f_tol: float = 1e-12,
    x_tol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Bisect for a sign change of ``f`` on ``[lo, hi]``.

    ``f_lo`` and ``f_hi`` are the already-computed endpoint values; they
    must have opposite signs (zero counts as either).  Stops when
    ``|f| <= f_tol`` or the bracket is narrower than ``x_tol``.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError("bisect_root needs endpoints of opposite sign")
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= f_tol or (hi - lo) <= x_tol:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return mid
