"""Search primitives over lanes: a batched unimodality pre-scan, and one
bracketed root finder that refines every search, a peak as the root of its
slope.  Each solves many independent problems ("lanes") at once: its
objective ``f(x, lanes)`` maps an array whose row ``j`` holds abscissae of
lane ``lanes[j]``, or one row that every lane shares, to one row of values
per lane, and each lane stops on its own tests, whatever else is in the batch."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import UnimodalityError

#: Grid size for the unimodality pre-scan.
PRESCAN_POINTS = 1024

#: Lanes pre-scanned per call of the objective, few enough that the
#: allocator reuses its temporaries' pages.
PRESCAN_LANES = 8

Objective = Callable[[np.ndarray, np.ndarray], np.ndarray]
Lanes = Sequence[float]  # one value per lane


def count_direction_changes(values, noise_floor) -> int | np.ndarray:
    """Sign alternations of the discrete differences, ignoring steps below
    ``noise_floor`` (flat tails produce float-level jitter): an int for a
    sequence, or each row's count, at its entry of an array floor, for 2-D."""
    steps = np.diff(np.atleast_2d(np.asarray(values, dtype=float)), axis=1)
    # a NaN step is kept and counts as falling, like any step that is not
    # a rise; the kept steps' flat indices give their rows
    kept = np.flatnonzero(~(np.abs(steps) <= np.reshape(noise_floor, (-1, 1))))
    row = kept // steps.shape[1]
    rises = steps.ravel()[kept] > 0.0
    turns = (rises[1:] != rises[:-1]) & (row[1:] == row[:-1])
    counts = np.bincount(row[1:][turns], minlength=len(steps))
    return int(counts[0]) if np.ndim(values) == 1 else counts


def assert_unimodal(
    f: Objective, lo: Lanes, hi: Lanes, label: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raise :class:`UnimodalityError` unless each lane's objective looks
    single-peaked on a PRESCAN_POINTS grid over its ``[lo, hi]``, naming the
    first such lane.  The lanes are scanned PRESCAN_LANES per call of ``f``
    to bound memory, sorted so that lanes of one bracket share calls and, in
    each such call, one grid row.  Returns each lane's best grid point, its
    value, and the bracket one step either side."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    found = np.empty((4, lo.size))
    # sorted on their bits, lanes of one bracket sit side by side, so a
    # call's lanes share one bracket when its first and last lane do
    bits = hi.view(np.int64), lo.view(np.int64)
    order, first_bad = np.lexsort(bits), lo.size
    for start in range(0, lo.size, PRESCAN_LANES):
        lanes = order[start:start + PRESCAN_LANES]
        one = lanes[:1] if all(b[lanes[0]] == b[lanes[-1]] for b in bits) else lanes
        a, b = lo[one, None], hi[one, None]
        grid = a + np.arange(PRESCAN_POINTS) * ((b - a) / (PRESCAN_POINTS - 1))
        values = f(grid, lanes)
        rows, k = np.arange(lanes.size), np.argmax(values, axis=1)
        at = rows if len(grid) > 1 else 0  # a shared row serves every lane
        found[:, lanes] = (grid[at, k], values[rows, k], grid[at, np.maximum(k - 1, 0)],
                           grid[at, np.minimum(k + 1, PRESCAN_POINTS - 1)])
        scale = np.fmax(1.0, np.max(np.abs(values), axis=1))
        bad = lanes[count_direction_changes(values, 1e-12 * scale) > 2]
        if bad.size:
            first_bad = min(first_bad, int(bad.min()))
    if first_bad < lo.size:
        raise UnimodalityError(f"{label} is not unimodal on [{lo[first_bad]}, "
                               f"{hi[first_bad]}]; refusing to search it for a maximum")
    return tuple(found)


def unimodal_max(
    f: Objective, slope: Objective, lo: Lanes, hi: Lanes, label: str
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize each lane's unimodal objective on its ``[lo, hi]``.

    The pre-scan of :func:`assert_unimodal` brackets each lane's peak.  Where
    ``slope``, any positive multiple of the derivative of ``f``, falls from
    ``>= 0`` to ``<= 0`` over the bracket, :func:`bisect_root` finds its root,
    which replaces the best grid point unless ``f`` scores it lower.  Returns
    the abscissae and their values.
    """
    best_x, best_f, a, b = assert_unimodal(f, lo, hi, label)
    s_a, s_b = slope(np.stack([a, b], axis=1), np.arange(best_x.size)).T
    lanes = np.flatnonzero((s_a >= 0.0) & (s_b <= 0.0))
    root = bisect_root(lambda x, sub: slope(x, lanes[sub]),
                       a[lanes], b[lanes], s_a[lanes], s_b[lanes], f_tol=0.0)
    f_root = f(root[:, None], lanes)[:, 0]
    better = f_root >= best_f[lanes]
    best_x[lanes[better]], best_f[lanes[better]] = root[better], f_root[better]
    return best_x, best_f


def bisect_root(
    f: Objective,
    lo: Lanes,
    hi: Lanes,
    f_lo: Lanes,
    f_hi: Lanes,
    f_tol: float = 1e-12,
    x_tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Find a sign change of each lane's objective on ``[lo, hi]``.

    ``f_lo`` and ``f_hi`` are the already-computed endpoint values, of
    opposite signs in each lane (zero counts as either); ``f`` gets a
    column of trial points.  Each is the Illinois false-position point of
    the lane's bracket, or its midpoint where that is not finite or not
    strictly inside, as beside an infinite endpoint value.  A lane stops
    when ``|f| <= f_tol``, its bracket is narrower than ``x_tol``, or no
    float lies strictly inside it, or returns its last trial point after
    ``max_iter`` steps.
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    at_lo, at_hi = f_lo == 0.0, f_hi == 0.0
    if np.any(((f_lo > 0.0) == (f_hi > 0.0)) & ~at_lo & ~at_hi):
        raise ValueError("bisect_root needs endpoints of opposite sign")
    root = np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (lo + hi)))
    moved = np.zeros(lo.size)  # +1 where lo moved last, -1 where hi did
    lanes = np.flatnonzero(~at_lo & ~at_hi)
    for _ in range(max_iter):
        if not lanes.size:
            break
        a, b, f_a, f_b = lo[lanes], hi[lanes], f_lo[lanes], f_hi[lanes]
        with np.errstate(all="ignore"):
            x = a - f_a * ((b - a) / (f_b - f_a))
        x = np.where((a < x) & (x < b), x, 0.5 * (a + b))  # also replaces NaN
        f_x = f(x[:, None], lanes)[:, 0]
        root[lanes] = x
        up = (f_x > 0.0) == (f_a > 0.0)  # the sign at lo never changes
        to_lo, to_hi = lanes[up], lanes[~up]
        # an end kept twice running has its value halved (Illinois)
        f_hi[to_lo[moved[to_lo] > 0.0]] *= 0.5
        f_lo[to_hi[moved[to_hi] < 0.0]] *= 0.5
        lo[to_lo], f_lo[to_lo], moved[to_lo] = x[up], f_x[up], 1.0
        hi[to_hi], f_hi[to_hi], moved[to_hi] = x[~up], f_x[~up], -1.0
        a, b = lo[lanes], hi[lanes]
        done = (np.abs(f_x) <= f_tol) | (b - a <= x_tol) | (np.nextafter(a, b) >= b)
        lanes = lanes[~done]
    return root
