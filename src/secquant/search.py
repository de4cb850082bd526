"""Search primitives over lanes: a grid-zoom maximizer seeded by a
batched unimodality pre-scan, and bisection.  Each solves many independent
problems ("lanes") at once: its objective ``f(x, lanes)`` maps an array
whose row ``j`` holds abscissae of lane ``lanes[j]``, or one row that every
lane shares, to one row of values per lane, and each lane stops on its own
tests, whatever else is in the batch."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import UnimodalityError

#: Grid size for the unimodality pre-scan.
PRESCAN_POINTS = 1024

#: Lanes pre-scanned per call of the objective; a zoom call holds as many
#: points, few enough that the allocator reuses its temporaries' pages.
PRESCAN_LANES = 8

#: Grid size of each zoom step of :func:`unimodal_max`.
ZOOM_POINTS = 64

#: :func:`unimodal_max` stops narrowing a lane's bracket at this width.
ZOOM_TOL = 1e-10

Objective = Callable[[np.ndarray, np.ndarray], np.ndarray]
Lanes = Sequence[float]  # one value per lane


def count_direction_changes(values, noise_floor) -> int | np.ndarray:
    """Sign alternations of the discrete differences, ignoring steps below
    ``noise_floor`` (flat tails produce float-level jitter): an int for a
    sequence, or each row's count, at its entry of an array floor, for 2-D."""
    steps = np.diff(np.atleast_2d(np.asarray(values, dtype=float)), axis=1)
    # a NaN step is kept and counts as falling, like any step that is not
    # a rise
    row, col = np.nonzero(~(np.abs(steps) <= np.reshape(noise_floor, (-1, 1))))
    rises = steps[row, col] > 0.0
    turns = (rises[1:] != rises[:-1]) & (row[1:] == row[:-1])
    counts = np.bincount(row[1:][turns], minlength=len(steps))
    return int(counts[0]) if np.ndim(values) == 1 else counts


def _narrow(f: Objective, a: np.ndarray, b: np.ndarray, lanes: np.ndarray,
            points: int) -> tuple[np.ndarray, ...]:
    """One grid step of the pre-scan or the zoom: ``points`` abscissae over
    each lane's ``[a, b]``, or over the one ``[a, b]`` all lanes share, in
    one call of ``f``.  Returns their values, each lane's best abscissa and
    its value, and the bracket one step either side."""
    grid = a[:, None] + np.arange(points) * ((b - a) / (points - 1))[:, None]
    values = f(grid, lanes)
    rows, k = np.arange(lanes.size), np.argmax(values, axis=1)
    at = rows if len(grid) > 1 else 0  # a shared row serves every lane
    return (values, grid[at, k], values[rows, k], grid[at, np.maximum(k - 1, 0)],
            grid[at, np.minimum(k + 1, points - 1)])


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
        values, *found[:, lanes] = _narrow(f, lo[one], hi[one], lanes, PRESCAN_POINTS)
        scale = np.fmax(1.0, np.max(np.abs(values), axis=1))
        bad = lanes[count_direction_changes(values, 1e-12 * scale) > 2]
        if bad.size:
            first_bad = min(first_bad, int(bad.min()))
    if first_bad < lo.size:
        raise UnimodalityError(f"{label} is not unimodal on [{lo[first_bad]}, "
                               f"{hi[first_bad]}]; refusing to search it for a maximum")
    return tuple(found)


def unimodal_max(
    f: Objective, lo: Lanes, hi: Lanes, label: str
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize each lane's unimodal objective on its ``[lo, hi]``.

    The pre-scan of :func:`assert_unimodal` brackets each lane's peak.  The
    lanes then lay ZOOM_POINTS over their brackets, batched per call of
    ``f`` like the pre-scan, and narrow them the same way, until each is at
    most ZOOM_TOL wide or stops shrinking.  Returns the best abscissae
    sampled and their values.
    """
    best_x, best_f, a, b = assert_unimodal(f, lo, hi, label)
    lanes = np.flatnonzero(b - a > ZOOM_TOL)
    per_call = PRESCAN_LANES * PRESCAN_POINTS // ZOOM_POINTS
    while lanes.size:
        width = b[lanes] - a[lanes]
        for start in range(0, lanes.size, per_call):
            part = lanes[start:start + per_call]
            _, best_x[part], best_f[part], a[part], b[part] = _narrow(
                f, a[part], b[part], part, ZOOM_POINTS
            )
        narrowed = b[lanes] - a[lanes]
        lanes = lanes[(narrowed > ZOOM_TOL) & (narrowed < width)]
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
    """Bisect each lane for a sign change of its objective on ``[lo, hi]``.

    ``f_lo`` and ``f_hi`` are the already-computed endpoint values, of
    opposite signs in each lane (zero counts as either); ``f`` gets a
    column of midpoints.  A lane stops when ``|f| <= f_tol`` or its bracket
    is narrower than ``x_tol``, or returns its last midpoint after
    ``max_iter`` steps.
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    at_lo, at_hi = f_lo == 0.0, f_hi == 0.0
    if np.any(((f_lo > 0.0) == (f_hi > 0.0)) & ~at_lo & ~at_hi):
        raise ValueError("bisect_root needs endpoints of opposite sign")
    root = np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (lo + hi)))
    lanes = np.flatnonzero(~at_lo & ~at_hi)
    for _ in range(max_iter):
        if not lanes.size:
            break
        mid = 0.5 * (lo[lanes] + hi[lanes])
        f_mid = f(mid[:, None], lanes)[:, 0]
        root[lanes] = mid
        done = (np.abs(f_mid) <= f_tol) | (hi[lanes] - lo[lanes] <= x_tol)
        # the sign at lo never changes, so f_lo needs no update
        up = (f_mid > 0.0) == (f_lo[lanes] > 0.0)
        lo[lanes[up]], hi[lanes[~up]] = mid[up], mid[~up]
        lanes = lanes[~done]
    return root
