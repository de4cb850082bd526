"""Search primitives over lanes: a grid-zoom maximizer seeded by a
unimodality pre-scan, and bisection.  Each solves many independent
problems ("lanes") at once: its objective ``f(x, lanes)`` maps an array
whose row ``j`` holds abscissae of lane ``lanes[j]`` to their values, and
each lane stops on its own tests, whatever else is in the batch."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import UnimodalityError

#: Grid size for the unimodality pre-scan.
PRESCAN_POINTS = 1024

#: Grid size of each zoom step of :func:`unimodal_max`.
ZOOM_POINTS = 64

Objective = Callable[[np.ndarray, np.ndarray], np.ndarray]
Lanes = Sequence[float]  # one value per lane


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
) -> tuple[np.ndarray, np.ndarray]:
    """Raise :class:`UnimodalityError` unless ``f`` looks single-peaked on a
    PRESCAN_POINTS grid over ``[lo, hi]``; return the grid and its values.
    ``f`` maps the whole grid, as one array, to the array of its values.
    """
    step = (hi - lo) / (PRESCAN_POINTS - 1)
    grid = lo + np.arange(PRESCAN_POINTS) * step
    values = np.asarray(f(grid), dtype=float)
    scale = max(1.0, float(np.max(np.abs(values))))
    if count_direction_changes(values, noise_floor=1e-12 * scale) > 2:
        raise UnimodalityError((
            f"{label} is not unimodal on [{lo!r}, {hi!r}]; "
            "refusing to search it for a maximum"
        ))
    return grid, values


def unimodal_max(
    f: Objective,
    lo: Lanes,
    hi: Lanes,
    label: str,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize each lane's unimodal objective on its ``[lo, hi]``.

    Each lane is pre-scanned on its own (so a batch holds one pre-scan grid
    at a time), and its argmax plus and minus one step brackets the peak.
    All lanes then lay ZOOM_POINTS over their brackets in one call of ``f``
    and narrow them the same way, until each is at most ``tol`` wide or
    stops shrinking.  Returns the best abscissae sampled and their values.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    a, b, best_x, best_f = (np.empty_like(lo) for _ in range(4))
    for i in range(lo.size):
        lane = np.array([i])
        grid, values = assert_unimodal(
            lambda x: f(x[None, :], lane)[0], lo[i], hi[i], label
        )
        k = int(np.argmax(values))
        best_x[i], best_f[i] = grid[k], values[k]
        a[i], b[i] = grid[max(k - 1, 0)], grid[min(k + 1, PRESCAN_POINTS - 1)]
    lanes = np.flatnonzero(b - a > tol)
    steps = np.arange(ZOOM_POINTS)
    while lanes.size:
        width = b[lanes] - a[lanes]
        grid = a[lanes, None] + steps * (width / (ZOOM_POINTS - 1))[:, None]
        values = f(grid, lanes)
        rows = np.arange(lanes.size)
        k = np.argmax(values, axis=1)
        best_x[lanes], best_f[lanes] = grid[rows, k], values[rows, k]
        a[lanes] = grid[rows, np.maximum(k - 1, 0)]
        b[lanes] = grid[rows, np.minimum(k + 1, ZOOM_POINTS - 1)]
        narrowed = b[lanes] - a[lanes]
        lanes = lanes[(narrowed > tol) & (narrowed < width)]
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
