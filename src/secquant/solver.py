"""Constrained threshold design for a single sensor.

The designable quantity is the LRT threshold.  Eve's divergence along the
LRT curve, minus the tolerated budget, is a single-peaked function of the
threshold whose tails sink to minus the budget; its at most two zeros
bracket the thresholds at which the secrecy constraint is exactly met.
The best threshold is the better crossing inside the threshold bracket
when the constraint binds (the blind design, at threshold +inf, without
one), and the unconstrained divergence maximizer otherwise.  A zero
budget forces the blind design.

Where rho_e >= rho_fc, Eve's channel is the FC's followed by a BSC, and
this design is optimal among all binary quantizers
(``boundary.convexity_certificate``).  Where Eve hears better than the
FC, it is optimal among LRT thresholds only: an interval quantizer can
then reach a larger FC divergence at the same leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import (_channel_divergence, _max_channel_divergences, _tails,
                       _threshold_brackets)
from .roc import OperatingPoint, SensorSite, _check_tails, received_divergence
from .search import PRESCAN_LANES, PRESCAN_POINTS, bisect_root

#: A root r of the budget equation is accepted when |gap(r)| <= ROOT_F_TOL
#: or its bracket has shrunk below ROOT_X_TOL.  The width stop is tight
#: enough that even steep gap curves keep |gap| comfortably below 1e-10
#: at the returned root.
ROOT_F_TOL = 1e-13
ROOT_X_TOL = 1e-12

#: Each side of Eve's peak is tabulated on this many cells of equal width
#: from the bracket edge to the peak, and each crossing's root steps start
#: from its cell.
CROSSING_CELLS = 64

#: Lanes tabulated, or searched for their cells, per array pass: about as
#: many points as a pre-scan call.
_TABLE_LANES = PRESCAN_LANES * PRESCAN_POINTS // (2 * CROSSING_CELLS + 2)


@dataclass(frozen=True)
class QuantizerDesign:
    """A designed sensor quantizer and its figure-of-merit summary.

    ``binding`` records whether the Eve budget was active at the optimum;
    ``budget`` is the tolerance the design was produced against.
    """

    threshold: float
    op: OperatingPoint
    d_sensor: float
    d_fc: float
    d_eve: float
    binding: bool
    budget: float


@dataclass(frozen=True, eq=False)
class DesignTable:
    """Designs as columns, one lane each: :class:`QuantizerDesign`'s fields,
    with the tails ``[pfa, pd, 1 - pfa, 1 - pd]`` as the rows of a (4, n)
    array in place of the operating point, checked once on the arrays."""

    threshold: np.ndarray
    tails: np.ndarray
    d_sensor: np.ndarray
    d_fc: np.ndarray
    d_eve: np.ndarray
    binding: np.ndarray
    budget: np.ndarray

    def __post_init__(self) -> None:
        _check_tails(*self.tails)

    def rows(self) -> list[QuantizerDesign]:
        """One :class:`QuantizerDesign` per lane, in lane order."""
        lanes = zip(*(column.T.tolist() for column in vars(self).values()))
        return [QuantizerDesign(t, OperatingPoint(*tails), *rest)
                for t, tails, *rest in lanes]


def _site_columns(sites: Sequence[SensorSite]) -> np.ndarray:
    """Rows theta, sigma, FC and Eve crossover; one column per site."""
    return np.array(
        [(s.model.theta, s.model.sigma, s.fc_channel.crossover,
          s.eve_channel.crossover) for s in sites],
        dtype=float,
    ).reshape(-1, 4).T


def eve_divergence_gap(site: SensorSite, threshold: float, budget: float) -> float:
    """Eve's divergence at this threshold minus the tolerated budget: a
    float for a float threshold, and elementwise an array for an array.

    Positive where the threshold would leak more than allowed; tends to
    ``-budget`` at both extremes of the threshold axis, where the
    operating point degenerates to a corner.
    """
    theta, sigma, _, rho = _site_columns([site])[:, 0]
    gap = _channel_divergence(theta, sigma, rho, threshold) - budget
    return float(gap) if np.ndim(gap) == 0 else gap


def _peaks(theta, sigma, rho) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The distinct ``(theta, sigma, rho)`` lanes, as three rows in first-seen
    order; the threshold and the divergence maximizing each one's divergence
    through crossover ``rho``, all searched in one batch; and each lane's
    index among them."""
    lanes = list(zip(theta.tolist(), sigma.tolist(), rho.tolist()))
    distinct = {lane: k for k, lane in enumerate(dict.fromkeys(lanes))}
    models = np.reshape(list(distinct), (-1, 3)).T
    at = [distinct[lane] for lane in lanes]
    if not lanes:
        return models, np.empty(0), np.empty(0), at
    return models, *_max_channel_divergences(*models), at


def find_budget_thresholds(site: SensorSite, budget: float) -> list[float]:
    """Thresholds at which Eve's divergence exactly meets the budget.

    Returns zero, one, or two thresholds: none when the budget exceeds
    the achievable maximum (the gap stays negative), one at exact
    tangency, and otherwise up to one root on each side of the peak, found
    by bisection.  A crossing beyond the threshold bracket is not reported:
    where the bracket edge still leaks, that side has no root.
    """
    if not budget > 0.0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    below, above = _budget_thresholds(_site_columns([site]), np.array([budget]))[:, 0]
    roots = [float(t) for t in (below, above) if not math.isnan(t)]
    return roots[:1] if below == above else roots


def _budget_thresholds(columns: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """:func:`find_budget_thresholds` at every lane ``(columns[:, i],
    budgets[i])``, as two rows: the crossing below Eve's peak and the one
    above it, both the peak at tangency, NaN on a side with no crossing
    inside the bracket.  Eve's peak is searched once per distinct lane, and
    her divergence tabulated there from each bracket edge to the peak; each
    crossing is bisected from the first cell, counted from the edge, whose
    gap changes sign, all of them in one batch."""
    theta, sigma, _, rho = columns
    (th, s, r), peaks, d_max, at = _peaks(theta, sigma, rho)
    gaps = d_max[at] - budgets
    roots = np.full((2, gaps.size), math.nan)
    tangent = np.abs(gaps) <= ROOT_F_TOL
    roots[:, tangent] = peaks[at][tangent]
    # Eve's divergence at CROSSING_CELLS + 1 points from each bracket edge
    # (first axis: below the peak, above it) to the peak, whose value is the
    # one searched; a few lanes per kernel call bound the temporaries
    edges = np.stack(_threshold_brackets(th, s))
    steps = np.arange(CROSSING_CELLS + 1) / CROSSING_CELLS
    table = np.empty((2, peaks.size, steps.size))
    for i in range(0, peaks.size, _TABLE_LANES):
        part = slice(i, i + _TABLE_LANES)
        grid = edges[:, part, None] * (1.0 - steps) + peaks[part, None] * steps
        table[:, part] = _channel_divergence(th[part, None], s[part, None],
                                             r[part, None], grid)
    table[..., -1] = d_max
    # two sides per crossing lane, each bisected from its first cell, from
    # the edge, whose far end leaks: none where the edge itself leaks, as
    # the side's crossing lies beyond the edge
    lanes = np.repeat(np.flatnonzero(gaps > ROOT_F_TOL), 2)
    sides = np.arange(lanes.size) % 2
    model = np.array(at, dtype=int)[lanes]
    k = np.empty(lanes.size, dtype=int)
    for i in range(0, lanes.size, 2 * _TABLE_LANES):
        part = slice(i, i + 2 * _TABLE_LANES)
        leaks = table[sides[part], model[part]] > budgets[lanes[part], None]
        k[part] = np.argmax(leaks, axis=1)
    inside = k > 0
    lanes, sides, model, k = (v[inside] for v in (lanes, sides, model, k))
    th, s, r, budget = th[model, None], s[model, None], r[model, None], budgets[lanes, None]

    def gap(t: np.ndarray, sub: np.ndarray) -> np.ndarray:
        return _channel_divergence(th[sub], s[sub], r[sub], t) - budget[sub]

    def cell(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each crossing's grid point ``j`` and its gap there."""
        t = edges[sides, model] * (1.0 - steps[j]) + peaks[model] * steps[j]
        return t, table[sides, model, j] - budget[:, 0]

    # the grid ascends below the peak and descends above it
    (a, f_a), (b, f_b) = cell(k - 1 + sides), cell(k - sides)
    roots[sides, lanes] = bisect_root(gap, a, b, f_a, f_b, f_tol=ROOT_F_TOL, x_tol=ROOT_X_TOL)
    return roots


def _designs_at(
    columns: np.ndarray,
    thresholds: Sequence[float],
    budgets: Sequence[float],
    binding: bool | Sequence[bool],
) -> DesignTable:
    """The designs at each lane's threshold, each quantity computed for all
    lanes in one kernel call; the sensor's own divergence is the one seen
    through a noiseless channel.  ``binding`` is one flag for every lane or
    one per lane.  At threshold +inf the quantizer never fires: every tail
    kernel returns the blind corner exactly, all divergences 0.0."""
    t = np.array(thresholds, dtype=float)
    theta, sigma, rho_fc, rho_e = columns
    tails = _tails(theta, sigma, t)
    return DesignTable(
        t, tails, *(received_divergence(tails, rho) for rho in (0.0, rho_fc, rho_e)),
        np.broadcast_to(binding, t.shape), np.array(budgets, dtype=float),
    )


def design_quantizer(site: SensorSite, budget: float) -> QuantizerDesign:
    """Best fusion-center divergence subject to Eve's divergence budget.

    * budget 0: the blind corner design (the only perfectly secret one).
    * budget covering the leakage of the unconstrained optimum: that
      optimum, constraint slack.  When the receivers' channels differ,
      their divergence peaks sit at different thresholds, so this can
      happen even while the budget level set still crosses the curve.
    * otherwise: the better boundary crossing inside the threshold
      bracket, ties broken toward the larger threshold (smaller false
      alarm), or the blind design when no crossing lies inside.
    """
    return design_table([site], [budget]).rows()[0]


def design_table(sites: Sequence[SensorSite], budgets: Sequence[float]) -> DesignTable:
    """:func:`design_quantizer` at every lane ``(sites[i], budgets[i])``, as
    one table: each lane's threshold is settled on arrays, each search
    batched over the lanes that need it, and each design computed once; an
    infinite budget gives the unconstrained design."""
    alpha = np.array(budgets, dtype=float)
    if len(sites) != alpha.size:
        raise ValueError(f"got {len(sites)} sites but {alpha.size} budgets")
    negative = alpha[~(alpha >= 0.0)].tolist()
    if negative:
        raise ValueError(f"budget must be nonnegative, got {negative[0]!r}")
    columns = _site_columns(sites)
    theta, sigma, rho_fc, rho_e = columns
    # every lane starts blind; a live one takes its FC peak where Eve's
    # leakage there fits the budget, and its better crossing otherwise
    thresholds = np.full(alpha.size, math.inf)
    binding = np.ones(alpha.size, dtype=bool)
    live = np.flatnonzero(alpha > 0.0)
    _, peaks, _, at = _peaks(theta[live], sigma[live], rho_fc[live])
    peaks = peaks[at]
    free = _channel_divergence(theta[live], sigma[live], rho_e[live], peaks) <= alpha[live]
    thresholds[live[free]], binding[live[free]] = peaks[free], False
    bound = live[~free]
    if bound.size:
        thresholds[bound] = _bound_thresholds(columns[:, bound], alpha[bound])
    return _designs_at(columns, thresholds, alpha, binding)


def _bound_thresholds(columns: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Each lane's threshold when its budget binds: the better crossing of
    the budget inside the threshold bracket, the larger one unless the
    smaller has an FC divergence more than 1e-12 higher, or +inf (blind)
    when no crossing lies inside."""
    roots = _budget_thresholds(columns, budgets)
    ends = np.stack([np.fmin(*roots), np.fmax(*roots)])
    ends[np.isnan(ends)] = math.inf
    theta, sigma, rho_fc, _ = columns
    d_first, d_last = _channel_divergence(theta, sigma, rho_fc, ends)
    return np.where(d_first - d_last <= 1e-12, ends[1], ends[0])


def tradeoff_curve(
    site: SensorSite, budgets: Sequence[float]
) -> list[QuantizerDesign]:
    """Sweep :func:`design_quantizer` over an ascending budget grid,
    running the site's threshold searches once for the whole sweep and
    every budget's bisections in one batch."""
    if any(b2 < b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be sorted ascending")
    return design_table([site] * len(budgets), budgets).rows()

