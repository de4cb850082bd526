"""Constrained threshold design for a single sensor.

The designable quantity is the LRT threshold.  Eve's divergence along the
LRT curve, minus the tolerated budget, is a single-peaked function of the
threshold whose tails sink to minus the budget; its at most two zeros
bracket the thresholds at which the secrecy constraint is exactly met.
The optimal design is the better crossing inside the threshold bracket
when the constraint binds (the blind design, at threshold +inf, without
one), and the unconstrained divergence maximizer otherwise.  A zero
budget forces the blind design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import (_channel_divergence, _max_channel_divergences, _tails,
                       _threshold_brackets, max_channel_divergence)
from .roc import OperatingPoint, SensorSite, received_divergence
from .search import bisect_root

#: A root r of the budget equation is accepted when |gap(r)| <= ROOT_F_TOL
#: or its bracket has shrunk below ROOT_X_TOL.  The width stop is tight
#: enough that even steep gap curves keep |gap| comfortably below 1e-10
#: at the returned root.
ROOT_F_TOL = 1e-13
ROOT_X_TOL = 1e-12


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


def _peaks(theta, sigma, rho) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's threshold and divergence maximizing its divergence through
    crossover ``rho``; the distinct ``(theta, sigma, rho)`` lanes are searched
    in one batch, each once, in first-seen order."""
    lanes = list(zip(theta.tolist(), sigma.tolist(), rho.tolist()))
    if not lanes:
        return np.empty(0), np.empty(0)
    distinct = {lane: k for k, lane in enumerate(dict.fromkeys(lanes))}
    thresholds, values = _max_channel_divergences(*np.reshape(list(distinct), (-1, 3)).T)
    at = [distinct[lane] for lane in lanes]
    return thresholds[at], values[at]


def max_eve_divergence(site: SensorSite) -> tuple[float, float]:
    """Largest Eve divergence reachable on the LRT curve: the budget level
    beyond which the secrecy constraint stops binding."""
    return max_channel_divergence(site.model, site.eve_channel)


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
    every crossing of every lane is bisected in one batch."""
    theta, sigma, _, rho = columns
    peaks, d_max = _peaks(theta, sigma, rho)
    gaps = d_max - budgets
    roots = np.full((2, gaps.size), math.nan)
    tangent = np.abs(gaps) <= ROOT_F_TOL
    roots[:, tangent] = peaks[tangent]
    # two intervals per crossing lane, (lo, peak) and (peak, hi)
    lanes = np.repeat(np.flatnonzero(gaps > ROOT_F_TOL), 2)
    th, s, r, budget = (v[lanes, None] for v in (theta, sigma, rho, budgets))

    def gap(t: np.ndarray, sub: np.ndarray) -> np.ndarray:
        return _channel_divergence(th[sub], s[sub], r[sub], t) - budget[sub]

    edges = np.stack(_threshold_brackets(th[::2, 0], s[::2, 0]), axis=1).ravel()
    a, b = np.minimum(edges, peaks[lanes]), np.maximum(edges, peaks[lanes])
    f_a, f_b = gap(np.stack([a, b], axis=1), np.arange(lanes.size)).T
    # a side whose bracket edge still leaks has its crossing beyond the edge
    inside = np.flatnonzero(~((f_a > 0.0) & (f_b > 0.0)))
    roots[inside % 2, lanes[inside]] = bisect_root(
        lambda x, sub: gap(x, inside[sub]),
        a[inside], b[inside], f_a[inside], f_b[inside],
        f_tol=ROOT_F_TOL, x_tol=ROOT_X_TOL,
    )
    return roots


def _designs_at(
    columns: np.ndarray,
    thresholds: Sequence[float],
    budgets: Sequence[float],
    binding: bool | Sequence[bool],
) -> list[QuantizerDesign]:
    """The design at each lane's threshold, each quantity computed for all
    lanes in one kernel call; the sensor's own divergence is the one seen
    through a noiseless channel.  ``binding`` is one flag for every lane or
    one per lane.  At threshold +inf the quantizer never fires: every tail
    kernel returns the blind corner exactly, all divergences 0.0."""
    t = np.array(thresholds, dtype=float)
    theta, sigma, rho_fc, rho_e = columns
    tails = _tails(theta, sigma, t)
    fields = (
        t, *tails, *(received_divergence(tails, rho) for rho in (0.0, rho_fc, rho_e)),
        np.broadcast_to(binding, t.shape),
    )
    lanes = zip(*(f.tolist() for f in fields), budgets)
    return [
        QuantizerDesign(t, OperatingPoint(x, y, xc, yc), *fields)
        for t, x, y, xc, yc, *fields in lanes
    ]


def blind_design(site: SensorSite, budget: float = 0.0) -> QuantizerDesign:
    """The all-zeros corner quantizer, the design at threshold +inf: perfect
    secrecy, zero information."""
    return _designs_at(_site_columns([site]), [math.inf], [budget], True)[0]


def unconstrained_design(site: SensorSite) -> QuantizerDesign:
    """Divergence-maximizing design ignoring the eavesdropper."""
    return _designs(_site_columns([site]), [math.inf])[0]


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
    return _designs(_site_columns([site]), [budget])[0]


def _designs(columns: np.ndarray, budgets: Sequence[float]) -> list[QuantizerDesign]:
    """:func:`design_quantizer` at every lane ``(columns[:, i], budgets[i])``:
    each lane's threshold is settled on arrays, each search batched over the
    lanes that need it, and each design built once; an infinite budget gives
    the unconstrained design."""
    for budget in budgets:
        if not budget >= 0.0:
            raise ValueError(f"budget must be nonnegative, got {budget!r}")
    theta, sigma, rho_fc, rho_e = columns
    alpha = np.array(budgets, dtype=float)
    # every lane starts blind; a live one takes its FC peak where Eve's
    # leakage there fits the budget, and its better crossing otherwise
    thresholds = np.full(alpha.size, math.inf)
    binding = np.ones(alpha.size, dtype=bool)
    live = np.flatnonzero(alpha > 0.0)
    peaks, _ = _peaks(theta[live], sigma[live], rho_fc[live])
    free = _channel_divergence(theta[live], sigma[live], rho_e[live], peaks) <= alpha[live]
    thresholds[live[free]], binding[live[free]] = peaks[free], False
    bound = live[~free]
    if bound.size:
        thresholds[bound] = _bound_thresholds(columns[:, bound], alpha[bound])
    return _designs_at(columns, thresholds, budgets, binding)


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
    return _designs(_site_columns([site] * len(budgets)), budgets)


def design_search_curve(
    site: SensorSite, budget: float, n_points: int
) -> list[tuple[float, float]]:
    """Sampled budget-gap curve, for diagnostic export and plotting."""
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points!r}")
    lo, hi = _threshold_brackets(site.model.theta, site.model.sigma)
    thresholds = lo + np.arange(n_points) * ((hi - lo) / (n_points - 1))
    gaps = eve_divergence_gap(site, thresholds, budget)
    return list(zip(thresholds.tolist(), gaps.tolist()))
