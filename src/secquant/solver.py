"""Constrained threshold design for a single sensor.

The designable quantity is the LRT threshold.  Eve's divergence along the
LRT curve, minus the tolerated budget, is a single-peaked function of the
threshold whose tails sink to minus the budget; its at most two zeros
bracket the thresholds at which the secrecy constraint is exactly met.
The optimal design is one of those two crossings when the constraint
binds, and the unconstrained divergence maximizer otherwise.  A zero
budget forces the blind corner design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Sequence

from .gaussian import _channel_divergence, max_channel_divergence
from .roc import OperatingPoint, SensorSite, bsc_transform, kl_divergence
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


@dataclass(frozen=True)
class TradeoffPoint:
    """Best fusion-center divergence attainable at one Eve budget."""

    budget: float
    d_fc_max: float
    design: QuantizerDesign


def eve_divergence_gap(site: SensorSite, threshold: float, budget: float) -> float:
    """Eve's divergence at this threshold minus the tolerated budget.

    Positive where the threshold would leak more than allowed; tends to
    ``-budget`` at both extremes of the threshold axis, where the
    operating point degenerates to a corner.
    """
    model = site.model
    return _channel_divergence(
        model.theta, model.sigma, site.eve_channel.crossover, threshold
    ) - budget


def find_gap_peak(site: SensorSite, budget: float) -> tuple[float, float]:
    """Threshold and value of the budget-gap maximum.

    The peak location does not depend on the budget (the budget only
    shifts the curve), so the underlying search maximizes Eve's divergence
    itself and is shared with :func:`max_eve_divergence`.
    """
    threshold, d_eve_max = max_eve_divergence(site)
    return threshold, d_eve_max - budget


def max_eve_divergence(site: SensorSite) -> tuple[float, float]:
    """Largest Eve divergence reachable on the LRT curve: the budget level
    beyond which the secrecy constraint stops binding."""
    return max_channel_divergence(site.model, site.eve_channel)


def find_budget_thresholds(site: SensorSite, budget: float) -> list[float]:
    """Thresholds at which Eve's divergence exactly meets the budget.

    Returns zero, one, or two thresholds: none when the budget exceeds
    the achievable maximum (the gap stays negative), one at exact
    tangency, and otherwise one root on each side of the peak, found by
    bisection.  Budgets smaller than the corner leakage collapse to the
    bracket edges.
    """
    if not budget > 0.0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    return _budget_thresholds(site, budget, max_eve_divergence(site))


def _budget_thresholds(
    site: SensorSite, budget: float, eve_peak: tuple[float, float]
) -> list[float]:
    """:func:`find_budget_thresholds` given Eve's peak, which does not
    depend on the budget."""
    peak, d_eve_max = eve_peak
    gap_peak = d_eve_max - budget
    if gap_peak < -ROOT_F_TOL:
        return []
    if gap_peak <= ROOT_F_TOL:
        return [peak]

    def gap(threshold: float) -> float:
        return eve_divergence_gap(site, threshold, budget)

    lo, hi = site.model.threshold_bracket()
    roots = []
    for a, b in ((lo, peak), (peak, hi)):
        f_a, f_b = gap(a), gap(b)
        if f_a > 0.0 and f_b > 0.0:
            # budget below even the corner leakage; the crossing lies
            # outside the numerically meaningful threshold range
            roots.append(a if a != peak else b)
            continue
        roots.append(
            bisect_root(
                gap, a, b, f_a, f_b,
                f_tol=ROOT_F_TOL, x_tol=ROOT_X_TOL, max_iter=200,
            )
        )
    roots.sort()
    return roots


def _design_at(
    site: SensorSite, threshold: float, budget: float, binding: bool
) -> QuantizerDesign:
    op = site.model.operating_point(threshold)
    return QuantizerDesign(
        threshold=threshold,
        op=op,
        d_sensor=kl_divergence(op),
        d_fc=kl_divergence(bsc_transform(op, site.fc_channel)),
        d_eve=kl_divergence(bsc_transform(op, site.eve_channel)),
        binding=binding,
        budget=budget,
    )


def blind_design(site: SensorSite, budget: float = 0.0) -> QuantizerDesign:
    """The all-zeros corner quantizer: perfect secrecy, zero information."""
    return QuantizerDesign(
        threshold=math.inf,
        op=OperatingPoint(0.0, 0.0),
        d_sensor=0.0,
        d_fc=0.0,
        d_eve=0.0,
        binding=True,
        budget=budget,
    )


def unconstrained_design(site: SensorSite, budget: float = math.inf) -> QuantizerDesign:
    """Divergence-maximizing design ignoring the eavesdropper."""
    threshold, _ = max_channel_divergence(site.model, site.fc_channel)
    return _design_at(site, threshold, budget, binding=False)


def design_quantizer(site: SensorSite, budget: float) -> QuantizerDesign:
    """Best fusion-center divergence subject to Eve's divergence budget.

    * budget 0: the blind corner design (the only perfectly secret one).
    * budget covering the leakage of the unconstrained optimum: that
      optimum, constraint slack.  When the receivers' channels differ,
      their divergence peaks sit at different thresholds, so this can
      happen even while the budget level set still crosses the curve.
    * otherwise: the better of the two boundary crossings, ties broken
      toward the larger threshold (smaller false alarm).
    """
    return _site_designer(site)(budget)


def _site_designer(site: SensorSite) -> Callable[[float], QuantizerDesign]:
    """:func:`design_quantizer` for one site at any number of budgets.

    The site's two threshold searches, for the free optimum and for Eve's
    peak, run at most once each, when a budget first needs them.
    """
    free_threshold = cache(
        lambda: max_channel_divergence(site.model, site.fc_channel)[0]
    )
    eve_peak = cache(partial(max_eve_divergence, site))

    def design(budget: float) -> QuantizerDesign:
        if budget < 0.0:
            raise ValueError(f"budget must be nonnegative, got {budget!r}")
        if budget == 0.0:
            return blind_design(site)
        free = _design_at(site, free_threshold(), budget, binding=False)
        if free.d_eve <= budget:
            return free
        roots = _budget_thresholds(site, budget, eve_peak())
        if len(roots) < 2:
            # the gap peak clears the budget yet the free optimum leaks
            # more: only reachable through float rounding at exact tangency
            return free
        lo_design = _design_at(site, roots[0], budget, binding=True)
        hi_design = _design_at(site, roots[1], budget, binding=True)
        if abs(lo_design.d_fc - hi_design.d_fc) <= 1e-12:
            return hi_design
        return hi_design if hi_design.d_fc > lo_design.d_fc else lo_design

    return design


def tradeoff_curve(
    site: SensorSite, budgets: Sequence[float]
) -> list[TradeoffPoint]:
    """Sweep :func:`design_quantizer` over an ascending budget grid,
    running the site's threshold searches once for the whole sweep."""
    if any(b < 0.0 for b in budgets):
        raise ValueError("budgets must be nonnegative")
    if any(b2 < b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be sorted ascending")
    design_at = _site_designer(site)
    points = []
    for budget in budgets:
        design = design_at(budget)
        points.append(
            TradeoffPoint(budget=budget, d_fc_max=design.d_fc, design=design)
        )
    return points


def design_search_curve(
    site: SensorSite, budget: float, n_points: int
) -> list[tuple[float, float]]:
    """Sampled budget-gap curve, for diagnostic export and plotting."""
    lo, hi = site.model.threshold_bracket()
    step = (hi - lo) / (n_points - 1)
    return [
        (lo + k * step, eve_divergence_gap(site, lo + k * step, budget))
        for k in range(n_points)
    ]
