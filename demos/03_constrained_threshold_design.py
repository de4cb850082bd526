#!/usr/bin/env python3
"""Designing one sensor's threshold under a secrecy budget.

Shows the budget-gap curve whose at-most-two zeros bracket the admissible
thresholds, designs the sensor at several budgets, and sweeps the budget to
expose the secrecy-versus-detection tradeoff with its saturation point.
"""

import math

import numpy as np

from secquant import (
    BscChannel,
    GaussianSensorModel,
    SensorSite,
    design_quantizer,
    eve_divergence_gap,
    find_budget_thresholds,
    max_channel_divergence,
    tradeoff_curve,
)

site = SensorSite(
    model=GaussianSensorModel(theta=1.0, sigma=1.0),
    fc_channel=BscChannel(0.0),
    eve_channel=BscChannel(0.1),
)

peak_threshold, ceiling = max_channel_divergence(site.model, site.eve_channel)
free = design_quantizer(site, math.inf)
print(f"unconstrained design: threshold {free.threshold:.4f}, "
      f"d_fc {free.d_fc:.4f}, leaks d_eve {free.d_eve:.4f}")
print(f"Eve's reachable ceiling on the LRT curve: {ceiling:.4f} "
      f"(at threshold {peak_threshold:.4f})\n")

budget = 0.5 * ceiling
print(f"budget gap (d_eve - {budget:.4f}) along the threshold axis:")
for lam in np.linspace(-2.5, 3.0, 12):
    gap = eve_divergence_gap(site, lam, budget)
    marker = "+" if gap > 0 else "-"
    bar = "#" * int(60 * abs(gap))
    print(f"  lambda={lam:6.2f}  gap={gap:8.4f}  {marker}{bar}")

roots = find_budget_thresholds(site, budget)
print(f"\nadmissible-boundary thresholds: {roots}")
design = design_quantizer(site, budget)
print(
    f"constrained design: threshold {design.threshold:.4f}, "
    f"op ({design.op.pfa:.4f}, {design.op.pd:.4f}), d_fc {design.d_fc:.4f}, "
    f"d_eve {design.d_eve:.6f} (binding: {design.binding})\n"
)

print("tradeoff sweep (d_fc_max vs budget), saturating once the budget")
print("covers the unconstrained design's leakage:")
budgets = list(np.linspace(0.0, 1.3 * ceiling, 14))
for point in tradeoff_curve(site, budgets):
    bar = "#" * int(120 * point.d_fc)
    tag = "binding" if point.binding else "slack  "
    print(f"  budget {point.budget:.4f}  d_fc {point.d_fc:.4f}  {tag}  {bar}")
