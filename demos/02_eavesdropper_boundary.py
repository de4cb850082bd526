#!/usr/bin/env python3
"""The eavesdropper's constraint boundary in the ROC plane.

Traces the curve of sensor operating points at which Eve's divergence
equals a fixed budget, checks the closed-form slope against the trace, and
evaluates the convexity certificate of the FC divergence along it.  Where
Eve's channel is no better than the FC's (rho_e >= rho_fc), that
certificate forces optimal designs onto the boundary's intersection with
the LRT curve; where Eve hears better, it does not hold and is refused.
"""

from secquant import (
    BscChannel,
    OperatingPoint,
    bsc_transform,
    convexity_certificate,
    kl_divergence,
    trace_constraint_curve,
)


def point(tails, k):
    """The operating point in lane ``k`` of a (4, n) tails column."""
    return OperatingPoint(*tails[:, k].tolist())


fc = BscChannel(0.05)
eve = BscChannel(0.1)
budget = 0.15

trace = trace_constraint_curve(budget, eve, n_points=241)
n = trace.slope.size
x, y = trace.tails[:2]
x_e, y_e = trace.eve_tails[:2]
print(
    f"boundary of {{D_eve = {budget}}} for crossover 0.1: "
    f"{n} traced points\n"
)

print("   x       y      eve point        slope    curvature   d_eve")
for k in range(0, n, n // 10):
    d_eve = kl_divergence(point(trace.eve_tails, k))
    print(
        f" {x[k]:.3f}  {y[k]:.4f}  ({x_e[k]:.3f}, {y_e[k]:.3f})"
        f"  {trace.slope[k]:8.4f}  {trace.curvature[k]:9.4f}  {d_eve:.10f}"
    )

print("\nconvexity certificate along the same boundary, FC crossover 0.05")
print("(t2 vanishes identically; t4 >= 0 makes the FC divergence convex, so,")
print("as rho_e >= rho_fc, the best feasible design sits at a boundary endpoint):")
print("   x      t1          t2          t3         t4        d2D/dx2")
for k in range(20, n, n // 6):
    cert = convexity_certificate(point(trace.tails, k), fc, eve)
    print(
        f" {x[k]:.3f}  {cert.t1:9.4f}  {cert.t2:.2e}  {cert.t3:9.4f}"
        f"  {cert.t4:9.4f}  {cert.second_derivative:9.4f}"
    )

print("\nFC divergence sampled along the boundary (convex in x):")
for k in range(0, n, n // 10):
    d = kl_divergence(bsc_transform(point(trace.tails, k), fc))
    bar = "#" * int(120 * d)
    print(f"  x={x[k]:.3f}  D_fc={d:.4f}  {bar}")

try:
    convexity_certificate(point(trace.tails, 20), BscChannel(0.2), eve)
except ValueError as refusal:
    print(f"\nwith FC crossover 0.2, Eve hears better: {refusal}")
