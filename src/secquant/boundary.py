"""Calculus of the eavesdropper's constraint boundary in the ROC plane.

The set of sensor operating points at which Eve's per-symbol divergence
equals a fixed budget is a smooth curve.  Implicit differentiation of
``D_eve(x, y) = budget`` gives closed forms for its slope and curvature in
terms of the Eve-side coordinates, and a short algebraic identity shows the
sensor divergence is convex along the curve.  That convexity is what pushes
optimal designs to the intersection of this boundary with the LRT curve, so
everything downstream leans on the functions in this module.

The convexity certificate decomposes the second derivative of the sensor
divergence along the curve into four terms; the second term vanishes
identically and the fourth is nonnegative above the diagonal, which is the
whole proof in numeric form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularPointError
from .roc import (
    CLAMP_EPS,
    BscChannel,
    OperatingPoint,
    _bsc,
    _check_probability,
    _clamp,
    _kl,
    bsc_transform,
)
from .search import bisect_root

#: Traced points satisfy |D_eve - budget| <= TRACE_TOL.
TRACE_TOL = 1e-10
_TRACE_MAX_ITER = 200


@dataclass(frozen=True)
class BoundaryPoint:
    """One traced point of the constraint boundary.

    ``op`` is the sensor-side point, ``eve_op`` its image through Eve's
    channel; ``slope`` and ``curvature`` are dy/dx and d2y/dx2 of the
    boundary at that point.
    """

    op: OperatingPoint
    eve_op: OperatingPoint
    slope: float
    curvature: float


@dataclass(frozen=True)
class ConvexityCertificate:
    """Term-by-term evaluation of the boundary-convexity identity.

    ``second_derivative`` is d2D/dx2 of the sensor divergence along the
    constraint curve; ``t2`` must vanish and ``t4`` must be nonnegative
    for the identity to certify convexity.
    """

    t1: float
    t2: float
    t3: float
    t4: float
    second_derivative: float


def _eve_coords(op: OperatingPoint, eve: BscChannel) -> tuple[float, float]:
    eve_op = bsc_transform(op, eve)
    xe, ye = _clamp(eve_op.pfa), _clamp(eve_op.pd)
    if abs(ye - xe) < 1e-12:
        raise SingularPointError(
            "operating point maps onto the diagonal through Eve's channel; "
            "the constraint boundary has no defined slope there"
        )
    return xe, ye


def constraint_slope(op: OperatingPoint, eve: BscChannel) -> float:
    """Slope dy/dx of the constant-Eve-divergence curve through ``op``.

    With ``(xe, ye)`` the Eve-side image of ``op``,

        slope = [ln((1-xe)/(1-ye)) - ln(xe/ye)]
                / [(1-xe)/(1-ye) - xe/ye].

    Raises :class:`SingularPointError` on the diagonal.
    """
    xe, ye = _eve_coords(op, eve)
    ratio_hi = (1.0 - xe) / (1.0 - ye)
    ratio_lo = xe / ye
    return (math.log(ratio_hi) - math.log(ratio_lo)) / (ratio_hi - ratio_lo)


def constraint_curvature(
    op: OperatingPoint, eve: BscChannel, slope: float
) -> float:
    """Curvature d2y/dx2 of the constraint curve, given its slope there.

    Obtained by differentiating the level-set condition twice; the
    ``1 - 2*rho`` factor carries the chain rule through the channel's
    affine map.
    """
    xe, ye = _eve_coords(op, eve)
    gap = (1.0 - xe) / (1.0 - ye) - xe / ye
    a = (1.0 - xe) / (1.0 - ye) ** 2 + xe / ye**2
    b = 1.0 / ye + 1.0 / (1.0 - ye)
    c = 1.0 / xe + 1.0 / (1.0 - xe)
    scale = 1.0 - 2.0 * eve.crossover
    return scale * (-a * slope * slope + 2.0 * b * slope - c) / gap


def slope_bounds(op: OperatingPoint, eve: BscChannel) -> tuple[float, float]:
    """Sandwich ``(1-ye)/(1-xe) <= dy/dx <= ye/xe`` on the boundary slope.

    The slope is the divided difference of the (concave) logarithm between
    the abscissae ``xe/ye`` and ``(1-xe)/(1-ye)``, so by the mean value
    theorem it lies between the log's derivatives there, i.e. between the
    reciprocals of those two ratios, whenever ``pd >= pfa``.  At symmetric
    points (``pfa + pd = 1``) the reciprocals equal the ratios themselves.
    """
    eve_op = bsc_transform(op, eve)
    xe, ye = _clamp(eve_op.pfa), _clamp(eve_op.pd)
    return (1.0 - ye) / (1.0 - xe), ye / xe


def eve_divergence_at(x: float, y: float, eve: BscChannel) -> float:
    """Eve's per-symbol divergence for a sensor point given as raw floats."""
    _check_probability(x, "pfa")
    _check_probability(y, "pd")
    rho = eve.crossover
    return _kl(_bsc(x, rho), _bsc(y, rho))


def solve_boundary_pd(x: float, budget: float, eve: BscChannel) -> float | None:
    """Detection probability on the upper branch of the boundary at ``x``.

    Solves ``D_eve(x, y) = budget`` for ``y`` in ``[x, 1]`` by bisection;
    the divergence is strictly increasing in ``y`` there, so the root is
    unique.  Returns ``None`` when the budget exceeds the divergence
    achievable at this abscissa (no boundary point above ``x``).
    """
    top = eve_divergence_at(x, 1.0, eve) - budget
    if top < 0.0:
        return None
    return bisect_root(
        lambda y: eve_divergence_at(x, y, eve) - budget,
        x, 1.0, -budget, top,
        f_tol=TRACE_TOL, x_tol=0.0, max_iter=_TRACE_MAX_ITER,
    )


def trace_constraint_curve(
    budget: float, eve: BscChannel, n_points: int
) -> list[BoundaryPoint]:
    """Numerically trace the upper branch of ``D_eve = budget``.

    Lays an ``n_points`` grid over the false-alarm axis, discards abscissae
    where the budget is unreachable, and bisects for the detection
    coordinate at the rest.  Every returned point carries the closed-form
    slope and curvature and satisfies ``|D_eve - budget| <= TRACE_TOL``.
    Returns an empty list when the budget exceeds Eve's best achievable
    divergence everywhere.
    """
    if not budget > 0.0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points!r}")
    points: list[BoundaryPoint] = []
    step = 1.0 / (n_points - 1)
    for k in range(n_points):
        x = min(k * step, 1.0)
        y = solve_boundary_pd(x, budget, eve)
        if y is None:
            continue
        op = OperatingPoint(x, y)
        slope = constraint_slope(op, eve)
        points.append(
            BoundaryPoint(
                op=op,
                eve_op=bsc_transform(op, eve),
                slope=slope,
                curvature=constraint_curvature(op, eve, slope),
            )
        )
    return points


def convexity_certificate(
    op: OperatingPoint, eve: BscChannel
) -> ConvexityCertificate:
    """Evaluate the convexity identity for the sensor divergence.

    Along the constraint curve through ``op``,

        d2D/dx2 = t1 * slope^2 - 2 * t2 * slope + t3
                = rho*(1-rho)*(y-x)/(y*(1-y)) * t4,

    with ``t2 = 0`` identically and ``t4 >= 0`` wherever ``pd > pfa`` and
    ``0 < rho < 1/2``.  Clamped coordinates keep the terms finite near the
    square's edges.

    Requires ``pd > pfa`` and a strictly noisy channel.
    """
    if not op.pd > op.pfa:
        raise SingularPointError(
            "convexity certificate requires pd > pfa (point above the diagonal)"
        )
    rho = eve.crossover
    if not 0.0 < rho < 0.5:
        raise ValueError(
            f"convexity certificate requires 0 < crossover < 0.5, got {rho!r}"
        )
    x, y = _clamp(op.pfa), _clamp(op.pd)
    hat = bsc_transform(op, eve)
    xh, yh = _clamp(hat.pfa), _clamp(hat.pd)
    slope = constraint_slope(op, eve)

    hat_over = yh * (1.0 - yh) / (y * (1.0 - y))
    t1 = (
        rho * (1.0 - rho) * (y - x) * (2.0 * y - 1.0)
        / (y**2 * (1.0 - y) ** 2 * yh * (1.0 - yh))
    )
    t2 = (1.0 / y + 1.0 / (1.0 - y)) - hat_over * (
        1.0 / yh + 1.0 / (1.0 - yh)
    )
    t3 = (
        rho * (1.0 - rho) / (y * (1.0 - y))
        * (y - x) * (1.0 - x - y)
        / (x * (1.0 - x) * xh * (1.0 - xh))
    )
    t4 = (2.0 * y - 1.0) / (y * yh * (1.0 - y) * (1.0 - yh)) * slope * slope + (
        1.0 - x - y
    ) / (x * xh * (1.0 - x) * (1.0 - xh))
    second = rho * (1.0 - rho) * (y - x) / (y * (1.0 - y)) * t4
    return ConvexityCertificate(
        t1=t1, t2=t2, t3=t3, t4=t4, second_derivative=second
    )


def roc_region(op: OperatingPoint) -> str:
    """Which of the three upper-triangle regions the point falls in.

    ``R1``: pd <= 1/2 and pfa + pd <= 1; ``R2``: pd >= 1/2 and
    pfa + pd <= 1; ``R3``: pd >= 1/2 and pfa + pd >= 1.  Boundaries are
    shared; the first matching label is returned.
    """
    if not op.above_diagonal:
        raise ValueError("region classification applies above the diagonal")
    if op.pd <= 0.5 and op.pfa + op.pd <= 1.0:
        return "R1"
    if op.pd >= 0.5 and op.pfa + op.pd <= 1.0:
        return "R2"
    return "R3"
