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

from dataclasses import dataclass

import numpy as np

from .errors import SingularPointError
from .roc import (
    DIAGONAL_TOL,
    BscChannel,
    OperatingPoint,
    _bsc,
    _clamp,
    received_divergence,
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


def _eve_coords(x, y, rho):
    """Clamped Eve-side images of sensor coordinates behind crossovers
    ``rho``, elementwise on arrays (or floats) that broadcast together.
    Raises :class:`SingularPointError` where any image is on the diagonal."""
    xe, ye = _clamp(_bsc(x, rho)), _clamp(_bsc(y, rho))
    if np.any(np.abs(ye - xe) < DIAGONAL_TOL):
        raise SingularPointError(
            "operating point maps onto the diagonal through Eve's channel; "
            "the constraint boundary has no defined slope there"
        )
    return xe, ye


def _slope(x, y, rho):
    """:func:`constraint_slope` elementwise on arrays of coordinates."""
    xe, ye = _eve_coords(x, y, rho)
    ratio_hi = (1.0 - xe) / (1.0 - ye)
    ratio_lo = xe / ye
    return (np.log(ratio_hi) - np.log(ratio_lo)) / (ratio_hi - ratio_lo)


def _curvature(x, y, rho, slope):
    """:func:`constraint_curvature` elementwise on arrays of coordinates
    and slopes."""
    xe, ye = _eve_coords(x, y, rho)
    gap = (1.0 - xe) / (1.0 - ye) - xe / ye
    # products, not ** 2: NumPy squares arrays but calls pow() on scalars
    a = (1.0 - xe) / ((1.0 - ye) * (1.0 - ye)) + xe / (ye * ye)
    b = 1.0 / ye + 1.0 / (1.0 - ye)
    c = 1.0 / xe + 1.0 / (1.0 - xe)
    scale = 1.0 - 2.0 * rho
    return scale * (-a * slope * slope + 2.0 * b * slope - c) / gap


def constraint_slope(op: OperatingPoint, eve: BscChannel) -> float:
    """Slope dy/dx of the constant-Eve-divergence curve through ``op``.

    With ``(xe, ye)`` the Eve-side image of ``op``,

        slope = [ln((1-xe)/(1-ye)) - ln(xe/ye)]
                / [(1-xe)/(1-ye) - xe/ye].

    Raises :class:`SingularPointError` on the diagonal.
    """
    return float(_slope(op.pfa, op.pd, eve.crossover))


def constraint_curvature(
    op: OperatingPoint, eve: BscChannel, slope: float
) -> float:
    """Curvature d2y/dx2 of the constraint curve, given its slope there.

    Obtained by differentiating the level-set condition twice; the
    ``1 - 2*rho`` factor carries the chain rule through the channel's
    affine map.
    """
    return float(_curvature(op.pfa, op.pd, eve.crossover, slope))


def slope_bounds(op: OperatingPoint, eve: BscChannel) -> tuple[float, float]:
    """Sandwich ``(1-ye)/(1-xe) <= dy/dx <= ye/xe`` on the boundary slope.

    The slope is the divided difference of the (concave) logarithm between
    the abscissae ``xe/ye`` and ``(1-xe)/(1-ye)``, so by the mean value
    theorem it lies between the log's derivatives there, i.e. between the
    reciprocals of those two ratios, whenever ``pd >= pfa``.  At symmetric
    points (``pfa + pd = 1``) the reciprocals equal the ratios themselves.
    """
    rho = eve.crossover
    xe, ye = _clamp(_bsc(op.pfa, rho)), _clamp(_bsc(op.pd, rho))
    return float((1.0 - ye) / (1.0 - xe)), float(ye / xe)


def trace_constraint_curve(
    budget: float, eve: BscChannel, n_points: int
) -> list[BoundaryPoint]:
    """Numerically trace the upper branch of ``D_eve = budget``.

    Lays an ``n_points`` grid over the false-alarm axis, discards abscissae
    where the budget is unreachable, and bisects all the rest in one batch
    for the detection coordinate, unique on ``[x, 1]`` where the divergence
    rises.  Every returned point carries the closed-form slope and
    curvature and satisfies ``|D_eve - budget| <= TRACE_TOL``.  Returns an
    empty list when the budget exceeds Eve's best achievable divergence
    everywhere.
    """
    if not budget > 0.0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points!r}")
    rho = eve.crossover
    x = np.minimum(np.arange(n_points) * (1.0 / (n_points - 1)), 1.0)
    top = received_divergence(x, 1.0, rho) - budget
    reach = ~(top < 0.0)
    x, top = x[reach], top[reach]

    def gap(y: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return received_divergence(x[lanes, None], y, rho) - budget

    y = bisect_root(
        gap, x, np.ones(x.size), np.full(x.size, -budget), top,
        f_tol=TRACE_TOL, x_tol=0.0, max_iter=_TRACE_MAX_ITER,
    )
    slope = _slope(x, y, rho)
    curvature = _curvature(x, y, rho, slope)
    columns = (x, y, _bsc(x, rho), _bsc(y, rho), slope, curvature)
    return [
        BoundaryPoint(OperatingPoint(px, py), OperatingPoint(ex, ey), s, c)
        for px, py, ex, ey, s, c in zip(*(col.tolist() for col in columns))
    ]


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
    xh, yh = _eve_coords(op.pfa, op.pd, rho)
    slope = _slope(op.pfa, op.pd, rho)

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
    return ConvexityCertificate(*map(float, (t1, t2, t3, t4, second)))


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
