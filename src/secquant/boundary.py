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
    _kl_partials,
    _received,
    received_divergence,
)
from .search import bisect_root

#: Traced points satisfy |D_eve - budget| <= TRACE_TOL.
TRACE_TOL = 1e-10


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


def _eve_tails(tails, rho):
    """Eve-side tails ``[X, Y, 1 - X, 1 - Y]`` of sensor tails behind
    crossovers ``rho``.  Raises :class:`SingularPointError` where any
    image is on the diagonal."""
    eve = _received(tails, rho)
    if np.any(np.abs(eve[1] - eve[0]) < DIAGONAL_TOL):
        raise SingularPointError(
            "operating point maps onto the diagonal through Eve's channel; "
            "the constraint boundary has no defined slope there"
        )
    return eve


def _slope(tails, rho):
    """:func:`constraint_slope` for an array of sensor tails:
    -(dD/dX) / (dD/dY) at the Eve-side point."""
    d_x, d_y = _kl_partials(_eve_tails(tails, rho))
    return -d_x / d_y


def _curvature(tails, rho, slope):
    """:func:`constraint_curvature` for an array of sensor tails and
    slopes; -inf where the slope is infinite (a tail at 0)."""
    x, y, xc, yc = eve = _eve_tails(tails, rho)
    with np.errstate(all="ignore"):
        # second partials of D: a = D_YY, b = -D_XY, c = D_XX
        a = xc / (yc * yc) + x / (y * y)
        b = 1.0 / y + 1.0 / yc
        c = 1.0 / x + 1.0 / xc
        scale = 1.0 - 2.0 * rho
        return scale * -(slope * (a * slope - 2.0 * b) + c) / _kl_partials(eve)[1]


def constraint_slope(op: OperatingPoint, eve: BscChannel) -> float:
    """Slope dy/dx of the constant-Eve-divergence curve through ``op``.

    With ``(xe, ye)`` the Eve-side image of ``op``,

        slope = [ln((1-xe)/(1-ye)) - ln(xe/ye)]
                / [(1-xe)/(1-ye) - xe/ye].

    Raises :class:`SingularPointError` on the diagonal.
    """
    return float(_slope(op.tails, eve.crossover))


def constraint_curvature(
    op: OperatingPoint, eve: BscChannel, slope: float
) -> float:
    """Curvature d2y/dx2 of the constraint curve, given its slope there.

    Obtained by differentiating the level-set condition twice; the
    ``1 - 2*rho`` factor carries the chain rule through the channel's
    affine map.
    """
    return float(_curvature(op.tails, eve.crossover, slope))


def slope_bounds(op: OperatingPoint, eve: BscChannel) -> tuple[float, float]:
    """Sandwich ``(1-ye)/(1-xe) <= dy/dx <= ye/xe`` on the boundary slope.

    The slope is the divided difference of the (concave) logarithm between
    the abscissae ``xe/ye`` and ``(1-xe)/(1-ye)``, so by the mean value
    theorem it lies between the log's derivatives there, i.e. between the
    reciprocals of those two ratios, whenever ``pd >= pfa``.  At symmetric
    points (``pfa + pd = 1``) the reciprocals equal the ratios themselves.
    """
    x, y, xc, yc = _received(op.tails, eve.crossover)
    with np.errstate(all="ignore"):
        return float(yc / xc), float(y / x)


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
    corner = np.array([x, np.ones_like(x), 1.0 - x, np.zeros_like(x)])
    top = received_divergence(corner, rho) - budget
    reach = ~(top < 0.0)
    x, top = x[reach], top[reach]

    def gap(y: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        col = x[lanes, None]
        return received_divergence(np.array([col, y, 1.0 - col, 1.0 - y]), rho) - budget

    y = bisect_root(
        gap, x, np.ones(x.size), np.full(x.size, -budget), top,
        f_tol=TRACE_TOL, x_tol=0.0,
    )
    # a root nearer to y = 1 than a float resolves stays off the level set;
    # its lane ends once no float lies inside its bracket
    on = np.abs(gap(y[:, None], np.arange(x.size))[:, 0]) <= TRACE_TOL
    tails = np.array([x[on], y[on], 1.0 - x[on], 1.0 - y[on]])
    slope = _slope(tails, rho)
    columns = (*tails, *_received(tails, rho), slope, _curvature(tails, rho, slope))
    return [
        BoundaryPoint(OperatingPoint(*p[:4]), OperatingPoint(*p[4:8]), *p[8:])
        for p in zip(*(col.tolist() for col in columns))
    ]


def convexity_certificate(
    op: OperatingPoint, eve: BscChannel
) -> ConvexityCertificate:
    """Evaluate the convexity identity for the sensor divergence.

    Along the constraint curve through ``op``,

        d2D/dx2 = t1 * slope^2 - 2 * t2 * slope + t3
                = rho*(1-rho)*(y-x)/(y*(1-y)) * t4,

    with ``t2 = 0`` identically and ``t4 >= 0`` wherever ``pd > pfa`` and
    ``0 < rho < 1/2``.  The terms read the point's stored complements, and
    a term is infinite where a tail it divides by is 0.

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
    x, y, xc, yc = op.tails
    xh, yh, xhc, yhc = _eve_tails(op.tails, rho)
    slope = _slope(op.tails, rho)

    with np.errstate(all="ignore"):
        hat_over = yh * yhc / (y * yc)
        t1 = rho * (1.0 - rho) * (y - x) * (y - yc) / (y**2 * yc**2 * yh * yhc)
        t2 = (1.0 / y + 1.0 / yc) - hat_over * (1.0 / yh + 1.0 / yhc)
        t3 = rho * (1.0 - rho) / (y * yc) * (y - x) * (xc - y) / (x * xc * xh * xhc)
        t4 = ((y - yc) / (y * yh * yc * yhc) * slope * slope
              + (xc - y) / (x * xh * xc * xhc))
        second = rho * (1.0 - rho) * (y - x) / (y * yc) * t4
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
