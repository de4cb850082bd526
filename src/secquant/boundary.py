"""Calculus of the eavesdropper's constraint boundary in the ROC plane.

The set of sensor operating points at which Eve's per-symbol divergence
equals a fixed budget is a smooth curve.  Implicit differentiation of
``D_eve(x, y) = budget`` gives closed forms for its slope and curvature in
terms of the Eve-side coordinates.  A short algebraic identity shows that
the FC divergence is convex along the curve wherever Eve's channel is the
FC's channel followed by a BSC, that is, wherever rho_e >= rho_fc.  There
designs are optimal among all binary quantizers; where Eve hears better
than the FC they are optimal among LRT thresholds only.

The convexity certificate decomposes the second derivative of the FC
divergence along the curve, in FC coordinates, into four terms; the
second term vanishes identically and the fourth is nonnegative above the
diagonal, which is the whole proof in numeric form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularPointError, _check_integer
from .roc import (
    DIAGONAL_TOL,
    BscChannel,
    OperatingPoint,
    _check_tails,
    _kl_partials,
    _received,
    bsc_transform,
    received_divergence,
)
from .search import bisect_root

#: Traced points satisfy |D_eve - budget| <= TRACE_TOL.
TRACE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BoundaryTrace:
    """The traced constraint boundary as columns, one lane per point: the
    sensor tails ``[x, y, 1 - x, 1 - y]`` and their image through Eve's
    channel as the rows of two (4, n) arrays, each checked once on the
    arrays by ``roc._check_tails``; ``slope`` and ``curvature`` are dy/dx
    and d2y/dx2 of the boundary at each point."""

    tails: np.ndarray
    eve_tails: np.ndarray
    slope: np.ndarray
    curvature: np.ndarray

    def __post_init__(self) -> None:
        _check_tails(*self.tails)
        _check_tails(*self.eve_tails)


@dataclass(frozen=True)
class ConvexityCertificate:
    """Term-by-term evaluation of the boundary-convexity identity.

    ``second_derivative`` is d2D/dx2 of the FC divergence along the
    constraint curve, in FC coordinates; ``t2`` must vanish and ``t4``
    must be nonnegative for the identity to certify convexity.
    """

    t1: float
    t2: float
    t3: float
    t4: float
    second_derivative: float


def _level_set(tails, rho):
    """``(eve_tails, slope, curvature)`` of the constant-Eve-divergence curve
    through each of an array of sensor tails behind crossovers ``rho``: the
    Eve-side tails ``[X, Y, 1 - X, 1 - Y]``, the slope dy/dx =
    -(dD/dX) / (dD/dY) there, and the curvature d2y/dx2, the level-set
    condition differentiated twice, the ``1 - 2*rho`` factor carrying the
    chain rule through the channel's affine map (-inf where the slope is
    infinite, a tail at 0).  Raises :class:`SingularPointError` where any
    image is on the diagonal."""
    x, y, xc, yc = eve = _received(tails, rho)
    if np.any(np.abs(y - x) < DIAGONAL_TOL):
        raise SingularPointError(
            "operating point maps onto the diagonal through Eve's channel; "
            "the constraint boundary has no defined slope there"
        )
    d_x, d_y = _kl_partials(eve)
    slope = -d_x / d_y
    with np.errstate(all="ignore"):
        # second partials of D: a = D_YY, b = -D_XY, c = D_XX
        a = xc / (yc * yc) + x / (y * y)
        b = 1.0 / y + 1.0 / yc
        c = 1.0 / x + 1.0 / xc
        scale = 1.0 - 2.0 * rho
        return eve, slope, scale * -(slope * (a * slope - 2.0 * b) + c) / d_y


def trace_constraint_curve(
    budget: float, eve: BscChannel, n_points: int
) -> BoundaryTrace:
    """Numerically trace the upper branch of ``D_eve = budget``.

    Lays an ``n_points`` grid over the false-alarm axis, discards abscissae
    where the budget is unreachable, and bisects all the rest in one batch
    for the detection coordinate, unique on ``[x, 1]`` where the divergence
    rises.  Every returned point carries the closed-form slope and
    curvature and satisfies ``|D_eve - budget| <= TRACE_TOL``.  The trace
    has no points when the budget exceeds Eve's best achievable divergence
    everywhere.
    """
    if not budget > 0.0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    _check_integer("n_points", n_points)
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
    return BoundaryTrace(tails, *_level_set(tails, rho))


def convexity_certificate(
    op: OperatingPoint, fc: BscChannel, eve: BscChannel
) -> ConvexityCertificate:
    """Evaluate the convexity identity for the FC divergence.

    Where ``rho_e >= rho_fc``, Eve's channel is the FC's followed by
    BSC(rho'), rho' = (rho_e - rho_fc) / (1 - 2 rho_fc).  So in FC
    coordinates, at ``(x, y)`` = ``bsc_transform(op, fc)``, the FC
    divergence D is the noiseless one and Eve's level curve is that of
    BSC(rho'); along it,

        d2D/dx2 = t1 * slope^2 - 2 * t2 * slope + t3
                = rho'*(1-rho')*(y-x)/(y*(1-y)) * t4,

    with ``t2 = 0`` identically and ``t4 >= 0`` wherever ``pd > pfa`` and
    ``0 < rho' < 1/2``.  The terms read the point's stored complements,
    and a term is infinite where a tail it divides by is 0.

    Requires ``pd > pfa`` and ``rho_e > rho_fc``: where Eve hears better
    than the FC the LRT claim is not certified, and this raises.
    """
    if eve.crossover < fc.crossover:
        raise ValueError(
            f"Eve's crossover {eve.crossover!r} is below the FC's "
            f"{fc.crossover!r}: her channel is not the FC's followed by a "
            f"BSC, so the LRT claim is not certified there"
        )
    op = bsc_transform(op, fc)
    if not op.pd > op.pfa:
        raise SingularPointError(
            "convexity certificate requires pd > pfa (point above the diagonal)"
        )
    rho = (eve.crossover - fc.crossover) / (1.0 - 2.0 * fc.crossover)
    if not 0.0 < rho < 0.5:
        raise ValueError(
            f"convexity certificate requires 0 < rho' < 0.5, got {rho!r}"
        )
    x, y, xc, yc = op.tails
    (xh, yh, xhc, yhc), slope, _ = _level_set(op.tails, rho)

    with np.errstate(all="ignore"):
        hat_over = yh * yhc / (y * yc)
        t1 = rho * (1.0 - rho) * (y - x) * (y - yc) / (y**2 * yc**2 * yh * yhc)
        t2 = (1.0 / y + 1.0 / yc) - hat_over * (1.0 / yh + 1.0 / yhc)
        t3 = rho * (1.0 - rho) / (y * yc) * (y - x) * (xc - y) / (x * xc * xh * xhc)
        t4 = ((y - yc) / (y * yh * yc * yhc) * slope * slope
              + (xc - y) / (x * xh * xc * xhc))
        second = rho * (1.0 - rho) * (y - x) / (y * yc) * t4
    return ConvexityCertificate(*map(float, (t1, t2, t3, t4, second)))
