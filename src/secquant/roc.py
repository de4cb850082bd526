"""ROC-space algebra for binary quantizers behind binary symmetric channels.

A binary quantizer is identified with its operating point ``(pfa, pd)`` in
the ROC unit square.  A binary symmetric channel with crossover probability
``rho`` maps every coordinate through ``p -> rho + (1 - 2*rho) * p``, which
slides the point along the straight line toward the uninformative center
``(1/2, 1/2)``.  The Kullback-Leibler divergence of an operating point,

    D(x, y) = x*ln(x/y) + (1 - x)*ln((1 - x)/(1 - y)),

is the error exponent of the miss probability under a false-alarm
constraint, so it is the figure of merit everywhere in this package.
All divergences are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .gaussian import GaussianSensorModel

#: Probabilities are clamped into [CLAMP_EPS, 1 - CLAMP_EPS] before any
#: logarithm so corner points yield finite (zero) divergence.
CLAMP_EPS = 1e-12

#: Two coordinates closer than this are treated as lying on the diagonal.
DIAGONAL_TOL = 1e-12


def _clamp(p: float) -> float:
    return min(max(p, CLAMP_EPS), 1.0 - CLAMP_EPS)


def _check_probability(value: float, name: str) -> None:
    if not (0.0 <= value <= 1.0):  # also rejects NaN
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True)
class OperatingPoint:
    """A (false-alarm, detection) probability pair in the ROC unit square.

    Attributes
    ----------
    pfa : float
        False-alarm probability, ``P(u = 1 | H0)``.
    pd : float
        Detection probability, ``P(u = 1 | H1)``.

    The algebraic operations (channel transform, mixing, divergence) are
    defined on the whole unit square; design-facing code additionally
    restricts to ``pd >= pfa``, the half above the chance diagonal.
    """

    pfa: float
    pd: float

    def __post_init__(self) -> None:
        _check_probability(self.pfa, "pfa")
        _check_probability(self.pd, "pd")

    @property
    def above_diagonal(self) -> bool:
        return self.pd >= self.pfa

    @property
    def on_diagonal(self) -> bool:
        return abs(self.pd - self.pfa) < DIAGONAL_TOL


@dataclass(frozen=True)
class BscChannel:
    """Binary symmetric channel with crossover probability in [0, 1/2).

    Channels at or beyond 1/2 are rejected outright: the design theory
    assumes the receiver is on the informative side, and silently flipping
    would change what the channel means.
    """

    crossover: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.crossover < 0.5):  # also rejects NaN
            raise ValueError(
                f"crossover must lie in [0, 0.5), got {self.crossover!r}"
            )


@dataclass(frozen=True)
class SensorSite:
    """One sensor: its observation model plus its two outgoing channels."""

    model: "GaussianSensorModel"
    fc_channel: BscChannel
    eve_channel: BscChannel


def kl_divergence(op: OperatingPoint) -> float:
    """KL divergence (nats) of the H0 bit law from the H1 bit law.

    Coordinates are clamped to ``[CLAMP_EPS, 1 - CLAMP_EPS]`` before the
    logarithms, which realizes the ``0 * ln 0 = 0`` convention: the corner
    points (0, 0) and (1, 1) give exactly 0 and every input gives a finite,
    nonnegative result.
    """
    return float(_kl(op.pfa, op.pd))


def _kl(x, y):
    """:func:`kl_divergence` elementwise on arrays (or floats) of
    coordinates: the one KL kernel, behind every divergence here."""
    # np.minimum/np.maximum: np.clip's values at half its cost on scalars
    x = np.minimum(np.maximum(x, CLAMP_EPS), 1.0 - CLAMP_EPS)
    y = np.minimum(np.maximum(y, CLAMP_EPS), 1.0 - CLAMP_EPS)
    d = x * np.log(x / y) + (1.0 - x) * np.log((1.0 - x) / (1.0 - y))
    return np.maximum(d, 0.0)


def kl_divergence_grad_pd(op: OperatingPoint) -> float:
    """Partial derivative of the divergence in the detection coordinate.

    Equals ``(1-x)/(1-y) - x/y``; nonnegative above the diagonal, which is
    why optimal designs always sit on the upper boundary of the feasible
    region.
    """
    x = _clamp(op.pfa)
    y = _clamp(op.pd)
    return (1.0 - x) / (1.0 - y) - x / y


def bsc_transform(op: OperatingPoint, channel: BscChannel) -> OperatingPoint:
    """Operating point seen after the bit crosses the channel."""
    rho = channel.crossover
    return OperatingPoint(_bsc(op.pfa, rho), _bsc(op.pd, rho))


def _bsc(p, rho: float):
    """One coordinate (a float or an array) through a channel of crossover
    ``rho``."""
    return rho + (1.0 - 2.0 * rho) * p


def received_divergence(pfa, pd, crossover):
    """``kl_divergence(bsc_transform(op, channel))`` elementwise on arrays
    (or floats) of coordinates and crossovers that broadcast together,
    without building or range-checking points: the post-channel divergence
    that every threshold search and batch of designs evaluates."""
    return _kl(_bsc(pfa, crossover), _bsc(pd, crossover))


def site_divergences(op: OperatingPoint, site: SensorSite) -> tuple[float, float]:
    """Per-symbol divergences contributed at the fusion center and at Eve."""
    d_fc = kl_divergence(bsc_transform(op, site.fc_channel))
    d_eve = kl_divergence(bsc_transform(op, site.eve_channel))
    return d_fc, d_eve


def mix_quantizers(
    points: Sequence[OperatingPoint], weights: Sequence[float]
) -> OperatingPoint:
    """Convex combination of operating points (time-shared quantizers).

    Randomizing among quantizers realizes any point of the convex hull of
    their operating points; three points always suffice to reach a hull
    point, but any count is accepted.

    Raises
    ------
    ValueError
        If the lists are empty, of unequal length, or the weights are
        negative or do not sum to one within 1e-12.
    """
    if len(points) == 0:
        raise ValueError("mix_quantizers needs at least one operating point")
    if len(points) != len(weights):
        raise ValueError(
            f"got {len(points)} points but {len(weights)} weights"
        )
    if any(w < 0.0 for w in weights):
        raise ValueError("mixture weights must be nonnegative")
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"mixture weights must sum to 1, got {total!r}")
    pfa = math.fsum(w * p.pfa for p, w in zip(points, weights))
    pd = math.fsum(w * p.pd for p, w in zip(points, weights))
    return OperatingPoint(min(max(pfa, 0.0), 1.0), min(max(pd, 0.0), 1.0))
