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

#: Two coordinates closer than this are treated as lying on the diagonal.
DIAGONAL_TOL = 1e-12

#: Largest |p + p_c - 1| of a probability p and its stored complement p_c.
COMPLEMENT_TOL = 1e-15


@dataclass(frozen=True)
class OperatingPoint:
    """A (false-alarm, detection) probability pair in the ROC unit square.

    Attributes
    ----------
    pfa : float
        False-alarm probability, ``P(u = 1 | H0)``.
    pd : float
        Detection probability, ``P(u = 1 | H1)``.
    pfa_c, pd_c : float
        Their complements, 1 - pfa and 1 - pd by default.  A design stores
        its own: at high SNR ``pd`` reads 1.0 while ``pd_c`` is 1e-18.

    The algebraic operations (channel transform, mixing, divergence) are
    defined on the whole unit square; design-facing code additionally
    restricts to ``pd >= pfa``, the half above the chance diagonal.
    """

    pfa: float
    pd: float
    pfa_c: float = None  # type: ignore[assignment]
    pd_c: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.pfa_c is None:
            object.__setattr__(self, "pfa_c", 1.0 - self.pfa)
        if self.pd_c is None:
            object.__setattr__(self, "pd_c", 1.0 - self.pd)
        pfa, pd, pfa_c, pd_c = self.pfa, self.pd, self.pfa_c, self.pd_c
        if not (0.0 <= pfa <= 1.0 and 0.0 <= pd <= 1.0 and 0.0 <= pfa_c <= 1.0
                and 0.0 <= pd_c <= 1.0 and abs(pfa + pfa_c - 1.0) <= COMPLEMENT_TOL
                and abs(pd + pd_c - 1.0) <= COMPLEMENT_TOL):  # also rejects NaN
            raise ValueError(
                f"inconsistent operating point: pfa, pd, pfa_c and pd_c must be "
                f"probabilities with pfa + pfa_c = pd + pd_c = 1, got {self!r}"
            )

    @property
    def tails(self) -> np.ndarray:
        """``[pfa, pd, 1 - pfa, 1 - pd]``, as the tail kernels take them."""
        return np.array((self.pfa, self.pd, self.pfa_c, self.pd_c))

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

    Read from the point's four tails with ``0 * ln 0 = 0``: (0, 0) and
    (1, 1) give 0, and a point one bit value separates, like (0, 1), +inf.
    """
    return float(_kl(op.tails))


def _received(tails, rho):
    """Tails ``[X, Y, 1 - X, 1 - Y]`` received through crossovers ``rho``
    from sensor tails ``[x, y, 1 - x, 1 - y]`` (first axis over the four):
    the one tail kernel behind every divergence, partial and weight.  Each
    tail crosses on its own; no complement is subtracted from 1."""
    received = (1.0 - 2.0 * rho) * tails
    received += rho  # in place: one fresh temporary, not two
    return received


def _kl(tails):
    """D = x ln(x/y) + (1 - x) ln((1 - x)/(1 - y)) of each point, with
    0 ln 0 = 0: the one KL kernel."""
    x, y = tails[0::2], tails[1::2]
    with np.errstate(all="ignore"):
        terms = np.where(x == 0.0, 0.0, x * np.log(x / y))
    return np.maximum(terms[0] + terms[1], 0.0)


def _kl_partials(tails):
    """``(dD/dX, dD/dY)`` = ``(ln(x/y) - ln((1 - x)/(1 - y)), (1 - x)/(1 - y)
    - x/y)`` of each point; infinite where a tail is 0."""
    with np.errstate(all="ignore"):
        ratio = tails[0::2] / tails[1::2]
        return np.log(ratio[0]) - np.log(ratio[1]), ratio[1] - ratio[0]


def _llr_weights(tails):
    """Log-likelihood-ratio increments ``[ln(y/x), ln((1 - y)/(1 - x))]`` of
    a one and a zero at each received point; 0 for a bit value with equal
    tails, even both 0 as behind a blind design."""
    x, y = tails[0::2], tails[1::2]
    with np.errstate(all="ignore"):
        return np.where(x == y, 0.0, np.log(y / x))


def kl_divergence_grad_pd(op: OperatingPoint) -> float:
    """Partial derivative of the divergence in the detection coordinate.

    Equals ``(1-x)/(1-y) - x/y``; nonnegative above the diagonal, which is
    why optimal designs always sit on the upper boundary of the feasible
    region.
    """
    return float(_kl_partials(op.tails)[1])


def bsc_transform(op: OperatingPoint, channel: BscChannel) -> OperatingPoint:
    """Operating point seen after the bit crosses the channel."""
    return OperatingPoint(*_received(op.tails, channel.crossover).tolist())


def received_divergence(tails, crossover):
    """``kl_divergence(bsc_transform(op, channel))`` for an array of tails
    ``[x, y, 1 - x, 1 - y]`` of points and crossovers that broadcast
    together, without building or range-checking points: the post-channel
    divergence that every threshold search and batch of designs evaluates."""
    return _kl(_received(tails, crossover))


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
    point, but any count is accepted.  The complements mix the same way,
    with the weights scaled to sum to 1.

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
    return OperatingPoint(*(
        min(max(math.fsum(w * t for t, w in zip(tails, weights)) / total, 0.0), 1.0)
        for tails in zip(*(p.tails.tolist() for p in points))
    ))
