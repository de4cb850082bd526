"""Shift-in-mean Gaussian observation model and its LRT operating curve.

Each sensor observes either pure noise (H0) or a known amplitude plus noise
(H1), with the noise ``N(0, sigma^2)``.  Thresholding the raw observation is
the likelihood ratio test, and sweeping the threshold traces the best
achievable ROC boundary

    pd = Q(Q^{-1}(pfa) - snr),        snr = theta / sigma.

Other observation models can be plugged in by providing the same small
surface (``operating_point``, ``lrt_curve``, ``threshold_bracket``) and
their own post-channel divergence kernels for the threshold search; only
the Gaussian model ships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, log_ndtr, ndtri

from .roc import BscChannel, OperatingPoint, _bsc, _kl, _kl_array
from .search import assert_unimodal, golden_section_max

#: Searches over the threshold are confined to where the false-alarm
#: probability stays inside [PFA_FLOOR, 1 - PFA_FLOOR]; beyond that the
#: operating point is numerically pinned to a corner and the divergence
#: is flat.
PFA_FLOOR = 1e-9

_SQRT2 = math.sqrt(2.0)


def q_function(z: float) -> float:
    """Upper-tail probability of the standard normal, via erfc."""
    return 0.5 * math.erfc(z / _SQRT2)


def _q_array(z: np.ndarray) -> np.ndarray:
    """:func:`q_function` elementwise; agrees with it to a few ulp."""
    return 0.5 * erfc(z / _SQRT2)


def log_q_function(z: float) -> float:
    """``ln Q(z)`` computed in log space; stays finite far into the tail."""
    return float(log_ndtr(-z))


def q_inverse(p: float) -> float:
    """Inverse of :func:`q_function` on (0, 1)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"q_inverse needs 0 < p < 1, got {p!r}")
    return float(-ndtri(p))


@dataclass(frozen=True)
class GaussianSensorModel:
    """Known signal of amplitude ``theta`` in ``N(0, sigma^2)`` noise.

    ``theta > 0`` so that H1 shifts the mean upward and every finite
    threshold lands strictly above the ROC diagonal.
    """

    theta: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta!r}")

    @property
    def snr(self) -> float:
        return self.theta / self.sigma

    def operating_point(self, threshold: float) -> OperatingPoint:
        """Operating point of the quantizer ``u = 1{r >= threshold}``."""
        return OperatingPoint(
            q_function(threshold / self.sigma),
            q_function((threshold - self.theta) / self.sigma),
        )

    def lrt_curve(self, pfa: float) -> float:
        """Detection probability on the LRT boundary at a given ``pfa``."""
        if not (0.0 < pfa < 1.0):
            raise ValueError(f"lrt_curve needs 0 < pfa < 1, got {pfa!r}")
        return q_function(q_inverse(pfa) - self.snr)

    def threshold_bracket(self) -> tuple[float, float]:
        """Threshold interval where pfa spans [PFA_FLOOR, 1 - PFA_FLOOR]."""
        return (
            self.sigma * q_inverse(1.0 - PFA_FLOOR),
            self.sigma * q_inverse(PFA_FLOOR),
        )


def max_channel_divergence(
    model: GaussianSensorModel, channel: BscChannel
) -> tuple[float, float]:
    """Threshold maximizing the post-channel divergence along the LRT curve.

    Returns ``(threshold, divergence)``.  The objective is quasi-concave in
    the threshold for this model; that assumption is validated by a
    pre-scan, and a :class:`UnimodalityError` is raised instead of
    returning a possibly-wrong maximum if it fails.
    """
    lo, hi = model.threshold_bracket()
    theta, sigma, rho = model.theta, model.sigma, channel.crossover

    def objective(threshold: float) -> float:
        return _channel_divergence(theta, sigma, rho, threshold)

    def objective_on_grid(thresholds: np.ndarray) -> np.ndarray:
        return _channel_divergence_array(theta, sigma, rho, thresholds)

    assert_unimodal(objective_on_grid, lo, hi, "post-channel divergence")
    return golden_section_max(objective, lo, hi, tol=1e-10, max_iter=300)


def _channel_divergence(
    theta: float, sigma: float, rho: float, threshold: float
) -> float:
    """``kl_divergence(bsc_transform(model.operating_point(threshold),
    channel))`` on plain floats: the same operations in the same order, so
    the same result bit for bit, without building operating points."""
    x = _bsc(q_function(threshold / sigma), rho)
    y = _bsc(q_function((threshold - theta) / sigma), rho)
    return _kl(x, y)


def _channel_divergence_array(
    theta: float, sigma: float, rho: float, thresholds: np.ndarray
) -> np.ndarray:
    """:func:`_channel_divergence` at every threshold of an array."""
    x = _bsc(_q_array(thresholds / sigma), rho)
    y = _bsc(_q_array((thresholds - theta) / sigma), rho)
    return _kl_array(x, y)
