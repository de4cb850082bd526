"""Shift-in-mean Gaussian observation model and its LRT operating curve.

Each sensor observes either pure noise (H0) or a known amplitude plus noise
(H1), with the noise ``N(0, sigma^2)``.  Thresholding the raw observation is
the likelihood ratio test, and sweeping the threshold traces the best
achievable ROC boundary

    pd = Q(Q^{-1}(pfa) - snr),        snr = theta / sigma.

This is the only observation model: the threshold searches here and in
``solver`` read ``theta`` and ``sigma`` directly, and so does the CLI.
Everything downstream of a design reads only its operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy.special import erfc, log_ndtr, ndtri

from .roc import (BscChannel, OperatingPoint, _kl_partials, _received,
                  received_divergence)
from .search import unimodal_max

#: Threshold searches run from pfa = 1 - PFA_FLOOR up to pd = PFA_FLOOR, so
#: at each edge both coordinates sit within PFA_FLOOR of the same corner:
#: beyond it the operating point is numerically pinned to that corner and
#: the divergence is flat.
PFA_FLOOR = 1e-9

#: A bracket starts no more than TAIL_SIGMAS noise deviations below the
#: signal: there 1 - pd = Q(TAIL_SIGMAS) is still a normal float, and a
#: lower threshold rounds it to 0, where the divergence reads as infinite.
#: This raises the lower edge only where theta / sigma exceeds about 31.
TAIL_SIGMAS = 37.0

_SQRT2 = math.sqrt(2.0)


def q_function(z):
    """Upper-tail probability of the standard normal: a float for a float,
    and elementwise an array for an array."""
    q = _q_tails(z)[0]
    return float(q) if np.ndim(q) == 0 else q


def _q_tails(z):
    """``(Q(z), 1 - Q(z))`` elementwise, each from its own small side: the
    tail beyond ``|z|`` via erfc, and 1 minus it.  The one Q kernel, so a
    design's stored operating point is the point its search scored."""
    small = np.abs(z, out=np.empty(np.shape(z)))
    small /= _SQRT2  # in place down to the halving: fewer fresh temporaries
    erfc(small, out=small)
    small *= 0.5
    big = 1.0 - small
    upper = z >= 0.0
    return np.where(upper, small, big), np.where(upper, big, small)


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
    threshold lands strictly above the ROC diagonal; both are finite.
    """

    theta: float
    sigma: float

    def __post_init__(self) -> None:
        for name, value in (("sigma", self.sigma), ("theta", self.theta)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @property
    def snr(self) -> float:
        return self.theta / self.sigma

    def operating_point(self, threshold: float) -> OperatingPoint:
        """Operating point of the quantizer ``u = 1{r >= threshold}``."""
        return OperatingPoint(*_tails(self.theta, self.sigma, threshold).tolist())

    def lrt_curve(self, pfa: float) -> float:
        """Detection probability on the LRT boundary at a given ``pfa``."""
        if not (0.0 < pfa < 1.0):
            raise ValueError(f"lrt_curve needs 0 < pfa < 1, got {pfa!r}")
        return q_function(q_inverse(pfa) - self.snr)

    def threshold_bracket(self) -> tuple[float, float]:
        """Threshold interval from pfa = 1 - PFA_FLOOR, or from TAIL_SIGMAS
        deviations below the signal if that is higher, to pd = PFA_FLOOR."""
        lo, hi = _threshold_brackets(self.theta, self.sigma)
        return float(lo), float(hi)


def _tails(theta, sigma, thresholds):
    """The tails ``[pfa, pd, 1 - pfa, 1 - pd]`` of each threshold's
    :meth:`GaussianSensorModel.operating_point`, stacked on a first axis."""
    z = np.array([thresholds / sigma, (thresholds - theta) / sigma])
    return np.concatenate(_q_tails(z))


def _threshold_brackets(theta, sigma):
    """:meth:`GaussianSensorModel.threshold_bracket`, elementwise."""
    lo = np.maximum(sigma * q_inverse(1.0 - PFA_FLOOR), theta - TAIL_SIGMAS * sigma)
    return lo, theta + sigma * q_inverse(PFA_FLOOR)


def max_channel_divergence(
    model: GaussianSensorModel, channel: BscChannel
) -> tuple[float, float]:
    """Threshold maximizing the post-channel divergence along the LRT curve.

    Returns ``(threshold, divergence)``.  The objective is quasi-concave in
    the threshold for this model; that assumption is validated by a
    pre-scan, and a :class:`UnimodalityError` is raised instead of
    returning a possibly-wrong maximum if it fails.  A maximum on a lower
    edge raised to TAIL_SIGMAS deviations below the signal, whose true
    peak lies beyond it, raises a ``ValueError`` naming the SNR.
    """
    (threshold,), (divergence,) = _max_channel_divergences(
        [model.theta], [model.sigma], [channel.crossover]
    )
    return float(threshold), float(divergence)


def _max_channel_divergences(theta, sigma, rho) -> tuple[np.ndarray, np.ndarray]:
    """:func:`max_channel_divergence` at every lane ``(theta[i], sigma[i],
    rho[i])``, in one search; returns the arrays of thresholds and
    divergences."""
    theta, sigma, rho = (np.asarray(v, dtype=float)[:, None] for v in (theta, sigma, rho))
    lo, hi = _threshold_brackets(theta[:, 0], sigma[:, 0])

    def objective(thresholds: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        # lanes on one shared grid row share a bracket and so, unless two
        # models round to the same one, a model: its tails are then taken
        # once, and each lane's crossover broadcasts over them
        model = lanes
        if (len(thresholds) < lanes.size and (theta[lanes] == theta[lanes[0]]).all()
                and (sigma[lanes] == sigma[lanes[0]]).all()):
            model = lanes[:1]
        return _channel_divergence(theta[model], sigma[model], rho[lanes], thresholds)

    def slope(t: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        # -(dD/dX + L dD/dY) = dD/dt / (-dX/dt), L = dY/dX on the LRT curve
        th, s = theta[lanes], sigma[lanes]
        d_x, d_y = _kl_partials(_received(_tails(th, s, t), rho[lanes]))
        with np.errstate(all="ignore"):  # L overflows far above the peak
            return -(d_x + np.exp((2.0 * t - th) * th / (2.0 * s * s)) * d_y)

    best, value = unimodal_max(objective, slope, lo, hi, "post-channel divergence")
    raised = lo > sigma[:, 0] * q_inverse(1.0 - PFA_FLOOR)
    on_edge = np.flatnonzero(raised & (best <= lo))
    if on_edge.size:
        i = on_edge[0]
        raise ValueError(
            f"snr {float(theta[i, 0] / sigma[i, 0])!r} is too high: the "
            f"divergence peaks below threshold {float(lo[i])!r}, where 1 - pd "
            "underflows"
        )
    return best, value


def _channel_divergence(theta, sigma, rho, thresholds):
    """``kl_divergence(bsc_transform(model.operating_point(threshold),
    channel))`` elementwise over arrays that broadcast together: the same
    kernels as the dataclass path, without building operating points."""
    return received_divergence(_tails(theta, sigma, thresholds), rho)
