"""Independent log-space reference used to check secquant's outputs.

Nothing here imports secquant.  Divergences are computed from ``log_ndtr``
of both Gaussian tails pushed through the binary symmetric channel in log
space, so they stay exact where the package clamps probabilities at 1e-12.
All divergences are in nats.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtri

#: The package searches thresholds where the false alarm stays in
#: [1e-9, 1 - 1e-9]; the reference optimum is taken over the same interval,
#: so a design pinned to that edge is only a defect when a better design
#: lies inside it.
PFA_FLOOR = 1e-9

#: Thresholds in the dense reference grid.
GRID_POINTS = 40001


def threshold_bracket(sigma: float) -> tuple[float, float]:
    edge = -float(ndtri(PFA_FLOOR))
    return -sigma * edge, sigma * edge


def _kl(lx, l1x, ly, l1y):
    return np.maximum(np.exp(lx) * (lx - ly) + np.exp(l1x) * (l1x - l1y), 0.0)


def divergence_at(thresholds, theta: float, sigma: float, rho) -> np.ndarray:
    """Post-channel divergence of the quantizer ``1{r >= t}``.

    ``rho`` may be a scalar or an array broadcasting against
    ``thresholds`` (one row per channel).  Infinite thresholds are the
    blind corner design and give 0.
    """
    t = np.asarray(thresholds, dtype=float)
    z0, z1 = t / sigma, (t - theta) / sigma
    logs = (log_ndtr(-z0), log_ndtr(z0), log_ndtr(-z1), log_ndtr(z1))
    # P(bit) after the channel is rho + (1 - 2 rho) p, summed in log space;
    # rho = 0 gives log_rho = -inf and leaves the tails untouched
    rho = np.asarray(rho, dtype=float)
    log_rho = np.where(rho > 0.0, np.log(np.where(rho > 0.0, rho, 1.0)), -np.inf)
    log_scale = np.log1p(-2.0 * rho)
    lx, l1x, ly, l1y = (np.logaddexp(log_rho, log_scale + v) for v in logs)
    d = _kl(lx, l1x, ly, l1y)
    return np.where(np.isfinite(t), d, 0.0)


def eve_divergence_of_point(x, y, rho: float) -> np.ndarray:
    """Divergence of a sensor point ``(pfa, pd)`` seen through a channel."""
    xe = rho + (1.0 - 2.0 * rho) * np.asarray(x, dtype=float)
    ye = rho + (1.0 - 2.0 * rho) * np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (np.where(xe > 0, xe * np.log(xe / ye), 0.0)
             + np.where(xe < 1, (1 - xe) * np.log((1 - xe) / (1 - ye)), 0.0))
    return np.maximum(d, 0.0)


class SiteReference:
    """Dense-grid divergences of one site for the FC and Eve channels."""

    def __init__(self, theta: float, sigma: float, rho_fc: float, rho_e: float):
        self.theta, self.sigma = theta, sigma
        self.rho_fc, self.rho_e = rho_fc, rho_e
        lo, hi = threshold_bracket(sigma)
        grid = np.linspace(lo, hi, GRID_POINTS)
        d_fc = divergence_at(grid, theta, sigma, rho_fc)
        d_eve = divergence_at(grid, theta, sigma, rho_e)
        order = np.argsort(d_eve, kind="stable")
        self._eve_sorted = d_eve[order]
        # best d_fc among grid points leaking at most a given amount
        self._best_fc = np.maximum.accumulate(d_fc[order])

    def best_d_fc(self, budgets) -> np.ndarray:
        """Grid optimum of d_fc subject to d_eve <= budget (0 = blind)."""
        idx = np.searchsorted(self._eve_sorted, np.asarray(budgets, float), "right")
        padded = np.concatenate(([0.0], self._best_fc))
        return padded[idx]

    def d_fc(self, thresholds) -> np.ndarray:
        return divergence_at(thresholds, self.theta, self.sigma, self.rho_fc)

    def d_eve(self, thresholds) -> np.ndarray:
        return divergence_at(thresholds, self.theta, self.sigma, self.rho_e)


def network_best_d_fc(theta, sigma, rho_fc, rho_e, budgets) -> np.ndarray:
    """Per-sensor grid optimum of d_fc under d_eve <= budget, for sensors
    that share one observation model (as sampled networks do)."""
    lo, hi = threshold_bracket(sigma)
    grid = np.linspace(lo, hi, 4001)
    d_fc = divergence_at(grid[None, :], theta, sigma, np.asarray(rho_fc)[:, None])
    d_eve = divergence_at(grid[None, :], theta, sigma, np.asarray(rho_e)[:, None])
    feasible = d_eve <= np.asarray(budgets, float)[:, None]
    return np.max(np.where(feasible, d_fc, 0.0), axis=1)


def max_eve_divergence(rho: float) -> float:
    """Largest divergence any sensor point can show through the channel."""
    return float((1.0 - 2.0 * rho) * math.log((1.0 - rho) / rho))


def exact_np_log_miss(x: float, y: float, window: int, delta: float) -> float:
    """ln of the miss of the randomized ones-count test with false alarm
    exactly ``delta`` over ``window`` i.i.d. bits (Bernoulli x vs y)."""
    k = np.arange(window + 1)
    log_binom = gammaln(window + 1) - gammaln(k + 1) - gammaln(window - k + 1)
    lp0 = log_binom + k * math.log(x) + (window - k) * math.log1p(-x)
    lp1 = log_binom + k * math.log(y) + (window - k) * math.log1p(-y)
    tail0 = np.logaddexp.accumulate(lp0[::-1])[::-1]  # ln P(K >= k | H0)
    tail0 = np.append(tail0, -np.inf)
    t = int(np.argmax(tail0 <= math.log(delta))) - 1
    gamma = (delta - math.exp(tail0[t + 1])) / math.exp(lp0[t])
    gamma = min(max(gamma, 0.0), 1.0)
    below = np.logaddexp.reduce(lp1[:t]) if t > 0 else -np.inf
    if gamma >= 1.0:
        return float(below)
    return float(np.logaddexp(below, math.log1p(-gamma) + lp1[t]))
