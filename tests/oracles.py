"""Vectorized reference formulas used as independent test oracles.

Everything here is written directly against numpy/scipy, without the
library under test, so grid scans and brute-force maxima computed from
these functions are independent checks of the package's scalar paths.
"""

import numpy as np
from scipy.special import erfc, log_ndtr, logsumexp, ndtri
from scipy.stats import binom, norm

EPS = 1e-12


def q(z):
    return 0.5 * erfc(np.asarray(z) / np.sqrt(2.0))


def q_inv(p):
    return -ndtri(p)


def kld(x, y):
    x = np.clip(x, EPS, 1.0 - EPS)
    y = np.clip(y, EPS, 1.0 - EPS)
    return x * np.log(x / y) + (1.0 - x) * np.log((1.0 - x) / (1.0 - y))


def log_space_divergence(theta, sigma, rho, thresholds):
    """Post-channel divergence of the quantizer ``1{r >= t}`` in log space:
    ``log_ndtr`` of both Gaussian tails on either side of each threshold,
    pushed through the channel with ``logaddexp``, so a probability within
    1e-16 of 1 keeps its complement (as in ``perfbench/reference.py``).
    Exact where ``kld`` clamps."""
    t = np.asarray(thresholds, dtype=float)
    z0, z1 = t / sigma, (t - theta) / sigma
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore"):
        log_rho = np.log(rho)  # -inf at rho = 0 leaves a tail as it is
    log_scale = np.log1p(-2.0 * rho)
    lx, lxc, ly, lyc = (
        np.logaddexp(log_rho, log_scale + log_ndtr(v)) for v in (-z0, z0, -z1, z1)
    )
    return np.maximum(np.exp(lx) * (lx - ly) + np.exp(lxc) * (lxc - lyc), 0.0)


def count_direction_changes(values, noise_floor):
    """Loop reference for the library's array-based direction count."""
    changes = 0
    last_sign = 0
    for a, b in zip(values, values[1:]):
        step = b - a
        if abs(step) <= noise_floor:
            continue
        sign = 1 if step > 0 else -1
        if last_sign != 0 and sign != last_sign:
            changes += 1
        last_sign = sign
    return changes


def bsc(p, rho):
    return rho + (1.0 - 2.0 * rho) * np.asarray(p)


def lrt_ops(theta, sigma, lams):
    """Operating points along the Gaussian LRT curve at given thresholds."""
    lams = np.asarray(lams)
    return q(lams / sigma), q((lams - theta) / sigma)


def threshold_bracket(theta, sigma, floor=1e-9):
    return sigma * q_inv(1.0 - floor), sigma * q_inv(floor)


def grid_max_channel_divergence(theta, sigma, rho, n=1_000_000):
    """Dense-grid maximum of the post-channel divergence on the LRT curve."""
    lo, hi = threshold_bracket(theta, sigma)
    lams = np.linspace(lo, hi, n)
    x, y = lrt_ops(theta, sigma, lams)
    d = kld(bsc(x, rho), bsc(y, rho))
    i = int(np.argmax(d))
    return lams[i], d[i]


def brute_force_constrained_max(theta, sigma, rho_fc, rho_e, budget, n=100_000):
    """Best feasible fusion-center divergence on the LRT curve.

    Coarse uniform threshold grid followed by a local zoom around the best
    coarse point of every contiguous feasible arc, pushing the
    discretization error well below comparison tolerances while staying a
    pure grid search.
    """
    lo, hi = threshold_bracket(theta, sigma)

    def scan(lams):
        x, y = lrt_ops(theta, sigma, lams)
        d_fc = kld(bsc(x, rho_fc), bsc(y, rho_fc))
        d_e = kld(bsc(x, rho_e), bsc(y, rho_e))
        return np.where(d_e <= budget, d_fc, -np.inf)

    lams = np.linspace(lo, hi, n)
    step = lams[1] - lams[0]
    vals = scan(lams)
    best = float(np.max(vals))
    feasible_idx = np.flatnonzero(np.isfinite(vals))
    if feasible_idx.size == 0:
        return best
    runs = np.split(
        feasible_idx, np.flatnonzero(np.diff(feasible_idx) > 1) + 1
    )
    for run in runs:
        center = lams[run[np.argmax(vals[run])]]
        fine = np.linspace(center - 2 * step, center + 2 * step, 2001)
        fine = fine[(fine >= lo) & (fine <= hi)]
        best = max(best, float(np.max(scan(fine))))
    return best


def trace_y(x, budget, rho, f_tol=5e-15, max_iter=300):
    """High-precision solve of kld(bsc(x), bsc(y)) = budget for y in [x, 1].

    Tighter than the library trace so finite differences of this curve can
    serve as a curvature oracle.
    """

    def f(yy):
        return kld(bsc(x, rho), bsc(yy, rho)) - budget

    if f(1.0) < 0.0:
        return None
    lo, hi = x, 1.0
    f_lo = -budget
    y = 1.0
    for _ in range(max_iter):
        y = 0.5 * (lo + hi)
        val = f(y)
        if abs(val) <= f_tol:
            break
        if (val > 0.0) == (f_lo > 0.0):
            lo, f_lo = y, val
        else:
            hi = y
    return y


def np_log_miss(x, y, window, delta):
    """Exact randomized ones-count test: log miss at false alarm delta.

    Independent of the package: direct binomial summation with its own
    threshold bookkeeping.
    """
    ks = np.arange(window + 1)
    lp0 = binom.logpmf(ks, window, x)
    lp1 = binom.logpmf(ks, window, y)
    tail = np.full(window + 2, -np.inf)
    for k in range(window, -1, -1):
        tail[k] = np.logaddexp(tail[k + 1], lp0[k])
    t = next(c for c in range(window + 1) if tail[c + 1] <= np.log(delta))
    p_gt = float(np.exp(tail[t + 1]))
    p_eq = float(np.exp(lp0[t]))
    gamma = min(max((delta - p_gt) / p_eq, 0.0), 1.0)
    lt = logsumexp(lp1[:t]) if t > 0 else -np.inf
    if gamma < 1.0:
        lt = np.logaddexp(lt, np.log1p(-gamma) + lp1[t])
    # a log probability is at most 0; where the miss is within ~1e-13 of
    # 1 the summed terms' rounding can exceed 1 - miss
    return min(float(lt), 0.0)


def stein_second_order_slope(x, y, window, delta):
    """Second-order prediction of the local slope (ln q_T - ln q_2T)/T.

    Strassen's normal approximation to the Neyman-Pearson miss at false
    alarm delta, ln q_T ~ -T D + sqrt(T V) z with z = Phi^-1(1 - delta),
    D = D(Bern(x) || Bern(y)) and V the variance of the per-bit
    log-likelihood ratio under H0, gives a slope that approaches D from
    below: D - sqrt(V) z (sqrt(2) - 1) / sqrt(T).
    """
    llr = np.array([np.log(x / y), np.log((1.0 - x) / (1.0 - y))])
    law = np.array([x, 1.0 - x])
    d = float(law @ llr)
    v = float(law @ (llr - d) ** 2)
    z = norm.isf(delta)
    return d - np.sqrt(v) * z * (np.sqrt(2.0) - 1.0) / np.sqrt(window)
