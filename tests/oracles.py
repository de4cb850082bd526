"""Vectorized reference formulas used as independent test oracles.

Everything here is written directly against numpy/scipy, without the
library under test, so grid scans and brute-force maxima computed from
these functions are independent checks of the package's scalar paths.
"""

import math

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


def _log1mexp(d):
    """ln(1 - e^d) for d <= 0, accurate on both sides of -ln 2."""
    with np.errstate(divide="ignore"):
        return np.where(d > -np.log(2.0), np.log(-np.expm1(d)), np.log1p(-np.exp(d)))


def _interval_divergences(theta, sigma, rho, edges, lo, hi):
    """Post-channel divergence of ``1{edges[lo] <= r <= edges[hi]}`` for index
    arrays ``lo`` and ``hi``, in log space: each probability inside and
    outside the interval is a difference or sum of Gaussian tails taken on
    the side where both are small (``log_ndtr`` once per edge), so neither
    is read as 1 minus the other; 0 ln 0 = 0."""
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore"):
        log_rho = np.log(rho)
    log_scale = np.log1p(-2.0 * rho)
    tails = []
    for mean in (0.0, theta):
        z = (edges - mean) / sigma
        below, above = log_ndtr(z), log_ndtr(-z)
        upper = z[lo] >= 0.0
        big = np.where(upper, above[lo], below[hi])
        small = np.where(upper, above[hi], below[lo])
        tails += [big + _log1mexp(small - big), np.logaddexp(below[lo], above[hi])]
    lx, lxc, ly, lyc = (np.logaddexp(log_rho, log_scale + v) for v in tails)
    with np.errstate(invalid="ignore"):
        terms = [np.where(a == -np.inf, 0.0, np.exp(a) * (a - b))
                 for a, b in ((lx, ly), (lxc, lyc))]
    return np.maximum(terms[0] + terms[1], 0.0)


def log_space_interval_divergence(theta, sigma, rho, lo, hi):
    """Post-channel divergence of the quantizer ``1{lo <= r <= hi}`` in log
    space, as ``log_space_divergence`` takes it for ``1{r >= t}``: ``lo`` may
    be -inf and ``hi`` +inf, so ``hi = inf`` is that threshold quantizer and
    ``lo = -inf`` its bit flip, which has the same divergence."""
    edges = np.array([lo, hi], dtype=float)
    return float(_interval_divergences(theta, sigma, rho, edges, [0], [1])[0])


def best_interval(theta, sigma, rho_fc, rho_e, budget, n=400):
    """Best FC divergence among the interval quantizers ``1{lo <= r <= hi}``
    whose Eve divergence is at most ``budget``, over every pair lo < hi of an
    ``n``-point edge grid on [min(0, theta) - 8 sigma, max(0, theta) + 8 sigma]
    with -inf and +inf added, so the grid's threshold quantizers (and the
    blind one, lo = -inf and hi = +inf) are among them."""
    edges = np.concatenate((
        [-np.inf],
        np.linspace(min(0.0, theta) - 8.0 * sigma, max(0.0, theta) + 8.0 * sigma, n),
        [np.inf],
    ))
    lo, hi = np.triu_indices(edges.size, k=1)
    d_fc = _interval_divergences(theta, sigma, rho_fc, edges, lo, hi)
    d_eve = _interval_divergences(theta, sigma, rho_e, edges, lo, hi)
    return float(np.max(d_fc[d_eve <= budget]))


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


def log_binom_pmf(ks, window, p):
    """ln of ``binom.pmf`` (Boost's, accurate to a few ulps) where that pmf
    is above 1e-300, and ``binom.logpmf`` only where it underflows: the
    log pmf's own ln Gamma differences lose ~1e-16 of ln Gamma(window),
    2e-11 at window 20 000."""
    pmf = binom.pmf(ks, window, p)
    out = binom.logpmf(ks, window, p)
    kept = pmf > 1e-300
    out[kept] = np.log(pmf[kept])
    return out


def np_log_miss(x, y, window, delta):
    """Exact randomized ones-count test: log miss at false alarm delta.

    Independent of the package: direct binomial summation with its own
    threshold bookkeeping.
    """
    ks = np.arange(window + 1)
    lp0, lp1 = log_binom_pmf(ks, window, x), log_binom_pmf(ks, window, y)
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


def receiver_estimates_by_copy(cal, h0, h1, delta):
    """One receiver's (false alarm, miss, false-alarm SE, miss SE) of the
    randomized test at false alarm ``delta`` on the calibration statistics
    ``cal``, found on a sorted copy and counted by comparison, so that no
    row is changed.  The test rejects above ``tau`` and with probability
    ``gamma`` at it; the miss SE adds the calibration error, scaled by the
    likelihood ratio at the steepest threshold within 3 of those errors."""
    ordered = np.sort(cal)[::-1]
    target = delta * len(cal)
    tau = float(ordered[int(target)])
    count_gt = float(np.count_nonzero(cal > tau))
    count_eq = float(np.count_nonzero(cal == tau))
    gamma = min(max((target - count_gt) / count_eq, 0.0), 1.0)

    def rejection_rate(values):
        return float(np.mean(values > tau)) + gamma * float(np.mean(values == tau))

    fa, miss = rejection_rate(h0), 1.0 - rejection_rate(h1)
    cal_se = math.sqrt(delta * (1.0 - delta) / len(cal))
    steep = float(ordered[max(0, math.floor((delta - 3.0 * cal_se) * len(cal)))])

    def se(p, calibration_se):
        estimate_se = math.sqrt(max(p * (1.0 - p), 0.0) / len(h0))
        return math.sqrt(estimate_se**2 + calibration_se**2)

    return fa, miss, se(fa, cal_se), se(miss, math.exp(min(steep, 50.0)) * cal_se)
