"""Detection-theoretic verification of designed quantizers.

Two independent checks live here.  The first is exact: for a stream of
i.i.d. received bits, the optimal fixed-false-alarm test is a randomized
threshold on the ones-count, and its miss probability follows from the
binomial law; computed in log space, the decay rate of that miss recovers
the per-symbol divergence the designs were optimized for (Stein's lemma).
That is a limit: at a finite window T the rate sits below the divergence D
by about sqrt(V) * Phi^-1(1 - delta) * (sqrt(2) - 1) / sqrt(T) for the
doubling slope, with V the variance of the per-bit log-likelihood ratio
under H0 (Strassen's second-order term), so it approaches D from below
only as 1/sqrt(T).  The second is
empirical: a seeded Monte Carlo of the whole pipeline (quantization,
channel flips, log-likelihood fusion), whose estimates are compared
against the exact numbers.  A receiver's fusion statistic depends on the
bits only through each sensor's ones-count at that receiver, so the
simulation draws, for each sensor and block of trials, the histogram of
those counts from its multinomial law and shuffles it, instead of
individual bits; every estimate reads one receiver only, so the FC's and
Eve's counts are drawn independently of each other.

Both checks read only each design's operating point and the two channel
crossovers: the observation model and the threshold that reached the
point play no further part.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocation import AllocationResult, NetworkConfig
from .gaussian import _LN_SQRT_2PI, q_inverse
from .roc import OperatingPoint, _llr_weights, _received, kl_divergence
from .solver import _site_columns

#: Default false-alarm level for the exact miss computations: small enough
#: for the exponent to dominate, large enough to keep the randomized
#: threshold well-conditioned.
DEFAULT_DELTA = 0.01

#: Trials are simulated in fixed-size blocks, each with its own
#: counter-derived generator per receiver, so results do not depend on how
#: blocks are scheduled.  No draw holds more than one block of cells.
_BLOCK_TRIALS = 65536

_CAL_STREAM, _H0_STREAM, _H1_STREAM = 0, 1, 2

#: The exact miss sums each binomial law over a band of counts and drops
#: less than exp(-_DROP_LOG) = 2**-60 of what it keeps (see
#: :func:`_np_components`).
_DROP_LOG = 60.0 * math.log(2.0)


@dataclass(frozen=True)
class ExponentCurvePoint:
    """Exact miss of the best fixed-false-alarm test over one window.

    ``log_miss`` is ``ln q_T`` (miss probabilities are only ever carried
    in log space); ``exponent`` is ``-ln(q_T)/T`` and ``local_slope`` the
    discrete rate ``(ln q_T - ln q_{2T})/T``, both in nats per symbol.

    ``local_slope`` tends to the divergence D from below, as
    :func:`second_order_slope` predicts; at moderate windows the shortfall
    is a sizeable fraction of D.
    """

    window: int
    log_miss: float
    exponent: float
    local_slope: float

    @property
    def miss(self) -> float:
        return math.exp(self.log_miss)


@dataclass(frozen=True)
class MonteCarloResult:
    """Estimates from the end-to-end pipeline simulation.

    The standard errors add the calibrated threshold's error to the
    binomial error, scaled for the miss by the steepest likelihood ratio
    within three calibration errors of the threshold (one sensor, window
    20: FC miss z-scores of sd 0.87 over 100 seeds, Eve's 0.90).
    """

    fc_fa_estimate: float
    fc_miss_estimate: float
    eve_fa_estimate: float
    eve_miss_estimate: float
    fc_fa_se: float
    fc_miss_se: float
    eve_fa_se: float
    eve_miss_se: float
    delta: float
    window: int
    trials: int
    calibration_trials: int
    seed: int


def _check_windows(windows: Sequence[int], delta: float) -> None:
    """Raise unless the windows ascend strictly from at least 1 and ``delta``
    lies in (0, 0.5)."""
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError("windows must be strictly ascending")
    if windows and windows[0] < 1:
        raise ValueError(f"window must be at least 1, got {windows[0]!r}")
    if not (0.0 < delta < 0.5):
        raise ValueError(f"delta must lie in (0, 0.5), got {delta!r}")


def _validate_interior_op(op: OperatingPoint) -> None:
    x, y = op.pfa, op.pd
    if not min(op.tails) > 0.0:
        raise ValueError(
            f"exact test needs an operating point strictly inside the unit "
            f"square, got ({x!r}, {y!r})"
        )
    if not y >= x:
        raise ValueError(
            f"counting test is one-sided; needs pd >= pfa, got ({x!r}, {y!r})"
        )


#: Stirling's error s(m) = ln m! - ln(sqrt(2 pi m) (m/e)**m), m = 0 .. 15
#: (s(0) unread), 50-digit values rounded to nearest.
_STIRLING_ERROR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])


def _stirling_error(m: np.ndarray) -> np.ndarray:
    """s(m) at whole floats ``m >= 1``: the table below 16, else 1/(12m) -
    1/(360m**3) + 1/(1260m**5) - 1/(1680m**7) + 1/(1188m**9) (to 1e-16),
    summed in place, as it runs on every count of every band."""
    r = 1.0 / m
    r2 = r * r
    s = np.full(m.shape, 1 / 1188)
    for c in (-1 / 1680, 1 / 1260, -1 / 360, 1 / 12):
        s *= r2
        s += c
    s *= r
    small = m < 16
    s[small] = _STIRLING_ERROR[m[small].astype(int)]
    return s


def _bd0(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """x ln(x/mean) + mean - x at counts ``x > 0``; where it cancels, |v| <
    0.1 for v = (x - mean)/(x + mean), the series (x - mean) v + 2x v**3/3 +
    ... + 2x v**19/19 (to 1e-19 relative), with 2x v = (x - mean)(1 + v)."""
    out = np.empty(x.shape)
    d = x - mean
    v = d / (x + mean)
    near = np.abs(v) < 0.1
    far = ~near
    out[far] = x[far] * np.log(x[far] / mean[far]) - d[far]
    d, v = d[near], v[near]
    v2 = v * v
    series = v2 * (1 / 19)
    for odd in range(17, 1, -2):
        series += 1 / odd
        series *= v2
    dv = d * v
    out[near] = dv + (d + dv) * series
    return out


def _logsumexp(a: np.ndarray) -> float:
    """ln(sum(exp(a))) as ln(1 + sum exp(a - max) / m) + ln(m) + max, for
    the m terms equal to the max: a sum near 1 keeps its small terms."""
    top = a.max()
    ties = a == top
    terms = np.exp(a - top)
    terms[ties] = 0.0
    m = float(np.count_nonzero(ties))
    return float(np.log1p(terms.sum() / m) + np.log(m) + top)


def _binom_logpmf(ks: np.ndarray, window: int, p: float, p_c: float) -> np.ndarray:
    """Binomial(``window``, ``p``) log pmf at the counts ``ks``, 1 - p read
    as ``p_c``, in Loader's (2000) form (R's ``dbinom``): at 0 < k < n =
    ``window`` it is f(n, n) - f(k, n p) - f(n - k, n p_c) - ln sqrt(2 pi),
    where f(m, mean) = s(m) + bd0(m, mean) + ln(m)/2 is ln sqrt(2 pi) less
    than -ln Poisson(m; mean).  No term grows with n.  The ends are n ln(1 -
    p) and n ln p, each log taken through the smaller of p and ``p_c``."""
    log_p = math.log1p(-p_c) if p_c < p else math.log(p)
    log_q = math.log1p(-p) if p <= p_c else math.log(p_c)
    out = np.where(ks == 0, window * log_q, window * log_p)
    inner = (ks > 0) & (ks < window)
    k = ks[inner].astype(float)
    # f at n, k and n - k in one pass; bd0(n, n) = 0
    m = np.concatenate(([window], k, window - k))
    means = np.repeat((window, window * p, window * p_c), (1, k.size, k.size))
    f = _stirling_error(m) + _bd0(m, means) + 0.5 * np.log(m)
    out[inner] = (f[0] - _LN_SQRT_2PI) - f[1 : 1 + k.size] - f[1 + k.size :]
    return out


def _np_components(
    op: OperatingPoint, window: int, delta: float
) -> tuple[float, int, float]:
    """Log miss, count threshold, and randomization weight of the optimal
    ones-count test with false alarm exactly ``delta`` on bits of law ``op``.

    The test rejects H0 when the ones-count exceeds ``t`` and with
    probability ``gamma`` when it equals ``t``.  The log miss is capped at
    0, which the summed terms' rounding can pass when 1 - miss is tiny.

    Each law is summed only over a band of O(sqrt(window)) counts, and
    every sum drops less than 2**-60 of what it keeps, below what a
    float64 sum resolves:

    - H0 on ``window*x +- s``: by Hoeffding, P(|K - window*x| >= s) <=
      2 exp(-2 s**2 / window), and ``s`` makes each side at most
      ``delta * 2**-61``.  So ``t`` lies in the band (more than ``delta``
      of the mass lies at or above its lower edge), and the mass above
      it is under 2**-61 of P(K >= t) > delta.
    - H1 on ``[peak - reach, t]``, with ``peak`` the count of the largest
      term below ``t``.  The binomial log pmf is concave, its steps falling by at
      least 4/(window + 2) per count, so the term ``j`` counts below
      ``peak`` is at most exp(-2 j (j - 1) / (window + 2)) of it, and the
      terms beyond ``reach`` sum to at most exp(-2 reach**2 /
      (window + 2)) * (window + 4)/2 of it, which ``reach`` holds to
      2**-60.
    """
    x, y, xc, yc = op.tails.tolist()
    s = math.sqrt(0.5 * window * (_DROP_LOG + math.log(2.0 / delta)))
    lo = max(0, math.floor(window * x - s))
    lp0 = _binom_logpmf(
        np.arange(lo, min(window, math.ceil(window * x + s)) + 1), window, x, xc
    )
    # tail[i] = ln P(lo + i <= K <= band top | H0); tail[-1] = -inf
    tail = np.append(np.logaddexp.accumulate(lp0[::-1])[::-1], -np.inf)
    # smallest t with P(K > t | H0) <= delta; tail is nonincreasing
    i = int(np.argmax(tail <= math.log(delta))) - 1
    t = lo + i
    p_gt = math.exp(tail[i + 1])
    p_eq = math.exp(lp0[i])
    gamma = min(max((delta - p_gt) / p_eq, 0.0), 1.0)
    # the H1 pmf rises up to its mode floor((window + 1) * y)
    peak = min(t - 1, math.floor((window + 1) * y))
    reach = math.ceil(
        math.sqrt(0.5 * (window + 2) * (_DROP_LOG + math.log(0.5 * (window + 4))))
    )
    lp1 = _binom_logpmf(np.arange(max(0, peak - reach), t + 1), window, y, yc)
    # the H1 mass accepted below t, then (1 - gamma) of that at t
    log_miss = _logsumexp(lp1[:-1]) if t > 0 else -math.inf
    if gamma < 1.0:
        log_miss = np.logaddexp(log_miss, math.log1p(-gamma) + lp1[-1])
    return min(float(log_miss), 0.0), t, gamma


def exact_np_miss(
    fc_op: OperatingPoint, window: int, delta: float = DEFAULT_DELTA
) -> ExponentCurvePoint:
    """Exact miss of the best test over ``window`` i.i.d. received bits.

    The per-bit law is Bernoulli(``fc_op.pfa``) under H0 and
    Bernoulli(``fc_op.pd``) under H1; the randomized ones-count threshold
    achieves false alarm exactly ``delta``, and the miss is summed from
    the binomial law entirely in log space.  Each law is summed over a
    band of O(sqrt(window * ln(1/delta))) counts only (Hoeffding's bound
    places the H0 band, log-concavity the H1 band; see
    :func:`_np_components`), which drops less than 2**-60 of every sum, so
    the cost grows as sqrt(window) and windows of millions stay cheap.
    ``local_slope`` additionally evaluates the window doubled; it
    approaches the divergence D(pfa || pd) from below, as
    :func:`second_order_slope` predicts.
    """
    return stein_curve(fc_op, [window], delta)[0]


def stein_curve(
    fc_op: OperatingPoint,
    windows: Sequence[int],
    delta: float = DEFAULT_DELTA,
) -> list[ExponentCurvePoint]:
    """:func:`exact_np_miss` over an ascending sequence of windows.

    Each distinct window, given or doubled, is summed once, so a window
    that is twice another costs nothing extra.
    """
    windows = list(windows)
    _check_windows(windows, delta)
    if not windows:
        return []
    _validate_interior_op(fc_op)
    distinct = {*windows, *(2 * w for w in windows)}
    log_miss = {w: _np_components(fc_op, w, delta)[0] for w in distinct}
    return [
        ExponentCurvePoint(
            w, log_miss[w], -log_miss[w] / w, (log_miss[w] - log_miss[2 * w]) / w
        )
        for w in windows
    ]


def second_order_slope(
    fc_op: OperatingPoint, window: int, delta: float = DEFAULT_DELTA
) -> float:
    """Strassen's second-order value of ``local_slope`` at ``window``.

    That is ``D - sqrt(V) * Q^-1(delta) * (sqrt(2) - 1) / sqrt(window)``,
    with D the divergence of the received point ``fc_op`` and V the H0
    variance of its per-bit log-likelihood ratio; the exact slope of
    :func:`stein_curve` differs from it by O(1/window).
    """
    _check_windows([window], delta)
    _validate_interior_op(fc_op)
    w_one, w_zero = _llr_weights(fc_op.tails)
    sd = math.sqrt(fc_op.pfa * fc_op.pfa_c) * abs(w_one - w_zero)
    backoff = sd * q_inverse(delta) * (math.sqrt(2.0) - 1.0)
    return kl_divergence(fc_op) - float(backoff) / math.sqrt(window)


def _block_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=key)
    )


def _network_arrays(
    config: NetworkConfig, result: AllocationResult
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one reader of a designed network: its design table's tails
    [pfa, pd, 1 - pfa, 1 - pd] as the rows of a (4, n) array, and every
    sensor's FC and Eve crossovers, in site order.  Raises unless each site
    has one design."""
    tails = result.designs.tails
    if tails.shape[1] != len(config.sites):
        raise ValueError(
            f"designs cover {tails.shape[1]} sensors but the config "
            f"has {len(config.sites)}"
        )
    _, _, fc_rho, eve_rho = _site_columns(config.sites)
    return tails, fc_rho, eve_rho


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_sums(counts, window, one, zero, where=True):
    """``counts * one + (window - counts) * zero``, a bit value never received
    weighing nothing even where its weight is infinite (0 * inf = 0, as
    :func:`roc._llr_weights` states); the first term only where ``where``."""
    rest = window - counts
    np.multiply(rest, zero, out=rest, where=rest > 0)
    first = np.multiply(counts, one, out=np.zeros(counts.shape), where=counts > 0)
    return np.add(first, rest, out=rest, where=where)


def _count_laws(
    received: np.ndarray, weights: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every sensor's ones-count law at one receiver with its (4, n) tails
    ``received`` and LLR weights ``weights``: each law's first count ``lo``,
    its pmf on ``lo .. lo + width - 1`` and those counts' fused statistics,
    as (hypothesis, sensor, count) arrays.  The band holds the counts within
    ``s`` of ``window * p``, which leave out less than 2**-60 of the mass
    (Hoeffding, as in :func:`_np_components`).  The pmf is only a sampling
    weight, normalised per law.  A count of probability 0 keeps only its
    zeros' term, so that no infinite weights of opposite signs meet."""
    s = math.sqrt(0.5 * window * (_DROP_LOG + math.log(2.0)))
    width = min(window + 1, int(2.0 * s) + 3)
    lo = np.clip(np.floor(window * received[:2] - s), 0, window + 1 - width)
    counts = lo[..., None] + np.arange(width)
    # ln C(window, k) up to a constant per law: ln((window - j + 1)/j) summed
    # over the counts j from lo, where lo's own term is that constant
    log_pmf = (window + 1.0 - counts) / np.maximum(counts, 1.0)
    np.cumsum(np.log(log_pmf, out=log_pmf), axis=-1, out=log_pmf)
    logs = np.log(received, out=np.full(received.shape, -np.inf), where=received > 0)
    log_pmf += _count_sums(counts, window, logs[:2, :, None], logs[2:, :, None])
    log_pmf -= log_pmf.max(axis=-1, keepdims=True)
    pmf = np.exp(log_pmf, out=log_pmf)
    pmf /= pmf.sum(axis=-1, keepdims=True)
    return lo, pmf, _count_sums(counts, window, *weights[..., None], where=pmf > 0)


def _fuse_block(
    seed: int,
    stream: int,
    block: int,
    receiver: int,
    pmf: np.ndarray,
    table: np.ndarray,
    out: np.ndarray,
) -> None:
    """Draw one receiver's block of a stream and write its fused statistics
    to ``out``, the block's zeroed row of them, from each sensor's count law
    ``pmf`` and statistics ``table`` (see :func:`_count_laws`).

    One multinomial call draws, for every sensor, how many trials take
    each count; sensor by sensor, that histogram, expanded into statistics
    and shuffled, is added to ``out``.  That is exact in law: given the
    histogram of i.i.d. counts, every order is equally likely.  Sensor 0 is
    not shuffled, as the rest are shuffled against it and every estimate
    is symmetric in the trials.  Calls only private helpers, so that it can
    run on a worker thread.
    """
    rng = _block_rng(seed, stream, block, receiver)
    for i, (histogram, values) in enumerate(zip(rng.multinomial(len(out), pmf), table)):
        drawn = np.repeat(values, histogram)
        if i:
            rng.shuffle(drawn)
        out += drawn


def _receiver_estimates(
    cal: np.ndarray, h0: np.ndarray, h1: np.ndarray, delta: float
) -> tuple[float, float, float, float]:
    """False alarm, miss and their standard errors of one receiver's fused
    test on its H0 and H1 statistics ``h0`` and ``h1``.

    The test rejects when the statistic exceeds ``tau``, and with
    probability ``gamma`` at ``tau`` itself; ``(tau, gamma)`` give false
    alarm exactly ``delta`` on the calibration statistics ``cal``.
    """
    ordered = np.sort(cal)[::-1]
    target = delta * len(cal)
    tau = float(ordered[int(target)])
    count_gt = float(np.count_nonzero(cal > tau))
    count_eq = float(np.count_nonzero(cal == tau))
    gamma = min(max((target - count_gt) / count_eq, 0.0), 1.0)

    def rejection_rate(values: np.ndarray) -> float:
        return float(np.mean(values > tau)) + gamma * float(np.mean(values == tau))

    fa, miss = rejection_rate(h0), 1.0 - rejection_rate(h1)
    # calibration noise: the test's true false alarm deviates from delta
    # by ~ sqrt(delta(1-delta)/M); the induced miss deviation scales by
    # the likelihood ratio at the threshold, taken at its steepest within
    # 3 of those errors below delta (tau itself can land a count low)
    cal_se = math.sqrt(delta * (1.0 - delta) / len(cal))
    steep = float(ordered[max(0, math.floor((delta - 3.0 * cal_se) * len(cal)))])

    def se(p: float, calibration_se: float) -> float:
        estimate_se = math.sqrt(max(p * (1.0 - p), 0.0) / len(h0))
        return math.sqrt(estimate_se**2 + calibration_se**2)

    return fa, miss, se(fa, cal_se), se(miss, math.exp(min(steep, 50.0)) * cal_se)


def simulate_monte_carlo(
    config: NetworkConfig,
    designs: AllocationResult,
    window: int,
    trials: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
    calibration_trials: int | None = None,
) -> MonteCarloResult:
    """Simulate the sensing-quantize-transmit-fuse pipeline end to end.

    Every trial sends ``window`` symbols per sensor under each
    hypothesis: a bit that is one with the design's detection (H1) or
    false-alarm (H0) probability, flipped through the FC and Eve channels
    independently, and each receiver's bits fused with their
    log-likelihood-ratio sum.  That sum depends on the bits only through
    each sensor's ones-count at that receiver, which over the window is
    Binomial(``window``, P(received one)), so each receiver's counts are
    drawn from that law (see :func:`_fuse_block`) and no observation is
    materialised.  Every estimate reads one receiver's statistics only, so
    nothing depends on how the FC's and Eve's counts covary through the
    shared sensor bits, and each receiver is drawn from its own
    generators.  The fusion thresholds are calibrated to false alarm
    ``delta`` on a separate H0 stream (4x the estimation size by default).

    Trials are partitioned into fixed blocks, and the (stream, block,
    receiver) units, each with its own counter-derived generator, run on
    a thread pool with one worker per usable CPU: NumPy's ``multinomial``
    and ``shuffle`` do the work, and ``shuffle`` releases the GIL.  A unit
    expands one sensor at a time, at most one block of cells.  Each unit
    writes disjoint rows of its stream's statistics, so identical ``(seed,
    config)`` give bit-identical results for any worker count or schedule.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    if calibration_trials is None:
        calibration_trials = 4 * trials
    if calibration_trials < 1:
        raise ValueError(
            f"calibration_trials must be positive, got {calibration_trials!r}"
        )
    _check_windows([window], delta)
    tails, fc_rho, eve_rho = _network_arrays(config, designs)
    laws = [
        _count_laws(points, _llr_weights(points), window)[1:]
        for points in (_received(tails, rho) for rho in (fc_rho, eve_rho))
    ]
    # (stream, hypothesis, count): calibration, H0 and H1 estimation
    streams = (
        (_CAL_STREAM, 0, calibration_trials),
        (_H0_STREAM, 0, trials),
        (_H1_STREAM, 1, trials),
    )
    stats = [np.zeros((2, count)) for _, _, count in streams]
    units = [
        (stream, block, receiver, *(law[hypothesis] for law in laws[receiver]),
         out[receiver, start : start + _BLOCK_TRIALS])
        for (stream, hypothesis, count), out in zip(streams, stats)
        for block, start in enumerate(range(0, count, _BLOCK_TRIALS))
        for receiver in (0, 1)
    ]
    workers = min(_usable_cpus(), len(units))

    def run(unit: tuple) -> None:
        _fuse_block(seed, *unit)

    # imported here, off the CLI's start-up path
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # iterating map re-raises a unit's exception and cancels the units
        # not yet started
        for _ in pool.map(run, units):
            pass
    (cal_fc, cal_eve), (h0_fc, h0_eve), (h1_fc, h1_eve) = stats
    fc_fa, fc_miss, fc_fa_se, fc_miss_se = _receiver_estimates(
        cal_fc, h0_fc, h1_fc, delta
    )
    eve_fa, eve_miss, eve_fa_se, eve_miss_se = _receiver_estimates(
        cal_eve, h0_eve, h1_eve, delta
    )
    return MonteCarloResult(
        fc_fa_estimate=fc_fa,
        fc_miss_estimate=fc_miss,
        eve_fa_estimate=eve_fa,
        eve_miss_estimate=eve_miss,
        fc_fa_se=fc_fa_se,
        fc_miss_se=fc_miss_se,
        eve_fa_se=eve_fa_se,
        eve_miss_se=eve_miss_se,
        delta=delta,
        window=window,
        trials=trials,
        calibration_trials=calibration_trials,
        seed=seed,
    )
