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
against the exact numbers.  The fusion statistics depend on the bits only
through each sensor's FC and Eve ones-counts, so the simulation draws
those counts from their exact joint law instead of individual bits;
:func:`sample_trial_records` rebuilds bit streams with that law on demand.

Both checks read only each design's operating point and the two channel
crossovers: the observation model and the threshold that reached the
point play no further part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.special import gammaln, log1p, logsumexp, xlogy

from .allocation import AllocationResult, NetworkConfig
from .gaussian import q_inverse
from .roc import OperatingPoint, _llr_weights, _received, kl_divergence

#: Default false-alarm level for the exact miss computations: small enough
#: for the exponent to dominate, large enough to keep the randomized
#: threshold well-conditioned.
DEFAULT_DELTA = 0.01

#: Trials are simulated in fixed-size blocks, each with its own
#: counter-derived substreams (one per sampling stage), so results do not
#: depend on how blocks are scheduled.
_BLOCK_TRIALS = 65536

#: Within a block, trials are drawn in row chunks of at most this many
#: (trial, sensor) cells, which bounds the memory of a large network's
#: block without changing its draws.
_CHUNK_CELLS = 1 << 20

_CAL_STREAM, _H0_STREAM, _H1_STREAM, _RECORD_STREAM = 0, 1, 2, 3

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

    ``local_slope`` tends to the divergence D from below, short of it by
    about ``sqrt(V) * Phi^-1(1 - delta) * (sqrt(2) - 1) / sqrt(T)`` with V
    the H0 variance of the per-bit log-likelihood ratio; at moderate
    windows that shortfall is a sizeable fraction of D.
    """

    window: int
    log_miss: float
    exponent: float
    local_slope: float

    @property
    def miss(self) -> float:
        return math.exp(self.log_miss)


@dataclass(frozen=True)
class TrialRecord:
    """Bit streams of one simulated trial, flattened sensor-major."""

    hypothesis: int
    sensor_bits: tuple[int, ...]
    fc_bits: tuple[int, ...]
    eve_bits: tuple[int, ...]


@dataclass(frozen=True)
class MonteCarloResult:
    """Estimates from the end-to-end pipeline simulation.

    The miss/false-alarm standard errors fold in the uncertainty of the
    simulated threshold calibration (propagated through the likelihood
    ratio at the threshold) on top of the estimation-stream binomial
    error, so they are standard errors with respect to the exact
    fixed-false-alarm operating point.
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


def _binom_logpmf(ks: np.ndarray, window: int, p: float, p_c: float) -> np.ndarray:
    """Binomial(``window``, ``p``) log pmf at the counts ``ks``, in
    scipy.stats.binom.logpmf's operation order (importing scipy.stats would
    dominate the CLI's start-up), except that ln(1 - p) is read from the
    stored complement ``p_c`` where that is the smaller side."""
    log_comb = gammaln(window + 1) - (gammaln(ks + 1) + gammaln(window - ks + 1))
    log_pc = log1p(-p) if p <= p_c else math.log(p_c)
    return log_comb + xlogy(ks, p) + (window - ks) * log_pc


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
    log_accept_lt = logsumexp(lp1[:-1]) if t > 0 else -math.inf
    if gamma < 1.0:
        log_miss = np.logaddexp(log_accept_lt, math.log1p(-gamma) + lp1[-1])
    else:
        log_miss = log_accept_lt
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
    approaches the divergence D(pfa || pd) from below, by about
    ``sqrt(V) * Phi^-1(1 - delta) * (sqrt(2) - 1) / sqrt(window)`` where V
    is the H0 variance of the per-bit log-likelihood ratio
    (:func:`second_order_slope`).
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
    config: NetworkConfig, designs: AllocationResult
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one reader of a designed network: every sensor's design tails
    [pfa, pd, 1 - pfa, 1 - pd] as the rows of a (4, n) array, and its FC
    and Eve crossovers, in site order.  Raises unless each site has one
    design."""
    if len(designs.per_sensor) != len(config.sites):
        raise ValueError(
            f"designs cover {len(designs.per_sensor)} sensors but the config "
            f"has {len(config.sites)}"
        )
    tails = np.array([rec.design.op.tails for rec in designs.per_sensor]).T
    fc_rho, eve_rho = np.array(
        [(site.fc_channel.crossover, site.eve_channel.crossover) for site in config.sites]
    ).T
    return tails, fc_rho, eve_rho


def _symbol_law(
    network: tuple[np.ndarray, np.ndarray, np.ndarray], hypothesis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol law of the received (FC bit, Eve bit) pair at each sensor
    of a :func:`_network_arrays` table.

    Returns ``(ones, zeros)`` of shape (n_sensors, 4): the joint
    probability of each received pair, in the order (1, 1), (1, 0),
    (0, 1), (0, 0), together with a sensor bit of one and of zero.  Their
    sum is the pair's law; ``ones / (ones + zeros)`` is the chance the
    sensor sent a one given what both receivers got.
    """
    (pfa, pd, pfa_c, pd_c), fc_rho, eve_rho = network
    # P(sensor bit 1): each design's detection or false-alarm probability
    p, p_c = (pd, pd_c) if hypothesis == 1 else (pfa, pfa_c)
    fc_keep, eve_keep = 1.0 - fc_rho, 1.0 - eve_rho
    # P(received pair | sensor bit 1), and with the flips swapped for bit 0
    given_one = np.stack(
        [fc_keep * eve_keep, fc_keep * eve_rho, fc_rho * eve_keep, fc_rho * eve_rho],
        axis=1,
    )
    given_zero = given_one[:, ::-1]
    return p[:, None] * given_one, p_c[:, None] * given_zero


def _conditional_shares(law: np.ndarray) -> tuple[np.ndarray, ...]:
    """Chained binomial probabilities of a 4-point law, per sensor:
    P(11), P(10 | not 11) and P(01 | neither 11 nor 10), clipped to [0, 1]
    and 0 where nothing is left to split."""
    shares = []
    for k in range(3):
        rest = law[:, k:].sum(axis=1)
        share = np.divide(law[:, k], rest, out=np.zeros(len(law)), where=rest > 0.0)
        shares.append(np.clip(share, 0.0, 1.0))
    return tuple(shares)


def _simulate_block(
    rngs: Sequence[np.random.Generator],
    shares: tuple[np.ndarray, ...],
    window: int,
    n_trials: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Received-pair counts (n11, n10, n01) of shape (n_trials, n_sensors).

    Over a window the pairs are i.i.d., so the counts are
    Multinomial(window, law), drawn exactly as three chained binomials,
    each from its own generator of ``rngs``.  A generator's draws run
    trial by trial, so drawing a block in consecutive row chunks from the
    same three generators gives the same counts as drawing it whole.
    """
    n11 = rngs[0].binomial(window, shares[0], size=(n_trials, len(shares[0])))
    n10 = rngs[1].binomial(window - n11, shares[1])
    n01 = rngs[2].binomial(window - n11 - n10, shares[2])
    return n11, n10, n01


def _stream_counts(
    seed: int,
    stream: int,
    shares: tuple[np.ndarray, ...],
    window: int,
    count: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The first ``count`` trials of one stream, as ``(n11, n10, n01)``
    row chunks in trial order.

    Trials fall into blocks of ``_BLOCK_TRIALS``, each with its own
    counter-derived generators, so results do not depend on how blocks
    are scheduled; within a block, rows are drawn in chunks of at most
    ``_CHUNK_CELLS`` (trial, sensor) cells to bound memory.
    """
    rows = max(1, min(_BLOCK_TRIALS, _CHUNK_CELLS // len(shares[0])))
    for block_start in range(0, count, _BLOCK_TRIALS):
        block = block_start // _BLOCK_TRIALS
        rngs = [_block_rng(seed, stream, block, stage) for stage in range(3)]
        block_end = min(block_start + _BLOCK_TRIALS, count)
        for start in range(block_start, block_end, rows):
            n_rows = min(rows, block_end - start)
            yield _simulate_block(rngs, shares, window, n_rows)


def _fusion_statistics(
    ones: np.ndarray, w_one: np.ndarray, w_zero: np.ndarray, window: int
) -> np.ndarray:
    """Log-likelihood-ratio sums per trial for (trials, sensors) ones-counts
    over a window."""
    return ones @ w_one + (window - ones) @ w_zero


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
    # the likelihood ratio at the fusion threshold, exp(tau)
    cal_se = math.sqrt(delta * (1.0 - delta) / len(cal))

    def se(p: float, calibration_se: float) -> float:
        estimate_se = math.sqrt(max(p * (1.0 - p), 0.0) / len(h0))
        return math.sqrt(estimate_se**2 + calibration_se**2)

    return fa, miss, se(fa, cal_se), se(miss, math.exp(min(tau, 50.0)) * cal_se)


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
    each sensor's FC and Eve ones-counts, and the received (FC, Eve) pairs
    are i.i.d. over the window, so the counts are drawn exactly from their
    multinomial law (see :func:`_simulate_block`) and no observation is
    materialised.  The fusion thresholds are calibrated to false alarm
    ``delta`` on a separate H0 stream (4x the estimation size by default).
    Identical ``(seed, config)`` give bit-identical results regardless of
    execution layout: trials are partitioned into fixed blocks with
    counter-derived substreams.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    if calibration_trials is None:
        calibration_trials = 4 * trials
    if calibration_trials < 1:
        raise ValueError(
            f"calibration_trials must be positive, got {calibration_trials!r}"
        )
    _check_windows([window], delta)
    network = _network_arrays(config, designs)
    tails, fc_rho, eve_rho = network
    fc_w = _llr_weights(_received(tails, fc_rho))
    eve_w = _llr_weights(_received(tails, eve_rho))

    def collect(stream: int, hypothesis: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        ones, zeros = _symbol_law(network, hypothesis)
        shares = _conditional_shares(ones + zeros)
        fc_stats = np.empty(count)
        eve_stats = np.empty(count)
        done = 0
        for n11, n10, n01 in _stream_counts(seed, stream, shares, window, count):
            rows = slice(done, done + len(n11))
            fc_stats[rows] = _fusion_statistics(n11 + n10, *fc_w, window)
            eve_stats[rows] = _fusion_statistics(n11 + n01, *eve_w, window)
            done += len(n11)
        return fc_stats, eve_stats

    cal_fc, cal_eve = collect(_CAL_STREAM, 0, calibration_trials)
    h0_fc, h0_eve = collect(_H0_STREAM, 0, trials)
    h1_fc, h1_eve = collect(_H1_STREAM, 1, trials)
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


def sample_trial_records(
    config: NetworkConfig,
    designs: AllocationResult,
    hypothesis: int,
    window: int,
    count: int,
    seed: int,
) -> list[TrialRecord]:
    """First ``count`` trials of the estimation stream, as bit records.

    Draws the same counts as :func:`simulate_monte_carlo` (for any
    ``trials >= count``), so each record's FC and Eve ones-counts are
    exactly those behind its estimates.  The bits are rebuilt from the
    counts with their exact law: each sensor's received (FC, Eve) pairs
    are placed at uniformly random positions of the window, and the
    sensor bit behind each pair is drawn from its posterior given the
    pair, both from a substream of their own.
    """
    if hypothesis not in (0, 1):
        raise ValueError(f"hypothesis must be 0 or 1, got {hypothesis!r}")
    if count < 1 or count > _BLOCK_TRIALS:
        raise ValueError(
            f"count must be in [1, {_BLOCK_TRIALS}], got {count!r}"
        )
    stream = _H1_STREAM if hypothesis == 1 else _H0_STREAM
    ones, zeros = _symbol_law(_network_arrays(config, designs), hypothesis)
    law = ones + zeros
    chunks = list(
        _stream_counts(seed, stream, _conditional_shares(law), window, count)
    )
    n11, n10, n01 = (np.concatenate(parts) for parts in zip(*chunks))
    # place each trial's received pairs uniformly over its window, then
    # draw the sensor bit behind each pair from its posterior
    rng = _block_rng(seed, _RECORD_STREAM, stream, 0)
    positions = np.arange(window)
    kinds = (
        (positions >= n11[..., None]).astype(np.intp)
        + (positions >= (n11 + n10)[..., None])
        + (positions >= (n11 + n10 + n01)[..., None])
    )
    kinds = rng.permuted(kinds, axis=2)
    posterior = np.divide(ones, law, out=np.zeros_like(law), where=law > 0.0)
    sensor_of = np.arange(len(law))[None, :, None]
    sensor = rng.random(kinds.shape) < posterior[sensor_of, kinds]
    fc = kinds < 2
    eve = kinds % 2 == 0
    records = []
    for k in range(count):
        records.append(
            TrialRecord(
                hypothesis=hypothesis,
                sensor_bits=tuple(int(b) for b in sensor[k].reshape(-1)),
                fc_bits=tuple(int(b) for b in fc[k].reshape(-1)),
                eve_bits=tuple(int(b) for b in eve[k].reshape(-1)),
            )
        )
    return records
