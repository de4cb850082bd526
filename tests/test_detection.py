"""Exact fixed-false-alarm miss computation and the Monte Carlo pipeline."""

import dataclasses
import functools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from secquant import (
    AllocationResult,
    BscChannel,
    GaussianSensorModel,
    NetworkConfig,
    OperatingPoint,
    SensorSite,
    allocate,
    bsc_transform,
    exact_np_miss,
    kl_divergence,
    sample_sites,
    second_order_slope,
    simulate_monte_carlo,
    stein_curve,
    unconstrained_design,
)
from secquant import detection
from secquant.detection import (
    _CAL_STREAM,
    _H0_STREAM,
    _H1_STREAM,
    _BLOCK_TRIALS,
    _binom_logpmf,
    _count_laws,
    _fuse_block,
    _llr_weights,
    _network_arrays,
    _np_components,
)
from secquant.roc import _received
from secquant.solver import _designs_at, _site_columns

import oracles


class TestExactMissSingleSymbol:
    def test_plain_threshold(self):
        point = exact_np_miss(OperatingPoint(0.3, 0.7), window=1, delta=0.3)
        assert point.miss == pytest.approx(0.3, abs=1e-15)

    def test_randomized_threshold(self):
        point = exact_np_miss(OperatingPoint(0.3, 0.7), window=1, delta=0.15)
        assert point.miss == pytest.approx(0.65, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_np_miss(OperatingPoint(0.7, 0.3), 10, 0.1)
        with pytest.raises(ValueError):
            exact_np_miss(OperatingPoint(0.0, 0.7), 10, 0.1)
        with pytest.raises(ValueError):
            exact_np_miss(OperatingPoint(0.3, 0.7), 0, 0.1)
        with pytest.raises(ValueError):
            exact_np_miss(OperatingPoint(0.3, 0.7), 10, 0.6)


class TestFalseAlarmExactness:
    def test_randomization_pins_false_alarm(self):
        # the H0 band spans the whole support at small windows; at 20 000
        # it is cut to window*x +- O(sqrt(window)), clipped at 0 for
        # x = 1e-3 and at the window for x = 0.999
        points = [(0.3, 0.7, w) for w in (1, 7, 50, 200)]
        points += [(1e-3, 0.2, 20_000), (0.999, 0.9999, 20_000)]
        for x, y, window in points:
            # binom.pmf, not exp(binom.logpmf): at window 20 000
            # gammaln(20 001) ~ 1.8e5 leaves the log pmf ~2e-11 off
            pmf = binom.pmf(np.arange(window + 1), window, x)
            for delta in (0.01, 0.05, 0.3, 1e-30):
                _, t, gamma = _np_components(OperatingPoint(x, y), window, delta)
                fa = float(pmf[t + 1 :].sum() + gamma * pmf[t])
                assert math.log(fa) == pytest.approx(math.log(delta), abs=1e-12)


def full_support_threshold(x, y, window, delta):
    """``t`` and ``gamma`` of the ones-count test from the H0 tail at
    every count of the support, summed from the top, with the log pmf the
    kernel sums on its band."""
    lp0 = _binom_logpmf(np.arange(window + 1), window, x, 1.0 - x)
    tail = np.append(np.logaddexp.accumulate(lp0[::-1])[::-1], -np.inf)
    t = int(np.argmax(tail <= math.log(delta))) - 1
    gamma = (delta - math.exp(tail[t + 1])) / math.exp(lp0[t])
    return t, min(max(gamma, 0.0), 1.0)


@st.composite
def kernel_cases(draw):
    unit = st.floats(1e-12, 1.0 - 1e-12)
    x, y = sorted((draw(unit), draw(unit)))
    window = draw(st.integers(1, 20_000))
    delta = math.exp(draw(st.floats(math.log(1e-100), math.log(0.49))))
    return x, y, window, delta


class TestBandedKernel:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    @example((0.9626, 1.0 - 1e-12, 20_000, 0.01))
    @example((1e-9, 0.5, 20_000, 0.01))
    @example((0.3, 0.3, 5_000, 1e-100))
    @example((0.3, 0.7, 100_000, 1e-100))
    # ln(1 - delta) = -0.45867514538708191068 (50 digits); a log pmf from
    # ln Gamma differences missed it by 5.6e-13
    @example((0.5, 0.5, 402, math.exp(-1.0)))
    @example((0.42271690694559183, 0.42271690694559183, 788, 4.2084745598565934e-9))
    # the end count's ln(1 - x) must come from log1p(-x), not ln of the
    # rounded complement, which misses by about 5e-14
    @example((1e-12, 1e-12, 2212, math.exp(-3.0)))
    # no interior count: every term is an end
    @example((0.3, 0.7, 1, 0.15))
    def test_matches_full_support_and_oracle(self, case):
        x, y, window, delta = case
        log_miss, t, gamma = _np_components(OperatingPoint(x, y), window, delta)
        assert (t, gamma) == full_support_threshold(x, y, window, delta)
        # 1e-12 relative wherever |log_miss| >= 0.01; a miss within 1e-2 of
        # 1 is a sum near 1 whose log float64 resolves only to ~1e-16 per
        # term, so both sums agree there to an absolute 1e-14
        want = oracles.np_log_miss(x, y, window, delta)
        assert log_miss == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestLargeWindowLogPmf:
    @pytest.mark.parametrize("p, window, ks, want", [
        # ln b(k; window, p) from 50-digit mpmath with the float p taken
        # exactly, rounded to 17 digits: 3 sd below the mean, the mean,
        # 3 sd above it, and the end whose log comes from log1p
        (0.3, 10_000, [2863, 3000, 3137, 0],
         [-9.2390210156277829, -4.7438161942666709, -9.1873427327685441,
          -3566.7494393873236]),
        (0.3, 100_000, [29565, 30000, 30435, 0],
         [-10.408795672789855, -5.8950805264780876, -10.392193664707307,
          -35667.494393873236]),
        (0.3, 1_000_000, [298625, 300000, 301375, 0],
         [-11.550484393532005, -7.0463702515465391, -11.545243668890666,
          -356674.94393873236]),
        (0.9626, 10_000, [9569, 9626, 9683, 10_000],
         [-8.2375920405168250, -3.8622309109774476, -8.5337500160549886,
          -381.17322113128047]),
        (0.9626, 100_000, [96080, 96260, 96440, 100_000],
         [-9.4679741028007731, -5.0133226313698616, -9.5605477566804909,
          -3811.7322113128047]),
        (0.9626, 1_000_000, [962031, 962600, 963169, 1_000_000],
         [-10.646622979262680, -6.1645950952511720, -10.675836644901099,
          -38117.322113128047]),
    ])
    def test_matches_high_precision_values(self, p, window, ks, want):
        got = _binom_logpmf(np.array(ks), window, p, 1.0 - p)
        for value, exact in zip(got, want):
            # an end, n ln p, is a float of size ~n whose ulp passes 1e-12
            # from window 1e5 on
            assert abs(value - exact) <= max(1e-12, 2.0 * math.ulp(exact))


class TestMissNeverExceedsOne:
    @pytest.mark.parametrize(
        "x, y, window, delta",
        [(0.9966, 0.9966, 170, 1.3e-26), (0.9225, 0.9722, 134, 1e-68)],
    )
    def test_log_miss_is_at_most_zero(self, x, y, window, delta):
        # the miss is within ~1e-13 of 1, below the summed terms' rounding
        point = exact_np_miss(OperatingPoint(x, y), window, delta)
        assert point.log_miss <= 0.0
        assert point.exponent >= 0.0


class TestAgainstIndependentSummation:
    def test_matches_oracle_log_miss(self):
        for x, y in ((0.3, 0.7), (0.4184, 0.7864), (0.1, 0.55)):
            for window in (5, 40, 133, 400):
                got = exact_np_miss(OperatingPoint(x, y), window, 0.01)
                want = oracles.np_log_miss(x, y, window, 0.01)
                assert got.log_miss == pytest.approx(want, rel=1e-12)

    def test_deep_windows_stay_representable(self):
        point = exact_np_miss(OperatingPoint(0.3, 0.7), window=10_000, delta=0.01)
        assert math.isfinite(point.log_miss)
        assert point.log_miss < -3000.0
        # the sqrt(V/T) backoff still costs ~5% at this window
        assert point.exponent == pytest.approx(
            kl_divergence(OperatingPoint(0.3, 0.7)), rel=0.08
        )


class TestSecondOrderSlope:
    @pytest.mark.parametrize(
        "x, y", [(0.3, 0.7), (0.1, 0.55), (0.02, 0.9999), (1e-9, 0.5)]
    )
    @pytest.mark.parametrize("window", [50, 400, 4_000_000])
    def test_matches_oracle(self, x, y, window):
        got = second_order_slope(OperatingPoint(x, y), window, 0.01)
        want = oracles.stein_second_order_slope(x, y, window, 0.01)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "window, delta, message",
        [(0, 0.01, "window must be at least 1"),
         (-5, 0.01, "window must be at least 1"),
         (50, 0.7, r"delta must lie in \(0, 0\.5\)")],
    )
    def test_rejects_what_stein_curve_rejects(self, window, delta, message):
        op = OperatingPoint(0.3, 0.7)
        for call in (second_order_slope, lambda *a: stein_curve(a[0], [a[1]], a[2])):
            with pytest.raises(ValueError, match=message):
                call(op, window, delta)

    def test_deep_window_slope_meets_the_prediction(self):
        # windows 4e6 and 8e6: the full support would be 12e6 counts
        op = OperatingPoint(0.3, 0.7)
        point = exact_np_miss(op, window=4_000_000, delta=0.01)
        assert math.isfinite(point.log_miss)
        assert point.log_miss < -1.3e6
        # the remaining gap is O(1/window): ~2e-7 of D here
        predicted = second_order_slope(op, 4_000_000, 0.01)
        assert abs(point.local_slope - predicted) <= 1e-5 * kl_divergence(op)


class TestExponentConvergence:
    def test_exponent_sequence_nondecreasing(self):
        points = stein_curve(OperatingPoint(0.3, 0.7), [50, 100, 200, 400], 0.01)
        exps = [p.exponent for p in points]
        assert all(b >= a - 1e-6 for a, b in zip(exps, exps[1:]))

    def test_local_slopes_approach_divergence(self):
        target = kl_divergence(OperatingPoint(0.3, 0.7))
        points = stein_curve(OperatingPoint(0.3, 0.7), [50, 100, 200, 400], 0.01)
        slopes = [p.local_slope for p in points]
        assert all(b >= a for a, b in zip(slopes, slopes[1:]))
        # frozen from the binomial oracle: the window-400 slope reaches
        # ~0.8932 of the divergence, inside the 15% band
        assert slopes[-1] == pytest.approx(0.302714, abs=1e-5)
        assert abs(slopes[-1] - target) / target < 0.15

    def test_diagonal_point_has_no_information(self):
        points = stein_curve(OperatingPoint(0.4, 0.4), [50, 100], 0.01)
        for p in points:
            assert p.exponent == pytest.approx(0.0, abs=1e-3)
            assert p.miss == pytest.approx(0.99, abs=1e-12)

    def test_delta_insensitivity_at_large_window(self):
        e1 = exact_np_miss(OperatingPoint(0.3, 0.7), 400, 0.01).exponent
        e2 = exact_np_miss(OperatingPoint(0.3, 0.7), 400, 0.02).exponent
        assert abs(e2 - e1) / e1 < 0.05

    def test_windows_must_ascend(self):
        with pytest.raises(ValueError):
            stein_curve(OperatingPoint(0.3, 0.7), [100, 50], 0.01)


def single_sensor_setup(rho_fc=0.0, rho_e=0.1, budget=math.inf):
    site = SensorSite(
        model=GaussianSensorModel(1.0, 1.0),
        fc_channel=BscChannel(rho_fc),
        eve_channel=BscChannel(rho_e),
    )
    config = NetworkConfig(sites=(site,), alpha_total=10.0)
    result = allocate(config)
    return site, config, result


def fc_z_scores(seeds, trials):
    """(FC miss z-score against the exact miss, FC false-alarm z-score
    against delta) of one-sensor runs at window 20, one row per seed."""
    site, config, result = single_sensor_setup()
    fc_op = bsc_transform(result.per_sensor[0].design.op, site.fc_channel)
    exact = exact_np_miss(fc_op, window=20, delta=0.01)
    return np.array([
        [(mc.fc_miss_estimate - exact.miss) / mc.fc_miss_se,
         (mc.fc_fa_estimate - mc.delta) / mc.fc_fa_se]
        for mc in (
            simulate_monte_carlo(config, result, window=20, trials=trials, seed=seed)
            for seed in seeds
        )
    ])


class TestMonteCarlo:
    def test_single_sensor_matches_exact_binomial(self):
        # 20 seeds: a mean miss z within 3/sqrt(20) finds a bias 4.5x
        # smaller than one seed held to 3 SE would
        z = fc_z_scores(range(91, 111), trials=200_000)
        assert abs(z[:, 0].mean()) <= 3.0 / math.sqrt(len(z)), z[:, 0]
        assert np.all(np.abs(z[:, 0]) <= 4.0), z[:, 0]
        assert np.all(np.abs(z[:, 1]) <= 3.0), z[:, 1]

    def test_fc_miss_z_scores_spread_as_their_standard_errors_say(self):
        # the calibration's share of the miss SE is scaled by the steepest
        # likelihood ratio within its error, so a threshold a count low
        # does not shrink it
        z = fc_z_scores(range(100), trials=20_000)[:, 0]
        assert z.std() <= 1.15, z.std()
        assert np.all(np.abs(z) <= 5.0), z

    def test_blind_designs_perform_at_chance(self):
        site, config, _ = single_sensor_setup()
        blind = allocate(NetworkConfig(sites=(site,), alpha_total=0.0))
        mc = simulate_monte_carlo(config, blind, window=10, trials=50_000, seed=5)
        assert abs(mc.fc_miss_estimate - 0.99) <= 3.0 * mc.fc_miss_se
        assert abs(mc.eve_miss_estimate - 0.99) <= 3.0 * mc.eve_miss_se

    def test_noisier_eve_misses_more(self):
        _, config_a, result_a = single_sensor_setup(rho_e=0.1)
        _, config_b, result_b = single_sensor_setup(rho_e=0.3)
        mc_a = simulate_monte_carlo(
            config_a, result_a, window=20, trials=50_000, seed=17
        )
        mc_b = simulate_monte_carlo(
            config_b, result_b, window=20, trials=50_000, seed=17
        )
        assert mc_b.eve_miss_estimate > mc_a.eve_miss_estimate

    def test_same_seed_is_bit_identical(self):
        _, config, result = single_sensor_setup()
        mc1 = simulate_monte_carlo(config, result, window=15, trials=30_000, seed=3)
        mc2 = simulate_monte_carlo(config, result, window=15, trials=30_000, seed=3)
        assert mc1 == mc2

    def test_blind_sensor_behind_noiseless_channel_stays_finite(self):
        # the blind design's received tails are [0, 0, 1, 1]: a one never
        # arrives under either hypothesis and weighs 0
        sites = tuple(
            SensorSite(GaussianSensorModel(1.0, 1.0), BscChannel(0.0), BscChannel(rho_e))
            for rho_e in (0.1, 0.0)
        )
        config = NetworkConfig(sites=sites, alpha_total=1.0)
        mc = simulate_monte_carlo(
            config, designs_at(config, np.array([math.inf, 0.5])),
            window=10, trials=2000, seed=4,
        )
        assert all(math.isfinite(v) for v in vars(mc).values())

    def test_separating_sensor_keeps_h0_statistics_finite(self):
        # sensor 0 never sends a one under H0 and its FC channel is
        # noiseless: the FC's weight of a one is +inf, and a one that never
        # arrives weighs nothing (0 * inf = 0)
        sites = tuple(
            SensorSite(GaussianSensorModel(1.0, 1.0), BscChannel(rho_fc), BscChannel(0.1))
            for rho_fc in (0.0, 0.05)
        )
        config = NetworkConfig(sites=sites, alpha_total=10.0)
        designs = designs_at(config, np.array([0.5, 0.5]))
        tails = designs.designs.tails.copy()
        tails[:, 0] = OperatingPoint(0.0, 0.6).tails
        designs = dataclasses.replace(
            designs, designs=dataclasses.replace(designs.designs, tails=tails)
        )
        mc = simulate_monte_carlo(config, designs, window=5, trials=2000, seed=1)
        assert all(math.isfinite(v) for v in vars(mc).values())
        assert abs(mc.fc_fa_estimate - mc.delta) <= 5.0 * mc.fc_fa_se

    def test_separating_sensor_statistics_table(self):
        # P(one) is 0 under H0 and 0.6 under H1; a one weighs +inf
        received = np.array([[0.0], [0.6], [1.0], [0.4]])
        lo, pmf, table = _count_laws(received, np.array([[math.inf], [-0.5]]), 5)
        assert lo.tolist() == [[0.0], [0.0]]
        assert pmf[0, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert table[1, 0, [0, 2, 5]].tolist() == [-2.5, math.inf, math.inf]
        # under H0 only the count 0 can be drawn, and it stays finite
        assert table[0, 0, 0] == -2.5
        # a one only under H1 and a zero only under H0: each law is a point
        # mass, and no +inf and -inf terms meet off it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, pmf, table = _count_laws(np.array([[0.0], [1.0], [1.0], [0.0]]),
                                        np.array([[math.inf], [-math.inf]]), 5)
        assert pmf[:, 0, [0, -1]].tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert [table[0, 0, 0], table[1, 0, -1]] == [-math.inf, math.inf]

    def test_fc_fields_ignore_eve_crossovers(self):
        def run(eve_rhos):
            sites = tuple(
                SensorSite(GaussianSensorModel(1.0, 1.0), BscChannel(0.05), BscChannel(rho))
                for rho in eve_rhos
            )
            config = NetworkConfig(sites=sites, alpha_total=10.0)
            designs = designs_at(config, np.array([0.3, 0.6, math.inf]))
            return simulate_monte_carlo(config, designs, window=8, trials=5000, seed=6)

        base, other = run((0.1, 0.2, 0.3)), run((0.4, 0.0, 0.25))
        fc = [name for name in vars(base) if name.startswith("fc_")]
        assert [getattr(other, name) for name in fc] == [getattr(base, name) for name in fc]
        assert other.eve_miss_estimate != base.eve_miss_estimate

    def test_miss_z_scores_center_on_the_exact_miss(self):
        site, config, result = single_sensor_setup()
        op = result.per_sensor[0].design.op
        exact = [
            exact_np_miss(bsc_transform(op, channel), window=20).miss
            for channel in (site.fc_channel, site.eve_channel)
        ]
        z = np.array([
            [(mc.fc_miss_estimate - exact[0]) / mc.fc_miss_se,
             (mc.eve_miss_estimate - exact[1]) / mc.eve_miss_se]
            for mc in (
                simulate_monte_carlo(config, result, window=20, trials=20_000, seed=seed)
                for seed in range(30)
            )
        ])
        assert np.all(np.abs(z.mean(axis=0)) <= 0.6), z.mean(axis=0)
        assert np.all(np.abs(z) <= 5.0), z

    def test_designs_must_match_config(self):
        site, config, result = single_sensor_setup()
        two = NetworkConfig(
            sites=(site, site), alpha_total=1.0
        )
        with pytest.raises(ValueError, match="designs cover 1 sensors"):
            simulate_monte_carlo(two, result, window=5, trials=10, seed=1)

    def test_validation(self):
        _, config, result = single_sensor_setup()
        with pytest.raises(ValueError):
            simulate_monte_carlo(config, result, window=0, trials=10, seed=1)
        with pytest.raises(ValueError):
            simulate_monte_carlo(config, result, window=5, trials=0, seed=1)
        for calibration_trials in (0, -3):
            with pytest.raises(ValueError, match="calibration_trials must be positive"):
                simulate_monte_carlo(
                    config, result, window=5, trials=10, seed=1,
                    calibration_trials=calibration_trials,
                )
        for delta in (0.0, 0.5, 0.7, 1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"delta must lie in \(0, 0\.5\)"):
                simulate_monte_carlo(
                    config, result, window=5, trials=10, seed=1, delta=delta
                )


def assert_within_5se(observed, pmf, n):
    """Every cell's count within 5 binomial standard errors of n * pmf; a
    cell of probability 0 (or 1) must be empty (or full)."""
    se = np.sqrt(n * pmf * (1.0 - pmf))
    excess = np.abs(observed - n * pmf) - 5.0 * se
    assert np.all(excess <= 1e-6), (observed, n * pmf)


# (theta, sigma, rho_fc, rho_e, threshold): noiseless channels, a blind
# design, a sensor bit that is almost always one, near-useless channels,
# and a generic site
EDGE_SITES = [
    (1.0, 1.0, 0.0, 0.0, 0.5),
    (1.0, 1.0, 0.05, 0.2, math.inf),
    (1.0, 1.0, 0.0, 0.1, -3.5),
    (1.0, 1.0, 0.49, 0.49, 0.4),
    (2.0, 1.5, 0.3, 0.01, 1.2),
]


def edge_network():
    sites = tuple(
        SensorSite(
            model=GaussianSensorModel(theta, sigma),
            fc_channel=BscChannel(rho_fc),
            eve_channel=BscChannel(rho_e),
        )
        for theta, sigma, rho_fc, rho_e, _ in EDGE_SITES
    )
    thresholds = np.array([spec[-1] for spec in EDGE_SITES])
    return NetworkConfig(sites=sites, alpha_total=1.0), thresholds


def received_ones(config, thresholds, hypothesis, receiver):
    """P(received one) at each site's FC (receiver 0) or Eve (receiver 1),
    from the site's sensor law and crossover."""
    ones = []
    for site, threshold in zip(config.sites, thresholds):
        op = site.model.operating_point(float(threshold))
        p = op.pd if hypothesis == 1 else op.pfa
        rho = (site.fc_channel, site.eve_channel)[receiver].crossover
        ones.append(p * (1.0 - rho) + (1.0 - p) * rho)
    return ones


def designs_at(config, thresholds):
    """An allocation whose designs sit at the given thresholds."""
    n = len(config.sites)
    designs = _designs_at(_site_columns(config.sites), thresholds, [0.0] * n, binding=False)
    zeros = np.zeros(n)
    return AllocationResult(
        designs=designs, alpha_i=zeros, active=np.ones(n, dtype=bool), quality=zeros,
        d_fc_star=zeros, d_eve_star=zeros, total_d_fc=0.0, total_d_eve=0.0,
        active_count=n,
    )


def count_laws(network, receiver, window):
    """One receiver's count laws (first counts, pmfs, statistics), indexed
    by hypothesis."""
    tails, *rhos = network
    received = _received(tails, rhos[receiver])
    return _count_laws(received, _llr_weights(received), window)


def unit_counts(seed, stream, block, receiver, lo, pmf, n_trials):
    """The (sensors, trials) ones-counts that one unit draws from the count
    laws ``lo`` and ``pmf``: the unit runs on statistics that write sensor
    i's count less its first as the base-width digit i of each trial's
    sum, which stays exact below 2**53."""
    base = pmf.shape[-1]
    digits = np.arange(base) * base ** np.arange(len(pmf))[:, None]
    out = np.zeros(n_trials)
    _fuse_block(seed, stream, block, receiver, pmf, digits.astype(float), out)
    sums = out.astype(np.int64)
    return np.array([sums // base**i % base + int(lo_i) for i, lo_i in enumerate(lo)])


def stream_counts(config, thresholds, hypothesis, receiver, window, count, seed):
    network = _network_arrays(config, designs_at(config, thresholds))
    lo, pmf, _ = (law[hypothesis] for law in count_laws(network, receiver, window))
    return np.concatenate([
        unit_counts(seed, _H1_STREAM, block, receiver, lo, pmf,
                    min(_BLOCK_TRIALS, count - start))
        for block, start in enumerate(range(0, count, _BLOCK_TRIALS))
    ], axis=1)


def unit_draws(seed, stream, block, receiver, lo, pmf, n_trials):
    """Counts drawn from the unit's own generator, keyed (stream, block,
    receiver) under the seed: one multinomial histogram per sensor over its
    band of counts, then sensor by sensor that histogram expanded in count
    order and, after sensor 0, shuffled."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream, block, receiver))
    )
    counts = []
    for i, (lo_i, histogram) in enumerate(zip(lo, rng.multinomial(n_trials, pmf))):
        row = np.repeat(lo_i + np.arange(len(histogram)), histogram)
        if i:
            rng.shuffle(row)
        counts.append(row)
    return np.array(counts)


class TestCountSampler:
    @pytest.mark.parametrize("hypothesis", [0, 1])
    def test_receiver_counts_are_binomial(self, hypothesis):
        config, thresholds = edge_network()
        window, count = 12, 70_000  # spans two blocks
        ks = np.arange(window + 1)
        for receiver in (0, 1):
            ones = stream_counts(
                config, thresholds, hypothesis, receiver, window, count, seed=31
            )
            p_ones = received_ones(config, thresholds, hypothesis, receiver)
            for row, p_one in zip(ones, p_ones):
                observed = np.bincount(row, minlength=window + 1)
                assert_within_5se(observed, binom.pmf(ks, window, p_one), count)

    @pytest.mark.parametrize("hypothesis", [0, 1])
    def test_fused_statistics_are_those_of_the_block_counts(
        self, hypothesis, monkeypatch
    ):
        config = NetworkConfig(
            sites=sample_sites(5, seed=5, fc_crossover_high=0.2, eve_crossover_high=0.4),
            alpha_total=10.0,
        )
        result = allocate(config)
        window, seed, trials = 9, 21, 3000
        units, receivers = [], []
        monkeypatch.setattr(detection, "_usable_cpus", lambda: 1)

        def recording(seed, stream, block, receiver, *rest):
            units.append((stream, block, receiver))
            _fuse_block(seed, stream, block, receiver, *rest)

        def estimates(cal, h0, h1, delta):
            receivers.append({_CAL_STREAM: cal, _H0_STREAM: h0, _H1_STREAM: h1})
            return receiver_estimates(cal, h0, h1, delta)

        receiver_estimates = detection._receiver_estimates
        monkeypatch.setattr(detection, "_fuse_block", recording)
        monkeypatch.setattr(detection, "_receiver_estimates", estimates)
        simulate_monte_carlo(
            config, result, window=window, trials=trials, seed=seed,
            calibration_trials=70_000,
        )
        # the calibration stream spans two blocks, each estimation stream one
        assert sorted(units) == [
            (stream, block, receiver)
            for stream, block in ((_CAL_STREAM, 0), (_CAL_STREAM, 1),
                                  (_H0_STREAM, 0), (_H1_STREAM, 0))
            for receiver in (0, 1)
        ]
        tails, fc_rho, eve_rho = _network_arrays(config, result)
        # the FC's statistics are estimated first, Eve's second; the
        # calibration and H0 streams are drawn under H0, H1 under H1
        streams = (_H1_STREAM,) if hypothesis else (_CAL_STREAM, _H0_STREAM)
        for receiver, (stats, rho) in enumerate(zip(receivers, (fc_rho, eve_rho))):
            received = _received(tails, rho)
            w_one, w_zero = _llr_weights(received)
            lo, pmf, _ = _count_laws(received, np.array([w_one, w_zero]), window)
            for stream in streams:
                for block, start in enumerate(range(0, len(stats[stream]), _BLOCK_TRIALS)):
                    rows = stats[stream][start : start + _BLOCK_TRIALS]
                    counts = unit_draws(seed, stream, block, receiver,
                                        lo[hypothesis], pmf[hypothesis], len(rows))
                    expected = np.zeros(len(rows))
                    for ones, one, zero in zip(counts, w_one, w_zero):
                        expected += ones * one + (window - ones) * zero
                    assert np.array_equal(rows, expected)

    def test_sensors_of_a_unit_are_independent(self):
        config, result = small_network()
        network = _network_arrays(config, result)
        window, n_trials = 4, 60_000
        ks = np.arange(window + 1)
        for hypothesis in (0, 1):
            lo, pmf, _ = (law[hypothesis] for law in count_laws(network, 0, window))
            counts = unit_counts(5, _H0_STREAM, 0, 0, lo, pmf, n_trials)
            p_ones = _received(network[0], network[1])[hypothesis]
            law = [binom.pmf(ks, window, p_one) for p_one in p_ones]
            # sensor 0 in count order against sensor 1 shuffled, two
            # shuffled sensors, and one shuffled sensor against its next trial
            for a, b, pair in ((counts[0], counts[1], (0, 1)),
                               (counts[1], counts[2], (1, 2)),
                               (counts[1, :-1], counts[1, 1:], (1, 1))):
                joint = np.bincount(a * (window + 1) + b, minlength=(window + 1) ** 2)
                product = np.outer(law[pair[0]], law[pair[1]]).ravel()
                assert_within_5se(joint, product, len(a))

    def test_a_wide_window_draws_a_band_of_counts(self, monkeypatch):
        # window 20 000: each law spans Hoeffding's band of about 1 300
        # counts, clipped at the top where the bit is nearly always one
        # (edge sites 0 and 2, both noiseless to the FC)
        config, thresholds = edge_network()
        two = NetworkConfig(sites=config.sites[0:3:2], alpha_total=1.0)
        designs = designs_at(two, thresholds[0:3:2])
        network = _network_arrays(two, designs)
        p_ones = _received(network[0], network[1])[:2]
        window, n_trials = 20_000, 200
        s = math.sqrt(0.5 * window * 61.0 * math.log(2.0))
        run = functools.partial(simulate_monte_carlo, two, designs, window=window,
                                trials=n_trials, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, pmf, _ = count_laws(network, 0, window)
            # a P(one) of exactly 0 or 1 is a point mass
            ends = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
            point = _count_laws(ends, np.zeros((2, 2)), window)[1]
            monkeypatch.setattr(detection, "_usable_cpus", lambda: 1)
            serial = run()
            monkeypatch.setattr(detection, "_usable_cpus", lambda: 2)
            assert run() == serial
        hi = lo + pmf.shape[-1] - 1
        assert pmf.shape[-1] < window // 10
        assert np.all((lo <= np.maximum(window * p_ones - s, 0.0))
                      & (hi >= np.minimum(window * p_ones + s, window)))
        assert np.all(point[..., [0, -1]] == [[1.0, 0.0], [0.0, 1.0]])
        assert np.all(point.sum(axis=-1) == 1.0)
        for hypothesis in (0, 1):
            counts = unit_counts(8, _H1_STREAM, 0, 0, lo[hypothesis], pmf[hypothesis],
                                 n_trials)
            band = window * p_ones[hypothesis, :, None] + np.array([-s, s])
            assert np.all((counts >= band[:, :1]) & (counts <= band[:, 1:]))

    def test_a_run_shorter_than_one_block_makes_six_units(self, monkeypatch):
        config, result = small_network()
        units = []

        def recording(seed, stream, block, receiver, *rest):
            units.append((stream, block, receiver))
            _fuse_block(seed, stream, block, receiver, *rest)

        monkeypatch.setattr(detection, "_fuse_block", recording)
        simulate_monte_carlo(config, result, window=5, trials=2000, seed=3)
        assert sorted(units) == [
            (stream, 0, receiver)
            for stream in (_CAL_STREAM, _H0_STREAM, _H1_STREAM)
            for receiver in (0, 1)
        ]


def small_network():
    sites = sample_sites(3, seed=5, fc_crossover_high=0.2, eve_crossover_high=0.4)
    config = NetworkConfig(sites=sites, alpha_total=10.0)
    return config, allocate(config)


def one_sensor_network():
    _, config, result = single_sensor_setup()
    return config, result


class TestWorkerPool:
    """The Monte Carlo's (stream, block, receiver) units on a thread pool."""

    @pytest.mark.parametrize("network", [one_sensor_network, small_network])
    def test_every_worker_count_gives_the_same_result(self, network, monkeypatch):
        config, result = network()
        # 2 estimation blocks per hypothesis and 5 calibration blocks
        kwargs = dict(window=6, trials=70_000, seed=13)
        monkeypatch.setattr(detection, "_usable_cpus", lambda: 1)
        serial = simulate_monte_carlo(config, result, **kwargs)
        monkeypatch.undo()
        assert simulate_monte_carlo(config, result, **kwargs) == serial
        # more workers than CPUs, switching threads as often as possible
        monkeypatch.setattr(detection, "_usable_cpus", lambda: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert simulate_monte_carlo(config, result, **kwargs) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_no_draw_holds_more_than_one_block_of_cells(self, monkeypatch):
        config, result = small_network()
        kwargs = dict(window=5, trials=20_000, seed=4)
        whole = simulate_monte_carlo(config, result, **kwargs)
        drawn = []
        block_rng = detection._block_rng

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def multinomial(self, n, pvals):
                # one histogram of n trials per sensor
                drawn.extend([n] * len(pvals))
                return self.rng.multinomial(n, pvals)

            def shuffle(self, x):
                shuffled.append(len(x))
                self.rng.shuffle(x)

        shuffled = []
        monkeypatch.setattr(detection, "_block_rng", lambda *key: Recording(block_rng(*key)))
        assert simulate_monte_carlo(config, result, **kwargs) == whole
        # a whole calibration block of the three sensors would be 3x this
        assert max(drawn + shuffled) <= _BLOCK_TRIALS
        # two receivers over the calibration (4x) and two estimation
        # streams; every sensor but the first is shuffled
        cells = 2 * 6 * kwargs["trials"]
        assert sum(drawn) == cells * len(config.sites)
        assert sum(shuffled) == cells * (len(config.sites) - 1)

    def test_a_failing_block_raises_and_leaves_no_thread(self, monkeypatch):
        config, result = small_network()
        monkeypatch.setattr(detection, "_usable_cpus", lambda: 2)

        def failing(seed, stream, block, *rest):
            if (stream, block) == (_CAL_STREAM, 1):
                raise RuntimeError("block failed")
            _fuse_block(seed, stream, block, *rest)

        monkeypatch.setattr(detection, "_fuse_block", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            # 80 000 calibration trials: two calibration blocks
            simulate_monte_carlo(config, result, window=5, trials=20_000, seed=1)
        assert threading.active_count() == threads


class TestLlrWeights:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.floats(0.0, 1.0),
                st.one_of(st.just(0.0), st.floats(0.0, 0.499)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_batch_equals_one_sensor_calls(self, sensors):
        pfa, pd, rho = (np.array(column) for column in zip(*sensors))
        w_one, w_zero = _llr_weights(_received(np.array([pfa, pd, 1.0 - pfa, 1.0 - pd]), rho))
        for i, (x, y, r) in enumerate(sensors):
            received = _received(OperatingPoint(x, y).tails, r)
            one, zero = _llr_weights(received)
            assert (one, zero) == (w_one[i], w_zero[i])
            assert not (math.isnan(one) or math.isnan(zero))
            # infinite only where a tail is 0 (or so small a ratio
            # overflows): a bit value one hypothesis never sends
            if min(received) > 1e-300:
                assert math.isfinite(one) and math.isfinite(zero)

    def test_blind_and_separating_points(self):
        # no evidence behind a blind design; a one under H1 only is decisive
        assert _llr_weights(np.array([0.0, 0.0, 1.0, 1.0])).tolist() == [0.0, 0.0]
        one, zero = _llr_weights(np.array([0.0, 0.5, 1.0, 0.5]))
        assert one == math.inf and zero == pytest.approx(math.log(0.5))


class TestLargeNetwork:
    def test_500_sensor_monte_carlo_holds_its_false_alarm(self):
        config = NetworkConfig(sites=sample_sites(500, seed=1), alpha_total=50.0)
        result = allocate(config)
        mc = simulate_monte_carlo(config, result, window=20, trials=500, seed=3)
        assert abs(mc.fc_fa_estimate - mc.delta) <= 5.0 * mc.fc_fa_se
        assert abs(mc.eve_fa_estimate - mc.delta) <= 5.0 * mc.eve_fa_se
