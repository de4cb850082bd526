"""Exact fixed-false-alarm miss computation and the Monte Carlo pipeline."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, multinomial

from secquant import (
    AllocationResult,
    BscChannel,
    GaussianSensorModel,
    NetworkConfig,
    OperatingPoint,
    SensorAllocation,
    SensorSite,
    allocate,
    bsc_transform,
    exact_np_miss,
    kl_divergence,
    sample_sites,
    sample_trial_records,
    second_order_slope,
    simulate_monte_carlo,
    stein_curve,
    unconstrained_design,
)
from secquant import detection
from secquant.detection import (
    _H1_STREAM,
    _binom_logpmf,
    _conditional_shares,
    _fusion_statistics,
    _llr_weights,
    _network_arrays,
    _np_components,
    _stream_counts,
    _symbol_law,
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
            # the log pmf the kernel sums (scipy's logpmf order): binom.pmf
            # is more accurate at window 20 000, where gammaln(20 001) ~
            # 1.8e5 leaves the log pmf ~2e-11 off, and would test that
            pmf = np.exp(binom.logpmf(np.arange(window + 1), window, x))
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
    def test_matches_full_support_and_oracle(self, case):
        x, y, window, delta = case
        log_miss, t, gamma = _np_components(OperatingPoint(x, y), window, delta)
        assert (t, gamma) == full_support_threshold(x, y, window, delta)
        # 1e-12 relative wherever |log_miss| >= 0.01; a miss within 1e-2 of
        # 1 is a sum near 1 whose log float64 resolves only to ~1e-16 per
        # term, so both sums agree there to an absolute 1e-14
        want = oracles.np_log_miss(x, y, window, delta)
        assert log_miss == pytest.approx(want, rel=1e-12, abs=1e-14)


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


class TestMonteCarlo:
    def test_single_sensor_matches_exact_binomial(self):
        site, config, result = single_sensor_setup()
        design = result.per_sensor[0].design
        fc_op = bsc_transform(design.op, site.fc_channel)
        exact = exact_np_miss(fc_op, window=20, delta=0.01)
        mc = simulate_monte_carlo(
            config, result, window=20, trials=200_000, seed=91
        )
        assert abs(mc.fc_miss_estimate - exact.miss) <= 3.0 * mc.fc_miss_se
        assert abs(mc.fc_fa_estimate - 0.01) <= 3.0 * mc.fc_fa_se

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

    def test_trial_records_deterministic_and_shaped(self):
        site, config, result = single_sensor_setup()
        recs1 = sample_trial_records(config, result, 1, window=12, count=5, seed=3)
        recs2 = sample_trial_records(config, result, 1, window=12, count=5, seed=3)
        assert recs1 == recs2
        assert len(recs1) == 5
        for rec in recs1:
            assert rec.hypothesis == 1
            assert len(rec.sensor_bits) == 12
            assert len(rec.fc_bits) == 12
            assert len(rec.eve_bits) == 12
            assert set(rec.sensor_bits) <= {0, 1}

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

    def test_designs_must_match_config(self):
        site, config, result = single_sensor_setup()
        two = NetworkConfig(
            sites=(site, site), alpha_total=1.0
        )
        with pytest.raises(ValueError, match="designs cover 1 sensors"):
            simulate_monte_carlo(two, result, window=5, trials=10, seed=1)
        with pytest.raises(ValueError, match="designs cover 1 sensors"):
            sample_trial_records(two, result, 1, window=4, count=1, seed=1)

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
        with pytest.raises(ValueError):
            sample_trial_records(config, result, 2, window=5, count=1, seed=1)


def pair_law(p, rho_fc, rho_e):
    """P(FC bit, Eve bit) in the order 11, 10, 01, 00, enumerated over the
    sensor bit (one with probability p) and the two independent flips."""
    law = []
    for fc_bit, eve_bit in ((1, 1), (1, 0), (0, 1), (0, 0)):
        total = 0.0
        for bit, p_bit in ((1, p), (0, 1.0 - p)):
            p_fc = 1.0 - rho_fc if fc_bit == bit else rho_fc
            p_eve = 1.0 - rho_e if eve_bit == bit else rho_e
            total += p_bit * p_fc * p_eve
        law.append(total)
    return law


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


def exact_pair_laws(config, thresholds, hypothesis):
    laws = []
    for site, threshold in zip(config.sites, thresholds):
        op = site.model.operating_point(float(threshold))
        p = op.pd if hypothesis == 1 else op.pfa
        laws.append(
            pair_law(p, site.fc_channel.crossover, site.eve_channel.crossover)
        )
    return np.array(laws)


def designs_at(config, thresholds):
    """Allocation records whose designs sit at the given thresholds."""
    designs = _designs_at(
        _site_columns(config.sites), thresholds, [0.0] * len(config.sites), binding=False
    )
    records = tuple(
        SensorAllocation(
            index=i, alpha_i=0.0, design=design, active=True, quality=0.0,
            d_fc_star=0.0, d_eve_star=0.0,
        )
        for i, design in enumerate(designs)
    )
    return AllocationResult(
        per_sensor=records, total_d_fc=0.0, total_d_eve=0.0,
        active_count=len(records),
    )


def stream_counts(config, thresholds, hypothesis, window, count, seed):
    designs = designs_at(config, thresholds)
    ones, zeros = _symbol_law(_network_arrays(config, designs), hypothesis)
    chunks = _stream_counts(
        seed, _H1_STREAM, _conditional_shares(ones + zeros), window, count
    )
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


class TestCountSampler:
    @pytest.mark.parametrize("hypothesis", [0, 1])
    def test_receiver_counts_are_binomial(self, hypothesis):
        config, thresholds = edge_network()
        window, count = 12, 70_000  # spans two blocks
        n11, n10, n01 = stream_counts(
            config, thresholds, hypothesis, window, count, seed=31
        )
        laws = exact_pair_laws(config, thresholds, hypothesis)
        ks = np.arange(window + 1)
        for i, law in enumerate(laws):
            for ones, p_one in ((n11 + n10, law[0] + law[1]), (n11 + n01, law[0] + law[2])):
                observed = np.bincount(ones[:, i], minlength=window + 1)
                assert_within_5se(observed, binom.pmf(ks, window, p_one), count)

    @pytest.mark.parametrize("hypothesis", [0, 1])
    def test_joint_counts_are_multinomial(self, hypothesis):
        config, thresholds = edge_network()
        window, count = 5, 40_000
        n11, n10, n01 = stream_counts(
            config, thresholds, hypothesis, window, count, seed=7
        )
        laws = exact_pair_laws(config, thresholds, hypothesis)
        cells = [
            (a, b, c, window - a - b - c)
            for a in range(window + 1)
            for b in range(window + 1 - a)
            for c in range(window + 1 - a - b)
        ]
        for i, law in enumerate(laws):
            drawn = np.stack([n11[:, i], n10[:, i], n01[:, i]], axis=1)
            observed = np.array(
                [np.count_nonzero(np.all(drawn == cell[:3], axis=1)) for cell in cells]
            )
            assert observed.sum() == count
            pmf = np.array([multinomial.pmf(cell, window, law) for cell in cells])
            assert_within_5se(observed, pmf, count)

    def test_block_is_the_same_drawn_in_chunks(self, monkeypatch):
        _, config, result = single_sensor_setup()
        whole = simulate_monte_carlo(config, result, window=9, trials=3000, seed=2)
        monkeypatch.setattr(detection, "_CHUNK_CELLS", 7)
        assert simulate_monte_carlo(
            config, result, window=9, trials=3000, seed=2
        ) == whole


def small_network():
    sites = sample_sites(3, seed=5, fc_crossover_high=0.2, eve_crossover_high=0.4)
    config = NetworkConfig(sites=sites, alpha_total=10.0)
    return config, allocate(config)


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


class TestTrialRecords:
    @pytest.mark.parametrize("hypothesis", [0, 1])
    def test_records_reproduce_the_estimation_statistics(
        self, hypothesis, monkeypatch
    ):
        config, result = small_network()
        window, count = 9, 40
        fused = []

        def recording(ones, w_one, w_zero, window):
            stats = _fusion_statistics(ones, w_one, w_zero, window)
            fused.append(stats)
            return stats

        monkeypatch.setattr(detection, "_fusion_statistics", recording)
        simulate_monte_carlo(config, result, window=window, trials=3000, seed=21)
        monkeypatch.undo()
        # one (FC, Eve) pair per stream: calibration, H0, H1
        assert len(fused) == 6
        want_fc, want_eve = fused[2 + 2 * hypothesis : 4 + 2 * hypothesis]

        records = sample_trial_records(
            config, result, hypothesis, window=window, count=count, seed=21
        )
        n = len(config.sites)
        tails = np.array([rec.design.op.tails for rec in result.per_sensor]).T
        for receiver, want in (("fc", want_fc), ("eve", want_eve)):
            rho = np.array(
                [getattr(site, f"{receiver}_channel").crossover for site in config.sites]
            )
            ones = np.array(
                [
                    np.reshape(getattr(rec, f"{receiver}_bits"), (n, window)).sum(axis=1)
                    for rec in records
                ]
            )
            got = _fusion_statistics(ones, *_llr_weights(_received(tails, rho)), window)
            assert np.array_equal(got, want[:count])

    def test_sensor_bits_flip_at_the_crossovers(self):
        config, result = small_network()
        window, count = 10, 4000
        records = sample_trial_records(
            config, result, 1, window=window, count=count, seed=8
        )
        n = len(config.sites)

        def bits(field):
            return np.array([getattr(rec, field) for rec in records]).reshape(
                count, n, window
            )

        sensor, fc, eve = bits("sensor_bits"), bits("fc_bits"), bits("eve_bits")
        cells = count * window
        for i, (rec, site) in enumerate(zip(result.per_sensor, config.sites)):
            rho_fc = site.fc_channel.crossover
            rho_e = site.eve_channel.crossover
            fc_flip = fc[:, i] != sensor[:, i]
            eve_flip = eve[:, i] != sensor[:, i]
            for observed, p in (
                (sensor[:, i].mean(), rec.design.op.pd),
                (fc_flip.mean(), rho_fc),
                (eve_flip.mean(), rho_e),
                ((fc_flip & eve_flip).mean(), rho_fc * rho_e),
            ):
                assert abs(observed - p) <= 5.0 * math.sqrt(p * (1.0 - p) / cells)
            # pairs sit at uniform positions: the window's ends are typical
            p_fc = bsc_transform(rec.design.op, site.fc_channel).pd
            for position in (0, window - 1):
                observed = fc[:, i, position].mean()
                assert abs(observed - p_fc) <= 5.0 * math.sqrt(
                    p_fc * (1.0 - p_fc) / count
                )


class TestLargeNetwork:
    def test_500_sensor_monte_carlo_holds_its_false_alarm(self):
        config = NetworkConfig(sites=sample_sites(500, seed=1), alpha_total=50.0)
        result = allocate(config)
        mc = simulate_monte_carlo(config, result, window=20, trials=500, seed=3)
        assert abs(mc.fc_fa_estimate - mc.delta) <= 5.0 * mc.fc_fa_se
        assert abs(mc.eve_fa_estimate - mc.delta) <= 5.0 * mc.eve_fa_se
