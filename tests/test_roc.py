"""ROC algebra: divergence values, channel transforms, mixing, and the
degradation lemmas that everything downstream relies on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secquant import (
    BscChannel,
    OperatingPoint,
    bsc_transform,
    kl_divergence,
    mix_quantizers,
)
from secquant.roc import _kl_partials

from oracles import kld as kld_oracle


def op(x, y):
    return OperatingPoint(x, y)


class TestKlDivergence:
    def test_diagonal_is_zero(self):
        assert kl_divergence(op(0.5, 0.5)) == 0.0

    def test_symmetric_closed_forms(self):
        assert kl_divergence(op(0.25, 0.75)) == pytest.approx(
            0.5 * math.log(3.0), abs=1e-12
        )
        assert kl_divergence(op(0.1, 0.9)) == pytest.approx(
            0.8 * math.log(9.0), abs=1e-12
        )

    def test_corners_are_finite_zero(self):
        assert kl_divergence(op(0.0, 0.0)) == 0.0
        assert kl_divergence(op(1.0, 1.0)) == 0.0

    def test_separating_point_is_infinite(self):
        # one bit value occurs under one hypothesis only
        assert kl_divergence(op(0.0, 1.0)) == math.inf
        assert kl_divergence(op(0.5, 1.0)) == math.inf
        assert kl_divergence(op(0.0, 0.5)) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            op(float("nan"), 0.5)
        with pytest.raises(ValueError):
            op(0.5, float("nan"))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            op(-0.1, 0.5)
        with pytest.raises(ValueError):
            op(0.5, 1.1)

    def test_nonnegative_on_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            x, y = rng.uniform(0, 1, 2)
            assert kl_divergence(op(x, y)) >= 0.0

    def test_matches_vectorized_oracle(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(0, 1, 200)
        ys = rng.uniform(0, 1, 200)
        got = [kl_divergence(op(x, y)) for x, y in zip(xs, ys)]
        np.testing.assert_allclose(got, kld_oracle(xs, ys), rtol=1e-12, atol=1e-15)

    def test_jointly_convex_midpoints(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            x1, y1, x2, y2 = rng.uniform(0.01, 0.99, 4)
            mid = kl_divergence(op(0.5 * (x1 + x2), 0.5 * (y1 + y2)))
            avg = 0.5 * (kl_divergence(op(x1, y1)) + kl_divergence(op(x2, y2)))
            assert mid <= avg + 1e-12


class TestComplements:
    def test_default_is_one_minus_p(self):
        p = op(0.25, 0.75)
        assert (p.pfa_c, p.pd_c) == (0.75, 0.25)
        assert p.tails.tolist() == [0.25, 0.75, 0.75, 0.25]

    def test_stored_complement_beyond_float_resolution(self):
        p = OperatingPoint(0.1, 1.0, pd_c=1e-18)
        assert kl_divergence(p) == pytest.approx(
            0.1 * math.log(0.1) + 0.9 * math.log(0.9 / 1e-18), rel=1e-15
        )
        assert kl_divergence(op(0.1, 1.0)) == math.inf

    def test_mismatched_complement_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            OperatingPoint(0.25, 0.75, pfa_c=0.7)
        with pytest.raises(ValueError):
            OperatingPoint(0.25, 0.75, pd_c=-0.0 - 1e-3)

    def test_channel_and_mixture_carry_complements(self):
        p = bsc_transform(OperatingPoint(0.1, 1.0, pd_c=1e-18), BscChannel(0.0))
        assert p.pd_c == 1e-18
        mixed = mix_quantizers([OperatingPoint(0.1, 1.0, pd_c=1e-18), op(0.1, 1.0)],
                               [0.5, 0.5])
        assert mixed.pd_c == 5e-19


class TestBscChannel:
    def test_rejects_half_and_beyond(self):
        with pytest.raises(ValueError):
            BscChannel(0.5)
        with pytest.raises(ValueError):
            BscChannel(0.7)
        with pytest.raises(ValueError):
            BscChannel(-0.01)

    def test_identity_channel(self):
        p = bsc_transform(op(0.2, 0.8), BscChannel(0.0))
        assert (p.pfa, p.pd) == (0.2, 0.8)

    def test_direct_substitution(self):
        p = bsc_transform(op(0.2, 0.8), BscChannel(0.1))
        assert p.pfa == pytest.approx(0.26, abs=1e-15)
        assert p.pd == pytest.approx(0.74, abs=1e-15)

    def test_near_half_limit_collapses_to_center(self):
        p = bsc_transform(op(0.2, 0.8), BscChannel(0.499999))
        assert p.pfa == pytest.approx(0.5, abs=1e-5)
        assert p.pd == pytest.approx(0.5, abs=1e-5)


class TestMixQuantizers:
    def test_single_point(self):
        p = mix_quantizers([op(0.2, 0.6)], [1.0])
        assert (p.pfa, p.pd) == (0.2, 0.6)

    def test_midpoint_of_corners(self):
        p = mix_quantizers([op(0.0, 0.0), op(1.0, 1.0)], [0.5, 0.5])
        assert (p.pfa, p.pd) == (0.5, 0.5)

    def test_affine_arithmetic(self):
        p = mix_quantizers([op(0.1, 0.5), op(0.3, 0.9)], [0.25, 0.75])
        assert p.pfa == pytest.approx(0.25, abs=1e-15)
        assert p.pd == pytest.approx(0.8, abs=1e-15)

    def test_weight_sum_violation(self):
        with pytest.raises(ValueError):
            mix_quantizers([op(0.1, 0.5), op(0.3, 0.9)], [0.2, 0.75])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mix_quantizers([op(0.1, 0.5)], [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mix_quantizers([], [])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            mix_quantizers([op(0.1, 0.5), op(0.3, 0.9)], [-0.5, 1.5])

    def test_nan_weight_rejected_as_a_weight(self):
        with pytest.raises(ValueError, match="mixture weights must be nonnegative"):
            mix_quantizers([op(0.1, 0.5), op(0.3, 0.9)], [math.nan, 1.0])

    def test_mixture_divergence_bounded_by_max_component(self):
        # convexity: through any fixed channel, the mixed point never beats
        # the best of its components
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = op(*np.sort(rng.uniform(0, 1, 2)))
            b = op(*np.sort(rng.uniform(0, 1, 2)))
            w = rng.uniform(0, 1)
            mixed = mix_quantizers([a, b], [w, 1.0 - w])
            for rho in (0.0, 0.05, 0.2):
                ch = BscChannel(rho)
                d_mix = kl_divergence(bsc_transform(mixed, ch))
                d_max = max(
                    kl_divergence(bsc_transform(a, ch)),
                    kl_divergence(bsc_transform(b, ch)),
                )
                assert d_mix <= d_max + 1e-12


probabilities = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
crossovers = st.floats(
    min_value=0.0, max_value=0.4999, allow_nan=False, allow_infinity=False
)


class TestDegradationLemmas:
    @given(x=probabilities, y=probabilities, rho=crossovers)
    @settings(max_examples=300, deadline=None)
    def test_transform_collinear_with_center(self, x, y, rho):
        a = op(x, y)
        b = bsc_transform(a, BscChannel(rho))
        # cross product of (B - A) and (C - A), C the chance center
        residual = (b.pfa - a.pfa) * (0.5 - a.pd) - (b.pd - a.pd) * (0.5 - a.pfa)
        assert abs(residual) < 1e-12
        # B sits between A and C
        assert min(a.pfa, 0.5) - 1e-12 <= b.pfa <= max(a.pfa, 0.5) + 1e-12
        assert min(a.pd, 0.5) - 1e-12 <= b.pd <= max(a.pd, 0.5) + 1e-12

    @given(
        x=st.floats(min_value=0.001, max_value=0.99),
        gap=st.floats(min_value=1e-6, max_value=1.0),
        r1=crossovers,
        r2=crossovers,
    )
    @settings(max_examples=300, deadline=None)
    def test_likelihood_ratio_chain(self, x, gap, r1, r2):
        # margins keep the ratios at a scale where the absolute slack is
        # meaningful; the inequality itself holds on the whole square
        y = min(x + gap, 0.999)
        if y <= x:
            return
        rho1, rho2 = min(r1, r2), max(r1, r2)
        a = op(x, y)
        b1 = bsc_transform(a, BscChannel(rho1))
        b2 = bsc_transform(a, BscChannel(rho2))

        def ratios(p):
            return p.pfa / p.pd, (1 - p.pfa) / (1 - p.pd)

        lo0, hi0 = ratios(a)
        lo1, hi1 = ratios(b1)
        lo2, hi2 = ratios(b2)
        slack = 1e-12
        assert lo0 <= lo1 + slack
        assert lo1 <= lo2 + slack
        assert lo2 <= 1.0 + slack
        assert 1.0 <= hi2 + slack
        assert hi2 <= hi1 + slack
        assert hi1 <= hi0 + slack

    def test_monotone_degradation_over_crossover_grid(self):
        rng = np.random.default_rng(5)
        rhos = [k * 0.01 for k in range(50)]
        for _ in range(50):
            x = rng.uniform(0.0, 0.9)
            y = rng.uniform(x + 0.05, 1.0)
            a = op(x, y)
            values = [
                kl_divergence(bsc_transform(a, BscChannel(r))) for r in rhos
            ]
            diffs = np.diff(values)
            assert np.all(diffs < 0.0), "divergence must strictly fall with noise"

    def test_detection_gradient_nonnegative_and_matches_fd(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(200):
            x = rng.uniform(0.05, 0.9)
            y = rng.uniform(x + 0.02, 0.98)
            grad = _kl_partials(op(x, y).tails)[1]
            assert grad >= 0.0
            fd = (kl_divergence(op(x, y + h)) - kl_divergence(op(x, y - h))) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-6)
