"""Gaussian observation model: tail probabilities, the LRT curve, and the
unconstrained divergence maximizer against a dense grid oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secquant import (
    BscChannel,
    GaussianSensorModel,
    UnimodalityError,
    bsc_transform,
    kl_divergence,
    max_channel_divergence,
    q_function,
    q_inverse,
)
from secquant.gaussian import TAIL_SIGMAS, _channel_divergence
from secquant.search import PRESCAN_POINTS, count_direction_changes

import oracles


class TestQFunction:
    def test_center(self):
        assert q_function(0.0) == 0.5

    def test_deep_tail(self):
        v = q_function(38.0)
        assert 0.0 <= v < 1e-300

    def test_reflection_identity(self):
        rng = np.random.default_rng(0)
        for z in rng.uniform(-8, 8, 100):
            assert q_function(z) + q_function(-z) == pytest.approx(1.0, abs=1e-15)

    def test_matches_oracle_over_range(self):
        zs = np.linspace(-8, 8, 1001)
        got = np.array([q_function(z) for z in zs])
        np.testing.assert_allclose(got, oracles.q(zs), rtol=1e-14)

    def test_monotone_decreasing(self):
        # stay where doubles still resolve the tail steps
        zs = np.linspace(-7.5, 7.5, 500)
        vals = [q_function(z) for z in zs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_float_in_float_out_and_elementwise_on_arrays(self):
        # a float stays a plain float, so repr-based CSV cells never read
        # np.float64(...)
        assert type(q_function(0.3)) is float
        assert type(q_function(np.float64(0.3))) is float
        zs = np.array([[-1.0, 0.0], [0.3, 2.0]])
        got = q_function(zs)
        assert isinstance(got, np.ndarray) and got.shape == zs.shape
        assert got.tolist() == [[q_function(z) for z in row] for row in zs.tolist()]


class TestQInverse:
    def test_center(self):
        assert q_inverse(0.5) == 0.0

    def test_round_trips(self):
        assert q_inverse(q_function(1.0)) == pytest.approx(1.0, rel=1e-12)
        assert q_inverse(q_function(-2.5)) == pytest.approx(-2.5, rel=1e-12)
        assert q_function(q_inverse(0.123)) == pytest.approx(0.123, rel=1e-12)

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                q_inverse(p)


class TestModelValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GaussianSensorModel(theta=1.0, sigma=0.0)
        with pytest.raises(ValueError):
            GaussianSensorModel(theta=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            GaussianSensorModel(theta=-1.0, sigma=1.0)

    @pytest.mark.parametrize("name", ["theta", "sigma"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_a_parameter_that_is_not_finite(self, name, value):
        fields = {"theta": 1.0, "sigma": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite and positive, "
                                             f"got {value!r}"):
            GaussianSensorModel(**fields)

    def test_snr(self):
        assert GaussianSensorModel(theta=2.0, sigma=4.0).snr == 0.5


class TestOperatingCurve:
    model = GaussianSensorModel(theta=1.0, sigma=1.0)

    def test_threshold_half(self):
        p = self.model.operating_point(0.5)
        assert p.pfa == pytest.approx(0.308538, abs=1e-6)
        assert p.pd == pytest.approx(0.691462, abs=1e-6)

    def test_extreme_thresholds_hit_corners(self):
        lo = self.model.operating_point(-60.0)
        hi = self.model.operating_point(60.0)
        assert (lo.pfa, lo.pd) == (1.0, 1.0)
        assert (hi.pfa, hi.pd) == (0.0, 0.0)

    def test_point_always_above_diagonal(self):
        for lam in np.linspace(-6, 6, 101):
            p = self.model.operating_point(lam)
            assert p.pd > p.pfa

    def test_coordinates_decrease_in_threshold(self):
        lams = np.linspace(-6, 6, 201)
        ops = [self.model.operating_point(lam) for lam in lams]
        for a, b in zip(ops, ops[1:]):
            assert b.pfa < a.pfa
            assert b.pd < a.pd

    def test_image_lies_on_lrt_curve(self):
        for lam in np.linspace(-5.5, 5.5, 111):
            p = self.model.operating_point(lam)
            assert self.model.lrt_curve(p.pfa) == pytest.approx(p.pd, abs=1e-10)

    def test_lrt_curve_values(self):
        assert self.model.lrt_curve(0.308538) == pytest.approx(0.691462, abs=1e-6)
        assert self.model.lrt_curve(0.5) == pytest.approx(
            q_function(-1.0), abs=1e-12
        )

    def test_lrt_curve_domain(self):
        for pfa in (0.0, 1.0):
            with pytest.raises(ValueError):
                self.model.lrt_curve(pfa)

    def test_vanishing_snr_collapses_to_diagonal(self):
        flat = GaussianSensorModel(theta=1e-12, sigma=1.0)
        for pfa in (0.05, 0.3, 0.7, 0.95):
            assert flat.lrt_curve(pfa) == pytest.approx(pfa, abs=1e-9)

    def test_curve_concave_and_above_diagonal(self):
        xs = np.linspace(0.005, 0.995, 199)
        ys = np.array([self.model.lrt_curve(x) for x in xs])
        assert np.all(ys > xs)
        mids = np.array(
            [self.model.lrt_curve(0.5 * (a + b)) for a, b in zip(xs, xs[2:])]
        )
        assert np.all(mids >= 0.5 * (ys[:-2] + ys[2:]) - 1e-12)


class TestMaxChannelDivergence:
    def test_matches_dense_grid_ideal_channel(self):
        lam_star, d_star = max_channel_divergence(
            GaussianSensorModel(1.0, 1.0), BscChannel(0.0)
        )
        grid_lam, grid_d = oracles.grid_max_channel_divergence(1.0, 1.0, 0.0)
        assert d_star == pytest.approx(grid_d, abs=1e-8)
        assert lam_star == pytest.approx(grid_lam, abs=1e-5)

    def test_destroyed_channel_flattens_divergence(self):
        _, d_star = max_channel_divergence(
            GaussianSensorModel(1.0, 1.0), BscChannel(0.499)
        )
        assert d_star < 1e-5

    def test_monotone_in_snr(self):
        _, d1 = max_channel_divergence(GaussianSensorModel(1.0, 1.0), BscChannel(0.0))
        _, d2 = max_channel_divergence(GaussianSensorModel(2.0, 1.0), BscChannel(0.0))
        _, grid_d2 = oracles.grid_max_channel_divergence(2.0, 1.0, 0.0)
        assert d2 > d1
        assert d2 == pytest.approx(grid_d2, abs=1e-8)

    @pytest.mark.parametrize("theta, sigma, rho, peak", [
        # peaks of the post-channel divergence: roots of dD/dt to 40 digits
        # (mpmath), rounded to 15; a grid of D itself stops on its flat top
        (20.762636435075184, 1.808658141988356, 0.4969503347867245, 10.3813143099192),
        (13.179987831149614, 1.1845296995828478, 0.4982019896591615, 6.58999299780667),
        (10.0, 1.0, 0.0, 1.2519481533853),
        (1.0, 1.0, 0.0, 0.205899787604524),
    ])
    def test_threshold_matches_the_high_precision_peak(self, theta, sigma, rho, peak):
        model, channel = GaussianSensorModel(theta, sigma), BscChannel(rho)
        lam, _ = max_channel_divergence(model, channel)
        assert abs(lam - peak) <= 1e-9

    @pytest.mark.parametrize("snr", [34.0, 37.0, 39.0])
    def test_high_snr_peak_matches_the_log_space_oracle(self, snr):
        # 1 - pd underflows below theta - 37 sigma; the bracket stops there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, d = max_channel_divergence(
                GaussianSensorModel(snr, 1.0), BscChannel(0.0))
        grid = lam + np.linspace(-1e-3, 1e-3, 2001)
        oracle = oracles.log_space_divergence(snr, 1.0, 0.0, grid)
        assert d == pytest.approx(oracles.log_space_divergence(snr, 1.0, 0.0, lam),
                                  rel=1e-10)
        assert oracle.max() <= d * (1.0 + 1e-10)
        if snr == 37.0:
            assert lam == pytest.approx(1.98979, abs=1e-5)
            assert d == pytest.approx(602.83395, abs=1e-5)

    @pytest.mark.parametrize("snr", [40.0, 50.0])
    def test_peak_beyond_the_raised_edge_is_refused(self, snr):
        model = GaussianSensorModel(snr, 1.0)
        assert model.threshold_bracket()[0] == snr - TAIL_SIGMAS
        assert all(type(edge) is float for edge in model.threshold_bracket())
        with pytest.raises(ValueError, match=f"snr {snr!r} is too high"):
            max_channel_divergence(model, BscChannel(0.0))

    def test_objective_is_single_peaked_on_grid(self):
        # quasi-concavity assumption behind the threshold maximizer
        model = GaussianSensorModel(1.0, 1.0)
        channel = BscChannel(0.05)
        lo, hi = model.threshold_bracket()
        lams = np.linspace(lo, hi, 10_000)
        x, y = oracles.lrt_ops(1.0, 1.0, lams)
        vals = oracles.kld(oracles.bsc(x, 0.05), oracles.bsc(y, 0.05))
        changes = count_direction_changes(list(vals), noise_floor=1e-13)
        assert changes <= 1


def prescan_grid(model):
    lo, hi = model.threshold_bracket()
    return lo + np.arange(PRESCAN_POINTS) * ((hi - lo) / (PRESCAN_POINTS - 1))


class TestObjectiveKernels:
    """The solver's array objective must equal the dataclass path on the
    pre-scan grid, and the pre-scan must refuse exactly the curves that
    are not single-peaked there."""

    @given(
        snr=st.floats(min_value=0.1, max_value=12.0),
        sigma=st.floats(min_value=0.5, max_value=2.0),
        rho=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.499)),
    )
    @settings(max_examples=200, deadline=None)
    def test_array_objective_and_prescan_match_scalar(self, snr, sigma, rho):
        model = GaussianSensorModel(snr * sigma, sigma)
        channel = BscChannel(rho)
        grid = prescan_grid(model)
        ops = [bsc_transform(model.operating_point(float(t)), channel) for t in grid]
        scalar = [kl_divergence(op) for op in ops]
        array = _channel_divergence(model.theta, sigma, rho, grid)
        # one tail kernel behind both paths: equal bit for bit
        assert np.array_equal(array, np.array(scalar))

        scale = max(1.0, max(abs(v) for v in scalar))
        refuses = oracles.count_direction_changes(scalar, 1e-12 * scale) > 2
        try:
            max_channel_divergence(model, channel)
        except UnimodalityError:
            assert refuses
        else:
            assert not refuses
