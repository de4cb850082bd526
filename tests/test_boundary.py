"""Constraint-boundary calculus: slope and curvature closed forms against
finite differences of the traced level set, and the convexity certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secquant import (
    BscChannel,
    OperatingPoint,
    SingularPointError,
    bsc_transform,
    convexity_certificate,
    kl_divergence,
    trace_constraint_curve,
)
from secquant import boundary
from secquant.boundary import TRACE_TOL, _level_set
from secquant.search import bisect_root

import oracles


def frozen_slope(xe, ye):
    hi = (1 - xe) / (1 - ye)
    lo = xe / ye
    return (math.log(hi) - math.log(lo)) / (hi - lo)


class TestConstraintSlope:
    def test_ideal_channel_closed_form(self):
        got = _level_set(OperatingPoint(0.3, 0.7).tails, 0.0)[1]
        assert got == pytest.approx(frozen_slope(0.3, 0.7), abs=1e-12)
        assert got == pytest.approx(0.889663, abs=1e-6)

    def test_channel_then_slope(self):
        # a 0.1 channel maps (0.25, 0.75) onto (0.3, 0.7)
        got = _level_set(OperatingPoint(0.25, 0.75).tails, 0.1)[1]
        assert got == pytest.approx(0.889663, abs=1e-6)

    def test_near_diagonal_limit_is_one(self):
        got = _level_set(OperatingPoint(0.4, 0.4 + 1e-6).tails, 0.1)[1]
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_singular_on_diagonal(self):
        tails = OperatingPoint(0.4, 0.4).tails
        with pytest.raises(SingularPointError, match="onto the diagonal"):
            _level_set(tails, 0.1)


def sandwich(eve_tails):
    """``(1 - Y)/(1 - X) <= slope <= Y/X`` at Eve-side tails: the slope is the
    divided difference of the concave logarithm between X/Y and
    (1 - X)/(1 - Y), so by the mean value theorem it lies between the
    reciprocals of those ratios whenever pd >= pfa."""
    x, y, xc, yc = eve_tails
    return yc / xc, y / x


class TestSlopeBounds:
    def test_sandwich_at_random_points(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            x = rng.uniform(0.001, 0.95)
            y = rng.uniform(x + 0.001, 0.999)
            rho = rng.uniform(0.0, 0.45)
            op = OperatingPoint(x, y)
            lo, hi = sandwich(bsc_transform(op, BscChannel(rho)).tails)
            s = _level_set(op.tails, rho)[1]
            assert lo - 1e-12 <= s <= hi + 1e-12


def _fd_trace(x0, budget, rho, h):
    """Finite-difference slope/curvature of the oracle-traced level set."""
    ys = [oracles.trace_y(x0 + k * h, budget, rho) for k in (-1, 0, 1)]
    assert all(y is not None for y in ys)
    slope = (ys[2] - ys[0]) / (2 * h)
    curv = (ys[2] - 2 * ys[1] + ys[0]) / (h * h)
    return ys[1], slope, curv


class TestConstraintCurvature:
    def test_matches_traced_curve(self):
        budget, rho = 0.2, 0.1
        for x0 in (0.1, 0.2, 0.35):
            y0, fd_slope, fd_curv = _fd_trace(x0, budget, rho, 1e-4)
            tails = OperatingPoint(x0, y0).tails
            _, s, c = _level_set(tails, rho)
            assert s == pytest.approx(fd_slope, rel=1e-5)
            assert c == pytest.approx(fd_curv, rel=1e-4)

    def test_symmetric_point_finite_and_matches(self):
        # pick the abscissa whose boundary point is symmetric (x + y = 1)
        budget, rho = 0.15, 0.08
        lo, hi = 0.01, 0.49
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            y = oracles.trace_y(mid, budget, rho)
            if y is None or mid + y > 1.0:
                hi = mid
            else:
                lo = mid
        x0 = 0.5 * (lo + hi)
        y0, fd_slope, fd_curv = _fd_trace(x0, budget, rho, 1e-4)
        assert x0 + y0 == pytest.approx(1.0, abs=1e-3)
        tails = OperatingPoint(x0, y0).tails
        c = _level_set(tails, rho)[2]
        assert math.isfinite(c)
        assert c == pytest.approx(fd_curv, rel=1e-4)


def divergences(tails, channel=BscChannel(0.0)):
    """``kl_divergence`` of each point of a (4, n) tails array, seen through
    ``channel``, one point at a time through the public functions."""
    return np.array([kl_divergence(bsc_transform(OperatingPoint(*t), channel))
                     for t in tails.T.tolist()])


def point(trace, k):
    """The sensor operating point of lane ``k`` of a trace."""
    return OperatingPoint(*trace.tails[:, k].tolist())


class TestTrace:
    def test_passes_through_defining_point(self):
        eve = BscChannel(0.1)
        budget = kl_divergence(bsc_transform(OperatingPoint(0.25, 0.75), eve))
        trace = trace_constraint_curve(budget, eve, n_points=101)
        # 0.25 is on the 101-point grid
        x, y = trace.tails[:2]
        match = np.flatnonzero(np.abs(x - 0.25) < 1e-12)
        assert match.size == 1
        assert y[match[0]] == pytest.approx(0.75, abs=1e-8)

    def test_level_accuracy_everywhere(self):
        eve = BscChannel(0.1)
        trace = trace_constraint_curve(0.2, eve, n_points=301)
        assert trace.slope.size > 100
        assert np.all(np.abs(divergences(trace.eve_tails) - 0.2) <= TRACE_TOL)

    def test_noiseless_channel_keeps_only_points_on_the_level_set(self):
        # near x = 1 the root lies nearer to y = 1 than a float resolves;
        # those abscissae are dropped, not returned off the level set
        trace = trace_constraint_curve(5.0, BscChannel(0.0), n_points=600)
        assert 300 < trace.slope.size < 600
        assert np.all(np.abs(divergences(trace.eve_tails) - 5.0) <= TRACE_TOL)
        assert trace.tails[0, 0] == 0.0 and trace.slope[0] == math.inf

    def test_lanes_nearer_to_y_1_than_a_float_stop_early(self, monkeypatch):
        # such a lane ends once its bracket holds no float, not after every
        # root step; the trace keeps the same 475 points
        calls = []

        def counted(f, *args, **kwargs):
            return bisect_root(lambda y, lanes: calls.append(1) or f(y, lanes),
                               *args, **kwargs)

        monkeypatch.setattr(boundary, "bisect_root", counted)
        trace = trace_constraint_curve(1.0, BscChannel(0.0), n_points=512)
        assert len(calls) <= 60
        assert trace.slope.size == 475
        assert tuple(trace.tails[:2, -1].tolist()) == (
            0.9275929549902152, 0.9999999722256175)
        assert np.all(np.abs(divergences(trace.eve_tails) - 1.0) <= TRACE_TOL)

    def test_small_budget_hugs_diagonal(self):
        eve = BscChannel(0.1)
        x, y = trace_constraint_curve(1e-4, eve, n_points=51).tails[:2]
        gaps = y - x
        assert max(gaps) < 0.06
        assert min(gaps) > 0.0

    def test_slopes_within_bounds_along_trace(self):
        eve = BscChannel(0.1)
        trace = trace_constraint_curve(0.2, eve, n_points=200)
        lo, hi = sandwich(trace.eve_tails)
        assert np.all(lo - 1e-12 <= trace.slope)
        assert np.all(trace.slope <= hi + 1e-12)

    def test_budget_beyond_reach_gives_empty(self):
        eve = BscChannel(0.1)
        ceiling = kl_divergence(OperatingPoint(0.1, 0.9))  # best possible at rho=0.1
        trace = trace_constraint_curve(ceiling + 0.1, eve, n_points=64)
        assert trace.slope.size == 0
        assert trace.tails.shape == trace.eve_tails.shape == (4, 0)

    def test_partial_feasibility_prunes_grid(self):
        eve = BscChannel(0.05)
        trace = trace_constraint_curve(0.8, eve, n_points=200)
        assert 0 < trace.slope.size < 200

    def test_validation(self):
        with pytest.raises(ValueError):
            trace_constraint_curve(0.0, BscChannel(0.1), 10)
        with pytest.raises(ValueError):
            trace_constraint_curve(0.1, BscChannel(0.1), 1)

    def test_non_integral_point_count_rejected(self):
        # 2.5 points once laid a 3-point grid spaced 1/1.5, its last point
        # clipped to 1
        with pytest.raises(ValueError, match="n_points must be an integer, got 2.5"):
            trace_constraint_curve(0.1, BscChannel(0.1), 2.5)

    def test_sensor_divergence_convex_along_trace(self):
        # discrete second differences of the sensor and FC divergences
        # stay nonnegative along the boundary
        eve = BscChannel(0.1)
        trace = trace_constraint_curve(0.25, eve, n_points=400)
        xs = trace.tails[0]
        step = xs[1] - xs[0]
        # use only the uniformly spaced interior part of the grid
        uniform = np.abs(np.diff(xs) - step) < 1e-9
        for rho_fc in (0.0, 0.07):
            d = divergences(trace.tails, BscChannel(rho_fc))
            second = d[:-2] - 2 * d[1:-1] + d[2:]
            mask = uniform[:-1] & uniform[1:]
            assert np.all(second[mask] >= -1e-7)

    def test_closed_form_slope_matches_trace_differences(self):
        eve = BscChannel(0.12)
        trace = trace_constraint_curve(0.18, eve, n_points=500)
        xs, ys = trace.tails[:2]
        step = xs[1] - xs[0]
        for k in range(5, trace.slope.size - 5, 25):
            if abs(xs[k + 1] - xs[k] - step) > 1e-9 or abs(
                xs[k] - xs[k - 1] - step
            ) > 1e-9:
                continue
            fd = (ys[k + 1] - ys[k - 1]) / (xs[k + 1] - xs[k - 1])
            assert trace.slope[k] == pytest.approx(fd, rel=1e-5)


class TestOnePointCase:
    """Each lane of a trace is the one-point case of the array kernels that
    trace whole curves, bit for bit; the certificate returns Python floats."""

    @settings(max_examples=60, deadline=None)
    @given(
        budget=st.floats(1e-6, 5.0),
        rho=st.one_of(st.just(0.0), st.floats(0.0, 0.499)),
        n_points=st.integers(2, 600),
    )
    def test_traced_points_equal_the_one_point_functions(self, budget, rho, n_points):
        eve = BscChannel(rho)
        trace = trace_constraint_curve(budget, eve, n_points)
        lanes = zip(trace.eve_tails.T.tolist(), trace.slope.tolist(),
                    trace.curvature.tolist())
        for k, (eve_tails, traced_slope, curvature) in enumerate(lanes):
            op = point(trace, k)
            _, slope, curv = _level_set(op.tails, rho)
            assert traced_slope == slope
            assert curvature == curv
            assert OperatingPoint(*eve_tails) == bsc_transform(op, eve)

    def test_python_float_returns(self):
        op = OperatingPoint(0.2, 0.7)
        cert = convexity_certificate(op, BscChannel(0.05), BscChannel(0.1))
        assert all(type(v) is float for v in vars(cert).values())


#: The sensor-divergence certificate at three (x, y, rho_e) points, as
#: (t1, t2, t3, t4, second_derivative), recorded before the FC channel was
#: an argument: behind a noiseless FC channel it must come out bit for bit.
NOISELESS_FC_CERTIFICATES = {
    (0.2, 0.7, 0.1): (1.8189093819345912, 8.881784197001252e-16,
                      0.6960944460944464, 11.05323096586062, 2.368549492684418),
    (0.05, 0.3, 0.02): (-0.2085262200869138, 8.881784197001252e-16,
                        5.038157119635746, 192.8729426750335, 4.500368662417449),
    (0.4, 0.95, 0.3): (211.72804301776068, 3.552713678800501e-15,
                       -14.275574201203474, 65.31001007293455, 158.806445545767),
}

NOISELESS = BscChannel(0.0)


class TestConvexityCertificate:
    def test_t2_vanishes(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x = rng.uniform(0.01, 0.97)
            y = rng.uniform(x + 0.005, 0.995)
            rho = rng.uniform(0.005, 0.49)
            cert = convexity_certificate(OperatingPoint(x, y), NOISELESS, BscChannel(rho))
            assert abs(cert.t2) <= 1e-10

    def test_t4_nonnegative_above_diagonal(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            x = rng.uniform(0.01, 0.97)
            y = rng.uniform(x + 0.005, 0.995)
            rho = rng.uniform(0.005, 0.49)
            cert = convexity_certificate(OperatingPoint(x, y), NOISELESS, BscChannel(rho))
            assert cert.t4 >= -1e-10
            assert cert.second_derivative >= -1e-10

    def test_t4_nonnegative_wherever_eve_hears_worse(self):
        # rho_e > rho_fc: Eve's channel is the FC's followed by BSC(rho')
        rng = np.random.default_rng(25)
        for _ in range(2000):
            x = rng.uniform(0.01, 0.97)
            y = rng.uniform(x + 0.005, 0.995)
            rho_fc = rng.uniform(0.0, 0.45)
            rho_e = rng.uniform(rho_fc + 0.005, 0.49)
            cert = convexity_certificate(
                OperatingPoint(x, y), BscChannel(rho_fc), BscChannel(rho_e))
            assert abs(cert.t2) <= 1e-10
            assert cert.t4 >= -1e-10
            assert cert.second_derivative >= -1e-10

    def test_noiseless_fc_gives_the_sensor_certificate_bit_for_bit(self):
        for (x, y, rho), terms in NOISELESS_FC_CERTIFICATES.items():
            cert = convexity_certificate(OperatingPoint(x, y), NOISELESS, BscChannel(rho))
            assert tuple(vars(cert).values()) == terms

    def test_noisy_fc_is_the_noiseless_case_at_the_fc_image(self):
        # the cascade identity: BSC(rho_fc) then BSC(rho') is BSC(rho_e)
        op, fc, eve = OperatingPoint(0.2, 0.7), BscChannel(0.05), BscChannel(0.1)
        rho = (0.1 - 0.05) / (1.0 - 2.0 * 0.05)
        assert convexity_certificate(op, fc, eve) == convexity_certificate(
            bsc_transform(op, fc), NOISELESS, BscChannel(rho))
        assert bsc_transform(bsc_transform(op, fc), BscChannel(rho)).tails == (
            pytest.approx(bsc_transform(op, eve).tails, abs=1e-15))

    def test_middle_region_is_the_easy_case(self):
        # pd >= 1/2 and pfa + pd <= 1: both certificate pieces are
        # individually nonnegative
        rng = np.random.default_rng(23)
        for _ in range(300):
            y = rng.uniform(0.5, 0.99)
            x = rng.uniform(0.0, min(1.0 - y, y - 1e-6))
            cert = convexity_certificate(OperatingPoint(x, y), NOISELESS, BscChannel(0.1))
            assert cert.t4 >= 0.0

    def test_second_derivative_matches_trace(self):
        budget, rho = 0.2, 0.1
        h = 2.5e-4
        for x0 in (0.08, 0.2, 0.32):
            eve = BscChannel(rho)
            ys = [oracles.trace_y(x0 + k * h, budget, rho) for k in (-1, 0, 1)]
            ds = [
                oracles.kld(x0 + k * h, yk) for k, yk in zip((-1, 0, 1), ys)
            ]
            fd_second = (ds[2] - 2 * ds[1] + ds[0]) / (h * h)
            cert = convexity_certificate(OperatingPoint(x0, ys[1]), NOISELESS, eve)
            assert cert.second_derivative == pytest.approx(fd_second, rel=1e-3)

    def test_preconditions(self):
        with pytest.raises(SingularPointError):
            convexity_certificate(OperatingPoint(0.5, 0.4), NOISELESS, BscChannel(0.1))
        with pytest.raises(ValueError):
            convexity_certificate(OperatingPoint(0.2, 0.8), NOISELESS, NOISELESS)
        # rho_e = rho_fc leaves rho' = 0, refused as a noiseless Eve is
        with pytest.raises(ValueError, match="rho'"):
            convexity_certificate(OperatingPoint(0.2, 0.8), BscChannel(0.1), BscChannel(0.1))

    def test_eve_hearing_better_is_not_certified(self):
        with pytest.raises(ValueError, match=r"0\.02.*0\.05.*not certified"):
            convexity_certificate(OperatingPoint(0.2, 0.8), BscChannel(0.05), BscChannel(0.02))
