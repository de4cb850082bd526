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
    constraint_curvature,
    constraint_slope,
    convexity_certificate,
    kl_divergence,
    kl_divergence_grad_pd,
    roc_region,
    slope_bounds,
    trace_constraint_curve,
)
from secquant.boundary import TRACE_TOL

import oracles


def frozen_slope(xe, ye):
    hi = (1 - xe) / (1 - ye)
    lo = xe / ye
    return (math.log(hi) - math.log(lo)) / (hi - lo)


class TestConstraintSlope:
    def test_ideal_channel_closed_form(self):
        got = constraint_slope(OperatingPoint(0.3, 0.7), BscChannel(0.0))
        assert got == pytest.approx(frozen_slope(0.3, 0.7), abs=1e-12)
        assert got == pytest.approx(0.889663, abs=1e-6)

    def test_channel_then_slope(self):
        # a 0.1 channel maps (0.25, 0.75) onto (0.3, 0.7)
        got = constraint_slope(OperatingPoint(0.25, 0.75), BscChannel(0.1))
        assert got == pytest.approx(0.889663, abs=1e-6)

    def test_near_diagonal_limit_is_one(self):
        got = constraint_slope(OperatingPoint(0.4, 0.4 + 1e-6), BscChannel(0.1))
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_singular_on_diagonal(self):
        with pytest.raises(SingularPointError):
            constraint_slope(OperatingPoint(0.4, 0.4), BscChannel(0.1))
        with pytest.raises(SingularPointError):
            constraint_curvature(OperatingPoint(0.4, 0.4), BscChannel(0.1), 1.0)


class TestSlopeBounds:
    def test_ideal_channel(self):
        lo, hi = slope_bounds(OperatingPoint(0.3, 0.7), BscChannel(0.0))
        assert lo == pytest.approx(3.0 / 7.0, abs=1e-12)
        assert hi == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_diagonal_point(self):
        lo, hi = slope_bounds(OperatingPoint(0.5, 0.5), BscChannel(0.2))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_after_transform(self):
        lo, hi = slope_bounds(OperatingPoint(0.25, 0.75), BscChannel(0.1))
        assert lo == pytest.approx(0.3 / 0.7, abs=1e-12)
        assert hi == pytest.approx(0.7 / 0.3, abs=1e-12)

    def test_sandwich_at_random_points(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            x = rng.uniform(0.001, 0.95)
            y = rng.uniform(x + 0.001, 0.999)
            rho = rng.uniform(0.0, 0.45)
            op = OperatingPoint(x, y)
            ch = BscChannel(rho)
            lo, hi = slope_bounds(op, ch)
            s = constraint_slope(op, ch)
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
            op = OperatingPoint(x0, y0)
            s = constraint_slope(op, BscChannel(rho))
            c = constraint_curvature(op, BscChannel(rho), s)
            assert s == pytest.approx(fd_slope, rel=1e-5)
            assert c == pytest.approx(fd_curv, rel=1e-4)

    def test_symmetric_point_finite_and_matches(self):
        # pick the abscissa whose boundary point is symmetric (x + y = 1)
        budget, rho = 0.15, 0.08
        eve = BscChannel(rho)
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
        c = constraint_curvature(
            OperatingPoint(x0, y0), eve, constraint_slope(OperatingPoint(x0, y0), eve)
        )
        assert math.isfinite(c)
        assert c == pytest.approx(fd_curv, rel=1e-4)


class TestTrace:
    def test_passes_through_defining_point(self):
        eve = BscChannel(0.1)
        budget = kl_divergence(bsc_transform(OperatingPoint(0.25, 0.75), eve))
        points = trace_constraint_curve(budget, eve, n_points=101)
        # 0.25 is on the 101-point grid
        match = [p for p in points if abs(p.op.pfa - 0.25) < 1e-12]
        assert len(match) == 1
        assert match[0].op.pd == pytest.approx(0.75, abs=1e-8)

    def test_level_accuracy_everywhere(self):
        eve = BscChannel(0.1)
        points = trace_constraint_curve(0.2, eve, n_points=301)
        assert len(points) > 100
        for p in points:
            assert abs(kl_divergence(p.eve_op) - 0.2) <= TRACE_TOL

    def test_small_budget_hugs_diagonal(self):
        eve = BscChannel(0.1)
        points = trace_constraint_curve(1e-4, eve, n_points=51)
        gaps = [p.op.pd - p.op.pfa for p in points]
        assert max(gaps) < 0.06
        assert min(gaps) > 0.0

    def test_slopes_within_bounds_along_trace(self):
        eve = BscChannel(0.1)
        for p in trace_constraint_curve(0.2, eve, n_points=200):
            lo, hi = slope_bounds(p.op, eve)
            assert lo - 1e-12 <= p.slope <= hi + 1e-12

    def test_budget_beyond_reach_gives_empty(self):
        eve = BscChannel(0.1)
        ceiling = kl_divergence(OperatingPoint(0.1, 0.9))  # best possible at rho=0.1
        assert trace_constraint_curve(ceiling + 0.1, eve, n_points=64) == []

    def test_partial_feasibility_prunes_grid(self):
        eve = BscChannel(0.05)
        points = trace_constraint_curve(0.8, eve, n_points=200)
        assert 0 < len(points) < 200

    def test_validation(self):
        with pytest.raises(ValueError):
            trace_constraint_curve(0.0, BscChannel(0.1), 10)
        with pytest.raises(ValueError):
            trace_constraint_curve(0.1, BscChannel(0.1), 1)

    def test_sensor_divergence_convex_along_trace(self):
        # discrete second differences of the sensor and FC divergences
        # stay nonnegative along the boundary
        eve = BscChannel(0.1)
        points = trace_constraint_curve(0.25, eve, n_points=400)
        xs = np.array([p.op.pfa for p in points])
        step = xs[1] - xs[0]
        # use only the uniformly spaced interior part of the grid
        uniform = np.abs(np.diff(xs) - step) < 1e-9
        for rho_fc in (0.0, 0.07):
            ch = BscChannel(rho_fc)
            d = np.array(
                [kl_divergence(bsc_transform(p.op, ch)) for p in points]
            )
            second = d[:-2] - 2 * d[1:-1] + d[2:]
            mask = uniform[:-1] & uniform[1:]
            assert np.all(second[mask] >= -1e-7)

    def test_closed_form_slope_matches_trace_differences(self):
        eve = BscChannel(0.12)
        points = trace_constraint_curve(0.18, eve, n_points=500)
        xs = np.array([p.op.pfa for p in points])
        ys = np.array([p.op.pd for p in points])
        step = xs[1] - xs[0]
        for k in range(5, len(points) - 5, 25):
            if abs(xs[k + 1] - xs[k] - step) > 1e-9 or abs(
                xs[k] - xs[k - 1] - step
            ) > 1e-9:
                continue
            fd = (ys[k + 1] - ys[k - 1]) / (xs[k + 1] - xs[k - 1])
            assert points[k].slope == pytest.approx(fd, rel=1e-5)


class TestOnePointCase:
    """The public functions are the one-point case of the array kernels
    that trace whole curves, bit for bit, and return Python floats."""

    @settings(max_examples=60, deadline=None)
    @given(
        budget=st.floats(1e-6, 5.0),
        rho=st.one_of(st.just(0.0), st.floats(0.0, 0.499)),
        n_points=st.integers(2, 600),
    )
    def test_traced_points_equal_the_one_point_functions(self, budget, rho, n_points):
        eve = BscChannel(rho)
        for p in trace_constraint_curve(budget, eve, n_points):
            slope = constraint_slope(p.op, eve)
            assert p.slope == slope
            assert p.curvature == constraint_curvature(p.op, eve, slope)
            assert p.eve_op == bsc_transform(p.op, eve)

    def test_python_float_returns(self):
        op, eve = OperatingPoint(0.2, 0.7), BscChannel(0.1)
        point = trace_constraint_curve(0.2, eve, n_points=5)[0]
        cert = convexity_certificate(op, eve)
        values = [
            constraint_slope(op, eve),
            constraint_curvature(op, eve, 1.0),
            *slope_bounds(op, eve),
            *vars(cert).values(),
            point.slope,
            point.curvature,
            kl_divergence_grad_pd(op),
        ]
        assert all(type(v) is float for v in values)


class TestConvexityCertificate:
    def test_t2_vanishes(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x = rng.uniform(0.01, 0.97)
            y = rng.uniform(x + 0.005, 0.995)
            rho = rng.uniform(0.005, 0.49)
            cert = convexity_certificate(OperatingPoint(x, y), BscChannel(rho))
            assert abs(cert.t2) <= 1e-10

    def test_t4_nonnegative_above_diagonal(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            x = rng.uniform(0.01, 0.97)
            y = rng.uniform(x + 0.005, 0.995)
            rho = rng.uniform(0.005, 0.49)
            cert = convexity_certificate(OperatingPoint(x, y), BscChannel(rho))
            assert cert.t4 >= -1e-10
            assert cert.second_derivative >= -1e-10

    def test_middle_region_is_the_easy_case(self):
        # pd >= 1/2 and pfa + pd <= 1: both certificate pieces are
        # individually nonnegative
        rng = np.random.default_rng(23)
        for _ in range(300):
            y = rng.uniform(0.5, 0.99)
            x = rng.uniform(0.0, min(1.0 - y, y - 1e-6))
            op = OperatingPoint(x, y)
            assert roc_region(op) == "R2"
            cert = convexity_certificate(op, BscChannel(0.1))
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
            cert = convexity_certificate(OperatingPoint(x0, ys[1]), eve)
            assert cert.second_derivative == pytest.approx(fd_second, rel=1e-3)

    def test_preconditions(self):
        with pytest.raises(SingularPointError):
            convexity_certificate(OperatingPoint(0.5, 0.4), BscChannel(0.1))
        with pytest.raises(ValueError):
            convexity_certificate(OperatingPoint(0.2, 0.8), BscChannel(0.0))


class TestRegions:
    def test_every_upper_point_classified(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            x = rng.uniform(0.0, 1.0)
            y = rng.uniform(x, 1.0)
            region = roc_region(OperatingPoint(x, y))
            assert region in {"R1", "R2", "R3"}
            if region == "R1":
                assert y <= 0.5 and x + y <= 1.0
            elif region == "R2":
                assert y >= 0.5 and x + y <= 1.0
            else:
                assert y >= 0.5 and x + y >= 1.0

    def test_below_diagonal_rejected(self):
        with pytest.raises(ValueError):
            roc_region(OperatingPoint(0.8, 0.2))

