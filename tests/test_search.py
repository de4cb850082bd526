"""Search primitives: the array-based direction count against its loop
reference, the maximizer and bisection against oracles, and the
independence of a lane from the rest of its batch."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secquant import (BscChannel, GaussianSensorModel, SensorSite, UnimodalityError,
                      gaussian, solver)
from secquant.gaussian import _max_channel_divergences
from secquant.search import (PRESCAN_LANES, PRESCAN_POINTS, bisect_root,
                             count_direction_changes, unimodal_max)
from secquant.solver import _budget_thresholds, _site_columns

import oracles

values = st.lists(
    st.one_of(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        st.sampled_from([0.0, 1e-13, -1e-13, math.nan]),
    ),
    max_size=60,
)


class TestCountDirectionChanges:
    @given(vals=values, floor=st.sampled_from([0.0, 1e-13, 1e-12, 0.3]))
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_reference(self, vals, floor):
        expected = oracles.count_direction_changes(vals, floor)
        assert count_direction_changes(vals, floor) == expected
        assert count_direction_changes(np.array(vals, dtype=float), floor) == expected

    def test_steps_at_the_floor_are_ignored(self):
        assert count_direction_changes([0.0, 1.0, 1.0 - 1e-12, 2.0], 1e-12) == 0
        assert count_direction_changes([0.0, 1.0, 0.5, 2.0], 1e-12) == 2

    def test_short_inputs(self):
        assert count_direction_changes([], 0.0) == 0
        assert count_direction_changes([1.0], 0.0) == 0


def quadratic(center, scale):
    """Lanes of ``-scale * (x - center)**2`` and their slope: single-peaked,
    with the peak at ``center`` or, when that lies outside the bracket, at
    its edge."""
    center = np.asarray(center, dtype=float)[:, None]
    scale = np.asarray(scale, dtype=float)[:, None]

    def f(x, lanes):
        return -scale[lanes] * (x - center[lanes]) ** 2

    def slope(x, lanes):
        return -2.0 * scale[lanes] * (x - center[lanes])

    return f, slope


def channel_lanes(snr, sigma, rho):
    models = [GaussianSensorModel(t * s, s) for t, s in zip(snr, sigma)]
    return models, [BscChannel(r) for r in rho]


lane_params = st.tuples(
    st.floats(min_value=0.1, max_value=12.0),
    st.floats(min_value=0.5, max_value=2.0),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.499)),
    st.floats(min_value=0.01, max_value=0.99),
)


class TestUnimodalMax:
    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(5)
        n = 12
        lo = rng.uniform(-5.0, 0.0, n)
        hi = lo + rng.uniform(0.5, 8.0, n)
        # the last three peaks lie beyond a bracket edge or exactly on one
        center = rng.uniform(lo, hi)
        center[-3:] = [lo[-3] - 1.0, hi[-2] + 2.0, hi[-1]]
        scale = rng.uniform(0.1, 10.0, n)
        f, slope = quadratic(center, scale)
        x_star, f_star = unimodal_max(f, slope, lo, hi, "quadratic")
        for i in range(n):
            grid = np.linspace(lo[i], hi[i], 400_001)
            values = f(grid[None, :], np.array([i]))[0]
            k = int(np.argmax(values))
            assert abs(x_star[i] - grid[k]) <= grid[1] - grid[0]
            assert f_star[i] >= values[k]
            assert abs(x_star[i] - np.clip(center[i], lo[i], hi[i])) <= 1e-9
            assert f_star[i] == f(np.array([[x_star[i]]]), np.array([i]))[0, 0]

    def test_bimodal_lane_raises(self):
        center = np.array([0.0, 0.0])

        def f(x, lanes):
            # lane 1 has two peaks, at -1 and 1
            single = -((x - center[lanes, None]) ** 2)
            double = -np.minimum((x - 1.0) ** 2, (x + 1.0) ** 2)
            return np.where(lanes[:, None] == 1, double, single)

        def slope(x, lanes):
            peak = np.where(lanes[:, None] == 1, np.sign(x), center[lanes, None])
            return -2.0 * (x - peak)

        with pytest.raises(UnimodalityError):
            unimodal_max(f, slope, [-3.0, -3.0], [3.0, 3.0], "two bumps")

    def test_bimodal_lane_past_the_first_prescan_batch_raises(self):
        cases = (
            # 70 brackets, one per lane: lane 40 sits past the first calls
            (np.arange(70), [40]),
            # three brackets, interleaved lane by lane, and a bimodal lane in
            # each: whatever order the brackets are scanned in, lane 40 is named
            (np.arange(70) % 3, [40, 41, 42]),
        )
        for step, bimodal in cases:
            lo, hi = -3.0 - 0.01 * step, 3.0 + 0.01 * step

            def f(x, lanes):
                double = -np.minimum((x - 1.0) ** 2, (x + 1.0) ** 2)
                return np.where(np.isin(lanes, bimodal)[:, None], double, -(x**2))

            def slope(x, lanes):
                peak = np.where(np.isin(lanes, bimodal)[:, None], np.sign(x), 0.0)
                return -2.0 * (x - peak)

            bracket = re.escape(f"[{float(lo[40])!r}, {float(hi[40])!r}]")
            with pytest.raises(UnimodalityError, match=bracket):
                unimodal_max(f, slope, lo, hi, "two bumps")

    def test_no_lanes(self):
        x_star, f_star = unimodal_max(*quadratic([], []), [], [], "none")
        assert x_star.shape == f_star.shape == (0,)


class TestBisectRoot:
    def test_matches_analytic_roots(self):
        rng = np.random.default_rng(9)
        roots = rng.uniform(-2.0, 2.0, 40)
        # monotone increasing in x with its only zero at the lane's root
        def f(x, lanes):
            return (x - roots[lanes, None]) * (1.0 + x**2)

        lo, hi = np.full(40, -3.0), np.full(40, 3.0)
        every = np.arange(40)
        f_lo = f(lo[:, None], every)[:, 0]
        f_hi = f(hi[:, None], every)[:, 0]
        found = bisect_root(f, lo, hi, f_lo, f_hi, f_tol=0.0, x_tol=1e-12)
        assert np.all(np.abs(found - roots) <= 1e-12)

    def test_zero_endpoints_and_sign_check(self):
        def f(x, lanes):
            return x

        found = bisect_root(f, [0.0, -1.0], [1.0, 0.0], [0.0, -1.0], [1.0, 0.0])
        assert found.tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="opposite sign"):
            bisect_root(f, [0.0, 1.0], [1.0, 2.0], [-1.0, 1.0], [1.0, 2.0])

    def test_stops_on_the_iteration_cap_at_the_last_trial_point(self):
        # false position on x**2 - 1/2 over [0, 1] tries 1/2, then 2/3; lo
        # has then moved twice, so hi's value is halved (Illinois) and the
        # third point is 8/11, not the plain false-position point 7/10
        def f(x, lanes):
            return x**2 - 0.5

        for cap, last in ((1, 1 / 2), (2, 2 / 3), (3, 8 / 11)):
            found = bisect_root(f, [0.0], [1.0], [-0.5], [0.5], f_tol=0.0,
                                x_tol=0.0, max_iter=cap)
            assert found.tolist() == pytest.approx([last], rel=1e-15)

    def test_infinite_endpoint_value_takes_the_midpoint(self):
        def f(x, lanes):
            return x - 0.3

        found = bisect_root(f, [0.0], [1.0], [-0.3], [math.inf], f_tol=0.0,
                            x_tol=0.0, max_iter=1)
        assert found.tolist() == [0.5]

    def test_lane_without_an_inner_float_stops(self):
        # the sign changes between two adjacent floats, where |f| never
        # meets f_tol: one trial point, not max_iter of them
        calls = []

        def f(x, lanes):
            calls.append(x.shape)
            return np.where(x > 1.0, 1.0, -1.0)

        above = math.nextafter(1.0, 2.0)
        found = bisect_root(f, [1.0], [above], [-1.0], [1.0], f_tol=0.0, x_tol=0.0)
        assert len(calls) == 1
        assert found.tolist()[0] in (1.0, above)

    def test_budget_batch_takes_few_root_steps(self, monkeypatch):
        # 300 budgets over one site: every crossing is found in one batch,
        # whose longest lane sets the number of objective calls
        calls = []

        def counted(f, *args, **kwargs):
            def f_counted(x, lanes):
                calls.append(x.shape)
                return f(x, lanes)

            return bisect_root(f_counted, *args, **kwargs)

        monkeypatch.setattr(solver, "bisect_root", counted)
        site = SensorSite(GaussianSensorModel(1.0, 1.0), BscChannel(0.02),
                          BscChannel(0.1))
        roots = _budget_thresholds(_site_columns([site] * 300), np.geomspace(1e-3, 3.0, 300))
        assert np.count_nonzero(~np.isnan(roots)) > 300
        assert len(calls) <= 30


generic_lane = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=-0.2, max_value=1.2),
    st.floats(min_value=0.1, max_value=10.0),
)


class TestLaneIndependence:
    @given(lanes=st.lists(generic_lane, min_size=1, max_size=70),
           pick=st.integers(min_value=0))
    @settings(max_examples=60, deadline=None)
    def test_generic_lane_in_a_batch_equals_the_lane_alone(self, lanes, pick):
        # brackets spanning nine decades need different numbers of steps
        lo, width, where, scale = (np.array(v) for v in zip(*lanes))
        hi, center = lo + width, lo + where * width
        i = pick % len(lanes)
        one = slice(i, i + 1)
        batch = unimodal_max(*quadratic(center, scale), lo, hi, "quadratic")
        alone = unimodal_max(
            *quadratic(center[one], scale[one]), lo[one], hi[one], "quadratic"
        )
        assert batch[0][i].tobytes() == alone[0][0].tobytes()
        assert batch[1][i].tobytes() == alone[1][0].tobytes()

        def line(x, sub):
            return (x - center[sub, None]) * scale[sub, None]

        a, b = center - width, center + 0.5 * width
        every = np.arange(len(lanes))
        f_a, f_b = line(a[:, None], every)[:, 0], line(b[:, None], every)[:, 0]
        roots = bisect_root(line, a, b, f_a, f_b, f_tol=0.0, x_tol=1e-9)
        root = bisect_root(
            lambda x, sub: line(x, sub + i), a[one], b[one], f_a[one], f_b[one],
            f_tol=0.0, x_tol=1e-9,
        )
        assert roots[i].tobytes() == root[0].tobytes()

    @given(lanes=st.lists(lane_params, min_size=1, max_size=5),
           pick=st.integers(min_value=0))
    @settings(max_examples=40, deadline=None)
    def test_lane_in_a_mixed_batch_equals_the_lane_alone(self, lanes, pick):
        snr, sigma, rho, fraction = zip(*lanes)
        models, channels = channel_lanes(snr, sigma, rho)
        sites = [SensorSite(m, BscChannel(0.0), c) for m, c in zip(models, channels)]
        columns = _site_columns(sites)
        i = pick % len(lanes)
        one = slice(i, i + 1)
        batch = _max_channel_divergences(*columns[[0, 1, 3]])
        alone = _max_channel_divergences(*columns[[0, 1, 3], one])
        assert batch[0][i].tobytes() == alone[0][0].tobytes()
        assert batch[1][i].tobytes() == alone[1][0].tobytes()

        # the budget crossings of each lane, bisected in one batch
        budgets = np.array(fraction) * batch[1]
        together = _budget_thresholds(columns, budgets)
        lone = _budget_thresholds(columns[:, one], budgets[one])
        assert together[:, i].tobytes() == lone[:, 0].tobytes()

    def test_lane_among_interleaved_models_equals_the_lane_alone(self):
        # 25 crossovers from 0 to 0.49 cycle through three models, two of
        # them at SNR 2 with different sigma; then through two models, at SNR
        # 1e-16 and 4e-16, whose brackets round to the same pair, so calls on
        # one shared grid row hold lanes of both
        twins = [GaussianSensorModel(1e-16, 1.0), GaussianSensorModel(4e-16, 1.0)]
        assert twins[0].threshold_bracket() == twins[1].threshold_bracket()
        three = [GaussianSensorModel(*m) for m in ((2.0, 1.0), (1.0, 0.5), (0.7, 1.3))]
        rho = np.linspace(0.0, 0.49, 25).tolist()
        for models in (three, twins):
            lanes = [(models[k % len(models)], BscChannel(r)) for k, r in enumerate(rho)]
            columns = np.array([(m.theta, m.sigma, c.crossover) for m, c in lanes]).T
            thresholds, divergences = _max_channel_divergences(*columns)
            for k in range(len(lanes)):
                (t,), (d,) = _max_channel_divergences(*columns[:, k:k + 1])
                assert (thresholds[k], divergences[k]) == (t, d)

    def test_prescan_takes_one_q_row_per_call_of_one_model(self, monkeypatch):
        # 500 lanes of one model: each of the ceil(500 / PRESCAN_LANES)
        # pre-scan calls evaluates the Q pair on its one grid row, 2 x 1 024
        # points, not on one row per lane
        rows = []

        def counted(z):
            rows.append(np.shape(z))
            return q_tails(z)

        q_tails = gaussian._q_tails
        monkeypatch.setattr(gaussian, "_q_tails", counted)
        rho = np.linspace(0.0, 0.1, 500)
        _max_channel_divergences(np.ones(500), np.ones(500), rho)
        prescan = [shape for shape in rows if shape[-1] == PRESCAN_POINTS]
        calls = -(-500 // PRESCAN_LANES)
        assert prescan == [(2, 1, PRESCAN_POINTS)] * calls
