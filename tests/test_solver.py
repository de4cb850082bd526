"""Constrained threshold design: budget-gap structure, root finding, and the
designed optimum against brute-force grid oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secquant import (
    BscChannel,
    GaussianSensorModel,
    OperatingPoint,
    QuantizerDesign,
    SensorSite,
    blind_design,
    bsc_transform,
    design_quantizer,
    eve_divergence_gap,
    find_budget_thresholds,
    kl_divergence,
    max_eve_divergence,
    tradeoff_curve,
    unconstrained_design,
)
import secquant.solver
from secquant.search import count_direction_changes

import oracles


def make_site(theta=1.0, sigma=1.0, rho_fc=0.0, rho_e=0.1):
    return SensorSite(
        model=GaussianSensorModel(theta, sigma),
        fc_channel=BscChannel(rho_fc),
        eve_channel=BscChannel(rho_e),
    )


class TestDivergenceGap:
    def test_zero_budget_gap_is_divergence(self):
        site = make_site()
        for lam in (-2.0, 0.0, 0.5, 3.0):
            assert eve_divergence_gap(site, lam, 0.0) >= 0.0

    def test_tails_sink_to_minus_budget(self):
        site = make_site()
        lo, hi = site.model.threshold_bracket()
        assert eve_divergence_gap(site, hi, 0.1) == pytest.approx(-0.1, abs=1e-6)
        assert eve_divergence_gap(site, lo, 0.1) == pytest.approx(-0.1, abs=1e-6)

    def test_float_in_float_out_and_elementwise_on_arrays(self):
        site = make_site()
        assert type(eve_divergence_gap(site, 0.3, 0.1)) is float
        lams = np.linspace(-2.0, 3.0, 7)
        got = eve_divergence_gap(site, lams, 0.1)
        assert isinstance(got, np.ndarray) and got.shape == lams.shape
        alone = [eve_divergence_gap(site, lam, 0.1) for lam in lams.tolist()]
        assert got.tolist() == alone

    def test_matches_composition_on_grid(self):
        site = make_site()
        budget = 0.1
        for lam in np.linspace(-4, 4, 33):
            op = site.model.operating_point(lam)
            expected = (
                kl_divergence(bsc_transform(op, site.eve_channel)) - budget
            )
            assert eve_divergence_gap(site, lam, budget) == pytest.approx(
                expected, abs=1e-14
            )


class TestGapPeak:
    """The budget-gap peak sits at Eve's divergence peak; the budget only
    shifts its value."""

    def test_peak_matches_dense_grid(self):
        site = make_site()
        lam, d_eve_max = max_eve_divergence(site)
        grid_lam, grid_val = oracles.grid_max_channel_divergence(1.0, 1.0, 0.1)
        # the grid argmax itself is only located to one grid step
        step = (site.model.threshold_bracket()[1] - site.model.threshold_bracket()[0]) / 1e6
        assert lam == pytest.approx(grid_lam, abs=2 * step)
        assert d_eve_max == pytest.approx(grid_val, abs=1e-10)

    def test_blinded_eve_peak_sinks_to_minus_budget(self):
        site = make_site(rho_e=0.499)
        lam, d_eve_max = max_eve_divergence(site)
        assert eve_divergence_gap(site, lam, 0.2) == pytest.approx(-0.2, abs=1e-5)
        assert d_eve_max - 0.2 == pytest.approx(-0.2, abs=1e-5)


class TestBudgetThresholds:
    def test_budget_beyond_reach_gives_no_roots(self):
        site = make_site()
        _, ceiling = max_eve_divergence(site)
        assert find_budget_thresholds(site, ceiling + 0.01) == []

    def test_tangency_returns_single_root(self):
        site = make_site()
        peak, ceiling = max_eve_divergence(site)
        roots = find_budget_thresholds(site, ceiling)
        assert roots == [peak]

    def test_two_roots_match_grid_sign_changes(self):
        site = make_site()
        _, ceiling = max_eve_divergence(site)
        budget = 0.5 * ceiling
        roots = find_budget_thresholds(site, budget)
        assert len(roots) == 2
        lo, hi = site.model.threshold_bracket()
        lams = np.linspace(lo, hi, 1_000_000)
        x, y = oracles.lrt_ops(1.0, 1.0, lams)
        gap = oracles.kld(oracles.bsc(x, 0.1), oracles.bsc(y, 0.1)) - budget
        crossings = lams[np.flatnonzero(np.diff(np.sign(gap)) != 0)]
        assert len(crossings) == 2
        assert roots[0] == pytest.approx(crossings[0], abs=1e-5)
        assert roots[1] == pytest.approx(crossings[1], abs=1e-5)

    def test_roots_sit_on_the_constraint(self):
        site = make_site(theta=1.5, rho_fc=0.02, rho_e=0.12)
        _, ceiling = max_eve_divergence(site)
        for frac in (0.2, 0.5, 0.8):
            for root in find_budget_thresholds(site, frac * ceiling):
                assert abs(
                    eve_divergence_gap(site, root, frac * ceiling)
                ) <= 1e-10

    def test_gap_has_at_most_two_sign_changes(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            theta = rng.uniform(0.5, 3.0)
            rho_e = rng.uniform(0.01, 0.45)
            site = make_site(theta=theta, rho_e=rho_e)
            _, ceiling = max_eve_divergence(site)
            budget = rng.uniform(0.1, 0.9) * ceiling
            lo, hi = site.model.threshold_bracket()
            lams = np.linspace(lo, hi, 10_000)
            x, y = oracles.lrt_ops(theta, 1.0, lams)
            gap = oracles.kld(
                oracles.bsc(x, rho_e), oracles.bsc(y, rho_e)
            ) - budget
            signs = np.sign(gap)
            changes = int(np.count_nonzero(np.diff(signs) != 0))
            assert changes <= 2
            assert len(find_budget_thresholds(site, budget)) == changes

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            find_budget_thresholds(make_site(), 0.0)


class TestDesignQuantizer:
    def test_zero_budget_blinds_the_sensor(self):
        design = design_quantizer(make_site(), 0.0)
        assert design.d_fc == 0.0
        assert design.d_sensor == 0.0
        assert design.d_eve == 0.0
        assert design.binding
        assert math.isinf(design.threshold)
        assert (design.op.pfa, design.op.pd) == (0.0, 0.0)

    def test_loose_budget_reduces_to_unconstrained(self):
        site = make_site()
        _, ceiling = max_eve_divergence(site)
        free = unconstrained_design(site)
        capped = design_quantizer(site, ceiling + 1.0)
        assert capped.threshold == free.threshold
        assert capped.d_fc == free.d_fc
        assert not capped.binding

    def test_binding_design_sits_on_constraint(self):
        site = make_site()
        _, ceiling = max_eve_divergence(site)
        design = design_quantizer(site, 0.5 * ceiling)
        assert design.binding
        assert design.d_eve == pytest.approx(0.5 * ceiling, abs=1e-8)
        assert design.d_eve <= 0.5 * ceiling + 1e-9

    def test_design_point_stays_on_lrt_curve(self):
        site = make_site(theta=2.0, rho_fc=0.05, rho_e=0.2)
        _, ceiling = max_eve_divergence(site)
        for frac in (0.3, 0.6, 2.0):
            design = design_quantizer(site, frac * ceiling)
            assert site.model.lrt_curve(design.op.pfa) == pytest.approx(
                design.op.pd, abs=1e-8
            )

    def test_matches_brute_force_oracle(self):
        site = make_site()
        _, ceiling = max_eve_divergence(site)
        budget = 0.5 * ceiling
        design = design_quantizer(site, budget)
        brute = oracles.brute_force_constrained_max(1.0, 1.0, 0.0, 0.1, budget)
        assert design.d_fc == pytest.approx(brute, rel=1e-4)

    def test_monotone_in_budget(self):
        site = make_site(theta=1.2, rho_fc=0.01, rho_e=0.15)
        _, ceiling = max_eve_divergence(site)
        budgets = np.linspace(0.0, 1.2 * ceiling, 25)
        values = [design_quantizer(site, b).d_fc for b in budgets]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            design_quantizer(make_site(), -0.1)


crossover = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.499))


class TestBlindDesign:
    @pytest.mark.parametrize("snr", [0.1, 10.0])
    @pytest.mark.parametrize("rho", [0.0, 0.2, 0.49])
    @pytest.mark.parametrize("budget", [0.0, -0.0])
    def test_is_the_corner_at_plus_infinity(self, snr, rho, budget):
        design = blind_design(make_site(theta=snr, rho_fc=rho, rho_e=rho), budget)
        corner = QuantizerDesign(
            math.inf, OperatingPoint(0.0, 0.0), 0.0, 0.0, 0.0, True, budget
        )
        assert repr(design) == repr(corner)


class TestBudgetIsKept:
    @given(
        snr=st.floats(min_value=0.1, max_value=12.0),
        sigma=st.floats(min_value=0.5, max_value=2.0),
        rho_fc=crossover,
        rho_e=crossover,
        log_budget=st.floats(min_value=math.log(1e-12), max_value=math.log(3.2)),
    )
    @settings(max_examples=300, deadline=None)
    def test_design_never_leaks_past_its_budget(
        self, snr, sigma, rho_fc, rho_e, log_budget
    ):
        # at high SNR a crossing can lie where the false alarm alone is
        # already pinned to its corner, and the tiniest budgets lie below
        # the leakage at either bracket edge (the blind design's case)
        budget = math.exp(log_budget)
        site = make_site(snr * sigma, sigma, rho_fc, rho_e)
        design = design_quantizer(site, budget)
        assert design.d_eve <= budget + 1e-10 * max(1.0, budget)


def log_space_optimum(theta, sigma, rho_fc, rho_e, budgets, n=40_001):
    """Best log-space d_fc on a dense threshold grid over the package's
    bracket, among points whose log-space d_eve is within each budget."""
    lo, hi = GaussianSensorModel(theta, sigma).threshold_bracket()
    grid = np.linspace(lo, hi, n)
    d_fc = oracles.log_space_divergence(theta, sigma, rho_fc, grid)
    d_eve = oracles.log_space_divergence(theta, sigma, rho_e, grid)
    order = np.argsort(d_eve, kind="stable")
    best = np.concatenate(([0.0], np.maximum.accumulate(d_fc[order])))
    return best[np.searchsorted(d_eve[order], budgets, "right")]


class TestLogSpaceOracle:
    """Stored divergences against the log-space oracle, out to SNR 12 and
    noiseless channels, where a probability is within 1e-16 of 1."""

    @given(
        snr=st.floats(min_value=0.1, max_value=12.0),
        sigma=st.floats(min_value=0.5, max_value=2.0),
        rho_fc=crossover,
        rho_e=crossover,
        log_budget=st.floats(min_value=math.log(1e-6), max_value=math.log(3.2)),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_designs_and_peaks_match_the_oracle(
        self, snr, sigma, rho_fc, rho_e, log_budget
    ):
        site = make_site(snr * sigma, sigma, rho_fc, rho_e)
        theta = site.model.theta
        # a refused prescan raises UnimodalityError and fails the test
        free = unconstrained_design(site)
        eve_peak, _ = max_eve_divergence(site)
        bound = design_quantizer(site, math.exp(log_budget))
        for design in (free, bound):
            if math.isinf(design.threshold):
                continue
            for stored, rho in ((design.d_sensor, 0.0), (design.d_fc, rho_fc),
                                (design.d_eve, rho_e)):
                want = oracles.log_space_divergence(theta, sigma, rho, design.threshold)
                assert stored == pytest.approx(float(want), rel=1e-10, abs=1e-15)
        # a peak sits on a bracket edge only where the true one lies beyond
        lo, hi = site.model.threshold_bracket()
        wide = np.linspace(lo - 6.0 * sigma, hi + 6.0 * sigma, 20_001)
        for peak, rho in ((free.threshold, rho_fc), (eve_peak, rho_e)):
            if min(peak - lo, hi - peak) <= 1e-6 * (hi - lo):
                values = oracles.log_space_divergence(theta, sigma, rho, wide)
                assert not lo <= wide[np.argmax(values)] <= hi

    def test_high_snr_free_design(self):
        design = unconstrained_design(make_site(10.0, 1.0, 0.0, 0.1))
        assert design.threshold == pytest.approx(1.2519, abs=1e-4)
        assert design.d_fc == pytest.approx(36.6726, abs=1e-4)
        assert design.op.pd == 1.0 and 0.0 < design.op.pd_c < 1e-17

    def test_high_snr_binding_design_picks_and_stores_the_better_root(self):
        design = design_quantizer(make_site(10.0, 1.0, 0.0, 0.05), 0.01)
        assert design.threshold == pytest.approx(-1.7818, abs=1e-4)
        assert design.d_fc == pytest.approx(2.5622, abs=1e-4)

    def test_noiseless_fc_tradeoff_meets_the_oracle(self):
        theta, rho_e = 6.17, 0.1
        budgets = np.geomspace(1e-3, 3.0, 300)
        designs = tradeoff_curve(make_site(theta, 1.0, 0.0, rho_e), budgets.tolist())
        t = np.array([d.threshold for d in designs])
        d_fc = np.array([d.d_fc for d in designs])
        np.testing.assert_allclose(
            d_fc, oracles.log_space_divergence(theta, 1.0, 0.0, t), rtol=1e-10
        )
        best = log_space_optimum(theta, 1.0, 0.0, rho_e, budgets)
        assert np.all(d_fc >= best - 1e-9 * (1.0 + best))


class TestTradeoffCurve:
    def test_single_zero_budget(self):
        points = tradeoff_curve(make_site(), [0.0])
        assert len(points) == 1
        assert points[0].budget == 0.0
        assert points[0].d_fc == 0.0

    def test_saturates_at_unconstrained_value(self):
        site = make_site()
        _, ceiling = max_eve_divergence(site)
        free = unconstrained_design(site)
        points = tradeoff_curve(
            site, [0.5 * ceiling, ceiling + 0.1, ceiling + 0.5, ceiling + 2.0]
        )
        for p in points[1:]:
            assert p.d_fc == pytest.approx(free.d_fc, abs=1e-9)

    def test_solves_the_site_once_for_the_whole_sweep(self, solve_calls):
        site = make_site(rho_fc=0.01)
        budgets = list(np.geomspace(1e-3, 3.0, 300))
        points = tradeoff_curve(site, budgets)
        assert any(p.binding for p in points)
        assert not all(p.binding for p in points)
        theta, sigma = site.model.theta, site.model.sigma
        assert solve_calls == [
            (theta, sigma, site.fc_channel.crossover),
            (theta, sigma, site.eve_channel.crossover),
        ]
        # and each point is the design a lone call would return
        for p in points[::37]:
            assert p == design_quantizer(site, p.budget)

    def test_builds_one_design_per_budget(self, monkeypatch):
        built = []
        design = secquant.solver.QuantizerDesign

        def counted(*args):
            built.append(args)
            return design(*args)

        monkeypatch.setattr(secquant.solver, "QuantizerDesign", counted)
        points = tradeoff_curve(make_site(rho_fc=0.01), np.geomspace(1e-3, 3.0, 300))
        assert len(points) == len(built) == 300

    def test_keeps_each_budget_and_its_sign(self):
        site = make_site()
        points = tradeoff_curve(site, [-0.0, 0.0, 0.05])
        assert [repr(p.budget) for p in points] == ["-0.0", "0.0", "0.05"]
        assert repr(points[:2]) == repr([blind_design(site, b) for b in (-0.0, 0.0)])
        assert repr(points[2]) == repr(design_quantizer(site, 0.05))

    def test_monotone_nondecreasing_sweep(self):
        site = make_site()
        _, ceiling = max_eve_divergence(site)
        budgets = list(np.linspace(0.0, 1.5 * ceiling, 50))
        points = tradeoff_curve(site, budgets)
        values = [p.d_fc for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_descending_grid_rejected(self):
        with pytest.raises(ValueError):
            tradeoff_curve(make_site(), [0.2, 0.1])


class TestGapShape:
    def test_gap_is_single_peaked_along_thresholds(self):
        site = make_site()
        lo, hi = site.model.threshold_bracket()
        lams = np.linspace(lo, hi, 10_000)
        vals = [eve_divergence_gap(site, lam, 0.1) for lam in lams]
        assert count_direction_changes(vals, noise_floor=1e-13) <= 1


class TestDesignSearchCurve:
    @pytest.mark.parametrize("n_points", [0, 1])
    def test_refuses_fewer_than_two_points(self, n_points):
        with pytest.raises(ValueError, match="n_points must be at least 2"):
            secquant.solver.design_search_curve(make_site(), 0.1, n_points)
