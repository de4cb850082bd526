"""Constrained threshold design: budget-gap structure, root finding, and the
designed optimum against brute-force grid oracles."""

import math

import numpy as np
import pytest

from secquant import (
    BscChannel,
    GaussianSensorModel,
    OperatingPoint,
    SensorSite,
    bsc_transform,
    design_quantizer,
    eve_divergence_gap,
    find_budget_thresholds,
    find_gap_peak,
    kl_divergence,
    max_eve_divergence,
    tradeoff_curve,
    unconstrained_design,
)
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
    def test_budget_only_shifts_the_peak_value(self):
        site = make_site()
        lam0, gap0 = find_gap_peak(site, 0.0)
        lam1, gap1 = find_gap_peak(site, 0.3)
        assert lam0 == lam1
        assert gap0 - gap1 == pytest.approx(0.3, abs=1e-12)

    def test_peak_matches_dense_grid(self):
        site = make_site()
        lam, _ = find_gap_peak(site, 0.1)
        grid_lam, grid_val = oracles.grid_max_channel_divergence(1.0, 1.0, 0.1)
        # the grid argmax itself is only located to one grid step
        step = (site.model.threshold_bracket()[1] - site.model.threshold_bracket()[0]) / 1e6
        assert lam == pytest.approx(grid_lam, abs=2 * step)
        _, d_eve_max = max_eve_divergence(site)
        assert d_eve_max == pytest.approx(grid_val, abs=1e-10)

    def test_blinded_eve_peak_sinks_to_minus_budget(self):
        site = make_site(rho_e=0.499)
        _, gap = find_gap_peak(site, 0.2)
        assert gap == pytest.approx(-0.2, abs=1e-5)


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


class TestTradeoffCurve:
    def test_single_zero_budget(self):
        points = tradeoff_curve(make_site(), [0.0])
        assert len(points) == 1
        assert points[0].budget == 0.0
        assert points[0].d_fc_max == 0.0

    def test_saturates_at_unconstrained_value(self):
        site = make_site()
        _, ceiling = max_eve_divergence(site)
        free = unconstrained_design(site)
        points = tradeoff_curve(
            site, [0.5 * ceiling, ceiling + 0.1, ceiling + 0.5, ceiling + 2.0]
        )
        for p in points[1:]:
            assert p.d_fc_max == pytest.approx(free.d_fc, abs=1e-9)

    def test_solves_the_site_once_for_the_whole_sweep(self, solve_calls):
        site = make_site(rho_fc=0.01)
        budgets = list(np.geomspace(1e-3, 3.0, 300))
        points = tradeoff_curve(site, budgets)
        assert any(p.design.binding for p in points)
        assert not all(p.design.binding for p in points)
        assert solve_calls == [
            (site.model, site.fc_channel), (site.model, site.eve_channel)
        ]
        # and each point is the design a lone call would return
        for p in points[::37]:
            assert p.design == design_quantizer(site, p.budget)

    def test_monotone_nondecreasing_sweep(self):
        site = make_site()
        _, ceiling = max_eve_divergence(site)
        budgets = list(np.linspace(0.0, 1.5 * ceiling, 50))
        points = tradeoff_curve(site, budgets)
        values = [p.d_fc_max for p in points]
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
