"""Greedy network allocation: per-sensor optima, quality ordering, budget
feasibility, and an exhaustive same-policy oracle at small network sizes."""

import itertools
import json
import math

import numpy as np
import pytest

from secquant import cli
from secquant import (
    BscChannel,
    GaussianSensorModel,
    NetworkConfig,
    SensorSite,
    allocate,
    design_quantizer,
    growth_curve,
    kl_divergence,
    quality_ratio,
    sample_sites,
    unconstrained_design,
)

from secquant.solver import blind_design

import oracles


def site_of(rho_fc, rho_e, theta=1.0):
    return SensorSite(
        model=GaussianSensorModel(theta, 1.0),
        fc_channel=BscChannel(rho_fc),
        eve_channel=BscChannel(rho_e),
    )


HETERO_SITES = (
    site_of(0.002, 0.08, theta=1.0),
    site_of(0.01, 0.02, theta=1.4),
    site_of(0.0, 0.15, theta=0.8),
    site_of(0.005, 0.05, theta=1.1),
)


class TestUnconstrainedOptimum:
    def test_identical_channels_leak_everything(self):
        design = unconstrained_design(site_of(0.1, 0.1))
        assert design.d_fc == pytest.approx(design.d_eve, abs=1e-12)

    def test_blinded_eve_leaks_nothing(self):
        assert unconstrained_design(site_of(0.0, 0.499)).d_eve < 1e-4

    def test_matches_grid_oracle(self):
        design = unconstrained_design(site_of(0.0, 0.1))
        _, grid_fc = oracles.grid_max_channel_divergence(1.0, 1.0, 0.0)
        assert design.d_fc == pytest.approx(grid_fc, abs=1e-8)
        x, y = oracles.lrt_ops(1.0, 1.0, design.threshold)
        assert design.d_eve == pytest.approx(
            float(oracles.kld(oracles.bsc(x, 0.1), oracles.bsc(y, 0.1))),
            abs=1e-10,
        )


class TestQualityRatio:
    def test_identical_channels_score_one(self):
        assert quality_ratio(site_of(0.07, 0.07)) == pytest.approx(1.0, abs=1e-10)

    def test_noisier_eve_scores_above_one(self):
        assert quality_ratio(site_of(0.01, 0.2)) > 1.0

    def test_nearly_deaf_eve_scores_large(self):
        assert quality_ratio(site_of(0.0, 0.499)) > 100.0

    def test_deaf_eve_scores_infinite(self):
        # a channel this close to 1/2 pushes Eve's divergence below the
        # sentinel floor
        assert math.isinf(quality_ratio(site_of(0.0, 0.5 - 1e-13)))


class TestAllocate:
    def test_zero_budget_sleeps_everyone(self):
        result = allocate(NetworkConfig(sites=HETERO_SITES, alpha_total=0.0))
        assert result.active_count == 0
        assert result.total_d_fc == 0.0
        assert result.total_d_eve == 0.0
        assert all(not rec.active for rec in result.per_sensor)
        assert all(rec.alpha_i == 0.0 for rec in result.per_sensor)

    def test_loose_budget_funds_everyone_fully(self):
        stars = [unconstrained_design(s) for s in HETERO_SITES]
        total_star_eve = sum(s.d_eve for s in stars)
        result = allocate(
            NetworkConfig(sites=HETERO_SITES, alpha_total=total_star_eve + 1.0)
        )
        assert result.active_count == len(HETERO_SITES)
        assert result.total_d_fc == pytest.approx(
            sum(s.d_fc for s in stars), abs=1e-9
        )
        assert all(not rec.design.binding for rec in result.per_sensor)

    def test_feasibility_and_ordering(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            sites = tuple(
                site_of(rng.uniform(0, 0.01), rng.uniform(0.005, 0.1))
                for _ in range(n)
            )
            alpha = float(rng.uniform(0.0, 0.4))
            result = allocate(NetworkConfig(sites=sites, alpha_total=alpha))
            assert result.total_d_eve <= alpha + 1e-9
            assert math.fsum(r.alpha_i for r in result.per_sensor) <= alpha + 1e-9
            processed = sorted(
                result.per_sensor, key=lambda r: (-r.quality, r.index)
            )
            quals = [r.quality for r in processed]
            assert all(a >= b for a, b in zip(quals, quals[1:]))

    def test_at_most_one_partial_sensor(self):
        result = allocate(NetworkConfig(sites=HETERO_SITES, alpha_total=0.2))
        partial = [
            rec
            for rec in result.per_sensor
            if rec.active and rec.alpha_i < rec.d_eve_star - 1e-12
        ]
        assert len(partial) <= 1
        if partial:
            assert partial[0].design.binding

    def test_linear_separability_of_totals(self):
        result = allocate(NetworkConfig(sites=HETERO_SITES, alpha_total=0.25))
        running = 0.0
        for rec in result.per_sensor:
            if rec.active:
                running += rec.design.d_fc
        assert result.total_d_fc == pytest.approx(running, abs=1e-12)

    def test_inactive_sensors_contribute_nothing(self):
        result = allocate(NetworkConfig(sites=HETERO_SITES, alpha_total=0.05))
        for rec in result.per_sensor:
            if not rec.active:
                assert rec.design.d_fc == 0.0
                assert rec.design.d_eve == 0.0

    @pytest.mark.parametrize(
        "n, seed, alpha", [(40, 1, 1.0), (40, 2, 0.3), (200, 3, 10.0), (500, 20248, 50.0)]
    )
    def test_batch_designs_equal_the_per_site_api(self, n, seed, alpha):
        # the allocator designs every sensor in batches; each record must be
        # exactly the design the per-site API gives that sensor
        sites = sample_sites(n, seed=seed)
        result = allocate(NetworkConfig(sites=sites, alpha_total=alpha))
        for rec, site in zip(result.per_sensor, sites):
            free = unconstrained_design(site)
            assert (rec.quality, rec.d_fc_star, rec.d_eve_star) == (
                quality_ratio(site), free.d_fc, free.d_eve)
            if not rec.active:
                assert rec.design == blind_design(site)
            elif rec.alpha_i < free.d_eve:
                assert rec.design == design_quantizer(site, rec.alpha_i)
            else:
                assert rec.design == free

    def test_benchmark_dominates_with_ideal_channels(self):
        result = allocate(
            NetworkConfig(
                sites=HETERO_SITES, alpha_total=0.2, benchmark_ideal_fc=True
            )
        )
        assert result.benchmark_d_fc is not None
        assert result.benchmark_d_fc >= result.total_d_fc - 1e-12
        # same designs re-evaluated: benchmark equals the sensor divergences
        expected = math.fsum(
            kl_divergence(rec.design.op)
            for rec in result.per_sensor
            if rec.active
        )
        assert result.benchmark_d_fc == pytest.approx(expected, abs=1e-12)


def same_policy_allocation(sites, order, alpha):
    """The sequential funding policy applied to an explicit ordering: the
    running FC, Eve and sensor-side totals, and each funded sensor's share."""
    remaining = alpha
    total_fc = 0.0
    total_eve = 0.0
    total_sensor = 0.0
    shares = {}
    for i in order:
        if remaining <= 1e-9:
            continue
        design = unconstrained_design(sites[i])
        if remaining >= design.d_eve:
            shares[i] = design.d_eve
        else:
            design = design_quantizer(sites[i], remaining)
            shares[i] = remaining
        remaining = max(remaining - shares[i], 0.0)
        total_fc += design.d_fc
        total_eve += design.d_eve
        total_sensor += design.d_sensor
    return total_fc, total_eve, total_sensor, shares


class TestExhaustiveSmallNetworkOracle:
    def test_greedy_matches_its_ordering_branch_exactly(self):
        alpha = 0.5 * sum(
            unconstrained_design(s).d_eve for s in HETERO_SITES
        )
        result = allocate(NetworkConfig(sites=HETERO_SITES, alpha_total=alpha))

        greedy_order = tuple(
            sorted(
                range(len(HETERO_SITES)),
                key=lambda i: (-quality_ratio(HETERO_SITES[i]), i),
            )
        )
        branch_results = {}
        for order in itertools.permutations(range(len(HETERO_SITES))):
            total_fc, total_eve, _, _ = same_policy_allocation(
                HETERO_SITES, order, alpha
            )
            assert total_eve <= alpha + 1e-9
            branch_results[order] = total_fc

        assert result.total_d_fc == branch_results[greedy_order]

    def test_budget_grid_splits_stay_feasible(self):
        alpha = 0.3
        steps = 200
        sites = HETERO_SITES[:3]
        best = -1.0
        for a1 in range(0, steps + 1, 8):
            for a2 in range(0, steps + 1 - a1, 8):
                b1 = alpha * a1 / steps
                b2 = alpha * a2 / steps
                b3 = max(alpha - b1 - b2, 0.0)
                total_fc = 0.0
                total_eve = 0.0
                for site, b in zip(sites, (b1, b2, b3)):
                    design = design_quantizer(site, b)
                    total_fc += design.d_fc
                    total_eve += design.d_eve
                # one binding tolerance per sensor
                assert total_eve <= alpha + 3e-8
                best = max(best, total_fc)
        greedy = allocate(NetworkConfig(sites=sites, alpha_total=alpha))
        # the grid explores arbitrary splits; the greedy split is one
        # feasible policy, so it cannot beat the grid by more than the
        # grid's own resolution
        assert greedy.total_d_eve <= alpha + 1e-9
        assert best > 0.0


class TestSampledNetworks:
    def test_sampling_is_deterministic_and_prefix_stable(self):
        sites_a = sample_sites(10, seed=42)
        sites_b = sample_sites(10, seed=42)
        sites_c = sample_sites(6, seed=42)
        assert sites_a == sites_b
        assert sites_a[:6] == sites_c

    @pytest.mark.parametrize("field", ["fc_crossover_high", "eve_crossover_high"])
    @pytest.mark.parametrize("high", [0.6, 0.5 + 1e-12, -0.01, math.nan])
    def test_crossover_high_outside_half_raises_naming_it(self, field, high):
        # seed 0's first draw keeps a 0.6 high below 0.5, seed 4's does
        # not: the bound is checked before any draw, so every seed refuses it
        for seed in (0, 4):
            with pytest.raises(ValueError, match=f"{field} must lie in \\[0, 0.5\\]"):
                sample_sites(1, seed, **{field: high})

    def test_crossover_high_of_half_draws_valid_channels(self):
        sites = sample_sites(200, 4, fc_crossover_high=0.5, eve_crossover_high=0.5)
        crossovers = [(s.fc_channel.crossover, s.eve_channel.crossover) for s in sites]
        assert 0.0 <= np.min(crossovers) and np.max(crossovers) < 0.5

    def test_growth_curve_feasible_and_leakage_monotone(self):
        # total_d_fc monotonicity is a property of the experiment regime,
        # not of ratio-greedy in general: a cheap high-ratio insert can
        # displace budget from a partially funded sensor whose marginal
        # value is steeper, trading the total down; the full-scale
        # experiment regime is covered by the acceptance suite
        sites = sample_sites(40, seed=3)
        points = growth_curve(sites, alpha_total=1.5, n_grid=list(range(2, 41, 2)))
        eve = [p.total_d_eve for p in points]
        active = [p.active_count for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(eve, eve[1:]))
        assert all(b >= a for a, b in zip(active, active[1:]))
        assert all(p.total_d_eve <= 1.5 + 1e-9 for p in points)
        assert eve[-1] == pytest.approx(1.5, abs=1e-9)

    def test_growth_curve_validation(self):
        sites = sample_sites(5, seed=1)
        with pytest.raises(ValueError):
            growth_curve(sites, 1.0, [4, 2])
        with pytest.raises(ValueError):
            growth_curve(sites, 1.0, [2, 10])
        for below_one in ([-5], [0]):
            with pytest.raises(ValueError, match="at least 1"):
                growth_curve(sites, 1.0, below_one)
        for alpha_total in (math.nan, -1.0):
            with pytest.raises(ValueError, match="alpha_total"):
                growth_curve(sites, alpha_total, [2, 5])


def lane(site, channel):
    """The (theta, sigma, crossover) lane a search of ``site`` through
    ``channel`` runs."""
    return (site.model.theta, site.model.sigma, channel.crossover)


class TestSolveOnce:
    def test_allocate_solves_each_fc_channel_once(self, solve_calls):
        sites = sample_sites(200, seed=1)
        result = allocate(NetworkConfig(sites=sites, alpha_total=20.0))
        fc_solves = [lane(s, s.fc_channel) for s in sites]
        assert solve_calls[:200] == fc_solves
        # only the partially funded sensor is designed against a budget
        assert 0 < result.active_count < 200
        assert len(solve_calls) <= 200 + 2

    def test_growth_curve_solves_its_largest_prefix_once(self, solve_calls):
        sites = sample_sites(200, seed=1)
        n_grid = list(range(20, 201, 20))
        growth_curve(sites, 5.0, n_grid)
        assert solve_calls[:200] == [lane(s, s.fc_channel) for s in sites]
        assert len(solve_calls) <= 200 + 2 * len(n_grid)

    def test_greedy_command_solves_each_site_once(self, solve_calls, tmp_path):
        n_grid = list(range(20, 201, 20))
        config = tmp_path / "greedy.json"
        config.write_text(json.dumps({"n_grid": n_grid}))
        assert cli.main([
            "greedy", "--config", str(config), "--n-sensors", "200",
            "--alpha-total", "5.0", "--seed", "1",
            "--out", str(tmp_path / "g.csv"),
        ]) == 0
        sites = sample_sites(200, seed=1)
        assert solve_calls[:200] == [lane(s, s.fc_channel) for s in sites]
        # past the free searches, only Eve-peak searches for the partly
        # funded sensor of the allocation and of each growth prefix
        eve_searches = {lane(s, s.eve_channel) for s in sites}
        assert all(call in eve_searches for call in solve_calls[200:])
        # the grid ends at the whole network, whose split is the allocation:
        # no lane is searched twice
        assert len(solve_calls) <= 200 + len(n_grid)
        assert len(set(solve_calls)) == len(solve_calls) > 200

    def test_growth_points_equal_allocations_of_each_prefix(self):
        # site 3 is one Eve cannot hear: infinite quality, funded first
        sites = list(sample_sites(60, seed=2))
        sites[3] = site_of(0.0, 0.5 - 1e-13)
        assert math.isinf(quality_ratio(sites[3]))
        n_grid = [1, 5, 20, 20, 21, 40, 60]
        qualities = [quality_ratio(site) for site in sites]
        ranked = sorted(range(60), key=lambda i: (-qualities[i], i))
        # a budget spent to the last bit at the seventh funded sensor
        spent = 0.0
        for i in ranked[:7]:
            spent += unconstrained_design(sites[i]).d_eve
        for alpha in (0.0, 0.7, 3.0, spent, 100.0, math.inf):
            points = growth_curve(sites, alpha, n_grid, benchmark_ideal_fc=True)
            for n, point in zip(n_grid, points):
                result = allocate(NetworkConfig(
                    sites=tuple(sites[:n]), alpha_total=alpha, benchmark_ideal_fc=True
                ))
                assert point.n_sensors == n
                assert point.total_d_fc == result.total_d_fc
                assert point.total_d_eve == result.total_d_eve
                assert point.active_count == result.active_count
                assert point.benchmark_d_fc == result.benchmark_d_fc
                # the loop reference, in this prefix's greedy order
                order = [i for i in ranked if i < n]
                total_fc, total_eve, total_sensor, shares = same_policy_allocation(
                    sites, order, alpha)
                assert point.total_d_fc == total_fc
                assert point.total_d_eve == total_eve
                assert point.benchmark_d_fc == total_sensor
                assert point.active_count == len(shares)
                assert [rec.alpha_i for rec in result.per_sensor if rec.active] == [
                    shares[i] for i in sorted(shares)]
