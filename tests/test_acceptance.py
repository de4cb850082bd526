"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities before asserting."""

import itertools
import json
import math
import time

import numpy as np
import pytest

from secquant import (
    BscChannel,
    GaussianSensorModel,
    NetworkConfig,
    OperatingPoint,
    SensorSite,
    allocate,
    bsc_transform,
    convexity_certificate,
    design_quantizer,
    exact_np_miss,
    find_budget_thresholds,
    growth_curve,
    kl_divergence,
    max_channel_divergence,
    quality_ratio,
    sample_sites,
    simulate_monte_carlo,
    stein_curve,
    tradeoff_curve,
)
from secquant import roc
from secquant.cli import main as cli_main

import oracles


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    return passed


def make_site(theta, sigma, rho_fc, rho_e):
    return SensorSite(
        model=GaussianSensorModel(theta, sigma),
        fc_channel=BscChannel(rho_fc),
        eve_channel=BscChannel(rho_e),
    )


def test_criterion_01_constrained_design_matches_brute_force():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.5, 3.0)
        rho_fc = rng.uniform(0.0, 0.3)
        rho_e = rng.uniform(rho_fc + 1e-6, 0.45)
        site = make_site(theta, 1.0, rho_fc, rho_e)
        _, ceiling = max_channel_divergence(site.model, site.eve_channel)
        budget = rng.uniform(0.1, 0.9) * ceiling
        design = design_quantizer(site, budget)
        brute = oracles.brute_force_constrained_max(
            theta, 1.0, rho_fc, rho_e, budget
        )
        worst = max(worst, abs(design.d_fc - brute) / brute)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    assert report(
        1, ok,
        f"100 random configs vs brute-force LRT-curve max: worst relative "
        f"gap {worst:.3g} (tol 1e-4), runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_convexity_certificate():
    rng = np.random.default_rng(2025)
    worst_t2 = 0.0
    worst_t4 = math.inf
    for _ in range(1000):
        x = rng.uniform(0.01, 0.97)
        y = rng.uniform(x + 0.005, 0.995)
        rho = rng.uniform(0.005, 0.49)
        cert = convexity_certificate(OperatingPoint(x, y), BscChannel(0.0), BscChannel(rho))
        worst_t2 = max(worst_t2, abs(cert.t2))
        worst_t4 = min(worst_t4, cert.t4)

    h = 4e-4
    worst_rel = 0.0
    checked = 0
    while checked < 50:
        rho = rng.uniform(0.02, 0.3)
        budget = rng.uniform(0.05, 0.4)
        x0 = rng.uniform(0.05, 0.5)
        ys = [oracles.trace_y(x0 + k * h / 2, budget, rho) for k in (-2, -1, 0, 1, 2)]
        if any(y is None or y >= 1.0 - 1e-6 for y in ys):
            continue
        cert = convexity_certificate(
            OperatingPoint(x0, ys[2]), BscChannel(0.0), BscChannel(rho)
        )
        if abs(cert.second_derivative) < 0.05:
            continue  # relative comparison needs a usable scale
        ds = [
            oracles.kld(x0 + k * h / 2, yk)
            for k, yk in zip((-2, -1, 0, 1, 2), ys)
        ]
        # Richardson-extrapolated second difference cancels the h^2 bias
        coarse = (ds[4] - 2.0 * ds[2] + ds[0]) / (h * h)
        fine = (ds[3] - 2.0 * ds[2] + ds[1]) / (h * h / 4.0)
        fd = (4.0 * fine - coarse) / 3.0
        worst_rel = max(
            worst_rel, abs(cert.second_derivative - fd) / abs(fd)
        )
        checked += 1

    ok = worst_t2 <= 1e-10 and worst_t4 >= -1e-10 and worst_rel <= 1e-3
    assert report(
        2, ok,
        f"1000 certificates: max |t2| {worst_t2:.2e} (tol 1e-10), min t4 "
        f"{worst_t4:.2e} (>= -1e-10); 50 traced second-derivative checks: "
        f"worst rel err {worst_rel:.2e} (tol 1e-3)",
    )


def test_criterion_03_transform_lemma_property_suites():
    rng = np.random.default_rng(2026)
    worst_residual = 0.0
    chain_ok = True
    for _ in range(10_000):
        x = rng.uniform(0.001, 0.95)
        y = rng.uniform(x + 1e-4, 0.999)
        r1, r2 = np.sort(rng.uniform(0.0, 0.4999, 2))
        a = OperatingPoint(x, y)
        b1 = bsc_transform(a, BscChannel(r1))
        b2 = bsc_transform(a, BscChannel(r2))
        for b in (b1, b2):
            residual = abs(
                (b.pfa - a.pfa) * (0.5 - a.pd) - (b.pd - a.pd) * (0.5 - a.pfa)
            )
            worst_residual = max(worst_residual, residual)
        ratios = [
            (a.pfa / a.pd, (1 - a.pfa) / (1 - a.pd)),
            (b1.pfa / b1.pd, (1 - b1.pfa) / (1 - b1.pd)),
            (b2.pfa / b2.pd, (1 - b2.pfa) / (1 - b2.pd)),
        ]
        slack = 1e-12
        chain_ok &= ratios[0][0] <= ratios[1][0] + slack
        chain_ok &= ratios[1][0] <= ratios[2][0] + slack
        chain_ok &= ratios[2][0] <= 1.0 + slack
        chain_ok &= 1.0 <= ratios[2][1] + slack
        chain_ok &= ratios[2][1] <= ratios[1][1] + slack
        chain_ok &= ratios[1][1] <= ratios[0][1] + slack

    monotone_ok = True
    rho_grid = [k * 0.01 for k in range(50)]
    for _ in range(100):
        x = rng.uniform(0.0, 0.9)
        y = rng.uniform(x + 0.05, 1.0)
        values = [
            kl_divergence(bsc_transform(OperatingPoint(x, y), BscChannel(r)))
            for r in rho_grid
        ]
        monotone_ok &= all(b < a for a, b in zip(values, values[1:]))

    grad_ok = True
    step = 1e-5
    for _ in range(200):
        x = rng.uniform(0.05, 0.9)
        y = rng.uniform(x + 0.02, 0.98)
        grad = roc._kl_partials(OperatingPoint(x, y).tails)[1]
        fd = (
            kl_divergence(OperatingPoint(x, y + step))
            - kl_divergence(OperatingPoint(x, y - step))
        ) / (2 * step)
        grad_ok &= grad >= 0.0 and abs(grad - fd) <= 1e-6 * abs(fd)

    ok = worst_residual < 1e-12 and chain_ok and monotone_ok and grad_ok
    assert report(
        3, ok,
        f"10^4 transform pairs: max collinearity residual {worst_residual:.2e} "
        f"(< 1e-12), likelihood-ratio chain {'held' if chain_ok else 'BROKE'}; "
        f"monotone channel degradation {'held' if monotone_ok else 'BROKE'}; "
        f"detection-gradient finite differences "
        f"{'within 1e-6' if grad_ok else 'BROKE'}",
    )


def test_criterion_04_two_root_structure():
    rng = np.random.default_rng(2027)
    count_ok = True
    worst_gap = 0.0
    for _ in range(200):
        theta = rng.uniform(0.5, 3.0)
        rho_e = rng.uniform(0.01, 0.45)
        site = make_site(theta, 1.0, 0.0, rho_e)
        _, ceiling = max_channel_divergence(site.model, site.eve_channel)
        budget = rng.uniform(0.1, 0.9) * ceiling
        lo, hi = site.model.threshold_bracket()
        lams = np.linspace(lo, hi, 10_000)
        x, y = oracles.lrt_ops(theta, 1.0, lams)
        gap_grid = oracles.kld(
            oracles.bsc(x, rho_e), oracles.bsc(y, rho_e)
        ) - budget
        grid_changes = int(np.count_nonzero(np.diff(np.sign(gap_grid)) != 0))
        count_ok &= grid_changes <= 2
        roots = find_budget_thresholds(site, budget)
        count_ok &= len(roots) == grid_changes
        for root in roots:
            op = site.model.operating_point(root)
            d_eve = kl_divergence(bsc_transform(op, site.eve_channel))
            worst_gap = max(worst_gap, abs(d_eve - budget))
    ok = count_ok and worst_gap <= 1e-10
    assert report(
        4, ok,
        f"200 random configs: grid sign changes always <= 2 and root counts "
        f"{'matched' if count_ok else 'MISMATCHED'}; worst |gap| at roots "
        f"{worst_gap:.2e} (tol 1e-10)",
    )


def test_criterion_05_tradeoff_curve_shape():
    site = make_site(1.0, 1.0, 0.0, 0.1)
    _, ceiling = max_channel_divergence(site.model, site.eve_channel)
    budgets = list(np.linspace(0.0, 1.4 * ceiling, 50))
    points = tradeoff_curve(site, budgets)
    values = [p.d_fc for p in points]
    monotone = all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    free_value = design_quantizer(site, math.inf).d_fc
    saturated = [
        p.d_fc for p in points if p.budget >= ceiling
    ]
    saturation = all(abs(v - free_value) <= 1e-9 for v in saturated)
    ok = monotone and saturation
    assert report(
        5, ok,
        f"50-point budget sweep: monotone {'yes' if monotone else 'NO'}, "
        f"saturates to unconstrained optimum within 1e-9 for budgets past "
        f"the ceiling ({len(saturated)} points): {'yes' if saturation else 'NO'}",
    )


def test_criterion_06_stein_lemma_desk_scale():
    # Stein's lemma is a limit: at finite T the local slope sits below D by
    # about sqrt(V) z (sqrt(2) - 1) / sqrt(T) (Strassen), 17 % of D at
    # T = 200 here, so the window-200 slope is held to the second-order
    # value rather than to D itself.
    start = time.monotonic()
    delta = 0.01
    site = make_site(1.0, 1.0, 0.0, 0.1)
    design = design_quantizer(site, math.inf)
    fc_op = bsc_transform(design.op, site.fc_channel)
    points = stein_curve(fc_op, [50, 100, 200, 400], delta=delta)
    exps = [p.exponent for p in points]
    nondecreasing = all(b >= a - 1e-6 for a, b in zip(exps, exps[1:]))
    gaps = [(design.d_fc - p.local_slope) / design.d_fc for p in points]
    below = all(g > 0.0 for g in gaps)
    shrinking = all(b < a for a, b in zip(gaps, gaps[1:]))
    slope_200 = points[2].local_slope  # (ln q_200 - ln q_400) / 200
    x, y = fc_op.pfa, fc_op.pd
    shortfall = oracles.kld(x, y) - oracles.stein_second_order_slope(
        x, y, 200, delta
    )
    second_order = design.d_fc - shortfall
    residual = abs(slope_200 - second_order) / design.d_fc
    elapsed = time.monotonic() - start
    ok = (
        residual <= 0.02 and below and shrinking and nondecreasing
        and elapsed < 5.0
    )
    assert report(
        6, ok,
        f"unconstrained snr-1 design: local slope (ln q_200 - ln q_400)/200 "
        f"= {slope_200:.6f} vs d_fc = {design.d_fc:.6f} (first-order gap "
        f"{gaps[2]:.4f}); second-order value {second_order:.6f}, residual "
        f"{residual:.4f} of d_fc (tol 0.02); gaps over windows 50-400 "
        f"{'/'.join(f'{g:.3f}' for g in gaps)}, all positive: "
        f"{'yes' if below else 'NO'}, strictly shrinking: "
        f"{'yes' if shrinking else 'NO'}; exponent sequence nondecreasing: "
        f"{'yes' if nondecreasing else 'NO'}; runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_07_monte_carlo_cross_check():
    start = time.monotonic()
    site = make_site(1.0, 1.0, 0.0, 0.1)
    config = NetworkConfig(sites=(site,), alpha_total=10.0)
    result = allocate(config)
    (design,) = result.designs.rows()
    exact = exact_np_miss(
        bsc_transform(design.op, site.fc_channel), window=20, delta=0.01
    )
    mc = simulate_monte_carlo(
        config, result, window=20, trials=1_000_000, seed=20240
    )
    gap = abs(mc.fc_miss_estimate - exact.miss)
    elapsed = time.monotonic() - start
    ok = gap <= 3.0 * mc.fc_miss_se and elapsed < 60.0
    assert report(
        7, ok,
        f"single sensor, window 20, 10^6 trials: |mc - exact| = {gap:.2e} vs "
        f"3 se = {3 * mc.fc_miss_se:.2e} (exact miss {exact.miss:.5f}, mc "
        f"{mc.fc_miss_estimate:.5f}); runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_08_greedy_network_experiment():
    start = time.monotonic()
    alpha = 50.0
    sites = sample_sites(500, seed=20248)
    points = growth_curve(sites, alpha_total=alpha, n_grid=list(range(10, 501, 10)))
    fc = [p.total_d_fc for p in points]
    eve = [p.total_d_eve for p in points]
    active = [p.active_count for p in points]
    feasible = all(v <= alpha + 1e-9 for v in eve)
    fc_monotone = all(b >= a - 1e-9 for a, b in zip(fc, fc[1:]))
    eve_monotone = all(b >= a - 1e-9 for a, b in zip(eve, eve[1:]))
    active_monotone = all(b >= a for a, b in zip(active, active[1:]))
    saturates = abs(eve[-1] - alpha) <= 1e-6
    gap = fc[-1] - eve[-1]
    gap_in_band = 25.0 <= gap <= 50.0
    elapsed = time.monotonic() - start
    ok = (
        feasible and fc_monotone and eve_monotone and active_monotone
        and saturates and gap_in_band and elapsed < 120.0
    )
    assert report(
        8, ok,
        f"seeded 500-sensor sweep at alpha=50: feasibility "
        f"{'held' if feasible else 'BROKE'}, monotone fc/eve/active = "
        f"{fc_monotone}/{eve_monotone}/{active_monotone}, eve saturates at "
        f"{eve[-1]:.6f}, final gap fc-eve = {gap:.2f} (band [25, 50]); "
        f"runtime {elapsed:.1f}s (< 120s)",
    )


def test_criterion_09_greedy_small_network_oracle():
    sites = (
        make_site(1.0, 1.0, 0.002, 0.08),
        make_site(1.4, 1.0, 0.01, 0.02),
        make_site(0.8, 1.0, 0.0, 0.15),
        make_site(1.1, 1.0, 0.005, 0.05),
    )
    alpha = 0.5 * sum(design_quantizer(s, math.inf).d_eve for s in sites)
    result = allocate(NetworkConfig(sites=sites, alpha_total=alpha))
    feasible = result.total_d_eve <= alpha + 1e-9

    def policy(order):
        remaining = alpha
        total_fc = 0.0
        total_eve = 0.0
        for i in order:
            if remaining <= 1e-9:
                continue
            design = design_quantizer(sites[i], math.inf)
            if remaining < design.d_eve:
                design = design_quantizer(sites[i], remaining)
                remaining = 0.0
            else:
                remaining -= design.d_eve
            total_fc += design.d_fc
            total_eve += design.d_eve
        return total_fc, total_eve

    greedy_order = tuple(
        sorted(range(4), key=lambda i: (-quality_ratio(sites[i]), i))
    )
    all_feasible = True
    branch_totals = {}
    for order in itertools.permutations(range(4)):
        total_fc, total_eve = policy(order)
        branch_totals[order] = total_fc
        all_feasible &= total_eve <= alpha + 1e-9
    # coarse budget-split grid, same per-sensor solver
    steps = 200
    grid_feasible = True
    grid = np.arange(0, steps + 1, 10)
    for a1 in grid:
        for a2 in grid:
            if a1 + a2 > steps:
                continue
            b = [alpha * a1 / steps, alpha * a2 / steps, 0.0, 0.0]
            rest = max(alpha - b[0] - b[1], 0.0)
            b[2] = rest / 2
            b[3] = rest / 2
            total_eve = sum(
                design_quantizer(site, bi).d_eve for site, bi in zip(sites, b)
            )
            grid_feasible &= total_eve <= alpha + 1e-7

    exact_match = result.total_d_fc == branch_totals[greedy_order]
    ok = feasible and exact_match and all_feasible and grid_feasible
    assert report(
        9, ok,
        f"4-site oracle: greedy branch match exact = {exact_match}, "
        f"feasibility over all {len(branch_totals)} orderings and 200-step "
        f"budget grid = {all_feasible and grid_feasible}",
    )


def test_criterion_10_determinism(tmp_path):
    greedy_argv = [
        "greedy", "--n-sensors", "60", "--alpha-total", "3.0",
        "--seed", "77", "--out", str(tmp_path / "g.csv"), "--benchmark",
    ]
    assert cli_main(list(greedy_argv)) == 0
    g_first = (tmp_path / "g.csv").read_bytes()
    s_first = (tmp_path / "g.summary.json").read_bytes()
    assert cli_main(list(greedy_argv)) == 0
    greedy_same = (
        (tmp_path / "g.csv").read_bytes() == g_first
        and (tmp_path / "g.summary.json").read_bytes() == s_first
    )

    design_argv = [
        "design", "--theta", "1.0", "--sigma", "1.0", "--rho-fc", "0.0",
        "--rho-e", "0.1", "--alpha-tilde", "5.0",
        "--out", str(tmp_path / "d.json"),
    ]
    assert cli_main(list(design_argv)) == 0
    verify_argv = [
        "verify", "--artifact", str(tmp_path / "d.json"),
        "--out", str(tmp_path / "r.json"),
        "--trials", "30000", "--window", "12", "--seed", "55",
    ]
    assert cli_main(list(verify_argv)) == 0
    r_first = (tmp_path / "r.json").read_bytes()
    assert cli_main(list(verify_argv)) == 0
    verify_same = (tmp_path / "r.json").read_bytes() == r_first

    site = make_site(1.0, 1.0, 0.0, 0.1)
    config = NetworkConfig(sites=(site,), alpha_total=10.0)
    result = allocate(config)
    mc1 = simulate_monte_carlo(config, result, window=10, trials=40_000, seed=4)
    mc2 = simulate_monte_carlo(config, result, window=10, trials=40_000, seed=4)
    mc3 = simulate_monte_carlo(config, result, window=10, trials=40_000, seed=5)
    sim_same = mc1 == mc2
    sim_differs = mc1 != mc3

    ok = greedy_same and verify_same and sim_same and sim_differs
    assert report(
        10, ok,
        f"byte-identical re-runs: greedy {greedy_same}, verify+mc "
        f"{verify_same}; simulator bit-identical {sim_same} and "
        f"seed-sensitive {sim_differs}",
    )
