#!/usr/bin/env python3
"""Verifying a design detection-theoretically.

The per-symbol divergence a design was optimized for is the decay rate of
the best achievable miss probability.  This demo computes that miss exactly
from the binomial law over growing windows, watches the empirical rate
climb toward the design's divergence, and cross-checks a full Monte Carlo
of the sensing-quantize-transmit-fuse pipeline against the exact numbers.
"""

from secquant import (
    BscChannel,
    GaussianSensorModel,
    NetworkConfig,
    SensorSite,
    allocate,
    bsc_transform,
    exact_np_miss,
    simulate_monte_carlo,
    stein_curve,
)

site = SensorSite(
    model=GaussianSensorModel(theta=1.0, sigma=1.0),
    fc_channel=BscChannel(0.0),
    eve_channel=BscChannel(0.1),
)
config = NetworkConfig(sites=(site,), alpha_total=10.0)
result = allocate(config)
(design,) = result.designs.rows()
fc_op = bsc_transform(design.op, site.fc_channel)
eve_op = bsc_transform(design.op, site.eve_channel)

print(f"design d_fc = {design.d_fc:.6f} nats; Eve sees d_eve = {design.d_eve:.6f}\n")

print("exact best-test miss at false alarm 0.01 (fusion center stream):")
print(" window   ln(miss)      exponent    local slope   slope/d_fc")
for p in stein_curve(fc_op, [25, 50, 100, 200, 400, 800], delta=0.01):
    print(
        f"  {p.window:5d}  {p.log_miss:11.3f}   {p.exponent:.6f}    "
        f"{p.local_slope:.6f}     {p.local_slope / design.d_fc:6.1%}"
    )

print("\nthe same windows through Eve's noisier channel decay slower:")
for p in stein_curve(eve_op, [100, 400], delta=0.01):
    print(f"  window {p.window}: exponent {p.exponent:.6f} "
          f"(vs d_eve {design.d_eve:.6f})")

print("\nMonte Carlo of the full pipeline, window 20, 200k trials:")
mc = simulate_monte_carlo(config, result, window=20, trials=200_000, seed=12)
exact = exact_np_miss(fc_op, window=20, delta=0.01)
print(f"  exact miss          {exact.miss:.5f}")
print(f"  simulated fc miss   {mc.fc_miss_estimate:.5f} +- {mc.fc_miss_se:.5f}")
print(f"  simulated fc fa     {mc.fc_fa_estimate:.5f} (target {mc.delta})")
print(f"  simulated eve miss  {mc.eve_miss_estimate:.5f} (worse receiver)")
gap = abs(mc.fc_miss_estimate - exact.miss)
print(f"  |simulated - exact| = {gap:.2e}  ({gap / mc.fc_miss_se:.2f} standard errors)")
