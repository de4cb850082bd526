#!/usr/bin/env python3
"""Spreading a network-wide secrecy budget across heterogeneous sensors.

Samples a network with mildly noisy fusion-center channels and noisier,
varied eavesdropper channels, runs the greedy quality-ranked allocation,
and sweeps the network size to show how the totals grow until the budget
binds and sensors start sleeping.
"""

from secquant import NetworkConfig, allocate, growth_curve, sample_sites

ALPHA = 5.0
sites = sample_sites(n_sensors=60, seed=7)

result = allocate(
    NetworkConfig(sites=sites, alpha_total=ALPHA, benchmark_ideal_fc=True)
)
print(f"60 sensors, total Eve budget {ALPHA} nats")
print(
    f"total d_fc {result.total_d_fc:.3f}, total d_eve {result.total_d_eve:.3f}, "
    f"active {result.active_count}/60"
)
print(
    f"ideal-channel benchmark of the same designs: "
    f"d_fc {result.benchmark_d_fc:.3f}, d_eve {result.total_d_eve:.3f}\n"
)

print("first sensors in funding order (quality = d_fc*/d_eve* ratio):")
funded = sorted(
    (r for r in result.per_sensor),
    key=lambda r: (-r.quality, r.index),
)
print(" rank  index  quality  budget share  d_fc      status")
for rank, rec in enumerate(funded[:12], 1):
    status = "active" if rec.active else "asleep"
    if rec.active and rec.design.binding:
        status = "active (partial, constraint binding)"
    print(
        f"  {rank:3d}   {rec.index:3d}   {rec.quality:6.3f}   "
        f"{rec.alpha_i:10.4f}  {rec.design.d_fc:8.4f}  {status}"
    )

print("\ngrowing the network under the same budget:")
print("    n   total_d_fc  total_d_eve  active")
for point in growth_curve(sites, ALPHA, n_grid=list(range(5, 61, 5))):
    bar = "#" * int(6 * point.total_d_fc)
    print(
        f"  {point.n_sensors:4d}   {point.total_d_fc:8.3f}   "
        f"{point.total_d_eve:9.3f}   {point.active_count:4d}  {bar}"
    )
print("\nonce total_d_eve hits the budget, extra sensors only displace")
print("lower-quality ones; the leakage stays pinned at the budget.")
