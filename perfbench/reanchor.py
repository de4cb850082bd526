"""Layer probes behind the re-anchor baseline table (``run.py --reanchor``).

Runs in a fresh interpreter so the ``max_channel_divergence`` cache starts
cold, times each probe with ``perf_counter`` and prints one JSON object of
wall-clock seconds per probe, plus the calibration time of ``worker.py``
around them.  Left out on purpose: ``allocate`` at N = 50 000 (N =
5 000 cold already takes about 40 s) and Monte Carlo of a 500-sensor
network (one 65 536 x 500 x 20 float64 block is 5.2 GB).
"""

import json
import time

import numpy as np

from secquant import (
    BscChannel, GaussianSensorModel, NetworkConfig, SensorSite, allocate,
    bsc_transform, design_quantizer, sample_sites, simulate_monte_carlo,
    stein_curve, tradeoff_curve,
)
from worker import calibrate


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def main() -> None:
    site = SensorSite(GaussianSensorModel(1.0, 1.0), BscChannel(0.02), BscChannel(0.1))
    before = calibrate()
    out = {}
    out["design_quantizer_cold"], design = timed(lambda: design_quantizer(site, 0.05))

    network = NetworkConfig(sites=sample_sites(500, seed=1), alpha_total=50.0)
    out["allocate_500_cold"], _ = timed(lambda: allocate(network))
    out["allocate_500_warm"], _ = timed(lambda: allocate(network))

    budgets = list(np.linspace(0.0, 0.4, 100))
    tradeoff_curve(site, budgets)
    out["tradeoff_curve_100_warm"], _ = timed(lambda: tradeoff_curve(site, budgets))

    fc_op = bsc_transform(design.op, site.fc_channel)
    windows = [50 * 2**k for k in range(7)]  # 50 .. 3 200
    out["stein_curve_7_windows_to_3200"], _ = timed(lambda: stein_curve(fc_op, windows))

    single = NetworkConfig(sites=(site,), alpha_total=0.05)
    single_designs = allocate(single)
    out["monte_carlo_1x200k_w20"], _ = timed(lambda: simulate_monte_carlo(
        single, single_designs, window=20, trials=200_000, seed=7))

    net20 = NetworkConfig(sites=sample_sites(20, seed=1), alpha_total=2.0)
    net20_designs = allocate(net20)
    out["monte_carlo_20x20k_w20"], _ = timed(lambda: simulate_monte_carlo(
        net20, net20_designs, window=20, trials=20_000, seed=7))
    # machine speed during the probes, comparable to a session's calibration_s
    out["calibration_s"] = before + calibrate()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
