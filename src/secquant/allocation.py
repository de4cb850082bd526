"""Greedy budget allocation across a heterogeneous sensor network.

The network-wide divergences are sums of per-sensor contributions, so a
total Eve budget can be split into per-sensor budgets and each sensor
designed in isolation.  The split implemented here is greedy: sensors are
ranked by the ratio of their best fusion-center divergence to the Eve
leakage that design costs, funded in full down the ranking while the
budget lasts, the first shortfall sensor gets whatever remains, and the
rest sleep.  The split is heuristic; per-sensor designs are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import GaussianSensorModel
from .roc import BscChannel, SensorSite, kl_divergence
from .solver import (
    QuantizerDesign,
    blind_design,
    design_quantizer,
    unconstrained_design,
)

#: Leftover budgets below this are treated as exhausted; designs produced
#: from them would be numerically blind anyway.
BUDGET_FLOOR = 1e-9

#: Quality ratio reported when Eve's best possible leakage from a sensor
#: is numerically zero (a sensor she cannot hear costs no budget).
QUALITY_DEAF_EVE = math.inf


@dataclass(frozen=True)
class NetworkConfig:
    """Sensor sites, the total tolerated Eve divergence, and options."""

    sites: tuple[SensorSite, ...]
    alpha_total: float
    benchmark_ideal_fc: bool = False
    seed: int | None = None

    def __post_init__(self) -> None:
        if len(self.sites) == 0:
            raise ValueError("a network needs at least one sensor site")
        if not self.alpha_total >= 0.0:
            raise ValueError(
                f"alpha_total must be nonnegative, got {self.alpha_total!r}"
            )


@dataclass(frozen=True)
class SensorAllocation:
    """Outcome at one sensor: its budget share, design, and quality."""

    index: int
    alpha_i: float
    design: QuantizerDesign
    active: bool
    quality: float
    d_fc_star: float
    d_eve_star: float


@dataclass(frozen=True)
class AllocationResult:
    """Full network design: per-sensor records plus totals.

    ``benchmark_d_fc``/``benchmark_d_eve`` re-evaluate the same designs as
    if the fusion center's channels were noiseless; populated only when
    the config asks for the benchmark.
    """

    per_sensor: tuple[SensorAllocation, ...]
    total_d_fc: float
    total_d_eve: float
    active_count: int
    benchmark_d_fc: float | None = None
    benchmark_d_eve: float | None = None


def unconstrained_optimum(site: SensorSite) -> tuple[float, float, float]:
    """Best fusion-center divergence at a site, and what Eve gets there.

    Returns ``(d_fc_star, d_eve_star, threshold_star)``.
    """
    design = unconstrained_design(site)
    return design.d_fc, design.d_eve, design.threshold


def quality_ratio(site: SensorSite) -> float:
    """Detection-per-leakage quality ``d_fc_star / d_eve_star``.

    Sensors whose unconstrained design leaks nothing to Eve get an
    infinite quality: they are funded first and cost no budget.
    """
    return _quality(unconstrained_design(site))


def _quality(free: QuantizerDesign) -> float:
    """:func:`quality_ratio` of the site whose unconstrained design this is."""
    if free.d_eve < 1e-12:
        return QUALITY_DEAF_EVE
    return free.d_fc / free.d_eve


def allocate(config: NetworkConfig) -> AllocationResult:
    """Run the greedy budget split and design every sensor.

    Sensors are processed in nonincreasing quality order (ties broken by
    ascending index).  Each sensor in turn is funded at its full
    unconstrained leakage if the remaining budget covers it, else handed
    the entire remainder and designed against that; sensors reached after
    the budget is exhausted sleep as blind designs.
    """
    return _allocate(
        config, [unconstrained_design(site) for site in config.sites]
    )


def _allocate(
    config: NetworkConfig, free_designs: Sequence[QuantizerDesign]
) -> AllocationResult:
    """:func:`allocate` given each site's unconstrained design, in site
    order."""
    qualities = [_quality(free) for free in free_designs]
    order = sorted(range(len(config.sites)), key=lambda i: (-qualities[i], i))

    remaining = config.alpha_total
    records: dict[int, SensorAllocation] = {}
    for i in order:
        site = config.sites[i]
        free = free_designs[i]
        if remaining <= BUDGET_FLOOR:
            records[i] = SensorAllocation(
                index=i,
                alpha_i=0.0,
                design=blind_design(site),
                active=False,
                quality=qualities[i],
                d_fc_star=free.d_fc,
                d_eve_star=free.d_eve,
            )
            continue
        if remaining >= free.d_eve:
            share = free.d_eve
            design = free
        else:
            share = remaining
            design = design_quantizer(site, share)
        remaining = max(remaining - share, 0.0)
        records[i] = SensorAllocation(
            index=i,
            alpha_i=share,
            design=design,
            active=True,
            quality=qualities[i],
            d_fc_star=free.d_fc,
            d_eve_star=free.d_eve,
        )

    per_sensor = tuple(records[i] for i in range(len(config.sites)))
    active = [rec for rec in per_sensor if rec.active]
    total_d_fc = math.fsum(rec.design.d_fc for rec in active)
    total_d_eve = math.fsum(rec.design.d_eve for rec in active)
    benchmark_d_fc = benchmark_d_eve = None
    if config.benchmark_ideal_fc:
        # same designs through noiseless FC channels: the FC then sees the
        # sensor-side divergence directly, while Eve is unaffected
        benchmark_d_fc = math.fsum(kl_divergence(rec.design.op) for rec in active)
        benchmark_d_eve = total_d_eve
    return AllocationResult(
        per_sensor=per_sensor,
        total_d_fc=total_d_fc,
        total_d_eve=total_d_eve,
        active_count=len(active),
        benchmark_d_fc=benchmark_d_fc,
        benchmark_d_eve=benchmark_d_eve,
    )


def sample_sites(
    n_sensors: int,
    seed: int,
    snr: float = 1.0,
    fc_crossover_high: float = 0.01,
    eve_crossover_high: float = 0.1,
) -> tuple[SensorSite, ...]:
    """Draw a random network: common unit-noise model at the given SNR,
    fusion-center crossovers uniform on [0, fc_crossover_high) and Eve
    crossovers uniform on [0, eve_crossover_high).

    Fully determined by the seed; sweeping the network size with the same
    seed reuses prefixes of the same draw.
    """
    if n_sensors < 1:
        raise ValueError(f"n_sensors must be positive, got {n_sensors!r}")
    rng = np.random.default_rng(seed)
    model = GaussianSensorModel(theta=snr, sigma=1.0)
    # one (fc, eve) row per sensor keeps prefixes of a draw identical
    # across network sizes
    draws = rng.uniform(0.0, 1.0, size=(n_sensors, 2))
    return tuple(
        SensorSite(
            model=model,
            fc_channel=BscChannel(float(draws[i, 0] * fc_crossover_high)),
            eve_channel=BscChannel(float(draws[i, 1] * eve_crossover_high)),
        )
        for i in range(n_sensors)
    )


def sample_network(
    n_sensors: int,
    alpha_total: float,
    seed: int,
    snr: float = 1.0,
    fc_crossover_high: float = 0.01,
    eve_crossover_high: float = 0.1,
    benchmark_ideal_fc: bool = False,
) -> NetworkConfig:
    """Random :class:`NetworkConfig` drawn as in :func:`sample_sites`."""
    return NetworkConfig(
        sites=sample_sites(
            n_sensors, seed, snr, fc_crossover_high, eve_crossover_high
        ),
        alpha_total=alpha_total,
        benchmark_ideal_fc=benchmark_ideal_fc,
        seed=seed,
    )


@dataclass(frozen=True)
class GrowthPoint:
    """Network totals when only the first ``n_sensors`` sites participate."""

    n_sensors: int
    total_d_fc: float
    total_d_eve: float
    active_count: int
    benchmark_d_fc: float | None = None
    benchmark_d_eve: float | None = None


def growth_curve(
    sites: Sequence[SensorSite],
    alpha_total: float,
    n_grid: Sequence[int],
    benchmark_ideal_fc: bool = False,
) -> list[GrowthPoint]:
    """Allocate over growing prefixes of a fixed site list.

    ``n_grid`` must be ascending and bounded by the number of sites; using
    prefixes of one draw is what makes the totals comparable across sizes.
    """
    if any(n2 < n1 for n1, n2 in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be sorted ascending")
    if n_grid and n_grid[-1] > len(sites):
        raise ValueError(
            f"n_grid asks for {n_grid[-1]} sensors but only {len(sites)} sites given"
        )
    # prefixes share their sites, so each site is solved once for all
    free_designs = [
        unconstrained_design(site) for site in sites[: max(n_grid, default=0)]
    ]
    points = []
    for n in n_grid:
        result = _allocate(
            NetworkConfig(
                sites=tuple(sites[:n]),
                alpha_total=alpha_total,
                benchmark_ideal_fc=benchmark_ideal_fc,
            ),
            free_designs[:n],
        )
        points.append(
            GrowthPoint(
                n_sensors=n,
                total_d_fc=result.total_d_fc,
                total_d_eve=result.total_d_eve,
                active_count=result.active_count,
                benchmark_d_fc=result.benchmark_d_fc,
                benchmark_d_eve=result.benchmark_d_eve,
            )
        )
    return points
