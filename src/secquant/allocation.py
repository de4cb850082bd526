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
from .roc import BscChannel, SensorSite
from .solver import (
    QuantizerDesign,
    _designs,
    blind_design,
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

    ``benchmark_d_fc`` re-evaluates the same designs as if the fusion
    center's channels were noiseless; populated only when the config asks
    for the benchmark.  Eve's channels are unaffected, so her benchmark
    total is ``total_d_eve``.
    """

    per_sensor: tuple[SensorAllocation, ...]
    total_d_fc: float
    total_d_eve: float
    active_count: int
    benchmark_d_fc: float | None = None


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
    return _network(config.sites, config.alpha_total, config.benchmark_ideal_fc, [])[0]


def _network(
    sites: Sequence[SensorSite],
    alpha_total: float,
    benchmark_ideal_fc: bool,
    n_grid: Sequence[int],
) -> tuple[AllocationResult, list[GrowthPoint]]:
    """:func:`allocate` over ``sites`` and :func:`growth_curve` on a checked
    grid of their prefixes.  The allocation and every prefix share one
    unconstrained design per site and one split per distinct size, so each
    site is solved once and each partly funded sensor designed once."""
    n = len(sites)
    free_designs = _designs(sites, [math.inf] * n)
    qualities, splits = _splits(sites, alpha_total, free_designs, {*n_grid, n})
    funded = splits[n]
    per_sensor = tuple(
        SensorAllocation(
            index=i,
            alpha_i=funded[i][0] if i in funded else 0.0,
            design=funded[i][1] if i in funded else blind_design(site),
            active=i in funded,
            quality=quality,
            d_fc_star=free.d_fc,
            d_eve_star=free.d_eve,
        )
        for i, (site, free, quality) in enumerate(
            zip(sites, free_designs, qualities)
        )
    )
    allocation = AllocationResult(per_sensor, *_totals(funded, benchmark_ideal_fc))
    points = [
        GrowthPoint(size, *_totals(splits[size], benchmark_ideal_fc))
        for size in n_grid
    ]
    return allocation, points


def _splits(
    sites: Sequence[SensorSite],
    alpha_total: float,
    free_designs: Sequence[QuantizerDesign],
    sizes: set[int],
) -> tuple[list[float], dict[int, dict[int, tuple[float, QuantizerDesign]]]]:
    """Each site's quality, and the greedy split of ``alpha_total`` over the
    first ``n`` sites keyed by each ``n`` in ``sizes``: every funded
    sensor's index mapped to its share and design.  The partly funded
    sensors of all the splits are designed in one batch."""
    qualities = [_quality(free) for free in free_designs]
    order = sorted(range(len(free_designs)), key=lambda i: (-qualities[i], i))
    splits = {}
    for n in sorted(sizes):
        remaining, split = alpha_total, {}
        for i in order:
            if remaining <= BUDGET_FLOOR:
                break
            if i < n:
                split[i] = (min(free_designs[i].d_eve, remaining), free_designs[i])
                remaining = max(remaining - split[i][0], 0.0)
        splits[n] = split
    partial = [
        (split, i) for split in splits.values()
        for i, (share, free) in split.items() if share < free.d_eve
    ]
    designs = _designs(
        [sites[i] for _, i in partial],
        [split[i][0] for split, i in partial],
        [free_designs[i].threshold for _, i in partial],
    )
    for (split, i), design in zip(partial, designs):
        split[i] = (split[i][0], design)
    return qualities, splits


def _totals(
    funded: dict[int, tuple[float, QuantizerDesign]], benchmark_ideal_fc: bool
) -> tuple[float, float, int, float | None]:
    """Total FC and Eve divergences, active count and benchmark total of
    the funded sensors.  The benchmark runs the same designs through
    noiseless FC channels: the FC then sees each sensor-side divergence
    ``d_sensor`` directly, while Eve is unaffected."""
    designs = [design for _, design in funded.values()]
    return (
        math.fsum(d.d_fc for d in designs),
        math.fsum(d.d_eve for d in designs),
        len(designs),
        math.fsum(d.d_sensor for d in designs) if benchmark_ideal_fc else None,
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


@dataclass(frozen=True)
class GrowthPoint:
    """Network totals when only the first ``n_sensors`` sites participate."""

    n_sensors: int
    total_d_fc: float
    total_d_eve: float
    active_count: int
    benchmark_d_fc: float | None = None


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
    _check_grid(n_grid, len(sites))
    prefix = sites[: max(n_grid, default=0)]
    return _network(prefix, alpha_total, benchmark_ideal_fc, n_grid)[1]


def _check_grid(n_grid: Sequence[int], n_sites: int) -> None:
    if any(n2 < n1 for n1, n2 in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be sorted ascending")
    if n_grid and n_grid[0] < 1:
        raise ValueError(f"n_grid entries must be at least 1, got {n_grid[0]!r}")
    if n_grid and n_grid[-1] > n_sites:
        raise ValueError(
            f"n_grid asks for {n_grid[-1]} sensors but only {n_sites} sites given"
        )

