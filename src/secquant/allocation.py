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

from .errors import _check_integer
from .gaussian import GaussianSensorModel
from .roc import BscChannel, SensorSite
from .solver import (DesignTable, _bound_thresholds, _designs_at, _site_columns,
                     design_quantizer, design_table)

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
        _check_network(self.alpha_total, [], len(self.sites))


@dataclass(frozen=True, eq=False)
class AllocationResult:
    """Full network design, one lane per site in site order, plus totals:
    each design at its sensor's budget share, whether the sensor is
    funded, and its quality and unconstrained divergences.

    ``benchmark_d_fc`` re-evaluates the same designs as if the fusion
    center's channels were noiseless; populated only when the config asks
    for the benchmark.  Eve's channels are unaffected, so her benchmark
    total is ``total_d_eve``.
    """

    designs: DesignTable
    active: np.ndarray
    quality: np.ndarray
    d_fc_star: np.ndarray
    d_eve_star: np.ndarray
    total_d_fc: float
    total_d_eve: float
    active_count: int
    benchmark_d_fc: float | None = None


def quality_ratio(site: SensorSite) -> float:
    """Detection-per-leakage quality ``d_fc_star / d_eve_star``.

    Sensors whose unconstrained design leaks nothing to Eve get an
    infinite quality: they are funded first and cost no budget.
    """
    free = design_quantizer(site, math.inf)
    return float(_quality(free.d_fc, free.d_eve))


def _quality(d_fc, d_eve) -> np.ndarray:
    """:func:`quality_ratio` of the sites whose unconstrained designs have
    these divergences, elementwise."""
    return np.divide(d_fc, d_eve, out=np.full(np.shape(d_eve), QUALITY_DEAF_EVE),
                     where=~(np.asarray(d_eve) < 1e-12))


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
    """:func:`allocate` over ``sites`` and :func:`growth_curve` on a grid of
    their prefixes, both checked here.  The allocation and every prefix share one
    unconstrained design per site and one split per distinct size, so each
    site is solved once and each partly funded sensor designed once."""
    n = len(sites)
    _check_network(alpha_total, n_grid, n)
    free = design_table(sites, np.full(n, math.inf))
    quality = _quality(free.d_fc, free.d_eve)
    # nonincreasing quality, ties by ascending index
    order = np.argsort(-quality, kind="stable")
    columns = _site_columns(sites)
    splits, partials = _splits(columns, alpha_total, free.d_eve, order, {*n_grid, n})
    ranked, shares, partial = splits[n]
    active = np.isin(np.arange(n), ranked)
    budgets = np.zeros(n)
    budgets[ranked] = shares
    # funded sensors keep their free design at their full leakage, a partly
    # funded one takes its bound design at the remainder, and sleeping ones
    # are blind, at threshold +inf and budget 0
    thresholds = np.where(active, free.threshold, math.inf)
    binding = ~active
    if partial is not None:
        thresholds[ranked[-1]], binding[ranked[-1]] = partials.threshold[partial], True
    designs = _designs_at(columns, thresholds, budgets, binding)
    # rows d_fc, d_eve and d_sensor of the free and the partly funded designs
    divergences = [np.stack([t.d_fc, t.d_eve, t.d_sensor]) for t in (free, partials)]
    totals = {}
    for size, (funded, _, lane) in splits.items():
        # running sums from 0.0 in funding order, as the greedy policy adds
        # them; the benchmark's FC sees each d_sensor through noiseless channels
        terms = np.zeros((3, funded.size + 1))
        terms[:, 1:] = divergences[0][:, funded]
        if lane is not None:
            terms[:, -1] = divergences[1][:, lane]
        d_fc, d_eve, d_sensor = np.add.accumulate(terms, axis=1)[:, -1].tolist()
        totals[size] = d_fc, d_eve, funded.size, d_sensor if benchmark_ideal_fc else None
    points = [GrowthPoint(size, *totals[size]) for size in n_grid]
    result = AllocationResult(designs, active, quality, free.d_fc, free.d_eve, *totals[n])
    return result, points


def _splits(
    columns: np.ndarray,
    alpha_total: float,
    leak: np.ndarray,
    order: np.ndarray,
    sizes: set[int],
) -> tuple[dict[int, tuple[np.ndarray, np.ndarray, int | None]], DesignTable]:
    """The greedy split of ``alpha_total`` over the first ``n`` sites for
    each ``n`` in ``sizes``: the funded sensors in ``order``, their shares,
    and the last one's lane in the returned table if it is only partly
    funded, those of all the splits designed in one batch from ``columns``.
    ``leak`` is each site's unconstrained Eve leakage."""
    splits = {}
    for n in sorted(sizes):
        ranked = order[order < n]
        # the budget left before each sensor and after the last: accumulate
        # subtracts in sequence, so it rounds as ``remaining -= share`` does
        left = np.subtract.accumulate(np.concatenate(([alpha_total], leak[ranked])))
        spent = left <= BUDGET_FLOOR
        spent[-1] = True
        ranked = ranked[:spent.argmax()]
        splits[n] = ranked, np.minimum(leak[ranked], left[:ranked.size])
    # a share below the sensor's free leakage always binds: no FC search
    partial = [n for n, (ranked, shares) in splits.items()
               if ranked.size and shares[-1] < leak[ranked[-1]]]
    lanes = columns[:, [splits[n][0][-1] for n in partial]]
    budgets = np.array([splits[n][1][-1] for n in partial])
    designs = _designs_at(lanes, _bound_thresholds(lanes, budgets), budgets, True)
    lane = {n: k for k, n in enumerate(partial)}
    return {n: (*split, lane.get(n)) for n, split in splits.items()}, designs


def sample_sites(
    n_sensors: int,
    seed: int,
    snr: float = 1.0,
    fc_crossover_high: float = 0.01,
    eve_crossover_high: float = 0.1,
) -> tuple[SensorSite, ...]:
    """Draw a random network: common unit-noise model at the given SNR,
    fusion-center crossovers uniform on [0, fc_crossover_high) and Eve
    crossovers uniform on [0, eve_crossover_high), each high in [0, 0.5].

    Fully determined by the seed; sweeping the network size with the same
    seed reuses prefixes of the same draw.
    """
    _check_integer("n_sensors", n_sensors)
    _check_integer("seed", seed)
    if n_sensors < 1:
        raise ValueError(f"n_sensors must be positive, got {n_sensors!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    if not 0.0 < snr < math.inf:  # also refuses NaN
        raise ValueError(f"snr must be finite and positive, got {snr!r}")
    for name, high in (("fc_crossover_high", fc_crossover_high),
                       ("eve_crossover_high", eve_crossover_high)):
        if not 0.0 <= high <= 0.5:
            raise ValueError(f"{name} must lie in [0, 0.5], got {high!r}")
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
    prefix = sites[: max(n_grid, default=0)]
    return _network(prefix, alpha_total, benchmark_ideal_fc, n_grid)[1]


def _check_network(alpha_total: float, n_grid: Sequence[int], n_sites: int) -> None:
    if not alpha_total >= 0.0:
        raise ValueError(f"alpha_total must be nonnegative, got {alpha_total!r}")
    if any(n2 < n1 for n1, n2 in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be sorted ascending")
    if n_grid and n_grid[0] < 1:
        raise ValueError(f"n_grid entries must be at least 1, got {n_grid[0]!r}")
    if n_grid and n_grid[-1] > n_sites:
        raise ValueError(
            f"n_grid asks for {n_grid[-1]} sensors but only {n_sites} sites given"
        )

