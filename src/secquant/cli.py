"""Command-line front end.

Each subcommand reads an optional JSON config document, lets individual
flags override fields, validates, computes through the library, and writes
plot-ready CSV/JSON artifacts.  All divergences in artifacts are in nats.
Exit codes: 0 ok, 2 validation failure, 3 solver structural error,
4 artifact I/O failure or a malformed or inconsistent artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .allocation import (
    AllocationResult,
    NetworkConfig,
    SensorAllocation,
    _check_grid,
    _network,
    _quality,
    sample_sites,
)
from .boundary import trace_constraint_curve
from .errors import ArtifactError, UnimodalityError
from .export import csv_text, json_text, rows_as_json, write_all
from .gaussian import GaussianSensorModel
from .roc import (
    BscChannel,
    OperatingPoint,
    SensorSite,
    bsc_transform,
    kl_divergence,
    received_divergence,
    site_divergences,
)
from .solver import (
    QuantizerDesign,
    design_quantizer,
    design_search_curve,
    tradeoff_curve,
)
from .detection import simulate_monte_carlo, stein_curve

DEFAULT_WINDOWS = [50, 100, 200, 400]
DEFAULT_SLOPE_TOLERANCE = 0.15

#: Exit code of each handled error, first match wins: 2 validation failure,
#: 3 solver structural error, 4 artifact I/O failure or malformed artifact.
_EXIT_CODES = {UnimodalityError: 3, ArtifactError: 4, ValueError: 2, OSError: 4}


def _load_json(path: str, kind: str, error: type[Exception]) -> dict[str, Any]:
    """The JSON object stored at ``path``; any failure raises ``error``."""
    p = Path(path)
    if not p.exists():
        raise error(f"{kind} not found: {path}")
    try:
        payload = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise error(f"{kind} unreadable: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"{kind} must hold a JSON object")
    return payload


def _merged(args: argparse.Namespace, fields: list[str]) -> dict[str, Any]:
    """Config document values overridden by any explicitly-set flags."""
    config = {}
    if args.config is not None:
        config = _load_json(args.config, "config file", ValueError)
    merged = {name: config.get(name) for name in fields}
    for name in fields:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return merged


def _require(cfg: dict[str, Any], name: str, kind: Callable) -> Any:
    if cfg[name] is None:
        raise ValueError(f"missing required field: {name}")
    return _optional(cfg, name, kind, None)


def _optional(cfg: dict[str, Any], name: str, kind: Callable, default: Any) -> Any:
    """``cfg[name]`` converted by ``kind``, or ``default`` when unset; a
    value of the wrong JSON type is a validation failure naming the field."""
    if cfg[name] is None:
        return default
    try:
        return kind(cfg[name])
    except TypeError as exc:
        raise ValueError(f"field {name} has the wrong type: {exc}") from exc


def _list_of(kind: Callable) -> Callable[[Any], list]:
    return lambda values: [kind(v) for v in values]


def _site_from(cfg: dict[str, Any]) -> SensorSite:
    model = GaussianSensorModel(
        theta=_require(cfg, "theta", float), sigma=_require(cfg, "sigma", float)
    )
    return SensorSite(
        model=model,
        fc_channel=BscChannel(_require(cfg, "rho_fc", float)),
        eve_channel=BscChannel(_require(cfg, "rho_e", float)),
    )


# The artifact codec.  A design artifact holds one design's fields plus its
# budget and site; a greedy summary holds the same fields per sensor, with
# ``_i`` on the divergences, and the network's totals.


def _design_fields(design: QuantizerDesign, suffix: str) -> dict[str, Any]:
    return {
        "lambda": design.threshold,
        "pfa": design.op.pfa,
        "pd": design.op.pd,
        "d_sensor": design.d_sensor,
        f"d_fc{suffix}": design.d_fc,
        f"d_eve{suffix}": design.d_eve,
        "binding": design.binding,
    }


def _design_from(fields: dict[str, Any], suffix: str, budget: float) -> QuantizerDesign:
    return QuantizerDesign(
        threshold=float(fields["lambda"]),
        op=OperatingPoint(float(fields["pfa"]), float(fields["pd"])),
        d_sensor=float(fields["d_sensor"]),
        d_fc=float(fields[f"d_fc{suffix}"]),
        d_eve=float(fields[f"d_eve{suffix}"]),
        binding=bool(fields["binding"]),
        budget=budget,
    )


def _design_artifact(design: QuantizerDesign, site: SensorSite) -> dict[str, Any]:
    return {
        **_design_fields(design, ""),
        "alpha_tilde": design.budget,
        "site": {"theta": site.model.theta, "sigma": site.model.sigma,
                 "rho_fc": site.fc_channel.crossover,
                 "rho_e": site.eve_channel.crossover},
        "units": "nats",
    }


def _sensor_record(rec: SensorAllocation, site: SensorSite) -> dict[str, Any]:
    return {
        "index": rec.index,
        "k_i": rec.quality,
        "alpha_i": rec.alpha_i,
        "active": rec.active,
        **_design_fields(rec.design, "_i"),
        "d_fc_star": rec.d_fc_star,
        "d_eve_star": rec.d_eve_star,
        "rho_fc": site.fc_channel.crossover,
        "rho_e": site.eve_channel.crossover,
    }


def _network_from(payload: dict[str, Any]) -> tuple[NetworkConfig, AllocationResult]:
    """The network and allocation an artifact stores.  A design artifact
    decodes as a network of one active sensor, funded at its own leakage.

    Every stored divergence, total and count must match its recomputation
    from the stored operating points and channels.
    """
    try:
        if "per_sensor" in payload:
            # greedy networks share one unit-noise model at the stored snr
            model = {"theta": payload.get("snr", 1.0), "sigma": 1.0}
            entries = payload["per_sensor"]
            sites = tuple(_site_from({**entry, **model}) for entry in entries)
            records = tuple(
                SensorAllocation(
                    index=int(entry["index"]),
                    alpha_i=float(entry["alpha_i"]),
                    design=_design_from(entry, "_i", float(entry["alpha_i"])),
                    active=bool(entry["active"]),
                    quality=float(entry["k_i"]),
                    d_fc_star=float(entry["d_fc_star"]),
                    d_eve_star=float(entry["d_eve_star"]),
                )
                for entry in entries
            )
            result = AllocationResult(
                per_sensor=records,
                total_d_fc=float(payload["total_d_fc"]),
                total_d_eve=float(payload["total_d_eve"]),
                active_count=int(payload["active_count"]),
            )
            alpha_total = float(payload["alpha_total"])
        else:
            sites = (_site_from(payload["site"]),)
            design = _design_from(payload, "", float(payload["alpha_tilde"]))
            record = SensorAllocation(
                index=0,
                alpha_i=design.d_eve,
                design=design,
                active=True,
                quality=_quality(design),
                d_fc_star=design.d_fc,
                d_eve_star=design.d_eve,
            )
            result = AllocationResult(
                per_sensor=(record,),
                total_d_fc=design.d_fc,
                total_d_eve=design.d_eve,
                active_count=1,
            )
            alpha_total = max(design.budget, design.d_eve)
        config = NetworkConfig(sites=sites, alpha_total=alpha_total)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"artifact is missing or corrupts fields: {exc}") from exc
    _check_consistent(config, result)
    return config, result


def _check_consistent(config: NetworkConfig, result: AllocationResult) -> None:
    active = [rec for rec in result.per_sensor if rec.active]
    checks = [
        ("total_d_fc", result.total_d_fc, math.fsum(r.design.d_fc for r in active)),
        ("total_d_eve", result.total_d_eve, math.fsum(r.design.d_eve for r in active)),
        ("active_count", result.active_count, len(active)),
    ]
    for site, rec in zip(config.sites, result.per_sensor):
        op = rec.design.op
        d_fc, d_eve = site_divergences(op, site)
        checks += [
            (f"sensor {rec.index} d_sensor", rec.design.d_sensor, kl_divergence(op)),
            (f"sensor {rec.index} d_fc", rec.design.d_fc, d_fc),
            (f"sensor {rec.index} d_eve", rec.design.d_eve, d_eve),
        ]
    for name, stored, value in checks:
        if not abs(stored - value) <= 1e-12 * max(1.0, abs(stored)):
            raise ArtifactError(
                f"artifact is inconsistent: {name} is {stored!r} but "
                f"recomputes to {value!r}"
            )


def _sibling(out: Path, suffix: str) -> Path:
    return out.with_name(out.stem + suffix)


def _columns(records: list[dict[str, Any]], header: list[str]) -> list[list[Any]]:
    """Table rows that project each record onto the header's fields."""
    return [[record[name] for name in header] for record in records]


def _table_text(cfg: dict[str, Any], header: list[str], rows: list) -> str:
    if _optional(cfg, "format", str, "csv") == "json":
        return rows_as_json(header, rows)
    return csv_text(header, rows)


def cmd_design(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        ["theta", "sigma", "rho_fc", "rho_e", "alpha_tilde", "out",
         "h_trace_out", "h_trace_points"],
    )
    site = _site_from(cfg)
    budget = _require(cfg, "alpha_tilde", float)
    if budget < 0.0:
        raise ValueError("alpha_tilde must be nonnegative")
    out = _require(cfg, "out", Path)
    n_points = _optional(cfg, "h_trace_points", int, 512)
    if n_points < 2:
        raise ValueError("h_trace_points must be at least 2")

    design = design_quantizer(site, budget)
    if budget == 0.0:
        print(
            "warning: alpha_tilde = 0 forces a blind design (zero divergence "
            "everywhere)",
            file=sys.stderr,
        )
    files = [(out, json_text(_design_artifact(design, site)))]
    trace_out = _optional(cfg, "h_trace_out", Path, None)
    if trace_out is not None:
        rows = design_search_curve(site, budget, n_points)
        files.append((trace_out, csv_text(["lambda", "h"], rows)))
    write_all(files)
    return 0


def cmd_tradeoff(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        ["theta", "sigma", "rho_fc", "rho_e", "out", "format",
         "alphas", "alpha_min", "alpha_max", "alpha_count"],
    )
    site = _site_from(cfg)
    out = _require(cfg, "out", Path)
    alphas = _optional(cfg, "alphas", _list_of(float), None)
    if alphas is None:
        lo = _require(cfg, "alpha_min", float)
        hi = _require(cfg, "alpha_max", float)
        count = _require(cfg, "alpha_count", int)
        if count < 1:
            raise ValueError("alpha_count must be positive")
        if hi < lo:
            raise ValueError("alpha_max must not be below alpha_min")
        step = (hi - lo) / (count - 1) if count > 1 else 0.0
        alphas = [lo + k * step for k in range(count)]
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas grid must be sorted ascending")

    header = ["alpha_tilde", "d_fc_max", "lambda", "pfa", "pd", "d_eve", "binding"]
    records = [
        {"alpha_tilde": d.budget, "d_fc_max": d.d_fc, **_design_fields(d, "")}
        for d in tradeoff_curve(site, alphas)
    ]
    write_all([(out, _table_text(cfg, header, _columns(records, header)))])
    return 0


def cmd_greedy(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        ["n_sensors", "alpha_total", "seed", "snr", "fc_crossover_high",
         "eve_crossover_high", "benchmark", "n_grid", "out"],
    )
    n_sensors = _require(cfg, "n_sensors", int)
    alpha_total = _require(cfg, "alpha_total", float)
    seed = _require(cfg, "seed", int)
    snr = _optional(cfg, "snr", float, 1.0)
    fc_high = _optional(cfg, "fc_crossover_high", float, 0.01)
    eve_high = _optional(cfg, "eve_crossover_high", float, 0.1)
    benchmark = _optional(cfg, "benchmark", bool, False)
    out = _require(cfg, "out", Path)
    n_grid = _optional(cfg, "n_grid", _list_of(int), None)
    if n_grid is not None:
        _check_grid(n_grid, n_sensors)

    sites = sample_sites(n_sensors, seed, snr, fc_high, eve_high)
    NetworkConfig(sites=sites, alpha_total=alpha_total)  # validates the budget
    result, points = _network(sites, alpha_total, benchmark, n_grid or [])
    records = [_sensor_record(rec, site) for rec, site in zip(result.per_sensor, sites)]
    header = ["index", "k_i", "alpha_i", "active", "lambda", "d_fc_i", "d_eve_i"]
    summary = {
        "n_sensors": n_sensors,
        "alpha_total": alpha_total,
        "seed": seed,
        "snr": snr,
        "fc_crossover_high": fc_high,
        "eve_crossover_high": eve_high,
        "total_d_fc": result.total_d_fc,
        "total_d_eve": result.total_d_eve,
        "active_count": result.active_count,
        "benchmark_d_fc": result.benchmark_d_fc,
        # Eve's channels are the same in the benchmark
        "benchmark_d_eve": result.total_d_eve if benchmark else None,
        "per_sensor": records,
        "units": "nats",
    }
    files = [
        (out, csv_text(header, _columns(records, header))),
        (_sibling(out, ".summary.json"), json_text(summary)),
    ]
    if n_grid is not None:
        growth_header = ["n", "total_d_fc", "total_d_eve", "active_count"]
        if benchmark:
            growth_header += ["benchmark_d_fc", "benchmark_d_eve"]
        growth_rows = [
            (p.n_sensors, p.total_d_fc, p.total_d_eve, p.active_count,
             p.benchmark_d_fc, p.total_d_eve)[: len(growth_header)]
            for p in points
        ]
        files.append(
            (_sibling(out, ".growth.csv"), csv_text(growth_header, growth_rows))
        )
    write_all(files)
    return 0


def cmd_trace_boundary(args: argparse.Namespace) -> int:
    cfg = _merged(args, ["alpha_tilde", "rho_e", "n_points", "out", "format"])
    budget = _require(cfg, "alpha_tilde", float)
    if budget <= 0.0:
        raise ValueError("alpha_tilde must be positive for a boundary trace")
    eve = BscChannel(_require(cfg, "rho_e", float))
    n_points = _optional(cfg, "n_points", int, 512)
    out = _require(cfg, "out", Path)

    points = trace_constraint_curve(budget, eve, n_points)
    x, y = np.array([(p.op.pfa, p.op.pd) for p in points]).reshape(-1, 2).T
    d_e = received_divergence(x, y, eve.crossover).tolist()
    header = ["x", "y", "x_e", "y_e", "slope", "curvature", "d_e"]
    rows = [
        (p.op.pfa, p.op.pd, p.eve_op.pfa, p.eve_op.pd, p.slope, p.curvature, d)
        for p, d in zip(points, d_e)
    ]
    write_all([(out, _table_text(cfg, header, rows))])
    return 0


def _stein_report(
    config: NetworkConfig, result: AllocationResult, windows: list[int],
    delta: float, tolerance: float,
) -> tuple[dict[str, Any], list[tuple]]:
    """Check the FC's miss exponent against the stored divergence.

    Only a network of one active sensor is checked: the exact ones-count
    test applies per i.i.d. stream, not across heterogeneous sensors, so a
    larger network reports its additive target with ``passed`` null.
    """
    active = [rec for rec in result.per_sensor if rec.active]
    if len(config.sites) == 1 and len(active) == 1:
        target = active[0].design.d_fc
        fc_op = bsc_transform(active[0].design.op, config.sites[0].fc_channel)
    else:
        target, fc_op = result.total_d_fc, None
    no_information = target < 1e-9 or (fc_op is not None and fc_op.on_diagonal)
    report: dict[str, Any] = {
        "target_kld": target,
        "delta": delta,
        "tolerance": tolerance,
        "windows": windows,
        "no_information": no_information,
    }
    if fc_op is None:
        report["passed"] = None
        report["note"] = (
            "not checked: multi-sensor artifact, additive divergence target "
            "reported; per-stream exponent checks apply to single-sensor "
            "artifacts"
        )
        return report, []
    if no_information:
        report["passed"] = True
        report["note"] = "no information: divergence is zero, exponents stay at zero"
        return report, []
    points = stein_curve(fc_op, windows, delta)
    final = points[-1]
    rel_gap = abs(final.local_slope - target) / target
    report.update(
        {
            "exponents": [p.exponent for p in points],
            "local_slopes": [p.local_slope for p in points],
            "final_local_slope": final.local_slope,
            "relative_gap": rel_gap,
            "passed": rel_gap <= tolerance,
        }
    )
    curve = [(p.window, p.log_miss, p.exponent, p.local_slope, target) for p in points]
    return report, curve


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        ["artifact", "windows", "delta", "tolerance", "trials", "window",
         "seed", "out"],
    )
    artifact_path = _require(cfg, "artifact", str)
    windows = _optional(cfg, "windows", _list_of(int), DEFAULT_WINDOWS)
    if not windows:
        raise ValueError("windows must not be empty")
    delta = _optional(cfg, "delta", float, 0.01)
    if not (0.0 < delta < 0.5):
        raise ValueError(f"delta must lie in (0, 0.5), got {delta!r}")
    tolerance = _optional(cfg, "tolerance", float, DEFAULT_SLOPE_TOLERANCE)
    if not (0.0 <= tolerance < math.inf):  # also rejects NaN
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    window = _optional(cfg, "window", int, 20)
    if window < 1:
        raise ValueError(f"window must be positive, got {window!r}")
    trials = cfg["trials"]
    out = _require(cfg, "out", Path)

    payload = _load_json(artifact_path, "artifact", ArtifactError)
    config, result = _network_from(payload)
    report, curve_rows = _stein_report(config, result, windows, delta, tolerance)
    report["artifact"] = artifact_path
    report["units"] = "nats"

    if trials is not None:
        trials = _optional(cfg, "trials", int, None)
        if cfg["seed"] is None:
            raise ValueError("missing required field: seed (needed for trials)")
        seed = _optional(cfg, "seed", int, None)
        mc = simulate_monte_carlo(
            config, result, window=window, trials=trials, seed=seed, delta=delta
        )
        provenance = {"artifact": payload, "window": window, "trials": trials,
                      "delta": delta, "seed": seed}
        digest = hashlib.sha256(
            json.dumps(provenance, sort_keys=True, default=str).encode()
        ).hexdigest()
        # every field of the result but delta, which the report already holds
        mc_fields = {k: v for k, v in vars(mc).items() if k != "delta"}
        report["monte_carlo"] = {**mc_fields, "config_hash": digest}

    files = [(out, json_text(report))]
    if curve_rows:
        header = ["window", "log_miss", "exponent", "local_slope", "target_kld"]
        files.append((_sibling(out, ".stein.csv"), csv_text(header, curve_rows)))
    write_all(files)
    passed = report["passed"]
    status = "unchecked" if passed is None else "pass" if passed else "fail"
    print(f"verify: {status} (report at {out})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secquant",
        description=(
            "Design secrecy-constrained binary sensor quantizers and verify "
            "them against exact detection-theoretic baselines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(
        name: str, help: str, handler: Callable, *shared: str
    ) -> argparse.ArgumentParser:
        """A subcommand with ``--config`` and ``--out``, plus those of
        ``--seed`` and ``--format`` that it reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config document; flags override fields")
        p.add_argument("--out", help="primary output artifact path")
        if "seed" in shared:
            p.add_argument("--seed", type=int, help="seed for randomized commands")
        if "format" in shared:
            p.add_argument(
                "--format", choices=["csv", "json"], help="tabular output format"
            )
        p.set_defaults(handler=handler)
        return p

    def add_flags(p: argparse.ArgumentParser, kind: type, *flags: str) -> None:
        for flag in flags:
            p.add_argument(flag, type=kind)

    site_flags = ("--theta", "--sigma", "--rho-fc", "--rho-e")

    p = add_command("design", "solve one sensor's constrained threshold", cmd_design)
    add_flags(p, float, *site_flags, "--alpha-tilde")
    add_flags(p, str, "--h-trace-out")
    add_flags(p, int, "--h-trace-points")

    p = add_command("tradeoff", "sweep the secrecy budget", cmd_tradeoff, "format")
    add_flags(p, float, *site_flags, "--alpha-min", "--alpha-max")
    add_flags(p, int, "--alpha-count")

    p = add_command(
        "greedy", "allocate a total budget across a network", cmd_greedy, "seed"
    )
    add_flags(p, int, "--n-sensors")
    add_flags(
        p, float, "--alpha-total", "--snr", "--fc-crossover-high",
        "--eve-crossover-high",
    )
    p.add_argument("--benchmark", action="store_const", const=True)

    p = add_command(
        "verify", "check a stored design against exact baselines", cmd_verify, "seed"
    )
    add_flags(p, str, "--artifact")
    add_flags(p, int, "--trials", "--window")
    add_flags(p, float, "--delta", "--tolerance")

    p = add_command(
        "trace-boundary", "export the Eve constraint boundary", cmd_trace_boundary,
        "format",
    )
    add_flags(p, float, "--alpha-tilde", "--rho-e")
    add_flags(p, int, "--n-points")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
