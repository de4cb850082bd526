"""Command-line front end.

Each subcommand reads an optional JSON config document, lets individual
flags override fields, validates, computes through the library, and writes
plot-ready CSV/JSON artifacts.  All divergences in artifacts are in nats.
Exit codes: 0 ok, 2 validation failure, 3 solver structural error,
4 artifact I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any

from .allocation import (
    AllocationResult,
    NetworkConfig,
    SensorAllocation,
    _allocate,
    _check_grid,
    _growth_points,
    _quality,
    sample_sites,
)
from .boundary import trace_constraint_curve
from .errors import ArtifactError, UnimodalityError
from .export import csv_text, json_text, rows_as_json, write_all
from .gaussian import GaussianSensorModel
from .roc import BscChannel, OperatingPoint, SensorSite, bsc_transform, kl_divergence
from .solver import (
    QuantizerDesign,
    design_quantizer,
    design_search_curve,
    tradeoff_curve,
    unconstrained_design,
)
from .detection import simulate_monte_carlo, stein_curve

DEFAULT_WINDOWS = [50, 100, 200, 400]
DEFAULT_SLOPE_TOLERANCE = 0.15


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()


def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ValueError(f"config file not found: {path}")
    try:
        payload = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("config file must hold a JSON object")
    return payload


def _merged(args: argparse.Namespace, fields: list[str]) -> dict[str, Any]:
    """Config document values overridden by any explicitly-set flags."""
    config = _load_config(args.config)
    merged = {name: config.get(name, _MISSING) for name in fields}
    for name in fields:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return merged


def _require(cfg: dict[str, Any], name: str) -> Any:
    if cfg[name] is _MISSING or cfg[name] is None:
        raise ValueError(f"missing required field: {name}")
    return cfg[name]


def _optional(cfg: dict[str, Any], name: str, default: Any) -> Any:
    return default if cfg[name] is _MISSING or cfg[name] is None else cfg[name]


def _site_from(cfg: dict[str, Any]) -> SensorSite:
    model = GaussianSensorModel(
        theta=float(_require(cfg, "theta")), sigma=float(_require(cfg, "sigma"))
    )
    return SensorSite(
        model=model,
        fc_channel=BscChannel(float(_require(cfg, "rho_fc"))),
        eve_channel=BscChannel(float(_require(cfg, "rho_e"))),
    )


def _design_payload(design: QuantizerDesign, site: SensorSite) -> dict[str, Any]:
    return {
        "lambda": design.threshold,
        "pfa": design.op.pfa,
        "pd": design.op.pd,
        "d_sensor": design.d_sensor,
        "d_fc": design.d_fc,
        "d_eve": design.d_eve,
        "binding": design.binding,
        "alpha_tilde": design.budget,
        "site": {
            "theta": site.model.theta,
            "sigma": site.model.sigma,
            "rho_fc": site.fc_channel.crossover,
            "rho_e": site.eve_channel.crossover,
        },
        "units": "nats",
    }


def _out_path(cfg: dict[str, Any]) -> Path:
    return Path(_require(cfg, "out"))


def _sibling(out: Path, suffix: str) -> Path:
    return out.with_name(out.stem + suffix)


def cmd_design(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        ["theta", "sigma", "rho_fc", "rho_e", "alpha_tilde", "out",
         "h_trace_out", "h_trace_points"],
    )
    site = _site_from(cfg)
    budget = float(_require(cfg, "alpha_tilde"))
    if budget < 0.0:
        raise ValueError("alpha_tilde must be nonnegative")
    out = _out_path(cfg)

    design = design_quantizer(site, budget)
    if budget == 0.0:
        print(
            "warning: alpha_tilde = 0 forces a blind design (zero divergence "
            "everywhere)",
            file=sys.stderr,
        )
    files = [(out, json_text(_design_payload(design, site)))]
    trace_out = _optional(cfg, "h_trace_out", None)
    if trace_out is not None:
        n_points = int(_optional(cfg, "h_trace_points", 512))
        if n_points < 2:
            raise ValueError("h_trace_points must be at least 2")
        rows = design_search_curve(site, budget, n_points)
        files.append((Path(trace_out), csv_text(["lambda", "h"], rows)))
    write_all(files)
    return 0


def cmd_tradeoff(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        ["theta", "sigma", "rho_fc", "rho_e", "out", "format",
         "alphas", "alpha_min", "alpha_max", "alpha_count"],
    )
    site = _site_from(cfg)
    out = _out_path(cfg)
    alphas = _optional(cfg, "alphas", None)
    if alphas is None:
        lo = float(_require(cfg, "alpha_min"))
        hi = float(_require(cfg, "alpha_max"))
        count = int(_require(cfg, "alpha_count"))
        if count < 1:
            raise ValueError("alpha_count must be positive")
        if hi < lo:
            raise ValueError("alpha_max must not be below alpha_min")
        step = (hi - lo) / (count - 1) if count > 1 else 0.0
        alphas = [lo + k * step for k in range(count)]
    else:
        alphas = [float(a) for a in alphas]
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas grid must be sorted ascending")

    points = tradeoff_curve(site, alphas)
    header = ["alpha_tilde", "d_fc_max", "lambda", "pfa", "pd", "d_eve", "binding"]
    rows = [
        (
            p.budget,
            p.d_fc_max,
            p.design.threshold,
            p.design.op.pfa,
            p.design.op.pd,
            p.design.d_eve,
            p.design.binding,
        )
        for p in points
    ]
    text = (
        rows_as_json(header, rows)
        if _optional(cfg, "format", "csv") == "json"
        else csv_text(header, rows)
    )
    write_all([(out, text)])
    return 0


def _greedy_summary(
    result: AllocationResult, cfg_record: dict[str, Any], sites: tuple[SensorSite, ...]
) -> dict[str, Any]:
    per_sensor = []
    for rec, site in zip(result.per_sensor, sites):
        per_sensor.append(
            {
                "index": rec.index,
                "k_i": rec.quality,
                "alpha_i": rec.alpha_i,
                "active": rec.active,
                "lambda": rec.design.threshold,
                "pfa": rec.design.op.pfa,
                "pd": rec.design.op.pd,
                "d_sensor": rec.design.d_sensor,
                "d_fc_i": rec.design.d_fc,
                "d_eve_i": rec.design.d_eve,
                "binding": rec.design.binding,
                "d_fc_star": rec.d_fc_star,
                "d_eve_star": rec.d_eve_star,
                "rho_fc": site.fc_channel.crossover,
                "rho_e": site.eve_channel.crossover,
            }
        )
    return {
        **cfg_record,
        "total_d_fc": result.total_d_fc,
        "total_d_eve": result.total_d_eve,
        "active_count": result.active_count,
        "benchmark_d_fc": result.benchmark_d_fc,
        "benchmark_d_eve": result.benchmark_d_eve,
        "per_sensor": per_sensor,
        "units": "nats",
    }


def cmd_greedy(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        ["n_sensors", "alpha_total", "seed", "snr", "fc_crossover_high",
         "eve_crossover_high", "benchmark", "n_grid", "out"],
    )
    n_sensors = int(_require(cfg, "n_sensors"))
    alpha_total = float(_require(cfg, "alpha_total"))
    seed = int(_require(cfg, "seed"))
    snr = float(_optional(cfg, "snr", 1.0))
    fc_high = float(_optional(cfg, "fc_crossover_high", 0.01))
    eve_high = float(_optional(cfg, "eve_crossover_high", 0.1))
    benchmark = bool(_optional(cfg, "benchmark", False))
    n_grid = _optional(cfg, "n_grid", None)
    out = _out_path(cfg)
    if n_grid is not None:
        n_grid = [int(n) for n in n_grid]
        _check_grid(n_grid, n_sensors)

    sites = sample_sites(n_sensors, seed, snr, fc_high, eve_high)
    # the allocation and every growth prefix share these designs, so each
    # site is solved once
    free_designs = [unconstrained_design(site) for site in sites]
    result = _allocate(
        NetworkConfig(
            sites=sites,
            alpha_total=alpha_total,
            benchmark_ideal_fc=benchmark,
            seed=seed,
        ),
        free_designs,
    )
    header = ["index", "k_i", "alpha_i", "active", "lambda", "d_fc_i", "d_eve_i"]
    rows = [
        (
            rec.index,
            rec.quality,
            rec.alpha_i,
            rec.active,
            rec.design.threshold,
            rec.design.d_fc,
            rec.design.d_eve,
        )
        for rec in result.per_sensor
    ]
    cfg_record = {
        "n_sensors": n_sensors,
        "alpha_total": alpha_total,
        "seed": seed,
        "snr": snr,
        "fc_crossover_high": fc_high,
        "eve_crossover_high": eve_high,
    }
    files = [
        (out, csv_text(header, rows)),
        (
            _sibling(out, ".summary.json"),
            json_text(_greedy_summary(result, cfg_record, sites)),
        ),
    ]
    if n_grid is not None:
        points = _growth_points(sites, alpha_total, n_grid, benchmark, free_designs)
        growth_header = ["n", "total_d_fc", "total_d_eve", "active_count"]
        if benchmark:
            growth_header += ["benchmark_d_fc", "benchmark_d_eve"]
        growth_rows = []
        for p in points:
            row = [p.n_sensors, p.total_d_fc, p.total_d_eve, p.active_count]
            if benchmark:
                row += [p.benchmark_d_fc, p.benchmark_d_eve]
            growth_rows.append(row)
        files.append(
            (_sibling(out, ".growth.csv"), csv_text(growth_header, growth_rows))
        )
    write_all(files)
    return 0


def cmd_trace_boundary(args: argparse.Namespace) -> int:
    cfg = _merged(args, ["alpha_tilde", "rho_e", "n_points", "out", "format"])
    budget = float(_require(cfg, "alpha_tilde"))
    if budget <= 0.0:
        raise ValueError("alpha_tilde must be positive for a boundary trace")
    eve = BscChannel(float(_require(cfg, "rho_e")))
    n_points = int(_optional(cfg, "n_points", 512))
    out = _out_path(cfg)

    points = trace_constraint_curve(budget, eve, n_points)
    header = ["x", "y", "x_e", "y_e", "slope", "curvature", "d_e"]
    rows = [
        (
            p.op.pfa,
            p.op.pd,
            p.eve_op.pfa,
            p.eve_op.pd,
            p.slope,
            p.curvature,
            kl_divergence(p.eve_op),
        )
        for p in points
    ]
    text = (
        rows_as_json(header, rows)
        if _optional(cfg, "format", "csv") == "json"
        else csv_text(header, rows)
    )
    write_all([(out, text)])
    return 0


def _load_artifact(path: str) -> dict[str, Any]:
    p = Path(path)
    if not p.exists():
        raise ArtifactError(f"artifact not found: {path}")
    try:
        payload = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"artifact unreadable: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError("artifact must hold a JSON object")
    return payload


def _design_from_payload(payload: dict[str, Any]) -> tuple[SensorSite, QuantizerDesign]:
    try:
        site_spec = payload["site"]
        model = GaussianSensorModel(
            theta=float(site_spec["theta"]), sigma=float(site_spec["sigma"])
        )
        site = SensorSite(
            model=model,
            fc_channel=BscChannel(float(site_spec["rho_fc"])),
            eve_channel=BscChannel(float(site_spec["rho_e"])),
        )
        design = QuantizerDesign(
            threshold=float(payload["lambda"]),
            op=OperatingPoint(float(payload["pfa"]), float(payload["pd"])),
            d_sensor=float(payload["d_sensor"]),
            d_fc=float(payload["d_fc"]),
            d_eve=float(payload["d_eve"]),
            binding=bool(payload["binding"]),
            budget=float(payload["alpha_tilde"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"artifact is missing or corrupts fields: {exc}") from exc
    return site, design


def _stein_report(
    fc_op: OperatingPoint,
    target: float,
    windows: list[int],
    delta: float,
    tolerance: float,
) -> tuple[dict[str, Any], list[tuple]]:
    no_information = target < 1e-9 or fc_op.on_diagonal
    curve_rows: list[tuple] = []
    report: dict[str, Any] = {
        "target_kld": target,
        "delta": delta,
        "tolerance": tolerance,
        "windows": windows,
        "no_information": no_information,
    }
    if no_information:
        report["passed"] = True
        report["note"] = "no information: divergence is zero, exponents stay at zero"
        return report, curve_rows
    points = stein_curve(fc_op, windows, delta)
    for p in points:
        curve_rows.append((p.window, p.log_miss, p.exponent, p.local_slope, target))
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
    return report, curve_rows


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        ["artifact", "windows", "delta", "tolerance", "trials", "window",
         "seed", "out"],
    )
    artifact_path = str(_require(cfg, "artifact"))
    windows = [int(w) for w in _optional(cfg, "windows", DEFAULT_WINDOWS)]
    delta = float(_optional(cfg, "delta", 0.01))
    tolerance = float(_optional(cfg, "tolerance", DEFAULT_SLOPE_TOLERANCE))
    trials = _optional(cfg, "trials", None)
    out = _out_path(cfg)

    payload = _load_artifact(artifact_path)
    if "per_sensor" in payload:
        sites, result = _allocation_from_payload(payload)
        fc_total = result.total_d_fc
        # exponent check applies to the aggregate bit stream; per-symbol
        # divergences add across sensors, so the target is the total
        report, curve_rows = _network_stein_report(
            sites, result, fc_total, windows, delta, tolerance
        )
        config = NetworkConfig(sites=sites, alpha_total=float(payload["alpha_total"]))
    else:
        site, design = _design_from_payload(payload)
        fc_op = bsc_transform(design.op, site.fc_channel)
        report, curve_rows = _stein_report(
            fc_op, design.d_fc, windows, delta, tolerance
        )
        sites = (site,)
        result = _single_design_allocation(design)
        config = NetworkConfig(sites=sites, alpha_total=max(design.budget, design.d_eve))

    report["artifact"] = artifact_path
    report["units"] = "nats"

    if trials is not None:
        trials = int(trials)
        seed = cfg["seed"]
        if seed is _MISSING or seed is None:
            raise ValueError("missing required field: seed (needed for trials)")
        window = int(_optional(cfg, "window", 20))
        mc = simulate_monte_carlo(
            config, result, window=window, trials=trials, seed=int(seed), delta=delta
        )
        config_digest = hashlib.sha256(
            json.dumps(
                {
                    "artifact": payload,
                    "window": window,
                    "trials": trials,
                    "delta": delta,
                    "seed": int(seed),
                },
                sort_keys=True,
                default=str,
            ).encode()
        ).hexdigest()
        report["monte_carlo"] = {
            "fc_fa_estimate": mc.fc_fa_estimate,
            "fc_miss_estimate": mc.fc_miss_estimate,
            "eve_fa_estimate": mc.eve_fa_estimate,
            "eve_miss_estimate": mc.eve_miss_estimate,
            "fc_fa_se": mc.fc_fa_se,
            "fc_miss_se": mc.fc_miss_se,
            "eve_fa_se": mc.eve_fa_se,
            "eve_miss_se": mc.eve_miss_se,
            "window": mc.window,
            "trials": mc.trials,
            "calibration_trials": mc.calibration_trials,
            "seed": mc.seed,
            "config_hash": config_digest,
        }

    files = [(out, json_text(report))]
    if curve_rows:
        files.append(
            (
                _sibling(out, ".stein.csv"),
                csv_text(
                    ["window", "log_miss", "exponent", "local_slope", "target_kld"],
                    curve_rows,
                ),
            )
        )
    write_all(files)
    passed = report.get("passed")
    status = "unchecked" if passed is None else "pass" if passed else "fail"
    print(f"verify: {status} (report at {out})")
    return 0


def _single_design_allocation(design: QuantizerDesign) -> AllocationResult:
    record = SensorAllocation(
        index=0,
        alpha_i=design.d_eve,
        design=design,
        active=True,
        quality=_quality(design),
        d_fc_star=design.d_fc,
        d_eve_star=design.d_eve,
    )
    return AllocationResult(
        per_sensor=(record,),
        total_d_fc=design.d_fc,
        total_d_eve=design.d_eve,
        active_count=1,
    )


def _allocation_from_payload(
    payload: dict[str, Any],
) -> tuple[tuple[SensorSite, ...], AllocationResult]:
    try:
        snr = float(payload.get("snr", 1.0))
        model = GaussianSensorModel(theta=snr, sigma=1.0)
        sites = []
        records = []
        for entry in payload["per_sensor"]:
            site = SensorSite(
                model=model,
                fc_channel=BscChannel(float(entry["rho_fc"])),
                eve_channel=BscChannel(float(entry["rho_e"])),
            )
            design = QuantizerDesign(
                threshold=float(entry["lambda"]),
                op=OperatingPoint(float(entry["pfa"]), float(entry["pd"])),
                d_sensor=float(entry["d_sensor"]),
                d_fc=float(entry["d_fc_i"]),
                d_eve=float(entry["d_eve_i"]),
                binding=bool(entry["binding"]),
                budget=float(entry["alpha_i"]),
            )
            sites.append(site)
            records.append(
                SensorAllocation(
                    index=int(entry["index"]),
                    alpha_i=float(entry["alpha_i"]),
                    design=design,
                    active=bool(entry["active"]),
                    quality=float(entry["k_i"]),
                    d_fc_star=float(entry["d_fc_star"]),
                    d_eve_star=float(entry["d_eve_star"]),
                )
            )
        result = AllocationResult(
            per_sensor=tuple(records),
            total_d_fc=float(payload["total_d_fc"]),
            total_d_eve=float(payload["total_d_eve"]),
            active_count=int(payload["active_count"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"allocation artifact malformed: {exc}") from exc
    return tuple(sites), result


def _network_stein_report(
    sites: tuple[SensorSite, ...],
    result: AllocationResult,
    target: float,
    windows: list[int],
    delta: float,
    tolerance: float,
) -> tuple[dict[str, Any], list[tuple]]:
    # single-sensor networks get the exact per-sensor check; larger ones
    # only report the additive target (the exact ones-count test applies
    # per i.i.d. stream, not across heterogeneous sensors), so nothing is
    # checked and ``passed`` stays null
    active = [rec for rec in result.per_sensor if rec.active]
    if len(sites) == 1 and len(active) == 1:
        rec = active[0]
        fc_op = bsc_transform(rec.design.op, sites[0].fc_channel)
        return _stein_report(fc_op, rec.design.d_fc, windows, delta, tolerance)
    report = {
        "target_kld": target,
        "delta": delta,
        "tolerance": tolerance,
        "windows": windows,
        "no_information": target < 1e-9,
        "passed": None,
        "note": (
            "not checked: multi-sensor artifact, additive divergence target "
            "reported; per-stream exponent checks apply to single-sensor "
            "artifacts"
        ),
    }
    return report, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secquant",
        description=(
            "Design secrecy-constrained binary sensor quantizers and verify "
            "them against exact detection-theoretic baselines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config document; flags override fields")
        p.add_argument("--seed", type=int, help="seed for randomized commands")
        p.add_argument("--out", help="primary output artifact path")
        p.add_argument("--format", choices=["csv", "json"], help="tabular output format")

    p = sub.add_parser("design", help="solve one sensor's constrained threshold")
    add_common(p)
    p.add_argument("--theta", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--rho-fc", dest="rho_fc", type=float)
    p.add_argument("--rho-e", dest="rho_e", type=float)
    p.add_argument("--alpha-tilde", dest="alpha_tilde", type=float)
    p.add_argument("--h-trace-out", dest="h_trace_out")
    p.add_argument("--h-trace-points", dest="h_trace_points", type=int)
    p.set_defaults(handler=cmd_design)

    p = sub.add_parser("tradeoff", help="sweep the secrecy budget")
    add_common(p)
    p.add_argument("--theta", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--rho-fc", dest="rho_fc", type=float)
    p.add_argument("--rho-e", dest="rho_e", type=float)
    p.add_argument("--alpha-min", dest="alpha_min", type=float)
    p.add_argument("--alpha-max", dest="alpha_max", type=float)
    p.add_argument("--alpha-count", dest="alpha_count", type=int)
    p.set_defaults(handler=cmd_tradeoff)

    p = sub.add_parser("greedy", help="allocate a total budget across a network")
    add_common(p)
    p.add_argument("--n-sensors", dest="n_sensors", type=int)
    p.add_argument("--alpha-total", dest="alpha_total", type=float)
    p.add_argument("--snr", type=float)
    p.add_argument("--fc-crossover-high", dest="fc_crossover_high", type=float)
    p.add_argument("--eve-crossover-high", dest="eve_crossover_high", type=float)
    p.add_argument("--benchmark", action="store_const", const=True)
    p.set_defaults(handler=cmd_greedy)

    p = sub.add_parser("verify", help="check a stored design against exact baselines")
    add_common(p)
    p.add_argument("--artifact")
    p.add_argument("--trials", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--tolerance", type=float)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("trace-boundary", help="export the Eve constraint boundary")
    add_common(p)
    p.add_argument("--alpha-tilde", dest="alpha_tilde", type=float)
    p.add_argument("--rho-e", dest="rho_e", type=float)
    p.add_argument("--n-points", dest="n_points", type=int)
    p.set_defaults(handler=cmd_trace_boundary)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UnimodalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
