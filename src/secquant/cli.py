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
from typing import Any, Sequence

import numpy as np

from .allocation import AllocationResult, NetworkConfig, _network, _quality, sample_sites
from .boundary import trace_constraint_curve
from .errors import ArtifactError, UnimodalityError
from .export import csv_text, json_text, rows_as_json, write_all
from .gaussian import GaussianSensorModel
from .roc import (BscChannel, OperatingPoint, SensorSite, bsc_transform,
                  received_divergence)
from .solver import DesignTable, _site_columns, design_search_curve, design_table
from .detection import (_check_windows, _network_arrays, second_order_slope,
                        simulate_monte_carlo, stein_curve)

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


#: The JSON types each field kind takes: a float field also takes an
#: integer, and no field but a bool one takes a boolean.
_JSON_TYPES = {bool: bool, int: int, float: (int, float), str: str, Path: str}


def _typed(name: str, value: Any, kind: Any) -> Any:
    """``value`` converted to ``kind``, if its JSON type fits: a key of
    ``_JSON_TYPES``, a one-item list of one for an array of them, or a tuple
    of the strings the field may take."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ValueError(f"field {name} must be an array, got {value!r}")
        return [_typed(name, v, kind[0]) for v in value]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"field {name} must be {' or '.join(kind)}, got {value!r}")
        return value
    if isinstance(value, bool) != (kind is bool) or not isinstance(
        value, _JSON_TYPES[kind]
    ):
        raise ValueError(
            f"field {name} has the wrong type: expected {kind.__name__}, "
            f"got {value!r}"
        )
    return kind(value)


def _field(fields: dict[str, Any], name: str, kind: Any) -> Any:
    """The stored field ``name`` as ``kind``; JSON Infinity is a float."""
    return _typed(name, fields[name], kind)


#: The tabular output formats, ``--format`` or the config field ``format``.
_FORMATS = ("csv", "json")

#: The default of a field that every run must set.
REQUIRED = object()

#: A sensor site: its model and its two channels.
_SITE_FIELDS = dict.fromkeys(("theta", "sigma", "rho_fc", "rho_e"), (float, REQUIRED))

#: Each command's help and fields, ``{name: (kind, default)}``: the keys of
#: its config document, each also a flag ``--name-with-dashes`` unless it
#: is an array.  A kind is a key of ``_JSON_TYPES``, ``[kind]`` for an
#: array of them, or a tuple of the strings the field may take.
_COMMANDS: dict[str, tuple[str, dict[str, tuple[Any, Any]]]] = {
    "design": ("solve one sensor's constrained threshold", {
        **_SITE_FIELDS,
        "alpha_tilde": (float, REQUIRED),
        "out": (Path, REQUIRED),
        "h_trace_out": (Path, None),
        "h_trace_points": (int, 512),
    }),
    "tradeoff": ("sweep the secrecy budget", {
        **_SITE_FIELDS,
        "out": (Path, REQUIRED),
        "format": (_FORMATS, "csv"),
        "alphas": ([float], None),
        "alpha_min": (float, None),
        "alpha_max": (float, None),
        "alpha_count": (int, None),
    }),
    "greedy": ("allocate a total budget across a network", {
        "n_sensors": (int, REQUIRED),
        "alpha_total": (float, REQUIRED),
        "seed": (int, REQUIRED),
        "snr": (float, 1.0),
        "fc_crossover_high": (float, 0.01),
        "eve_crossover_high": (float, 0.1),
        "benchmark": (bool, False),
        "out": (Path, REQUIRED),
        "n_grid": ([int], None),
    }),
    "verify": ("check a stored design against exact baselines", {
        "artifact": (str, REQUIRED),
        "windows": ([int], [50, 100, 200, 400]),
        "delta": (float, 0.01),
        "tolerance": (float, 0.15),
        "window": (int, 20),
        "trials": (int, None),
        "seed": (int, None),
        "out": (Path, REQUIRED),
    }),
    "trace-boundary": ("export the Eve constraint boundary", {
        "alpha_tilde": (float, REQUIRED),
        "rho_e": (float, REQUIRED),
        "n_points": (int, 512),
        "out": (Path, REQUIRED),
        "format": (_FORMATS, "csv"),
    }),
}


def _config(args: argparse.Namespace) -> dict[str, Any]:
    """Each field of the command, typed: its flag if set, else its value in
    the config document, else its default.  A document key the command
    does not read, or a required field left unset, is a validation failure
    naming it."""
    fields = _COMMANDS[args.command][1]
    document = {} if args.config is None else _load_json(
        args.config, "config file", ValueError)
    unknown = sorted(set(document) - set(fields))
    if unknown:
        raise ValueError(f"{args.command} reads no config field {', '.join(unknown)}")
    cfg = {}
    for name, (kind, default) in fields.items():
        value = getattr(args, name, None)
        if value is None:
            value = document.get(name)
        if value is None:
            value = default
        if value is REQUIRED:
            raise ValueError(f"missing required field: {name}")
        cfg[name] = None if value is None else _typed(name, value, kind)
    return cfg


def _site_from(fields: dict[str, Any]) -> SensorSite:
    theta, sigma, rho_fc, rho_e = (_field(fields, name, float) for name in _SITE_FIELDS)
    return SensorSite(GaussianSensorModel(theta, sigma), BscChannel(rho_fc),
                      BscChannel(rho_e))


# The artifact codec.  A design artifact holds one design's keys plus its
# budget and site; a greedy summary holds them per sensor, with ``_i`` on the
# receivers' divergences, next to its allocation keys and the totals.  Each
# key is declared once, with the column it is read from and into, and its kind.

#: The columns of a design table's tails, in row order.
_TAILS = ("pfa", "pd", "pfa_c", "pd_c")
_DESIGN_KEYS = (
    ("lambda", "threshold", float),
    *((name, name, float) for name in (*_TAILS, "d_sensor", "d_fc", "d_eve")),
    ("binding", "binding", bool),
)
_ARTIFACT_KEYS = (*_DESIGN_KEYS, ("alpha_tilde", "budget", float))
_SENSOR_KEYS = (
    *((key + "_i" if key in ("d_fc", "d_eve") else key, column, kind)
      for key, column, kind in _DESIGN_KEYS),
    ("index", "index", int),
    ("k_i", "quality", float),
    ("active", "active", bool),
    *((name, name, float)
      for name in ("alpha_i", "d_fc_star", "d_eve_star", "rho_fc", "rho_e")),
)


def _columns_of(designs: DesignTable, sites: Sequence[SensorSite] = ()) -> dict:
    """A design table's columns, its tails by name, lane indices and sites'."""
    return {**vars(designs), **dict(zip(_TAILS, designs.tails)),
            "index": np.arange(designs.threshold.size),
            **dict(zip(_SITE_FIELDS, _site_columns(sites)))}


def _encoded(columns: dict[str, np.ndarray], keys: tuple) -> list[dict[str, Any]]:
    """One record of ``keys`` per lane, of ``tolist``'s Python values."""
    names = [key for key, _, _ in keys]
    return [dict(zip(names, lane))
            for lane in zip(*(columns[column].tolist() for _, column, _ in keys))]


def _decoded(entries: list[dict[str, Any]], keys: tuple) -> dict[str, np.ndarray]:
    """Each column that ``keys`` declare, from every entry's typed key; an
    entry without ``pfa_c`` or ``pd_c`` is read with 1 - pfa or 1 - pd."""
    return {
        column: np.array([
            _field(entry, key, kind) if key in entry or key not in _TAILS[2:]
            else 1.0 - _field(entry, key[:-2], float) for entry in entries
        ], dtype=kind)
        for key, column, kind in keys
    }


def _design_artifact(designs: DesignTable, site: SensorSite) -> dict[str, Any]:
    columns = _columns_of(designs, [site])
    (record,) = _encoded(columns, _ARTIFACT_KEYS)
    return {**record, "site": {name: columns[name].item() for name in _SITE_FIELDS},
            "units": "nats"}


def _sensor_records(sites: Sequence[SensorSite], result: AllocationResult) -> list:
    return _encoded({**_columns_of(result.designs, sites), **vars(result)}, _SENSOR_KEYS)


def _network_from(payload: dict[str, Any]) -> tuple[NetworkConfig, AllocationResult]:
    """The network and allocation an artifact stores, once
    :func:`_check_consistent` passes them.  A design artifact decodes as a
    network of one active sensor, sensor 0, funded at its own leakage."""
    try:
        if "per_sensor" in payload:
            entries = payload["per_sensor"]
            columns = _decoded(entries, _SENSOR_KEYS)
            # greedy networks share one unit-noise model at the stored snr
            model = {"theta": payload.get("snr", 1.0), "sigma": 1.0}
            sites = tuple(_site_from({**entry, **model}) for entry in entries)
            budget_field, columns["budget"] = "alpha_i", columns["alpha_i"]
            totals = [_field(payload, name, kind) for name, kind in (
                ("total_d_fc", float), ("total_d_eve", float), ("active_count", int),
                ("alpha_total", float))]
            stored = [name for name in ("benchmark_d_fc", "benchmark_d_eve")
                      if payload.get(name) is not None]
            if len(stored) == 1:
                raise ValueError("benchmark_d_fc and benchmark_d_eve must both be null "
                                 "or both be numbers")
            benchmark = [_field(payload, name, float) for name in stored] or [None, None]
        else:
            columns = _decoded([payload], _ARTIFACT_KEYS)
            sites = (_site_from(payload["site"]),)
            d_fc, d_eve = columns["d_fc"], columns["d_eve"]
            columns.update(alpha_i=d_eve, d_fc_star=d_fc, d_eve_star=d_eve,
                           active=np.ones(1, dtype=bool), quality=_quality(d_fc, d_eve))
            budget_field, benchmark = "alpha_tilde", [None, None]
            totals = [d_fc.item(), d_eve.item(), 1, columns["budget"].item()]
        tails = np.array([columns[name] for name in _TAILS])
        designs = DesignTable(columns["threshold"], tails, *(columns[name] for name in (
            "d_sensor", "d_fc", "d_eve", "binding", "budget")))
        result = AllocationResult(designs, *(columns[name] for name in (
            "alpha_i", "active", "quality", "d_fc_star", "d_eve_star")),
            *totals[:3], benchmark[0])
        config = NetworkConfig(sites=sites, alpha_total=totals[3])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"artifact is missing or corrupts fields: {exc}") from exc
    index = columns.get("index", 0)
    _check_consistent(config, result, budget_field, index, benchmark[1])
    return config, result


def _check_consistent(
    config: NetworkConfig, result: AllocationResult, budget_field: str,
    index: Any, benchmark_d_eve: float | None,
) -> None:
    """Raise unless each sensor's ``index`` is its position, its divergences
    recompute from the :func:`_network_arrays` table and the totals, benchmark
    ones too, add up over every sensor, asleep or not, to 1e-12 * max(1,
    |stored|); one asleep stores ``alpha_i`` and ``d_sensor`` 0, and no
    ``d_eve`` tops its budget by more than 1e-10 * max(1, budget)."""
    designs = result.designs
    tails, fc_rho, eve_rho = _network_arrays(config, result)
    checks = [
        ("total_d_fc", result.total_d_fc, math.fsum(designs.d_fc.tolist())),
        ("total_d_eve", result.total_d_eve, math.fsum(designs.d_eve.tolist())),
        ("active_count", result.active_count, int(np.count_nonzero(result.active))),
        ("index", index, np.arange(len(config.sites))),
        *((name, getattr(designs, name), received_divergence(tails, rho))
          for name, rho in (("d_sensor", 0.0), ("d_fc", fc_rho), ("d_eve", eve_rho))),
    ]
    if result.benchmark_d_fc is not None:
        # the benchmark runs the same designs through noiseless FC channels
        checks += [("benchmark_d_fc", result.benchmark_d_fc,
                    math.fsum(designs.d_sensor.tolist())),
                   ("benchmark_d_eve", benchmark_d_eve, result.total_d_eve)]
    for name, value, recomputed in checks:
        _require(np.abs(value - recomputed) <= 1e-12 * np.maximum(1.0, np.abs(value)),
                 name + " is {0!r} but recomputes to {1!r}", value, recomputed)
    _require(result.active | ((result.alpha_i == 0.0) & (designs.d_sensor == 0.0)),
             "is asleep but stores alpha_i {0!r} and d_sensor {1!r}",
             result.alpha_i, designs.d_sensor)
    for name, value, field, budget in (
        ("d_eve", designs.d_eve, budget_field, designs.budget),
        ("total_d_eve", result.total_d_eve, "alpha_total", config.alpha_total),
    ):
        _require(value - budget <= 1e-10 * np.maximum(1.0, budget),
                 name + " is {0!r}, over its budget " + field + " {1!r}", value, budget)


def _require(ok: Any, message: str, *values: Any) -> None:
    """Raise unless ``ok`` holds everywhere, with ``message`` formatted by
    ``values`` at the first sensor that fails, named if ``ok`` is an array."""
    if not np.all(ok):
        i = int(np.argmin(ok))
        where = f"sensor {i} " if np.ndim(ok) else ""
        raise ArtifactError("artifact is inconsistent: " + where + message.format(
            *(np.ravel(v)[i].item() for v in values)))


def _sibling(out: Path, suffix: str) -> Path:
    return out.with_name(out.stem + suffix)


def _columns(records: list[dict[str, Any]], header: list[str]) -> list[list[Any]]:
    """Table rows that project each record onto the header's fields."""
    return [[record[name] for name in header] for record in records]


def _table_text(fmt: str, header: list[str], rows: list) -> str:
    return rows_as_json(header, rows) if fmt == "json" else csv_text(header, rows)


def cmd_design(cfg: dict[str, Any]) -> int:
    site = _site_from(cfg)
    budget, out, n_points = cfg["alpha_tilde"], cfg["out"], cfg["h_trace_points"]
    if budget < 0.0:
        raise ValueError("alpha_tilde must be nonnegative")
    if n_points < 2:
        raise ValueError("h_trace_points must be at least 2")

    designs = design_table([site], [budget])
    if budget == 0.0:
        print("warning: alpha_tilde = 0 forces a blind design (zero divergence "
              "everywhere)", file=sys.stderr)
    files = [(out, json_text(_design_artifact(designs, site)))]
    if cfg["h_trace_out"] is not None:
        rows = design_search_curve(site, budget, n_points)
        files.append((cfg["h_trace_out"], csv_text(["lambda", "h"], rows)))
    write_all(files)
    return 0


def cmd_tradeoff(cfg: dict[str, Any]) -> int:
    site = _site_from(cfg)
    alphas = cfg["alphas"]
    if alphas is None:
        for name in ("alpha_min", "alpha_max", "alpha_count"):
            if cfg[name] is None:
                raise ValueError(f"missing required field: {name}")
        lo, hi, count = cfg["alpha_min"], cfg["alpha_max"], cfg["alpha_count"]
        # a non-finite end makes the grid's step NaN or infinite
        for name in ("alpha_min", "alpha_max"):
            if not math.isfinite(cfg[name]):
                raise ValueError(
                    f"{name} must be finite to build a grid, got {cfg[name]!r}")
        if count < 1:
            raise ValueError("alpha_count must be positive")
        if hi < lo:
            raise ValueError("alpha_max must not be below alpha_min")
        step = (hi - lo) / (count - 1) if count > 1 else 0.0
        alphas = [lo + k * step for k in range(count)]
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas grid must be sorted ascending")

    header = ["alpha_tilde", "d_fc_max", "lambda", "pfa", "pd", "d_eve", "binding"]
    designs = design_table([site] * len(alphas), alphas)
    keys = (*_ARTIFACT_KEYS, ("d_fc_max", "d_fc", float))
    rows = _columns(_encoded(_columns_of(designs), keys), header)
    write_all([(cfg["out"], _table_text(cfg["format"], header, rows))])
    return 0


def cmd_greedy(cfg: dict[str, Any]) -> int:
    benchmark, out, n_grid = cfg["benchmark"], cfg["out"], cfg["n_grid"]
    sampling = {name: cfg[name] for name in
                ("n_sensors", "seed", "snr", "fc_crossover_high", "eve_crossover_high")}
    sites = sample_sites(**sampling)
    result, points = _network(sites, cfg["alpha_total"], benchmark, n_grid or [])
    records = _sensor_records(sites, result)
    header = ["index", "k_i", "alpha_i", "active", "lambda", "d_fc_i", "d_eve_i"]
    summary = {
        **sampling,
        "alpha_total": cfg["alpha_total"],
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
        growth = csv_text(growth_header, growth_rows)
        files.append((_sibling(out, ".growth.csv"), growth))
    write_all(files)
    return 0


def cmd_trace_boundary(cfg: dict[str, Any]) -> int:
    budget = cfg["alpha_tilde"]
    if budget <= 0.0:
        raise ValueError("alpha_tilde must be positive for a boundary trace")
    eve = BscChannel(cfg["rho_e"])

    points = trace_constraint_curve(budget, eve, cfg["n_points"])
    tails = np.array([p.op.tails for p in points]).reshape(-1, 4).T
    d_e = received_divergence(tails, eve.crossover).tolist()
    header = ["x", "y", "x_e", "y_e", "slope", "curvature", "d_e"]
    rows = [
        (p.op.pfa, p.op.pd, p.eve_op.pfa, p.eve_op.pd, p.slope, p.curvature, d)
        for p, d in zip(points, d_e)
    ]
    write_all([(cfg["out"], _table_text(cfg["format"], header, rows))])
    return 0


def _stein_report(
    config: NetworkConfig, result: AllocationResult, windows: list[int],
    delta: float, tolerance: float,
) -> tuple[dict[str, Any], list[tuple]]:
    """Check the FC's miss exponent against the stored divergence.

    The last window's local slope must meet Strassen's second-order value
    (:func:`second_order_slope`, which tends to ``d_fc``) to within
    ``tolerance`` times ``d_fc``.

    Only a network of one active sensor is checked, against the total
    ``d_fc``: the exact ones-count test applies per i.i.d. stream, and the
    sleeping sensors' bits weigh 0.  Any other network reports its additive
    target with ``passed`` null.
    """
    active = np.flatnonzero(result.active).tolist()
    target, fc_op = result.total_d_fc, None
    if len(active) == 1:
        op = OperatingPoint(*result.designs.tails[:, active[0]].tolist())
        fc_op = bsc_transform(op, config.sites[active[0]].fc_channel)
    no_information = target < 1e-9 or (fc_op is not None and fc_op.on_diagonal)
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
        return report, []
    if fc_op is None:
        report["passed"] = None
        report["note"] = ("not checked: multi-sensor artifact, additive divergence "
                          "target reported; per-stream exponent checks apply to "
                          "single-sensor artifacts")
        return report, []
    points = stein_curve(fc_op, windows, delta)
    final = points[-1]
    predicted = second_order_slope(fc_op, final.window, delta)
    rel_gap = abs(final.local_slope - predicted) / target
    report.update(
        {
            "exponents": [p.exponent for p in points],
            "local_slopes": [p.local_slope for p in points],
            "final_local_slope": final.local_slope,
            "predicted_slope": predicted,
            "relative_gap": rel_gap,
            "passed": rel_gap <= tolerance,
        }
    )
    curve = [(p.window, p.log_miss, p.exponent, p.local_slope, target) for p in points]
    return report, curve


def cmd_verify(cfg: dict[str, Any]) -> int:
    artifact_path, windows, delta, tolerance, window, trials, seed, out = (
        cfg[k] for k in ("artifact", "windows", "delta", "tolerance", "window",
                         "trials", "seed", "out"))
    if not windows:
        raise ValueError("windows must not be empty")
    _check_windows(windows, delta)
    if not (0.0 <= tolerance < math.inf):  # also rejects NaN
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    _check_windows([window], delta)
    if trials is not None and seed is None:
        raise ValueError("missing required field: seed (needed for trials)")

    payload = _load_json(artifact_path, "artifact", ArtifactError)
    config, result = _network_from(payload)
    report, curve_rows = _stein_report(config, result, windows, delta, tolerance)
    report["artifact"] = artifact_path
    report["units"] = "nats"

    if trials is not None:
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
    """The ``secquant`` parser: per command, ``--config`` and a flag for
    each of its fields but the arrays, which only a config document sets."""
    parser = argparse.ArgumentParser(
        prog="secquant",
        description=(
            "Design secrecy-constrained binary sensor quantizers and verify "
            "them against exact detection-theoretic baselines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, fields) in _COMMANDS.items():
        p = sub.add_parser(command, help=help)
        p.add_argument("--config", help="JSON config document; flags override fields")
        for name, (kind, _) in fields.items():
            if isinstance(kind, list):
                continue
            options = (
                {"action": "store_const", "const": True} if kind is bool
                else {"choices": kind} if isinstance(kind, tuple)
                else {"type": kind} if kind in (int, float) else {}
            )
            p.add_argument("--" + name.replace("_", "-"), **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name on each run, so a wrapped handler is the one called
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(_config(args))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
