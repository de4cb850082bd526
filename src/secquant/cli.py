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
from .roc import BscChannel, OperatingPoint, SensorSite, received_divergence
from .solver import DesignTable, _site_columns, design_table, eve_divergence_gap
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
    theta, sigma, rho_fc, rho_e = (_typed(name, fields[name], float) for name in _SITE_FIELDS)
    return SensorSite(GaussianSensorModel(theta, sigma), BscChannel(rho_fc),
                      BscChannel(rho_e))


# The artifact codec.  A design artifact holds one design's keys plus its
# budget and site; a greedy summary holds them per sensor, with ``_i`` on the
# receivers' divergences, next to its inputs and the totals.  Each key is
# declared once, with the column it is written from.

#: The columns of a design table's tails, in row order.
_TAILS = ("pfa", "pd", "pfa_c", "pd_c")
_DESIGN_KEYS = (
    ("lambda", "threshold"),
    *((name, name) for name in (*_TAILS, "d_sensor", "d_fc", "d_eve")),
    ("binding", "binding"),
)
_ARTIFACT_KEYS = (*_DESIGN_KEYS, ("alpha_tilde", "budget"))
_SENSOR_KEYS = (
    *((key + "_i" if key in ("d_fc", "d_eve") else key, column)
      for key, column in _DESIGN_KEYS),
    ("index", "index"),
    ("k_i", "quality"),
    ("active", "active"),
    ("alpha_i", "budget"),
    *((name, name) for name in ("d_fc_star", "d_eve_star", "rho_fc", "rho_e")),
)


def _columns_of(designs: DesignTable, sites: Sequence[SensorSite] = ()) -> dict:
    """A design table's columns, its tails by name, lane indices and sites'."""
    return {**vars(designs), **dict(zip(_TAILS, designs.tails)),
            "index": np.arange(designs.threshold.size),
            **dict(zip(_SITE_FIELDS, _site_columns(sites)))}


def _encoded(columns: dict[str, np.ndarray], keys: tuple) -> list[dict[str, Any]]:
    """One record of ``keys`` per lane, of ``tolist``'s Python values."""
    names = [key for key, _ in keys]
    return [dict(zip(names, lane))
            for lane in zip(*(columns[column].tolist() for _, column in keys))]


def _design_artifact(designs: DesignTable, site: SensorSite) -> dict[str, Any]:
    columns = _columns_of(designs, [site])
    (record,) = _encoded(columns, _ARTIFACT_KEYS)
    return {**record, "site": {name: columns[name].item() for name in _SITE_FIELDS},
            "units": "nats"}


#: The fields of a greedy summary that draw its sites (:func:`sample_sites`).
_SAMPLING = ("n_sensors", "seed", "snr", "fc_crossover_high", "eve_crossover_high")


def _summary(sampling: dict[str, Any], alpha_total: float,
             sites: Sequence[SensorSite], result: AllocationResult) -> dict[str, Any]:
    """The greedy summary of a split: the fields that drew its sites and its
    budget, its totals, the benchmark's null unless it ran, and one record
    per sensor."""
    # Eve's channels are the same in the benchmark
    benchmark_d_eve = None if result.benchmark_d_fc is None else result.total_d_eve
    records = _encoded({**_columns_of(result.designs, sites), **vars(result)}, _SENSOR_KEYS)
    return {**sampling, "alpha_total": alpha_total, "total_d_fc": result.total_d_fc,
            "total_d_eve": result.total_d_eve, "active_count": result.active_count,
            "benchmark_d_fc": result.benchmark_d_fc, "benchmark_d_eve": benchmark_d_eve,
            "per_sensor": records, "units": "nats"}


def _network_from(payload: dict[str, Any]) -> tuple[NetworkConfig, AllocationResult]:
    """The network and allocation an artifact stores, replayed: the command
    that wrote it runs again on its stored inputs, and the artifact must be
    the document that run writes (:func:`_require_written`).  A greedy
    summary replays ``greedy`` on its sampling fields and ``alpha_total``
    without a growth grid, which leaves the split as it is; a design
    artifact replays ``design`` as a network of one active sensor, sensor
    0, funded at its own leakage.  A stored input the replay refuses makes
    the artifact malformed."""
    network = "per_sensor" in payload
    given, budget_field = ("alpha_total", "alpha_i") if network else ("alpha_tilde",) * 2
    try:
        alpha = _typed(given, payload[given], float)
        if network:
            fields = _COMMANDS["greedy"][1]
            sampling = {name: _typed(name, payload[name], fields[name][0])
                        for name in _SAMPLING}
            _require(len(payload["per_sensor"]) == sampling["n_sensors"],
                     "per_sensor holds {0!r} sensors, but n_sensors is {1!r}",
                     len(payload["per_sensor"]), sampling["n_sensors"])
            sites = sample_sites(**sampling)
            result, _ = _network(sites, alpha, payload.get("benchmark_d_fc") is not None, [])
            written = _summary(sampling, alpha, sites, result)
        else:
            sites = (_site_from(payload["site"]),)
            designs = design_table(sites, [alpha])
            d_fc, d_eve = designs.d_fc, designs.d_eve
            result = AllocationResult(designs, np.ones(1, dtype=bool), _quality(d_fc, d_eve),
                                      d_fc, d_eve, d_fc.item(), d_eve.item(), 1)
            written = _design_artifact(designs, sites[0])
        _require_written(payload, written, f"replaying it at {given} {alpha!r}")
        config = NetworkConfig(sites=sites, alpha_total=alpha)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"artifact is missing or corrupts fields: {exc}") from exc
    # the design's own feasibility, which no replay checks
    designs = result.designs
    for name, value, field, budget in (
        ("d_eve", designs.d_eve, budget_field, designs.budget),
        ("total_d_eve", result.total_d_eve, "alpha_total", config.alpha_total),
    ):
        _require(value <= budget + 1e-10 * np.maximum(1.0, budget),
                 name + " is {0!r}, over its budget " + field + " {1!r}", value, budget)
    return config, result


def _require_written(stored: Any, written: dict[str, Any], replay: str,
                     where: str = "") -> None:
    """Raise unless the stored object is the one the replay writes: the same
    keys, arrays of as many entries, and at each leaf a value of the written
    value's JSON type that equals it or, for a float, lies within 1e-12 of
    it, relative to the written value.  The rule has no absolute floor, so a
    zero never passes for a tiny value, and a null or an infinity equals
    only itself.  A design record without ``pfa_c`` or ``pd_c``, written
    before the complements were stored, is read with 1 - pfa or 1 - pd."""
    # ``**`` raises TypeError where the stored value is not an object
    stored = {**{key: 1.0 - _typed(key[:-2], stored[key[:-2]], float)
                 for key in _TAILS[2:] if key in written and key not in stored}, **stored}
    extra, missing = (", ".join(map(repr, sorted(keys))) for keys in (
        stored.keys() - written.keys(), written.keys() - stored.keys()))
    place = where or "its top level "
    _require(not extra, place + "holds {0}, which this version does not write", extra)
    _require(not missing, place + "lacks {0}", missing)
    for key, value in written.items():
        found = stored[key]
        if isinstance(value, dict):
            _require_written(found, value, replay, f"{where}{key} ")
        elif isinstance(value, list):
            if not isinstance(found, list) or len(found) != len(value):
                raise ValueError(f"field {key} must be an array of {len(value)} entries")
            # an artifact's one array holds its sensors' records
            for i, (entry, record) in enumerate(zip(found, value)):
                _require_written(entry, record, replay, f"sensor {i} ")
        else:
            typed = found if value is None else _typed(key, found, type(value))
            # np.isclose's rule at atol 0: no finite value is close to an infinity
            if typed != value and not (isinstance(value, float) and math.isfinite(value)
                                       and abs(typed - value) <= 1e-12 * abs(value)):
                raise ArtifactError(
                    f"artifact is inconsistent: {where}{key} is {typed!r}, but {replay} "
                    f"gives {value!r}: the artifact does not match this version's design")


def _require(ok: Any, message: str, *values: Any) -> None:
    """Raise unless ``ok`` holds everywhere, with ``message`` formatted by
    ``values`` at the first sensor that fails, named if ``ok`` is an array."""
    if not np.all(ok):
        i = int(np.argmin(ok))
        where = f"sensor {i} " if np.ndim(ok) else ""
        raise ArtifactError("artifact is inconsistent: " + where + message.format(
            *(np.ravel(v).tolist()[i] for v in values)))


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
    if not budget >= 0.0:  # also refuses NaN
        raise ValueError("alpha_tilde must be nonnegative")
    if n_points < 2:
        raise ValueError("h_trace_points must be at least 2")

    designs = design_table([site], [budget])
    if budget == 0.0:
        print("warning: alpha_tilde = 0 forces a blind design (zero divergence "
              "everywhere)", file=sys.stderr)
    files = [(out, json_text(_design_artifact(designs, site)))]
    if cfg["h_trace_out"] is not None:
        lo, hi = site.model.threshold_bracket()
        thresholds = lo + np.arange(n_points) * ((hi - lo) / (n_points - 1))
        rows = zip(thresholds.tolist(), eve_divergence_gap(site, thresholds, budget).tolist())
        files.append((cfg["h_trace_out"], csv_text(["lambda", "h"], rows)))
    write_all(files)
    return 0


def cmd_tradeoff(cfg: dict[str, Any]) -> int:
    site = _site_from(cfg)
    alphas = cfg["alphas"]
    for alpha in alphas or []:
        if not alpha >= 0.0:  # also refuses NaN
            raise ValueError(f"alphas entries must be nonnegative, got {alpha!r}")
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
        if lo < 0.0:
            raise ValueError(f"alpha_min must be nonnegative, got {lo!r}")
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
    keys = (*_ARTIFACT_KEYS, ("d_fc_max", "d_fc"))
    rows = _columns(_encoded(_columns_of(designs), keys), header)
    write_all([(cfg["out"], _table_text(cfg["format"], header, rows))])
    return 0


def cmd_greedy(cfg: dict[str, Any]) -> int:
    benchmark, out, n_grid = cfg["benchmark"], cfg["out"], cfg["n_grid"]
    sampling = {name: cfg[name] for name in _SAMPLING}
    sites = sample_sites(**sampling)
    result, points = _network(sites, cfg["alpha_total"], benchmark, n_grid or [])
    summary = _summary(sampling, cfg["alpha_total"], sites, result)
    header = ["index", "k_i", "alpha_i", "active", "lambda", "d_fc_i", "d_eve_i"]
    files = [
        (out, csv_text(header, _columns(summary["per_sensor"], header))),
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
    if not budget > 0.0:  # also refuses NaN
        raise ValueError("alpha_tilde must be positive for a boundary trace")
    eve = BscChannel(cfg["rho_e"])

    trace = trace_constraint_curve(budget, eve, cfg["n_points"])
    d_e = received_divergence(trace.tails, eve.crossover)
    header = ["x", "y", "x_e", "y_e", "slope", "curvature", "d_e"]
    columns = (*trace.tails[:2], *trace.eve_tails[:2], trace.slope, trace.curvature, d_e)
    rows = list(zip(*(column.tolist() for column in columns)))
    write_all([(cfg["out"], _table_text(cfg["format"], header, rows))])
    return 0


def _stein_report(
    config: NetworkConfig, result: AllocationResult, windows: list[int],
    delta: float, tolerance: float,
) -> tuple[dict[str, Any], list[tuple]]:
    """Check the FC's miss exponent against the stored divergence.

    The last window's local slope must meet Strassen's second-order value
    (:func:`second_order_slope`, which tends to ``d_fc``) to within
    ``tolerance`` times ``d_fc``.  An exact slope is never negative, so
    where that value is not positive it is no reference: ``passed`` is null.
    So it is where ``d_fc`` is stored as 0.0 at a point that informs the
    FC (the KL kernel's cancellation): there is no ``relative_gap``.

    The check sees the sensors that inform the FC
    (:func:`_network_arrays`).  With none, the divergence is exactly 0 and
    ``passed`` is true with no exponent computed.  With one, its received
    point is checked, against the total ``d_fc``: the exact ones-count test
    applies per i.i.d. stream, and every other sensor's bits weigh 0.  With
    more, the additive target is reported with ``passed`` null.
    """
    (received, _), _ = _network_arrays(config, result)
    target, informing = result.total_d_fc, received.shape[1]
    report: dict[str, Any] = {
        "target_kld": target,
        "delta": delta,
        "tolerance": tolerance,
        "windows": windows,
        "no_information": informing == 0,
    }
    if informing == 0:
        report["passed"] = True
        report["note"] = "no information: divergence is zero, exponents stay at zero"
        return report, []
    if informing > 1:
        report["passed"] = None
        report["note"] = ("not checked: multi-sensor artifact, additive divergence "
                          "target reported; per-stream exponent checks apply to "
                          "single-sensor artifacts")
        return report, []
    fc_op = OperatingPoint(*received[:, 0].tolist())
    points = stein_curve(fc_op, windows, delta)
    final = points[-1]
    predicted = second_order_slope(fc_op, final.window, delta)
    rel_gap = abs(final.local_slope - predicted) / target if target > 0.0 else None
    report.update(
        {
            "exponents": [p.exponent for p in points],
            "local_slopes": [p.local_slope for p in points],
            "final_local_slope": final.local_slope,
            "predicted_slope": predicted,
            "relative_gap": rel_gap,
            "passed": None if rel_gap is None or not predicted > 0.0 else rel_gap <= tolerance,
        }
    )
    if report["passed"] is None:
        report["note"] = (f"not checked: the second-order slope at window {final.window} "
                          f"is {predicted!r}, not positive, so it is no reference")
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


def build_parser(commands: Sequence[str] = tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The ``secquant`` parser, with a subparser for each of ``commands``
    (every command by default): ``--config`` and a flag for each of the
    command's fields but the arrays, which only a config document sets."""
    parser = argparse.ArgumentParser(
        prog="secquant",
        description=(
            "Design secrecy-constrained binary sensor quantizers and verify "
            "them against exact detection-theoretic baselines."
        ),
    )
    # a parser of fewer commands names them all in its usage line, so its
    # messages read as the full parser's
    every = None if len(commands) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for command in commands:
        help, fields = _COMMANDS[command]
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
    argv = sys.argv[1:] if argv is None else argv
    # a call that names a command is parsed by that command's subparser
    # alone; any other (help, no command, a typo) by the full parser
    named = argv[:1] if argv[:1] and argv[0] in _COMMANDS else tuple(_COMMANDS)
    args = build_parser(named).parse_args(argv)
    # looked up by name on each run, so a wrapped handler is the one called
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(_config(args))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
