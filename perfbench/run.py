"""Cold-process CLI benchmark for secquant.

Usage (from the repository root):

    python3 perfbench/run.py --workload greedy-growth --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --reanchor

Each session is a fresh interpreter (``perfbench/worker.py``) that imports
``secquant.cli`` and runs the workload's commands through ``cli.main``, so
it pays what a user of ``secquant ...`` pays: cold imports and a cold
``max_channel_divergence`` cache.  Sessions repeat, one at a time, until
``--seconds`` have passed (at least three), and the metrics are medians
over sessions; times are scaled to a reference machine speed measured by
calibration kernels in every session (``CALIBRATION_REF_S``).
``--trace 1`` runs one untraced session and then traced
sessions that record spans for every public function of every layer, and
reports per-layer metrics instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
MIN_SESSIONS = 3
#: Every run must finish well inside the 180 s a run is allowed.
DEADLINE_S = 170.0
#: The machine's speed drifts by up to 2x over minutes (a shared VM), so
#: every session also times two fixed calibration kernels (worker.py), and
#: reported times are rescaled to the speed at which those kernels take
#: this long: seconds at reference speed.  Wall times are reported too.
CALIBRATION_REF_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_share": "share",
}
COMMAND_KINDS = ("greedy", "design", "tradeoff", "trace_boundary",
                 "verify_exact", "verify_mc")
LAYERS = ("roc", "gaussian", "search", "solver", "boundary", "allocation",
          "detection", "export", "cli")
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "roc.kl_divergence.calls": "count",
    "roc.bsc_transform.calls": "count",
    "gaussian.operating_point.calls": "count",
    "gaussian.max_channel_divergence.misses": "count",
    "gaussian.max_channel_divergence.hit_share": "share",
    "gaussian.max_channel_divergence.s_per_miss": "s",
    "search.assert_unimodal.evals": "count",
    "search.golden_section_max.evals": "count",
    "search.bisect_root.calls": "count",
    "search.bisect_root.evals": "count",
    "solver.design_quantizer.calls": "count",
    "solver.find_budget_thresholds.calls": "count",
    "boundary.eve_divergence_at.calls": "count",
    "boundary.trace_constraint_curve.s": "s",
    "allocation.allocate.cold_s": "s",
    "allocation.allocate.warm_s": "s",
    "allocation.growth_curve.s": "s",
    "detection.simulate_monte_carlo.s": "s",
    "detection.mc.samples_per_s": "1/s",
    "detection.mc.block_bytes": "B-computed",
    "detection.exact_np_miss.calls": "count",
    "detection.exact_np_miss.s": "s",
    "detection.import_s": "s",
    "cli.import_s": "s",
    "export.write_all.s": "s",
    "export.bytes_written": "B",
    "trace.spans": "count",
    "trace.overhead": "ratio",
    **{f"{kind}_s": "s" for kind in COMMAND_KINDS},
    "fail_share": "share",
    "d_fc_shortfall_nats": "nats",
    "d_eve_leak_nats": "nats",
    "secrecy_gap_nats": "nats",
    "setup_wall_s": "s",
    "run_wall_s": "s",
    "calibration_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": 1,
        "processes": 1,
    }


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def session(self, workdir: Path, commands, trace=None) -> dict:
        """Run one cold worker process; returns its result plus setup_s."""
        workdir.mkdir(parents=True, exist_ok=True)
        spec = {"commands": [{"name": c.name, "argv": c.argv} for c in commands]}
        if trace is not None:
            spec.update(trace=True, **trace)
        spec_path, result_path = workdir / "spec.json", workdir / "result.json"
        spec_path.write_text(json.dumps(spec))
        timeout = self.remaining()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
            cwd=workdir, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("a session did not finish in time") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode}):\n{err[-2000:]}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = setup_s
        result["run_s"] = sum(c["s"] for c in result["commands"])
        result["scale"] = CALIBRATION_REF_S / result["calibration_s"]
        return result

    def import_times(self) -> dict:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import secquant.cli"],
            cwd=OUT, env=self.env, capture_output=True, text=True,
            timeout=self.remaining())
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        return {"detection.import_s": cumulative.get("secquant.detection", 0.0),
                "cli.import_s": cumulative.get("secquant.cli", 0.0)}


def artifact_digests(workdir: Path) -> dict:
    skip = {"spec.json", "result.json"}
    return {str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.rglob("*")) if p.is_file() and p.name not in skip}


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 runner: Runner) -> dict:
    base = OUT / name
    shutil.rmtree(base, ignore_errors=True)
    inputs = base / "inputs"
    inputs.mkdir(parents=True)
    work = wl.WORKLOADS[name](seed, inputs)

    attempted, op_failures = 0, []
    status: dict[str, tuple[str, dict]] = {}

    def account(result, commands, workdir):
        nonlocal attempted
        for rec in result["commands"]:
            attempted += 1
            if rec["rc"] != 0:
                op_failures.append({"command": rec["name"], "rc": rec["rc"],
                                    "error": rec["error"]})
        if workdir is None:
            return
        for cmd, rec in zip(commands, result["commands"]):
            if rec["rc"] != 0:
                status[cmd.name] = ("fail", {"rc": rec["rc"]})
                continue
            try:
                status[cmd.name] = cmd.check(workdir)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                op_failures.append({"command": cmd.name, "error": f"bad artifact: {exc!r}"})
                status[cmd.name] = ("fail", {"error": repr(exc)})

    if work.prep:
        prep_dir = base / "prep"
        account(runner.session(prep_dir, work.prep), work.prep, prep_dir)

    untraced, traced = [], []
    reference_digests = None
    measure_start = time.perf_counter()
    while True:
        index = len(untraced) + len(traced)
        workdir = base / f"s{index}"
        tracing = trace and index > 0
        spec = None
        if tracing:
            spec = {"spans_out": str(OUT / f"spans-{name}.npz"),
                    "replay_allocate": work.replay_allocate}
        result = runner.session(workdir, work.commands, spec)
        digests = artifact_digests(workdir)
        if reference_digests is None:
            reference_digests = digests
            account(result, work.commands, workdir)
        else:
            account(result, work.commands, None)
            if digests != reference_digests:
                op_failures.append({"session": index, "error":
                                    "artifacts differ from the first session's"})
            shutil.rmtree(workdir)
        (traced if tracing else untraced).append(result)
        enough = len(traced) >= 1 if trace else len(untraced) >= MIN_SESSIONS
        if enough and time.perf_counter() - measure_start >= seconds:
            break

    counts = {"pass": 0, "fail": 0, "unchecked": 0}
    for state, _ in status.values():
        counts[state] += 1
    unique = len(status)
    kinds = {kind: median([r["scale"] * sum(c["s"] for c, cmd in zip(r["commands"], work.commands)
                                            if cmd.kind == kind) for r in untraced])
             for kind in COMMAND_KINDS}
    report = {
        "setup_s": median([r["setup_s"] * r["scale"] for r in untraced]),
        "run_s": median([r["run_s"] * r["scale"] for r in untraced]),
        "peak_rss_mb": median([r["maxrss_mb"] for r in untraced]),
        "check_pass_share": counts["pass"] / unique,
        "fail_share": counts["fail"] / unique,
        **{f"{k}_s": v for k, v in kinds.items()},
        "d_fc_shortfall_nats": work.report.get("d_fc_shortfall_nats", 0.0),
        "d_eve_leak_nats": work.report.get("d_eve_leak_nats", 0.0),
        "secrecy_gap_nats": work.report.get("secrecy_gap_nats", 0.0),
        "setup_wall_s": median([r["setup_s"] for r in untraced]),
        "run_wall_s": median([r["run_s"] for r in untraced]),
        "calibration_s": median([r["calibration_s"] for r in untraced]),
    }
    out = {
        "workload": name, "why": work.why, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "sessions": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples_s": [r["setup_s"] for r in untraced + traced],
        "run_samples_s": [r["run_s"] for r in untraced],
        "calibration_samples_s": [r["calibration_s"] for r in untraced + traced],
        "attempted": attempted, "op_failures": op_failures,
        "checks": {k: {"status": s, "notes": n} for k, (s, n) in status.items()},
        "check_counts": counts, "report": report,
    }
    if trace:
        layer_runs = [r["layers"] for r in traced]
        layers = {key: median([lr[key] for lr in layer_runs]) for key in layer_runs[0]}
        imports = [runner.import_times() for _ in range(3)]
        layers.update({k: median([i[k] for i in imports]) for k in imports[0]})
        layers["trace.overhead"] = median([r["run_s"] * r["scale"] for r in traced]) / report["run_s"]
        silent = [layer for layer in work.expected_layers if layers[f"{layer}.calls"] == 0]
        out["layers"] = layers
        out["silent_layers"] = silent
    return out


def print_result(out: dict) -> dict:
    """Print the human-readable report and return the result JSON line."""
    name = out["workload"]
    print(f"# {name} ({out['why']}): seed {out['seed']}, sessions {out['sessions']}, "
          f"environment {json.dumps(out['environment'], sort_keys=True)}")
    if not out["trace"]:
        for key, value in out["report"].items():
            unit = END_TO_END.get(key) or PER_LAYER.get(key)
            print(f"{name:15s} {key:45s} {value:16.6g} {unit}")
    counts = out["check_counts"]
    print(f"{name:15s} checks: {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['unchecked']} unchecked (claimed but not checked)")
    for cmd, check in out["checks"].items():
        if check["status"] != "pass":
            print(f"{name:15s}   {check['status']:9s} {cmd}: {json.dumps(check['notes'])}")
    for failure in out["op_failures"]:
        print(f"{name:15s}   OPERATION FAILED {json.dumps(failure)[:400]}")
    failed = len(out["op_failures"])
    correct = failed == 0
    if out["trace"]:
        layers = out["layers"]
        report = out["report"]
        metrics = {}
        for key, unit in PER_LAYER.items():
            value = layers[key] if key in layers else report[key]
            metrics[key] = {"value": value, "unit": unit}
            print(f"{name:15s} {key:45s} {value:16.6g} {unit}")
        if out["silent_layers"]:
            correct = False
            print(f"{name:15s}   TRACE FAILED: no calls recorded in layers "
                  f"{out['silent_layers']}")
    else:
        metrics = {k: {"value": out["report"][k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": correct, "attempted": out["attempted"], "failed": failed,
            "metrics": metrics}


def reanchor(runner: Runner) -> None:
    """Layer timings of the ROADMAP re-anchor table, in fresh processes."""
    samples = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "reanchor.py")], cwd=OUT, env=runner.env,
            capture_output=True, text=True, timeout=runner.remaining())
        if proc.returncode != 0:
            raise BenchError(f"re-anchor probe failed:\n{proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    result = {"environment": environment(), "processes": len(samples),
              "median_s": {key: median([s[key] for s in samples]) for key in samples[0]},
              "samples_s": samples,
              "left_out": {
                  "allocate_50000": "N = 5 000 cold takes about 40 s, so N = 50 000 "
                                    "would take about 400 s per run (ROADMAP item 2)",
                  "monte_carlo_500_sensors": "one 65 536 x 500 x 20 float64 block is "
                                             "5.2 GB on an 8 GB machine (ROADMAP item 4)"}}
    (OUT / "reanchor.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reanchor", action="store_true",
                        help="time the re-anchor layer probes instead")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "secquant" / "cli.py").is_file():
        print(f"error: secquant sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.reanchor:
            reanchor(Runner(time.perf_counter() + 600.0))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
        lines = []
        for name in names:
            runner = Runner(time.perf_counter() + DEADLINE_S)
            out = run_workload(name, args.seed, args.seconds, bool(args.trace), runner)
            (OUT / f"result-{name}.json").write_text(json.dumps(out, indent=2) + "\n")
            lines.append(print_result(out))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
