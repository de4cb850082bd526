"""One cold benchmark session: a fresh interpreter runs a command list
through ``secquant.cli.main`` in-process.

Usage: python3 worker.py SPEC.json RESULT.json

The parent times interpreter start until the ``ready`` line, which is
printed as soon as ``secquant.cli`` is imported.  SPEC holds the commands
(name and argv, relative to the working directory), and for a traced
session the span file path and an optional warm ``allocate`` replay.
RESULT gets each command's exit code and wall time, the peak memory, the
calibration time and, when traced, the per-layer metrics.
"""

import json
import resource
import sys
import time
import traceback


def calibrate() -> float:
    """Seconds for two fixed kernels that do not touch secquant: scalar
    Python math in the style of the solver's hot path, and NumPy normal
    draws and compares in the style of the Monte Carlo.  Their time is
    the machine's current speed; the buffers are small so that they do
    not raise the process's peak memory."""
    import math

    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(150000):
        z = (i % 400) * 0.03 - 6.0
        x = 0.5 * math.erfc(z / 1.4142135623730951)
        y = 0.5 * math.erfc((z - 1.0) / 1.4142135623730951)
        x, y = min(max(x, 1e-12), 1 - 1e-12), min(max(y, 1e-12), 1 - 1e-12)
        acc += x * math.log(x / y) + (1.0 - x) * math.log((1.0 - x) / (1.0 - y))
    rng = np.random.default_rng(12345)
    draws = np.empty((4096, 32))
    above = np.empty(draws.shape, dtype=bool)
    for _ in range(48):
        rng.standard_normal(out=draws)
        np.greater_equal(draws, 0.25, out=above)
        acc += float(np.count_nonzero(above))
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite sum")
    return time.perf_counter() - start


def run_commands(commands):
    cli = sys.modules["secquant.cli"]
    records = []
    for command in commands:
        error = None
        start = time.perf_counter()
        try:
            rc = cli.main(command["argv"])
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a result of the session, not of the harness
            rc, error = -1, traceback.format_exc()
        records.append({"name": command["name"], "rc": rc, "error": error,
                        "s": time.perf_counter() - start})
    return records


def peak_rss_mb() -> float:
    """Peak resident set of this process image.  ``ru_maxrss`` would also
    count the parent's size at fork time, which survives ``exec``."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_stats(fn):
    info = getattr(fn, "cache_info", None)
    return info() if info is not None else None


def traced_metrics(tracer, spec, cache_before, cache_after, counters):
    summary = tracer.summary()
    by_name = summary["by_name"]

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def seconds(name):
        return by_name.get(name, {}).get("s", 0.0)

    metrics = {}
    for layer in ("roc", "gaussian", "search", "solver", "boundary",
                  "allocation", "detection", "export", "cli"):
        metrics[f"{layer}.self_s"] = sum(
            v["self_s"] for n, v in by_name.items() if n.startswith(layer + "."))
        metrics[f"{layer}.calls"] = sum(
            v["calls"] for n, v in by_name.items() if n.startswith(layer + "."))
    for name in ("roc.kl_divergence", "roc.bsc_transform",
                 "gaussian.operating_point", "search.bisect_root",
                 "solver.design_quantizer", "solver.find_budget_thresholds",
                 "boundary.eve_divergence_at", "detection.exact_np_miss"):
        metrics[f"{name}.calls"] = calls(name)
    for name in ("boundary.trace_constraint_curve", "allocation.growth_curve",
                 "detection.simulate_monte_carlo", "detection.exact_np_miss",
                 "export.write_all"):
        metrics[f"{name}.s"] = seconds(name)
    for name in ("search.assert_unimodal", "search.golden_section_max",
                 "search.bisect_root"):
        metrics[f"{name}.evals"] = counters.get(name + ".evals", 0)

    mcd = "gaussian.max_channel_divergence"
    if cache_before is not None and cache_after is not None:
        misses = cache_after.misses - cache_before.misses
        hits = cache_after.hits - cache_before.hits
    else:  # no cache: every call computes
        misses, hits = calls(mcd), 0
    metrics[f"{mcd}.misses"] = misses
    metrics[f"{mcd}.hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    metrics[f"{mcd}.s_per_miss"] = seconds(mcd) / misses if misses else 0.0

    cold = tracer.spans_of("allocation.allocate", parent_name="cli.cmd_greedy")
    metrics["allocation.allocate.cold_s"] = cold[0] if cold else 0.0
    warm = tracer.spans_of("allocation.allocate", parent_name=None)
    replayed = spec.get("replay_allocate") is not None
    metrics["allocation.allocate.warm_s"] = warm[-1] if replayed and warm else 0.0

    sim_s = metrics["detection.simulate_monte_carlo.s"]
    draws = counters.get("detection.mc.draws", 0)
    metrics["detection.mc.samples_per_s"] = draws / sim_s if sim_s else 0.0
    metrics["detection.mc.block_bytes"] = counters.get("detection.mc.block_bytes", 0)
    metrics["export.bytes_written"] = counters.get("export.bytes_written", 0)
    metrics["trace.spans"] = summary["spans"]
    return metrics


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {}
    calibration = calibrate()
    if spec.get("trace"):
        import secquant.allocation as allocation
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        mcd = tracer.originals.get("gaussian.max_channel_divergence")
        cache_before = _cache_stats(mcd)
        result["commands"] = run_commands(spec["commands"])
        cache_after = _cache_stats(mcd)
        counters = dict(tracer.counters)
        replay = spec.get("replay_allocate")
        if replay is not None:
            # same config as the greedy command's, now with a warm cache
            sites = allocation.sample_sites(replay["n_sensors"], replay["seed"])
            allocation.allocate(allocation.NetworkConfig(
                sites=sites, alpha_total=replay["alpha_total"],
                benchmark_ideal_fc=replay["benchmark"], seed=replay["seed"]))
        result["layers"] = traced_metrics(tracer, spec, cache_before,
                                          cache_after, counters)
        tracer.write(spec["spans_out"])
    else:
        result["commands"] = run_commands(spec["commands"])
    result["maxrss_mb"] = peak_rss_mb()
    result["calibration_s"] = calibration + calibrate()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    import secquant.cli  # noqa: F401  (the import the parent times)

    print("ready", flush=True)
    main(sys.argv[1], sys.argv[2])
