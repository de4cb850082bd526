"""The benchmark's span tracer (``perfbench/tracer.py``) still installs on
the package, and each benchmark workload's commands, run here at small
sizes, record calls in every layer that workload expects
(``perfbench/workloads.py``).  ``Tracer.install`` refuses a binding or
default argument that would escape its wrappers, and a layer whose public
functions fall off a workload's path reads as silent; either way
``--trace 1`` would fail, and this shows it first."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from pathlib import Path

import secquant.cli as cli
import workloads
from tracer import Tracer

tracer = Tracer()
tracer.install()

inputs = Path("inputs")
inputs.mkdir()
expected = {
    work.name: list(work.expected_layers)
    for work in (workloads.greedy_growth(11, inputs),
                 workloads.design_session(11, inputs),
                 workloads.verify_mc(11, inputs))
}
Path("growth.json").write_text(json.dumps({"n_grid": [5, 10, 20]}))
Path("alphas.json").write_text(json.dumps({"alphas": [0.01, 0.05, 0.2]}))
Path("windows.json").write_text(json.dumps({"windows": [50, 100]}))
site = ["--theta", "1.0", "--sigma", "1.0", "--rho-fc", "0.01", "--rho-e", "0.1"]
network = ["--n-sensors", "20", "--alpha-total", "2.0", "--seed", "1"]
mc = ["--trials", "200", "--window", "20", "--seed", "1"]
commands = {
    "greedy-growth": [
        ["greedy", *network, "--benchmark", "--config", "growth.json",
         "--out", "g.csv"],
    ],
    "design-session": [
        ["design", *site, "--alpha-tilde", "0.05", "--out", "d.json",
         "--h-trace-out", "gap.csv"],
        ["tradeoff", *site, "--config", "alphas.json", "--out", "t.csv"],
        ["trace-boundary", "--alpha-tilde", "0.02", "--rho-e", "0.1",
         "--out", "b.csv"],
        ["verify", "--artifact", "d.json", "--config", "windows.json",
         "--out", "v.json"],
    ],
    # its design and network come from the two workloads above, as its
    # untimed preparation does
    "verify-mc": [
        ["verify", "--artifact", "d.json", "--config", "windows.json", *mc,
         "--out", "single.json"],
        ["verify", "--artifact", "g.summary.json", *mc, "--out", "network.json"],
    ],
}
runs = {}
for name, argvs in commands.items():
    first = len(tracer.end)
    codes = [cli.main(argv) for argv in argvs]
    spans = tracer.arrays()
    called = spans["names"][spans["name"][first:]]
    runs[name] = {"codes": codes,
                  "names": sorted({str(n) for n in called})}
print(json.dumps({"expected": expected, "runs": runs}))
"""


def test_each_workload_records_every_expected_layer(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"),
         *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        env=env, cwd=tmp_path, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result["runs"]) == set(result["expected"])
    for name, run in result["runs"].items():
        assert all(code == 0 for code in run["codes"]), (name, run["codes"])
        layers = {n.split(".")[0] for n in run["names"]}
        silent = sorted(set(result["expected"][name]) - layers)
        assert not silent, f"{name}: no calls recorded in layers {silent}"
    searched = set(result["runs"]["greedy-growth"]["names"])
    assert {"search.assert_unimodal", "search.unimodal_max",
            "search.bisect_root"} <= searched
