"""Command-line surface: artifact schemas, exit codes, idempotence."""

import argparse
import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secquant import (BscChannel, GaussianSensorModel, OperatingPoint, SensorSite,
                      bsc_transform, cli, design_quantizer, kl_divergence, sample_sites,
                      stein_curve)
from secquant import allocation
from secquant.boundary import _level_set
from secquant.cli import main
from secquant.solver import design_table


def run(*argv):
    return main(list(argv))


def design_args(tmp_path, budget="0.1", **extra):
    out = tmp_path / "design.json"
    argv = [
        "design",
        "--theta", "1.0",
        "--sigma", "1.0",
        "--rho-fc", "0.0",
        "--rho-e", "0.1",
        "--alpha-tilde", budget,
        "--out", str(out),
    ]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv, out


def relabel_asleep(summary):
    """Mark the first active sensor asleep and take its divergences and its
    count off the totals, leaving its funded design in place."""
    rec = next(r for r in summary["per_sensor"] if r["active"])
    rec["active"] = False
    summary["total_d_fc"] -= rec["d_fc_i"]
    summary["total_d_eve"] -= rec["d_eve_i"]
    summary["active_count"] -= 1


def sensor_sum(summary):
    """The benchmark total ``benchmark_d_fc`` of a summary's stored designs."""
    return math.fsum(r["d_sensor"] for r in summary["per_sensor"])


class TestDesignCommand:
    def test_binding_design_artifact(self, tmp_path):
        argv, out = design_args(tmp_path)
        assert run(*argv) == 0
        payload = json.loads(out.read_text())
        assert payload["binding"] is True
        assert payload["alpha_tilde"] == 0.1
        assert payload["d_eve"] == pytest.approx(0.1, abs=1e-8)
        assert payload["units"] == "nats"
        for key in ("lambda", "pfa", "pd", "pfa_c", "pd_c", "d_sensor", "d_fc", "d_eve"):
            assert key in payload

    def test_blind_design_warns_and_zeroes(self, tmp_path, capsys):
        argv, out = design_args(tmp_path, budget="0.0")
        assert run(*argv) == 0
        captured = capsys.readouterr()
        assert "blind" in captured.err
        payload = json.loads(out.read_text())
        assert payload["d_fc"] == 0.0
        assert payload["d_eve"] == 0.0
        assert math.isinf(payload["lambda"])

    def test_missing_field_exits_2_without_files(self, tmp_path, capsys):
        out = tmp_path / "design.json"
        code = run(
            "design", "--theta", "1.0", "--rho-fc", "0.0",
            "--rho-e", "0.1", "--alpha-tilde", "0.1", "--out", str(out),
        )
        assert code == 2
        assert "sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--theta", "--sigma"])
    def test_infinite_model_parameter_exits_2(self, tmp_path, capsys, flag):
        argv, out = design_args(tmp_path)
        argv[argv.index(flag) + 1] = "inf"
        assert run(*argv) == 2
        name = flag[2:]
        assert f"{name} must be finite and positive, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_config_theta_exits_2(self, tmp_path, capsys):
        argv, out = design_args(tmp_path)
        del argv[argv.index("--theta"):argv.index("--theta") + 2]
        config = tmp_path / "design.config.json"
        config.write_text('{"theta": 1e400}')
        assert run(*argv, "--config", str(config)) == 2
        assert "theta must be finite and positive, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_channel_exits_2(self, tmp_path):
        argv, out = design_args(tmp_path)
        argv[argv.index("--rho-e") + 1] = "0.6"
        assert run(*argv) == 2
        assert not out.exists()

    def test_h_trace_rows(self, tmp_path):
        trace = tmp_path / "trace.csv"
        argv, out = design_args(
            tmp_path, h_trace_out=trace, h_trace_points=64
        )
        assert run(*argv) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "lambda,h"
        assert len(lines) == 65

    def test_h_trace_points_below_two_exits_2_without_trace_out(
        self, tmp_path, capsys
    ):
        argv, out = design_args(tmp_path, h_trace_points=1)
        assert run(*argv) == 2
        assert "h_trace_points must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_h_trace_out_onto_out_exits_2_without_files(self, tmp_path, capsys):
        # the gap CSV once replaced the design artifact it was named over
        argv, out = design_args(tmp_path, h_trace_out=tmp_path / "design.json")
        assert run(*argv) == 2
        assert "artifact path named twice" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_document_with_flag_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "theta": 1.0, "sigma": 1.0, "rho_fc": 0.0, "rho_e": 0.1,
            "alpha_tilde": 0.1, "out": str(tmp_path / "a.json"),
        }))
        out_b = tmp_path / "b.json"
        assert run("design", "--config", str(config), "--out", str(out_b)) == 0
        assert out_b.exists()
        assert not (tmp_path / "a.json").exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run("design", "--config", str(tmp_path / "nope.json")) == 2


class TestTradeoffCommand:
    def test_row_count_and_monotonicity(self, tmp_path):
        out = tmp_path / "tradeoff.csv"
        code = run(
            "tradeoff", "--theta", "1.0", "--sigma", "1.0",
            "--rho-fc", "0.0", "--rho-e", "0.1",
            "--alpha-min", "0.0", "--alpha-max", "0.4", "--alpha-count", "50",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha_tilde,d_fc_max,lambda,pfa,pd,d_eve,binding"
        assert len(lines) == 51
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_saturation_beyond_budget_ceiling(self, tmp_path):
        out = tmp_path / "tradeoff.csv"
        run(
            "tradeoff", "--theta", "1.0", "--sigma", "1.0",
            "--rho-fc", "0.0", "--rho-e", "0.1",
            "--alpha-min", "0.15", "--alpha-max", "0.5", "--alpha-count", "20",
            "--out", str(out),
        )
        lines = out.read_text().splitlines()[1:]
        saturated = [
            float(line.split(",")[1])
            for line in lines
            if line.split(",")[6] == "false"
        ]
        assert len(saturated) >= 2
        assert max(saturated) - min(saturated) <= 1e-9

    def test_descending_grid_exits_2(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "theta": 1.0, "sigma": 1.0, "rho_fc": 0.0, "rho_e": 0.1,
            "alphas": [0.3, 0.1], "out": str(tmp_path / "t.csv"),
        }))
        assert run("tradeoff", "--config", str(config)) == 2
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("field,low,high", [
        ("alpha_max", "0.1", "inf"), ("alpha_max", "0.1", "nan"),
        ("alpha_min", "-inf", "0.1"), ("alpha_min", "nan", "0.1"),
    ])
    def test_non_finite_grid_end_exits_2_naming_it(self, tmp_path, capsys, field, low, high):
        out = tmp_path / "t.csv"
        assert run(
            "tradeoff", "--theta", "1.0", "--sigma", "1.0",
            "--rho-fc", "0.0", "--rho-e", "0.1",
            f"--alpha-min={low}", f"--alpha-max={high}", "--alpha-count", "3",
            "--out", str(out),
        ) == 2
        assert f"{field} must be finite to build a grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", [
        ({"alphas": [math.nan]}, "alphas entries must be nonnegative, got nan"),
        ({"alphas": [0.1, -1.0]}, "alphas entries must be nonnegative, got -1.0"),
        ({"alpha_min": -1.0, "alpha_max": 1.0, "alpha_count": 3},
         "alpha_min must be nonnegative, got -1.0"),
    ])
    def test_negative_or_nan_budget_exits_2_naming_its_field(
        self, tmp_path, capsys, fields, message
    ):
        config = tmp_path / "c.json"
        out = tmp_path / "t.csv"
        config.write_text(json.dumps({
            "theta": 1.0, "sigma": 1.0, "rho_fc": 0.0, "rho_e": 0.1,
            "out": str(out), **fields,
        }))
        assert run("tradeoff", "--config", str(config)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_budget_in_alphas_is_the_unconstrained_design(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "theta": 1.0, "sigma": 1.0, "rho_fc": 0.0, "rho_e": 0.1,
            "alphas": [0.1, math.inf], "out": str(tmp_path / "t.json"),
            "format": "json",
        }))
        assert run("tradeoff", "--config", str(config)) == 0
        last = json.loads((tmp_path / "t.json").read_text())[-1]
        free = design_quantizer(SensorSite(
            GaussianSensorModel(1.0, 1.0), BscChannel(0.0), BscChannel(0.1)), math.inf)
        assert math.isinf(last["alpha_tilde"])
        assert (last["d_fc_max"], last["binding"]) == (free.d_fc, False)

    def test_json_format(self, tmp_path):
        out = tmp_path / "tradeoff.json"
        code = run(
            "tradeoff", "--theta", "1.0", "--sigma", "1.0",
            "--rho-fc", "0.0", "--rho-e", "0.1",
            "--alpha-min", "0.0", "--alpha-max", "0.2", "--alpha-count", "5",
            "--out", str(out), "--format", "json",
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 5
        assert set(rows[0]) == {
            "alpha_tilde", "d_fc_max", "lambda", "pfa", "pd", "d_eve", "binding"
        }


class TestGreedyCommand:
    def test_infinite_snr_exits_2(self, tmp_path, capsys):
        out = tmp_path / "greedy.csv"
        assert run(
            "greedy", "--n-sensors", "3", "--alpha-total", "1.0", "--seed", "1",
            "--snr", "inf", "--out", str(out),
        ) == 2
        assert "snr must be finite and positive, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["nan", "-1", "0"])
    def test_snr_not_positive_exits_2_naming_it(self, tmp_path, capsys, snr):
        out = tmp_path / "greedy.csv"
        assert run(
            "greedy", "--n-sensors", "3", "--alpha-total", "1.0", "--seed", "1",
            "--snr", snr, "--out", str(out),
        ) == 2
        assert "snr must be finite and positive, got " in capsys.readouterr().err
        assert not out.exists()

    def test_outputs_and_feasibility(self, tmp_path):
        out = tmp_path / "greedy.csv"
        code = run(
            "greedy", "--n-sensors", "40", "--alpha-total", "2.0",
            "--seed", "11", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,k_i,alpha_i,active,lambda,d_fc_i,d_eve_i"
        assert len(lines) == 41
        summary = json.loads((tmp_path / "greedy.summary.json").read_text())
        assert summary["total_d_eve"] <= 2.0 + 1e-9
        assert summary["seed"] == 11
        assert summary["units"] == "nats"
        assert len(summary["per_sensor"]) == 40

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "greedy.csv"
        assert run(
            "greedy", "--n-sensors", "5", "--alpha-total", "1.0", "--seed", "-1",
            "--out", str(out),
        ) == 2
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["0", "4"])
    def test_crossover_high_above_half_exits_2_at_every_seed(self, tmp_path, capsys, seed):
        out = tmp_path / "greedy.csv"
        assert run(
            "greedy", "--n-sensors", "1", "--alpha-total", "1", "--seed", seed,
            "--fc-crossover-high", "0.6", "--out", str(out),
        ) == 2
        assert "fc_crossover_high must lie in [0, 0.5], got 0.6" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_required(self, tmp_path):
        code = run(
            "greedy", "--n-sensors", "5", "--alpha-total", "1.0",
            "--out", str(tmp_path / "g.csv"),
        )
        assert code == 2

    def test_zero_budget_all_inactive(self, tmp_path):
        out = tmp_path / "greedy.csv"
        run(
            "greedy", "--n-sensors", "6", "--alpha-total", "0.0",
            "--seed", "1", "--out", str(out),
        )
        lines = out.read_text().splitlines()[1:]
        assert all(line.split(",")[3] == "false" for line in lines)

    def test_growth_sweep_file(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "n_sensors": 30, "alpha_total": 1.0, "seed": 4,
            "n_grid": [10, 20, 30], "out": str(tmp_path / "g.csv"),
        }))
        assert run("greedy", "--config", str(config)) == 0
        growth = (tmp_path / "g.growth.csv").read_text().splitlines()
        assert growth[0] == "n,total_d_fc,total_d_eve,active_count"
        assert len(growth) == 4
        counts = [int(line.split(",")[3]) for line in growth[1:]]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_idempotent_bytes(self, tmp_path):
        out = tmp_path / "greedy.csv"
        argv = (
            "greedy", "--n-sensors", "12", "--alpha-total", "0.8",
            "--seed", "9", "--out", str(out), "--benchmark",
        )
        assert run(*argv) == 0
        first_csv = out.read_bytes()
        first_json = (tmp_path / "greedy.summary.json").read_bytes()
        assert run(*argv) == 0
        assert out.read_bytes() == first_csv
        assert (tmp_path / "greedy.summary.json").read_bytes() == first_json
        summary = json.loads(first_json)
        assert summary["benchmark_d_eve"] == summary["total_d_eve"]
        assert run(*argv[:-1]) == 0
        summary = json.loads((tmp_path / "greedy.summary.json").read_text())
        assert summary["benchmark_d_eve"] is None

    def test_grid_entry_below_one_exits_2(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n_grid": [-5]}))
        out = tmp_path / "g.csv"
        assert run(
            "greedy", "--config", str(config), "--n-sensors", "20",
            "--alpha-total", "1.0", "--seed", "1", "--out", str(out),
        ) == 2
        assert "n_grid" in capsys.readouterr().err
        assert not out.exists()


class TestTraceBoundaryCommand:
    def test_columns_and_level(self, tmp_path):
        out = tmp_path / "boundary.csv"
        code = run(
            "trace-boundary", "--alpha-tilde", "0.2", "--rho-e", "0.1",
            "--n-points", "128", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,x_e,y_e,slope,curvature,d_e"
        assert len(lines) > 10
        eve = BscChannel(0.1)
        for line in lines[1:]:
            x, y, x_e, y_e, slope, curvature, d_e = map(float, line.split(","))
            assert d_e == pytest.approx(0.2, abs=1e-9)
            op = OperatingPoint(x, y)
            eve_op = bsc_transform(op, eve)
            assert (x_e, y_e) == (eve_op.pfa, eve_op.pd)
            _, s, c = _level_set(op.tails, 0.1)
            assert (slope, curvature) == (s, c)

    def test_zero_budget_exits_2(self, tmp_path):
        assert run(
            "trace-boundary", "--alpha-tilde", "0.0", "--rho-e", "0.1",
            "--out", str(tmp_path / "b.csv"),
        ) == 2

    @pytest.mark.parametrize(
        "fmt, text", [("csv", "x,y,x_e,y_e,slope,curvature,d_e\n"), ("json", "[]\n")]
    )
    def test_unreachable_budget_writes_an_empty_table(self, tmp_path, fmt, text):
        # Eve's best divergence at crossover 0.1 is about 1.76 nats
        out = tmp_path / f"b.{fmt}"
        assert run(
            "trace-boundary", "--alpha-tilde", "5", "--rho-e", "0.1",
            "--format", fmt, "--out", str(out),
        ) == 0
        assert out.read_text() == text


class TestVerifyCommand:
    def test_unconstrained_design_passes(self, tmp_path):
        argv, design_out = design_args(tmp_path, budget="5.0")
        assert run(*argv) == 0
        report_out = tmp_path / "report.json"
        code = run(
            "verify", "--artifact", str(design_out), "--out", str(report_out)
        )
        assert code == 0
        report = json.loads(report_out.read_text())
        assert report["passed"] is True
        assert report["target_kld"] == pytest.approx(0.318566, abs=1e-5)
        stein = (tmp_path / "report.stein.csv").read_text().splitlines()
        assert stein[0] == "window,log_miss,exponent,local_slope,target_kld"
        assert len(stein) == 5

    def test_readme_design_meets_the_second_order_slope(self, tmp_path, capsys):
        argv, design_out = design_args(tmp_path)
        assert run(*argv) == 0
        report_out = tmp_path / "report.json"
        capsys.readouterr()
        assert run(
            "verify", "--artifact", str(design_out), "--out", str(report_out)
        ) == 0
        assert capsys.readouterr().out.startswith("verify: pass")
        report = json.loads(report_out.read_text())
        # the window-400 slope is 16% of d_fc short of d_fc, but within
        # 0.3% of d_fc of the second-order value
        d_fc, slope = report["target_kld"], report["final_local_slope"]
        assert (d_fc - slope) / d_fc > 0.15
        assert report["relative_gap"] == pytest.approx(
            abs(slope - report["predicted_slope"]) / d_fc
        )
        assert report["relative_gap"] < 0.003
        assert run(
            "verify", "--artifact", str(design_out), "--out", str(report_out),
            "--tolerance", "1e-4",
        ) == 0
        assert capsys.readouterr().out.startswith("verify: fail")
        assert json.loads(report_out.read_text())["passed"] is False

    def test_second_order_slope_not_positive_is_unchecked(self, tmp_path, capsys):
        # behind a noisy FC channel the second-order value at window 400 is
        # negative, while every exact slope is positive: no reference there
        out = tmp_path / "design.json"
        assert run("design", "--theta", "1", "--sigma", "1", "--rho-fc", "0.3",
                   "--rho-e", "0", "--alpha-tilde", "0.05", "--out", str(out)) == 0
        report_out = tmp_path / "report.json"
        capsys.readouterr()
        assert run("verify", "--artifact", str(out), "--out", str(report_out)) == 0
        assert capsys.readouterr().out.startswith("verify: unchecked")
        report = json.loads(report_out.read_text())
        assert report["passed"] is None
        assert report["predicted_slope"] < 0.0 < min(report["local_slopes"])
        assert report["note"].startswith(
            f"not checked: the second-order slope at window 400 is "
            f"{report['predicted_slope']!r}")
        # from window 400 to 51 200 the value at the last window is positive
        config = tmp_path / "windows.json"
        config.write_text(json.dumps({"windows": [400 * 2**k for k in range(8)]}))
        assert run("verify", "--artifact", str(out), "--config", str(config),
                   "--out", str(report_out)) == 0
        assert capsys.readouterr().out.startswith("verify: pass")
        report = json.loads(report_out.read_text())
        assert report["predicted_slope"] > 0.0 and "note" not in report
        assert report["relative_gap"] < 0.01

    def test_design_of_little_information_is_computed(self, tmp_path, capsys):
        # d_fc 3.2e-11 nats: the received point is off the diagonal, so its
        # exponents are computed, and its second-order value is no reference
        out = tmp_path / "design.json"
        assert run("design", "--theta", "1e-5", "--sigma", "1", "--rho-fc", "0",
                   "--rho-e", "0.1", "--alpha-tilde", "1", "--out", str(out)) == 0
        report_out = tmp_path / "report.json"
        capsys.readouterr()
        assert run("verify", "--artifact", str(out), "--out", str(report_out)) == 0
        assert capsys.readouterr().out.startswith("verify: unchecked")
        report = json.loads(report_out.read_text())
        assert 0.0 < report["target_kld"] < 1e-9
        assert report["no_information"] is False
        assert report["passed"] is None
        assert len(report["exponents"]) == len(report["windows"])
        assert re.match(r"not checked: the second-order slope at window 400 is .*, "
                        r"not positive", report["note"])

    def test_designs_of_the_edge_box_are_judged(self, tmp_path, capsys):
        # every design written on the box is judged: none ends in a
        # traceback or an exit 2
        out, report_out = tmp_path / "design.json", tmp_path / "report.json"
        verdicts = {}
        for theta, rho_fc, rho_e, budget in itertools.product(
                ("1e-05", "1", "39"), ("0", "0.01"), ("0", "0.1", "0.4999"),
                ("1e-46", "1e-12", "0.3")):
            assert run("design", "--theta", theta, "--sigma", "1", "--rho-fc", rho_fc,
                       "--rho-e", rho_e, "--alpha-tilde", budget, "--out", str(out)) == 0
            capsys.readouterr()
            assert run("verify", "--artifact", str(out), "--out", str(report_out)) == 0
            verdict = capsys.readouterr().out.split()[1]
            assert verdict in ("pass", "unchecked", "fail")
            verdicts[theta, rho_fc, rho_e, budget] = verdict, json.loads(
                report_out.read_text())
        assert len(verdicts) == 54
        # d_fc stored as 0.0 at a received point that informs the FC
        verdict, report = verdicts["1e-05", "0.01", "0", "1e-46"]
        assert (verdict, report["target_kld"], report["relative_gap"]) == (
            "unchecked", 0.0, None)
        assert report["no_information"] is False and report["passed"] is None
        # a received false alarm of 0: Strassen's value is exact there
        verdict, report = verdicts["39", "0", "0.1", "1e-46"]
        assert verdict == "pass"
        assert report["predicted_slope"] == report["target_kld"] > 0.0
        assert report["relative_gap"] < 1e-7

    def test_blind_design_reports_no_information(self, tmp_path):
        argv, design_out = design_args(tmp_path, budget="0.0")
        assert run(*argv) == 0
        report_out = tmp_path / "report.json"
        assert run(
            "verify", "--artifact", str(design_out), "--out", str(report_out)
        ) == 0
        report = json.loads(report_out.read_text())
        assert report["no_information"] is True
        assert report["passed"] is True

    def test_network_artifact_is_reported_unchecked(self, tmp_path, capsys):
        out = tmp_path / "greedy.csv"
        assert run(
            "greedy", "--n-sensors", "3", "--alpha-total", "10.0",
            "--seed", "4", "--out", str(out),
        ) == 0
        summary = tmp_path / "greedy.summary.json"
        assert json.loads(summary.read_text())["active_count"] == 3
        report_out = tmp_path / "report.json"
        capsys.readouterr()
        assert run(
            "verify", "--artifact", str(summary), "--out", str(report_out)
        ) == 0
        assert capsys.readouterr().out.startswith("verify: unchecked")
        report = json.loads(report_out.read_text())
        assert report["passed"] is None
        assert report["note"].startswith("not checked")
        assert "exponents" not in report
        assert not (tmp_path / "report.stein.csv").exists()

    def test_network_of_one_active_sensor_is_checked(self, tmp_path, capsys):
        # one of 20 sensors is funded; the 19 blind ones send bits that weigh 0
        summary_path = tmp_path / "greedy.summary.json"
        assert run(
            "greedy", "--n-sensors", "20", "--alpha-total", "0.05",
            "--seed", "4", "--out", str(tmp_path / "greedy.csv"),
        ) == 0
        summary = json.loads(summary_path.read_text())
        (rec,) = [r for r in summary["per_sensor"] if r["active"]]
        report_out = tmp_path / "report.json"
        capsys.readouterr()
        assert run("verify", "--artifact", str(summary_path), "--out", str(report_out)) == 0
        assert capsys.readouterr().out.startswith("verify: pass")
        report = json.loads(report_out.read_text())
        assert report["target_kld"] == summary["total_d_fc"]
        fc_op = bsc_transform(
            OperatingPoint(rec["pfa"], rec["pd"], rec["pfa_c"], rec["pd_c"]),
            BscChannel(rec["rho_fc"]),
        )
        expected = stein_curve(fc_op, report["windows"], report["delta"])
        assert report["exponents"] == [p.exponent for p in expected]
        assert report["relative_gap"] <= report["tolerance"]
        assert (tmp_path / "report.stein.csv").exists()

    @pytest.mark.parametrize("n_sensors", ["1", "3"])
    def test_network_without_information_passes(self, tmp_path, capsys, n_sensors):
        assert run(
            "greedy", "--n-sensors", n_sensors, "--alpha-total", "0",
            "--seed", "3", "--out", str(tmp_path / "greedy.csv"),
        ) == 0
        report_out = tmp_path / "report.json"
        capsys.readouterr()
        assert run(
            "verify", "--artifact", str(tmp_path / "greedy.summary.json"),
            "--out", str(report_out),
        ) == 0
        assert capsys.readouterr().out.startswith("verify: pass")
        report = json.loads(report_out.read_text())
        assert report["no_information"] is True
        assert report["passed"] is True
        assert report["note"].startswith("no information")

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**16),
           snr=st.floats(1e-7, 10.0), fc_high=st.floats(0.0, 0.45),
           eve_high=st.floats(0.0, 0.45), spend=st.floats(0.0, 2.0))
    # three sensors funded in full at SNR 1e-7, 9.7e-15 nats in all
    @example(n=3, seed=4, snr=1e-7, fc_high=0.01, eve_high=0.1, spend=1.5)
    def test_pass_means_something_was_checked(self, n, seed, snr, fc_high, eve_high,
                                              spend):
        # a budget of ``spend`` times the network's free total Eve leakage,
        # or past it by ``spend - 1`` nats
        sites = sample_sites(n, seed, snr, fc_high, eve_high)
        free_total = float(np.sum(design_table(sites, [math.inf] * n).d_eve))
        alpha_total = spend * free_total if spend <= 1.0 else free_total + spend - 1.0
        config = allocation.NetworkConfig(sites=sites, alpha_total=alpha_total)
        result = allocation.allocate(config)
        # a sensor informs the FC where its received point has a bit value
        # of unequal probabilities under the two hypotheses
        received = [bsc_transform(OperatingPoint(*tails), site.fc_channel)
                    for site, tails in zip(sites, result.designs.tails.T.tolist())]
        informing = sum(p.pfa != p.pd or p.pfa_c != p.pd_c for p in received)
        report, _ = cli._stein_report(config, result, [50, 100, 200, 400], 0.01, 0.15)
        assert report["no_information"] is (informing == 0)
        assert ("exponents" in report) is (informing == 1)
        if report["passed"] is True:
            assert report["no_information"] or "exponents" in report

    @pytest.mark.parametrize(
        "windows, message",
        [([400, 50, 0], "windows must be strictly ascending"),
         ([0, 50], "window must be at least 1, got 0")],
    )
    def test_bad_windows_exit_2_for_a_network(self, tmp_path, capsys, windows, message):
        assert run(
            "greedy", "--n-sensors", "3", "--alpha-total", "1.0",
            "--seed", "4", "--out", str(tmp_path / "greedy.csv"),
        ) == 0
        config = tmp_path / "verify.json"
        config.write_text(json.dumps({"windows": windows}))
        report_out = tmp_path / "report.json"
        capsys.readouterr()
        assert run(
            "verify", "--artifact", str(tmp_path / "greedy.summary.json"),
            "--config", str(config), "--out", str(report_out),
        ) == 2
        assert message in capsys.readouterr().err
        assert not report_out.exists()

    def test_missing_artifact_exits_4(self, tmp_path):
        assert run(
            "verify", "--artifact", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "r.json"),
        ) == 4

    def test_corrupt_artifact_exits_4(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(
            "verify", "--artifact", str(bad), "--out", str(tmp_path / "r.json")
        ) == 4
        missing_fields = tmp_path / "missing.json"
        missing_fields.write_text(json.dumps({"lambda": 1.0}))
        assert run(
            "verify", "--artifact", str(missing_fields),
            "--out", str(tmp_path / "r.json"),
        ) == 4

    def test_monte_carlo_section_with_seed(self, tmp_path):
        argv, design_out = design_args(tmp_path, budget="5.0")
        assert run(*argv) == 0
        report_out = tmp_path / "report.json"
        code = run(
            "verify", "--artifact", str(design_out), "--out", str(report_out),
            "--trials", "20000", "--window", "10", "--seed", "2",
        )
        assert code == 0
        mc = json.loads(report_out.read_text())["monte_carlo"]
        assert mc["trials"] == 20000
        assert mc["seed"] == 2
        assert "config_hash" in mc
        assert 0.0 < mc["fc_miss_estimate"] < 1.0

    def test_monte_carlo_on_a_separating_sensor(self, tmp_path, capsys):
        # sensor 0 edited to never send a one under H0 and to reach the FC
        # without flips, with every divergence, budget and total recomputed
        # to match: no greedy run writes it, so verify refuses it before any
        # trial; the Monte Carlo on such a sensor is held in test_detection
        assert run(
            "greedy", "--n-sensors", "2", "--alpha-total", "1.0",
            "--seed", "3", "--out", str(tmp_path / "greedy.csv"),
        ) == 0
        summary = json.loads((tmp_path / "greedy.summary.json").read_text())
        summary["per_sensor"][0].update(rho_fc=0.0, pfa=0.0, pfa_c=1.0)
        for rec in summary["per_sensor"]:
            op = OperatingPoint(rec["pfa"], rec["pd"], rec["pfa_c"], rec["pd_c"])
            rec["d_sensor"] = kl_divergence(op)
            rec["d_fc_i"] = kl_divergence(bsc_transform(op, BscChannel(rec["rho_fc"])))
            rec["d_eve_i"] = kl_divergence(bsc_transform(op, BscChannel(rec["rho_e"])))
            # budgets that cover the new leakage keep every budget check passing
            rec["alpha_i"] = max(rec["alpha_i"], rec["d_eve_i"])
        summary["total_d_fc"] = math.fsum(r["d_fc_i"] for r in summary["per_sensor"])
        summary["total_d_eve"] = math.fsum(r["d_eve_i"] for r in summary["per_sensor"])
        summary["alpha_total"] = max(summary["alpha_total"], summary["total_d_eve"])
        artifact = tmp_path / "separating.json"
        artifact.write_text(json.dumps(summary))
        report_out = tmp_path / "report.json"
        assert run(
            "verify", "--artifact", str(artifact), "--out", str(report_out),
            "--trials", "2000", "--seed", "1", "--window", "5",
        ) == 4
        assert "does not match this version's design" in capsys.readouterr().err
        assert not report_out.exists()

    def test_trials_without_seed_exits_2(self, tmp_path):
        argv, design_out = design_args(tmp_path, budget="5.0")
        assert run(*argv) == 0
        assert run(
            "verify", "--artifact", str(design_out),
            "--out", str(tmp_path / "r.json"), "--trials", "1000",
        ) == 2

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        argv, design_out = design_args(tmp_path, budget="5.0")
        assert run(*argv) == 0
        report_out = tmp_path / "report.json"
        assert run(
            "verify", "--artifact", str(design_out), "--out", str(report_out),
            "--trials", "100", "--seed", "-2",
        ) == 2
        assert "seed must be nonnegative, got -2" in capsys.readouterr().err
        assert not report_out.exists()

    def test_empty_window_list_exits_2(self, tmp_path, capsys):
        argv, design_out = design_args(tmp_path, budget="5.0")
        assert run(*argv) == 0
        config = tmp_path / "verify.json"
        config.write_text(json.dumps({"windows": []}))
        report_out = tmp_path / "report.json"
        # rejected before the artifact is read: a missing one changes nothing
        for artifact in (design_out, tmp_path / "nope.json"):
            assert run(
                "verify", "--artifact", str(artifact), "--config", str(config),
                "--out", str(report_out),
            ) == 2
            assert "windows must not be empty" in capsys.readouterr().err
        assert not report_out.exists()

    @pytest.mark.parametrize(
        "artifact, delta",
        [("network", "1.5"), ("blind", "0.7"), ("network", "0")],
    )
    @pytest.mark.parametrize(
        "mc_args", [["--trials", "100", "--seed", "1"], []], ids=["mc", "exact"]
    )
    def test_delta_outside_range_exits_2(
        self, tmp_path, capsys, artifact, delta, mc_args
    ):
        if artifact == "blind":
            argv, path = design_args(tmp_path, budget="0.0")
        else:
            path = tmp_path / "greedy.summary.json"
            argv = [
                "greedy", "--n-sensors", "5", "--alpha-total", "1.0",
                "--seed", "4", "--out", str(tmp_path / "greedy.csv"),
            ]
        assert run(*argv) == 0
        capsys.readouterr()
        report_out = tmp_path / "report.json"
        assert run(
            "verify", "--artifact", str(path), "--out", str(report_out),
            "--delta", delta, *mc_args,
        ) == 2
        assert "delta must lie in (0, 0.5)" in capsys.readouterr().err
        assert not report_out.exists()

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "-1"])
    def test_tolerance_not_finite_and_nonnegative_exits_2(
        self, tmp_path, capsys, tolerance
    ):
        argv, design_out = design_args(tmp_path, budget="5.0")
        assert run(*argv) == 0
        report_out = tmp_path / "report.json"
        assert run(
            "verify", "--artifact", str(design_out), "--out", str(report_out),
            "--tolerance", tolerance,
        ) == 2
        assert "tolerance must be finite and nonnegative" in capsys.readouterr().err
        assert not report_out.exists()

    def test_window_below_one_exits_2_without_trials(self, tmp_path, capsys):
        argv, design_out = design_args(tmp_path, budget="5.0")
        assert run(*argv) == 0
        report_out = tmp_path / "report.json"
        assert run(
            "verify", "--artifact", str(design_out), "--out", str(report_out),
            "--window", "0",
        ) == 2
        assert "window must be at least 1" in capsys.readouterr().err
        assert not report_out.exists()

    def test_verify_idempotent_bytes(self, tmp_path):
        argv, design_out = design_args(tmp_path, budget="5.0")
        assert run(*argv) == 0
        report_out = tmp_path / "report.json"
        argv2 = (
            "verify", "--artifact", str(design_out), "--out", str(report_out),
            "--trials", "5000", "--window", "8", "--seed", "13",
        )
        assert run(*argv2) == 0
        first = report_out.read_bytes()
        assert run(*argv2) == 0
        assert report_out.read_bytes() == first

    @pytest.mark.parametrize(
        "field, value",
        [("d_fc", 5.0), ("d_eve", 0.0), ("d_sensor", 1.0), ("pd", 0.5), ("pd_c", 0.5),
         ("alpha_tilde", 0.001)],
    )
    def test_inconsistent_design_artifact_exits_4(
        self, tmp_path, capsys, field, value
    ):
        argv, design_out = design_args(tmp_path)
        assert run(*argv) == 0
        payload = json.loads(design_out.read_text())
        payload[field] = value
        design_out.write_text(json.dumps(payload))
        report_out = tmp_path / "report.json"
        assert run(
            "verify", "--artifact", str(design_out), "--out", str(report_out)
        ) == 4
        assert "inconsistent" in capsys.readouterr().err
        assert not report_out.exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s: s.pop("alpha_total"),
            lambda s: s.update(per_sensor=[]),
            lambda s: s.update(alpha_total=-1.0),
            lambda s: s.update(total_d_fc=s["total_d_fc"] + 1.0),
            lambda s: s.update(active_count=s["active_count"] - 1),
            lambda s: s["per_sensor"][0].update(d_fc_i=5.0),
            lambda s: s["per_sensor"][0].update(alpha_i=0.5 * s["total_d_eve"]),
            lambda s: s.update(alpha_total=0.5 * s["total_d_eve"]),
            relabel_asleep,
            lambda s: (s["per_sensor"][0].update(active=False),
                       s.update(active_count=s["active_count"] - 1)),
            lambda s: s["per_sensor"][0].update(index=99),
            lambda s: s.update(benchmark_d_fc=123.0, benchmark_d_eve=s["total_d_eve"]),
            lambda s: s.update(benchmark_d_fc=sensor_sum(s), benchmark_d_eve=-7.0),
            lambda s: s.update(benchmark_d_fc=sensor_sum(s)),
            lambda s: s.update(alpha_total=10**400),
            lambda s: s["per_sensor"][0].update(k_i=123.0),
            lambda s: s["per_sensor"][0].update(alpha_i=50.0),
            lambda s: s["per_sensor"][0].update(
                d_fc_star=2.0 * s["per_sensor"][0]["d_fc_star"],
                d_eve_star=2.0 * s["per_sensor"][0]["d_eve_star"]),
            lambda s: s.update(n_sensors=99),
            lambda s: s.update(seed=5),
            lambda s: s.update(eve_crossover_high=0.2),
            lambda s: s.update(snr=0.0),
            lambda s: s.update(fc_crossover_high=0.6),
        ],
        ids=["no_alpha_total", "no_sensors", "negative_alpha_total",
             "wrong_total", "wrong_active_count", "wrong_sensor_d_fc",
             "sensor_over_alpha_i", "total_over_alpha_total",
             "funded_sensor_relabelled_asleep",
             "funded_sensor_asleep_with_its_totals", "index_not_its_position",
             "wrong_benchmark_d_fc", "wrong_benchmark_d_eve",
             "benchmark_d_eve_null", "alpha_total_beyond_float",
             "k_i_not_its_quality", "shares_over_alpha_total",
             "free_divergences_doubled", "n_sensors_not_its_count", "seed_changed",
             "eve_crossover_high_changed", "snr_zero", "crossover_high_over_half"],
    )
    def test_malformed_network_artifact_exits_4(self, tmp_path, corrupt):
        out = tmp_path / "greedy.csv"
        assert run(
            "greedy", "--n-sensors", "1", "--alpha-total", "1.0",
            "--seed", "4", "--out", str(out),
        ) == 0
        summary_path = tmp_path / "greedy.summary.json"
        summary = json.loads(summary_path.read_text())
        corrupt(summary)
        summary_path.write_text(json.dumps(summary))
        assert run(
            "verify", "--artifact", str(summary_path),
            "--out", str(tmp_path / "r.json"),
        ) == 4


    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda s: s["per_sensor"][0].update(alpha_i=10.0),
             "sensor 0 alpha_i is 10.0, but replaying it at alpha_total 100.0 gives "),
            (lambda s: s.update(n_sensors=99),
             "per_sensor holds 6 sensors, but n_sensors is 99"),
        ],
        ids=["share_over_free_leakage", "n_sensors_not_its_count"],
    )
    def test_edit_of_a_fully_funded_network_is_refused(self, tmp_path, capsys, corrupt,
                                                       message):
        # all six sensors are funded in full, so sensor 0's share is its
        # d_eve_star, and the edited share stays under alpha_total
        summary_path = tmp_path / "greedy.summary.json"
        assert run(
            "greedy", "--n-sensors", "6", "--alpha-total", "100.0",
            "--seed", "3", "--out", str(tmp_path / "greedy.csv"),
        ) == 0
        summary = json.loads(summary_path.read_text())
        assert summary["active_count"] == 6
        corrupt(summary)
        summary_path.write_text(json.dumps(summary))
        report_out = tmp_path / "r.json"
        capsys.readouterr()
        assert run("verify", "--artifact", str(summary_path), "--out", str(report_out)) == 4
        err = capsys.readouterr().err
        assert "inconsistent" in err and message in err
        assert not report_out.exists()

    @pytest.mark.parametrize(
        "alpha_total, field", [(2.0, "alpha_total"), (0.3, "alpha_i")]
    )
    def test_leak_over_the_stored_budget_names_the_field(
        self, tmp_path, capsys, alpha_total, field
    ):
        # alpha_total 0.3 leaves one sensor partly funded, at d_eve_i = alpha_i
        summary_path = tmp_path / "greedy.summary.json"
        assert run(
            "greedy", "--n-sensors", "20", "--alpha-total", str(alpha_total),
            "--seed", "4", "--out", str(tmp_path / "greedy.csv"),
        ) == 0
        summary = json.loads(summary_path.read_text())
        report_out = tmp_path / "r.json"
        assert run("verify", "--artifact", str(summary_path), "--out", str(report_out)) == 0
        partial = [r for r in summary["per_sensor"]
                   if r["active"] and r["alpha_i"] < r["d_eve_star"]]
        if field == "alpha_total":
            summary["alpha_total"] = 0.5
        else:
            partial[0]["alpha_i"] *= 1.0 - 1e-6
        summary_path.write_text(json.dumps(summary))
        capsys.readouterr()
        assert run("verify", "--artifact", str(summary_path), "--out", str(report_out)) == 4
        err = capsys.readouterr().err
        assert "inconsistent" in err and field in err

    @pytest.mark.parametrize(
        "field, value", [("binding", "false"), ("binding", 0), ("active", 1)]
    )
    def test_non_boolean_flag_exits_4(self, tmp_path, capsys, field, value):
        if field == "binding":
            argv, artifact = design_args(tmp_path)
            assert run(*argv) == 0
            payload = json.loads(artifact.read_text())
            payload[field] = value
        else:
            out = tmp_path / "greedy.csv"
            assert run(
                "greedy", "--n-sensors", "3", "--alpha-total", "1.0",
                "--seed", "4", "--out", str(out),
            ) == 0
            artifact = tmp_path / "greedy.summary.json"
            payload = json.loads(artifact.read_text())
            payload["per_sensor"][0][field] = value
        artifact.write_text(json.dumps(payload))
        report_out = tmp_path / "report.json"
        assert run("verify", "--artifact", str(artifact), "--out", str(report_out)) == 4
        assert field in capsys.readouterr().err
        assert not report_out.exists()


    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("alpha_tilde", lambda p: p.update(alpha_tilde=str(p["alpha_tilde"]))),
            ("pfa", lambda p: p.update(pfa=str(p["pfa"]))),
            ("index", lambda p: p["per_sensor"][0].update(index=0.9)),
            ("active_count", lambda p: p.update(active_count=p["active_count"] + 0.5)),
        ],
    )
    def test_mistyped_number_exits_4(self, tmp_path, capsys, field, corrupt):
        # float() and int() would read each of these as the stored value
        if field in ("alpha_tilde", "pfa"):
            argv, artifact = design_args(tmp_path)
        else:
            argv = ["greedy", "--n-sensors", "3", "--alpha-total", "1.0", "--seed", "4",
                    "--out", str(tmp_path / "greedy.csv")]
            artifact = tmp_path / "greedy.summary.json"
        assert run(*argv) == 0
        payload = json.loads(artifact.read_text())
        corrupt(payload)
        artifact.write_text(json.dumps(payload))
        report_out = tmp_path / "report.json"
        assert run("verify", "--artifact", str(artifact), "--out", str(report_out)) == 4
        assert f"field {field} has the wrong type" in capsys.readouterr().err
        assert not report_out.exists()

    def test_infinite_numbers_stay_valid(self, tmp_path, capsys):
        # a blind design stores lambda as +inf, and a sensor Eve all but
        # cannot hear (d_eve_star about 3e-15 at SNR 1e-7) k_i: JSON
        # Infinity, a float.  The three funded sensors inform the FC, of
        # 9.7e-15 nats in all, so that summary is unchecked
        argv, blind = design_args(tmp_path, budget="0.0")
        assert run(*argv) == 0
        assert "Infinity" in blind.read_text()
        out = tmp_path / "greedy.csv"
        assert run("greedy", "--n-sensors", "3", "--alpha-total", "1.0",
                   "--seed", "4", "--snr", "1e-7", "--out", str(out)) == 0
        summary = tmp_path / "greedy.summary.json"
        payload = json.loads(summary.read_text())
        assert all(math.isinf(rec["k_i"]) for rec in payload["per_sensor"])
        assert "Infinity" in summary.read_text()
        capsys.readouterr()
        for artifact, status in ((blind, "pass"), (summary, "unchecked")):
            report_out = tmp_path / f"{artifact.stem}.report.json"
            argv = ("verify", "--artifact", str(artifact), "--out", str(report_out))
            assert run(*argv) == 0
            assert capsys.readouterr().out.startswith(f"verify: {status}")


#: The inputs a replay reads: no edit of them is an edit of its output.
REPLAY_INPUTS = {"site", "alpha_tilde", "n_sensors", "seed", "snr", "fc_crossover_high",
                 "eve_crossover_high", "alpha_total"}


def leaf_paths(node, path=()):
    """The path of each leaf of a JSON document, as keys and indices."""
    for key, value in (enumerate(node) if isinstance(node, list) else node.items()):
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, (*path, key))
        else:
            yield (*path, key)


def edited(value):
    """A value of ``value``'s JSON type that differs from it by more than
    verify's 1e-12 relative rule allows."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "s"
    if math.isinf(value):
        return 1e300
    return 1e-300 if value == 0.0 else value * (1.0 + 1e-9)


class TestWholeDocument:
    """``verify`` accepts exactly the document its replay writes."""

    @staticmethod
    def artifacts(tmp_path):
        """A binding design, and a benchmark summary whose split funds some
        sensors in full, one in part and puts the rest to sleep."""
        design = tmp_path / "design.json"
        assert run("design", "--theta", "1", "--sigma", "1", "--rho-fc", "0.02",
                   "--rho-e", "0.1", "--alpha-tilde", "0.05", "--out", str(design)) == 0
        assert run("greedy", "--n-sensors", "8", "--alpha-total", "0.3", "--seed", "2",
                   "--benchmark", "--out", str(tmp_path / "greedy.csv")) == 0
        return design, tmp_path / "greedy.summary.json"

    @staticmethod
    def verify(tmp_path, payload):
        artifact = tmp_path / "edited.json"
        artifact.write_text(json.dumps(payload))
        return run("verify", "--artifact", str(artifact),
                   "--out", str(tmp_path / "report.json"))

    def test_every_output_leaf_is_held(self, tmp_path):
        design, summary = self.artifacts(tmp_path)
        records = json.loads(summary.read_text())["per_sensor"]
        shares = [(r["active"], r["alpha_i"] < r["d_eve_star"]) for r in records]
        assert {(True, False), (True, True), (False, True)} <= set(shares)
        accepted, edits = [], 0
        for path in (design, summary):
            document = json.loads(path.read_text())
            assert self.verify(tmp_path, document) == 0
            for leaf in leaf_paths(document):
                if leaf[0] in REPLAY_INPUTS:
                    continue
                payload = json.loads(path.read_text())
                *parents, key = leaf
                node = payload
                for step in parents:
                    node = node[step]
                node[key] = edited(node[key])
                edits += 1
                if self.verify(tmp_path, payload) != 4:
                    accepted.append((path.name, leaf))
        assert edits == 152
        assert accepted == []

    @pytest.mark.parametrize(
        "kind, edit, message",
        [("design", lambda p: p.update(extra=1.0), "its top level holds 'extra'"),
         ("summary", lambda p: p.update(extra=1.0), "its top level holds 'extra'"),
         ("design", lambda p: p["site"].update(extra=1.0), "site holds 'extra'"),
         ("summary", lambda p: p["per_sensor"][3].update(extra=1.0),
          "sensor 3 holds 'extra'"),
         ("summary", lambda p: p["per_sensor"][3].pop("pfa"), "sensor 3 lacks 'pfa'")],
        ids=["design_top_level", "summary_top_level", "design_site", "sensor_record",
             "sensor_record_without_a_key"],
    )
    def test_key_off_the_written_document_is_refused_where_it_is(
        self, tmp_path, capsys, kind, edit, message
    ):
        design, summary = self.artifacts(tmp_path)
        payload = json.loads((design if kind == "design" else summary).read_text())
        edit(payload)
        capsys.readouterr()
        assert self.verify(tmp_path, payload) == 4
        assert f"inconsistent: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestHighSnrDesign:
    """SNR 10 behind a noiseless FC channel: 1 - pd is about 1e-18, which
    only the stored complement ``pd_c`` holds."""

    @staticmethod
    def high_snr_design(tmp_path):
        argv, out = design_args(tmp_path, budget="3.0")
        argv[argv.index("--theta") + 1] = "10.0"
        assert run(*argv) == 0
        return out, json.loads(out.read_text())

    def test_stores_complements_and_the_log_space_divergence(self, tmp_path):
        import oracles

        out, payload = self.high_snr_design(tmp_path)
        assert payload["pd"] == 1.0 and 0.0 < payload["pd_c"] < 1e-17
        assert payload["pfa"] + payload["pfa_c"] == 1.0
        want = float(oracles.log_space_divergence(10.0, 1.0, 0.0, payload["lambda"]))
        assert abs(payload["d_fc"] - want) <= 1e-9 * want
        report_out = tmp_path / "report.json"
        assert run("verify", "--artifact", str(out), "--out", str(report_out)) == 0
        assert json.loads(report_out.read_text())["passed"] is True

    def test_artifact_without_complements_reads_one_minus_p(self, tmp_path, capsys):
        # an artifact written before the complements were stored: at SNR
        # 10 its 1 - pd, 0, is not the replay's pd_c of about 1e-18, at SNR
        # 1 each 1 - p is the replay's complement to 1e-12
        out, payload = self.high_snr_design(tmp_path)
        for key in ("pfa_c", "pd_c"):
            del payload[key]
        out.write_text(json.dumps(payload))
        report_out = tmp_path / "report.json"
        assert run("verify", "--artifact", str(out), "--out", str(report_out)) == 4
        assert "inconsistent" in capsys.readouterr().err
        argv, out = design_args(tmp_path)
        assert run(*argv) == 0
        payload = json.loads(out.read_text())
        for key in ("pfa_c", "pd_c"):
            del payload[key]
        out.write_text(json.dumps(payload))
        assert run("verify", "--artifact", str(out), "--out", str(report_out)) == 0


class TestArtifactCodec:
    """Replaying an artifact and encoding it again gives back its records."""

    def test_design_artifact_round_trip(self, tmp_path):
        for budget in ("0.0", "0.1", "5.0"):
            argv, out = design_args(tmp_path, budget=budget)
            assert run(*argv) == 0
            payload = json.loads(out.read_text())
            config, result = cli._network_from(payload)
            assert cli._design_artifact(result.designs, config.sites[0]) == payload
            assert result.total_d_fc == payload["d_fc"]
            assert result.active_count == 1

    def test_greedy_summary_round_trip(self, tmp_path):
        out = tmp_path / "greedy.csv"
        assert run(
            "greedy", "--n-sensors", "30", "--alpha-total", "1.0",
            "--seed", "5", "--snr", "1.5", "--out", str(out),
        ) == 0
        summary = json.loads((tmp_path / "greedy.summary.json").read_text())
        config, result = cli._network_from(summary)
        assert config.alpha_total == summary["alpha_total"]
        assert set(result.active.tolist()) == {True, False}
        sampling = {name: summary[name] for name in cli._SAMPLING}
        encoded = cli._summary(sampling, config.alpha_total, config.sites, result)
        assert encoded["per_sensor"] == summary["per_sensor"]
        assert all(site.model.theta == 1.5 for site in config.sites)
        for name in ("total_d_fc", "total_d_eve", "active_count"):
            assert getattr(result, name) == summary[name]

    def test_decoded_summary_is_the_allocation(self, tmp_path):
        # alpha_total 0.3 over seed 2's 40 sensors funds some in full, one
        # in part and puts the rest to sleep
        config = tmp_path / "growth.json"
        config.write_text(json.dumps({"n_grid": [10, 20, 40]}))
        assert run(
            "greedy", "--n-sensors", "40", "--alpha-total", "0.3", "--seed", "2",
            "--benchmark", "--config", str(config), "--out", str(tmp_path / "g.csv"),
        ) == 0
        summary = json.loads((tmp_path / "g.summary.json").read_text())
        stored, decoded = cli._network_from(summary)
        sites = sample_sites(40, seed=2)
        assert stored.sites == sites
        result, _ = allocation._network(sites, 0.3, True, [10, 20, 40])
        assert 0 < result.active_count < 40 and result.designs.binding[result.active].any()
        for name, column in vars(result.designs).items():
            np.testing.assert_array_equal(getattr(decoded.designs, name), column, name)
        for name in ("active", "quality", "d_fc_star", "d_eve_star"):
            np.testing.assert_array_equal(getattr(decoded, name), getattr(result, name),
                                          name)
        for name in ("total_d_fc", "total_d_eve", "active_count", "benchmark_d_fc"):
            assert getattr(decoded, name) == getattr(result, name), name


class TestConfigTypes:
    SITE = ("--theta", "1", "--sigma", "1", "--rho-fc", "0", "--rho-e", "0.1")

    @pytest.mark.parametrize(
        "command, field, value, flags",
        [
            ("design", "theta", [1],
             ("--sigma", "1", "--rho-fc", "0", "--rho-e", "0.1",
              "--alpha-tilde", "0.1")),
            ("tradeoff", "alphas", 0.1, SITE),
            ("greedy", "n_grid", 5,
             ("--n-sensors", "20", "--alpha-total", "1", "--seed", "1")),
            ("verify", "windows", 5, ("--artifact", "{artifact}")),
            ("greedy", "benchmark", "false",
             ("--n-sensors", "20", "--alpha-total", "1", "--seed", "1")),
            ("greedy", "n_sensors", 20.9, ("--alpha-total", "1", "--seed", "1")),
            ("design", "alpha_tilde", True, SITE),
            ("tradeoff", "alphas", "0.1", SITE),
        ],
    )
    def test_wrong_json_type_exits_2(
        self, tmp_path, capsys, command, field, value, flags
    ):
        artifact, _ = design_args(tmp_path)
        artifact[artifact.index("--out") + 1] = str(tmp_path / "a.json")
        assert run(*artifact) == 0
        config = tmp_path / "c.json"
        config.write_text(json.dumps({field: value}))
        out = tmp_path / "out.csv"
        flags = [f.format(artifact=tmp_path / "a.json") for f in flags]
        assert run(command, "--config", str(config), *flags, "--out", str(out)) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, flags", [("trace-boundary", ("--rho-e", "0.1")), ("design", SITE)]
    )
    def test_nan_budget_names_its_field(self, tmp_path, capsys, command, flags, source):
        # NaN fails every comparison, so a range test must be written to
        # refuse what is not inside the range
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"alpha_tilde": math.nan}))
        budget = {"flag": ("--alpha-tilde", "nan"), "config": ("--config", str(config))}
        out = tmp_path / "out.csv"
        assert run(command, *budget[source], *flags, "--out", str(out)) == 2
        assert "alpha_tilde" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "command, config, flags",
        [
            ("tradeoff", {"format": "xml", "alphas": [0.1]}, SITE),
            ("trace-boundary", {"format": "xml"},
             ("--alpha-tilde", "0.2", "--rho-e", "0.1", "--n-points", "16")),
        ],
    )
    def test_unknown_format_exits_2(self, tmp_path, capsys, command, config, flags):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        assert run(command, "--config", str(path), *flags, "--out", str(out)) == 2
        assert "field format must be csv or json" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "command, config, flags, unread",
        [
            ("greedy", {"n_grids": [5, 10]},
             ("--n-sensors", "20", "--alpha-total", "1", "--seed", "1"), "n_grids"),
            ("verify", {"windws": [50, 100]}, ("--artifact", "{artifact}"), "windws"),
        ],
    )
    def test_config_key_the_command_does_not_read_exits_2(
        self, tmp_path, capsys, command, config, flags, unread
    ):
        argv, artifact = design_args(tmp_path, budget="5.0")
        assert run(*argv) == 0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        flags = [f.format(artifact=artifact) for f in flags]
        assert run(command, "--config", str(path), *flags, "--out", str(out)) == 2
        assert unread in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["c.json", artifact.name])


def test_bulk_commands_build_no_operating_points(tmp_path, monkeypatch):
    # designs, networks and boundary traces travel as column tables from the
    # solver to the artifact, checked once on the arrays, not point by point
    built = []
    check = OperatingPoint.__post_init__
    monkeypatch.setattr(OperatingPoint, "__post_init__",
                        lambda self: built.append(self) or check(self))
    alphas = tmp_path / "alphas.json"
    alphas.write_text(json.dumps({"alphas": [0.01, 0.05, 0.2]}))
    site = ("--theta", "1.0", "--sigma", "1.0", "--rho-fc", "0.01", "--rho-e", "0.1")
    commands = {
        "greedy": ("greedy", "--n-sensors", "50", "--alpha-total", "5", "--seed", "1"),
        "design": ("design", *site, "--alpha-tilde", "0.05"),
        "tradeoff": ("tradeoff", *site, "--config", str(alphas)),
        "trace-boundary": ("trace-boundary", "--alpha-tilde", "0.2", "--rho-e", "0.1"),
    }
    counts = {}
    for name, argv in commands.items():
        built.clear()
        assert run(*argv, "--out", str(tmp_path / name)) == 0
        counts[name] = len(built)
    assert counts == dict.fromkeys(commands, 0)


def command_parsers():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def option_strings(parser):
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


class TestParser:
    def test_each_field_but_an_array_is_a_flag(self):
        parsers = command_parsers()
        assert set(parsers) == set(cli._COMMANDS)
        for command, (_, fields) in cli._COMMANDS.items():
            flags = {"--" + name.replace("_", "-")
                     for name, (kind, _) in fields.items()
                     if not isinstance(kind, list)}
            assert option_strings(parsers[command]) == {"--config"} | flags, command

    def test_readme_lists_each_command_flag(self):
        # every command also takes --config and --out, which the table omits
        readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", section, flags=re.M)
        listed = {command: set(re.findall(r"--[a-z-]+", flags))
                  for command, flags in rows}
        assert listed == {
            command: option_strings(p) - {"--config", "--out"}
            for command, p in command_parsers().items()
        }

    def test_readme_names_only_attributes_that_exist(self):
        # a `module.name` the README names resolves in secquant.<module>;
        # `module.py` is a file name
        readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
        modules = "roc|gaussian|search|solver|boundary|allocation|detection|cli|export"
        named = set(re.findall(rf"`({modules})\.(\w+)`", readme)) - {
            (module, "py") for module in modules.split("|")
        }
        assert named
        missing = [f"{module}.{name}" for module, name in sorted(named)
                   if not hasattr(importlib.import_module(f"secquant.{module}"), name)]
        assert missing == []

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_a_call_builds_one_subparser_and_reads_as_the_full_parser(
        self, command, capsys, monkeypatch
    ):
        # help and errors are printed as the full parser prints them
        printed = []
        for parse in (cli.build_parser().parse_args, main):
            for argv in ([command, "--help"], [command, "--no-such-flag", "1"]):
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                printed.append((exc.value.code, *capsys.readouterr()))
        assert printed[:2] == printed[2:]
        assert "usage: secquant " in printed[0][1]
        assert "unrecognized arguments: --no-such-flag 1" in printed[1][2]
        # main builds only the named command's subparser
        built = []
        build_parser = cli.build_parser

        def counted(*args):
            parser = build_parser(*args)
            (sub,) = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
            built.append(sorted(sub.choices))
            return parser

        monkeypatch.setattr(cli, "build_parser", counted)
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert built == [[command]]

    @pytest.mark.parametrize(
        "command, flag, value",
        [("design", "--seed", "1"), ("design", "--format", "json"),
         ("tradeoff", "--seed", "1"), ("trace-boundary", "--seed", "1"),
         ("greedy", "--format", "json"), ("verify", "--format", "json")],
    )
    def test_flag_the_command_does_not_read_is_refused(self, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, flag, value])
        assert exc.value.code == 2


def _python(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    secquant; returns its standard output, after checking that it exits 0."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_leaves_scipy_stats_unloaded():
    # no scipy module at all: scipy.special alone took about 0.37 s of every
    # command's start, and the kernels secquant needs are NumPy and
    # standard-library code
    probe = ("import sys, secquant.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _python(probe) == "[]"


def test_commands_run_where_scipy_cannot_be_imported(tmp_path):
    # a finder ahead of all others refuses scipy, as on an install without
    # the test extra; every command, Monte Carlo verify included, exits 0
    design, summary = tmp_path / "design.json", tmp_path / "greedy.summary.json"
    commands = [
        design_args(tmp_path)[0],
        ["tradeoff", "--theta", "1.0", "--sigma", "1.0", "--rho-fc", "0.0",
         "--rho-e", "0.1", "--alpha-min", "0.0", "--alpha-max", "0.4",
         "--alpha-count", "5", "--out", str(tmp_path / "t.csv")],
        ["greedy", "--n-sensors", "5", "--alpha-total", "1.0", "--seed", "1",
         "--out", str(tmp_path / "greedy.csv")],
        ["verify", "--artifact", str(design), "--out", str(tmp_path / "r1.json")],
        ["verify", "--artifact", str(design), "--out", str(tmp_path / "r2.json"),
         "--trials", "2000", "--window", "20", "--seed", "3"],
        ["verify", "--artifact", str(summary), "--out", str(tmp_path / "r3.json"),
         "--trials", "2000", "--window", "20", "--seed", "3"],
    ]
    code = f"""
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, NoScipy())
from secquant import cli
print([cli.main(argv) for argv in {commands!r}])
"""
    assert _python(code).splitlines()[-1] == str([0] * len(commands))
