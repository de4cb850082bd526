"""Command-line surface: artifact schemas, exit codes, idempotence."""

import argparse
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from secquant import BscChannel, OperatingPoint, bsc_transform, cli, stein_curve
from secquant.cli import main


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
        assert "theta must be finite and positive, got inf" in capsys.readouterr().err
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
        for line in lines[1:]:
            d_e = float(line.split(",")[6])
            assert d_e == pytest.approx(0.2, abs=1e-9)

    def test_zero_budget_exits_2(self, tmp_path):
        assert run(
            "trace-boundary", "--alpha-tilde", "0.0", "--rho-e", "0.1",
            "--out", str(tmp_path / "b.csv"),
        ) == 2


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

    def test_trials_without_seed_exits_2(self, tmp_path):
        argv, design_out = design_args(tmp_path, budget="5.0")
        assert run(*argv) == 0
        assert run(
            "verify", "--artifact", str(design_out),
            "--out", str(tmp_path / "r.json"), "--trials", "1000",
        ) == 2

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
        assert "window must be positive" in capsys.readouterr().err
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
            lambda s: s["per_sensor"][0].update(index=99),
        ],
        ids=["no_alpha_total", "no_sensors", "negative_alpha_total",
             "wrong_total", "wrong_active_count", "wrong_sensor_d_fc",
             "sensor_over_alpha_i", "total_over_alpha_total",
             "funded_sensor_relabelled_asleep", "index_not_its_position"],
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
        # a blind design stores lambda as +inf, a deaf-Eve sensor k_i: JSON
        # Infinity, a float
        argv, blind = design_args(tmp_path, budget="0.0")
        assert run(*argv) == 0
        assert "Infinity" in blind.read_text()
        out = tmp_path / "greedy.csv"
        assert run("greedy", "--n-sensors", "3", "--alpha-total", "1.0",
                   "--seed", "4", "--out", str(out)) == 0
        summary = tmp_path / "greedy.summary.json"
        payload = json.loads(summary.read_text())
        payload["per_sensor"][0]["k_i"] = math.inf
        summary.write_text(json.dumps(payload))
        capsys.readouterr()
        for artifact, status in ((blind, "pass"), (summary, "unchecked")):
            report_out = tmp_path / f"{artifact.stem}.report.json"
            argv = ("verify", "--artifact", str(artifact), "--out", str(report_out))
            assert run(*argv) == 0
            assert capsys.readouterr().out.startswith(f"verify: {status}")


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
        # 10 its d_fc no longer recomputes from 1 - pd, at SNR 1 it does
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
    """Decoding an artifact and encoding it again gives back its records."""

    def test_design_artifact_round_trip(self, tmp_path):
        for budget in ("0.0", "0.1", "5.0"):
            argv, out = design_args(tmp_path, budget=budget)
            assert run(*argv) == 0
            payload = json.loads(out.read_text())
            config, result = cli._network_from(payload)
            (record,) = result.per_sensor
            assert cli._design_artifact(record.design, config.sites[0]) == payload
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
        assert {rec.active for rec in result.per_sensor} == {True, False}
        encoded = [
            cli._sensor_record(rec, site)
            for rec, site in zip(result.per_sensor, config.sites)
        ]
        assert encoded == summary["per_sensor"]
        assert all(site.model.theta == 1.5 for site in config.sites)
        for name in ("total_d_fc", "total_d_eve", "active_count"):
            assert getattr(result, name) == summary[name]


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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; the exact miss needs
    # only scipy.special
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    probe = "import sys, secquant.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        check=True,
    )
    assert done.stdout.strip() == "False"
