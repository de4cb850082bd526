"""Command-line surface: artifact schemas, exit codes, idempotence."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from secquant import cli
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


class TestDesignCommand:
    def test_binding_design_artifact(self, tmp_path):
        argv, out = design_args(tmp_path)
        assert run(*argv) == 0
        payload = json.loads(out.read_text())
        assert payload["binding"] is True
        assert payload["alpha_tilde"] == 0.1
        assert payload["d_eve"] == pytest.approx(0.1, abs=1e-8)
        assert payload["units"] == "nats"
        for key in ("lambda", "pfa", "pd", "d_sensor", "d_fc", "d_eve"):
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
        "field, value", [("d_fc", 5.0), ("d_eve", 0.0), ("d_sensor", 1.0), ("pd", 0.5)]
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
        ],
        ids=["no_alpha_total", "no_sensors", "negative_alpha_total",
             "wrong_total", "wrong_active_count", "wrong_sensor_d_fc"],
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


class TestParser:
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
