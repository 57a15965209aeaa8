import json
import math

import numpy as np
import pytest

from nullrec.cli import emit_report, main, parse_config
from nullrec.harness import ExperimentConfig, ExperimentReport, ReportRow


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ parsing

def test_parse_constants_valid():
    cfg = parse_config(["constants", "--sigma", "1", "--theta1", "0"])
    assert cfg.subcommand == "constants"
    assert cfg.sigma == 1.0


def test_parse_rejects_theta_outside_domain():
    with pytest.raises(Exception):
        parse_config(["simulate", "--theta1", "0.6", "--sigma", "1",
                      "--horizon", "1", "--dt", "0.1", "--seed", "1"])


def test_parse_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        parse_config(["constants", "--sigma", "1", "--theta1", "0", "--bogus", "1"])
    assert exc.value.code == 2


def test_parse_theta2_count_mismatch_names_flag():
    with pytest.raises(Exception, match="theta2"):
        parse_config(["constants", "--sigma", "1", "--theta1", "0",
                      "--basis", "sinc"])


# -------------------------------------------------------------- subcommands

def test_constants_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--sigma", "1", "--theta1", "0",
                           "--n", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == pytest.approx(0.5)
    assert payload["alpha_n"] == pytest.approx(10 * math.sqrt(2) / 2)
    assert payload["delta_n"] == pytest.approx(100 ** -0.25)
    assert set(payload) == {"lambda1", "alpha", "psi_plus", "psi_minus",
                            "d_weight", "alpha_n", "delta_n"}


def test_simulate_csv(tmp_path, capsys):
    out_file = tmp_path / "path.csv"
    code, _, _ = run_cli(capsys, "simulate", "--sigma", "1", "--theta1", "0.0",
                         "--horizon", "1.0", "--dt", "0.1", "--seed", "3",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 12  # header + 11 grid points
    assert lines[1].startswith("0.0,")


def test_simulate_stats_and_estimate_pipeline(tmp_path, capsys):
    stats_file = tmp_path / "stats.json"
    code, _, _ = run_cli(capsys, "simulate", "--sigma", "1", "--theta1", "0.0",
                         "--theta2", "0.3", "--basis", "sinc",
                         "--horizon", "50", "--dt", "0.01", "--seed", "5",
                         "--emit", "stats", "--out", str(stats_file))
    assert code == 0
    payload = json.loads(stats_file.read_text())
    assert set(payload) == {"y", "j", "t", "window", "x0"}
    assert payload["t"] == pytest.approx(50.0)

    code, out, _ = run_cli(capsys, "estimate", "--stats", str(stats_file),
                           "--theta", "0.0", "0.3")
    assert code == 0
    est = json.loads(out)
    assert est["j_invertible"] is True
    assert len(est["theta_hat"]) == 2
    assert est["loglik_at"] <= 1e-12  # relative to the fitted maximum


def test_estimate_windowed_pipeline(tmp_path, capsys):
    stats_file = tmp_path / "stats.json"
    run_cli(capsys, "simulate", "--sigma", "1", "--theta1", "0.0",
            "--theta2", "0.3", "--basis", "sinc", "--horizon", "50",
            "--dt", "0.01", "--seed", "5", "--emit", "stats",
            "--window", "-2", "2", "--out", str(stats_file))
    code, out, _ = run_cli(capsys, "estimate", "--stats", str(stats_file),
                           "--window", "-2", "2")
    assert code == 0
    assert json.loads(out)["j_invertible"] is True
    # window mismatch is a usage error
    code, _, err = run_cli(capsys, "estimate", "--stats", str(stats_file),
                           "--window", "-1", "1")
    assert code == 2 and "window" in err


def test_simulate_rejects_bad_theta(capsys):
    code, _, err = run_cli(capsys, "simulate", "--theta1", "0.6", "--sigma", "1",
                           "--horizon", "1", "--dt", "0.1", "--seed", "1")
    assert code == 2
    assert "theta1" in err


@pytest.mark.parametrize("flag, value", [("horizon", "inf"), ("dt", "nan")])
def test_simulate_rejects_non_finite(capsys, flag, value):
    argv = {"horizon": "1", "dt": "0.1"}
    argv[flag] = value
    code, _, err = run_cli(capsys, "simulate", "--sigma", "1", "--theta1", "0",
                           "--horizon", argv["horizon"], "--dt", argv["dt"],
                           "--seed", "1")
    assert code == 2
    assert flag in err


def test_limits_draws_csv(tmp_path, capsys):
    cov_file = tmp_path / "cov.json"
    cov_file.write_text(json.dumps([[math.pi / 2]]))
    out_file = tmp_path / "draws.csv"
    code, _, _ = run_cli(capsys, "limits", "--alpha", "0.5", "--cov",
                         str(cov_file), "--n", "50", "--seed", "2",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "z0"
    assert len(lines) == 51


def test_limits_risk_json(capsys):
    code, out, _ = run_cli(capsys, "limits", "--alpha", "0.5", "--dim", "2",
                           "--n", "5000", "--seed", "4", "--risk",
                           "--loss", "sqclip", "--clip", "4.0")
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["estimate"] <= 4.0
    assert payload["stderr"] > 0


def test_limits_alpha_validation(capsys):
    code, _, err = run_cli(capsys, "limits", "--alpha", "1.5", "--n", "10",
                           "--seed", "1")
    assert code == 2 and "alpha" in err


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_limits_dim_validation(capsys, dim):
    code, _, err = run_cli(capsys, "limits", "--alpha", "0.5", "--dim", dim,
                           "--n", "10", "--seed", "1")
    assert code == 2 and err == "error: --dim must be >= 1\n"


def test_estimate_stats_missing_key(tmp_path, capsys):
    stats_file = tmp_path / "stats.json"
    stats_file.write_text(json.dumps({"y": [0.1], "t": 1.0}))
    code, _, err = run_cli(capsys, "estimate", "--stats", str(stats_file))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "'j'" in err


@pytest.mark.parametrize("data, name", [
    ({"kind": "identity", "replications": "10"}, "replications"),
    ({"kind": "identity", "horizons": None}, "horizons"),
    ({"kind": "identity", "tolerances": {"max_residual": "tiny"}}, "tolerances"),
    ([1, 2], "JSON object"),
], ids=["replications", "horizons", "tolerances", "not_an_object"])
def test_experiment_malformed_config(tmp_path, capsys, data, name):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_file),
                           "--out", str(tmp_path / "rep"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err


def test_experiment_cli_and_exit_codes(tmp_path, capsys):
    cfg = {"kind": "identity", "sigma": 1.0, "basis": "sinc", "theta1": 0.1,
           "theta2": [-0.3], "horizons": [20], "dt": 0.01, "replications": 5,
           "master_seed": 2, "output": str(tmp_path / "rep")}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg_file))
    assert code == 0
    assert (tmp_path / "rep.json").exists() and (tmp_path / "rep.csv").exists()

    # impossible tolerance forces the failure exit path
    cfg["tolerances"] = {"max_residual": 0.0}
    cfg_file.write_text(json.dumps(cfg))
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg_file))
    assert code == 1

    # invalid replications from the config is a usage error
    cfg["replications"] = 0
    cfg_file.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_file))
    assert code == 2 and "replications" in err


def test_experiment_flag_overrides(tmp_path, capsys):
    cfg = {"kind": "identity", "sigma": 1.0, "basis": "sinc", "theta1": 0.1,
           "theta2": [-0.3], "horizons": [20], "dt": 0.01, "replications": 0,
           "master_seed": 2, "output": str(tmp_path / "rep2")}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    # the override repairs the invalid value: flags win over the file
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg_file),
                         "--replications", "4")
    assert code == 0


def test_emit_report_deterministic(tmp_path):
    report = ExperimentReport(kind="identity", rows=[
        ReportRow(20.0, None, "max_residual_cocycle", 1.2e-14, 1e-10, True),
        ReportRow(None, 1, "ks_calibration", 0.021, 0.05, True),
    ], wall_clock=1.5)
    first = emit_report(report, str(tmp_path / "rep"))
    blob_a = tuple(open(f, "rb").read() for f in first)
    second = emit_report(report, str(tmp_path / "rep"))
    blob_b = tuple(open(f, "rb").read() for f in second)
    assert blob_a == blob_b
    rows = open(first[1]).read().strip().splitlines()
    assert rows[0] == "horizon,coord,stat_name,value,tolerance,pass"
    assert len(rows) == 1 + len(report.rows)
    payload = json.loads(open(first[0]).read())
    assert len(payload["rows"]) == len(report.rows)


def test_emit_empty_report(tmp_path):
    report = ExperimentReport(kind="rate", rows=[])
    files = emit_report(report, str(tmp_path / "empty"))
    payload = json.loads(open(files[0]).read())
    assert payload["rows"] == []
    assert payload["overall_pass"] is True


def test_check_subcommand(capsys):
    code, out, _ = run_cli(capsys, "check", "--seed", "1")
    assert code == 0
    assert "all ok" in out
