import json
import math

import pytest

from nullrec.cli import emit_report, main, parse_config
from nullrec.harness import ExperimentReport, ReportRow


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


@pytest.mark.parametrize("window", [("2", "-2"), ("nan", "2")])
def test_simulate_stats_rejects_bad_window(tmp_path, capsys, monkeypatch, window):
    # the window is checked before any path is simulated
    def no_path(*args, **kwargs):
        raise AssertionError("simulate_path called with a bad window")

    monkeypatch.setattr("nullrec.cli.simulate_path", no_path)
    stats_file = tmp_path / "stats.json"
    code, _, err = run_cli(capsys, "simulate", "--sigma", "1", "--theta1", "0.0",
                           "--horizon", "1", "--dt", "0.1", "--seed", "5",
                           "--emit", "stats", "--window", *window,
                           "--out", str(stats_file))
    assert code == 2 and "window" in err
    assert not stats_file.exists()


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


@pytest.mark.parametrize("cov", [{"a": 1.0}, "wide", [[1.0, 0.0], [0.0]], [[None]],
                                 [[[1.0]]]],
                         ids=["object", "string", "ragged", "null", "three_dims"])
def test_limits_cov_not_a_matrix(tmp_path, capsys, cov):
    # exit 1 would read as a failed tolerance row
    cov_file = tmp_path / "cov.json"
    cov_file.write_text(json.dumps(cov))
    code, out, err = run_cli(capsys, "limits", "--alpha", "0.5", "--cov", str(cov_file),
                             "--n", "10", "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: --cov ") and err.count("\n") == 1


@pytest.mark.parametrize("loss, clip", [("sqclip", "-1"), ("sqclip", "0"), ("sqclip", "nan"),
                                        ("exp", "inf")])
def test_limits_risk_rejects_bad_clip(capsys, loss, clip):
    code, out, err = run_cli(capsys, "limits", "--alpha", "0.5", "--n", "100", "--seed",
                             "1", "--risk", "--loss", loss, "--clip", clip)
    assert code == 2 and out == ""
    assert err.startswith("error: clip ") and err.count("\n") == 1


def test_limits_alpha_validation(capsys):
    code, _, err = run_cli(capsys, "limits", "--alpha", "1.5", "--n", "10",
                           "--seed", "1")
    assert code == 2 and "alpha" in err


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_limits_dim_validation(capsys, dim):
    code, _, err = run_cli(capsys, "limits", "--alpha", "0.5", "--dim", dim,
                           "--n", "10", "--seed", "1")
    assert code == 2 and err == "error: --dim must be >= 1\n"


@pytest.mark.parametrize("command", [
    ["simulate", "--sigma", "1", "--theta1", "0", "--horizon", "1", "--dt", "0.1"],
    ["limits", "--alpha", "0.5", "--n", "10"],
    ["check"],
], ids=["simulate", "limits", "check"])
@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_seed_outside_64_bits_rejected(capsys, command, seed):
    # lane_rng masks the seed to 64 bits, so -1 would alias 2^64 - 1
    code, out, err = run_cli(capsys, *command, "--seed", seed)
    assert code == 2 and out == ""
    assert err == "error: --seed must lie in [0, 2^64)\n"


def test_estimate_stats_missing_key(tmp_path, capsys):
    stats_file = tmp_path / "stats.json"
    stats_file.write_text(json.dumps({"y": [0.1], "t": 1.0}))
    code, _, err = run_cli(capsys, "estimate", "--stats", str(stats_file))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "'j'" in err


@pytest.mark.parametrize("key, value", [("y", [0.1, None]), ("y", [math.nan, 0.2]),
                                        ("j", [[1.0, 0.0], [0.0, math.inf]])],
                         ids=["y_null", "y_nan", "j_infinity"])
def test_estimate_stats_rejects_non_finite(tmp_path, capsys, key, value):
    # json reads null as None, which numpy turns into NaN without a word
    data = {"y": [0.1, 0.2], "j": [[1.0, 0.0], [0.0, 1.0]], "t": 1.0, key: value}
    stats_file = tmp_path / "stats.json"
    stats_file.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "estimate", "--stats", str(stats_file))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and f"'{key}'" in err


def test_estimate_stats_rejects_stacked(tmp_path, capsys):
    stats_file = tmp_path / "stats.json"
    stats_file.write_text(json.dumps({"y": [[1, .5], [.3, .2]],
                                      "j": [[[2, .1], [.1, 1]], [[1, 0], [0, 1]]],
                                      "t": 10}))
    code, out, err = run_cli(capsys, "estimate", "--stats", str(stats_file))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "'y'" in err


@pytest.mark.parametrize("data, name", [
    ({"kind": "identity", "replications": "10"}, "replications"),
    ({"kind": "identity", "horizons": None}, "horizons"),
    ({"kind": "identity", "tolerances": {"max_residual": "tiny"}}, "tolerances"),
    ({"kind": "identity", "horizons": [2], "replications": 2,
      "tolerances": {"max_residual": 0.0}}, "tolerances"),
    ({"kind": "identity", "horizons": [1], "replications": 3, "block_steps": 0},
     "block_steps"),
    ({"kind": "identity", "horizons": [0.005, 1], "dt": 0.01}, "horizons"),
    ([1, 2], "JSON object"),
    ({"kind": "identity", "master_seed": -1}, "master_seed"),
    ({"kind": "identity", "master_seed": 1 << 64}, "master_seed"),
    ({"kind": "tail", "hill_frac": -1.0}, "hill_frac"),
    ({"kind": "tail", "hill_frac": 1.0}, "hill_frac"),
    ({"kind": "tail", "max_waves": 0}, "max_waves"),
    ({"kind": "tail", "target_cycles": 0}, "target_cycles"),
    ({"kind": "rate", "limit_draws": 0}, "limit_draws"),
    ({"kind": "risk", "bound_draws": 1}, "bound_draws"),
    ({"kind": "risk", "replications": 1}, "replications"),
    ({"kind": "rate", "horizons": [0.5, 0.9], "replications": 20, "limit_draws": 50},
     "horizons"),
    ({"kind": "risk", "horizons": [0.5], "replications": 2}, "horizons"),
    # quoted: the moment matrix's own late error names the window without quotes
    ({"kind": "rate", "window": [-math.inf, 2.0], "horizons": [1, 2], "replications": 20,
      "limit_draws": 50}, "'window'"),
    # json writes and reads these as Infinity and NaN
    ({"kind": "risk", "horizons": [math.inf], "replications": 2}, "'horizons'"),
    ({"kind": "identity", "horizons": [1, math.nan], "replications": 2}, "'horizons'"),
    ({"kind": "identity", "dt": math.inf, "horizons": [1], "replications": 2}, "'dt'"),
    ({"kind": "rate", "dt": math.nan, "horizons": [1], "replications": 20,
      "limit_draws": 50}, "'dt'"),
], ids=["replications", "horizons", "tolerances", "tolerance_key", "block_steps",
        "horizon_below_dt", "not_an_object", "master_seed_negative", "master_seed_too_big",
        "hill_frac_negative", "hill_frac_one", "max_waves", "target_cycles", "limit_draws",
        "bound_draws", "risk_replications", "rate_horizon_below_one",
        "risk_horizon_below_one", "rate_window_infinite_end", "risk_horizon_infinite",
        "horizon_nan", "dt_infinite", "dt_nan"])
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

    # one Euler step from 0 without drift gives J = 0 on every replication:
    # the residual rows are NaN and fail
    failing = dict(cfg, basis="none", theta1=0.0, theta2=[], horizons=[0.01])
    cfg_file.write_text(json.dumps(failing))
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg_file))
    assert code == 1 and "FAIL: max_residual" in out
    # the report is strict JSON: NaN values are written as null
    def no_constant(token):
        raise ValueError(f"{token} is not JSON")
    report = json.loads((tmp_path / "rep.json").read_text(), parse_constant=no_constant)
    residuals = [r["value"] for r in report["rows"] if r["stat_name"].startswith("max_residual")]
    assert residuals and all(v is None for v in residuals)

    # invalid replications from the config is a usage error
    cfg["replications"] = 0
    cfg_file.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_file))
    assert code == 2 and "replications" in err


def test_experiment_rejects_override_flags(tmp_path, capsys):
    # the config file is the one source of an experiment's values
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"kind": "identity", "horizons": [1], "replications": 2,
                                    "output": str(tmp_path / "rep")}))
    for flag, value in (("--seed", "3"), ("--replications", "4"), ("--dt", "0.02")):
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_file),
                                 flag, value)
        assert code == 2 and out == "" and "unrecognized arguments" in err
    assert not (tmp_path / "rep.csv").exists()


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
