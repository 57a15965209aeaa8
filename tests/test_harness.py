import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullrec import ExperimentConfig, hill_estimator, ks_statistic, run_experiment
from nullrec.errors import DegenerateSampleError
from nullrec.harness import default_tolerances

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"


# ----------------------------------------------------------------- ks/hill

def test_ks_identical_zero(rng):
    x = rng.normal(size=64)
    assert ks_statistic(x, x) == 0.0


def test_ks_disjoint_one(rng):
    a = rng.uniform(0, 1, 50)
    b = rng.uniform(5, 6, 70)
    assert ks_statistic(a, b) == 1.0


def test_ks_hand_value():
    assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(1 / 3)


def test_ks_empty_rejected():
    with pytest.raises(DegenerateSampleError):
        ks_statistic([], [1.0])


@settings(max_examples=30)
@given(a=st.lists(st.floats(-50, 50), min_size=1, max_size=40),
       b=st.lists(st.floats(-50, 50), min_size=1, max_size=40))
def test_ks_in_unit_interval(a, b):
    d = ks_statistic(a, b)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(ks_statistic(b, a))


def test_hill_on_exact_pareto():
    rng = np.random.default_rng(8)
    u = rng.uniform(size=10_000)
    x = u ** (-1.0 / 0.5)   # P(X > t) = t^(-0.5)
    assert hill_estimator(x, 500) == pytest.approx(0.5, abs=0.05)


def test_hill_scale_invariance():
    rng = np.random.default_rng(9)
    x = rng.pareto(1.5, size=2000) + 1.0
    base = hill_estimator(x, 100)
    assert hill_estimator(4.0 * x, 100) == base  # power-of-two scale: exact
    assert hill_estimator(3.0 * x, 100) == pytest.approx(base, rel=1e-12)


def test_hill_degenerate_and_range():
    with pytest.raises(DegenerateSampleError):
        hill_estimator(np.ones(100), 10)
    with pytest.raises(ValueError):
        hill_estimator(np.arange(1.0, 10.0), 20)
    with pytest.raises(DegenerateSampleError):
        hill_estimator(np.array([1.0, -2.0, 3.0]), 1)


# ------------------------------------------------------------------ config

def test_config_roundtrip():
    cfg = ExperimentConfig(kind="rate", theta1=0.1, theta2=(0.2,), window=(-2, 2),
                           horizons=(100, 200), replications=10, master_seed=9)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


@pytest.mark.parametrize("key", ["bogus", "hill_k", "tail_prob", "checkpoint_times",
                                 "h_radius", "loss_clip"])
def test_config_rejects_unknown_keys(key):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict({"kind": "rate", key: 1})


def test_canned_configs_load():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert [p.stem for p in paths] == ["identity", "rate", "risk", "rlt", "tail"]
    for path in paths:
        config = ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert config.kind == path.stem


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="rate", replications=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="rate", horizons=(200, 100))
    with pytest.raises(ValueError):
        ExperimentConfig(kind="warp")


def test_default_tolerances_cover_kinds():
    for kind in ("identity", "rate", "tail", "rlt", "risk"):
        assert default_tolerances(kind)


# ------------------------------------------------------------- experiments

IDENT = ExperimentConfig(kind="identity", theta1=0.1, theta2=(-0.3,),
                         horizons=(20,), dt=1e-2, replications=10,
                         master_seed=5)


def test_identity_suite_small():
    report = run_experiment(IDENT)
    assert report.overall_pass
    worst = max(r.value for r in report.rows if r.stat_name.startswith("max_residual"))
    assert worst <= 1e-10


def test_identity_deterministic():
    a = run_experiment(IDENT)
    b = run_experiment(IDENT)
    assert [dataclasses.asdict(r) for r in a.rows] == [
        dataclasses.asdict(r) for r in b.rows]


def test_rate_experiment_small_smoke():
    cfg = ExperimentConfig(kind="rate", theta1=0.0, theta2=(0.3,),
                           horizons=(30, 60), dt=1e-2, replications=40,
                           master_seed=7, window=(-2.0, 2.0), limit_draws=400,
                           tolerances={"ks_cross": 1.0, "ks_limit": 1.0,
                                       "ks_calibration": 1.0})
    report = run_experiment(cfg)
    names = {r.stat_name for r in report.rows}
    assert {"ks_cross_horizon", "ks_vs_limit", "ks_calibration",
            "invertible_fraction", "iqr_ratio_windowed_over_mle",
            "moment_matrix_gap_min_eig"} <= names
    for r in report.rows:
        if r.stat_name.startswith("ks_"):
            assert 0.0 <= r.value <= 1.0


def test_rate_reports_every_horizon():
    # one Euler step never gives an invertible J; the later horizon still counts
    cfg = ExperimentConfig(kind="rate", horizons=(1, 50), dt=1.0, replications=20)
    report = run_experiment(cfg)
    fracs = {r.horizon: r.value for r in report.find("invertible_fraction")}
    assert fracs[1.0] == 0.0 and fracs[50.0] > 0.0
    assert {r.horizon for r in report.find("ks_vs_limit")} == {50.0}
    assert not report.find("ks_cross_horizon")


def test_rate_requires_two_horizons():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(kind="rate", horizons=(100,)))


def test_tail_experiment_flags_insufficient_cycles():
    cfg = ExperimentConfig(kind="tail", theta1=0.0, theta2=(0.0,),
                           horizons=(5,), dt=1e-2, replications=2,
                           master_seed=3, target_cycles=50, max_waves=1)
    report = run_experiment(cfg)
    rows = report.find("completed_cycles")
    assert rows and rows[0].passed is False
    assert not report.overall_pass


def test_tail_experiment_small_run():
    cfg = ExperimentConfig(kind="tail", theta1=0.0, theta2=(0.0,),
                           horizons=(400,), dt=1e-2, replications=8,
                           master_seed=11, target_cycles=40, max_waves=4,
                           tolerances={"hill_abs": 1.0, "tail_constant_rel": 10.0})
    report = run_experiment(cfg)
    assert report.find("completed_cycles")[0].value >= 40
    assert report.find("hill_alpha")
    assert report.find("crossing_threshold")[0].value == pytest.approx(1.0, abs=1e-9)


def test_rlt_experiment_smoke():
    cfg = ExperimentConfig(kind="rlt", theta1=0.0, theta2=(0.5,),
                           horizons=(200,), dt=1e-2, replications=6,
                           master_seed=13,
                           tolerances={"bias_rel": 10.0, "naive_vs_mle_factor": 0.0})
    report = run_experiment(cfg)
    assert report.find("b_check_terminal_median")
    assert report.find("b_check_lane0")
    assert report.find("naive_over_mle_ratio")[0].value > 0


def test_rlt_requires_secondary():
    cfg = ExperimentConfig(kind="rlt", basis="none", theta2=(),
                           horizons=(100,), replications=2)
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_risk_experiment_smoke():
    cfg = ExperimentConfig(kind="risk", theta1=0.0, theta2=(0.3,),
                           horizons=(50,), dt=1e-2, replications=12,
                           master_seed=17, window=(-2.0, 2.0), bound_draws=4000,
                           tolerances={"bound_sigma": 100.0})
    report = run_experiment(cfg)
    bound = report.find("risk_bound")[0].value
    assert 0.0 <= bound <= 4.0
    sup_m = report.find("sup_risk_mle")[0].value
    assert 0.0 <= sup_m <= 4.0
    assert report.find("risk_ordering_gap")
    # 9 shift points for a 2-dimensional parameter; at this short horizon the
    # two largest principal-axis shifts leave the parameter domain
    assert len(report.find("risk_mle_at_h")) == 7
    assert report.find("dropped_h_points")[0].value == 2


def test_risk_bounded_loss_rows_in_range():
    cfg = ExperimentConfig(kind="risk", theta1=0.0, theta2=(0.3,),
                           horizons=(50,), dt=1e-2, replications=6,
                           master_seed=19, loss="exp", bound_draws=2000,
                           tolerances={"bound_sigma": 100.0})
    report = run_experiment(cfg)
    for r in report.find("risk_mle_at_h"):
        assert 0.0 <= r.value <= 1.0


def test_run_experiment_dispatch():
    report = run_experiment(IDENT)
    assert report.kind == "identity"
