"""Golden reports: small experiments of every kind re-emitted byte for byte.

A refactor that keeps the numbers keeps these CSVs identical; a change that
moves their last bits shows up here first.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py

A deliberate re-baseline regenerates the files in the same change and shows
their diff.
"""

import inspect
from pathlib import Path

import pytest

from nullrec import ExperimentConfig, harness, run_experiment, simulate
from nullrec.cli import emit_report
from nullrec.simulate import n_steps_for

GOLDEN = Path(__file__).parent / "golden"

# the smoke sizes of test_harness.py, plus a rate run with gated replications,
# a tail run that reaches its quantile and an rlt run on the fourier basis
# (whole-line moments through its F)
CONFIGS = {
    "identity": dict(kind="identity", theta1=0.1, theta2=(-0.3,), horizons=(20,),
                     dt=1e-2, replications=10, master_seed=5),
    # 300 replications, so that a last-bit change in the per-replication
    # algebra is likely to move a row maximum; three directions, sigma != 1
    "identity_fourier": dict(kind="identity", basis="fourier-1", sigma=1.3,
                             theta2=(0.2, -0.1), horizons=(2, 4), dt=1e-2,
                             replications=300, master_seed=19),
    "rate": dict(kind="rate", theta1=0.0, theta2=(0.3,), horizons=(30, 60),
                 dt=1e-2, replications=40, master_seed=7, window=(-2.0, 2.0),
                 limit_draws=400),
    # one Euler step never gives an invertible J: every row of horizon 1 is gated
    "rate_gated": dict(kind="rate", horizons=(1, 50), dt=1.0, replications=20,
                       window=(-2.0, 2.0), limit_draws=400),
    "tail": dict(kind="tail", theta1=0.0, theta2=(0.0,), horizons=(400,),
                 dt=1e-2, replications=8, master_seed=11, target_cycles=40,
                 max_waves=4),
    # enough cycles in one wave to read the quantile: the tail_quantile_t,
    # tail_constant and tail_constant_theory rows
    "tail_quantile": dict(kind="tail", theta1=0.0, theta2=(0.0,), horizons=(100000,),
                          dt=0.1, replications=16, target_cycles=500, max_waves=1,
                          master_seed=3),
    "rlt": dict(kind="rlt", theta1=0.0, theta2=(0.5,), horizons=(200,), dt=1e-2,
                replications=6, master_seed=13),
    "rlt_fourier": dict(kind="rlt", basis="fourier-1", theta1=0.0, theta2=(0.3, 0.2),
                        horizons=(200,), dt=1e-2, replications=6, master_seed=13),
    "risk": dict(kind="risk", theta1=0.0, theta2=(0.3,), horizons=(50,), dt=1e-2,
                 replications=12, master_seed=17, window=(-2.0, 2.0),
                 bound_draws=4000),
}


def _emit(name: str, base: Path) -> Path:
    report = run_experiment(ExperimentConfig(**CONFIGS[name]))
    emit_report(report, str(base / name))
    return base / f"{name}.csv"


# the compiled Euler step, and the numpy step it falls back to, which must
# give the same bytes (the compiled cases keep the plain config ids)
@pytest.mark.parametrize("name, step", [
    *(pytest.param(name, "compiled", id=name) for name in sorted(CONFIGS)),
    *(pytest.param(name, "numpy", id=f"{name}-numpy") for name in sorted(CONFIGS)),
])
def test_report_matches_golden(name, step, tmp_path, monkeypatch):
    if step == "numpy":
        for module in (simulate, harness):
            monkeypatch.setattr(module, "_c_step_for", lambda spec: None)
    got = _emit(name, tmp_path).read_bytes()
    assert got == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_ensemble_passes_through_run_ensemble(name, monkeypatch):
    # The benchmark counts lane-steps by rebinding harness.run_ensemble and
    # binding each call's arguments by name: it must see every ensemble.
    real = harness.run_ensemble
    signature = inspect.signature(real)
    calls = []

    def recorder(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_ensemble", recorder)
    cfg = ExperimentConfig(**CONFIGS[name])
    report = run_experiment(cfg)
    last = float(cfg.horizons[-1])
    if cfg.kind == "rate":
        horizons = [float(h) for h in cfg.horizons]
    elif cfg.kind == "tail":
        # waves of fresh lanes until enough cycles complete or waves run out
        waves = len(calls)
        assert 1 <= waves <= cfg.max_waves
        assert [c["rep_offset"] & 0xFFFFFFFF for c in calls] == [
            w * cfg.replications for w in range(waves)]
        assert (waves == cfg.max_waves
                or report.find("completed_cycles")[0].value >= cfg.target_cycles)
        horizons = [last] * waves
    elif cfg.kind == "risk":
        shifts = 1 + 4 * (1 + len(cfg.theta2))
        horizons = [last] * (shifts - int(report.find("dropped_h_points")[0].value))
    else:
        horizons = [last]
    assert sorted(c["horizon"] for c in calls) == horizons
    assert (sum(c["replications"] * n_steps_for(c["horizon"], c["dt"]) for c in calls)
            == sum(cfg.replications * n_steps_for(h, cfg.dt) for h in horizons))


if __name__ == "__main__":
    for name in CONFIGS:
        csv_path = _emit(name, GOLDEN)
        csv_path.with_suffix(".json").unlink()
        print(f"wrote {csv_path}")
