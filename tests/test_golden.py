"""Golden reports: small experiments of every kind re-emitted byte for byte.

A refactor that keeps the numbers keeps these CSVs identical; a change that
moves their last bits shows up here first.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py

A deliberate re-baseline regenerates the files in the same change and shows
their diff.
"""

from pathlib import Path

import pytest

from nullrec import ExperimentConfig, run_experiment
from nullrec.cli import emit_report

GOLDEN = Path(__file__).parent / "golden"

# the smoke sizes of test_harness.py, plus a rate run with gated replications
# and an rlt run on the fourier basis (whole-line moments through its F)
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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, tmp_path):
    got = _emit(name, tmp_path).read_bytes()
    assert got == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    for name in CONFIGS:
        csv_path = _emit(name, GOLDEN)
        csv_path.with_suffix(".json").unlink()
        print(f"wrote {csv_path}")
