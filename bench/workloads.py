"""The benchmark's workloads: scaled-down experiment configs and their settings.

Each workload is one ``nullrec.harness.ExperimentConfig`` (as keyword
arguments, the seed filled in from ``--seed``) plus the worker count it runs
with and the lanes its output checks re-simulate.  Why each one is here is in
bench/README.md.
"""

from __future__ import annotations

# Lanes re-simulated by the output checks, and the horizon they run to.
CHECK_LANES = 3
CHECK_HORIZON = 100.0

# Philox stream contexts of the experiments (lane k of context c has key
# (seed, c << 32 | k)); the re-simulation checks rebuild these streams.
CTX_IDENTITY = 1
CTX_RATE = 16
CTX_TAIL = 200
CTX_RLT = 300

WORKLOADS = {
    "rate": {
        "threads": 2,
        "ctx": CTX_RATE,
        "config": dict(kind="rate", sigma=1.0, basis="sinc", theta1=0.0,
                       theta2=(0.3,), window=(-2.0, 2.0), horizons=(50, 200),
                       dt=1e-2, replications=400, limit_draws=2000),
    },
    "tail": {
        "threads": 1,
        "ctx": CTX_TAIL,
        # one wave, so the simulated lane-steps do not depend on the seed
        "config": dict(kind="tail", sigma=1.0, basis="sinc", theta1=0.0,
                       theta2=(0.0,), horizons=(1000,), dt=1e-3,
                       replications=48, target_cycles=200, hill_frac=0.45,
                       block_steps=8192, max_waves=1),
    },
    "identity": {
        "threads": 1,
        "ctx": CTX_IDENTITY,
        "config": dict(kind="identity", sigma=1.0, basis="sinc", theta1=0.1,
                       theta2=(-0.3,), horizons=(5, 10), dt=1e-2,
                       replications=2000),
    },
    "rlt": {
        "threads": 1,
        "ctx": CTX_RLT,
        "config": dict(kind="rlt", sigma=1.0, basis="sinc", theta1=0.0,
                       theta2=(0.5,), horizons=(1000,), dt=1e-2,
                       replications=50),
    },
}
