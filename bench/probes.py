"""Probes: public calls timed at a workload's own shape, outside the timed run.

Each probe runs ``run_ensemble`` (one process, the workload's lanes, dt,
parameter and block size) with one feature switched on or off, and reports
the difference per lane-step.  Every figure is the median of a few repeats.
"""

from __future__ import annotations

import statistics
import time

from nullrec import basis, limits, model, simulate

REPEATS = 3
PROBE_CTX = 900
# Lane-steps per probe call: the drift path costs ~0.2-0.5 us per lane-step,
# the driftless path ~0.04 us, so both take a few tenths of a second.
LANE_STEPS = {True: 500_000, False: 4_000_000}


def _median_time(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(config) -> dict:
    spec, theta = config.model_spec(), config.theta()
    lanes, dt = config.replications, config.dt
    # the block size run_ensemble picks itself when the config sets none
    block = config.block_steps or simulate._default_block(lanes)
    drift = theta.theta1 != 0.0 or any(c != 0.0 for c in theta.theta2)
    steps = max(1, LANE_STEPS[drift] // lanes)
    lane_steps = lanes * steps
    window = config.window or (-2.0, 2.0)
    threshold = model.scale_inverse(spec, theta, 1.0)

    def ensemble(**kwargs):
        return _median_time(lambda: simulate.run_ensemble(
            spec, theta, steps * dt, dt, config.master_seed, lanes,
            rep_offset=PROBE_CTX << 32, block_steps=block, threads=1, **kwargs))

    base = ensemble(want_stats=False)
    stats = ensemble(want_stats=True)
    windowed = ensemble(want_stats=True, window=window)
    cycles = ensemble(want_stats=False, want_cycles=True, threshold=threshold)

    rng = limits.rng_stream(config.master_seed, PROBE_CTX)
    n_blocks = max(1, LANE_STEPS[False] // block)
    philox = _median_time(lambda: [rng.standard_normal(block) for _ in range(n_blocks)])

    x = 3.0 * rng.standard_normal((lanes, max(1, min(block, 2_000_000 // lanes))))
    sinc = _median_time(lambda: basis.sinc(x), 5)
    f1 = _median_time(lambda: basis.principal_f1(x), 5)

    per = 1e9 / lane_steps
    return {
        "simulate.step_ns_per_lane_step": base * per,
        "simulate.stats_ns_per_lane_step": (stats - base) * per,
        "simulate.window_ns_per_lane_step": (windowed - stats) * per,
        "simulate.crossing_ns_per_lane_step": (cycles - base) * per,
        "simulate.philox_ns_per_draw": 1e9 * philox / (n_blocks * block),
        "basis.sinc_ns_per_eval": 1e9 * sinc / x.size,
        "basis.f1_ns_per_eval": 1e9 * f1 / x.size,
    }
