import collections
import dataclasses
import functools
import multiprocessing
import os
import shutil
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields

import hypothesis
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest

from nullrec import (
    DegenerateWindowError,
    DiffusionPath,
    ModelSpec,
    ParameterDomainError,
    ParamVector,
    SimulationDivergedError,
    SufficientStats,
    accumulate_stats,
    eval_drift,
    ks_statistic,
    run_ensemble,
    scale_inverse,
    score_at,
    simulate_path,
)
from nullrec import cstep, make_basis, simulate
from nullrec.basis import principal_f1, sinc
from nullrec.model import _psi_funcs
from nullrec.simulate import EnsembleResult, _psis_with_out, lane_rng, n_steps_for, n_threads


def test_zero_horizon_path(spec_sinc, theta_sinc):
    p = simulate_path(spec_sinc, theta_sinc, 0.0, 0.01, 3)
    np.testing.assert_array_equal(p.values, [0.0])


@pytest.mark.parametrize("theta", [ParamVector(0.0, (0.3,)), ParamVector(0.3, (0.0,)),
                                   ParamVector(0.0, (0.0,))], ids=["basis", "f1", "driftless"])
def test_zero_horizon_starts_at_x0(theta):
    spec = ModelSpec.from_names(1.0, "sinc", x0=1.5)
    np.testing.assert_array_equal(simulate_path(spec, theta, 0.0, 0.01, 3).values, [1.5])
    res = run_ensemble(spec, theta, 0.0, 0.01, 3, 4, want_cycles=True, store_path=True)
    np.testing.assert_array_equal(res.paths, np.full((4, 1), 1.5))
    np.testing.assert_array_equal(res.final_x, np.full(4, 1.5))
    np.testing.assert_array_equal(res.y, np.zeros((4, 2)))


def test_path_length_and_start(spec_sinc, theta_sinc):
    p = simulate_path(spec_sinc, theta_sinc, 50.0, 1e-2, 11)
    assert len(p.values) == n_steps_for(50.0, 1e-2) + 1 == 5001
    assert p.values[0] == spec_sinc.x0


def test_driftless_increments_are_scaled_noise(spec_plain, theta_zero):
    dt, horizon, seed = 1e-2, 5.0, 21
    p = simulate_path(spec_plain, theta_zero, horizon, dt, seed)
    z = lane_rng(seed, 0).standard_normal(len(p.values) - 1)
    np.testing.assert_allclose(np.diff(p.values), np.sqrt(dt) * z, atol=1e-9)


def test_fixed_seed_bit_identical(spec_sinc, theta_sinc):
    a = simulate_path(spec_sinc, theta_sinc, 5.0, 1e-2, 5)
    b = simulate_path(spec_sinc, theta_sinc, 5.0, 1e-2, 5)
    np.testing.assert_array_equal(a.values, b.values)


def test_theta_outside_domain_rejected(spec_plain):
    with pytest.raises(ParameterDomainError):
        simulate_path(spec_plain, ParamVector(0.6), 1.0, 0.01, 1)


# ---------------------------------------------------------------- stats

def test_stats_single_point(spec_sinc):
    p = DiffusionPath(dt=0.01, values=np.array([0.3]))
    st = accumulate_stats(spec_sinc, p)
    np.testing.assert_array_equal(st.y, np.zeros(2))
    np.testing.assert_array_equal(st.j, np.zeros((2, 2)))
    assert st.t == 0.0


def test_stats_two_point_plain(spec_plain):
    h = 0.7
    p = DiffusionPath(dt=0.01, values=np.array([0.0, h]))
    st = accumulate_stats(spec_plain, p)
    assert st.y[0] == 0.0  # f1(0) = 0
    assert st.j[0, 0] == 0.0


def test_stats_two_point_sinc(spec_sinc):
    h, dt = 0.7, 0.01
    p = DiffusionPath(dt=dt, values=np.array([0.0, h]))
    st = accumulate_stats(spec_sinc, p)
    assert st.y[1] == pytest.approx(h)    # sinc(0) = 1
    assert st.j[1, 1] == pytest.approx(dt)


def test_window_whole_line_bit_identical(spec_sinc, theta_sinc):
    p = simulate_path(spec_sinc, theta_sinc, 20.0, 1e-2, 9)
    plain = accumulate_stats(spec_sinc, p)
    capped = accumulate_stats(spec_sinc, p, window=(-np.inf, np.inf))
    np.testing.assert_array_equal(plain.y, capped.y)
    np.testing.assert_array_equal(plain.j, capped.j)


@pytest.mark.parametrize("window, error", [
    ((2.0, -2.0), DegenerateWindowError),
    ((1.0, 1.0), DegenerateWindowError),
    ((np.nan, 2.0), ValueError),
    ((-2.0, np.nan), ValueError),
])
def test_bad_window_rejected(spec_sinc, theta_sinc, window, error):
    p = simulate_path(spec_sinc, theta_sinc, 1.0, 1e-2, 9)
    with pytest.raises(error, match="window"):
        accumulate_stats(spec_sinc, p, window=window)
    with pytest.raises(error, match="window"):
        run_ensemble(spec_sinc, theta_sinc, 1.0, 1e-2, 9, 2, window=window)


def test_score_examples():
    st = SufficientStats(y=np.array([1.0, 0.0]), j=np.eye(2), t=1.0)
    np.testing.assert_array_equal(score_at(st, np.zeros(2)), st.y)
    np.testing.assert_allclose(score_at(st, np.array([0.5, 0.0])), [0.5, 0.0])
    with pytest.raises(ValueError):
        score_at(st, np.zeros(3))


def test_quadratic_expansion_identity(spec_sinc, theta_sinc):
    # (t'-t)'s(t) - 1/2 (t'-t)'J(t'-t) == [t'y - t'Jt'/2] - [ty - tJt/2]
    p = simulate_path(spec_sinc, theta_sinc, 10.0, 1e-2, 13)
    st = accumulate_stats(spec_sinc, p)
    rng = np.random.default_rng(0)
    for _ in range(25):
        t_a = rng.normal(size=2)
        t_b = rng.normal(size=2)
        d = t_b - t_a
        lhs = d @ score_at(st, t_a) - 0.5 * d @ st.j @ d
        pot = lambda v: v @ st.y - 0.5 * v @ st.j @ v
        assert lhs == pytest.approx(pot(t_b) - pot(t_a), abs=1e-11)


def test_stats_match_ensemble(spec_sinc, theta_sinc):
    horizon, dt, seed = 30.0, 1e-2, 17
    res = run_ensemble(spec_sinc, theta_sinc, horizon, dt, seed, 3,
                       window=(-1.0, 1.5))
    for lane in range(3):
        # lane k of the ensemble uses stream (seed, k); re-simulate lane by lane
        res1 = run_ensemble(spec_sinc, theta_sinc, horizon, dt, seed, 1,
                            rep_offset=lane, store_path=True)
        st = accumulate_stats(spec_sinc,
                              DiffusionPath(dt=dt, values=res1.paths[0]),
                              window=None)
        np.testing.assert_allclose(res.y[lane], st.y, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(res.j[lane], st.j, rtol=1e-9, atol=1e-12)


# theta2 per basis; fourier-2 has a zero coefficient between nonzero ones,
# which pins the slot of each kept psi column and the order of the drift sum
THETA2 = {"none": (), "sinc": (0.3,), "fourier-1": (0.3, -0.2),
          "fourier-2": (0.2, 0.0, -0.1, 0.3)}


@pytest.mark.parametrize("theta1, basis", [
    (t1, b) for t1 in (0.0, 0.2) for b in ("fourier-1", "none", "sinc")
] + [(0.1, "fourier-2")])
def test_kernel_stats_equal_accumulate_stats(basis, theta1):
    # one lane in one block: the kernel's psi values, taken at each Euler step,
    # must give the same bits as evaluating the stored path in one call
    spec = ModelSpec.from_names(1.3, basis, 0.4)
    theta = ParamVector(theta1, THETA2[basis])
    horizon, dt, window = 40.0, 1e-2, (-1.0, 2.0)
    res = run_ensemble(spec, theta, horizon, dt, 9, 1, window=window,
                       store_path=True, block_steps=n_steps_for(horizon, dt), threads=1)
    path = DiffusionPath(dt=dt, values=res.paths[0])
    for got_y, got_j, win in ((res.y, res.j, None), (res.y_win, res.j_win, window)):
        st = accumulate_stats(spec, path, window=win)
        assert np.array_equal(got_y[0], st.y)
        assert np.array_equal(got_j[0], st.j)


@pytest.mark.parametrize("theta1, basis", [
    (t1, b) for t1 in (-0.15, 0.0) for b in ("fourier-1", "sinc", "none", "fourier-2")
] + [(0.1, "fourier-2")])
def test_kernel_step_uses_eval_drift(basis, theta1):
    # 500 steps in 97-step blocks on 3 lanes: the stored paths are the
    # recursion x + b(x) dt + sigma sqrt(dt) z over each lane's draws, bit for
    # bit.  Without drift (basis none, theta1 = 0) the kernel takes a
    # cumulative sum of each block's noise and adds the state before the
    # block last, which rounds in another order.
    sigma, x0, dt, seed, lanes, steps = 1.3, 0.7, 1e-2, 23, 3, 500
    theta = ParamVector(theta1, THETA2[basis])
    spec = ModelSpec.from_names(sigma, basis, x0)
    res = run_ensemble(spec, theta, steps * dt, dt, seed, lanes, store_path=True,
                       block_steps=97, threads=1)
    z = np.array([lane_rng(seed, lane).standard_normal(steps) for lane in range(lanes)])
    want = np.empty((lanes, steps + 1))
    want[:, 0] = x = np.full(lanes, x0)
    for k in range(steps):
        x = x + eval_drift(spec, theta, x) * dt + sigma * np.sqrt(dt) * z[:, k]
        want[:, k + 1] = x
    if basis == "none" and theta1 == 0.0:
        np.testing.assert_allclose(res.paths, want, rtol=0, atol=1e-12)
    else:
        assert res.paths.tobytes() == want.tobytes()


@pytest.mark.parametrize("block_steps", [1, 7, None])
@pytest.mark.parametrize("x0", [0.0, -0.0, 5e-324])
@pytest.mark.parametrize("theta1, theta2", [(0.0, 0.5), (0.1, 0.3)])
def test_kernel_from_sinc_zero_equals_plain_loop(x0, block_steps, theta1, theta2):
    # at these x0 y = pi * (x / pi) is 0, where sinc puts eps in its place
    # (at 5e-324 x / pi underflows, so the compiled step hands its first tile
    # to the numpy step); in 1-step and 7-step blocks and in one 300-step
    # block, the paths are a plain Euler loop over basis.sinc bit for bit, no
    # warning is raised, and (y, J) are those of the stored paths (bit for bit
    # in one block, which sums in the same order)
    sigma, dt, seed, lanes, steps = 1.0, 1e-2, 29, 3, 300
    spec = ModelSpec.from_names(sigma, "sinc", x0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_ensemble(spec, ParamVector(theta1, (theta2,)), steps * dt, dt, seed,
                           lanes, store_path=True, block_steps=block_steps, threads=1)
    z = np.array([lane_rng(seed, lane).standard_normal(steps) for lane in range(lanes)])
    want = np.empty((lanes, steps + 1))
    want[:, 0] = x = np.full(lanes, x0)
    for k in range(steps):
        drift = theta2 * sinc(x)
        if theta1:
            drift = theta1 * principal_f1(x) + drift
        x = x + drift * dt + sigma * np.sqrt(dt) * z[:, k]
        want[:, k + 1] = x
    assert res.paths.tobytes() == want.tobytes()
    for lane in range(lanes):
        st = accumulate_stats(spec, DiffusionPath(dt=dt, values=res.paths[lane]))
        if block_steps is None:
            assert np.array_equal(res.y[lane], st.y) and np.array_equal(res.j[lane], st.j)
        else:
            np.testing.assert_allclose(res.y[lane], st.y, rtol=1e-12)
            np.testing.assert_allclose(res.j[lane], st.j, rtol=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_diverging_run_raises():
    # from near the largest float, noise of sigma sqrt(dt) = 1e307 overflows
    # the state, and sinc of inf is NaN; the numpy step that reruns the tile
    # warns about it as the step always has, and the block's end raises
    spec = ModelSpec.from_names(1e154, "sinc", 1.7e308)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in sin"):
        with pytest.raises(SimulationDivergedError):
            run_ensemble(spec, ParamVector(0.0, (0.5,)), 1e308, 1e306, 3, 4,
                         want_stats=False, threads=1)


def _warnings_of(call):
    """call()'s result, and how often it issued each warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, collections.Counter(str(w.message) for w in caught)


def test_diverging_tile_warns_once():
    # the compiled step shows no warning, and the numpy step that reruns its
    # flagged tile shows each once: every step where a lane overflows warns
    # about the add once, and the next step about sin(inf) once
    spec = ModelSpec.from_names(1e154, "sinc", 1.7e308)

    def run():
        with pytest.raises(SimulationDivergedError):
            run_ensemble(spec, ParamVector(0.0, (0.5,)), 1e308, 1e306, 3, 4,
                         want_stats=False, threads=1)

    _, seen = _warnings_of(run)
    assert set(seen) == {"overflow encountered in add", "invalid value encountered in sin"}
    assert seen["overflow encountered in add"] == seen["invalid value encountered in sin"] >= 1


def test_overflow_with_finite_state_warns_once_per_step():
    # above 1.3e154 principal_f1's x*x overflows while f1 and the state stay
    # finite; the compiled step hands the tile to the numpy step, which warns
    # once a step
    spec = ModelSpec.from_names(1.0, "none", 1e155)
    steps, lanes = 5, 3
    res, seen = _warnings_of(lambda: run_ensemble(spec, ParamVector(0.1), steps * 1e-2,
                                                  1e-2, 3, lanes, threads=1))
    assert seen == {"overflow encountered in multiply": steps}
    assert np.isfinite(res.final_x).all() and np.isfinite(res.y).all()


@pytest.mark.parametrize("seed, lane", [(2**64 - 1, 0), (-1, 5), (2**70 + 2**63 + 9, 2**64 + 3),
                                        (2**63, (300 << 32) | 49), (12, (16 << 32) | 399)])
def test_lane_rng_is_philox_keyed_by_seed_and_lane(seed, lane):
    # masked seeds >= 2^63 and lanes ctx << 32 | k: the same state and draws
    # as Philox(key=...)
    key = np.array([seed % 2**64, lane % 2**64], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key))
    got = lane_rng(seed, lane)
    np.testing.assert_equal(got.bit_generator.state, want.bit_generator.state)
    for draw in (lambda g: g.standard_normal(1001), lambda g: g.random(3),
                 lambda g: g.integers(0, 1 << 40, 5)):
        assert draw(got).tobytes() == draw(want).tobytes()


def test_stats_off_path_equals_stats_on(spec_sinc):
    # with stats the step writes sinc's psi values into the kept block buffer
    # (the numpy step through tile rows) and f1's nowhere (the numpy step into
    # a reused vector), without stats neither (both into reused vectors);
    # paths, crossings and final states agree bit for bit
    th = ParamVector(0.1, (-0.3,))
    kwargs = dict(want_cycles=True, threshold=0.5, store_path=True, block_steps=977)
    on = run_ensemble(spec_sinc, th, 30.0, 1e-2, 43, 3, **kwargs)
    off = run_ensemble(spec_sinc, th, 30.0, 1e-2, 43, 3, want_stats=False, **kwargs)
    assert off.y is None and on.y is not None
    assert on.paths.tobytes() == off.paths.tobytes()
    assert on.final_x.tobytes() == off.final_x.tobytes()
    assert sum(r.size for r in on.r_times) > 0
    for got, want in zip(off.r_times, on.r_times):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- cycles

def _grid_crossings(vals, threshold, dt):
    """The kernel's crossing scan on a hand-made path; grid index k -> k*dt."""
    inner = vals[1:]
    hits, _ = simulate._scan_crossings(inner > threshold, inner < 0.0, 0)
    return (np.array(hits, dtype=float) + 1.0) * dt


def test_no_cycles_below_threshold():
    vals = np.array([0.0, 0.5, 0.9, 0.2, -0.5, 0.9])
    assert _grid_crossings(vals, 1.0, 1.0).size == 0


def test_sawtooth_single_duration():
    # up over 1, down below 0, up over 1 again, down below 0: two R's, one cycle
    vals = np.array([0.0, 1.2, 0.4, -0.1, 0.6, 1.5, 0.2, -0.3, 0.1])
    r_times = _grid_crossings(vals, 1.0, 0.5)
    np.testing.assert_allclose(r_times, [1.5, 3.5])
    np.testing.assert_allclose(np.diff(r_times), [2.0])


def _crossing_times(path, threshold, dt):
    """Alternating scan, one grid point at a time: above threshold, then below zero."""
    times = []
    above = False
    for k in range(1, len(path)):
        if not above:
            above = path[k] > threshold
        elif path[k] < 0.0:
            above = False
            times.append(k * dt)
    return np.array(times)


def test_cycles_match_streaming(spec_plain, theta_zero):
    horizon, dt, seed = 500.0, 1e-2, 23
    res = run_ensemble(spec_plain, theta_zero, horizon, dt, seed, 2,
                       want_stats=False, want_cycles=True, block_steps=977)
    threshold = scale_inverse(spec_plain, theta_zero, 1.0)
    assert sum(r.size for r in res.r_times) > 0
    for lane in range(2):
        single = run_ensemble(spec_plain, theta_zero, horizon, dt, seed, 1,
                              rep_offset=lane, want_stats=False, store_path=True)
        want = _crossing_times(single.paths[0], threshold, dt)
        assert np.array_equal(res.r_times[lane], want)


def test_information_rarely_singular(spec_sinc, theta_sinc):
    res = run_ensemble(spec_sinc, theta_sinc, 10.0, 1e-2, 101, 100)
    n_sing = 0
    for lane in range(100):
        eig = np.linalg.eigvalsh(res.j[lane])
        if eig[0] <= 1e-10 * np.trace(res.j[lane]) / 2:
            n_sing += 1
    assert n_sing < 1  # < 1% of 100


def test_cycle_durations_exchangeable(spec_plain, theta_zero):
    # first-half vs second-half KS below the 5% critical value, most seeds
    rejections = 0
    trials = 6
    for seed in range(trials):
        res = run_ensemble(spec_plain, theta_zero, 4000.0, 1e-2, 3000 + seed, 1,
                           want_stats=False, want_cycles=True)
        d = np.concatenate([np.diff(r) for r in res.r_times if r.size >= 2])
        if d.size < 8:
            continue
        half = d.size // 2
        ks = ks_statistic(d[:half], d[half:])
        crit = 1.358 * np.sqrt(d.size / (half * (d.size - half)))
        if ks > crit:
            rejections += 1
    assert rejections <= max(1, trials // 3)


def test_per_cycle_occupation_identity(spec_plain, theta_zero):
    # E of int f1^2(X_s) ds over one life cycle equals twice the
    # invariant-measure integral, 2 * (pi/2) = pi
    from nullrec.basis import principal_f1

    dt = 1e-2
    res = run_ensemble(spec_plain, theta_zero, 3000.0, dt, 97, 12,
                       want_stats=False, want_cycles=True, store_path=True)
    vals = []
    for lane in range(12):
        r_idx = np.round(res.r_times[lane] / dt).astype(int)
        p = res.paths[lane]
        for a, b in zip(r_idx[:-1], r_idx[1:]):
            vals.append(np.sum(principal_f1(p[a:b]) ** 2) * dt)
    vals = np.array(vals)
    assert len(vals) > 100
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - np.pi) <= 3 * se


@pytest.mark.parametrize("basis", ["sinc", "fourier-1"])
def test_ensemble_threads_equivalent(basis):
    # the basis partials cross the process boundary with the spec
    # every field is asked for; the checkpoint at step 237 falls inside the
    # second 200-step block, and threshold 0.5 gives crossings by t = 5
    spec = ModelSpec.from_names(1.0, basis)
    theta = ParamVector(0.0, (0.3, 0.2)[:spec.m])
    kwargs = dict(window=(-1.0, 1.5), checkpoint_times=(2.37,), want_cycles=True,
                  threshold=0.5, store_path=True, block_steps=200)
    serial = run_ensemble(spec, theta, 5.0, 1e-2, 31, 4, threads=1, **kwargs)
    split = run_ensemble(spec, theta, 5.0, 1e-2, 31, 4, threads=2, **kwargs)
    for key in ("y", "j", "y_win", "j_win", "paths", "final_x"):
        got, want = getattr(split, key), getattr(serial, key)
        assert got is not None and got.shape[0] == 4
        np.testing.assert_array_equal(got, want)
    assert serial.checkpoints.keys() == split.checkpoints.keys() == {2.37}
    for got, want in zip(split.checkpoints[2.37], serial.checkpoints[2.37]):
        assert got.shape[0] == 4
        np.testing.assert_array_equal(got, want)
    assert len(split.r_times) == len(serial.r_times) == 4
    assert sum(r.size for r in serial.r_times) > 0
    for got, want in zip(split.r_times, serial.r_times):
        np.testing.assert_array_equal(got, want)


def test_checkpoint_j_symmetric(spec_sinc):
    th = ParamVector(0.1, (-0.3,))
    res = run_ensemble(spec_sinc, th, 5.0, 0.01, 1, 3, window=(-1.0, 1.0),
                       checkpoint_times=(2.5, 5.0))
    for _, j in res.checkpoints.values():
        np.testing.assert_array_equal(j, np.transpose(j, (0, 2, 1)))
    np.testing.assert_array_equal(res.checkpoints[5.0][1], res.j)
    stored = accumulate_stats(spec_sinc, simulate_path(spec_sinc, th, 5.0, 0.01, 1),
                              window=(-1.0, 1.0))
    for j in (res.j, res.j_win, stored.j):
        assert np.array_equal(j, j.swapaxes(-1, -2))


# 173-step blocks end at steps 173, 346, ..., 865 and leave a partial last
# block of 135 steps; the checkpoints fall inside the first block, at a block
# end, in the middle of a block, inside the partial last block and at the
# run's end, the last step of the partial block
_CK_STEPS = (50, 346, 432, 950, 1000)
_CK_CASES = [("sinc", 0.0), ("sinc", 0.1), ("fourier-1", 0.0), ("none", 0.0)]


def _ck_run(basis, theta1, horizon, threads, checkpoint_times=()):
    spec = ModelSpec.from_names(1.0, basis)
    theta = ParamVector(theta1, (0.3, -0.2)[:spec.m])
    return run_ensemble(spec, theta, horizon, 1e-2, 5, 7, window=(-1.0, 1.5),
                        checkpoint_times=checkpoint_times, block_steps=173,
                        threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("basis, theta1", _CK_CASES)
def test_checkpoint_equals_run_to_t(basis, theta1, threads):
    # basis "none" is the driftless path (cumulative sum, no step loop)
    times = tuple(n * 1e-2 for n in _CK_STEPS)
    res = _ck_run(basis, theta1, 10.0, threads, times)
    assert list(res.checkpoints) == list(times)
    for t in times:
        to_t = _ck_run(basis, theta1, t, threads)
        y, j = res.checkpoints[t]
        assert np.array_equal(y, to_t.y) and np.array_equal(j, to_t.j)


@pytest.mark.parametrize("basis, theta1", _CK_CASES)
def test_checkpoints_do_not_change_terminal_stats(basis, theta1):
    plain = _ck_run(basis, theta1, 10.0, 1)
    checked = _ck_run(basis, theta1, 10.0, 1, tuple(n * 1e-2 for n in _CK_STEPS))
    for key in ("y", "j", "y_win", "j_win", "final_x"):
        assert np.array_equal(getattr(checked, key), getattr(plain, key))


@pytest.mark.parametrize("t", [0.0, 0.005, 10.5, np.nan])
def test_checkpoint_outside_dt_to_horizon_rejected(spec_sinc, theta_sinc, t):
    with pytest.raises(ValueError, match="checkpoint time"):
        run_ensemble(spec_sinc, theta_sinc, 10.0, 1e-2, 1, 2, checkpoint_times=(t,))


def test_checkpoints_without_stats_rejected(spec_sinc, theta_sinc):
    with pytest.raises(ValueError, match="checkpoint_times.*want_stats"):
        run_ensemble(spec_sinc, theta_sinc, 10.0, 1e-2, 1, 2, want_stats=False,
                     checkpoint_times=(5.0,))


def test_n_threads_unset_means_one(monkeypatch):
    monkeypatch.delenv("NULLREC_THREADS", raising=False)
    assert n_threads() == 1
    monkeypatch.setenv("NULLREC_THREADS", "3")
    assert n_threads() == 3


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5"])
def test_n_threads_rejects_malformed(monkeypatch, raw):
    monkeypatch.setenv("NULLREC_THREADS", raw)
    with pytest.raises(ValueError, match=repr(raw)):
        n_threads()


def test_worker_pool_forks_on_entry_and_is_shared(monkeypatch, spec_sinc, theta_sinc):
    monkeypatch.setenv("NULLREC_THREADS", "2")
    serial = run_ensemble(spec_sinc, theta_sinc, 2.0, 1e-2, 3, 5, threads=1)
    with simulate._worker_pool(1) as none:
        assert none is None and multiprocessing.active_children() == []
    with simulate._worker_pool(n_threads()) as pool:
        forked = {p.pid for p in multiprocessing.active_children()}
        assert len(forked) == n_threads()
        for _ in range(2):
            res = run_ensemble(spec_sinc, theta_sinc, 2.0, 1e-2, 3, 5)
            assert {p.pid for p in multiprocessing.active_children()} == forked
            assert res.y.tobytes() == serial.y.tobytes()
            assert res.j.tobytes() == serial.j.tobytes()
        with simulate._worker_pool(1) as inner:
            assert inner is pool
    assert multiprocessing.active_children() == []


def test_worker_pool_that_fails_to_fork_is_not_kept(monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    def no_fork(self, fn, *args):
        raise OSError("fork failed")

    monkeypatch.setattr(ProcessPoolExecutor, "submit", no_fork)
    with pytest.raises(OSError, match="fork failed"):
        with simulate._worker_pool(2):
            pass
    assert simulate._pool is None and simulate._pool_users == 0
    monkeypatch.undo()
    with simulate._worker_pool(2) as pool:
        assert pool.submit(int, 3).result() == 3
    assert simulate._pool is None and multiprocessing.active_children() == []


def test_worker_pool_scopes_from_many_threads(spec_sinc, theta_sinc):
    # more threads than cores share and release the main thread's pool at
    # once, with a short switch interval; a lost update of the share count
    # would shut the pool down under a thread still mapping onto it, or leave
    # it open.  The pool forks before any thread starts.
    want = run_ensemble(spec_sinc, theta_sinc, 1.0, 1e-2, 7, 4, threads=1).y.tobytes()
    errors, threads = [], []

    def work():
        try:
            for _ in range(3):
                with simulate._worker_pool(2):
                    got = run_ensemble(spec_sinc, theta_sinc, 1.0, 1e-2, 7, 4, threads=2)
                    assert got.y.tobytes() == want
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with simulate._worker_pool(2) as pool:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert simulate._pool is pool and simulate._pool_users == 1
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert simulate._pool is None and simulate._pool_users == 0
    assert multiprocessing.active_children() == []


def test_block_size_does_not_change_results(spec_sinc):
    # 977-step blocks leave a partial last block and put the checkpoint mid-block
    th = ParamVector(0.1, (-0.3,))
    kwargs = dict(window=(-1.0, 1.5), want_cycles=True, threshold=0.5,
                  checkpoint_times=(12.34,))
    base = run_ensemble(spec_sinc, th, 30.0, 1e-2, 41, 3, **kwargs)
    small = run_ensemble(spec_sinc, th, 30.0, 1e-2, 41, 3, block_steps=977, **kwargs)
    np.testing.assert_array_equal(small.final_x, base.final_x)
    for key in ("y", "j", "y_win", "j_win"):
        np.testing.assert_allclose(getattr(small, key), getattr(base, key), rtol=1e-12)
    assert small.checkpoints.keys() == base.checkpoints.keys() == {12.34}
    for got, want in zip(small.checkpoints[12.34], base.checkpoints[12.34]):
        np.testing.assert_allclose(got, want, rtol=1e-12)
    assert sum(r.size for r in base.r_times) > 0
    for got, want in zip(small.r_times, base.r_times):
        np.testing.assert_array_equal(got, want)


def _assert_same_bits(got, want):
    """got and want alike, bit for bit, through lists, tuples and dicts."""
    if isinstance(want, dict):  # checkpoints: t -> (y, j)
        assert got.keys() == want.keys()
        got, want = [got[t] for t in want], list(want.values())
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)
    elif want is None:
        assert got is None
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _require_c_step(spec):
    """Skip unless the compiled step runs for spec's basis on this host."""
    if simulate._c_step_for(spec) is None:
        pytest.skip("the compiled Euler step does not run on this host")


def _numpy_step_only(monkeypatch):
    monkeypatch.setattr(simulate, "_c_step_for", lambda spec: None)


@pytest.mark.parametrize("basis, theta", [("sinc", ParamVector(0.1, (-0.3,))),
                                          ("fourier-2", ParamVector(0.1, THETA2["fourier-2"]))])
def test_tile_width_does_not_change_results(monkeypatch, basis, theta):
    # the compiled step runs in tiles of _STATS_CHUNK // lanes steps, the
    # numpy step in tiles of _STATS_CHUNK // (arrays * lanes), with one tile
    # array for the state and one per nonzero basis term: 1-step and 7-step
    # numpy tiles (7 does not divide the 977-step blocks), and compiled tiles
    # of 1 * arrays and 7 * arrays steps, against the default, one tile per
    # block; the checkpoint at step 1234 falls inside a 7-step tile and a
    # default one
    spec = ModelSpec.from_names(1.0, basis)
    lanes = 3
    arrays = 1 + sum(c != 0.0 for c in theta.theta2)
    kwargs = dict(window=(-1.0, 1.5), checkpoint_times=(12.34,), want_cycles=True,
                  threshold=0.5, store_path=True, block_steps=977, threads=1)
    default = run_ensemble(spec, theta, 30.0, 1e-2, 41, lanes, **kwargs)
    assert sum(r.size for r in default.r_times) > 0
    for numpy_step in (False, True):
        if numpy_step:
            _numpy_step_only(monkeypatch)
        for steps in (1, 7):
            monkeypatch.setattr(simulate, "_STATS_CHUNK", steps * arrays * lanes)
            tiled = run_ensemble(spec, theta, 30.0, 1e-2, 41, lanes, **kwargs)
            for f in fields(EnsembleResult):
                _assert_same_bits(getattr(tiled, f.name), getattr(default, f.name))


@pytest.mark.parametrize("theta", [ParamVector(0.0, (0.3,)), ParamVector(0.1, (0.0,)),
                                   ParamVector(0.1, (-0.3,))])
def test_wrapped_psis_change_no_byte(monkeypatch, theta):
    # principal_f1 and sinc rebound to counting wrappers that take x alone,
    # as bench/tracing.py does: the Euler step and the stats pass call the
    # functions beneath them with out, so the wrappers count nothing and
    # every result keeps its bytes
    kwargs = dict(window=(-1.0, 1.5), checkpoint_times=(3.21,), want_cycles=True,
                  threshold=0.5, store_path=True, block_steps=173, threads=1)
    want = run_ensemble(ModelSpec.from_names(1.0, "sinc"), theta, 10.0, 1e-2, 17, 3, **kwargs)
    calls = collections.Counter()

    def counting(fn):
        @functools.wraps(fn)
        def wrapper(x):
            calls[fn.__name__] += 1
            return fn(x)
        return wrapper

    monkeypatch.setattr("nullrec.basis.sinc", counting(sinc))
    monkeypatch.setattr("nullrec.model.principal_f1", counting(principal_f1))
    spec = ModelSpec.from_names(1.0, "sinc")
    assert [f.__wrapped__ for f in _psi_funcs(spec)] == [principal_f1, sinc]
    got = run_ensemble(spec, theta, 10.0, 1e-2, 17, 3, **kwargs)
    assert not calls
    assert sum(r.size for r in want.r_times) > 0 and want.checkpoints
    for f in fields(EnsembleResult):
        _assert_same_bits(getattr(got, f.name), getattr(want, f.name))


@pytest.mark.parametrize("basis", ["none", "sinc", "fourier-2"])
def test_psis_wrapped_everywhere_keep_the_compiled_step(monkeypatch, basis):
    # a tracer rebinds principal_f1 and sinc in every nullrec module, cstep's
    # names included: the kernel is still chosen from the psis beneath them
    spec = ModelSpec.from_names(1.0, basis)
    want = cstep.term_kinds(_psis_with_out(spec))
    assert want is not None
    for name, module in list(sys.modules.items()):
        if name.startswith("nullrec."):
            for attr, value in list(vars(module).items()):
                if value is sinc or value is principal_f1:
                    monkeypatch.setattr(module, attr, functools.wraps(value)(
                        lambda x, _f=value: _f(x)))
    assert cstep.sinc is not sinc and cstep.principal_f1 is not principal_f1
    assert cstep.term_kinds(_psis_with_out(ModelSpec.from_names(1.0, basis))) == want


@pytest.mark.parametrize("name, horizon, dt", [("horizon", np.inf, 0.01),
                                                ("horizon", np.nan, 0.01),
                                                ("dt", 1.0, np.nan),
                                                ("dt", 1.0, np.inf)])
def test_non_finite_horizon_or_dt_rejected(spec_plain, theta_zero, name, horizon, dt):
    with pytest.raises(ValueError, match=name):
        run_ensemble(spec_plain, theta_zero, horizon, dt, 1, 1)


@pytest.mark.parametrize("name, value", [("block_steps", 0), ("block_steps", -5),
                                         ("threads", 0), ("threads", -4)])
def test_block_steps_and_threads_must_be_positive(spec_sinc, theta_sinc, name, value):
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        run_ensemble(spec_sinc, theta_sinc, 1.0, 1e-2, 1, 3, **{name: value})


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("basis, theta1", [("sinc", 0.0), ("sinc", 0.1),
                                           ("fourier-1", 0.0)])
def test_lane_chunks_do_not_change_results(monkeypatch, basis, theta1, threads):
    # one lane per chunk against the whole block in one chunk; 173-step blocks
    # put the checkpoint mid-block and leave a partial last block
    spec = ModelSpec.from_names(1.0, basis)
    theta = ParamVector(theta1, (0.3, -0.2)[:spec.m])

    def run(chunk):
        monkeypatch.setattr(simulate, "_STATS_CHUNK", chunk)
        return run_ensemble(spec, theta, 10.0, 1e-2, 5, 7, window=(-1.0, 1.5),
                            checkpoint_times=(4.321,), block_steps=173,
                            threads=threads)

    per_lane, whole = run(1), run(1 << 30)
    for key in ("y", "j", "y_win", "j_win"):
        assert np.array_equal(getattr(per_lane, key), getattr(whole, key))
    assert per_lane.checkpoints.keys() == whole.checkpoints.keys() == {4.32}
    for got, want in zip(per_lane.checkpoints[4.32], whole.checkpoints[4.32]):
        assert np.array_equal(got, want)


def _stats_one_target(psis, path, kept, window, y, jj):
    """One target's sums over all of path's steps, with products of masked psi values."""
    lanes, b = path.shape[0], path.shape[1] - 1
    p = len(psis)
    rows = max(1, simulate._STATS_CHUNK // b)
    for lo in range(0, lanes, rows):
        r = slice(lo, lo + rows)
        xl = path[r, :-1].copy()
        dx = path[r, 1:] - xl
        ev = [kept[i][r] if i in kept else f(xl) for i, f in enumerate(psis)]
        if window is not None:
            mask = (xl >= window[0]) & (xl <= window[1])
            ev = [e * mask for e in ev]
        for i in range(p):
            y[r, i] += (ev[i] * dx).sum(axis=1)
            for l in range(i, p):
                s = (ev[i] * ev[l]).sum(axis=1)
                jj[r, i, l] += s
                if l != i:
                    jj[r, l, i] += s


def _stats_per_target(psis, path, kept, targets):
    """The oracle of _add_stats: a pass per target, a checkpoint's over the
    block's prefix."""
    for window, steps, y, jj in targets:
        cut = path.shape[1] - 1 if steps is None else steps
        _stats_one_target(psis, path[:, :cut + 1], {i: v[:, :cut] for i, v in kept.items()},
                          window, y, jj)


@pytest.mark.parametrize("chunk", [1, 1 << 15])
@pytest.mark.parametrize("basis, kept_slots", [("sinc", ()), ("sinc", (1,)),
                                               ("fourier-1", (2,)), ("fourier-1", (0, 1))])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_add_stats_equals_a_pass_per_target(monkeypatch, seed, basis, kept_slots, chunk):
    # the one pass gives the bytes (-0 included) of a pass per target over
    # random paths with exact zeros, lanes wholly outside the window, and
    # checkpoints at steps 1, 7 and b - 1, into accumulators that hold -0;
    # hiding the evaluated slots' floating-point errors changes no byte
    monkeypatch.setattr(simulate, "_STATS_CHUNK", chunk)
    rng = np.random.default_rng(seed)
    psis = _psi_funcs(ModelSpec.from_names(1.0, basis))
    p, lanes, b, window = len(psis), 6, 40, (-1.0, 1.5)
    path = rng.standard_normal((lanes, b + 1))
    path[:, 1:] *= 0.3
    np.cumsum(path, axis=1, out=path)
    path[0, 0] = -0.0
    path[1, 1::5] = 0.0
    path[2, 4::4] = -0.0
    # lane 4 falls from 20 to 12, wholly outside the window
    path[4] = 20.0 - 0.2 * np.arange(b + 1)
    kept = {i: psis[i](path[:, :-1]) for i in kept_slots}

    def accumulators():
        y, jj = rng.standard_normal((lanes, p)), rng.standard_normal((lanes, p, p))
        y[::2] = -0.0
        jj[::2] = -0.0
        jj[:] = jj + jj.swapaxes(1, 2)
        return y, jj

    targets = [(None, None, *accumulators()), (window, None, *accumulators())]
    targets += [(w, steps, *accumulators()) for steps in (1, 7, b - 1) for w in (None, window)]
    want = [(w, steps, y.copy(), jj.copy()) for w, steps, y, jj in targets]
    hushed = [(w, steps, y.copy(), jj.copy()) for w, steps, y, jj in targets]
    simulate._add_stats(psis, path, kept, targets)
    simulate._add_stats(psis, path, kept, hushed, quiet=tuple(set(range(p)) - set(kept)))
    _stats_per_target(psis, path, kept, want)
    for (*_, y, jj), (*_, y_quiet, jj_quiet), (*_, y_want, jj_want) in zip(targets, hushed, want):
        assert y.tobytes() == y_quiet.tobytes() == y_want.tobytes()
        assert jj.tobytes() == jj_quiet.tobytes() == jj_want.tobytes()
    # lane 4's windowed sums started at -0 and added zeros
    assert not targets[1][2][4].any() and not targets[1][3][4].any()


@pytest.mark.parametrize("theta, kwargs, arrays", [
    pytest.param((0.0, 0.3), dict(window=(-2.0, 2.0)), 2, id="stats"),
    # theta1 != 0: f1 is evaluated again in the stats pass, not kept
    pytest.param((0.1, 0.3), dict(window=(-2.0, 2.0)), 2, id="no-f1-block"),
    # each step's psi values go to (L,) scratch vectors
    pytest.param((0.1, 0.3), dict(want_stats=False), 1, id="stats-off"),
    # each block is a view of paths, and no psi is kept
    pytest.param((0.1, 0.0), dict(window=(-2.0, 2.0), store_path=True), 1, id="store-path"),
    # blocks of the default width: each block array holds about 2^18 float64
    pytest.param((0.0, 0.5), dict(block_steps=None), 2, id="default-block"),
])
def test_peak_allocation_is_the_block_arrays(spec_sinc, theta, kwargs, arrays):
    # 50 lanes, 40000 steps, in one block unless kwargs say otherwise: beyond
    # the block-sized arrays (z, which the path overwrites, or paths; with
    # stats, one kept psi array per basis drift term), the step's tiles and
    # the (y, J) pass's buffers may only hold about _STATS_CHUNK elements each
    lanes, steps = 50, 40_000
    kwargs = {"block_steps": steps, **kwargs}
    block = kwargs["block_steps"] or simulate._default_block(lanes)
    tracemalloc.start()
    try:
        run_ensemble(spec_sinc, ParamVector(theta[0], theta[1:]), steps * 1e-2, 1e-2, 3,
                     lanes, threads=1, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= arrays * lanes * (block + 1) * 8 + (8 << 20)
    if kwargs["block_steps"] is None:
        assert lanes * block <= 1 << 18
        # 2000 lanes of 1000 steps (bench identity) still run as one block
        assert simulate._default_block(2000) >= 1000


@pytest.mark.parametrize("threads, store_path", [(1, False), (1, True), (2, False)])
@pytest.mark.parametrize("basis", ["none", "sinc", "fourier-1", "fourier-2"])
@pytest.mark.parametrize("theta1", [0.0, 0.15])
def test_c_step_equals_numpy_step(monkeypatch, basis, theta1, threads, store_path):
    # every field of the compiled step, byte for byte, against the guarded
    # numpy step, from x0 = 0 (sinc's guarded point): 3000 steps in 977-step
    # blocks leave a partial last block of 69 steps, whose row stride is not
    # its width, and the checkpoint at step 1234 falls inside the second block.
    # 19 lanes make a full group of 8 and a partial one in each of two chunks.
    spec = ModelSpec.from_names(1.0, basis)
    theta = ParamVector(theta1, THETA2[basis])
    _require_c_step(spec)
    kwargs = dict(window=(-1.0, 1.5), checkpoint_times=(12.34,), want_cycles=True,
                  threshold=0.5, store_path=store_path, block_steps=977, threads=threads)
    compiled = run_ensemble(spec, theta, 30.0, 1e-2, 43, 19, **kwargs)
    _numpy_step_only(monkeypatch)
    numpy_step = run_ensemble(spec, theta, 30.0, 1e-2, 43, 19, **kwargs)
    assert sum(r.size for r in numpy_step.r_times) > 0 and numpy_step.checkpoints
    for f in fields(EnsembleResult):
        _assert_same_bits(getattr(compiled, f.name), getattr(numpy_step, f.name))


def test_flagged_tile_reruns_on_numpy_from_its_start(monkeypatch):
    # from 1.3e154 with noise of 1e152 a step, lanes pass 1.34e154, where
    # principal_f1's x*x overflows while the state stays finite.  In 5-step
    # tiles the compiled step hands the first block back at a later tile, and
    # the numpy step runs it from that tile on: the same bytes and the same
    # warnings, once a step, as the numpy step from the start
    spec = ModelSpec.from_names(1e153, "none", 1.3e154)
    _require_c_step(spec)
    monkeypatch.setattr(simulate, "_STATS_CHUNK", 3 * 5)
    done = []
    c_call = cstep.Step.__call__
    monkeypatch.setattr(cstep.Step, "__call__",
                        lambda self, blk, steps, *args: done.append(
                            (c_call(self, blk, steps, *args), steps)) or done[-1][0])

    def run():
        return run_ensemble(spec, ParamVector(0.1), 2.0, 1e-2, 4, 3, block_steps=100,
                            threads=1)

    compiled, seen = _warnings_of(run)
    assert done[0] == (25, 100)
    _numpy_step_only(monkeypatch)
    numpy_step, numpy_seen = _warnings_of(run)
    assert seen == numpy_seen and seen["overflow encountered in multiply"] > 0
    for f in fields(EnsembleResult):
        _assert_same_bits(getattr(compiled, f.name), getattr(numpy_step, f.name))


@hypothesis.given(hnp.arrays(np.float64, st.integers(1, 40),
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_c_step_sinc_bits_equal_sinc(x):
    # the psi the compiled step keeps is sinc(x), bit for bit, at the x where
    # y = pi * (x / pi) is 0 (+-0 and +-5e-324) as well as off them
    x = np.concatenate([x, [0.0, -0.0, 5e-324, -5e-324]])
    spec = ModelSpec.from_names(1.0, "sinc")
    _require_c_step(spec)
    kept = np.full((1, x.size, 1), np.nan)
    step = simulate._c_step_for(spec)(((1, 0.5),), kept, [1], 1)
    blk = np.zeros((x.size, 2))
    blk[:, 0] = x
    step(blk, 1, 1.0, 1e-2)
    assert kept[0, :, 0].tobytes() == sinc(x).tobytes()


def test_c_step_rejects_buffers_that_do_not_fit():
    # each misfit is caught before a pointer reaches the C code
    spec = ModelSpec.from_names(1.0, "sinc")
    _require_c_step(spec)
    make = simulate._c_step_for(spec)
    terms, lanes, steps = ((0, 0.1), (1, 0.3)), 4, 10
    for kept, tile in ((np.empty((2, lanes, steps)), steps), (np.empty((1, lanes, steps)), 0),
                       (np.empty((1, lanes, 2 * steps))[:, :, ::2], steps),
                       (np.empty((1, lanes, steps), dtype=np.float32), steps)):
        with pytest.raises(ValueError):
            make(terms, kept, [1], tile)
    step = make(terms, np.empty((1, lanes, steps)), [1], steps)
    for blk in (np.zeros((lanes, steps)), np.zeros((lanes + 1, steps + 1)),
                np.zeros((lanes, 2 * steps + 2))[:, ::2],
                np.zeros((lanes, steps + 1), dtype=np.float32)):
        with pytest.raises(ValueError):
            step(blk, steps, 1.0, 1e-2)
    assert step(np.zeros((lanes, steps + 1)), steps, 1.0, 1e-2) == steps


def _no_compiler(monkeypatch, tmp_path):
    monkeypatch.setattr(cstep, "CC", str(tmp_path / "no-cc"))
    return ModelSpec.from_names(1.0, "sinc")


def _kinds_not_of_the_psis(monkeypatch, tmp_path):
    # the library steps f1 for every psi, which the self-check must catch
    monkeypatch.setattr(cstep, "term_kinds", lambda psis: ((0, 0.0),) * len(psis))
    return ModelSpec.from_names(1.0, "sinc")


def _basis_not_built_in(monkeypatch, tmp_path):
    # sinc under a partial: the same bits, but not a psi cstep knows
    return ModelSpec(1.0, dataclasses.replace(make_basis("sinc"), name="sinc-copy",
                                              funcs=(functools.partial(sinc),)))


@pytest.mark.parametrize("force, reason", [
    (_no_compiler, "no C compiler works"),
    (_kinds_not_of_the_psis, "bits differ from numpy's on basis 'sinc'"),
    (_basis_not_built_in, "basis 'sinc-copy' is not built in"),
])
def test_fallback_warns_once_and_keeps_the_bytes(monkeypatch, tmp_path, force, reason):
    # force(...) returns the spec to run after it forces the numpy step on a
    # process that has loaded no compiled step and warned of no fallback, with
    # an empty cache: the reason is warned of once, and the numpy step gives
    # the compiled step's bytes
    theta = ParamVector(0.1, (-0.3,))
    kwargs = dict(window=(-1.0, 1.5), checkpoint_times=(3.21,), store_path=True,
                  block_steps=173, threads=1)
    sinc_spec = ModelSpec.from_names(1.0, "sinc")
    _require_c_step(sinc_spec)
    want = run_ensemble(sinc_spec, theta, 10.0, 1e-2, 17, 3, **kwargs)
    monkeypatch.setattr(simulate, "_c_steps", {})
    monkeypatch.setattr(simulate, "_fallback_warned", set())
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    spec = force(monkeypatch, tmp_path)
    runs, seen = _warnings_of(
        lambda: [run_ensemble(spec, theta, 10.0, 1e-2, 17, 3, **kwargs) for _ in range(2)])
    assert list(seen.values()) == [1]
    assert reason in next(iter(seen)) and "runs on numpy" in next(iter(seen))
    for got in runs:
        for f in fields(EnsembleResult):
            _assert_same_bits(getattr(got, f.name), getattr(want, f.name))


def test_concurrent_builds_leave_one_library(monkeypatch, tmp_path):
    # four threads, more than the cores, build into one empty cache at once:
    # each loads a library that passes the self-check, and no temporary file
    # is left behind
    if shutil.which(cstep.CC) is None:
        pytest.skip(f"no {cstep.CC} on this host")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    start = threading.Barrier(4, timeout=60)
    loaded = []

    def build():
        start.wait()
        loaded.append(cstep.load())

    threads = [threading.Thread(target=build) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(loaded) == 4
    (name,) = os.listdir(tmp_path / "nullrec")
    assert name.startswith("cstep-") and name.endswith(".so")
    psis = _psi_funcs(ModelSpec.from_names(1.0, "fourier-1"))
    for fn in loaded:
        make = functools.partial(cstep.Step, fn, cstep.term_kinds(psis))
        assert simulate._self_check(make, psis, "fourier-1") is make


def test_unwritable_cache_builds_in_a_private_directory(monkeypatch, tmp_path):
    # a cache path under a file cannot be made, even by root
    if shutil.which(cstep.CC) is None:
        pytest.skip(f"no {cstep.CC} on this host")
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    monkeypatch.setattr(cstep, "_private", [])
    cstep.load()
    (private,) = cstep._private
    assert [n.endswith(".so") for n in os.listdir(private.name)] == [True]
