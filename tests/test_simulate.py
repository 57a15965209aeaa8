import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from nullrec import (
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
from nullrec import simulate
from nullrec.basis import principal_f1, sinc
from nullrec.simulate import EnsembleResult, lane_rng, n_steps_for, n_threads


def test_zero_horizon_path(spec_sinc, theta_sinc):
    p = simulate_path(spec_sinc, theta_sinc, 0.0, 0.01, 3)
    np.testing.assert_array_equal(p.values, [0.0])


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
    # sinc's step form gives NaN at these x0, so the first tile of every run
    # is rerun with the guarded sinc; in 1-step and 7-step blocks (and so
    # tiles) and in one 300-step block, the paths are a plain Euler loop over
    # basis.sinc bit for bit, the NaN raises no warning, and (y, J) are those
    # of the stored paths (bit for bit in one block, which sums in the same
    # order)
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
    # the state, and sinc of inf is NaN; the guarded rerun of the tile warns
    # about it as the step always has, and the block's end raises
    spec = ModelSpec.from_names(1e154, "sinc", 1.7e308)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in sin"):
        with pytest.raises(SimulationDivergedError):
            run_ensemble(spec, ParamVector(0.0, (0.5,)), 1e308, 1e306, 3, 4,
                         want_stats=False, threads=1)


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
    # with stats the step writes psi into tile rows that go to the kept block
    # buffers, without stats into reused vectors; paths, crossings and final
    # states agree bit for bit
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
# end, in the middle of a block and inside the partial last block
_CK_STEPS = (50, 346, 432, 950)
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


@pytest.mark.parametrize("basis, theta", [("sinc", ParamVector(0.1, (-0.3,))),
                                          ("fourier-2", ParamVector(0.1, THETA2["fourier-2"]))])
def test_tile_width_does_not_change_results(monkeypatch, basis, theta):
    # the Euler step runs in tiles of _STATS_CHUNK // (arrays * lanes) steps,
    # with one tile array for the state and one per nonzero drift term: 1-step
    # and 7-step tiles (7 does not divide the 977-step blocks) against the
    # default, one tile per block; the checkpoint at step 1234 falls inside a
    # 7-step tile and a default one
    spec = ModelSpec.from_names(1.0, basis)
    lanes = 3
    arrays = 1 + sum(c != 0.0 for c in (theta.theta1,) + theta.theta2)
    kwargs = dict(window=(-1.0, 1.5), checkpoint_times=(12.34,), want_cycles=True,
                  threshold=0.5, store_path=True, block_steps=977, threads=1)
    default = run_ensemble(spec, theta, 30.0, 1e-2, 41, lanes, **kwargs)
    assert sum(r.size for r in default.r_times) > 0
    for steps in (1, 7):
        monkeypatch.setattr(simulate, "_STATS_CHUNK", steps * arrays * lanes)
        tiled = run_ensemble(spec, theta, 30.0, 1e-2, 41, lanes, **kwargs)
        for f in fields(EnsembleResult):
            _assert_same_bits(getattr(tiled, f.name), getattr(default, f.name))


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


def test_stats_peak_allocation_is_the_block_buffers(spec_sinc, theta_sinc):
    # 50 lanes in one 40000-step block with stats and a window: beyond the
    # block buffers (z, which the path overwrites, and one kept psi array for
    # the one drift term), the step's tiles and the (y, J) accumulation's
    # lane-chunk temporaries may only hold about _STATS_CHUNK elements each
    lanes, steps = 50, 40_000
    buffers = 2 * lanes * steps * 8
    tracemalloc.start()
    try:
        run_ensemble(spec_sinc, theta_sinc, steps * 1e-2, 1e-2, 3, lanes,
                     window=(-2.0, 2.0), block_steps=steps, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= buffers + (8 << 20)


def test_stats_off_peak_allocation_is_z(spec_sinc):
    # the same block without stats, two drift terms: each step's psi values
    # go to (L,) scratch vectors and its state over its noise, so only z is
    # block-sized
    lanes, steps = 50, 40_000
    buffers = lanes * steps * 8
    tracemalloc.start()
    try:
        run_ensemble(spec_sinc, ParamVector(0.1, (0.3,)), steps * 1e-2, 1e-2, 3, lanes,
                     want_stats=False, block_steps=steps, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= buffers + (8 << 20)
