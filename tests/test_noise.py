"""The compiled Philox normals and driftless block against numpy's.

cstep.c draws each lane's normals with the bits of lane_rng(seed, lane)
.standard_normal and leaves its stream where numpy would; the driftless block
(draws, cumulative sum and crossing scan in one call) gives the bytes of the
numpy path.  Both fall back to numpy, with one warning per reason, where they
cannot run or their self-check fails.
"""

from dataclasses import fields

import numpy as np
import pytest

from nullrec import ModelSpec, ParamVector, SimulationDivergedError, cstep, run_ensemble, simulate
from nullrec.simulate import EnsembleResult, _philox_row, lane_rng
from test_simulate import _assert_same_bits, _warnings_of

MASK64 = (1 << 64) - 1
# numpy's ziggurat: a draw of |x| >= R came from its tail branch
R = 3.6541528853610088


def _noise():
    """The checked compiled normals, or a skip where they do not run here."""
    lib = simulate._c_noise()
    if lib is None:
        pytest.skip("the compiled normals do not run on this host")
    return lib


def _assert_same(streams, rngs, sizes):
    """Each call of sizes gives rngs' bytes, and leaves each stream at its rng's state."""
    drawn = []
    for n in sizes:
        got = np.empty((len(rngs), n))
        streams.fill(got)
        for lane, (rng, row, state) in enumerate(zip(rngs, got, streams.state)):
            assert rng.standard_normal(n).tobytes() == row.tobytes(), (lane, n)
            np.testing.assert_array_equal(state, _philox_row(rng))
        drawn.append(got)
    return np.concatenate(drawn, axis=1)


@pytest.mark.parametrize("seed", [MASK64, 7])
def test_c_normals_equal_lane_rng(seed):
    # lanes of a context (ctx << 32 | k), as the experiments key them, and the
    # largest keys; every call size in turn on the same streams
    lib = _noise()
    lanes = [0, 1, 900 << 32 | 3, 900 << 32 | 4, MASK64]
    streams = cstep.Streams(lib, seed, lanes)
    drawn = _assert_same(streams, [lane_rng(seed, lane) for lane in lanes],
                         (0, 1, 3, 4, 5, 8192, 1 << 17))
    # 690k draws: numpy's tail branch ran (only it gives |x| >= R)
    assert (np.abs(drawn) >= R).sum() > 10


def test_c_normals_carry_through_the_counter():
    # a stream at counter 2^64 - 3 carries into the counter's second word
    # within a few blocks, and at 2^128 - 2 into its third
    lib = _noise()
    counters = [2**64 - 3, 2**128 - 2]
    rngs = [np.random.Generator(np.random.Philox(counter=c, key=[11, 2**63 + 5]))
            for c in counters]
    streams = cstep.Streams(lib, 0, range(len(rngs)))
    streams.state[...] = [_philox_row(rng) for rng in rngs]
    _assert_same(streams, rngs, (1, 3, 4, 5, 7, 64, 1000))
    assert streams.state[0, 3] == 1 and streams.state[1, 4] == 1


# words that numpy's ziggurat sends off its fast path: level 0 with the
# largest rabs (the tail), and levels 1-255 with it (their wedges)
_RARE = [(0xfffffffffffff << 9) | (sign << 8) | idx for idx in (0, 1, 2, 17, 128, 255)
         for sign in (0, 1)]


@pytest.mark.parametrize("word", _RARE, ids=hex)
def test_c_normals_take_numpy_rare_branches(word):
    # the stream's buffer is set so that its next word is `word`: the draw
    # runs numpy's tail or wedge code on it, and on the words after it
    lib = _noise()
    rng = np.random.Generator(np.random.Philox(key=[3, 4]))
    state = rng.bit_generator.state
    state["buffer"] = np.array([word, 1 << 63, 12345 << 11, MASK64], dtype=np.uint64)
    state["buffer_pos"] = 0
    rng.bit_generator.state = state
    streams = cstep.Streams(lib, 0, [0])
    streams.state[0] = _philox_row(rng)
    drawn = _assert_same(streams, [rng], (1, 1, 3, 100))
    if word & 0xff == 0:
        assert abs(drawn[0, 0]) >= R


def test_streams_reject_buffers_that_do_not_fit():
    # each misfit is caught before a pointer reaches the C code
    streams = cstep.Streams(_noise(), 1, range(3))
    for out in (np.empty((2, 5)), np.empty((3, 10))[:, ::2], np.empty((3, 5), np.float32),
                np.empty(15)):
        with pytest.raises(ValueError):
            streams.fill(out)
    blk = np.zeros((3, 6))
    mode, hits, nhits = np.zeros(3, np.int32), np.empty((3, 3), np.int32), np.empty(3, np.int64)
    for scan_blk, scan in ((np.zeros((3, 5)), None), (blk, (0.5, mode, hits[:, :2], nhits)),
                           (blk, (0.5, mode.astype(np.int64), hits, nhits)),
                           (blk, (0.5, mode[:2], hits, nhits)),
                           (blk, (0.5, mode, hits, nhits.astype(np.int32)))):
        with pytest.raises(ValueError):
            streams.driftless(scan_blk, 5, 1.0, scan)
    assert streams.driftless(blk, 5, 1.0, (0.5, mode, hits, nhits))


def _numpy_only(monkeypatch):
    """Run the numpy draws and the numpy step, as the -numpy golden cases do."""
    monkeypatch.setattr(simulate, "_compiled", lambda: None)


def _assert_same_fields(got, want):
    for f in fields(EnsembleResult):
        _assert_same_bits(getattr(got, f.name), getattr(want, f.name))


@pytest.mark.parametrize("block, lanes, horizon", [(1, 8, 20.0), (7, 96, 200.0),
                                                   (977, 96, 200.0), (8192, 96, 200.0)])
def test_driftless_block_equals_numpy_path(monkeypatch, block, lanes, horizon):
    # up to 20000 steps of up to 96 lanes from 0 with a low threshold, so
    # that cycles are many (the 1-step blocks run fewer, as each block costs
    # a Python loop over the lanes): the compiled block's paths, crossings, final states and
    # (y, J) against the numpy draws and numpy path, byte for byte.  Cycles
    # that start in one block and close in a later one carry the scan's mode
    # across blocks; at this seed crossings also fall on the first and the
    # last step of a 7- and a 977-step block (of a 1-step block, every one)
    _noise()
    spec = ModelSpec.from_names(1.0, "sinc")
    kwargs = dict(want_cycles=True, threshold=0.02, store_path=True, window=(-1.0, 0.5),
                  checkpoint_times=(12.34,), block_steps=block, threads=1)
    theta = ParamVector(0.0, (0.0,))
    compiled = run_ensemble(spec, theta, horizon, 1e-2, 4, lanes, **kwargs)
    _numpy_only(monkeypatch)
    numpy_path = run_ensemble(spec, theta, horizon, 1e-2, 4, lanes, **kwargs)
    _assert_same_fields(compiled, numpy_path)
    steps = np.concatenate([np.rint(r / 1e-2).astype(int) - 1 for r in compiled.r_times])
    assert steps.size >= 5 * lanes
    if block in (7, 977):
        assert (steps % block == 0).any() and (steps % block == block - 1).any()


def test_flagged_driftless_block_reruns_on_numpy(monkeypatch):
    # sigma sqrt(dt) = 1e-160 * 1e-150 is subnormal, so the draws it scales
    # raise the underflow flag: each block runs again on numpy from the
    # streams and modes it started with, which numpy's default errstate keeps
    # quiet about, and gives the numpy path's bytes
    _noise()
    spec = ModelSpec.from_names(1e-160, "sinc")
    dt = 1e-300
    kwargs = dict(want_stats=False, want_cycles=True, threshold=1e-315, store_path=True,
                  block_steps=50, threads=1)
    theta = ParamVector(0.0, (0.0,))
    compiled, seen = _warnings_of(lambda: run_ensemble(spec, theta, 300 * dt, dt, 8, 3,
                                                       **kwargs))
    assert not seen
    _numpy_only(monkeypatch)
    _assert_same_fields(compiled, run_ensemble(spec, theta, 300 * dt, dt, 8, 3, **kwargs))
    assert sum(r.size for r in compiled.r_times) > 0


def test_overflowing_driftless_block_warns_as_numpy(monkeypatch):
    # sigma sqrt(dt) = 1.3e154 * 1e153: the sums overflow within 100 steps,
    # numpy runs the block again and shows its warnings, and the block's end
    # raises
    _noise()
    spec = ModelSpec.from_names(1.3e154, "sinc")

    def run():
        with pytest.raises(SimulationDivergedError):
            run_ensemble(spec, ParamVector(0.0, (0.0,)), 1e308, 1e306, 3, 8,
                         want_stats=False, threads=1)

    _, seen = _warnings_of(run)
    _numpy_only(monkeypatch)
    _, numpy_seen = _warnings_of(run)
    assert seen == numpy_seen and any("overflow" in w for w in seen)


def _no_npyrandom(monkeypatch):
    monkeypatch.setattr(cstep, "_npyrandom", lambda: None)


def _mutant(old, new):
    def force(monkeypatch):
        source = cstep._source()
        assert old in source
        monkeypatch.setattr(cstep, "_source", lambda: source.replace(old, new))
    return force


@pytest.mark.parametrize("force, reason", [
    (_no_npyrandom, "ships no libnpyrandom.a"),
    (_mutant(b"    memcpy(wi, w, sizeof wi);", b"    return -1;"),
     "the probe of numpy's ziggurat tables failed"),
    # the sign taken from bit 9, and each level's width taken from the next
    (_mutant(b"bits ^= (r & 0x100) << 55;", b"bits ^= (r & 0x200) << 54;"),
     "the compiled normals' bits differ from numpy's"),
    (_mutant(b"double x = (double)rabs * wi[idx];",
             b"double x = (double)rabs * wi[(idx + 1) & 0xff];"),
     "the compiled normals' bits differ from numpy's"),
], ids=["no_npyrandom", "failed_probe", "sign_bit_9", "width_off_by_one"])
def test_noise_fallback_warns_once_and_keeps_the_bytes(monkeypatch, tmp_path, force, reason):
    # force(...) breaks the compiled normals of a process that has loaded no
    # library and warned of no fallback, with an empty cache: the numpy draws
    # run, the reason is warned of once, the drift step stays compiled, and
    # driftless and drift runs keep their bytes
    _noise()
    runs = [(ParamVector(0.0, (0.0,)), dict(want_cycles=True, threshold=0.5)),
            (ParamVector(0.1, (-0.3,)), dict(window=(-1.0, 1.5)))]
    spec = ModelSpec.from_names(1.0, "sinc")

    def run():
        return [run_ensemble(spec, theta, 10.0, 1e-2, 17, 3, store_path=True,
                             block_steps=173, threads=1, **kw) for theta, kw in runs]

    want = run()
    monkeypatch.setattr(simulate, "_c_steps", {})
    monkeypatch.setattr(simulate, "_fallback_warned", set())
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    force(monkeypatch)
    got, seen = _warnings_of(lambda: run() + run())
    assert list(seen.values()) == [1]
    assert reason in next(iter(seen)) and "Philox draws run on numpy" in next(iter(seen))
    assert simulate._c_step_for(spec) is not None
    for a, b in zip(got, want + want):
        _assert_same_fields(a, b)
