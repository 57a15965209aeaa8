"""Path simulation and path functionals.

Euler scheme x_{k+1} = x_k + b(x_k) dt + sigma sqrt(dt) Z_k with counter-based
(Philox) noise keyed by (seed, replication), so replications are independent
streams and every result is reproducible regardless of execution order.  The
ensemble driver steps all replications in lock-step through time blocks and
accumulates the sufficient statistics

    y_i = sum_k psi_i(x_k) (x_{k+1} - x_k) / sigma^2      (left-point rule)
    j_il = sum_k psi_i(x_l) psi_l(x_k) dt / sigma^2

with psi = (f1, f_{2,1}, ..., f_{2,m}), optionally windowed by an indicator,
plus life-cycle crossing records, without retaining paths.  When the drift is
identically zero the per-step recursion collapses to a cumulative sum.
Otherwise each block runs through the compiled step of cstep.c, which has
the bits of the guarded numpy step, as far as it stays free of
floating-point errors; the numpy step runs the rest, and all of it where the
compiled step cannot run (see _DriftStep and _c_step_for).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import threading
import warnings
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import DegenerateWindowError, SimulationDivergedError
from .model import (ModelSpec, ParamVector, _drift_terms, _psi_funcs, require_valid_theta,
                    scale_inverse)

__all__ = [
    "DiffusionPath",
    "SufficientStats",
    "EnsembleResult",
    "simulate_path",
    "accumulate_stats",
    "score_at",
    "run_ensemble",
    "n_threads",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class DiffusionPath:
    dt: float
    values: np.ndarray


@dataclass
class SufficientStats:
    """Terminal (y, j) of a path, optionally windowed, plus context.

    y (p,) with j (p, p) holds one path; y (R, p) with j (R, p, p) stacks R
    paths that share t, window and x0.
    """

    y: np.ndarray
    j: np.ndarray
    t: float
    window: Optional[tuple] = None
    x0: float = 0.0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.j = np.asarray(self.j, dtype=float)
        if self.y.ndim not in (1, 2) or self.j.shape != self.y.shape + self.y.shape[-1:]:
            raise ValueError("j must be square and match y")


@dataclass
class EnsembleResult:
    """Per-replication accumulations from a lock-step ensemble run."""

    y: Optional[np.ndarray] = None            # (R, 1+m)
    j: Optional[np.ndarray] = None            # (R, 1+m, 1+m)
    y_win: Optional[np.ndarray] = None
    j_win: Optional[np.ndarray] = None
    r_times: Optional[list] = None            # list of (n_i,) arrays, seconds
    # k*dt -> (y, j) of the line at step k, bit-identical to a run to k*dt
    checkpoints: dict = field(default_factory=dict)
    paths: Optional[np.ndarray] = None        # (R, n_steps+1) when stored
    final_x: Optional[np.ndarray] = None


def n_steps_for(horizon: float, dt: float) -> int:
    return int(math.floor(horizon / dt + 1e-9))


class _PhiloxKey:
    """A fixed Philox key in the place of a seed sequence.

    Philox(key=...) first builds SeedSequence() from OS entropy and then
    throws it away; Philox(_PhiloxKey(key)) asks this for its key instead,
    which gives the same state at half the cost.  Philox asks once, and
    keeps this object for the stream's life, so the key is let go then.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        key, self.key = self.key, None  # two uint64 words
        return key


@functools.cache
def _register_philox_key():
    """Make _PhiloxKey an ISeedSequence, once.

    On first use, not at import: importing numpy.random with nullrec would
    add to every start.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PhiloxKey)


def lane_rng(seed: int, lane: int) -> np.random.Generator:
    _register_philox_key()
    key = np.array([seed & _MASK64, lane & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def n_threads() -> int:
    """Worker cap for replication-level parallelism (NULLREC_THREADS, >= 1).

    Unset means 1; anything but a positive integer raises ValueError.
    """
    raw = os.environ.get("NULLREC_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"NULLREC_THREADS={raw!r} is not a positive integer")
    return value


# the open worker pool, and how many _worker_pool scopes share it
_pool = None
_pool_users = 0
_pool_lock = threading.Lock()


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A process pool for the calls inside the scope, or None.

    With no pool open, a scope of two or more workers opens one and forks
    every worker on entry; a scope opened while a pool is open, in any
    thread, shares it.  The last scope that shares a pool shuts it down and
    joins its workers on exit.  With no pool open and fewer than two workers
    the scope yields None.

    Under the fork start method CPython forks all of a pool's workers at its
    first submit (gh-90622), so the no-op submitted on entry forks them
    before the caller starts any thread of its own.
    """
    global _pool, _pool_users
    with _pool_lock:
        if _pool is None and workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            opened = ProcessPoolExecutor(workers)
            try:
                opened.submit(int)  # returns 0; no one waits for it
            except BaseException:
                opened.shutdown()
                raise
            _pool = opened
        pool = _pool
        if pool is not None:
            _pool_users += 1
    try:
        yield pool
    finally:
        if pool is not None:
            with _pool_lock:
                _pool_users -= 1
                last = _pool_users == 0
                if last:
                    _pool = None
            if last:
                pool.shutdown()


# elements per array in a lane chunk of _add_stats, in all the tile buffers
# of the numpy Euler step together, and in the noise the compiled step saves
# over a tile (256 KiB of float64)
_STATS_CHUNK = 1 << 15


def _default_block(lanes: int) -> int:
    # lanes x steps at most 2^18 float64 (2 MiB, about an L2 cache), unless that
    # means blocks under 1024 steps, where the per-lane Philox call dominates
    return max(1024, min(65536, (1 << 18) // max(lanes, 1)))


def _check_window(window) -> None:
    """Reject a window with a NaN end or with a >= b; infinite ends are allowed."""
    if window is None:
        return
    a, b = map(float, window)
    if math.isnan(a) or math.isnan(b):
        raise ValueError(f"window [{a}, {b}] has a NaN end")
    if a >= b:
        raise DegenerateWindowError(f"window [{a}, {b}] has empty interior")


def _add_stats(psis, path, kept, targets, quiet=()):
    """Add one block's left-point sums to raw (y, jj) accumulators.

    path (L, b+1) holds the state before the block in column 0 and the state
    after each step in the others, so path[:, :-1] are the left points.  psis
    take out.  kept maps a psi slot to its values at the left points; the
    other slots are evaluated here, those in quiet with their floating-point
    errors hidden (the Euler step has shown them for these states).  Each
    (window, steps, y, jj) of targets gets the sums psi_i dx in y (L, p) and
    psi_i psi_l in jj (L, p, p) over the block's first `steps` steps (steps
    None: all of them), with a window only over steps that start inside it.
    Each off-diagonal sum is added to both of its entries, so jj stays
    symmetric bit for bit.

    Lanes go through in chunks of about _STATS_CHUNK elements per array, so
    that the buffers, made once per call, stay in cache.  Each product is
    formed once per chunk and every target sums it: a windowed target after a
    multiply by the window's 0/1 mask (for m in {0, 1} and a finite a*c,
    (a*m)*(c*m) and (a*c)*m are the same bits), a checkpoint's over the first
    `steps` columns.  Each lane still sums along its own row, so which lanes
    share a chunk cannot change a bit.
    """
    lanes, b = path.shape[0], path.shape[1] - 1
    p = len(psis)
    rows = max(1, _STATS_CHUNK // b)
    dx, prod, masked = np.empty((3, min(rows, lanes), b))
    sums = np.empty(min(rows, lanes))
    bufs = [None if i in kept else np.empty_like(dx) for i in range(p)]
    masks = [None if w is None else np.empty_like(dx) for w, *_ in targets]
    for lo in range(0, lanes, rows):
        r = slice(lo, lo + rows)
        n = min(rows, lanes - lo)
        xl = path[r, :-1]
        np.subtract(path[r, 1:], xl, out=dx[:n])
        evals = []
        for i, f in enumerate(psis):
            if i in kept:
                evals.append(kept[i][r])
            elif i in quiet:
                with np.errstate(all="ignore"):
                    evals.append(f(xl, out=bufs[i][:n]))
            else:
                evals.append(f(xl, out=bufs[i][:n]))
        pr, pr_masked, s = prod[:n], masked[:n], sums[:n]
        for (w, *_), mask in zip(targets, masks):
            if mask is not None:  # 1.0 where w[0] <= xl <= w[1], else 0.0
                np.greater_equal(xl, w[0], out=mask[:n])
                np.multiply(mask[:n], np.less_equal(xl, w[1], out=pr), out=mask[:n])
        for i in range(p):
            for l in [None, *range(i, p)]:  # None: psi_i dx, else psi_i psi_l
                np.multiply(evals[i], dx[:n] if l is None else evals[l], out=pr)
                for (_, steps, y, jj), mask in zip(targets, masks):
                    t = pr if mask is None else np.multiply(pr, mask[:n], out=pr_masked)
                    (t if steps is None else t[:, :steps]).sum(axis=1, out=s)
                    if l is None:
                        y[r, i] += s
                    else:
                        jj[r, i, l] += s
                        if l != i:
                            jj[r, l, i] += s


def _psis_with_out(spec: ModelSpec) -> tuple:
    """psi past any call-counting decorator that takes x alone, so out can be given."""
    return tuple(map(inspect.unwrap, _psi_funcs(spec)))


def _scaled_stats(y, jj, sigma: float, dt: float):
    """(y, J) from the raw sums, as new arrays."""
    return y * (1.0 / sigma**2), jj * (dt / sigma**2)


def _scan_crossings(up, dn, mode):
    """Alternating crossing scan over one lane's boolean rows of a block.

    Mode 0 awaits the next step where up is set (above the threshold), mode 1
    the next one where dn is set (below zero).  Returns the dn steps that
    close a cycle and the mode at the end, from which the scan of the next
    block continues.
    """
    hits = []
    pos = 0
    while pos < len(up):
        row = up if mode == 0 else dn
        pos += int(row[pos:].argmax())  # the first set step from pos, or pos
        if not row[pos]:
            break
        if mode == 1:
            hits.append(pos)
        mode = 1 - mode
        pos += 1
    return hits, mode


def _euler_tile(cur, steps, c_first, dt_arr, acc, scratch,
                multiply=np.multiply, add=np.add):
    """Euler steps from the state cur; steps[n] is (zk, calls, psi_first, later).

    zk holds step n's scaled noise and gets the state after the step.  calls
    are the (psi, out) pairs that put psi of each drift term at the state
    before the step into its out; psi_first is the first term's out, and
    later the (coefficient, out) pairs of the others.
    """
    for zk, calls, psi_first, later in steps:
        for f, v in calls:
            f(cur, v)
        # b(x_k) summed in model._drift_sum's order
        multiply(c_first, psi_first, acc)
        for c, v in later:
            add(acc, multiply(c, v, scratch), acc)
        # z_k + (b(x_k) dt + x_k) has the bits of x_k + b(x_k) dt + z_k
        multiply(acc, dt_arr, acc)
        add(acc, cur, acc)
        add(zk, acc, zk)
        cur = zk


# the self-check block of the compiled step: one lane from each of these
# states, over a wide range of magnitudes, for _CHECK_STEPS steps
_CHECK_X0 = (0.0, -0.0, 1e-150, -3e-9, 0.3, -0.7, 1.5, -2.5, 3.25, -6.5, 12.0, -25.0,
             50.5, -1e2, 7e2, -4e3, 2.5e4, -1e6, 3e8, -1e12, 1e16, -1e22, 1e50, -1e100)
_CHECK_STEPS = 48

# cstep's load (key None), then per basis, by the term_kinds of its psis, a
# maker of its checked cstep.Step; or, in their place, why there is none
_c_steps = {}
_c_steps_lock = threading.Lock()
_fallback_warned = set()  # the reasons the numpy step has run for


def _c_step_for(spec: ModelSpec):
    """A maker of the compiled Euler step for spec's basis, or None.

    At the first call in a process this builds (or finds in the cache) and
    loads the library; at the first call for a basis it runs the self-check.
    None means the guarded numpy step runs instead; the first None for each
    reason issues a RuntimeWarning that names it.
    """
    from . import cstep  # here, not at import: a run without drift never needs it

    psis = _psis_with_out(spec)
    kinds = cstep.term_kinds(psis)
    with _c_steps_lock:
        if kinds is None:
            outcome = f"basis {spec.basis.name!r} is not built in"
        else:
            if None not in _c_steps:
                try:
                    _c_steps[None] = cstep.load()
                except (cstep.CompileError, OSError) as exc:
                    _c_steps[None] = f"no C compiler works ({exc})"
            if kinds not in _c_steps:
                fn = _c_steps[None]
                _c_steps[kinds] = fn if isinstance(fn, str) else _self_check(
                    functools.partial(cstep.Step, fn, kinds), psis, spec.basis.name)
            outcome = _c_steps[kinds]
        if not isinstance(outcome, str):
            return outcome
        fresh = outcome not in _fallback_warned
        _fallback_warned.add(outcome)
    if fresh:
        warnings.warn(f"the Euler drift step runs on numpy, not compiled, which is slower: "
                      f"{outcome}", RuntimeWarning, stacklevel=3)
    return None


def _self_check(make, psis, name):
    """make if its step gives the guarded numpy step's bits on a fixed block.

    The block runs every psi as a drift term and keeps all but f1; the
    compiled step must run it whole.  Else returns why the check failed.
    """
    lanes, steps = len(_CHECK_X0), _CHECK_STEPS
    terms = tuple(enumerate([0.1] + [(0.3, -0.2)[nu % 2] for nu in range(len(psis) - 1)]))
    kept_slots = list(range(1, len(psis)))
    noise = lane_rng(0, 0).standard_normal((lanes, steps))
    runs = []
    for c_step in (make, None):
        blk = np.empty((lanes, steps + 1))
        blk[:, 0], blk[:, 1:] = _CHECK_X0, noise
        kept = np.empty((len(kept_slots), lanes, steps))
        with np.errstate(all="ignore"):
            done = _DriftStep(psis, terms, kept, kept_slots, 0.5, 0.25, c_step)(blk, steps)
        runs.append((done, blk.tobytes(), kept.tobytes()))
    (c_done, *c_bits), (_, *numpy_bits) = runs
    if c_done != steps or c_bits != numpy_bits:
        return f"the compiled step's bits differ from numpy's on basis {name!r}"
    return make


class _DriftStep:
    """The Euler steps of one drift over each block of a lane chunk.

    A block (L, b+1) holds the state before it in column 0 and each step's
    noise in the others; a call puts the state after each step in place of
    its noise, and psi of each kept slot's term at the state before each step
    into kept (K, L, width), in kept_slots' order.  terms are the drift's
    (slot, coefficient) pairs over psis, c_step a maker of its compiled step
    or None.  The compiled step runs the block until a tile raises a
    floating-point flag or leaves a state non-finite; the guarded numpy step
    runs the rest, or all of it without a compiled step, under the caller's
    errstate, so each warning numpy gives is shown once.
    """

    def __init__(self, psis, terms, kept, kept_slots, sig_sqdt, dt, c_step):
        self.psis, self.terms, self.kept = psis, terms, kept
        self.sig_sqdt, self.dt = sig_sqdt, dt
        lanes, width = kept.shape[1:]
        # the compiled step saves the noise of a tile, _STATS_CHUNK elements
        self.c_step = None if c_step is None else c_step(
            terms, kept, kept_slots, max(1, min(width, _STATS_CHUNK // lanes)))

    def __call__(self, blk, b) -> int:
        """Run the b steps of blk; return how many of them the compiled step ran."""
        done = 0 if self.c_step is None else self.c_step(blk, b, self.sig_sqdt, self.dt)
        if done < b:
            self._numpy(blk, done, b)
        return done

    @functools.cached_property
    def _tiles(self):
        """The guarded numpy step's tile width, buffers and per-step arguments.

        Tiles are step-major, for up to `tile` steps of a block: zt[n] takes
        step n's noise, scaled as it is copied in, and then the state after
        it, and kt[k, n] psi of the k-th kept term at the state before it.
        Each step writes only contiguous rows; a tile is copied from and back
        to the lane-major block arrays once.  Together they hold about
        _STATS_CHUNK elements.  Each term not kept (all of them without
        stats) puts its psi into one vector that every step reuses; those
        terms come first in slot order.
        """
        terms, kept = self.terms, self.kept
        lanes, width = kept.shape[1:]
        tile = min(width, max(1, _STATS_CHUNK // ((1 + len(kept)) * lanes)))
        zt = np.empty((tile, lanes))
        kt = np.empty((len(kept), tile, lanes))
        reused = tuple(np.empty((len(terms) - len(kept), lanes)))
        # 0-d array operands and ufunc calls with out by position, as in
        # basis: a Python float costs a scalar conversion, a keyword its
        # parsing, and an in-place operator with a 0-d operand (acc *= dt_arr)
        # about twice the call multiply(acc, dt_arr, acc) on 50 lanes
        c_first, *c_rest = [np.array(c) for _, c in terms]
        funcs = [self.psis[i] for i, _ in terms]
        steps = []  # per step of a tile, for _euler_tile
        for zk, psi in zip(zt, [reused + tuple(kt[:, n]) for n in range(tile)]):
            steps.append((zk, tuple(zip(funcs, psi)), psi[0], tuple(zip(c_rest, psi[1:]))))
        step_args = (c_first, np.array(self.dt), np.empty(lanes), np.empty(lanes))
        return tile, zt, kt, steps, step_args, np.empty(lanes)

    def _numpy(self, blk, start, b):
        """Steps [start, b) of blk on the guarded numpy path."""
        tile, zt, kt, steps, step_args, last = self._tiles
        zb = blk[:, 1:]
        cur = blk[:, start]
        for lo in range(start, b, tile):
            t = min(tile, b - lo)
            np.multiply(zb[:, lo:lo + t].T, self.sig_sqdt, out=zt[:t])
            _euler_tile(cur, steps[:t], *step_args)
            zb[:, lo:lo + t] = zt[:t].T
            if len(kt):
                self.kept[:, :, lo:lo + t] = kt[:, :t].transpose(0, 2, 1)
            # the next tile's noise overwrites zt: keep the last state
            last[...] = zt[t - 1]
            cur = last


def _simulate_chunk(lane_span, *, spec, theta, n_steps, dt, seed, window,
                    want_stats, want_cycles, threshold, checkpoint_steps,
                    store_path, block_steps) -> EnsembleResult:
    """Simulate the lanes [lo, hi) of lane_span and return their accumulations.

    Module level so that a partial of it can run in worker processes.  Lane
    indices are global, so results do not depend on how lanes are chunked.
    """
    rngs = [lane_rng(seed, lane) for lane in range(*lane_span)]
    lanes = len(rngs)
    sig_sqdt = spec.sigma * math.sqrt(dt)
    terms = _drift_terms(spec, theta)
    psis = _psis_with_out(spec)
    p = len(psis)

    targets = []  # the (window, steps, y, jj) accumulators of _add_stats
    if want_stats:
        y, jj = np.zeros((lanes, p)), np.zeros((lanes, p, p))
        targets.append((None, None, y, jj))
        if window is not None:
            y_win, j_win = np.zeros((lanes, p)), np.zeros((lanes, p, p))
            targets.append((window, None, y_win, j_win))
    if want_cycles:
        mode = [0] * lanes  # 0: await upcross, 1: await downcross
        r_times = [[] for _ in range(lanes)]
    checkpoints = {}
    # each block is one (L, b+1) array: column 0 holds the state before the
    # block, each other column a step's noise and then the state after it.
    # It is a view of z, which holds the whole paths when they are stored
    # and else one block that every block reuses.  With stats, kept[n] holds
    # the Euler step's psi values, before each step, of the n-th basis drift
    # term.  f1 costs less to evaluate again in the stats pass than to keep.
    width = min(block_steps, n_steps)
    z = np.empty((lanes, (n_steps if store_path else width) + 1))
    z[:, 0] = spec.x0
    x = z[:, 0]  # the state before the next block
    kept_slots = [i for i, _ in terms if i > 0] if want_stats else []
    kept = np.empty((len(kept_slots), lanes, width))
    # f1 as a drift term has shown its warnings in the step
    quiet = (0,) if theta.theta1 != 0.0 else ()
    if terms:
        drift = _DriftStep(psis, terms, kept, kept_slots, sig_sqdt, dt, _c_step_for(spec))

    # the block grid is fixed by block_steps alone, so checkpoints cannot move
    # the bits of any sum: a checkpoint k <= b steps into a block adds the first
    # k into copies of the line sums, which is what a run to it adds last
    for done in range(0, n_steps, block_steps):
        b = min(block_steps, n_steps - done)
        blk = z[:, done:done + b + 1] if store_path else z[:, :b + 1]
        blk[:, 0] = x  # a no-op in the first block and on stored paths
        zb = blk[:, 1:]
        for rng, row in zip(rngs, zb):
            rng.standard_normal(out=row)
        if not terms:
            zb *= sig_sqdt
            np.cumsum(zb, axis=1, out=zb)
            zb += blk[:, :1]
        else:
            drift(blk, b)
        if want_stats:
            snaps = [(None, step - done, y.copy(), jj.copy())
                     for step in checkpoint_steps if done < step <= done + b]
            _add_stats(psis, blk, {i: kb[:, :b] for i, kb in zip(kept_slots, kept)},
                       targets + snaps, quiet)
            for _, cut, y_ck, jj_ck in snaps:
                checkpoints[(done + cut) * dt] = _scaled_stats(y_ck, jj_ck, spec.sigma, dt)
        if want_cycles:
            up = zb > threshold
            dn = zb < 0.0
            for i in range(lanes):
                hits, mode[i] = _scan_crossings(up[i], dn[i], mode[i])
                r_times[i].extend((done + h + 1) * dt for h in hits)
        x = blk[:, b]
        if not np.isfinite(x).all():
            raise SimulationDivergedError(
                "simulated state became non-finite; this should not happen "
                "for parameters in the admissible domain"
            )

    res = EnsembleResult(final_x=np.array(x), paths=z if store_path else None)
    if want_stats:
        res.y, res.j = _scaled_stats(y, jj, spec.sigma, dt)
        if window is not None:
            res.y_win, res.j_win = _scaled_stats(y_win, j_win, spec.sigma, dt)
        res.checkpoints = checkpoints
    if want_cycles:
        res.r_times = [np.array(r) for r in r_times]
    return res


def _merge(parts: list) -> EnsembleResult:
    """One EnsembleResult of consecutive lane chunks, stacked field by field."""
    def stack(values):
        if values[0] is None:
            return None
        if isinstance(values[0], list):  # r_times
            return [arr for v in values for arr in v]
        if isinstance(values[0], dict):  # checkpoints: t -> (y, j)
            return {t: tuple(map(np.concatenate, zip(*(v[t] for v in values))))
                    for t in values[0]}
        return np.concatenate(values)

    return EnsembleResult(**{f.name: stack([getattr(p, f.name) for p in parts])
                             for f in fields(EnsembleResult)})


def run_ensemble(
    spec: ModelSpec,
    theta: ParamVector,
    horizon: float,
    dt: float,
    seed: int,
    replications: int,
    *,
    rep_offset: int = 0,
    window: Optional[tuple] = None,
    want_stats: bool = True,
    want_cycles: bool = False,
    threshold: Optional[float] = None,
    checkpoint_times: tuple = (),
    store_path: bool = False,
    block_steps: Optional[int] = None,
    threads: Optional[int] = None,
) -> EnsembleResult:
    """Run replications in lock-step and collect the requested functionals.

    Each time t of checkpoint_times (dt <= t <= horizon; want_stats required)
    adds the line (y, j) at step n_steps_for(t, dt) to checkpoints, keyed by
    that step times dt.
    A snapshot has the bits of a run to that time with the same block_steps,
    and asking for it leaves every other result bit-identical.

    Steps run in blocks of block_steps.  The blocks also cut each lane's sums
    of the statistics, so another block_steps can move their last bits.  The
    default, _default_block(replications), keeps a block array to at most
    2^18 float64 (2 MiB) unless that means fewer than 1024 steps a block; it
    depends on replications alone, so results do not depend on threads.
    window (a, b) may have infinite ends; a NaN end or a >= b is an error.

    The replications are split into min(threads, replications) lane chunks
    (threads defaults to n_threads()).  Several chunks run on the worker pool
    of an open _worker_pool scope, or else on a pool opened for this call.
    """
    require_valid_theta(spec, theta)
    for name, value in (("horizon", horizon), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < 0 or (horizon > 0 and dt > horizon):
        raise ValueError("need 0 < dt <= horizon (or horizon == 0)")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    _check_window(window)
    if checkpoint_times and not want_stats:
        raise ValueError("checkpoint_times needs want_stats=True: a checkpoint is a "
                         "snapshot of the (y, j) statistics")
    n_steps = n_steps_for(horizon, dt)
    if want_cycles and threshold is None:
        threshold = scale_inverse(spec, theta, 1.0)
    for t in checkpoint_times:
        if not dt <= t <= horizon:
            raise ValueError(f"checkpoint time {t} must lie in [dt, horizon] = "
                             f"[{dt}, {horizon}]")
    checkpoint_steps = tuple(sorted({n_steps_for(t, dt) for t in checkpoint_times}))
    for name, value in (("block_steps", block_steps), ("threads", threads)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if block_steps is None:
        block_steps = _default_block(replications)

    threads = n_threads() if threads is None else threads
    bounds = np.linspace(0, replications, min(threads, replications) + 1).astype(int)
    spans = [(rep_offset + int(lo), rep_offset + int(hi))
             for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    chunk = functools.partial(
        _simulate_chunk, spec=spec, theta=theta, n_steps=n_steps, dt=dt, seed=seed,
        window=window, want_stats=want_stats, want_cycles=want_cycles,
        threshold=threshold, checkpoint_steps=checkpoint_steps,
        store_path=store_path, block_steps=block_steps)
    if len(spans) == 1:
        return chunk(spans[0])
    if _drift_terms(spec, theta):
        _c_step_for(spec)  # loaded before a pool forks, its workers inherit it
    with _worker_pool(len(spans)) as pool:
        parts = list(pool.map(chunk, spans))
    return _merge(parts)


def simulate_path(spec: ModelSpec, theta: ParamVector, horizon: float, dt: float,
                  seed: int) -> DiffusionPath:
    """One trajectory on the grid 0, dt, ..., floor(horizon/dt)*dt."""
    res = run_ensemble(spec, theta, horizon, dt, seed, 1,
                       want_stats=False, store_path=True, threads=1)
    return DiffusionPath(dt=dt, values=res.paths[0])


def accumulate_stats(spec: ModelSpec, path: DiffusionPath,
                     window: Optional[tuple] = None) -> SufficientStats:
    """Sufficient statistics (y, j) of a stored path by the left-point rule."""
    vals = np.asarray(path.values, dtype=float)
    if vals.size < 1:
        raise ValueError("path must contain at least its starting point")
    _check_window(window)
    psis = _psis_with_out(spec)
    y = np.zeros((1, len(psis)))
    j = np.zeros((1, len(psis), len(psis)))
    if vals.size > 1:
        _add_stats(psis, vals[None], {}, [(window, None, y, j)])
    y, j = _scaled_stats(y, j, spec.sigma, path.dt)
    return SufficientStats(y=y[0], j=j[0], t=(vals.size - 1) * path.dt, window=window,
                           x0=float(vals[0]))


def _param_of(stats: SufficientStats, theta) -> np.ndarray:
    """theta as a (p,) array, checked against the statistics' dimension."""
    vec = theta.as_array() if isinstance(theta, ParamVector) else np.asarray(theta, dtype=float)
    if vec.shape != stats.y.shape[-1:]:
        raise ValueError(f"parameter length {vec.shape} does not match stats {stats.y.shape}")
    return vec


def score_at(stats: SufficientStats, theta) -> np.ndarray:
    """Discretized score s(theta) = y - j theta: (p,), or (R, p) for stacked stats."""
    return stats.y - stats.j @ _param_of(stats, theta)
