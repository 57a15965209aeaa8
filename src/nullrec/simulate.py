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
"""

from __future__ import annotations

import functools
import inspect
import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .basis import _STEP_FORMS
from .errors import SimulationDivergedError
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


# elements per array in a lane chunk of _add_stats, and in all the tile
# buffers of the Euler step together (256 KiB of float64)
_STATS_CHUNK = 1 << 15


def _default_block(lanes: int) -> int:
    return max(256, min(65536, 2_000_000 // max(lanes, 1)))


def _add_stats(psis, x, pb, kept, targets):
    """Add one block's left-point sums to raw (y, jj) accumulators.

    pb (L, b) holds the path after each step and x (L,) the state before the
    block.  kept maps a psi slot to its values at the left points; the other
    slots are evaluated here.  Each (window, y, jj) of targets gets the sums
    psi_i dx in y (L, p) and psi_i psi_l in jj (L, p, p), over every step
    (window None) or only over steps that start inside the window.  Each
    off-diagonal sum is added to both of its entries, so jj stays symmetric
    bit for bit.

    Lanes go through in chunks of about _STATS_CHUNK elements per array, so
    that the temporaries stay in cache.  Each lane still sums along its own
    row, so which lanes share a chunk cannot change a bit.
    """
    lanes, b = pb.shape
    p = len(psis)
    rows = max(1, _STATS_CHUNK // b)
    for lo in range(0, lanes, rows):
        r = slice(lo, lo + rows)
        xl = np.empty((min(rows, lanes - lo), b))
        xl[:, 0] = x[r]
        xl[:, 1:] = pb[r, :-1]
        dx = pb[r] - xl
        evals = [kept[i][r] if i in kept else f(xl) for i, f in enumerate(psis)]
        for window, y, jj in targets:
            ev = evals
            if window is not None:
                mask = (xl >= window[0]) & (xl <= window[1])
                ev = [e * mask for e in evals]
            for i in range(p):
                y[r, i] += (ev[i] * dx).sum(axis=1)
                for l in range(i, p):
                    s = (ev[i] * ev[l]).sum(axis=1)
                    jj[r, i, l] += s
                    if l != i:
                        jj[r, l, i] += s


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


def _simulate_chunk(lane_span, *, spec, theta, n_steps, dt, seed, window,
                    want_stats, want_cycles, threshold, checkpoint_steps,
                    store_path, block_steps) -> EnsembleResult:
    """Simulate lanes [lane_lo, lane_hi) and return their accumulations.

    Module level so that a partial of it can run in worker processes.  Lane
    indices are global, so results do not depend on how lanes are chunked.
    """
    lane_lo, lane_hi = lane_span
    lanes = lane_hi - lane_lo
    rngs = [lane_rng(seed, lane) for lane in range(lane_lo, lane_hi)]
    sig_sqdt = spec.sigma * math.sqrt(dt)
    terms = _drift_terms(spec, theta)
    psis = _psi_funcs(spec)
    p = len(psis)

    x = np.full(lanes, spec.x0, dtype=float)
    targets = []  # the (window, y, jj) accumulators of _add_stats
    if want_stats:
        y = np.zeros((lanes, p))
        jj = np.zeros((lanes, p, p))
        targets.append((None, y, jj))
        if window is not None:
            y_win, j_win = np.zeros((lanes, p)), np.zeros((lanes, p, p))
            targets.append((window, y_win, j_win))
    if want_cycles:
        mode = [0] * lanes  # 0: await upcross, 1: await downcross
        r_times = [[] for _ in range(lanes)]
    if store_path:
        paths = np.empty((lanes, n_steps + 1))
        paths[:, 0] = x
    checkpoints = {}
    ck_steps = checkpoint_steps if want_stats else ()
    # block buffers, reused by every block: z holds the scaled noise, which
    # the state after each step overwrites, and kept[n] the Euler step's psi
    # values of drift term n before it
    width = min(block_steps, n_steps)
    z = np.empty((lanes, width))
    kept = np.empty((len(terms), lanes, width)) if want_stats else None
    if terms:
        # the step calls each psi with out; a call-counting decorator (such
        # as the one bench/tracing.py installs) takes x alone, so step past it
        term_psis = [inspect.unwrap(psis[i]) for i, _ in terms]
        # 0-d array operands and ufunc calls with out by position, as in
        # basis: a Python float costs a scalar conversion, a keyword its
        # parsing, and an in-place operator with a 0-d operand (acc *= dt_arr)
        # about twice the call multiply(acc, dt_arr, acc) on 50 lanes
        c_first, *c_rest = [np.array(c) for _, c in terms]
        dt_arr = np.array(dt)
        # tile buffers, step-major, for tiles of up to `tile` steps of a
        # block: zt[n] takes step n's noise and then the state after it, and
        # kt[k, n] psi of drift term k at the state before it.  Each step
        # writes only contiguous rows; a tile is copied from and back to the
        # lane-major block buffers once.  Together they hold about
        # _STATS_CHUNK elements.
        arrays = 1 + len(terms) if want_stats else 1
        tile = min(width, max(1, _STATS_CHUNK // (arrays * lanes)))
        zt = np.empty((tile, lanes))
        if want_stats:
            kt = np.empty((len(terms), tile, lanes))
            psi_at = [tuple(kt[:, n]) for n in range(tile)]
        else:
            psi_at = [tuple(np.empty((len(terms), lanes)))] * tile
        def tile_steps(funcs):
            """Per step of a tile, for _euler_tile: its zt row, the calls of
            funcs, psi of the first term and the (coefficient, psi) pairs of
            the later ones."""
            return [(zk, tuple(zip(funcs, psi)), psi[0], tuple(zip(c_rest, psi[1:])))
                    for zk, psi in zip(zt, psi_at)]

        # the fast pass calls the step forms of the psis (sinc without its
        # guard at 0), the guarded pass the psis themselves
        fast_steps = tile_steps([_STEP_FORMS.get(f, f) for f in term_psis])
        guarded_steps = tile_steps(term_psis)
        acc, scratch, last = np.empty(lanes), np.empty(lanes), np.empty(lanes)
        step_args = (c_first, dt_arr, acc, scratch)
        caller_err = np.geterr()

    def kept_to(cut):
        """The kept psi values of the current block's first cut steps."""
        return {i: kb[:, :cut] for (i, _), kb in zip(terms, kept)}

    # the block grid is fixed by block_steps alone, so checkpoints cannot move
    # the bits of any sum: a checkpoint inside a block adds the block's prefix
    # into copies of the line sums, which is what a run to it adds last
    for done in range(0, n_steps, block_steps):
        b = min(block_steps, n_steps - done)
        zb = z[:, :b]
        for rng, row in zip(rngs, z):
            rng.standard_normal(out=row[:b])
        zb *= sig_sqdt
        if not terms:
            np.cumsum(zb, axis=1, out=zb)
            zb += x[:, None]
        else:
            cur = x
            # the fast pass hides the invalid flag of its NaNs; the guarded
            # rerun below runs under the caller's settings
            with np.errstate(invalid="ignore"):
                for lo in range(0, b, tile):
                    t = min(tile, b - lo)
                    zt[:t] = zb[:, lo:lo + t].T
                    _euler_tile(cur, fast_steps[:t], *step_args)
                    # a NaN, once in a lane, stays to the tile's end.  It
                    # comes from a step form at its unguarded point (x0 = 0
                    # puts the first tile of a run there) or from a diverging
                    # path: rerun the tile from its start with the guarded
                    # psis, which gives their bits and, on divergence, their
                    # warnings.  zb still holds the tile's noise.
                    if not np.isfinite(zt[t - 1]).all():
                        zt[:t] = zb[:, lo:lo + t].T
                        with np.errstate(**caller_err):
                            _euler_tile(cur, guarded_steps[:t], *step_args)
                    zb[:, lo:lo + t] = zt[:t].T
                    if want_stats:
                        kept[:, :, lo:lo + t] = kt[:, :t].transpose(0, 2, 1)
                    # the next tile's noise overwrites zt: keep the last state
                    last[...] = zt[t - 1]
                    cur = last
        if want_stats:
            for step in ck_steps:
                if done < step < done + b:
                    cut = step - done
                    y_ck, jj_ck = y.copy(), jj.copy()
                    _add_stats(psis, x, zb[:, :cut], kept_to(cut), [(None, y_ck, jj_ck)])
                    checkpoints[step * dt] = _scaled_stats(y_ck, jj_ck, spec.sigma, dt)
            _add_stats(psis, x, zb, kept_to(b), targets)
            if done + b in ck_steps:
                checkpoints[(done + b) * dt] = _scaled_stats(y, jj, spec.sigma, dt)
        if want_cycles:
            up = zb > threshold
            dn = zb < 0.0
            for i in range(lanes):
                hits, mode[i] = _scan_crossings(up[i], dn[i], mode[i])
                r_times[i].extend((done + h + 1) * dt for h in hits)
        if store_path:
            paths[:, done + 1:done + b + 1] = zb
        x = np.array(zb[:, b - 1])
        if not np.isfinite(x).all():
            raise SimulationDivergedError(
                "simulated state became non-finite; this should not happen "
                "for parameters in the admissible domain"
            )

    res = EnsembleResult(final_x=x)
    if want_stats:
        res.y, res.j = _scaled_stats(y, jj, spec.sigma, dt)
        if window is not None:
            res.y_win, res.j_win = _scaled_stats(y_win, j_win, spec.sigma, dt)
        res.checkpoints = checkpoints
    if want_cycles:
        res.r_times = [np.array(r) for r in r_times]
    if store_path:
        res.paths = paths
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

    Each time t of checkpoint_times (dt <= t <= horizon) adds the line (y, j)
    at step n_steps_for(t, dt) to checkpoints, keyed by that step times dt.
    A snapshot has the bits of a run to that time with the same block_steps,
    and asking for it leaves every other result bit-identical.
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
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
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
    psis = _psi_funcs(spec)
    y = np.zeros((1, len(psis)))
    j = np.zeros((1, len(psis), len(psis)))
    if vals.size > 1:
        _add_stats(psis, vals[:1], vals[None, 1:], {}, [(window, y, j)])
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
