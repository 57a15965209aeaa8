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
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .basis import principal_f1
from .errors import SimulationDivergedError
from .model import ModelSpec, ParamVector, _drift_fn, require_valid_theta, scale_inverse

__all__ = [
    "DiffusionPath",
    "SufficientStats",
    "LifeCycleRecord",
    "EnsembleResult",
    "simulate_path",
    "accumulate_stats",
    "score_at",
    "detect_life_cycles",
    "run_ensemble",
    "n_threads",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class DiffusionPath:
    dt: float
    values: np.ndarray
    horizon: float
    seed: int


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
class LifeCycleRecord:
    r_times: np.ndarray
    durations: np.ndarray
    threshold: float


@dataclass
class EnsembleResult:
    """Per-replication accumulations from a lock-step ensemble run."""

    y: Optional[np.ndarray] = None            # (R, 1+m)
    j: Optional[np.ndarray] = None            # (R, 1+m, 1+m)
    y_win: Optional[np.ndarray] = None
    j_win: Optional[np.ndarray] = None
    r_times: Optional[list] = None            # list of (n_i,) arrays, seconds
    checkpoints: dict = field(default_factory=dict)  # step-time -> (y, j) snapshot
    paths: Optional[np.ndarray] = None        # (R, n_steps+1) when stored
    final_x: Optional[np.ndarray] = None


def n_steps_for(horizon: float, dt: float) -> int:
    return int(math.floor(horizon / dt + 1e-9))


def lane_rng(seed: int, lane: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, lane & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def _default_block(lanes: int) -> int:
    return max(256, min(65536, 2_000_000 // max(lanes, 1)))


def _mirror_upper(mat: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of each (p, p) matrix in mat into its lower one."""
    p = mat.shape[-1]
    for i in range(p):
        for l in range(i):
            mat[:, i, l] = mat[:, l, i]
    return mat


def _add_stats(evals, xl, dx, y, jj, window=None):
    """Add one block's left-point sums to y (L, p) and the upper triangle of jj.

    evals[i] is psi_i at the left points xl (L, b), dx the increments; with a
    window, only steps that start inside it count.
    """
    if window is not None:
        mask = (xl >= window[0]) & (xl <= window[1])
        evals = [e * mask for e in evals]
    p = len(evals)
    for i in range(p):
        y[:, i] += (evals[i] * dx).sum(axis=1)
        for l in range(i, p):
            jj[:, i, l] += (evals[i] * evals[l]).sum(axis=1)


def _scaled_stats(y, jj, sigma: float, dt: float):
    """(y, J) from the raw sums: J mirrored from its upper triangle (in place)."""
    return y * (1.0 / sigma**2), _mirror_upper(jj) * (dt / sigma**2)


def _scan_crossings(up, dn, mode):
    """Alternating crossing scan over sorted index arrays.

    Mode 0 awaits the next index in up (above the threshold), mode 1 the next
    one in dn (below zero).  Returns the dn indices that close a cycle and the
    mode at the end, from which the scan of the next block continues.
    """
    hits = []
    pos = -1
    while True:
        idx = up if mode == 0 else dn
        k = np.searchsorted(idx, pos + 1)
        if k == len(idx):
            return hits, mode
        pos = idx[k]
        if mode == 1:
            hits.append(pos)
        mode = 1 - mode


def _simulate_chunk(lane_span, *, spec, theta, n_steps, dt, seed, window,
                    want_stats, want_cycles, threshold, checkpoint_steps,
                    store_path, block_steps) -> dict:
    """Simulate lanes [lane_lo, lane_hi) and return their accumulations.

    Module level so that a partial of it can run in worker processes.  Lane
    indices are global, so results do not depend on how lanes are chunked.
    """
    lane_lo, lane_hi = lane_span
    lanes = lane_hi - lane_lo
    rngs = [lane_rng(seed, lane) for lane in range(lane_lo, lane_hi)]
    sig_sqdt = spec.sigma * math.sqrt(dt)
    drift = _drift_fn(spec, theta)
    psis = (principal_f1,) + spec.basis.funcs
    p = len(psis)

    x = np.full(lanes, spec.x0, dtype=float)
    out: dict = {}
    if want_stats:
        y = np.zeros((lanes, p))
        jj = np.zeros((lanes, p, p))
        y_win = np.zeros((lanes, p)) if window is not None else None
        j_win = np.zeros((lanes, p, p)) if window is not None else None
    if want_cycles:
        mode = [0] * lanes  # 0: await upcross, 1: await downcross
        r_times = [[] for _ in range(lanes)]
    if store_path:
        paths = np.empty((lanes, n_steps + 1))
        paths[:, 0] = x
    checkpoints = {}
    ck_iter = list(checkpoint_steps) if want_stats else []
    # block buffers, reused by every block; pb holds x after each step, xl before
    width = min(block_steps, n_steps)
    z = np.empty((lanes, width))
    pb = np.empty((lanes, width))
    xl = np.empty((lanes, width))

    done = 0
    boundaries = sorted(set(ck_iter) | {n_steps})
    for bound in boundaries:
        while done < bound:
            b = min(block_steps, bound - done)
            zb, pbb, xlb = z[:, :b], pb[:, :b], xl[:, :b]
            for rng, row in zip(rngs, z):
                rng.standard_normal(out=row[:b])
            zb *= sig_sqdt
            if drift is None:
                np.cumsum(zb, axis=1, out=pbb)
                pbb += x[:, None]
                if want_stats:
                    xlb[:, 0] = x
                    xlb[:, 1:] = pbb[:, :-1]
            else:
                cur = x
                for k in range(b):
                    xlb[:, k] = cur
                    cur = cur + drift(cur) * dt + zb[:, k]
                    pbb[:, k] = cur
            if want_stats:
                dx = pbb - xlb
                evals = [f(xlb) for f in psis]
                _add_stats(evals, xlb, dx, y, jj)
                if window is not None:
                    _add_stats(evals, xlb, dx, y_win, j_win, window)
            if want_cycles:
                up = pbb > threshold
                dn = pbb < 0.0
                for i in range(lanes):
                    hits, mode[i] = _scan_crossings(np.flatnonzero(up[i]),
                                                    np.flatnonzero(dn[i]), mode[i])
                    r_times[i].extend((done + h + 1) * dt for h in hits)
            if store_path:
                paths[:, done + 1:done + b + 1] = pbb
            x = np.array(pbb[:, b - 1])
            if not np.isfinite(x).all():
                raise SimulationDivergedError(
                    "simulated state became non-finite; this should not happen "
                    "for parameters in the admissible domain"
                )
            done += b
        if done in ck_iter:
            checkpoints[done * dt] = _scaled_stats(y, jj.copy(), spec.sigma, dt)

    if want_stats:
        out["y"], out["j"] = _scaled_stats(y, jj, spec.sigma, dt)
        if window is not None:
            out["y_win"], out["j_win"] = _scaled_stats(y_win, j_win, spec.sigma, dt)
        out["checkpoints"] = checkpoints
    if want_cycles:
        out["r_times"] = [np.array(r) for r in r_times]
    if store_path:
        out["paths"] = paths
    out["final_x"] = x
    return out


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
    """Run replications in lock-step and collect the requested functionals."""
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
    checkpoint_steps = tuple(
        sorted({n_steps_for(t, dt) for t in checkpoint_times if 0 < t <= horizon})
    )
    if block_steps is None:
        block_steps = _default_block(replications)

    threads = n_threads() if threads is None else max(1, threads)
    bounds = np.linspace(0, replications, min(threads, replications) + 1).astype(int)
    spans = [(rep_offset + int(lo), rep_offset + int(hi))
             for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    chunk = functools.partial(
        _simulate_chunk, spec=spec, theta=theta, n_steps=n_steps, dt=dt, seed=seed,
        window=window, want_stats=want_stats, want_cycles=want_cycles,
        threshold=threshold, checkpoint_steps=checkpoint_steps,
        store_path=store_path, block_steps=block_steps)
    if len(spans) == 1:
        results = [chunk(spans[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            results = list(pool.map(chunk, spans))

    res = EnsembleResult()

    def cat(key):
        parts = [r[key] for r in results if key in r]
        return np.concatenate(parts, axis=0) if parts else None

    if want_stats:
        res.y, res.j = cat("y"), cat("j")
        if window is not None:
            res.y_win, res.j_win = cat("y_win"), cat("j_win")
        merged = {}
        for t in results[0].get("checkpoints", {}):
            merged[t] = (
                np.concatenate([r["checkpoints"][t][0] for r in results]),
                np.concatenate([r["checkpoints"][t][1] for r in results]),
            )
        res.checkpoints = merged
    if want_cycles:
        res.r_times = [arr for r in results for arr in r["r_times"]]
    if store_path:
        res.paths = cat("paths")
    res.final_x = cat("final_x")
    return res


def simulate_path(spec: ModelSpec, theta: ParamVector, horizon: float, dt: float,
                  seed: int) -> DiffusionPath:
    """One trajectory on the grid 0, dt, ..., floor(horizon/dt)*dt."""
    res = run_ensemble(spec, theta, horizon, dt, seed, 1,
                       want_stats=False, store_path=True, threads=1)
    return DiffusionPath(dt=dt, values=res.paths[0], horizon=horizon, seed=seed)


def accumulate_stats(spec: ModelSpec, path: DiffusionPath,
                     window: Optional[tuple] = None) -> SufficientStats:
    """Sufficient statistics (y, j) of a stored path by the left-point rule."""
    vals = np.asarray(path.values, dtype=float)
    if vals.size < 1:
        raise ValueError("path must contain at least its starting point")
    psis = (principal_f1,) + spec.basis.funcs
    xl = vals[None, :-1]
    y = np.zeros((1, len(psis)))
    j = np.zeros((1, len(psis), len(psis)))
    _add_stats([f(xl) for f in psis], xl, np.diff(vals)[None], y, j, window)
    y, j = _scaled_stats(y, j, spec.sigma, path.dt)
    return SufficientStats(y=y[0], j=j[0], t=xl.size * path.dt, window=window,
                           x0=float(vals[0]))


def score_at(stats: SufficientStats, theta) -> np.ndarray:
    """Discretized score s(theta) = y - j theta."""
    vec = theta.as_array() if isinstance(theta, ParamVector) else np.asarray(theta, dtype=float)
    if vec.shape != stats.y.shape:
        raise ValueError(f"parameter length {vec.shape} does not match stats {stats.y.shape}")
    return stats.y - stats.j @ vec


def detect_life_cycles(spec: ModelSpec, theta: ParamVector,
                       path: DiffusionPath) -> LifeCycleRecord:
    """Alternating crossing scan: above the scale threshold, then below zero.

    Crossings are detected at grid points only; index k maps to time k*dt.
    """
    require_valid_theta(spec, theta)
    threshold = scale_inverse(spec, theta, 1.0)
    vals = np.asarray(path.values, dtype=float)
    inner = vals[1:]
    hits, _ = _scan_crossings(np.flatnonzero(inner > threshold),
                              np.flatnonzero(inner < 0.0), 0)
    r_times = (np.array(hits, dtype=float) + 1.0) * path.dt
    durations = np.diff(r_times)
    return LifeCycleRecord(r_times=r_times, durations=durations, threshold=threshold)
