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

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .basis import principal_f1
from .errors import SimulationDivergedError
from .model import ModelSpec, ParamVector, require_valid_theta, scale_inverse

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
    spec_ref: str = ""
    theta_ref: str = ""


@dataclass
class SufficientStats:
    """Terminal (y, j) of a path, optionally windowed, plus context."""

    y: np.ndarray
    j: np.ndarray
    t: float
    window: Optional[tuple] = None
    x0: float = 0.0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.j = np.asarray(self.j, dtype=float)
        if self.j.shape != (len(self.y), len(self.y)):
            raise ValueError("j must be square and match y")


@dataclass
class LifeCycleRecord:
    r_times: np.ndarray
    durations: np.ndarray
    threshold: float


@dataclass
class EnsembleResult:
    """Per-replication accumulations from a lock-step ensemble run."""

    replications: int
    horizon: float
    dt: float
    y: Optional[np.ndarray] = None            # (R, 1+m)
    j: Optional[np.ndarray] = None            # (R, 1+m, 1+m)
    y_win: Optional[np.ndarray] = None
    j_win: Optional[np.ndarray] = None
    r_times: Optional[list] = None            # list of (n_i,) arrays, seconds
    threshold: Optional[float] = None
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


def _drift_fn(spec: ModelSpec, theta: ParamVector):
    """Vectorized drift closure, or None when the drift vanishes identically."""
    if theta.theta1 == 0.0 and all(c == 0.0 for c in theta.theta2):
        return None
    coefs = theta.theta2
    funcs = spec.basis.funcs
    t1 = theta.theta1

    def drift(x):
        out = t1 * principal_f1(x)
        for c, f in zip(coefs, funcs):
            if c != 0.0:
                out = out + c * f(x)
        return out

    return drift


def _default_block(lanes: int) -> int:
    return max(256, min(65536, 2_000_000 // max(lanes, 1)))


def _mirror_upper(mat: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of each (p, p) matrix in mat into its lower one."""
    p = mat.shape[-1]
    for i in range(p):
        for l in range(i):
            mat[:, i, l] = mat[:, l, i]
    return mat


def _simulate_chunk(args) -> dict:
    """Simulate lanes [lane_lo, lane_hi) and return their accumulations.

    Top-level function with a single picklable argument tuple so chunks can
    run in worker processes.  Lane indices are global, so results do not
    depend on how lanes are chunked.
    """
    (spec, theta, n_steps, dt, seed, lane_lo, lane_hi, window, want_stats,
     want_cycles, threshold, checkpoint_steps, store_path, block_steps) = args

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
        mode = np.zeros(lanes, dtype=np.int8)  # 0: await upcross, 1: await downcross
        r_times = [[] for _ in range(lanes)]
    if store_path:
        paths = np.empty((lanes, n_steps + 1))
        paths[:, 0] = x
    checkpoints = {}
    ck_iter = list(checkpoint_steps) if want_stats else []

    def snapshot(step):
        checkpoints[step * dt] = (y.copy(), _mirror_upper(jj.copy()))

    done = 0
    boundaries = sorted(set(ck_iter) | {n_steps})
    for bound in boundaries:
        while done < bound:
            b = min(block_steps, bound - done)
            z = np.empty((lanes, b))
            for i in range(lanes):
                z[i] = rngs[i].standard_normal(b)
            z *= sig_sqdt
            if drift is None:
                pb = np.cumsum(z, axis=1)
                pb += x[:, None]
                if want_stats or store_path:
                    xl = np.empty((lanes, b))
                    xl[:, 0] = x
                    xl[:, 1:] = pb[:, :-1]
            else:
                xl = np.empty((lanes, b))
                pb = np.empty((lanes, b))
                cur = x
                for k in range(b):
                    xl[:, k] = cur
                    cur = cur + drift(cur) * dt + z[:, k]
                    pb[:, k] = cur
            if want_stats:
                dx = pb - xl
                evals = [f(xl) for f in psis]
                for i in range(p):
                    y[:, i] += (evals[i] * dx).sum(axis=1)
                    for l in range(i, p):
                        jj[:, i, l] += (evals[i] * evals[l]).sum(axis=1)
                if window is not None:
                    mask = (xl >= window[0]) & (xl <= window[1])
                    wevals = [e * mask for e in evals]
                    for i in range(p):
                        y_win[:, i] += (wevals[i] * dx).sum(axis=1)
                        for l in range(i, p):
                            j_win[:, i, l] += (wevals[i] * wevals[l]).sum(axis=1)
            if want_cycles:
                up = pb > threshold
                dn = pb < 0.0
                for i in range(lanes):
                    ui = np.flatnonzero(up[i])
                    di = np.flatnonzero(dn[i])
                    pos = -1
                    while True:
                        if mode[i] == 0:
                            k = np.searchsorted(ui, pos + 1)
                            if k == len(ui):
                                break
                            pos = ui[k]
                            mode[i] = 1
                        else:
                            k = np.searchsorted(di, pos + 1)
                            if k == len(di):
                                break
                            pos = di[k]
                            mode[i] = 0
                            r_times[i].append((done + pos + 1) * dt)
            if store_path:
                paths[:, done + 1:done + b + 1] = pb
            x = np.array(pb[:, b - 1])
            if not np.isfinite(x).all():
                raise SimulationDivergedError(
                    "simulated state became non-finite; this should not happen "
                    "for parameters in the admissible domain"
                )
            done += b
        if done in ck_iter:
            snapshot(done)

    scale_y = 1.0 / spec.sigma**2
    scale_j = dt / spec.sigma**2
    if want_stats:
        _mirror_upper(jj)
        if window is not None:
            _mirror_upper(j_win)
        out["y"] = y * scale_y
        out["j"] = jj * scale_j
        if window is not None:
            out["y_win"] = y_win * scale_y
            out["j_win"] = j_win * scale_j
        out["checkpoints"] = {
            t: (sy * scale_y, sj * scale_j) for t, (sy, sj) in checkpoints.items()
        }
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
    chunks = [
        (spec, theta, n_steps, dt, seed, rep_offset + int(lo), rep_offset + int(hi),
         window, want_stats, want_cycles, threshold, checkpoint_steps,
         store_path, block_steps)
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    if len(chunks) == 1:
        results = [_simulate_chunk(chunks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(_simulate_chunk, chunks))

    res = EnsembleResult(replications=replications, horizon=horizon, dt=dt)
    res.threshold = threshold

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
    return DiffusionPath(
        dt=dt,
        values=res.paths[0],
        horizon=horizon,
        seed=seed,
        spec_ref=f"sigma={spec.sigma},basis={spec.basis.name},x0={spec.x0}",
        theta_ref=f"theta1={theta.theta1},theta2={list(theta.theta2)}",
    )


def accumulate_stats(spec: ModelSpec, path: DiffusionPath,
                     window: Optional[tuple] = None) -> SufficientStats:
    """Sufficient statistics (y, j) of a stored path by the left-point rule."""
    vals = np.asarray(path.values, dtype=float)
    if vals.size < 1:
        raise ValueError("path must contain at least its starting point")
    psis = (principal_f1,) + spec.basis.funcs
    p = len(psis)
    xl = vals[:-1]
    dx = np.diff(vals)
    evals = [f(xl) for f in psis]
    if window is not None:
        mask = (xl >= window[0]) & (xl <= window[1])
        evals = [e * mask for e in evals]
    y = np.empty(p)
    j = np.empty((p, p))
    for i in range(p):
        y[i] = (evals[i] * dx).sum() / spec.sigma**2
        for l in range(i, p):
            j[i, l] = j[l, i] = (evals[i] * evals[l]).sum() * path.dt / spec.sigma**2
    t = len(xl) * path.dt
    x0 = float(vals[0])
    return SufficientStats(y=y, j=j, t=t, window=window, x0=x0)


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
    up = np.flatnonzero(inner > threshold)
    dn = np.flatnonzero(inner < 0.0)
    r_idx = []
    pos = -1
    mode = 0
    while True:
        if mode == 0:
            k = np.searchsorted(up, pos + 1)
            if k == len(up):
                break
            pos = up[k]
            mode = 1
        else:
            k = np.searchsorted(dn, pos + 1)
            if k == len(dn):
                break
            pos = dn[k]
            mode = 0
            r_idx.append(pos + 1)
    r_times = np.array(r_idx, dtype=float) * path.dt
    durations = np.diff(r_times)
    return LifeCycleRecord(r_times=r_times, durations=durations, threshold=threshold)
