"""Monte Carlo experiments confronting simulated estimators with their
asymptotic predictions, plus the small statistical utilities they need.

Each experiment consumes an ExperimentConfig and produces an
ExperimentReport: a flat list of (horizon, coord, stat_name, value,
tolerance, passed) rows, deterministic given the config (wall-clock time is
recorded but not part of the deterministic payload).  Randomness is drawn
from Philox streams keyed by (master_seed, context << 32 | replication), so
reports do not depend on scheduling or worker count.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import time
import typing
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSampleError
from .estimators import (EstimateResult, _ratio_bias, _row_dot, log_likelihood_ratio, mle,
                         naive_estimator, one_step, restricted_mle)
from .limits import LimitLawSpec, make_loss, monte_carlo_risk, rng_stream, sample_limit_error
from .model import (
    ModelSpec,
    ParamVector,
    _drift_terms,
    asymptotic_constants,
    information_scale_matrix,
    mu_moment_matrix,
    norming,
    scale_inverse,
    theta_in_domain,
)
from .simulate import (EnsembleResult, SufficientStats, _c_step_for, _worker_pool, n_steps_for,
                       n_threads, run_ensemble, score_at)

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "ks_statistic",
    "hill_estimator",
    "run_experiment",
    "GATES",
]

# Stream contexts; lane k of context c uses Philox key (seed, c << 32 | k).
_CTX_IDENTITY = 1
_CTX_RATE = 16          # + horizon index
_CTX_LIMIT_COMPARE = 100
_CTX_LIMIT_CAL_A = 101
_CTX_LIMIT_CAL_B = 102
_CTX_LIMIT_COMPARE_WIN = 103
_CTX_TAIL = 200
_CTX_RLT = 300
_CTX_RISK_BOUND = 400
_CTX_RISK = 500         # + shift index

KINDS = ("identity", "rate", "tail", "rlt", "risk")

TAIL_PROB = 0.01        # survival level at which tail reads its quantile
H_RADIUS = 2.0          # largest local shift of the risk grid, in delta_n units


def ks_statistic(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance of empirical CDFs."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DegenerateSampleError("KS statistic needs nonempty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def hill_estimator(sample, k: int) -> float:
    """Hill tail-index estimate from the top-k order statistics.

    alpha_hat = k / sum_{i=1..k} log(X_(n-i+1) / X_(n-k)) for the tail model
    P(X > t) ~ t^(-alpha).  Scale invariant by construction.
    """
    x = np.asarray(sample, dtype=float)
    if x.size == 0 or np.any(x <= 0.0):
        raise DegenerateSampleError("Hill estimator needs positive observations")
    if not 1 <= k < x.size:
        raise ValueError(f"k={k} out of range 1..{x.size - 1}")
    xs = np.sort(x)
    top = xs[x.size - k:]
    ref = xs[x.size - k - 1]
    denom = float(np.log(top / ref).sum())
    if denom <= 0.0:
        raise DegenerateSampleError("degenerate sample: zero log-excess mass")
    return k / denom


# The acceptance gates, fixed for every config; each name belongs to one kind
# (identity: max_residual; rate: ks_*, min_invertible_frac; tail: hill_abs,
# tail_constant_rel; rlt: bias_rel, naive_vs_mle_factor; risk: bound_sigma).
GATES = {
    "max_residual": 1e-10,
    "ks_cross": 0.08, "ks_limit": 0.10, "ks_calibration": 0.05, "min_invertible_frac": 0.90,
    "hill_abs": 0.07, "tail_constant_rel": 0.25,
    "bias_rel": 0.15, "naive_vs_mle_factor": 3.0,
    "bound_sigma": 3.0,
}


# what a config value of each declared field type may be (bool never counts)
_FIELD_TYPES = {float: (numbers.Real, "a number"), int: (numbers.Integral, "an integer"),
                str: (str, "a string"), tuple: ((list, tuple), "a list of numbers")}


def _check_field(name: str, value, hint) -> None:
    options = typing.get_args(hint)  # Optional[X] -> (X, NoneType)
    types, what = _FIELD_TYPES[options[0] if options else hint]
    ok = isinstance(value, types) and not isinstance(value, bool)
    if ok and types == (list, tuple):
        ok = all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in value)
    if not ok and not (options and value is None):
        raise ValueError(f"config key {name!r} must be {what}"
                         f"{' or null' if options else ''}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, JSON-serializable description of one experiment."""

    kind: str
    sigma: float = 1.0
    basis: str = "sinc"
    x0: float = 0.0
    theta1: float = 0.0
    theta2: tuple = (0.3,)
    horizons: tuple = (1000, 4000)
    dt: float = 1e-2
    replications: int = 1000
    master_seed: int = 1
    window: Optional[tuple] = None
    output: Optional[str] = None
    limit_draws: int = 2000
    target_cycles: int = 5000
    hill_frac: Optional[float] = None
    bound_draws: int = 200_000
    max_waves: int = 8
    block_steps: Optional[int] = None

    def __post_init__(self):
        hints = typing.get_type_hints(type(self))
        for f in dataclasses.fields(self):
            _check_field(f.name, getattr(self, f.name), hints[f.name])
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        # risk's standard error of a mean loss needs two replications
        for key, low in (("replications", 2 if self.kind == "risk" else 1),
                         ("block_steps", 1), ("limit_draws", 1),
                         ("target_cycles", 1), ("max_waves", 1), ("bound_draws", 2)):
            value = getattr(self, key)
            if value is not None and value < low:
                raise ValueError(f"config key {key!r} must be >= {low}, got {value}")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError(f"config key 'master_seed' must lie in [0, 2^64), "
                             f"got {self.master_seed}")
        if self.hill_frac is not None and not 0.0 < self.hill_frac < 1.0:
            raise ValueError(f"config key 'hill_frac' must lie in (0, 1), got {self.hill_frac}")
        hz = tuple(self.horizons)
        # json reads Infinity and NaN, which no comparison below rejects
        for key, values in (("dt", (self.dt,)), ("horizons", hz)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"config key {key!r} must be finite, got {getattr(self, key)}")
        if not hz or any(b <= a for a, b in zip(hz, hz[1:])):
            raise ValueError("horizons must be nonempty and increasing")
        object.__setattr__(self, "horizons", hz)
        object.__setattr__(self, "theta2", tuple(float(v) for v in self.theta2))
        if self.window is not None:
            w = tuple(float(v) for v in self.window)
            if len(w) != 2 or not w[0] < w[1]:
                raise ValueError("window must be a nonempty interval (a, b)")
            if self.kind in ("rate", "risk") and not w[0] < self.x0 < w[1]:
                raise ValueError(f"config key 'window' must contain x0 = {self.x0} "
                                 f"in its interior, got {w}")
            # rate's windowed moment matrix integrates over the window
            if self.kind == "rate" and not all(map(math.isfinite, w)):
                raise ValueError(f"config key 'window' must have finite ends for rate, got {w}")
            object.__setattr__(self, "window", w)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if hz[0] < self.dt:
            raise ValueError(f"config key 'horizons' must be >= dt = {self.dt}, "
                             f"got {hz[0]}")
        # rate and risk norm by n = int(horizon), which must be >= 1
        if self.kind in ("rate", "risk") and hz[0] < 1:
            raise ValueError(f"config key 'horizons' must be >= 1 for {self.kind}, got {hz[0]}")

    def model_spec(self) -> ModelSpec:
        return ModelSpec.from_names(self.sigma, self.basis, self.x0)

    def theta(self) -> ParamVector:
        return ParamVector(self.theta1, self.theta2)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, not {type(data).__name__}")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class ReportRow:
    horizon: Optional[float]
    coord: Optional[int]
    stat_name: str
    value: float
    tolerance: Optional[float] = None
    passed: Optional[bool] = None

    def __post_init__(self):
        # plain python scalars so rows serialize and compare cleanly
        self.horizon = None if self.horizon is None else float(self.horizon)
        self.coord = None if self.coord is None else int(self.coord)
        self.value = float(self.value)
        self.tolerance = None if self.tolerance is None else float(self.tolerance)
        self.passed = None if self.passed is None else bool(self.passed)


@dataclass
class ExperimentReport:
    kind: str
    rows: list
    wall_clock: float = 0.0

    @property
    def overall_pass(self) -> bool:
        return not any(r.passed is False for r in self.rows)

    def find(self, stat_name: str, horizon=None, coord=None) -> list:
        out = []
        for r in self.rows:
            if r.stat_name != stat_name:
                continue
            if horizon is not None and r.horizon != horizon:
                continue
            if coord is not None and r.coord != coord:
                continue
            out.append(r)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "wall_clock": self.wall_clock,
            "overall_pass": self.overall_pass,
            "rows": [dataclasses.asdict(r) for r in self.rows],
        }


class _Fit(typing.NamedTuple):
    """One ensemble run, its line statistics and their ML fits.

    restricted fits the windowed statistics; it is None without a window, and
    stats, mle and restricted are None without statistics (want_stats=False).
    """

    res: EnsembleResult
    stats: Optional[SufficientStats]
    mle: Optional[EstimateResult]
    restricted: Optional[EstimateResult]


def _fit(config, spec, theta, horizon, ctx, first=0, window=None, **kwargs) -> _Fit:
    """The config's replications, run on its dt, seed and block size, and fitted.

    Lanes are replications first, first + 1, ... of stream context ctx.  This
    is the harness's only run_ensemble call, read from the module globals at
    call time, so that rebinding harness.run_ensemble sees every ensemble.
    """
    horizon = float(horizon)
    res = run_ensemble(spec, theta, horizon, config.dt, config.master_seed,
                       config.replications, rep_offset=(ctx << 32) + first, window=window,
                       block_steps=config.block_steps, **kwargs)
    if res.y is None:
        return _Fit(res, None, None, None)
    stats = SufficientStats(y=res.y, j=res.j, t=horizon, x0=spec.x0)
    restricted = None if window is None else restricted_mle(
        SufficientStats(y=res.y_win, j=res.j_win, t=horizon, window=window, x0=spec.x0))
    return _Fit(res, stats, mle(stats), restricted)


def _at_once(pieces, main):
    """(results of pieces, result of main): independent calls run together.

    pieces is a list of calls.  With one worker (n_threads() == 1) main runs
    first in this thread, and then the pieces in order, so an error of main
    shows before any piece has run.  Otherwise each piece runs in a thread of
    its own, while this thread runs main; an error of main then shows only
    after the pieces, which are already running, have finished.  The pieces'
    results come back in their given order, whichever finished first.
    """
    if n_threads() == 1:
        done = main()
        return [call() for call in pieces], done
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max(1, len(pieces))) as threads:
        futures = [threads.submit(call) for call in pieces]
        done = main()
        return [future.result() for future in futures], done


# ---------------------------------------------------------------- identity

def _identity_grid(theta_vec: np.ndarray) -> list:
    p = len(theta_vec)
    alt = np.array([(-1.0) ** i for i in range(p)])
    return [
        theta_vec,
        np.zeros(p),
        theta_vec + 0.2 * np.ones(p),
        theta_vec - 0.15 * alt,
    ]


_IDENTITIES = ("error_representation", "cocycle", "one_step", "local_quadratic")


def _identity_residuals(stats: SufficientStats, theta_hat, theta_vec, delta_n) -> tuple:
    """Largest residual of each of _IDENTITIES over stacked invertible statistics."""
    grid = _identity_grid(theta_vec)

    def worst(resid):
        return float(np.abs(resid).max())

    # theta_hat - g = j^{-1} s(g)
    err = max(worst(theta_hat - g
                    - np.linalg.solve(stats.j, score_at(stats, g)[..., None])[..., 0])
              for g in grid)
    cocycle = max(worst(log_likelihood_ratio(stats, g2, g0)
                        - log_likelihood_ratio(stats, g2, g1)
                        - log_likelihood_ratio(stats, g1, g0))
                  for g0, g1, g2 in (grid[:3], grid[1:]))
    step = max(worst(one_step(stats, prelim).theta_hat - theta_hat)
               for prelim in (np.zeros_like(theta_vec), theta_vec + 1.0))
    h_loc = np.ones_like(theta_vec)
    direct = log_likelihood_ratio(stats, theta_vec + delta_n * h_loc, theta_vec)
    local = (_row_dot(h_loc, delta_n * score_at(stats, theta_vec))
             - _row_dot((0.5 * h_loc) @ (delta_n**2 * stats.j), h_loc))
    return err, cocycle, step, worst(direct - local)


def _identity_rows(config: ExperimentConfig, spec, theta) -> list:
    """Exact algebraic identities of the likelihood machinery.

    Each identity is checked once per horizon over every replication whose J
    passes the gate.  With none passing, the residual rows are NaN and fail.
    One ensemble runs to the last horizon; the earlier ones are its
    checkpoints, which have the bits of runs to them.
    """
    theta_vec = theta.as_array()
    rows = []
    tol = GATES["max_residual"]
    *earlier, last = config.horizons
    fit = _fit(config, spec, theta, last, _CTX_IDENTITY, checkpoint_times=earlier)
    # the earlier horizons are checkpoints of that run, fitted here
    fits = {}
    for h in earlier:
        y, j = fit.res.checkpoints[n_steps_for(h, config.dt) * config.dt]
        stats = SufficientStats(y=y, j=j, t=float(h), x0=spec.x0)
        fits[h] = stats, mle(stats)
    fits[last] = fit.stats, fit.mle
    for horizon, (stats, est) in fits.items():
        _, delta_n = norming(spec, theta, max(1, int(horizon)))
        ok = est.j_invertible
        n_sing = int(np.count_nonzero(~ok))
        if n_sing < len(ok):
            kept = SufficientStats(y=stats.y[ok], j=stats.j[ok], t=stats.t, x0=spec.x0)
            max_res = _identity_residuals(kept, est.theta_hat[ok], theta_vec, delta_n)
        else:
            max_res = (math.nan,) * len(_IDENTITIES)
        for name, val in zip(_IDENTITIES, max_res):
            rows.append(ReportRow(horizon, None, f"max_residual_{name}", val,
                                  tol, val <= tol))
        rows.append(ReportRow(horizon, None, "singular_replications",
                              float(n_sing), None, None))
    return rows


# -------------------------------------------------------------------- rate

def _rate_rows(config: ExperimentConfig, spec, theta) -> list:
    """Rescaled-error stability across horizons and distance to the limit law."""
    if len(config.horizons) < 2:
        raise ValueError("rate experiment needs at least two horizons")
    consts = asymptotic_constants(spec, theta)
    theta_vec = theta.as_array()
    p = 1 + spec.m
    rows = []

    def limit_draws():
        """The limit laws' moment matrices and their draws."""
        lam = mu_moment_matrix(spec, theta)
        law = LimitLawSpec(alpha=consts.alpha, cov=lam)
        draws = [sample_limit_error(law, rng_stream(config.master_seed, ctx),
                                    config.limit_draws)
                 for ctx in (_CTX_LIMIT_COMPARE, _CTX_LIMIT_CAL_A, _CTX_LIMIT_CAL_B)]
        if config.window is None:
            return lam, None, draws, None
        lam_win = mu_moment_matrix(spec, theta, window=config.window)
        law_win = LimitLawSpec(alpha=consts.alpha, cov=lam_win)
        lim_win = sample_limit_error(
            law_win, rng_stream(config.master_seed, _CTX_LIMIT_COMPARE_WIN),
            config.limit_draws)
        return lam, lam_win, draws, lim_win

    fits, (lam, lam_win, (lim, cal_a, cal_b), lim_win) = _at_once(
        [functools.partial(_fit, config, spec, theta, horizon, _CTX_RATE + i,
                           window=config.window)
         for i, horizon in enumerate(config.horizons)],
        limit_draws)
    # sqrt(alpha_n) (theta_hat - theta) of the replications whose line J is
    # invertible, and of those whose windowed J is too; None where there are none
    per_horizon = {}
    for horizon, fit in zip(config.horizons, fits):
        root = math.sqrt(norming(spec, theta, int(horizon))[0])
        ok = fit.mle.j_invertible
        both = ok & fit.restricted.j_invertible if fit.restricted else np.zeros_like(ok)
        per_horizon[horizon] = [(est.theta_hat[m] - theta_vec) * root if m.any() else None
                                for est, m in ((fit.mle, ok), (fit.restricted, both))]
        frac = int(np.count_nonzero(ok)) / config.replications
        rows.append(ReportRow(horizon, None, "invertible_fraction", frac,
                              GATES["min_invertible_frac"],
                              frac >= GATES["min_invertible_frac"]))
    if config.window is not None:
        diff_eigs = np.linalg.eigvalsh(lam - lam_win)
        rows.append(ReportRow(None, None, "moment_matrix_gap_min_eig",
                              float(diff_eigs[0]), 0.0, bool(diff_eigs[0] > 0.0)))

    final = config.horizons[-1]
    for coord in range(p):
        for n_a, n_b in zip(config.horizons, config.horizons[1:]):
            if per_horizon[n_a][0] is None or per_horizon[n_b][0] is None:
                continue
            ks = ks_statistic(per_horizon[n_a][0][:, coord],
                              per_horizon[n_b][0][:, coord])
            rows.append(ReportRow(n_b, coord, "ks_cross_horizon", ks,
                                  GATES["ks_cross"],
                                  ks <= GATES["ks_cross"]))
        for horizon in config.horizons:
            if per_horizon[horizon][0] is None:
                continue
            ks = ks_statistic(per_horizon[horizon][0][:, coord], lim[:, coord])
            gate = horizon == final
            rows.append(ReportRow(horizon, coord, "ks_vs_limit", ks,
                                  GATES["ks_limit"] if gate else None,
                                  ks <= GATES["ks_limit"] if gate else None))
        ks_cal = ks_statistic(cal_a[:, coord], cal_b[:, coord])
        rows.append(ReportRow(None, coord, "ks_calibration", ks_cal,
                              GATES["ks_calibration"],
                              ks_cal <= GATES["ks_calibration"]))
        if config.window is not None:
            errs_win = per_horizon[final][1]
            if errs_win is not None:
                ks = ks_statistic(errs_win[:, coord], lim_win[:, coord])
                rows.append(ReportRow(final, coord, "ks_vs_limit_windowed", ks,
                                      GATES["ks_limit"],
                                      ks <= GATES["ks_limit"]))
            for horizon in config.horizons:
                errs, errs_win = per_horizon[horizon]
                if errs_win is None:
                    continue
                iqr = float(np.subtract(*np.percentile(errs[:, coord], [75, 25])))
                iqr_w = float(np.subtract(*np.percentile(errs_win[:, coord], [75, 25])))
                rows.append(ReportRow(horizon, coord, "iqr_mle", iqr, None, None))
                rows.append(ReportRow(horizon, coord, "iqr_windowed", iqr_w, None, None))
                # one invertible line fit has no spread to compare against
                rows.append(ReportRow(horizon, coord, "iqr_ratio_windowed_over_mle",
                                      iqr_w / iqr if iqr else math.nan, 1.0,
                                      bool(iqr and iqr_w > iqr)))
    return rows


# -------------------------------------------------------------------- tail

def _corrected_survival(t, starts, durs, open_starts, horizon):
    """P(duration > t) over cycles that started early enough to reveal it.

    A cycle started at s <= horizon - t shows whether its duration exceeds t
    by the end of the run even if it never completes, so restricting to such
    cycles removes the completion bias of a fixed horizon.
    """
    cutoff = horizon - t
    eligible_closed = starts <= cutoff
    n_open = int((open_starts <= cutoff).sum())
    n_eligible = int(eligible_closed.sum()) + n_open
    if n_eligible == 0:
        return math.nan
    exceed = int((durs[eligible_closed] > t).sum()) + n_open
    return exceed / n_eligible


def _tail_rows(config: ExperimentConfig, spec, theta) -> list:
    """Life-cycle duration tails: Hill index and the tail constant."""
    consts = asymptotic_constants(spec, theta)
    horizon = float(config.horizons[-1])
    threshold = scale_inverse(spec, theta, 1.0)
    rows = []

    starts, durs, open_starts = [], [], []
    for wave in range(config.max_waves):
        fit = _fit(config, spec, theta, horizon, _CTX_TAIL, wave * config.replications,
                   want_stats=False, want_cycles=True, threshold=threshold)
        for r in fit.res.r_times:
            if r.size >= 1:
                open_starts.append(r[-1])
            if r.size >= 2:
                starts.append(r[:-1])
                durs.append(np.diff(r))
        if sum(d.size for d in durs) >= config.target_cycles:
            break
    durs_all = np.concatenate(durs) if durs else np.array([])
    starts_all = np.concatenate(starts) if starts else np.array([])
    open_all = np.array(open_starts)
    n = durs_all.size
    rows.append(ReportRow(horizon, None, "completed_cycles", float(n),
                          float(config.target_cycles), n >= config.target_cycles))
    rows.append(ReportRow(horizon, None, "crossing_threshold", threshold, None, None))
    if n < max(16, int(math.sqrt(config.target_cycles))):
        rows.append(ReportRow(horizon, None, "tail_flags_insufficient", 1.0, 0.0, False))
        return rows

    if config.hill_frac is not None:
        k = int(config.hill_frac * n)
    else:
        k = int(math.ceil(math.sqrt(n)))
    if k < 1:
        # hill_frac * n < 1 leaves no order statistic to fit
        rows.append(ReportRow(horizon, None, "hill_k_below_one", config.hill_frac * n,
                              1.0, False))
    else:
        try:
            alpha_hat = hill_estimator(durs_all, k)
            tol = GATES["hill_abs"]
            rows.append(ReportRow(horizon, None, "hill_alpha", alpha_hat, tol,
                                  abs(alpha_hat - consts.alpha) <= tol))
            rows.append(ReportRow(horizon, None, "hill_k", float(k), None, None))
        except DegenerateSampleError:
            rows.append(ReportRow(horizon, None, "hill_degenerate", 1.0, 0.0, False))

    # tail quantile from the completion-corrected survival curve
    uniq = np.unique(durs_all)
    grid = uniq[max(0, uniq.size - max(64, uniq.size // 5)):]
    surv = np.array([
        _corrected_survival(t, starts_all, durs_all, open_all, horizon)
        for t in grid
    ])
    valid = ~np.isnan(surv)
    below = valid & (surv <= TAIL_PROB)
    if below.any():
        idx = int(np.argmax(below))
        t_q = float(grid[idx])
        p_hat = float(surv[idx])
        c_hat = t_q**consts.alpha * p_hat
        c_theory = (1.0 / math.gamma(consts.alpha)
                    * (1.0 / (2.0 * spec.sigma**2)) ** consts.alpha
                    * 2.0 * (consts.psi_plus + consts.psi_minus))
        rel = GATES["tail_constant_rel"]
        rows.append(ReportRow(horizon, None, "tail_quantile_t", t_q, None, None))
        rows.append(ReportRow(horizon, None, "tail_constant", c_hat,
                              c_theory * rel,
                              abs(c_hat - c_theory) <= rel * c_theory))
        rows.append(ReportRow(horizon, None, "tail_constant_theory", c_theory,
                              None, None))
    else:
        rows.append(ReportRow(horizon, None, "tail_quantile_unreached", 1.0, 0.0,
                              False))
    return rows


# --------------------------------------------------------------------- rlt

def _rlt_rows(config: ExperimentConfig, spec, theta) -> list:
    """Occupation-ratio convergence and the one-dimensional estimator's bias."""
    if spec.m < 1:
        raise ValueError("ratio-limit experiment needs at least one secondary direction")
    horizon = float(config.horizons[-1])
    checkpoints = tuple(horizon / 10**k for k in reversed(range(0, 4))
                        if horizon / 10**k >= 10 * config.dt)
    fit = _fit(config, spec, theta, horizon, _CTX_RLT, checkpoint_times=checkpoints)
    rows = []
    for t_ck in sorted(fit.res.checkpoints):
        _, j_ck = fit.res.checkpoints[t_ck]
        rows.append(ReportRow(t_ck, None, "b_check_lane0",
                              _ratio_bias(j_ck[0], theta.theta2), None, None))
    terminal_b = np.array([_ratio_bias(j, theta.theta2) for j in fit.stats.j])
    predicted = _ratio_bias(mu_moment_matrix(spec, theta), theta.theta2)
    med_b = float(np.median(terminal_b))
    rel = GATES["bias_rel"]
    rows.append(ReportRow(horizon, None, "b_check_terminal_median", med_b,
                          rel, abs(med_b - predicted) <= rel * abs(predicted)))
    rows.append(ReportRow(horizon, None, "b_check_predicted", predicted, None, None))

    naive_dev = np.abs(naive_estimator(fit.stats) - theta.theta1)
    mle_dev = np.abs(fit.mle.theta_hat[fit.mle.j_invertible, 0] - theta.theta1)
    factor = GATES["naive_vs_mle_factor"]
    med_naive = float(np.median(naive_dev))
    med_mle = float(np.median(mle_dev))
    ratio = med_naive / med_mle if med_mle > 0 else math.inf
    rows.append(ReportRow(horizon, None, "naive_median_deviation", med_naive,
                          None, None))
    rows.append(ReportRow(horizon, None, "mle_median_first_coord_error", med_mle,
                          None, None))
    rows.append(ReportRow(horizon, None, "naive_over_mle_ratio", ratio,
                          factor, ratio > factor))
    return rows


# -------------------------------------------------------------------- risk

def _h_grid(p: int) -> list:
    pts = [np.zeros(p)]
    for axis in range(p):
        for scale in (H_RADIUS / 2.0, H_RADIUS):
            for sign in (1.0, -1.0):
                h = np.zeros(p)
                h[axis] = sign * scale
                pts.append(h)
    return pts


def _risk_rows(config: ExperimentConfig, spec, theta) -> list:
    """Local-shift risk of the ML estimator against the limit-law bound."""
    consts = asymptotic_constants(spec, theta)
    horizon = float(config.horizons[-1])
    _, delta_n = norming(spec, theta, int(horizon))
    loss = make_loss("sqclip")
    rows = []

    def risk_bound():
        """The risk bound and its standard error, over draws of the limit law."""
        sigma_mat = information_scale_matrix(spec, theta)
        law = LimitLawSpec(alpha=consts.alpha, cov=sigma_mat)
        return monte_carlo_risk(law, loss, config.bound_draws,
                                rng_stream(config.master_seed, _CTX_RISK_BOUND))

    theta_vec = theta.as_array()
    shifts = [theta_vec + delta_n * h for h in _h_grid(len(theta_vec))]
    inside = [i for i, v in enumerate(shifts)
              if theta_in_domain(spec, ParamVector.from_array(v))]
    fits, (bound, bound_se) = _at_once(
        [functools.partial(_fit, config, spec, ParamVector.from_array(shifts[i]), horizon,
                           _CTX_RISK + i, window=config.window) for i in inside],
        risk_bound)
    at_h = dict(zip(inside, fits))
    rows.append(ReportRow(None, None, "risk_bound", bound, None, None))
    rows.append(ReportRow(None, None, "risk_bound_stderr", bound_se, None, None))

    sup_mle, sup_win = -math.inf, -math.inf
    se_at_sup = 0.0
    for h_index in range(len(shifts)):
        if h_index not in at_h:
            rows.append(ReportRow(horizon, h_index, "h_point_dropped", 1.0, None, None))
            continue
        fit = at_h[h_index]
        losses_mle = loss((fit.mle.theta_hat - shifts[h_index]) / delta_n)
        risk = float(np.mean(losses_mle))
        se = float(np.std(losses_mle, ddof=1) / math.sqrt(len(losses_mle)))
        rows.append(ReportRow(horizon, h_index, "risk_mle_at_h", risk, None, None))
        if risk > sup_mle:
            sup_mle, se_at_sup = risk, se
        if fit.restricted is not None:
            risk_w = float(np.mean(loss((fit.restricted.theta_hat - shifts[h_index]) / delta_n)))
            rows.append(ReportRow(horizon, h_index, "risk_windowed_at_h", risk_w, None, None))
            sup_win = max(sup_win, risk_w)

    dropped = len(shifts) - len(inside)
    rows.append(ReportRow(horizon, None, "dropped_h_points", float(dropped), None, None))
    rows.append(ReportRow(horizon, None, "sup_risk_mle", sup_mle, None, None))
    se_comb = math.sqrt(bound_se**2 + se_at_sup**2)
    z = (sup_mle - bound) / se_comb if se_comb > 0 else math.inf
    n_sigma = GATES["bound_sigma"]
    rows.append(ReportRow(horizon, None, "bound_respected_zscore", z, -n_sigma, z >= -n_sigma))
    rows.append(ReportRow(horizon, None, "excess_over_bound_rel",
                          (sup_mle - bound) / bound if bound else math.nan,
                          None, None))
    if config.window is not None and math.isfinite(sup_win):
        rows.append(ReportRow(horizon, None, "sup_risk_windowed", sup_win, None, None))
        rows.append(ReportRow(horizon, None, "risk_ordering_gap",
                              sup_win - sup_mle, 0.0, sup_win >= sup_mle))
    return rows


_ROWS = {
    "identity": _identity_rows,
    "rate": _rate_rows,
    "tail": _tail_rows,
    "rlt": _rlt_rows,
    "risk": _risk_rows,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one experiment; its rows are deterministic given the config.

    Its ensembles share one pool of n_threads() worker processes, which is
    joined before this returns.
    """
    t_start = time.perf_counter()
    spec, theta = config.model_spec(), config.theta()
    if _drift_terms(spec, theta):
        _c_step_for(spec)  # loaded before the pool forks, its workers inherit it
    with _worker_pool(n_threads()):
        rows = _ROWS[config.kind](config, spec, theta)
    return ExperimentReport(config.kind, rows, time.perf_counter() - t_start)
