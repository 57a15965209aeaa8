"""Output checks, made apart from the program.

Each check is one operation of a round.  It returns ``(ok, detail)``.  The
independent computations here use only numpy and scipy: Philox streams keyed
as the package documents them, an Euler loop, a crossing state machine and
the quadrature oracle in oracle.py.  None of them compares against a stored
copy of a report.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import binom

import oracle
from workloads import CHECK_HORIZON, CHECK_LANES

# Tolerance of the re-simulation against the program: the two Euler loops
# evaluate sinc differently (sin(x)/x here, np.sinc(x/pi) there), so paths
# part by rounding (relative 1e-16 after 1e4 steps).  Compared per sum of |terms|.
RESIM_RTOL = 1e-11
# Documented accuracy of the oscillatory moment integrals (README, "Notes on
# numerics"): "accurate to about 1e-5".
ORACLE_ATOL = 1e-5
# Level of the statistical checks; each is set from its sample size.
STAT_LEVEL = 1e-6


# ------------------------------------------------------------ independent copies

def philox_normals(seed: int, lane: int, n: int) -> np.ndarray:
    """Standard normals of lane `lane`: Philox keyed by (seed, lane)."""
    key = np.array([seed, lane], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n)


def _sinc(x):
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


def _f1(x):
    return x / (1.0 + x * x)


def euler_paths(seed, ctx, lanes, n_steps, dt, sigma, x0, theta1, theta2):
    """Paths of lanes 0..lanes-1 of context ctx for the sinc basis, shape (lanes, n+1)."""
    z = np.stack([philox_normals(seed, (ctx << 32) | k, n_steps) for k in range(lanes)])
    z *= sigma * math.sqrt(dt)
    x = np.empty((lanes, n_steps + 1))
    x[:, 0] = x0
    for k in range(n_steps):
        xk = x[:, k]
        x[:, k + 1] = xk + (theta1 * _f1(xk) + theta2 * _sinc(xk)) * dt + z[:, k]
    return x


def path_stats(x, dt, sigma, n_steps, window=None):
    """(y, j) over the first n_steps steps by the left-point rule, with |term| sums."""
    xl = x[:, :n_steps]
    dx = x[:, 1:n_steps + 1] - xl
    psi = [_f1(xl), _sinc(xl)]
    if window is not None:
        inside = (xl >= window[0]) & (xl <= window[1])
        psi = [v * inside for v in psi]
    y = np.stack([(v * dx).sum(axis=1) for v in psi], axis=1) / sigma**2
    y_abs = np.stack([np.abs(v * dx).sum(axis=1) for v in psi], axis=1) / sigma**2
    j = np.empty((x.shape[0], 2, 2))
    j_abs = np.empty_like(j)
    for a in range(2):
        for b in range(2):
            j[:, a, b] = (psi[a] * psi[b]).sum(axis=1) * dt / sigma**2
            j_abs[:, a, b] = np.abs(psi[a] * psi[b]).sum(axis=1) * dt / sigma**2
    return (y, y_abs), (j, j_abs)


def _close(got, want_abs, what):
    want, scale = want_abs
    err = np.abs(np.asarray(got) - want)
    bad = err > RESIM_RTOL * (scale + 1e-300)
    if bad.any():
        return f"{what}: max error {err.max():.3e} against |terms| {scale.max():.3e}"
    return None


def _upper(j_abs):
    """Upper triangle only: checkpoint snapshots of J leave the lower one zero
    (a fault listed in CHANGES.md), so only the filled part is compared."""
    return tuple(np.triu(a) for a in j_abs)


def crossing_times(path, threshold, dt):
    """Alternating scan: above threshold, then below zero; grid index k -> k*dt."""
    times = []
    above = False
    for k in range(1, len(path)):
        if not above:
            above = path[k] > threshold
        elif path[k] < 0.0:
            above = False
            times.append(k * dt)
    return np.array(times)


# ------------------------------------------------------------------- checks

class Round:
    """What one round leaves for its checks: config, report files, captured calls."""

    def __init__(self, config, ctx, files, capture, n_threads, child_cpu_s):
        self.config = config
        self.ctx = ctx
        self.json_path, self.csv_path = (Path(f) for f in files)
        self.report = json.loads(self.json_path.read_text(encoding="utf-8"))
        self.capture = capture
        self.n_threads = n_threads
        self.child_cpu_s = child_cpu_s
        self.check_horizon = min(float(config.horizons[0]), CHECK_HORIZON)
        self.check_steps = int(math.floor(self.check_horizon / config.dt + 1e-9))
        self._paths = None

    def rows(self, name):
        return [r for r in self.report["rows"] if r["stat_name"] == name]

    def paths(self):
        """Own Euler paths of the checked lanes, to the check horizon."""
        if self._paths is None:
            cfg = self.config
            self._paths = euler_paths(cfg.master_seed, self.ctx, CHECK_LANES,
                                      self.check_steps, cfg.dt, cfg.sigma, cfg.x0,
                                      cfg.theta1, cfg.theta2[0])
        return self._paths


def report_files(rnd: Round):
    """The CSV holds the JSON report's rows, value for value."""
    with rnd.csv_path.open(newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    rows = rnd.report["rows"]
    if lines[0] != ["horizon", "coord", "stat_name", "value", "tolerance", "pass"]:
        return False, f"csv header {lines[0]}"
    if len(lines) - 1 != len(rows) or not rows:
        return False, f"csv has {len(lines) - 1} rows, json {len(rows)}"
    for line, row in zip(lines[1:], rows):
        if line[2] != row["stat_name"] or float(line[3]) != row["value"]:
            return False, f"csv row {line} differs from {row}"
    return True, f"{len(rows)} rows"


def resim_stats(rnd: Round):
    """(y, J), windowed (y, J) and a mid-run checkpoint against an own Euler loop.

    Compares a separate run_ensemble call and the experiment's own ensemble.
    """
    from nullrec.simulate import run_ensemble

    cfg = rnd.config
    h, n = rnd.check_horizon, rnd.check_steps
    half = n // 2
    res = run_ensemble(cfg.model_spec(), cfg.theta(), h, cfg.dt, cfg.master_seed,
                       CHECK_LANES, rep_offset=rnd.ctx << 32, window=cfg.window,
                       checkpoint_times=(half * cfg.dt,), threads=1)
    x = rnd.paths()
    y, j = path_stats(x, cfg.dt, cfg.sigma, n)
    yh, jh = path_stats(x, cfg.dt, cfg.sigma, half)
    (ck_t, (ck_y, ck_j)), = res.checkpoints.items()
    problems = [
        _close(res.y, y, "y"), _close(res.j, j, "J"),
        _close(ck_y, yh, f"checkpoint y @ {ck_t}"),
        _close(np.triu(ck_j), _upper(jh), f"checkpoint J @ {ck_t}"),
    ]
    if cfg.window is not None:
        yw, jw = path_stats(x, cfg.dt, cfg.sigma, n, cfg.window)
        problems += [_close(res.y_win, yw, "windowed y"), _close(res.j_win, jw, "windowed J")]

    # the same lanes inside the timed experiment, at its horizon or a checkpoint
    for call, ens in rnd.capture.ensembles:
        if call.get("rep_offset") != rnd.ctx << 32:
            continue
        if abs(call["horizon"] - h) < 1e-9:
            ey, ej = ens.y, ens.j
            if cfg.window is not None:
                problems += [_close(ens.y_win[:CHECK_LANES], yw, "experiment windowed y"),
                             _close(ens.j_win[:CHECK_LANES], jw, "experiment windowed J")]
        else:
            t = min(ens.checkpoints, key=lambda c: abs(c - h))
            if abs(t - h) > 1e-9:
                return False, f"experiment has no checkpoint at {h}"
            ey, ej = ens.checkpoints[t]
            ej, j = np.triu(ej), _upper(j)
        problems += [_close(ey[:CHECK_LANES], y, "experiment y"),
                     _close(ej[:CHECK_LANES], j, "experiment J")]
        break
    else:
        return False, "experiment made no ensemble call on the checked context"
    problems = [p for p in problems if p]
    return (not problems), "; ".join(problems) or f"{CHECK_LANES} lanes x {n} steps"


def mle_vs_solve(rnd: Round):
    """mle on re-simulated lanes equals numpy.linalg.solve(J, y)."""
    from nullrec.estimators import mle
    from nullrec.simulate import SufficientStats

    cfg = rnd.config
    (y, _), (j, _) = path_stats(rnd.paths(), cfg.dt, cfg.sigma, rnd.check_steps)
    for k in range(CHECK_LANES):
        est = mle(SufficientStats(y=y[k], j=j[k], t=rnd.check_horizon))
        want = np.linalg.solve(j[k], y[k])
        tol = 1e-12 * np.linalg.cond(j[k]) * (np.abs(want).max() + 1.0)
        if not est.j_invertible or np.abs(est.theta_hat - want).max() > tol:
            return False, f"lane {k}: mle {est.theta_hat} vs solve {want}"
    return True, f"{CHECK_LANES} lanes"


def identity_residuals(rnd: Round):
    """Every max_residual_* row is <= 1e-10: the identities hold exactly."""
    rows = [r for r in rnd.report["rows"] if r["stat_name"].startswith("max_residual_")]
    if len(rows) != 4 * len(rnd.config.horizons):
        return False, f"{len(rows)} residual rows"
    worst = max(rows, key=lambda r: r["value"])
    return worst["value"] <= 1e-10, f"worst {worst['stat_name']} = {worst['value']:.2e}"


def ks_calibration(rnd: Round):
    """Two independent limit-law samples: KS distance below its 1e-6 critical value."""
    n = rnd.config.limit_draws
    crit = math.sqrt(-math.log(STAT_LEVEL / 2) / 2) * math.sqrt(2.0 / n)
    rows = rnd.rows("ks_calibration")
    vals = [r["value"] for r in rows]
    ok = len(rows) == 1 + len(rnd.config.theta2) and all(0.0 < v <= crit for v in vals)
    return ok, f"ks {vals} against critical {crit:.4f}"


def moment_gap(rnd: Round):
    """The windowed moment matrix is dominated by the full one."""
    rows = rnd.rows("moment_matrix_gap_min_eig")
    return len(rows) == 1 and rows[0]["value"] > 0.0, f"{rows}"


def _oracle(rnd: Round, window):
    key = oracle.case_key(rnd.config.theta2, window)
    want = oracle.load()[key]
    got = [m for w, m in rnd.capture.moment_matrices if w == window]
    if not got:
        return False, f"no mu_moment_matrix call for {key}"
    err = np.abs(got[0] - want)
    return bool(err.max() <= ORACLE_ATOL), (
        f"{key}: max error {err.max():.2e} (entry {np.unravel_index(err.argmax(), err.shape)}) "
        f"against {ORACLE_ATOL:g}")


def oracle_line(rnd: Round):
    """mu_moment_matrix over the whole line against the panel oracle."""
    return _oracle(rnd, None)


def oracle_window(rnd: Round):
    """mu_moment_matrix over the window against the panel oracle."""
    return _oracle(rnd, rnd.config.window)


def workers(rnd: Round):
    """The replications ran in two worker processes."""
    ok = rnd.n_threads == 2 and rnd.child_cpu_s > 0.05
    return ok, f"n_threads() = {rnd.n_threads}, worker CPU {rnd.child_cpu_s:.2f} s"


def median_band(rnd: Round):
    """b_check's terminal median against the prediction, in a band set by the sample size.

    The band is the distribution-free confidence interval for the median at
    level 1 - 1e-6: order statistics l and R-1-l of the R terminal values,
    with l from Binomial(R, 1/2).  It is wide enough for the finite-horizon
    bias of the ratio (about +0.03 at horizon 1000).
    """
    med = rnd.rows("b_check_terminal_median")[0]["value"]
    pred = rnd.rows("b_check_predicted")[0]["value"]
    (_, ens), = rnd.capture.ensembles
    theta2 = np.asarray(rnd.config.theta2)
    b = np.sort(ens.j[:, 0, 1:] @ theta2 / ens.j[:, 0, 0])
    r = b.size
    lo = int(binom.ppf(STAT_LEVEL / 2, r, 0.5))
    ok = abs(float(np.median(b)) - med) <= 1e-12 * abs(med) and b[lo] <= pred <= b[r - 1 - lo]
    return ok, f"median {med:.4f}, predicted {pred:.4f}, band [{b[lo]:.4f}, {b[r - 1 - lo]:.4f}]"


def crossing_scan(rnd: Round):
    """Crossing times of stored paths, by an own state machine, equal run_ensemble's.

    The first lanes of the experiment's context are stored to a shorter
    horizon; the timed experiment's crossings up to it must agree too.
    """
    from nullrec.simulate import run_ensemble

    cfg = rnd.config
    lanes, h = 4, 200.0
    res = run_ensemble(cfg.model_spec(), cfg.theta(), h, cfg.dt, cfg.master_seed, lanes,
                       rep_offset=rnd.ctx << 32, want_stats=False, want_cycles=True,
                       store_path=True, threads=1)
    (_, ens), = rnd.capture.ensembles
    n = res.paths.shape[1] - 1
    total = 0
    for k in range(lanes):
        steps = philox_normals(cfg.master_seed, (rnd.ctx << 32) | k, n)
        own_path = cfg.x0 + np.concatenate([[0.0], np.cumsum(steps * cfg.sigma * math.sqrt(cfg.dt))])
        if np.abs(res.paths[k] - own_path).max() > 1e-9:
            return False, f"lane {k}: stored path differs from the Philox cumsum"
        own = crossing_times(res.paths[k], 1.0, cfg.dt)
        timed = ens.r_times[k][ens.r_times[k] <= h]
        if not (np.array_equal(own, res.r_times[k]) and np.array_equal(own, timed)):
            return False, f"lane {k}: crossings {own[:5]} vs {res.r_times[k][:5]}, {timed[:5]}"
        total += own.size
    return True, f"{total} crossings on {lanes} lanes"


def threshold(rnd: Round):
    """S(x) = x when theta = 0, so the crossing threshold S^-1(1) is 1."""
    rows = rnd.rows("crossing_threshold")
    return len(rows) == 1 and abs(rows[0]["value"] - 1.0) <= 1e-9, f"{rows}"


def cycle_order(rnd: Round):
    """Crossing times increase, durations are positive, and the count matches the report."""
    (_, ens), = rnd.capture.ensembles
    completed = 0
    for times in ens.r_times:
        if times.size and (times[0] <= 0.0 or np.any(np.diff(times) <= 0.0)):
            return False, f"times not increasing: {times[:5]}"
        completed += max(0, times.size - 1)
    reported = rnd.rows("completed_cycles")[0]["value"]
    return completed == reported, f"{completed} cycles, report {reported:g}"


CHECKS = {
    "rate": (report_files, resim_stats, mle_vs_solve, ks_calibration, moment_gap,
             oracle_line, oracle_window, workers),
    "tail": (report_files, crossing_scan, threshold, cycle_order),
    "identity": (report_files, resim_stats, mle_vs_solve, identity_residuals),
    "rlt": (report_files, resim_stats, mle_vs_solve, median_band, oracle_line),
}

# Fails on every run because of the quadrature fault in nullrec.model.mu_integral
# (see CHANGES.md); counted as failed, not as incorrect.
KNOWN_FAULTS = {"oracle_line"}
