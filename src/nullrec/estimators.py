"""Estimators built on the sufficient statistics (y, j).

All of them are linear algebra on a SufficientStats record: the
maximum-likelihood solve j theta = y behind a positive-definiteness gate, the
same solve on window-restricted statistics, the one-dimensional ratio
estimator for the principal parameter (inconsistent when secondary drift is
present), the quadratic log-likelihood-ratio surface, and the one-step
correction, which reproduces the ML estimate exactly whenever the gate
passes.  Each takes one record or R stacked ones, and gives every stacked
row the bits of the per-record call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DegenerateWindowError
from .simulate import SufficientStats, _param_of, score_at

__all__ = [
    "EstimateResult",
    "EPS_PD",
    "mle",
    "restricted_mle",
    "naive_estimator",
    "log_likelihood_ratio",
    "one_step",
]

# Relative eigenvalue floor for the positive-definite gate: the exact-arithmetic
# indicator 1{j strictly positive definite} needs a tolerance in floating point.
EPS_PD = 1e-10


@dataclass
class EstimateResult:
    """One estimate, or R of them from stacked statistics.

    For stacked statistics theta_hat is (R, p) and j_invertible and
    conditioning are (R,) arrays; for one record they are a bool and a float.
    """

    theta_hat: np.ndarray
    j_invertible: bool | np.ndarray
    conditioning: float | np.ndarray


def _gated_solve(j: np.ndarray, rhs: np.ndarray):
    """Solve j x = rhs through an eigendecomposition with the D+ gate.

    j is (p, p) or stacked (R, p, p), rhs (p,) or (R, p).  Returns the
    solutions (zero where the gate fails), the gate verdicts and the smallest
    eigenvalues.  The gate fails when the smallest eigenvalue is not above
    EPS_PD * trace / dim.
    """
    w, v = np.linalg.eigh(j)
    w_min = w[..., 0]
    passed = w_min > EPS_PD * np.trace(j, axis1=-2, axis2=-1) / j.shape[-1]
    # gated rows may divide by a zero eigenvalue; they are zeroed below
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = (np.swapaxes(v, -1, -2) @ rhs[..., None]) / w[..., None]
        sol = (v @ coef)[..., 0]
    return np.where(passed[..., None], sol, 0.0), passed, w_min


def _result(stats: SufficientStats, theta_hat, passed, w_min) -> EstimateResult:
    """EstimateResult with python scalar gate and conditioning for one record."""
    if stats.y.ndim == 1:
        passed, w_min = bool(passed), float(w_min)
    return EstimateResult(theta_hat=theta_hat, j_invertible=passed, conditioning=w_min)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcast over the leading ones.

    Stacked matmul gives each row the bits of the per-record a @ b; the
    gemv of an (R, p) @ (p,) product does not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def mle(stats: SufficientStats) -> EstimateResult:
    """ML estimate 1{j in D+} j^{-1} y; zero vector when the gate fails."""
    return _result(stats, *_gated_solve(stats.j, stats.y))


def restricted_mle(stats: SufficientStats) -> EstimateResult:
    """ML solve on window-restricted statistics.

    The window must be present, and the starting point stats.x0 must lie in
    its interior.
    """
    if stats.window is None:
        raise DegenerateWindowError("restricted estimator needs windowed statistics")
    a, b = stats.window
    if not a < stats.x0 < b:
        raise DegenerateWindowError(
            f"starting point {stats.x0} is not interior to the window [{a}, {b}]"
        )
    return mle(stats)


def _ratio_bias(matrix: np.ndarray, theta2) -> float:
    """sum_nu t2_nu m_{1,nu+1} / m_11: the secondary drift's share of y_1/j_11.

    With m the moment matrix mu(psi psi^T) this is the ratio estimate's
    almost-sure bias; with m a path's j it is that path's finite-time value.
    """
    return float(np.asarray(theta2, dtype=float) @ matrix[0, 1:] / matrix[0, 0])


def naive_estimator(stats: SufficientStats):
    """One-dimensional ratio estimate y_1/j_11 of the principal parameter.

    For stacked statistics the estimate is an (R,) array, else a float.  Its
    almost-sure bias, _ratio_bias of the moment matrix, is rlt's
    b_check_predicted row.
    """
    j11 = stats.j[..., 0, 0]
    if np.any(j11 <= 0.0):
        raise DegenerateSampleError("j_11 must be positive for the ratio estimate")
    theta_check = stats.y[..., 0] / j11
    return float(theta_check) if stats.y.ndim == 1 else theta_check


def log_likelihood_ratio(stats: SufficientStats, theta_prime, theta):
    """Quadratic log-likelihood ratio of theta_prime against theta.

    A float for one record, an (R,) array for stacked statistics.
    """
    d = _param_of(stats, theta_prime) - _param_of(stats, theta)
    llr = _row_dot(d, score_at(stats, theta)) - _row_dot((0.5 * d) @ stats.j, d)
    return float(llr) if stats.y.ndim == 1 else llr


def one_step(stats: SufficientStats, preliminary) -> EstimateResult:
    """One-step correction T + 1{j in D+} j^{-1}(y - j T).

    Equals the ML estimate whenever the gate passes; returns the preliminary
    value unchanged (rather than the zero-vector convention of the plain ML
    definition) where it does not.  One preliminary (p,) serves every record
    of stacked statistics.
    """
    prelim = _param_of(stats, preliminary)
    if not np.isfinite(prelim).all():
        raise ValueError("preliminary estimate must be finite")
    sol, passed, w_min = _gated_solve(stats.j, score_at(stats, prelim))
    return _result(stats, np.where(passed[..., None], prelim + sol, prelim), passed, w_min)
