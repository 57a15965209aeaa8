"""Samplers for the limit objects: one-sided stable laws, Mittag-Leffler
variables, and the mixed-normal estimation-error limits.

The one-sided stable variable S with index a in (0,1) is drawn through the
Kanter representation

    S = (A(U)/E)^((1-a)/a),
    A(u) = sin((1-a)u) sin(au)^(a/(1-a)) / sin(u)^(1/(1-a)),

U uniform on (0, pi), E unit exponential, normalized so that
E exp(-z S) = exp(-z^a) with no extra scale or location (classical
parametrizations differ by a scale factor; this one has none).  The
Mittag-Leffler variable is V = (1/S)^a, and the limit error with covariance
matrix C is C^(-1/2) G / sqrt(V) with G standard normal, equal in law to
C^(-1/2) B(V)/V for a Brownian motion B independent of V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulate import lane_rng

__all__ = [
    "LimitLawSpec",
    "sample_stable",
    "sample_mittag_leffler",
    "sample_limit_error",
    "inv_sqrt_spd",
    "make_loss",
    "monte_carlo_risk",
    "rng_stream",
]


def rng_stream(seed: int, ctx: int = 0, k: int = 0) -> np.random.Generator:
    """Independent Philox stream for (seed, context, replication)."""
    return lane_rng(seed, (ctx << 32) + k)


@dataclass(frozen=True)
class LimitLawSpec:
    """Index and covariance of a mixed-normal limit C^(-1/2) B(V^a)/V^a."""

    alpha: float
    cov: np.ndarray

    def __post_init__(self):
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "cov", cov)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        if not np.allclose(cov, cov.T, rtol=1e-10, atol=1e-12):
            raise ValueError("covariance must be symmetric")

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


def sample_stable(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size,) draws of the one-sided stable law with E exp(-z S) = exp(-z^alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n = int(size)
    u = rng.uniform(0.0, np.pi, n)
    w = rng.standard_exponential(n)
    u[u == 0.0] = np.pi / 2  # measure-zero guard against 0/0
    a = (np.sin((1.0 - alpha) * u)
         * np.sin(alpha * u) ** (alpha / (1.0 - alpha))
         / np.sin(u) ** (1.0 / (1.0 - alpha)))
    s = (a / w) ** ((1.0 - alpha) / alpha)
    return s


def sample_mittag_leffler(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size,) Mittag-Leffler draws via the identity V = (1/S)^alpha."""
    s = sample_stable(alpha, rng, size=size)
    return (1.0 / s) ** alpha


def inv_sqrt_spd(cov: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a symmetric positive-definite matrix."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    w, v = np.linalg.eigh(cov)
    if w[0] <= 0.0:
        raise ValueError("covariance is not positive definite")
    return v @ np.diag(w ** -0.5) @ v.T


def sample_limit_error(law: LimitLawSpec, rng: np.random.Generator, size: int):
    """(size, dim) draws of C^(-1/2) B(V)/V: Gaussian scale mixture over V."""
    n = int(size)
    root = inv_sqrt_spd(law.cov)
    v = sample_mittag_leffler(law.alpha, rng, size=n)
    g = rng.standard_normal((n, law.dim))
    return (g @ root) / np.sqrt(v)[:, None]


def make_loss(name: str, clip: float = 4.0):
    """Bounded subconvex losses on squared length: min(|x|^2, clip) or 1-exp(-|x|^2).

    clip must be finite and positive, whichever the loss.
    """
    if not (math.isfinite(clip) and clip > 0):
        raise ValueError(f"clip must be finite and positive, got {clip}")
    if name == "sqclip":
        def loss(x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            return np.minimum((x * x).sum(axis=1), clip)
    elif name == "exp":
        def loss(x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            return 1.0 - np.exp(-(x * x).sum(axis=1))
    else:
        raise ValueError(f"unknown loss {name!r}")
    return loss


def monte_carlo_risk(law: LimitLawSpec, loss, n: int, rng: np.random.Generator):
    """Monte Carlo estimate (value, stderr) of E loss(Z) under the limit law."""
    if n < 2:
        raise ValueError("need at least two draws")
    z = sample_limit_error(law, rng, size=n)
    vals = loss(z)
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n))
    return est, stderr
