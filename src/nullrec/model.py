"""Model definition, scale function, invariant density and asymptotic constants.

The diffusion is dX_t = (t1*f1 + sum_nu t2_nu*f_{2,nu})(X_t) dt + sigma dW_t
with f1(x) = x/(1+x^2).  The principal parameter t1 ranges over the open
interval (-sigma^2/2, sigma^2/2), on which the process is null recurrent; the
secondary parameters are unconstrained.  Everything here is a deterministic
function of (model, parameter): drift values, the scale function S and its
inverse, the invariant density, the tail index alpha, the weights Psi+/Psi-
and D, norming sequences, and moment matrices of the invariant measure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn

from .basis import DriftBasis, make_basis, principal_f1
from .errors import DegenerateWindowError, ParameterDomainError, QuadratureError

__all__ = [
    "ParamVector",
    "ModelSpec",
    "AsymptoticConstants",
    "eval_drift",
    "antiderivative_F",
    "scale_function",
    "scale_inverse",
    "invariant_density",
    "asymptotic_constants",
    "norming",
    "mu_integral",
    "mu_moment_matrix",
    "information_scale_matrix",
    "classify_recurrence",
    "require_valid_theta",
    "theta_in_domain",
]

# Error bound on every moment, for mu_integral and each mu_moment_matrix entry.
_MU_TOL = 1e-8

# Moment matrix rule: Gauss-Kronrod (10, 21) panels aligned to 2*pi, one
# period of sinc and of every fourier-<L> term, over [-R, R]; beyond, the
# asymptotic density (_ray_tail).  Working arrays stay near 2 MiB.
_PANEL = 2.0 * math.pi
_R = 8192 * _PANEL
_MAX_BISECT = 12
_CHUNK_BYTES = 2 << 20
_EPS = np.finfo(float).eps
_GK_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
          0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
          0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
          0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
          0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_GK_WK_HALF = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
               0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
               0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
               0.123491976262065851077982263200981, 0.134709217311473325928054001771707,
               0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_GK_WK_MID = 0.149445554002916905664936468389821
# 10-point Gauss weights at the odd Kronrod nodes 1, 3, ..., 9
_GK_WG_HALF = (0.0, 0.066671344308688137593568809893332, 0.0,
               0.149451349150580593145776339657697, 0.0,
               0.219086362515982043995534934228163, 0.0,
               0.269266719309996355091226921569469, 0.0,
               0.295524224714752870173892994651338)
_GK_X = np.array([-x for x in _GK_XK] + [0.0] + list(reversed(_GK_XK)))
_GK_WK = np.array(_GK_WK_HALF + (_GK_WK_MID,) + tuple(reversed(_GK_WK_HALF)))
_GK_WG = np.array(_GK_WG_HALF + (0.0,) + tuple(reversed(_GK_WG_HALF)))


@dataclass(frozen=True)
class ParamVector:
    """Drift parameter (t1, t2_1..t2_m); t2 stored as a tuple."""

    theta1: float
    theta2: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "theta1", float(self.theta1))
        object.__setattr__(self, "theta2", tuple(float(v) for v in self.theta2))
        if not math.isfinite(self.theta1) or not all(map(math.isfinite, self.theta2)):
            raise ValueError("parameters must be finite")

    @property
    def m(self) -> int:
        return len(self.theta2)

    def as_array(self) -> np.ndarray:
        return np.array((self.theta1,) + self.theta2, dtype=float)

    @classmethod
    def from_array(cls, arr) -> "ParamVector":
        arr = np.asarray(arr, dtype=float).ravel()
        return cls(theta1=float(arr[0]), theta2=tuple(arr[1:]))


@dataclass(frozen=True)
class ModelSpec:
    """Diffusion coefficient, secondary drift basis and starting point."""

    sigma: float
    basis: DriftBasis
    x0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be a positive real")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")

    @property
    def m(self) -> int:
        return self.basis.m

    @classmethod
    def from_names(cls, sigma: float, basis: str = "none", x0: float = 0.0) -> "ModelSpec":
        return cls(sigma=float(sigma), basis=make_basis(basis), x0=float(x0))


@dataclass(frozen=True)
class AsymptoticConstants:
    lambda1: float
    lambda2: tuple
    alpha: float
    psi_plus: float
    psi_minus: float
    d_weight: float


def theta_in_domain(spec: ModelSpec, theta: ParamVector) -> bool:
    return abs(theta.theta1) < 0.5 * spec.sigma**2


def require_valid_theta(spec: ModelSpec, theta: ParamVector) -> None:
    """Check theta against the model: t1 interior to its interval, sizes match."""
    if theta.m != spec.m:
        raise ValueError(
            f"theta2 has {theta.m} value(s), basis {spec.basis.name!r} has {spec.m}"
        )
    if not theta_in_domain(spec, theta):
        bound = 0.5 * spec.sigma**2
        raise ParameterDomainError(
            f"theta1={theta.theta1} outside (-{bound}, {bound})"
        )


def _lambdas(spec: ModelSpec, theta: ParamVector):
    lam1 = 2.0 * theta.theta1 / spec.sigma**2
    lam2 = 2.0 * np.asarray(theta.theta2, dtype=float) / spec.sigma**2
    return lam1, lam2


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


def eval_drift(spec: ModelSpec, theta: ParamVector, x):
    """Drift b(x) = t1*f1(x) + sum_nu t2_nu*f_{2,nu}(x); vectorized in x."""
    if theta.m != spec.m:
        raise ValueError("parameter/basis size mismatch")
    x = np.asarray(x, dtype=float)
    drift = _drift_fn(spec, theta)
    out = np.zeros_like(x) if drift is None else drift(x)
    return out if out.shape else float(out)


def _quad_checked(f, a, b, *, epsabs=1e-11, epsrel=1e-11, limit=200, what=""):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, abserr = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    if not math.isfinite(val):
        raise QuadratureError(f"quadrature returned non-finite value for {what}")
    return val, abserr


def antiderivative_F(spec: ModelSpec, nu: int, x):
    """F_{2,nu}(x) = int_0^x f_{2,nu}(y) dy; nu is 1-based; vectorized in x."""
    if not 1 <= nu <= spec.m:
        raise ValueError(f"nu={nu} out of range 1..{spec.m}")
    out = np.asarray(spec.basis.antiderivs(np.asarray(x, dtype=float))[nu - 1])
    return out if out.shape else float(out)


def _f_sum(spec: ModelSpec, lam2: np.ndarray, x):
    """sum_nu lam2_nu * F_{2,nu}(x), vectorized; zero lam2_nu are skipped."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    nonzero = np.flatnonzero(lam2)
    if nonzero.size:
        F = spec.basis.antiderivs(x)
        for nu in nonzero:
            total = total + lam2[nu] * F[nu]
    return total


def _scale_density(spec: ModelSpec, theta: ParamVector, x):
    """s(x) = (1+x^2)^(-lam1/2) * exp(-sum lam2_nu F_{2,nu}(x))."""
    lam1, lam2 = _lambdas(spec, theta)
    x = np.asarray(x, dtype=float)
    return (1.0 + x * x) ** (-0.5 * lam1) * np.exp(-_f_sum(spec, lam2, x))


def scale_function(spec: ModelSpec, theta: ParamVector, x: float) -> float:
    """S(x) = int_0^x s(y) dy; a strictly increasing bijection onto the line."""
    require_valid_theta(spec, theta)
    x = float(x)
    if x == 0.0:
        return 0.0
    # one QUADPACK call across many decades can be off by far more than its abserr
    edges = [0.0] + [math.copysign(10.0**k, x) for k in range(math.ceil(math.log10(abs(x))))]
    parts = [_quad_checked(lambda y: float(_scale_density(spec, theta, y)), a, b, limit=300,
                           what="scale function") for a, b in zip(edges, edges[1:] + [x])]
    val, abserr = (math.fsum(p) for p in zip(*parts))
    if abserr > 1e-7 * max(1.0, abs(val)):
        raise QuadratureError(f"scale function quadrature error {abserr:.2e}")
    return val


def scale_inverse(spec: ModelSpec, theta: ParamVector, u: float) -> float:
    """Unique root of S(.) = u, found by bracket expansion plus brentq."""
    require_valid_theta(spec, theta)
    u = float(u)
    if u == 0.0:
        return 0.0
    lo, hi = (0.0, 1.0) if u > 0 else (-1.0, 0.0)
    for _ in range(200):
        if u > 0 and scale_function(spec, theta, hi) >= u:
            break
        if u < 0 and scale_function(spec, theta, lo) <= u:
            break
        lo, hi = (hi, hi * 2.0) if u > 0 else (lo * 2.0, lo)
    else:
        raise QuadratureError("scale_inverse bracket expansion failed")
    return float(brentq(lambda z: scale_function(spec, theta, z) - u,
                        lo, hi, xtol=1e-10, rtol=8.9e-16))


def invariant_density(spec: ModelSpec, theta: ParamVector, x):
    """Density of the invariant measure: (1/sigma^2) / s(x); sigma-normalized."""
    require_valid_theta(spec, theta)
    lam1, lam2 = _lambdas(spec, theta)
    x = np.asarray(x, dtype=float)
    out = (1.0 + x * x) ** (0.5 * lam1) * np.exp(_f_sum(spec, lam2, x)) / spec.sigma**2
    return out if out.shape else float(out)


def asymptotic_constants(spec: ModelSpec, theta: ParamVector) -> AsymptoticConstants:
    require_valid_theta(spec, theta)
    lam1, lam2 = _lambdas(spec, theta)
    alpha = 0.5 * (1.0 - lam1)
    psi_plus = float(np.exp(np.dot(lam2, spec.basis.f_limit_pos))) if spec.m else 1.0
    psi_minus = float(np.exp(np.dot(lam2, spec.basis.f_limit_neg))) if spec.m else 1.0
    d_weight = ((2.0 * spec.sigma**2) ** (1.0 + alpha)
                * gamma_fn(alpha) / (2.0 * gamma_fn(1.0 - alpha)))
    return AsymptoticConstants(
        lambda1=lam1,
        lambda2=tuple(lam2),
        alpha=alpha,
        psi_plus=psi_plus,
        psi_minus=psi_minus,
        d_weight=d_weight,
    )


def norming(spec: ModelSpec, theta: ParamVector, n) -> tuple:
    """Norming pair (alpha_n, delta_n) = (n^a * D/(Psi+ + Psi-), n^(-a/2))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    c = asymptotic_constants(spec, theta)
    alpha_n = float(n) ** c.alpha * c.d_weight / (c.psi_plus + c.psi_minus)
    delta_n = float(n) ** (-0.5 * c.alpha)
    return alpha_n, delta_n


def _psi_funcs(spec: ModelSpec):
    return (principal_f1,) + spec.basis.funcs


def mu_integral(spec: ModelSpec, theta: ParamVector, g, window=None) -> float:
    """Integral of g against the invariant measure, over window or the line.

    QUADPACK on an arbitrary scalar g; the result is accepted only when the
    error estimate is at most _MU_TOL.
    """
    require_valid_theta(spec, theta)

    def integrand(x):
        return float(g(x) * invariant_density(spec, theta, x))

    if window is not None:
        a, b = float(window[0]), float(window[1])
        if not a < b:
            raise DegenerateWindowError(f"window [{a}, {b}] has empty interior")
        val, abserr = _quad_checked(integrand, a, b, limit=400, what="mu integral")
    else:
        val, abserr = _quad_checked(integrand, -np.inf, np.inf, limit=800,
                                    what="mu integral")
    if abserr > _MU_TOL:
        raise QuadratureError(f"mu integral error estimate {abserr:.2e} too large")
    return val


def _gk_panels(spec, theta, lo, hi):
    """Kronrod sums and |Kronrod - Gauss| of every psi_i psi_j m on each panel.

    Returns two (entries, panels) arrays, entries ordered as np.triu_indices.
    The density and the basis are evaluated once per node, chunk by chunk.
    """
    psis = _psi_funcs(spec)
    iu, ju = np.triu_indices(len(psis))
    # live node arrays: x, the density, the psis, two gathers and the products
    rows = max(1, _CHUNK_BYTES // (8 * _GK_X.size * (len(psis) + 3 * len(iu) + 2)))
    k_sum = np.empty((iu.size, lo.size))
    k_err = np.empty((iu.size, lo.size))
    for c in range(0, lo.size, rows):
        half = 0.5 * (hi[c:c + rows] - lo[c:c + rows])
        x = (0.5 * (hi[c:c + rows] + lo[c:c + rows]))[:, None] + half[:, None] * _GK_X
        dens = invariant_density(spec, theta, x)
        vals = np.stack([f(x) for f in psis])
        prod = vals[iu] * vals[ju] * dens            # (entries, panels, nodes)
        k_sum[:, c:c + rows] = (prod @ _GK_WK) * half
        k_err[:, c:c + rows] = np.abs(prod @ (_GK_WK - _GK_WG)) * half
    return k_sum, k_err


def _panel_integral(spec, theta, a: float, b: float, tol: float):
    """Integrals over [a, b] of psi_i psi_j m, with error estimates.

    Panels start on the multiples of 2*pi; a panel whose |K - G| misses its
    share of tol (by width) is bisected, up to _MAX_BISECT times.  The
    estimate adds a rounding term for the sum over panels.
    """
    cuts = _PANEL * np.arange(math.floor(a / _PANEL) + 1, math.ceil(b / _PANEL))
    edges = np.concatenate(([a], cuts, [b]))
    lo, hi = edges[:-1], edges[1:]
    total = err = 0.0
    for depth in range(_MAX_BISECT + 1):
        k_sum, k_err = _gk_panels(spec, theta, lo, hi)
        miss = (k_err > tol * (hi - lo) / (b - a)).any(axis=0)
        if depth == _MAX_BISECT:
            miss[:] = False
        keep = k_sum[:, ~miss]
        total = total + keep.sum(axis=1)
        err = err + k_err[:, ~miss].sum(axis=1) + 50.0 * _EPS * np.abs(keep).sum(axis=1)
        if not miss.any():
            return total, err
        mid = 0.5 * (lo[miss] + hi[miss])
        lo, hi = np.concatenate((lo[miss], mid)), np.concatenate((mid, hi[miss]))


# trig_a(a x) * trig_b(b x) = sum of c/2 * kind((a + s*b) x), as (kind, s, c)
_PRODUCT_TO_SUM = {
    ("cos", "cos"): (("cos", -1, 1.0), ("cos", 1, 1.0)),
    ("sin", "sin"): (("cos", -1, 1.0), ("cos", 1, -1.0)),
    ("sin", "cos"): (("sin", 1, 1.0), ("sin", -1, 1.0)),
    ("cos", "sin"): (("sin", 1, 1.0), ("sin", -1, -1.0)),
}


def _trig_mul(p: dict, q: dict) -> dict:
    """Product of two trigonometric sums {(kind, w >= 0): coefficient}."""
    out = {}
    for (ka, a), ca in p.items():
        for (kb, b), cb in q.items():
            for kind, s, c in _PRODUCT_TO_SUM[ka, kb]:
                w, c = a + s * b, 0.5 * c * ca * cb
                if w < 0:
                    w, c = -w, (c if kind == "cos" else -c)
                if kind == "sin" and w == 0:
                    continue
                out[kind, w] = out.get((kind, w), 0.0) + c
    return out


def _ray_tail(spec, theta, side: float):
    """Integrals over side * [R, inf) of psi_i psi_j m, with error estimates.

    On the ray every psi is envelope * trig(w x) (basis.osc) and
    m = m_inf * exp(-u), m_inf = (1+x^2)^(lam1/2) exp(sum lam2 F(side*inf)) /
    sigma^2 and u = side * sum lam2_nu int_|x|^inf f_nu(side*t) dt.  The rule
    keeps m_inf * (1 - u1), u1 the first term of u by parts, and integrates it
    with QUADPACK's Fourier weights; the rest is bounded below.
    """
    lam1, lam2 = _lambdas(spec, theta)
    limits = spec.basis.f_limit_pos if side > 0 else spec.basis.f_limit_neg
    c_inf = math.exp(float(np.dot(lam2, limits))) / spec.sigma**2
    forms = []
    for osc in (("cos", 0.0, principal_f1),) + spec.basis.osc:
        if osc is None:
            raise QuadratureError("whole-line moments need the tail form (basis.osc) "
                                  "of every basis function")
        kind, w, env = osc
        # psi(-y) = env(-y) trig(-w y) = (parity * env(-y)) trig(w y)
        sign = -1.0 if side < 0 and kind == "sin" else 1.0
        forms.append((lambda y, _e=env, _s=sign: _s * float(_e(side * y)),
                      {(kind, float(w)): 1.0}, float(w)))

    def m_inf(y):
        return c_inf * (1.0 + y * y) ** (0.5 * lam1)

    # u1 = side * sum lam2_nu env_nu(y) * (cos(w y) | -sin(w y)) / w
    first = []
    for (env, trig, w), lam in zip(forms[1:], lam2):
        if lam != 0.0:
            (kind, _), = trig
            q = {("cos", w): 1.0} if kind == "sin" else {("sin", w): -1.0}
            first.append((env, q, side * lam / w))

    iu, ju = np.triu_indices(len(forms))
    vals, errs = np.empty(iu.size), np.empty(iu.size)
    for e, (i, j) in enumerate(zip(iu, ju)):
        (env_i, trig_i, _), (env_j, trig_j, _) = forms[i], forms[j]
        pij = _trig_mul(trig_i, trig_j)
        terms = [(pij, lambda y: m_inf(y) * env_i(y) * env_j(y))]
        for env_n, q, coef in first:
            terms.append((_trig_mul(pij, q), lambda y, _e=env_n, _c=coef:
                          -_c * m_inf(y) * env_i(y) * env_j(y) * _e(y)))
        vals[e] = errs[e] = 0.0
        for key in sorted({k for t, _ in terms for k in t}):
            def g(y, _key=key):
                return sum(t.get(_key, 0.0) * h(y) for t, h in terms)
            v, ab = _ray_quad(g, *key, lam1)
            vals[e] += v
            errs[e] += ab
    # With envelopes as DriftBasis requires, |u| <= a/y and |u - u1| <= b/y^2
    # (second mean value theorem) and |psi_i psi_j| <= 1/y^2, so the part
    # m_inf (exp(-u) - 1 + u1) left out integrates to at most `dropped`.
    ws = [w for _, _, w in forms[1:]]
    a = sum(2.0 * abs(lam) / w for lam, w in zip(lam2, ws))
    b = sum(2.0 * abs(lam) / w**2 for lam, w in zip(lam2, ws))
    grow = max(1.0, (1.0 + _R**-2) ** (0.5 * lam1))
    dropped = (c_inf * grow * (0.5 * a * a * math.exp(a / _R) + b)
               * _R ** (lam1 - 3.0) / (3.0 - lam1))
    return vals, errs + dropped


def _ray_quad(g, kind: str, w: float, lam1: float):
    """int_R^inf g(y) trig(w y) dy by QUADPACK: QAWF when w > 0, else QAWS.

    g decays like y^(lam1 - 2); for w = 0, y = R/t turns that decay into the
    algebraic weight t^(-lam1) on [0, 1].
    """
    def h(t):
        t = max(t, 1e-100)  # the weight rule evaluates the endpoint t = 0
        return g(_R / t) * _R * t ** (lam1 - 2.0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if w == 0.0:
            val, abserr = quad(h, 0.0, 1.0, weight="alg", wvar=(-lam1, 0.0),
                               epsabs=1e-14, epsrel=1e-12, limit=200)
        else:
            val, abserr = quad(g, _R, np.inf, weight=kind, wvar=w, epsabs=1e-14,
                               limlst=100)
    if not math.isfinite(val):
        raise QuadratureError(f"tail quadrature ({kind}, w={w}) is not finite")
    return val, abserr


def _moment_matrix_and_error(spec: ModelSpec, theta: ParamVector, window=None):
    """mu_moment_matrix and an upper estimate of the error of each entry."""
    require_valid_theta(spec, theta)
    tol = _MU_TOL * spec.sigma**4
    if window is None:
        # panels take half the budget; the tails need far less than the rest
        vals, errs = _panel_integral(spec, theta, -_R, _R, 0.5 * tol)
        for side in (1.0, -1.0):
            v, e = _ray_tail(spec, theta, side)
            vals, errs = vals + v, errs + e
    else:
        a, b = float(window[0]), float(window[1])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("window ends must be finite; use window=None for the line")
        if not a < b:
            raise DegenerateWindowError(f"window [{a}, {b}] has empty interior")
        vals, errs = _panel_integral(spec, theta, a, b, 0.5 * tol)
    p = 1 + spec.m
    out, err = np.empty((p, p)), np.empty((p, p))
    iu, ju = np.triu_indices(p)
    out[iu, ju] = out[ju, iu] = vals / spec.sigma**4
    err[iu, ju] = err[ju, iu] = errs / spec.sigma**4
    return out, err


def mu_moment_matrix(spec: ModelSpec, theta: ParamVector, window=None) -> np.ndarray:
    """Matrix with entries mu(psi_i psi_j [1_A]) / sigma^4 over the drift basis.

    Raises QuadratureError unless every entry's error estimate is at most
    _MU_TOL.
    """
    out, err = _moment_matrix_and_error(spec, theta, window)
    if err.max() > _MU_TOL:
        raise QuadratureError(
            f"moment matrix error estimate {err.max():.2e} exceeds {_MU_TOL:.0e}")
    return out


def information_scale_matrix(spec: ModelSpec, theta: ParamVector, window=None) -> np.ndarray:
    """Moment matrix premultiplied by D/(Psi+ + Psi-), the limit of J_n/n^a."""
    c = asymptotic_constants(spec, theta)
    return (c.d_weight / (c.psi_plus + c.psi_minus)) * mu_moment_matrix(
        spec, theta, window=window
    )


def classify_recurrence(spec: ModelSpec, theta1: float) -> str:
    """Recurrence class from the principal parameter alone.

    The scale function stays a bijection up to lambda1 = 1 inclusive, so both
    boundary values belong to the recurrent-with-infinite-mass regime.
    """
    lam1 = 2.0 * float(theta1) / spec.sigma**2
    if lam1 > 1.0:
        return "transient"
    if lam1 < -1.0:
        return "positive_recurrent"
    return "null_recurrent"
