"""Drift basis functions.

The principal drift direction is fixed: f1(x) = x / (1 + x^2).  A basis adds
m bounded Lipschitz secondary directions f_{2,1}, ..., f_{2,m} whose
antiderivatives F_{2,nu}(x) = int_0^x f_{2,nu} have finite limits at +-inf.
Built-in families:

  "none"         m = 0, principal direction only
  "sinc"         m = 1, f_2(x) = sin(x)/x
  "fourier-<L>"  m = 2L, pairs f1(x)sin(kx), f1(x)cos(kx) for k = 1..L,
                 with the cosine member of pair k at even slot 2k

All callables are module level (or partials of module-level functions) so a
basis can cross process boundaries when replications run in parallel.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["DriftBasis", "make_basis", "principal_f1", "sinc"]


# 0-d array operands: a Python float operand costs each ufunc call a scalar
# conversion, a good part of the call on the few lanes of one Euler step.
# For the same reason principal_f1 and sinc pass out by position: a keyword
# costs each call its parsing.
_ONE = np.array(1.0)
_PI = np.array(np.pi)
_EPS = np.array(np.finfo(float).eps)


def principal_f1(x, out=None):
    """x / (1 + x^2); with out, 1 + x^2 is built in out, with no temporary."""
    x = np.asarray(x, dtype=float)
    d = np.add(_ONE, np.multiply(x, x, out), out)
    return np.divide(x, d, out)


def sinc(x, out=None):
    """sin(x)/x with the removable singularity filled in at 0.

    The operations of np.sinc(x / pi), bit for bit, without its Python
    wrapper: y = pi * (x / pi), eps where y = 0, then sin(y) / y.  With out,
    y is built in out.  The division takes any array-like and gives float64,
    as np.asarray(x, dtype=float) would.  The eps goes into y in place, which
    costs less than np.where on a few lanes.
    """
    y = np.multiply(_PI, np.divide(x, _PI, out), out)
    if not y.ndim:  # a float64 scalar, which cannot be written to
        y = np.array(y)
    y[np.logical_not(y)] = _EPS
    return np.divide(np.sin(y), y, out)


def _sinc_step(x, out, divide=np.divide, multiply=np.multiply, sin=np.sin, pi=_PI):
    """sinc without its guard at 0, for the Euler step: the bits of sinc(x)
    wherever y = pi * (x / pi) is not 0, and NaN (0/0) where it is, which is
    at x in {0, -0, +-5e-324}.  out is required, and x a float64 array.  The
    ufuncs are bound as defaults, so a call looks up no global.
    """
    y = multiply(pi, divide(x, pi, out), out)
    return divide(sin(y), y, out)


# the form of a psi that the Euler step's fast pass calls in its place; a psi
# that is not here is its own step form
_STEP_FORMS = {sinc: _sinc_step}


def si(x):
    """Antiderivatives of the sinc basis: the sine integral Si(x), shape (1, ...)."""
    from scipy.special import sici  # local: `import nullrec` stays numpy-only

    return sici(np.asarray(x, dtype=float))[0][np.newaxis]


def reciprocal(x):
    """1/x, the tail envelope of sinc."""
    return 1.0 / np.asarray(x, dtype=float)


def _f1_sin(x, out=None, *, k):
    x = np.asarray(x, dtype=float)
    return np.multiply(x / (1.0 + x * x), np.sin(k * x), out=out)


def _f1_cos(x, out=None, *, k):
    x = np.asarray(x, dtype=float)
    return np.multiply(x / (1.0 + x * x), np.cos(k * x), out=out)


def _f1_trig_antideriv(x, k):
    """int_0^x f1(t) exp(ikt) dt = F_cos,k(x) + i F_sin,k(x), in closed form.

    With f1(t) = (1/(t+i) + 1/(t-i)) / 2 the two halves are exponential
    integrals (DLMF 6.2) whose arguments k -+ ikx keep real part k > 0, off
    the branch cut.
    """
    from scipy.special import exp1, expi  # local: `import nullrec` stays numpy-only

    ikx = 1j * k * np.asarray(x, dtype=float)
    return 0.5 * (math.exp(k) * (exp1(k) - exp1(k - ikx))
                  + math.exp(-k) * (expi(k + ikx) - expi(k)))


def _fourier_antiderivs(x, ell):
    """F_sin,1, F_cos,1, ..., F_sin,L, F_cos,L at x; one closed form per frequency."""
    zs = [_f1_trig_antideriv(x, k) for k in range(1, ell + 1)]
    return np.stack([part for z in zs for part in (z.imag, z.real)])


@dataclass(frozen=True)
class DriftBasis:
    """Secondary drift directions plus their antiderivative limits.

    funcs[nu] is f_{2,nu+1}.  Every func, like principal_f1, takes
    (x, out=None): without out it returns a new array (a float64 for a
    scalar x); with out, a float array of x's shape that does not overlap x,
    it writes the same bits there and returns out.  The Euler step writes
    its psi values into its buffers that way.  antiderivs, required when
    m > 0, is one vectorized callable with antiderivs(x)[nu] = F_{2,nu+1}(x) =
    int_0^x f_{2,nu+1}, so a family whose members share work evaluates it once.
    osc[nu] serves only the whole-line moment tails: either None or
    ("sin"|"cos", frequency, envelope) with f_{2,nu+1}(x) =
    envelope(x)*sin/cos(frequency*x) for large |x|, so the moment tails
    beyond the panels can be finished with a weighted (QAWF-style) rule.
    Without it whole-line moments raise.  The moment error bound
    needs, on each ray beyond the panels, an envelope that is monotone with a
    monotone derivative, |envelope(x)| <= 1/|x| and |envelope'(x)| <= 1/x^2.
    f_limit_pos/neg store F_{2,nu}(+inf) and F_{2,nu}(-inf).
    """

    name: str
    funcs: tuple = ()
    antiderivs: Optional[Callable] = None
    f_limit_pos: tuple = ()
    f_limit_neg: tuple = ()
    osc: tuple = ()

    def __post_init__(self):
        m = len(self.funcs)
        if not (len(self.f_limit_pos) == len(self.f_limit_neg) == m):
            raise ValueError("antiderivative limits must match basis size")
        if len(self.osc) != m:
            raise ValueError("osc metadata must match basis size")
        if m and not callable(self.antiderivs):
            raise ValueError("a basis needs a callable antiderivs")
        if not all(math.isfinite(v) for v in self.f_limit_pos + self.f_limit_neg):
            raise ValueError("antiderivative limits must be finite")

    @property
    def m(self) -> int:
        return len(self.funcs)


def _fourier_basis(ell: int) -> DriftBasis:
    from scipy.special import exp1, expi  # local: only fourier-<L> limits need it

    funcs, limits_pos, limits_neg, osc = [], [], [], []
    for k in range(1, ell + 1):
        # slot 2k-1: f1 sin(kx), even function, odd antiderivative
        funcs.append(functools.partial(_f1_sin, k=k))
        lim = 0.5 * math.pi * math.exp(-k)
        limits_pos.append(lim)
        limits_neg.append(-lim)
        osc.append(("sin", float(k), principal_f1))
        # slot 2k: f1 cos(kx), odd function, even antiderivative
        funcs.append(functools.partial(_f1_cos, k=k))
        lim = float(0.5 * (math.exp(k) * exp1(k) - math.exp(-k) * expi(k)))
        limits_pos.append(lim)
        limits_neg.append(lim)
        osc.append(("cos", float(k), principal_f1))
    return DriftBasis(
        name=f"fourier-{ell}",
        funcs=tuple(funcs),
        antiderivs=functools.partial(_fourier_antiderivs, ell=ell),
        f_limit_pos=tuple(limits_pos),
        f_limit_neg=tuple(limits_neg),
        osc=tuple(osc),
    )


def make_basis(name: str) -> DriftBasis:
    """Build a basis from its exact name: "none", "sinc" or "fourier-<L>"."""
    if name == "none":
        return DriftBasis(name="none")
    if name == "sinc":
        return DriftBasis(
            name="sinc",
            funcs=(sinc,),
            antiderivs=si,
            f_limit_pos=(np.pi / 2,),
            f_limit_neg=(-np.pi / 2,),
            osc=(("sin", 1.0, reciprocal),),
        )
    match = re.fullmatch(r"fourier-([1-9][0-9]*)", name)
    if match:
        ell = int(match.group(1))
        # e^k and E1(k) stay normal floats up to k = 700
        if ell > 700:
            raise ValueError("fourier basis order must lie in 1..700")
        return _fourier_basis(ell)
    raise ValueError(f"unknown basis name {name!r}")
