"""Reference values of the invariant-measure moment matrices, computed
independently of ``nullrec.model``.

For sigma = 1, theta1 = 0 and the sinc basis the invariant density is
m(x) = exp(lam2 * Si(x)) with lam2 = 2 * theta2.  The moment matrix has the
entries mu(psi_i psi_j) for psi = (f1, sinc), f1(x) = x / (1 + x^2).

The integral over [-R, R] (R = N * pi) is Gauss-Legendre on panels of width
pi, one period of the oscillation per panel.  Beyond R the integrand is
replaced by its closed-form 1/x^2 tail: m(x) -> exp(+-lam2 * pi / 2), so

    int_R^inf f1^2 m      ~ exp(lam2 pi / 2) / R
    int_R^inf sinc^2 m    ~ exp(lam2 pi / 2) / (2 R)     (mean of sin^2 is 1/2)
    int_R^inf f1 sinc m   ~ 0                            (sin x / x^2 averages out)

and the same with -lam2 on the left.  The neglected terms are O(1/R^2); at
N = 1e5 they are below 1e-10.  A window [a, b] needs no tail.

Regenerate the stored numbers (and run the self-test) with

    python3 bench/oracle.py

which rewrites bench/oracle.json.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import sici

ORACLE_FILE = Path(__file__).with_name("oracle.json")
N_PERIODS = 100_000
GL_NODES = 32

# (theta2, window) pairs the benchmark workloads compare against.
CASES = (((0.3,), None), ((0.3,), (-2.0, 2.0)), ((0.5,), None))


def _panels(a: float, b: float):
    """Gauss-Legendre nodes and weights on panels of width <= pi over [a, b]."""
    xg, wg = np.polynomial.legendre.leggauss(GL_NODES)
    n = max(1, math.ceil((b - a) / math.pi - 1e-9))
    edges = np.linspace(a, b, n + 1)
    half = np.diff(edges)[:, None] / 2.0
    mid = (edges[:-1] + edges[1:])[:, None] / 2.0
    return (mid + half * xg).ravel(), (half * wg).ravel()


def moment_matrix(theta2: tuple, window=None, n_periods: int = N_PERIODS) -> np.ndarray:
    """mu(psi_i psi_j) for sigma = 1, theta1 = 0; basis sinc (or none if theta2 == ())."""
    if window is None:
        r = n_periods * math.pi
        x, w = _panels(-r, r)
    else:
        x, w = _panels(float(window[0]), float(window[1]))
    lam2 = 2.0 * theta2[0] if theta2 else 0.0
    dens = np.exp(lam2 * sici(x)[0])
    psis = [x / (1.0 + x * x)]
    tail_weight = [1.0]              # limit of x^2 psi_i psi_j, averaged over a period
    if theta2:
        sinc = np.ones_like(x)
        nz = x != 0.0
        sinc[nz] = np.sin(x[nz]) / x[nz]
        psis.append(sinc)
        tail_weight = [1.0, 0.0, 0.5]  # f1^2, f1 sinc, sinc^2
    p = len(psis)
    out = np.empty((p, p))
    k = 0
    for i in range(p):
        for j in range(i, p):
            val = float(np.sum(w * dens * psis[i] * psis[j]))
            if window is None:
                val += tail_weight[k] * (math.exp(lam2 * math.pi / 2)
                                         + math.exp(-lam2 * math.pi / 2)) / r
            out[i, j] = out[j, i] = val
            k += 1
    return out


def self_test() -> list:
    """Closed forms for the `none` basis: mu(f1^2) = pi/2 on the line, pi/4 - 1/2 on [-1, 1]."""
    errors = []
    full = moment_matrix((), None)[0, 0]
    win = moment_matrix((), (-1.0, 1.0))[0, 0]
    for what, got, want in (("line", full, math.pi / 2),
                            ("[-1, 1]", win, math.pi / 4 - 0.5)):
        if abs(got - want) > 1e-10:
            errors.append(f"mu(f1^2) on {what}: {got!r} != {want!r}")
    return errors


def case_key(theta2: tuple, window) -> str:
    w = "line" if window is None else f"[{window[0]:g},{window[1]:g}]"
    return f"sinc theta=(0,{theta2[0]:g}) {w}"


def load() -> dict:
    """Stored reference matrices, keyed by case_key."""
    data = json.loads(ORACLE_FILE.read_text(encoding="utf-8"))
    return {k: np.array(v["matrix"]) for k, v in data["cases"].items()}


def main() -> int:
    errors = self_test()
    if errors:
        for e in errors:
            sys.stderr.write(f"oracle self-test failed: {e}\n")
        return 1
    cases = {}
    for theta2, window in CASES:
        mat = moment_matrix(theta2, window)
        # the change from a 10x shorter range bounds the truncation error
        coarse = moment_matrix(theta2, window, n_periods=N_PERIODS // 10)
        cases[case_key(theta2, window)] = {
            "matrix": mat.tolist(),
            "truncation_error_bound": float(np.abs(mat - coarse).max()),
        }
    payload = {
        "method": f"Gauss-Legendre, {GL_NODES} nodes per pi-wide panel over "
                  f"[-{N_PERIODS} pi, {N_PERIODS} pi], plus the 1/x^2 tail",
        "cases": cases,
    }
    ORACLE_FILE.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
