import warnings

import hypothesis
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from scipy.integrate import quad, simpson

from nullrec import make_basis
from nullrec.basis import _sinc_step, principal_f1, sinc


def test_principal_direction_values():
    assert principal_f1(0.0) == 0.0
    assert principal_f1(1.0) == pytest.approx(0.5)
    x = np.linspace(-50, 50, 1001)
    assert np.all(np.abs(principal_f1(x)) <= 0.5)


def test_sinc_basis_shape():
    b = make_basis("sinc")
    assert b.m == 1
    assert b.funcs[0](0.0) == pytest.approx(1.0)
    assert b.funcs[0](np.pi) == pytest.approx(0.0, abs=1e-15)


def test_sinc_bit_identical_to_numpy_sinc():
    x = np.random.default_rng(5).standard_normal((40, 30)) * 30.0
    x[3, 4] = 0.0
    x[5, 6] = -0.0
    for arr in (x, x[:, 7], x[::3, 1::4], x.T, x[:, 2:9].T):
        got, want = sinc(arr), np.sinc(arr / np.pi)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for scalar in (0.0, -0.0, 2.5, 1e-300, np.float64(-7.0), np.array(3.0)):
        got, want = sinc(scalar), np.sinc(np.asarray(scalar, dtype=float) / np.pi)
        assert type(got) is type(want) is np.float64
        assert np.array_equal(got, want)
    assert sinc(0.0) == 1.0
    assert sinc(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("name", ["none", "sinc", "fourier-2"])
def test_funcs_out_bit_identical(name):
    # f(x, buf) and f(x, out=buf) write the bits of f(x) into buf and return
    # it, for a contiguous vector and for a strided column of an (L, b) array
    x = np.random.default_rng(7).standard_normal(64) * 30.0
    x[:6] = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300)
    with np.errstate(over="ignore"):  # x * x at 1e300
        for f in (principal_f1,) + make_basis(name).funcs:
            want = f(x)
            for buf in (np.empty(x.size), np.empty((x.size, 5))[:, 3]):
                for call in (lambda: f(x, buf), lambda: f(x, out=buf)):
                    buf[...] = np.nan
                    assert call() is buf
                    assert buf.tobytes() == want.tobytes()


# the x whose y = pi * (x / pi) is 0: x / pi rounds to 0 for |x| < pi * 2^-1075,
# which leaves +-0 and +-2^-1074 (5e-324)
_SINC_STEP_ZEROS = (0.0, -0.0, 5e-324, -5e-324)


def _assert_sinc_step_matches(x):
    got = _sinc_step(x, np.empty(x.shape))
    zero = np.isin(x, _SINC_STEP_ZEROS)
    assert np.isnan(got[zero]).all()
    assert not np.isnan(got[~zero]).any()
    assert got[~zero].tobytes() == sinc(x)[~zero].tobytes()


def test_sinc_step_nan_exactly_at_zero():
    x = np.array(_SINC_STEP_ZEROS + (1e-323, -1e-323, 1e-300, 2.5, -7.0, np.pi, 1e300))
    with np.errstate(invalid="ignore"):
        _assert_sinc_step_matches(x)


@hypothesis.given(hnp.arrays(np.float64, st.integers(1, 40),
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_sinc_step_bit_identical_to_sinc_off_zero(x):
    with np.errstate(invalid="ignore"):
        _assert_sinc_step_matches(x)


def test_sinc_limits_against_coarse_quadrature():
    # oracle: direct high-resolution quadrature out to S, remainder below 2/S
    b = make_basis("sinc")
    s_cut = 1e4
    x = np.linspace(1e-9, s_cut, 2_000_001)
    direct = simpson(np.sin(x) / x, x=x)
    assert abs(direct - b.f_limit_pos[0]) <= 2.0 / s_cut + 1e-6
    assert b.f_limit_pos[0] == pytest.approx(np.pi / 2, abs=1e-12)
    assert b.f_limit_neg[0] == pytest.approx(-np.pi / 2, abs=1e-12)


def test_fourier_basis_layout_and_parity():
    b = make_basis("fourier-2")
    assert b.m == 4
    x = np.linspace(-10, 10, 401)
    # even slots hold f1*cos(kx): odd functions
    for k, slot in ((1, 1), (2, 3)):
        np.testing.assert_allclose(b.funcs[slot](x), -b.funcs[slot](-x), atol=1e-15)
        np.testing.assert_allclose(b.funcs[slot](x), principal_f1(x) * np.cos(k * x),
                                   atol=1e-15)
    # odd slots hold f1*sin(kx): even functions
    for k, slot in ((1, 0), (2, 2)):
        np.testing.assert_allclose(b.funcs[slot](x), b.funcs[slot](-x), atol=1e-15)
        np.testing.assert_allclose(b.funcs[slot](x), principal_f1(x) * np.sin(k * x),
                                   atol=1e-15)


def _qawf_limit(kind, k):
    """int_0^inf f1(x) sin/cos(kx) dx by QUADPACK's Fourier-weighted rule."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, abserr = quad(principal_f1, 0.0, np.inf, weight=kind, wvar=float(k))
    assert abserr <= 1e-6
    return val


def test_fourier_limits_match_closed_form():
    # int_0^inf x sin(kx)/(1+x^2) dx = (pi/2) exp(-k); the cosine limits
    # against an independent oscillation-weighted quadrature
    b = make_basis("fourier-3")
    for k in (1, 2, 3):
        slot = 2 * (k - 1)
        assert b.f_limit_pos[slot] == pytest.approx(np.pi / 2 * np.exp(-k), abs=1e-15)
        assert b.f_limit_pos[slot] == pytest.approx(_qawf_limit("sin", k), abs=1e-9)
        assert b.f_limit_neg[slot] == pytest.approx(-b.f_limit_pos[slot])
        assert b.f_limit_pos[slot + 1] == pytest.approx(_qawf_limit("cos", k), abs=1e-9)
        assert b.f_limit_neg[slot + 1] == b.f_limit_pos[slot + 1]


def test_fourier_cos_limits_even():
    b = make_basis("fourier-2")
    for slot in (1, 3):
        assert b.f_limit_neg[slot] == b.f_limit_pos[slot]


def test_unknown_basis_rejected():
    # names are exact: no aliases, case folding or stripping
    for name in ("chebyshev", "fourier-0", "fourier-701", "fourier-01", "Sinc", "", "empty",
                 " sinc"):
        with pytest.raises(ValueError):
            make_basis(name)


def test_none_basis_empty():
    b = make_basis("none")
    assert b.m == 0
