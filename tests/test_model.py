import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma, hyp2f1

from nullrec import (
    ModelSpec,
    ParamVector,
    ParameterDomainError,
    antiderivative_F,
    asymptotic_constants,
    classify_recurrence,
    eval_drift,
    invariant_density,
    information_scale_matrix,
    mu_moment_matrix,
    norming,
    scale_function,
    scale_inverse,
)
from nullrec.basis import DriftBasis, si, sinc
from nullrec.errors import DegenerateWindowError, QuadratureError
from nullrec.model import (
    _GK_WG,
    _GK_WK,
    _GK_X,
    _moment_matrix_and_error,
    _scale_density,
)


theta1_domain = st.floats(min_value=-0.49, max_value=0.49)


# ------------------------------------------------------------------- drift

def test_drift_zero_parameter(spec_sinc):
    th = ParamVector(0.0, (0.0,))
    for x in (-3.0, 0.0, 1.7, 25.0):
        assert eval_drift(spec_sinc, th, x) == 0.0


def test_drift_principal_only(spec_plain):
    th = ParamVector(0.2)
    assert eval_drift(spec_plain, th, 1.0) == pytest.approx(0.1)


def test_drift_sinc_at_zero(spec_sinc):
    th = ParamVector(0.0, (0.3,))
    assert eval_drift(spec_sinc, th, 0.0) == pytest.approx(0.3)


def test_drift_size_mismatch(spec_plain):
    with pytest.raises(ValueError):
        eval_drift(spec_plain, ParamVector(0.0, (1.0,)), 0.0)


# ----------------------------------------------------------- antiderivative

def test_antiderivative_zero_at_origin(spec_sinc):
    assert antiderivative_F(spec_sinc, 1, 0.0) == 0.0


def test_antiderivative_sinc_limit(spec_sinc):
    assert antiderivative_F(spec_sinc, 1, 1e6) == pytest.approx(np.pi / 2, abs=2e-4)


def test_antiderivative_fourier_parity():
    spec = ModelSpec.from_names(1.0, "fourier-2")
    # slot 2 holds f1*cos(x): odd integrand, even antiderivative
    for x in (0.7, 3.0, 40.0, 500.0):
        assert antiderivative_F(spec, 2, x) == pytest.approx(
            antiderivative_F(spec, 2, -x), abs=1e-9)
    # slot 1 holds f1*sin(x): even integrand, odd antiderivative
    for x in (0.7, 3.0, 40.0, 500.0):
        assert antiderivative_F(spec, 1, x) == pytest.approx(
            -antiderivative_F(spec, 1, -x), abs=1e-9)


def test_antiderivative_tail_branch_continuous():
    # the antiderivative must be continuous on both sides of |x| = 200,
    # where the far-out evaluation once switched to a weighted tail rule
    spec = ModelSpec.from_names(1.0, "fourier-1")
    for nu in (1, 2):
        below = antiderivative_F(spec, nu, 199.9)
        above = antiderivative_F(spec, nu, 200.1)
        assert above == pytest.approx(below, abs=2e-3)
        below = antiderivative_F(spec, nu, -199.9)
        above = antiderivative_F(spec, nu, -200.1)
        assert above == pytest.approx(below, abs=2e-3)


def _panelled_quad(f, x):
    """int_0^x f by QUADPACK on panels of width at most 5."""
    edges = np.linspace(0.0, x, int(math.ceil(abs(x) / 5.0)) + 1)
    return sum(quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


def test_antiderivative_fourier_matches_direct_quad():
    # the closed form against panelled quadrature, near the origin and far out
    spec = ModelSpec.from_names(1.0, "fourier-2")
    xs = (0.7, 8.0, 199.9, 200.1, 500.0)
    for nu, f in enumerate(spec.basis.funcs, start=1):
        for x in xs + tuple(-v for v in xs):
            ref = _panelled_quad(lambda y: float(f(y)), x)
            assert antiderivative_F(spec, nu, x) == pytest.approx(ref, abs=1e-9)


def test_antiderivative_fourier_far_tail_consistent():
    spec = ModelSpec.from_names(1.0, "fourier-1")
    near = antiderivative_F(spec, 1, 195.0)
    far = antiderivative_F(spec, 1, 5000.0)
    lim = spec.basis.f_limit_pos[0]
    assert abs(far - lim) < abs(near - lim) + 1e-6
    assert abs(far - lim) < 1e-3


def test_antiderivative_without_tail_form_raises():
    # every basis function needs an antiderivative; without the tail form
    # (osc) the whole-line moments have nothing to finish the rays with
    with pytest.raises(ValueError):
        DriftBasis(name="bare-sinc", funcs=(sinc,), antiderivs=None,
                   f_limit_pos=(np.pi / 2,), f_limit_neg=(-np.pi / 2,),
                   osc=(None,))
    basis = DriftBasis(name="bare-sinc", funcs=(sinc,), antiderivs=si,
                       f_limit_pos=(np.pi / 2,), f_limit_neg=(-np.pi / 2,),
                       osc=(None,))
    spec = ModelSpec(sigma=1.0, basis=basis)
    with pytest.raises(QuadratureError):
        mu_moment_matrix(spec, ParamVector(0.0, (0.3,)))


def test_antiderivative_bad_index(spec_sinc):
    with pytest.raises(ValueError):
        antiderivative_F(spec_sinc, 2, 1.0)


# ------------------------------------------------------------------- scale

def test_scale_identity_at_zero_parameter(spec_plain, theta_zero):
    assert scale_function(spec_plain, theta_zero, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert scale_inverse(spec_plain, theta_zero, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_scale_zero_and_monotone(spec_sinc):
    th = ParamVector(0.2, (-0.4,))
    assert scale_function(spec_sinc, th, 0.0) == 0.0
    vals = [scale_function(spec_sinc, th, x) for x in (-5.0, -1.0, 0.5, 2.0, 7.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_scale_growth_exponent(spec_plain):
    # lambda1 = 0.5: S(x) ~ x^{1-lambda1}/(1-lambda1), so S(x)/sqrt(x) -> 2
    th = ParamVector(0.25)
    x = 1e6
    ratio = scale_function(spec_plain, th, x) / math.sqrt(x)
    assert ratio == pytest.approx(2.0, rel=5e-3)


@settings(max_examples=15)
@given(theta1=theta1_domain, u=st.floats(min_value=-30.0, max_value=30.0))
def test_scale_roundtrip_plain(theta1, u):
    spec = ModelSpec.from_names(1.0, "none")
    th = ParamVector(theta1)
    x = scale_inverse(spec, th, u)
    assert scale_function(spec, th, x) == pytest.approx(u, abs=1e-8)


def test_scale_function_far_out_matches_closed_form():
    # without a drift basis S(x) = x 2F1(1/2, theta1; 3/2; -x^2) at sigma = 1
    spec = ModelSpec.from_names(1.0, "none")
    for theta1 in (0.49, 0.3, -0.3):
        for x in (7.0, 1.1385e6, -1e9):
            ref = x * hyp2f1(0.5, theta1, 1.5, -x * x)
            assert scale_function(spec, ParamVector(theta1), x) == pytest.approx(ref, rel=1e-12)
    x = scale_inverse(spec, ParamVector(0.49), 17.0)
    assert scale_function(spec, ParamVector(0.49), x) == pytest.approx(17.0, abs=1e-8)


def test_scale_roundtrip_sinc_grid(spec_sinc):
    th = ParamVector(-0.2, (0.5,))
    for x in (-100.0, -7.0, -0.3, 0.0, 1.2, 40.0, 100.0):
        u = scale_function(spec_sinc, th, x)
        assert scale_inverse(spec_sinc, th, u) == pytest.approx(x, abs=1e-8)


def test_scale_identity_without_drift_is_exact(spec_sinc):
    # theta = 0 makes s = 1, so S and its inverse return their argument bit for bit
    th = ParamVector(0.0, (0.0,))
    for x in (0.3, 1.0, 7.25, 1e12, 1e300, -0.3, -1.0, -123.5, -1e12, -1e300):
        assert scale_function(spec_sinc, th, x) == x
        assert scale_inverse(spec_sinc, th, x) == x


def test_scale_roundtrip_with_drift_uses_quadrature(spec_sinc):
    th = ParamVector(0.0, (0.3,))
    for x in (-50.0, -2.0, -0.4, 0.7, 3.0, 50.0):
        u = scale_function(spec_sinc, th, x)
        assert u != x
        assert scale_inverse(spec_sinc, th, u) == pytest.approx(x, abs=1e-9)


# ----------------------------------------------------------------- density

def test_density_flat_at_zero(spec_plain, theta_zero):
    for x in (-4.0, 0.0, 9.0):
        assert invariant_density(spec_plain, theta_zero, x) == pytest.approx(1.0)


def test_density_hand_value():
    spec = ModelSpec.from_names(1.0, "none")
    assert invariant_density(spec, ParamVector(0.25), 10.0) == pytest.approx(
        101.0**0.25, rel=1e-12)


@settings(max_examples=20)
@given(theta1=theta1_domain, theta2=st.floats(-1.5, 1.5),
       x=st.floats(-60.0, 60.0))
def test_density_times_scale_density_is_constant(theta1, theta2, x):
    spec = ModelSpec.from_names(1.3, "sinc")
    th = ParamVector(theta1 * 1.3**2, (theta2,))
    prod = (invariant_density(spec, th, x) * _scale_density(spec, th, x)
            * spec.sigma**2)
    assert prod == pytest.approx(1.0, rel=1e-12)


# --------------------------------------------------------------- constants

def test_constants_at_zero(spec_plain, theta_zero):
    c = asymptotic_constants(spec_plain, theta_zero)
    assert c.alpha == pytest.approx(0.5)
    assert c.psi_plus == 1.0 and c.psi_minus == 1.0
    assert c.d_weight == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_d_weight_matches_scipy_gamma():
    # D = (2 sigma^2)^(1+alpha) Gamma(alpha) / (2 Gamma(1-alpha)), once written with
    # scipy.special.gamma.  Either gamma is within 2 ulp of the true value, so the
    # ratio of two may differ by up to ~5 ulp (1.12e-15 seen at alpha = 0.74);
    # at alpha = 1/2 both Gamma factors are the same number and D is unchanged.
    for sigma in (1.0, 1.3):
        spec = ModelSpec.from_names(sigma, "none")
        for alpha in np.linspace(0.01, 0.99, 99):
            c = asymptotic_constants(spec, ParamVector((0.5 - alpha) * sigma**2))
            a = c.alpha
            ref = (2.0 * sigma**2) ** (1.0 + a) * gamma(a) / (2.0 * gamma(1.0 - a))
            assert type(c.d_weight) is float
            assert c.d_weight == pytest.approx(ref, rel=2e-15, abs=0.0)
        c = asymptotic_constants(spec, ParamVector(0.0))
        assert c.alpha == 0.5
        assert c.d_weight == (2.0 * sigma**2) ** 1.5 * gamma(0.5) / (2.0 * gamma(0.5))


def test_constants_alpha_direct(spec_plain):
    assert asymptotic_constants(spec_plain, ParamVector(0.25)).alpha == pytest.approx(0.25)


def test_constants_psi_sinc(spec_sinc):
    c = asymptotic_constants(spec_sinc, ParamVector(0.0, (0.3,)))
    assert c.psi_plus == pytest.approx(math.exp(0.6 * math.pi / 2), rel=1e-10)
    assert c.psi_minus == pytest.approx(math.exp(-0.6 * math.pi / 2), rel=1e-10)


def test_constants_domain_error(spec_plain):
    with pytest.raises(ParameterDomainError):
        asymptotic_constants(spec_plain, ParamVector(0.6))


@settings(max_examples=25)
@given(theta1=st.floats(min_value=0.01, max_value=0.49))
def test_alpha_symmetry_and_monotonicity(theta1):
    spec = ModelSpec.from_names(1.0, "none")
    a_plus = asymptotic_constants(spec, ParamVector(theta1)).alpha
    a_minus = asymptotic_constants(spec, ParamVector(-theta1)).alpha
    assert a_plus + a_minus == pytest.approx(1.0, rel=1e-12)
    assert a_plus < 0.5 < a_minus


def test_norming_values(spec_plain, theta_zero):
    alpha_n, delta_n = norming(spec_plain, theta_zero, 100)
    assert alpha_n == pytest.approx(10 * math.sqrt(2) / 2, rel=1e-12)
    assert delta_n == pytest.approx(100 ** -0.25)
    alpha_1, delta_1 = norming(spec_plain, theta_zero, 1)
    assert alpha_1 == pytest.approx(math.sqrt(2) / 2)
    assert delta_1 == 1.0


@settings(max_examples=10)
@given(theta1=theta1_domain, n=st.integers(min_value=1, max_value=10**6))
def test_local_scale_identity(theta1, n):
    spec = ModelSpec.from_names(1.0, "none")
    th = ParamVector(theta1)
    c = asymptotic_constants(spec, th)
    _, delta_n = norming(spec, th, n)
    assert delta_n**2 * n**c.alpha == pytest.approx(1.0, rel=1e-9)


# ----------------------------------------------------------------- moments

def test_moment_matrix_plain_full_line(spec_plain, theta_zero):
    lam = mu_moment_matrix(spec_plain, theta_zero)
    assert lam.shape == (1, 1)
    assert lam[0, 0] == pytest.approx(np.pi / 2, abs=1e-10)


def test_moment_matrix_plain_window(spec_plain, theta_zero):
    lam = mu_moment_matrix(spec_plain, theta_zero, window=(-1.0, 1.0))
    assert lam[0, 0] == pytest.approx(np.pi / 4 - 0.5, abs=1e-10)


def test_moment_matrix_sinc_oscillatory_entry(spec_sinc, theta_sinc):
    # frozen reference from half-period panel summation out to 5e5
    lam = mu_moment_matrix(spec_sinc, theta_sinc)
    assert lam[0, 1] == pytest.approx(0.7975785461, abs=2e-4)
    assert lam[0, 1] == lam[1, 0]


# bench/oracle.json (python3 bench/oracle.py): Gauss-Legendre, 32 nodes per
# pi-wide panel over [-1e5 pi, 1e5 pi] plus the 1/x^2 tail, sigma = 1, sinc.
_ORACLE = (
    ((0.3,), None, [[2.198910067036765, 0.7975785461156857],
                    [0.7975785461156857, 3.740427945782389]]),
    ((0.3,), (-2.0, 2.0), [[0.86650973740209, 0.7468813772204677],
                           [0.7468813772204677, 3.0520012583824716]]),
    ((0.5,), None, [[3.5619513651712142, 1.538831932120315],
                    [1.538831932120315, 4.982723902766246]]),
)


@pytest.mark.parametrize("theta2, window, want", _ORACLE)
def test_moment_matrix_matches_panel_oracle(spec_sinc, theta2, window, want):
    got, est = _moment_matrix_and_error(spec_sinc, ParamVector(0.0, theta2), window)
    np.testing.assert_allclose(mu_moment_matrix(spec_sinc, ParamVector(0.0, theta2),
                                                window=window), got, rtol=0, atol=0)
    want = np.array(want)
    assert np.abs(got - want).max() <= 2e-8
    if window is None:
        # the oracle takes int_R^inf f1 sinc m as 0; its leading term is
        # (e^(lam2 pi/2) - e^(-lam2 pi/2)) cos(R) / R^2 at R = 1e5 pi
        r, lam2 = 1e5 * np.pi, 2.0 * theta2[0]
        want[0, 1] = want[1, 0] = want[0, 1] + (
            np.exp(lam2 * np.pi / 2) - np.exp(-lam2 * np.pi / 2)) / r**2
    assert np.all(est >= np.abs(got - want))


@pytest.mark.parametrize("theta1", [-0.45, -0.2, 0.2, 0.45])
def test_moment_matrix_plain_closed_form(spec_plain, theta1):
    # mu(f1^2) = int x^2 (1+x^2)^(lam1/2 - 2) dx = B(3/2, (1 - lam1)/2)
    got, est = _moment_matrix_and_error(spec_plain, ParamVector(theta1))
    want = math.gamma(1.5) * math.gamma(0.5 - theta1) / math.gamma(2.0 - theta1)
    assert abs(got[0, 0] - want) <= est[0, 0] <= 1e-8


def test_moment_matrix_raises_above_error_bound(spec_sinc):
    # near lam1 = 1 with a large secondary drift the tail bound exceeds 1e-8
    th = ParamVector(0.49, (1.0,))
    _, est = _moment_matrix_and_error(spec_sinc, th)
    assert est.max() > 1e-8
    with pytest.raises(QuadratureError):
        mu_moment_matrix(spec_sinc, th)


def test_gauss_kronrod_constants():
    xg, wg = np.polynomial.legendre.leggauss(10)
    gauss = _GK_WG > 0
    np.testing.assert_allclose(_GK_X[gauss], xg, atol=1e-15)
    np.testing.assert_allclose(_GK_WG[gauss], wg, atol=1e-15)
    # the 21-point Kronrod rule integrates x^k exactly up to k = 31
    for k in range(32):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert np.dot(_GK_WK, _GK_X**k) == pytest.approx(exact, abs=1e-14)


def test_moment_matrix_window_gap_psd(spec_sinc, theta_sinc):
    full = mu_moment_matrix(spec_sinc, theta_sinc)
    win = mu_moment_matrix(spec_sinc, theta_sinc, window=(-2.0, 2.0))
    np.linalg.cholesky(full - win)  # raises if not positive definite


def test_moment_matrix_positive_definite_fourier():
    spec = ModelSpec.from_names(1.0, "fourier-1")
    th = ParamVector(0.1, (0.2, -0.1))
    lam = mu_moment_matrix(spec, th, window=(-4.0, 4.0))
    np.linalg.cholesky(lam)
    np.testing.assert_allclose(lam, lam.T)


def test_moment_matrix_whole_line_fourier():
    spec = ModelSpec.from_names(1.0, "fourier-1")
    th = ParamVector(0.1, (0.2, -0.1))
    full, est = _moment_matrix_and_error(spec, th)
    assert est.max() <= 1e-8
    np.linalg.cholesky(full)
    np.linalg.cholesky(full - mu_moment_matrix(spec, th, window=(-4.0, 4.0)))


def test_moment_matrix_degenerate_window(spec_plain, theta_zero):
    with pytest.raises(DegenerateWindowError):
        mu_moment_matrix(spec_plain, theta_zero, window=(2.0, 2.0))


def test_scaled_moment_matrix(spec_sinc, theta_sinc):
    c = asymptotic_constants(spec_sinc, theta_sinc)
    lam = mu_moment_matrix(spec_sinc, theta_sinc)
    sig = information_scale_matrix(spec_sinc, theta_sinc)
    np.testing.assert_allclose(sig, c.d_weight / (c.psi_plus + c.psi_minus) * lam,
                               rtol=1e-12)


def test_fourier_gram_nonsingular():
    # linear independence of (f1, f_{2,1}, ..., f_{2,2L}) on a short interval
    spec = ModelSpec.from_names(1.0, "fourier-2")
    funcs = (lambda x: x / (1 + x * x),) + spec.basis.funcs
    xs = np.linspace(0.1, 1.1, 400)
    w = (xs[1] - xs[0])
    gram = np.array([[np.sum(f(xs) * g(xs)) * w for g in funcs] for f in funcs])
    assert np.linalg.matrix_rank(gram, tol=1e-10) == len(funcs)
    assert np.min(np.linalg.eigvalsh(gram)) > 0


# ------------------------------------------------------------ recurrence

def test_classification_examples(spec_plain):
    assert classify_recurrence(spec_plain, 0.6) == "transient"
    assert classify_recurrence(spec_plain, -0.7) == "positive_recurrent"
    assert classify_recurrence(spec_plain, 0.0) == "null_recurrent"


def test_classification_boundaries(spec_plain):
    assert classify_recurrence(spec_plain, 0.5) == "null_recurrent"
    assert classify_recurrence(spec_plain, -0.5) == "null_recurrent"


def test_classification_scales_with_sigma():
    spec = ModelSpec.from_names(2.0, "none")
    assert classify_recurrence(spec, 0.6) == "null_recurrent"  # lambda1 = 0.3
    assert classify_recurrence(spec, 2.5) == "transient"
