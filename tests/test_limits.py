import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from nullrec import (
    LimitLawSpec,
    inv_sqrt_spd,
    ks_statistic,
    sample_limit_error,
    sample_mittag_leffler,
    sample_stable,
)
from nullrec.limits import make_loss, monte_carlo_risk, rng_stream

N_BIG = 100_000


def test_stable_positive(rng):
    s = sample_stable(0.7, rng, size=5000)
    assert np.all(s > 0)


def test_stable_alpha_range(rng):
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            sample_stable(bad, rng, size=1)


def test_stable_laplace_transform():
    # E exp(-z S) = exp(-z^alpha), three alphas x three arguments
    for i, alpha in enumerate((0.25, 0.5, 0.75)):
        s = sample_stable(alpha, rng_stream(404, ctx=i), size=N_BIG)
        for zeta in (0.5, 1.0, 2.0):
            vals = np.exp(-zeta * s)
            err = abs(vals.mean() - math.exp(-(zeta**alpha)))
            assert err <= 3.0 * vals.std(ddof=1) / math.sqrt(N_BIG)


def test_stable_half_matches_closed_form_density():
    # alpha=1/2 is the one-sided law with density t^(-3/2) e^(-1/(4t)) / (2 sqrt(pi)),
    # whose CDF is erfc(1/(2 sqrt(t))); one-sample KS against it
    s = np.sort(sample_stable(0.5, rng_stream(78), size=N_BIG))
    cdf = erfc(1.0 / (2.0 * np.sqrt(s)))
    emp_hi = np.arange(1, N_BIG + 1) / N_BIG
    emp_lo = np.arange(0, N_BIG) / N_BIG
    ks = max(np.abs(cdf - emp_hi).max(), np.abs(cdf - emp_lo).max())
    assert ks <= 0.01


def test_stable_self_similarity():
    # sum of k draws is distributed as k^(1/alpha) times one draw
    alpha, k, n = 0.5, 2, 10_000
    summed = sample_stable(alpha, rng_stream(79), size=(k * n)).reshape(n, k).sum(axis=1)
    scaled = k ** (1 / alpha) * sample_stable(alpha, rng_stream(80), size=n)
    assert ks_statistic(summed, scaled) <= 0.015


def test_mittag_leffler_positive_and_mean():
    v = sample_mittag_leffler(0.5, rng_stream(81), size=N_BIG)
    assert np.all(v > 0)
    target = 2.0 / math.sqrt(math.pi)  # 1/Gamma(1.5)
    assert abs(v.mean() - target) <= 3.0 * v.std(ddof=1) / math.sqrt(N_BIG)


def test_mittag_leffler_second_moment():
    # E V^n = n! / Gamma(1 + n alpha); n=2, alpha=0.5 gives 2
    v = sample_mittag_leffler(0.5, rng_stream(82), size=N_BIG)
    sq = v * v
    assert abs(sq.mean() - 2.0) <= 4.0 * sq.std(ddof=1) / math.sqrt(N_BIG)


def test_mittag_leffler_reciprocal_mean_diverges():
    # no moment of order -1: decade running means keep drifting upward
    v = sample_mittag_leffler(0.5, rng_stream(83), size=N_BIG)
    recip = 1.0 / v
    m3, m4, m5 = (recip[:k].mean() for k in (1000, 10_000, 100_000))
    assert m5 > 1.2 * m3
    assert max(m4 / m3, m5 / m4) > 1.15
    # contrast: V itself has all positive moments and its mean stabilizes
    mv3, mv5 = v[:1000].mean(), v.mean()
    assert abs(mv5 / mv3 - 1.0) < 0.15


def test_limit_error_shapes_and_symmetry():
    law = LimitLawSpec(alpha=0.5, cov=np.array([[2.0, 0.3], [0.3, 1.0]]))
    z = sample_limit_error(law, rng_stream(84), size=20_000)
    assert z.shape == (20_000, 2)
    # sign flip leaves the law invariant
    for c in range(2):
        assert ks_statistic(z[:, c], -z[:, c]) <= 0.02


def test_limit_error_two_generator_agreement():
    # production sampler vs an independently coded two-stage construction
    lam = np.array([[math.pi / 2]])
    law = LimitLawSpec(alpha=0.5, cov=lam)
    a = sample_limit_error(law, rng_stream(85), size=N_BIG)[:, 0]
    oracle_rng = np.random.default_rng(999)
    s = sample_stable(0.5, rng_stream(86), size=N_BIG)
    v = (1.0 / s) ** 0.5
    b = oracle_rng.normal(size=N_BIG) * np.sqrt((2.0 / math.pi) / v)
    assert ks_statistic(a, b) <= 0.01


def test_limit_error_variance_nonstabilizing():
    law = LimitLawSpec(alpha=0.5, cov=np.eye(1))
    z = sample_limit_error(law, rng_stream(87), size=N_BIG)[:, 0]
    v3, v4, v5 = (z[:k].var() for k in (1000, 10_000, 100_000))
    assert max(abs(v4 / v3 - 1.0), abs(v5 / v4 - 1.0)) > 0.2


def test_inv_sqrt_identity():
    rng = np.random.default_rng(3)
    for p in (1, 2, 4):
        a = rng.normal(size=(p, p))
        cov = a @ a.T + 0.5 * np.eye(p)
        root = inv_sqrt_spd(cov)
        np.testing.assert_allclose(root @ cov @ root, np.eye(p), atol=1e-10)


def test_inv_sqrt_rejects_semidefinite():
    with pytest.raises(ValueError):
        inv_sqrt_spd(np.zeros((2, 2)))


def test_law_spec_validation():
    with pytest.raises(ValueError):
        LimitLawSpec(alpha=1.2, cov=np.eye(2))
    with pytest.raises(ValueError):
        LimitLawSpec(alpha=0.5, cov=np.array([[1.0, 0.5], [0.0, 1.0]]))
    law = LimitLawSpec(alpha=0.5, cov=np.eye(3))
    assert law.dim == 3


@settings(max_examples=20)
@given(alpha=st.floats(min_value=0.05, max_value=0.95),
       seed=st.integers(min_value=0, max_value=2**30))
def test_stable_draws_always_positive(alpha, seed):
    s = sample_stable(alpha, rng_stream(seed, ctx=5), size=64)
    assert np.all(s > 0) and np.all(np.isfinite(s))


def test_losses_bounded():
    sq = make_loss("sqclip", clip=4.0)
    ex = make_loss("exp")
    x = np.array([[0.0, 0.0], [10.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(sq(x), [0.0, 4.0, 2.0])
    vals = ex(x)
    assert np.all((0 <= vals) & (vals <= 1))
    with pytest.raises(ValueError):
        make_loss("hinge")


def test_constant_like_loss_matches_bound():
    # loss everywhere at its cap: Monte Carlo risk equals the cap exactly
    law = LimitLawSpec(alpha=0.5, cov=np.eye(2))
    loss = make_loss("sqclip", clip=1e-12)
    est, stderr = monte_carlo_risk(law, loss, 4000, rng_stream(88))
    assert est == pytest.approx(1e-12, rel=1e-6)
    assert stderr <= 1e-14


def test_risk_bounded_loss_in_range():
    law = LimitLawSpec(alpha=0.5, cov=np.eye(2))
    est, stderr = monte_carlo_risk(law, make_loss("sqclip", clip=4.0), 20_000,
                                   rng_stream(89))
    assert 0.0 <= est <= 4.0
    est2, _ = monte_carlo_risk(law, make_loss("exp"), 20_000, rng_stream(90))
    assert 0.0 <= est2 <= 1.0
