import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullrec import (
    DegenerateWindowError,
    ParamVector,
    SufficientStats,
    accumulate_stats,
    log_likelihood_ratio,
    mle,
    naive_estimator,
    one_step,
    restricted_mle,
    score_at,
    simulate_path,
)
from nullrec.errors import DegenerateSampleError


def stats_of(y, j, t=1.0, window=None, x0=0.0):
    return SufficientStats(y=np.asarray(y, float), j=np.asarray(j, float),
                           t=t, window=window, x0=x0)


def random_spd(rng, p):
    a = rng.normal(size=(p, p))
    return a @ a.T + 0.1 * np.eye(p)


# -------------------------------------------------------------------- mle

def test_mle_identity_solve():
    est = mle(stats_of([1.0, 0.0], np.eye(2)))
    np.testing.assert_allclose(est.theta_hat, [1.0, 0.0])
    assert est.j_invertible


def test_mle_zero_matrix_gate():
    est = mle(stats_of([1.0, 2.0], np.zeros((2, 2))))
    assert not est.j_invertible
    np.testing.assert_array_equal(est.theta_hat, [0.0, 0.0])


def test_mle_construct_then_solve():
    rng = np.random.default_rng(42)
    for _ in range(20):
        j = random_spd(rng, 2)
        truth = np.array([0.3, -0.2])
        est = mle(stats_of(j @ truth, j))
        np.testing.assert_allclose(est.theta_hat, truth, atol=1e-12)


@settings(max_examples=40)
@given(data=st.data())
def test_mle_error_representation(data):
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    p = data.draw(st.integers(min_value=1, max_value=4))
    j = random_spd(rng, p)
    y = rng.normal(size=p)
    theta = rng.normal(size=p)
    st_ = stats_of(y, j)
    est = mle(st_)
    resid = (est.theta_hat - theta) - np.linalg.solve(j, y - j @ theta)
    assert np.abs(resid).max() < 1e-10


def test_mle_conditioning_reported():
    est = mle(stats_of([1.0], [[4.0]]))
    assert est.conditioning == pytest.approx(4.0)


# -------------------------------------------------------- restricted mle

def test_restricted_needs_window():
    with pytest.raises(DegenerateWindowError):
        restricted_mle(stats_of([1.0], [[1.0]], window=None))


def test_restricted_x0_interior():
    st_ = stats_of([1.0], [[1.0]], window=(1.0, 2.0), x0=0.0)
    with pytest.raises(DegenerateWindowError):
        restricted_mle(st_)
    ok = restricted_mle(stats_of([1.0], [[1.0]], window=(-1.0, 2.0), x0=0.0))
    np.testing.assert_allclose(ok.theta_hat, [1.0])


def test_restricted_whole_line_equals_mle(spec_sinc, theta_sinc):
    p = simulate_path(spec_sinc, theta_sinc, 20.0, 1e-2, 3)
    plain = accumulate_stats(spec_sinc, p)
    capped = accumulate_stats(spec_sinc, p, window=(-np.inf, np.inf))
    np.testing.assert_array_equal(restricted_mle(capped).theta_hat,
                                  mle(plain).theta_hat)


def test_restricted_gate_zero():
    est = restricted_mle(stats_of([0.0], [[0.0]], window=(-1.0, 1.0), x0=0.0))
    assert not est.j_invertible
    np.testing.assert_array_equal(est.theta_hat, [0.0])


def test_restricted_monte_carlo_consistency(spec_sinc):
    # windowed estimates concentrate around the truth on long paths; medians,
    # not means, since the error laws carry no finite variance
    from nullrec import run_ensemble

    truth = ParamVector(0.0, (0.3,))
    horizon, reps = 1000.0, 200
    res = run_ensemble(spec_sinc, truth, horizon, 1e-2, 55, reps,
                       window=(-2.0, 2.0))
    ests = []
    for i in range(reps):
        st_ = stats_of(res.y_win[i], res.j_win[i], t=horizon,
                       window=(-2.0, 2.0), x0=0.0)
        est = restricted_mle(st_)
        if est.j_invertible:
            ests.append(est.theta_hat)
    ests = np.array(ests)
    assert len(ests) >= 0.9 * reps
    med = np.median(ests, axis=0)
    med_se = 1.2533 * ests.std(axis=0, ddof=1) / np.sqrt(len(ests))
    for c, target in enumerate(truth.as_array()):
        assert abs(med[c] - target) <= 3.0 * med_se[c]


# ---------------------------------------------------------------- stacked

def _stacked_ensemble(spec_sinc):
    """Ensemble statistics plus gated rows: a zero J and single Euler steps."""
    from nullrec import run_ensemble

    th = ParamVector(0.1, (-0.3,))
    win = (-2.0, 2.0)
    long = run_ensemble(spec_sinc, th, 20.0, 1e-2, 3, 12, window=win)
    short = run_ensemble(spec_sinc, th, 1.0, 1.0, 3, 3, window=win)
    zero_y, zero_j = np.ones((1, 2)), np.zeros((1, 2, 2))
    line = (np.concatenate([long.y, short.y, zero_y]),
            np.concatenate([long.j, short.j, zero_j]))
    windowed = (np.concatenate([long.y_win, short.y_win, zero_y]),
                np.concatenate([long.j_win, short.j_win, zero_j]))
    return line, windowed, win


def test_stacked_mle_equals_per_record(spec_sinc):
    (y, j), (yw, jw), win = _stacked_ensemble(spec_sinc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = mle(stats_of(y, j, t=20.0))
        stacked_w = restricted_mle(stats_of(yw, jw, t=20.0, window=win))
    for est, ys, js, window in ((stacked, y, j, None), (stacked_w, yw, jw, win)):
        assert est.theta_hat.shape == ys.shape
        assert est.j_invertible.shape == est.conditioning.shape == (len(ys),)
        assert 0 < np.count_nonzero(est.j_invertible) < len(ys)
        for i in range(len(ys)):
            one = mle(stats_of(ys[i], js[i], t=20.0, window=window))
            assert type(one.j_invertible) is bool and type(one.conditioning) is float
            np.testing.assert_array_equal(est.theta_hat[i], one.theta_hat)
            assert est.j_invertible[i] == one.j_invertible
            assert est.conditioning[i] == one.conditioning
        np.testing.assert_array_equal(est.theta_hat[~est.j_invertible], 0.0)


def _stacked_spd(p, seed=0):
    """Stacked statistics of widely varying scale with gated records: a zero
    J, a rank-one J, a J with one eigenvalue below the relative floor and a
    negative definite J."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(60, p, p)) * rng.uniform(0.01, 100.0, size=(60, 1, 1))
    j = a @ np.swapaxes(a, -1, -2) + 1e-3 * np.eye(p)
    u = rng.normal(size=p)
    j[5] = 0.0
    j[17] = np.outer(u, u)
    j[23] = np.eye(p)
    j[23, 0, 0] = 1e-13 * p
    j[41] = -np.eye(p)
    y = rng.normal(size=(60, p)) * 10.0
    return stats_of(y, j, t=5.0), rng


@pytest.mark.parametrize("p", [1, 2, 3, 7])
def test_stacked_likelihood_bit_identical_per_record(p):
    stacked, rng = _stacked_spd(p)
    ones = [stats_of(stacked.y[i], stacked.j[i], t=5.0) for i in range(len(stacked.y))]
    a, b = rng.normal(size=(2, p))
    prelim = rng.normal(scale=3.0, size=p)

    score = score_at(stacked, a)
    assert score.shape == stacked.y.shape
    assert np.array_equal(score, [score_at(one, a) for one in ones])

    llr = log_likelihood_ratio(stacked, b, a)
    assert llr.shape == (len(ones),)
    d = b - a
    per_record = [log_likelihood_ratio(one, b, a) for one in ones]
    assert all(type(v) is float for v in per_record)
    assert np.array_equal(llr, per_record)
    # the record-wise formula, grouped as d.s - ((d/2) J).d
    assert np.array_equal(llr, [float(d @ score_at(one, a) - 0.5 * d @ one.j @ d)
                                for one in ones])

    step = one_step(stacked, prelim)
    est = mle(stacked)
    assert step.theta_hat.shape == stacked.y.shape
    assert np.array_equal(step.j_invertible, est.j_invertible)
    assert np.array_equal(step.conditioning, est.conditioning)
    gated = ~step.j_invertible
    # for p = 1 a rank-one J is full rank and the floor is relative to J itself
    expected = [5, 41] if p == 1 else [5, 17, 23, 41]
    assert np.flatnonzero(gated).tolist() == expected
    assert np.array_equal(step.theta_hat[gated], np.broadcast_to(prelim, (len(expected), p)))
    for i, one in enumerate(ones):
        single = one_step(one, prelim)
        assert type(single.j_invertible) is bool and type(single.conditioning) is float
        assert np.array_equal(step.theta_hat[i], single.theta_hat)
        assert step.j_invertible[i] == single.j_invertible
        assert step.conditioning[i] == single.conditioning


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_likelihood_rejects_wrong_parameter_length(stacked):
    st_, _ = _stacked_spd(2)
    if not stacked:
        st_ = stats_of(st_.y[0], st_.j[0])
    good, bad = np.zeros(2), np.zeros(3)
    with pytest.raises(ValueError):
        score_at(st_, bad)
    with pytest.raises(ValueError):
        log_likelihood_ratio(st_, bad, good)
    with pytest.raises(ValueError):
        log_likelihood_ratio(st_, good, bad)
    with pytest.raises(ValueError):
        one_step(st_, bad)
    # one preliminary serves the whole stack; a per-record one is refused
    with pytest.raises(ValueError):
        one_step(st_, np.zeros((len(st_.y), 2)) if stacked else np.zeros((1, 2)))


def test_stacked_stats_shapes_checked():
    with pytest.raises(ValueError):
        stats_of(np.zeros((3, 2)), np.zeros((3, 2, 3)))
    with pytest.raises(ValueError):
        stats_of(np.zeros((3, 2)), np.zeros((2, 2, 2)))


# ------------------------------------------------------------------ naive

def test_naive_matches_mle_first_coord_when_m0():
    st_ = stats_of([0.8], [[2.0]])
    check = naive_estimator(st_)
    assert isinstance(check, float)
    assert check == pytest.approx(mle(st_).theta_hat[0])


def test_naive_stacked_matches_rows():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((5, 2))
    j = np.eye(2) * rng.uniform(0.5, 2.0, (5, 1, 1))
    check = naive_estimator(stats_of(y, j))
    assert check.shape == (5,)
    for r in range(5):
        assert check[r] == naive_estimator(stats_of(y[r], j[r]))


def test_naive_degenerate():
    with pytest.raises(DegenerateSampleError):
        naive_estimator(stats_of([1.0], [[0.0]]))
    with pytest.raises(DegenerateSampleError):
        naive_estimator(stats_of([[1.0], [1.0]], [[[2.0]], [[0.0]]]))


# ------------------------------------------------------------ likelihood

def test_llr_same_point_zero():
    st_ = stats_of([0.4, -0.2], random_spd(np.random.default_rng(5), 2))
    v = np.array([0.3, 1.0])
    assert log_likelihood_ratio(st_, v, v) == 0.0


def test_llr_hand_value():
    st_ = stats_of([1.0, 0.0], np.eye(2))
    got = log_likelihood_ratio(st_, np.array([1.0, 0.0]), np.zeros(2))
    assert got == pytest.approx(0.5)


def test_llr_maximized_at_mle():
    rng = np.random.default_rng(7)
    st_ = stats_of(rng.normal(size=3), random_spd(rng, 3))
    peak = mle(st_).theta_hat
    base = np.zeros(3)
    at_peak = log_likelihood_ratio(st_, peak, base)
    for _ in range(30):
        other = peak + rng.normal(scale=0.5, size=3)
        assert log_likelihood_ratio(st_, other, base) <= at_peak + 1e-12


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_llr_cocycle(seed):
    rng = np.random.default_rng(seed)
    st_ = stats_of(rng.normal(size=2), random_spd(rng, 2))
    a, b, c = rng.normal(size=(3, 2))
    lhs = log_likelihood_ratio(st_, c, a)
    rhs = log_likelihood_ratio(st_, c, b) + log_likelihood_ratio(st_, b, a)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_llr_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    st_ = stats_of(rng.normal(size=2), random_spd(rng, 2))
    a, b = rng.normal(size=(2, 2))
    assert log_likelihood_ratio(st_, a, b) == pytest.approx(
        -log_likelihood_ratio(st_, b, a), abs=1e-10)


# --------------------------------------------------------------- one step

def test_one_step_fixed_point():
    rng = np.random.default_rng(11)
    st_ = stats_of(rng.normal(size=2), random_spd(rng, 2))
    peak = mle(st_).theta_hat
    np.testing.assert_allclose(one_step(st_, peak).theta_hat, peak, atol=1e-12)


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_one_step_reproduces_mle(seed):
    rng = np.random.default_rng(seed)
    st_ = stats_of(rng.normal(size=3), random_spd(rng, 3))
    prelim = rng.normal(scale=3.0, size=3)
    step = one_step(st_, prelim)
    np.testing.assert_allclose(step.theta_hat, mle(st_).theta_hat, atol=1e-12)


def test_one_step_singular_returns_preliminary():
    prelim = np.array([0.7, -0.4])
    step = one_step(stats_of([0.0, 0.0], np.zeros((2, 2))), prelim)
    assert not step.j_invertible
    np.testing.assert_array_equal(step.theta_hat, prelim)


def test_one_step_rejects_nonfinite():
    with pytest.raises(ValueError):
        one_step(stats_of([0.0], [[1.0]]), np.array([np.nan]))
