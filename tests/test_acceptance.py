"""End-to-end acceptance suite.

Each test prints one `ACCEPTANCE <n>: ...` line so the suite doubles as a
human-readable scorecard (run with -s).  The heavy experiments are the canned
configs of scripts/configs/, run once per session through module-scoped
fixtures; seeds are fixed so every number below is reproducible, and each
report's CSV must equal tests/golden/canned_<kind>.csv byte for byte.
Regenerate those with

    PYTHONPATH=src python scripts/run_experiments.py <kind> ...
    cp out/<kind>.csv tests/golden/canned_<kind>.csv   # for each kind

A deliberate re-baseline regenerates the files in the same change and shows
their diff; the CSVs must come out the same at NULLREC_THREADS=1 and 2.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from nullrec import (
    ExperimentConfig,
    ModelSpec,
    ParamVector,
    antiderivative_F,
    mu_moment_matrix,
    run_experiment,
    sample_mittag_leffler,
    sample_stable,
)
from nullrec.cli import emit_report
from nullrec.harness import KINDS
from nullrec.limits import rng_stream

pytestmark = pytest.mark.acceptance


def _announce(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _one(report, stat, **kw):
    rows = report.find(stat, **kw)
    assert len(rows) == 1, f"expected one row {stat} {kw}, got {len(rows)}"
    return rows[0]


# ---------------------------------------------------------------- fixtures

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"
GOLDEN = Path(__file__).parent / "golden"


def _canned(kind):
    """The canned config scripts/configs/<kind>.json, without its output path."""
    data = json.loads((CONFIG_DIR / f"{kind}.json").read_text(encoding="utf-8"))
    del data["output"]
    return ExperimentConfig.from_dict(data)


def _run_canned(kind):
    """The canned report of kind, run on two workers (NULLREC_THREADS=2).

    Results may not depend on the worker count, so the golden CSVs hold each
    report to that as well as to its numbers.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("NULLREC_THREADS", "2")
        return run_experiment(_canned(kind))


@pytest.fixture(scope="module")
def identity_report():
    return _run_canned("identity")


@pytest.fixture(scope="module")
def rate_report():
    return _run_canned("rate")


@pytest.fixture(scope="module")
def tail_report():
    return _run_canned("tail")


@pytest.fixture(scope="module")
def rlt_report():
    return _run_canned("rlt")


@pytest.fixture(scope="module")
def risk_report():
    return _run_canned("risk")


# ---------------------------------------------------------------- criteria

def test_criterion_1_exact_identities(identity_report):
    """Likelihood algebra exact to 1e-10 over 100 replications in under 10 s."""
    rep = identity_report
    worst = max(r.value for r in rep.rows if r.stat_name.startswith("max_residual"))
    ok = worst <= 1e-10 and rep.wall_clock < 10.0
    _announce(1, ok, f"max residual {worst:.3e} (tol 1e-10), "
                     f"wall {rep.wall_clock:.2f}s (< 10s)")


def test_criterion_2_stable_laplace_transform():
    """One-sided stable sampler matches exp(-zeta^alpha) within 3 stderr."""
    t0 = time.perf_counter()
    worst = ("", 0.0)
    for i, alpha in enumerate((0.25, 0.5, 0.75)):
        s = sample_stable(alpha, rng_stream(404, ctx=i), size=100_000)
        for zeta in (0.5, 1.0, 2.0):
            vals = np.exp(-zeta * s)
            z = (abs(vals.mean() - math.exp(-(zeta**alpha)))
                 / (vals.std(ddof=1) / math.sqrt(vals.size)))
            if z > worst[1]:
                worst = (f"alpha={alpha},zeta={zeta}", z)
    wall = time.perf_counter() - t0
    ok = worst[1] <= 3.0 and wall < 5.0
    _announce(2, ok, f"worst |mean - target| = {worst[1]:.2f} stderr at "
                     f"{worst[0]} (<= 3), wall {wall:.2f}s (< 5s)")


def test_criterion_3_mittag_leffler_identity():
    """Mean of (1/S)^0.5 matches 2/sqrt(pi); 1/V running mean keeps drifting."""
    v = sample_mittag_leffler(0.5, rng_stream(1, ctx=30), size=100_000)
    target = 2.0 / math.sqrt(math.pi)
    z = abs(v.mean() - target) / (v.std(ddof=1) / math.sqrt(v.size))
    recip = 1.0 / v
    m3, m4, m5 = (recip[:k].mean() for k in (1_000, 10_000, 100_000))
    drift = max(abs(m4 / m3 - 1.0), abs(m5 / m4 - 1.0))
    nonstable = drift > 0.15 and m5 > m3
    ok = z <= 3.0 and nonstable
    _announce(3, ok, f"mean {v.mean():.5f} vs {target:.5f} ({z:.2f} stderr); "
                     f"1/V decade means {m3:.2f}, {m4:.2f}, {m5:.2f} "
                     f"(max drift {drift:.0%}, non-stabilizing)")


def test_criterion_4_life_cycle_tails(tail_report):
    """Hill index in [0.43, 0.57]; tail constant within 25% of theory."""
    rep = tail_report
    n = _one(rep, "completed_cycles").value
    hill = _one(rep, "hill_alpha").value
    c_hat = _one(rep, "tail_constant").value
    c_th = _one(rep, "tail_constant_theory").value
    ok = (n >= 5000 and 0.43 <= hill <= 0.57
          and abs(c_hat - c_th) <= 0.25 * c_th
          and rep.wall_clock <= 15 * 60)
    _announce(4, ok, f"{n:.0f} cycles, hill {hill:.4f} in [0.43, 0.57], "
                     f"constant {c_hat:.4f} vs {c_th:.4f} "
                     f"({(c_hat / c_th - 1):+.1%}, tol 25%), "
                     f"wall {rep.wall_clock:.0f}s (<= 900s)")


def test_criterion_5_rate_and_limit_law(rate_report):
    """Rescaled-error stability across horizons and limit-law proximity."""
    rep = rate_report
    details = []
    ok = rep.wall_clock <= 45 * 60
    for coord in (0, 1):
        cross = _one(rep, "ks_cross_horizon", coord=coord).value
        lim = _one(rep, "ks_vs_limit", horizon=4000, coord=coord).value
        cal = _one(rep, "ks_calibration", coord=coord).value
        ok = ok and cross <= 0.08 and lim <= 0.10 and cal <= 0.05
        details.append(f"coord {coord}: cross {cross:.3f} (<=0.08), "
                       f"limit {lim:.3f} (<=0.10), calib {cal:.3f} (<=0.05)")
    _announce(5, ok, "; ".join(details) + f"; wall {rep.wall_clock:.0f}s")


def test_criterion_6_restricted_estimator_spread(rate_report):
    """Windowed errors strictly wider in every coordinate; moment gap PD."""
    rep = rate_report
    ratios = [r.value for r in rep.rows
              if r.stat_name == "iqr_ratio_windowed_over_mle"]
    gap = _one(rep, "moment_matrix_gap_min_eig").value
    ok = len(ratios) == 4 and all(v > 1.0 for v in ratios) and gap > 0.0
    _announce(6, ok, f"IQR ratios {['%.2f' % v for v in ratios]} all > 1; "
                     f"min eig of moment-matrix gap {gap:.4f} > 0")


def test_criterion_7_ratio_limit_inconsistency(rlt_report):
    """Naive estimator's bias matches quadrature; deviation >> MLE error."""
    rep = rlt_report
    med = _one(rep, "b_check_terminal_median").value
    pred = _one(rep, "b_check_predicted").value
    ratio = _one(rep, "naive_over_mle_ratio").value
    ok = abs(med - pred) <= 0.15 * abs(pred) and ratio > 3.0
    _announce(7, ok, f"terminal median {med:.4f} vs predicted {pred:.4f} "
                     f"({(med / pred - 1):+.1%}, tol 15%); "
                     f"naive/MLE deviation ratio {ratio:.2f} (> 3)")


def test_criterion_8_quadrature_oracles():
    """Invariant-measure moments and the antiderivative limit, closed forms."""
    spec0 = ModelSpec.from_names(1.0, "none")
    th0 = ParamVector(0.0)
    full = mu_moment_matrix(spec0, th0)[0, 0]
    windowed = mu_moment_matrix(spec0, th0, window=(-1.0, 1.0))[0, 0]
    spec_s = ModelSpec.from_names(1.0, "sinc")
    f_inf = antiderivative_F(spec_s, 1, 1e9)
    e1 = abs(full - math.pi / 2)
    e2 = abs(windowed - (math.pi / 4 - 0.5))
    e3 = abs(f_inf - math.pi / 2)
    ok = e1 <= 1e-6 and e2 <= 1e-8 and e3 <= 1e-4
    _announce(8, ok, f"mu(f1^2) err {e1:.1e} (<=1e-6), windowed err {e2:.1e} "
                     f"(<=1e-8), sinc antiderivative limit err {e3:.1e} (<=1e-4)")


def test_criterion_9_risk_bound_ordering(risk_report):
    """Sup-risk respects the limit bound; windowed risk dominates the MLE's."""
    rep = risk_report
    bound = _one(rep, "risk_bound").value
    z = _one(rep, "bound_respected_zscore").value
    sup_mle = _one(rep, "sup_risk_mle").value
    sup_win = _one(rep, "sup_risk_windowed").value
    dropped = _one(rep, "dropped_h_points").value
    ok = z >= -3.0 and sup_win >= sup_mle and dropped == 0
    _announce(9, ok, f"bound {bound:.4f}, sup-risk MLE {sup_mle:.4f} "
                     f"(z = {z:+.1f} >= -3), windowed {sup_win:.4f} >= MLE; "
                     f"h-points dropped: {dropped:.0f}")


@pytest.mark.parametrize("kind", KINDS)
def test_canned_report_matches_golden(kind, request, tmp_path):
    """Each canned report's CSV is byte-identical to tests/golden/canned_<kind>.csv."""
    report = request.getfixturevalue(f"{kind}_report")
    _, csv_path = emit_report(report, str(tmp_path / kind))
    assert Path(csv_path).read_bytes() == (GOLDEN / f"canned_{kind}.csv").read_bytes()
