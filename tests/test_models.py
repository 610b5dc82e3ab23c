import math

import numpy as np
import pytest
from scipy.stats import chi2, poisson

from fcphotons.models import (
    ModelError,
    RATE_MODEL_PRESETS,
    RateModelParams,
    ab_from_physics,
    accidental_rate_per_bin,
    fit_sbr,
    g2_from_sbr,
    poisson_interval,
    sbr_model,
    singles_rate,
    true_coincidence_rate,
)


def test_singles_rate():
    assert singles_rate(1e6, 0.1, 0.5, 100) == pytest.approx(150100.0)
    assert singles_rate(0.0, 0.3, 0.2, 77.0) == 77.0
    assert singles_rate(1e6, 0.1, 0.0, 0.0) == pytest.approx(1e5)


def test_accidental_rate_per_bin():
    assert accidental_rate_per_bin(1e5, 1e5, 1.5e-9) == pytest.approx(15.0)
    assert accidental_rate_per_bin(1e7, 1e7, 0.0) == 0.0
    assert accidental_rate_per_bin(2e5, 2e5, 1.5e-9) == pytest.approx(60.0)


def test_true_coincidence_rate():
    assert true_coincidence_rate(1e6, 0.1, 0.1) == pytest.approx(1e4)
    assert true_coincidence_rate(1e6, 0.0, 0.5) == 0.0
    assert true_coincidence_rate(1e6, 1.0, 1.0) == pytest.approx(1e6)


def test_ab_from_physics():
    a, _ = ab_from_physics(0.0, 0.91, 0.1, 1.0, 0.0)
    assert a == pytest.approx(19.1)
    _, b = ab_from_physics(0.0, 0.0, 1.0, 1 / 726.0, 2300.0)
    assert b == pytest.approx(1.6698e6, rel=1e-4)
    assert ab_from_physics(0.0, 0.0, 1.0, 1.0, 123.0)[0] == 1.0


def test_sbr_model():
    p = RateModelParams(6.78, 1.67e6, 1.5e-9)
    assert sbr_model(0.0, p) == pytest.approx(399.2, abs=0.5)
    p2 = RateModelParams(19.1, 0.0, 1.5e-9)
    assert sbr_model(1e5, p2) == pytest.approx(349.0, abs=0.5)
    assert sbr_model(1e12, p2) < 1e-3
    with pytest.raises(ModelError):
        sbr_model(0.0, RateModelParams(1.0, 0.0, 1.5e-9))


def test_presets():
    assert RATE_MODEL_PRESETS["run_a"].a == 6.78
    assert RATE_MODEL_PRESETS["run_b"].b == 0.0


def test_g2_from_sbr():
    assert g2_from_sbr(1e12) < 1e-11
    assert g2_from_sbr(0.0) == 1.0
    assert g2_from_sbr(3.0) == pytest.approx(0.4375)
    with pytest.raises(ModelError):
        g2_from_sbr(-0.1)


def test_g2_sbr_monotonicity():
    sbrs = np.linspace(0.0, 50.0, 200)
    vals = [g2_from_sbr(s) for s in sbrs]
    assert np.all(np.diff(vals) < 0)
    assert all(0.0 < v <= 1.0 for v in vals)
    # g2 vs herald rate is nondecreasing
    p = RateModelParams(6.78, 1.67e6, 1.5e-9)
    g2r = [g2_from_sbr(sbr_model(r, p)) for r in np.linspace(0, 1e6, 100)]
    assert np.all(np.diff(g2r) >= 0)


def test_eq4_algebraic_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pair_rate = rng.uniform(1e4, 1e7)
        q1, q2 = rng.uniform(0, 3, 2)
        eta1, eta2 = rng.uniform(0.01, 1.0, 2)
        w2 = rng.uniform(0, 5e3)
        dt = rng.uniform(1e-10, 1e-8)
        s1 = singles_rate(pair_rate, eta1, q1, 0.0)  # herald dark counts neglected
        s2 = singles_rate(pair_rate, eta2, q2, w2)
        direct = true_coincidence_rate(pair_rate, eta1, eta2) / accidental_rate_per_bin(
            s1, s2, dt)
        a, b = ab_from_physics(q1, q2, eta1, eta2, w2)
        model = sbr_model(s1, RateModelParams(a, b, dt))
        assert abs(model - direct) / direct < 1e-12


def test_fit_sbr_noiseless_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(5):
        a, b = rng.uniform(1, 30), rng.uniform(1e4, 1e7)
        dt = 1.5e-9
        r = np.linspace(2e4, 5e5, 9)
        sbr = [sbr_model(x, RateModelParams(a, b, dt)) for x in r]
        res = fit_sbr(np.column_stack([r, sbr]), dt)
        assert res.a == pytest.approx(a, rel=1e-6)
        assert res.b == pytest.approx(b, rel=1e-6)
        assert not res.b_at_boundary


def test_fit_sbr_two_points_exact():
    dt = 1.5e-9
    p = RateModelParams(6.78, 1.67e6, dt)
    pts = [(1e5, sbr_model(1e5, p)), (3e5, sbr_model(3e5, p))]
    res = fit_sbr(pts, dt)
    assert res.a == pytest.approx(6.78, rel=1e-9)
    assert res.b == pytest.approx(1.67e6, rel=1e-9)


def test_fit_sbr_boundary_clamp():
    dt = 1.5e-9
    p = RateModelParams(19.1, 0.0, dt)
    r = np.linspace(5e4, 5e5, 8)
    sbr = np.array([sbr_model(x, p) for x in r])
    # slight noise pulling the intercept negative
    sbr[0] *= 1.001
    res = fit_sbr(np.column_stack([r, sbr]), dt)
    assert res.b_at_boundary
    assert res.b == 0.0
    assert res.a == pytest.approx(19.1, rel=1e-2)


def test_fit_sbr_errors():
    with pytest.raises(ModelError):
        fit_sbr([(1e5, 3.0, 0.1)], 1.5e-9)
    with pytest.raises(ModelError):
        fit_sbr([(1e5, 3.0, 0.1), (1e5, 2.0, 0.1), (1e5, 4.0, 0.1)], 1.5e-9)
    with pytest.raises(ModelError):
        fit_sbr([(1e5, -3.0), (2e5, 2.0)], 1.5e-9)
    with pytest.raises(ModelError):
        fit_sbr([(1e5,), (2e5,)], 1.5e-9)  # a rate column without SBR values
    with pytest.raises(ModelError, match="columns"):
        fit_sbr([(1e5, 3.0, 0.1, 7.0), (2e5, 2.0, 0.1, 7.0)], 1.5e-9)
    with pytest.raises(ModelError, match="rates must be nonnegative"):
        fit_sbr([(-1e5, 283.93), (2e5, 220.31), (3e5, 179.99)], 1.5e-9)
    assert fit_sbr([(0.0, 399.2), (2e5, 220.31), (4e5, 152.14)], 1.5e-9).a > 0  # a rate of 0
    # sigmas are all positive (weighted) or all zero (unweighted), never mixed
    for bad_sigma in (-3.0, 0.0):
        with pytest.raises(ModelError, match="sigma"):
            fit_sbr([(1e5, 3.0, 0.1), (2e5, 2.0, bad_sigma), (3e5, 1.5, 0.1)], 1.5e-9)


def test_rate_model_params_validation():
    with pytest.raises(ModelError):
        RateModelParams(-1.0, 0.0, 1.5e-9)
    with pytest.raises(ModelError):
        RateModelParams(1.0, 0.0, 0.0)


NOMINAL = math.erf(1 / math.sqrt(2))  # 68.27 %


@pytest.mark.parametrize("n", [0, 1, 2, 5, 30, 1000, 10**5])
def test_poisson_interval_equals_chi2_form(n):
    tail = (1 - NOMINAL) / 2
    lo, hi = poisson_interval(n)
    assert lo == (0.0 if n == 0 else pytest.approx(chi2.ppf(tail, 2 * n) / 2, rel=1e-9))
    assert hi == pytest.approx(chi2.ppf(1 - tail, 2 * n + 2) / 2, rel=1e-9)


def test_poisson_interval_coverage():
    intervals = np.array([poisson_interval(n) for n in range(60)])
    # 400 synthetic counts at means 0.5 to 5
    rng = np.random.default_rng(17)
    means = np.repeat(np.linspace(0.5, 5.0, 10), 40)
    lo, hi = intervals[rng.poisson(means)].T
    assert np.mean((lo <= means) & (means <= hi)) >= NOMINAL
    # exact coverage at every mean of a fine grid: Garwood never undercovers
    ns = np.arange(60)
    for mu in np.linspace(0.5, 5.0, 200):
        covered = (intervals[:, 0] <= mu) & (mu <= intervals[:, 1])
        assert poisson.pmf(ns[covered], mu).sum() >= NOMINAL
    with pytest.raises(ModelError):
        poisson_interval(-1)
