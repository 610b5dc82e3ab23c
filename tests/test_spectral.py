import numpy as np
import pytest

from fcphotons.spectral import (
    CoherenceEnvelope,
    EnvelopeTailWarning,
    PhaseMatching,
    SINC_HALF_X,
    SpectralError,
    Spectrum,
    apply_phase_matching,
    coherence_envelope,
    coherence_time,
    fringe_fit,
    gaussian_spectrum,
    integral_bandwidth,
    sinc2_spectrum,
    time_bandwidth_product,
)
from fcphotons.twophoton import PairCoherence
from oracles import coherence_envelope_direct


def test_spectrum_invariants():
    # beyond the checks every curve makes (test_curve_check): a spectrum has power
    with pytest.raises(SpectralError, match="all-zero"):
        Spectrum(np.array([0.0, 1.0]), np.array([0.0, 0.0]))


@pytest.mark.parametrize("curve", [Spectrum, CoherenceEnvelope, PairCoherence])
@pytest.mark.parametrize("grid, values", [
    ([0.0, 1.0, 2.0], [0.5, 0.5]),
    ([0.0, 1.0, 2.0], [0.5, -0.1, 0.5]),
    ([0.0, 1.0, 2.0], [0.5, 1.0 + 1e-6, 0.5]),
    ([0.0, 1.0, 1.5], [0.5, 0.5, 0.5]),
], ids=["length_mismatch", "negative", "above_one", "grid_not_uniform"])
def test_curve_check(curve, grid, values):
    if curve is Spectrum and max(values) > 1:
        # a power density has no upper bound
        assert curve(np.array(grid), np.array(values)).step == 1.0
        return
    with pytest.raises(SpectralError, match=curve.__name__):
        curve(np.array(grid), np.array(values))


def test_integral_bandwidth_rectangle_is_width():
    # unit plateau of width W: midpoint cells tile the width exactly
    n, step = 400, 0.25
    grid = (np.arange(n) - (n - 1) / 2) * step
    s = Spectrum(grid, np.ones(n))
    assert integral_bandwidth(s) == pytest.approx(n * step, rel=1e-12)


def test_integral_bandwidth_gaussian_closed_form():
    fwhm = 173.0
    s = gaussian_spectrum(fwhm)
    expected = fwhm * np.sqrt(np.pi / np.log(2)) / 2.0  # ~184.1 GHz
    assert integral_bandwidth(s) == pytest.approx(expected, rel=1e-3)
    assert expected == pytest.approx(184.1, abs=0.1)


def test_integral_bandwidth_sinc2_118ghz():
    s = sinc2_spectrum(0.0, 118.0, np.linspace(-3000.0, 3000.0, 24001))
    bw = integral_bandwidth(s)
    assert 128.8 <= bw <= 134.0


def test_coherence_envelope_gaussian_analytic():
    sigma = 60.0  # GHz
    grid = np.linspace(-8 * sigma, 8 * sigma, 4097)
    s = Spectrum(grid, np.exp(-0.5 * (grid / sigma) ** 2))
    env = coherence_envelope(s, tau_max=10.0, n_points=801)
    expected = np.exp(-2 * np.pi**2 * (sigma * 1e-3 * env.tau_grid) ** 2)
    assert np.max(np.abs(env.magnitude - expected)) < 1e-6


def test_coherence_envelope_sinc2_is_triangle():
    fwhm = 118.0
    k = 2 * SINC_HALF_X / fwhm
    base = 1e3 * k / np.pi  # ps; envelope is exactly zero beyond this
    # truncate at a far zero crossing of the sinc^2; the omitted tail biases
    # the transform by ~1/(pi*k*x_end), about 5e-4 for 200 lobes
    x_end = 200 * np.pi / k
    n = 16001
    grid = np.linspace(-x_end, x_end, n)
    s = sinc2_spectrum(0.0, fwhm, grid)
    env = coherence_envelope(s, tau_max=2.5 * base, n_points=1001)
    tri = np.clip(1.0 - np.abs(env.tau_grid) / base, 0.0, None)
    assert np.max(np.abs(env.magnitude - tri)) < 1e-3
    tail = env.magnitude[np.abs(env.tau_grid) > 1.05 * base]
    assert np.max(tail) < 1e-3


def test_coherence_envelope_rectangle_is_sinc():
    n, step = 4001, 0.025
    grid = (np.arange(n) - (n - 1) / 2) * step
    width = n * step  # GHz
    s = Spectrum(grid, np.ones(n))
    env = coherence_envelope(s, tau_max=50.0, n_points=501)
    expected = np.abs(np.sinc(width * 1e-3 * env.tau_grid))
    assert np.max(np.abs(env.magnitude - expected)) < 1e-5


def test_coherence_envelope_delta_spectrum_flat():
    grid = np.linspace(-10.0, 10.0, 21)
    inten = np.zeros(21)
    inten[10] = 1.0
    env = coherence_envelope(Spectrum(grid, inten), tau_max=100.0, n_points=201)
    assert np.allclose(env.magnitude, 1.0, atol=1e-12)


@pytest.mark.parametrize("s", [
    gaussian_spectrum(90.0, center=140.0, grid=np.linspace(-310.0, 590.0, 1501)),
    sinc2_spectrum(-220.0, 118.0, np.linspace(-1900.0, 2500.0, 3001)),
    apply_phase_matching(gaussian_spectrum(173.0), PhaseMatching(fwhm_ghz=118.0)),
], ids=["gaussian_off_centre", "sinc2_off_centre", "filtered_source"])
@pytest.mark.parametrize("n_points", [3, 5, 101, 1001, 2049])
def test_coherence_envelope_equals_direct_sum(s, n_points):
    for tau_max in (5.0, 40.0, 300.0, 1300.0):
        env = coherence_envelope(s, tau_max, n_points)
        direct = coherence_envelope_direct(s, tau_max, n_points)
        assert np.array_equal(env.tau_grid, direct.tau_grid)
        assert np.max(np.abs(env.magnitude - direct.magnitude)) <= 1e-12


def test_coherence_envelope_preconditions():
    s = gaussian_spectrum(100.0)
    with pytest.raises(SpectralError):
        coherence_envelope(s, tau_max=-1.0, n_points=101)
    with pytest.raises(SpectralError):
        coherence_envelope(s, tau_max=1.0, n_points=100)


def test_envelope_symmetry():
    # |g1(-tau)| = |g1(tau)| for any real intensity, regardless of center
    s = gaussian_spectrum(120.0, center=35.0)
    env = coherence_envelope(s, tau_max=10.0, n_points=401)
    assert np.allclose(env.magnitude, env.magnitude[::-1], rtol=0, atol=1e-12)


def test_coherence_time_gaussian_and_triangle():
    sigma_ps_inv = 0.05  # envelope exp(-2 pi^2 s^2 tau^2) with s in 1/ps
    tau = np.linspace(-40.0, 40.0, 4001)
    env = CoherenceEnvelope(tau, np.exp(-2 * np.pi**2 * sigma_ps_inv**2 * tau**2))
    assert coherence_time(env) == pytest.approx(1.0 / (sigma_ps_inv * np.sqrt(2 * np.pi)),
                                                rel=1e-6)
    base = 12.0
    tri = CoherenceEnvelope(tau, np.clip(1 - np.abs(tau) / base, 0, None))
    assert coherence_time(tri) == pytest.approx(base, rel=1e-3)


def test_coherence_time_truncation_warning():
    tau = np.linspace(-1.0, 1.0, 101)
    env = CoherenceEnvelope(tau, np.exp(-(tau**2)))
    with pytest.warns(EnvelopeTailWarning):
        coherence_time(env)


def test_tbp_gaussian_is_one():
    for fwhm in (50.0, 173.0, 500.0):
        s = gaussian_spectrum(fwhm)
        sigma = fwhm / 2.3548200450309493
        tau_max = 1.2e3 / sigma
        env = coherence_envelope(s, tau_max, 2001)
        assert time_bandwidth_product(s, env) == pytest.approx(1.0, abs=0.005)


def test_tbp_unit_factor():
    # GHz * ps carries 1e-3: the measured metric pairs come out near unity
    assert round(3.7 * 308 * 1e-3, 2) == 1.14
    assert round(10.5 * 101.3 * 1e-3, 2) == 1.06


def test_apply_phase_matching_identity_limit():
    s = gaussian_spectrum(173.0)
    wide = apply_phase_matching(s, PhaseMatching(fwhm_ghz=1e6 * 173.0))
    assert np.max(np.abs(wide.intensity - s.intensity) / s.intensity.max()) < 1e-4


def test_apply_phase_matching_narrows_bandwidth():
    s = gaussian_spectrum(173.0)
    pm = sinc2_spectrum(0.0, 118.0, s.nu_grid)
    filtered = apply_phase_matching(s, PhaseMatching(fwhm_ghz=118.0))
    assert integral_bandwidth(filtered) < integral_bandwidth(s)
    assert integral_bandwidth(filtered) < integral_bandwidth(pm)
    env = coherence_envelope(s, 30.0, 2001)
    env_f = coherence_envelope(filtered, 30.0, 2001)
    assert coherence_time(env_f) > coherence_time(env)


def test_filtering_monotonicity_property():
    rng = np.random.default_rng(42)
    for _ in range(10):
        fwhm = rng.uniform(50.0, 400.0)
        s = gaussian_spectrum(fwhm, center=rng.uniform(-30, 30))
        pm = PhaseMatching(center_offset_ghz=rng.uniform(-50, 50),
                           fwhm_ghz=rng.uniform(40.0, 500.0))
        filtered = apply_phase_matching(s, pm)
        assert integral_bandwidth(filtered) <= integral_bandwidth(s) * (1 + 1e-6)
        env = coherence_envelope(s, 80.0, 1601)
        env_f = coherence_envelope(filtered, 80.0, 1601)
        assert coherence_time(env_f) >= coherence_time(env) * (1 - 1e-6)


def test_parseval_consistency_property():
    rng = np.random.default_rng(3)
    for _ in range(5):
        fwhm = rng.uniform(40.0, 600.0)
        s = gaussian_spectrum(fwhm, n_points=4097)
        sigma = fwhm / 2.3548200450309493
        env = coherence_envelope(s, 1.3e3 / sigma, 2001)
        assert coherence_time(env) * integral_bandwidth(s) * 1e-3 == pytest.approx(
            1.0, rel=0.005)


def test_sinc2_spectrum_shape():
    grid = np.linspace(-400.0, 400.0, 8001)
    fwhm = 118.0
    s = sinc2_spectrum(0.0, fwhm, grid)
    assert s.intensity[4000] == 1.0
    half = np.interp(fwhm / 2, grid, s.intensity)
    assert half == pytest.approx(0.5, abs=1e-6)
    first_zero = fwhm * np.pi / (2 * SINC_HALF_X)
    assert np.interp(first_zero, grid, s.intensity) < 1e-6
    with pytest.raises(SpectralError):
        sinc2_spectrum(0.0, -1.0, grid)


def test_fringe_fit_noiseless():
    x = np.linspace(0.0, 4 * np.pi, 40)
    y = 100.0 * (1.0 + 0.88 * np.sin(x))
    v, sigma = fringe_fit(np.column_stack([x, y]))
    assert v == pytest.approx(0.88, abs=1e-6)
    assert sigma < 1e-6


def test_fringe_fit_constant():
    x = np.linspace(0.0, 10.0, 20)
    y = np.full(20, 55.0)
    v, _ = fringe_fit(np.column_stack([x, y]))
    assert v == 0.0


def test_fringe_fit_requires_samples():
    x = np.linspace(0, 6, 5)
    with pytest.raises(SpectralError):
        fringe_fit(np.column_stack([x, np.ones(5)]))


@pytest.mark.parametrize("x", [np.zeros(8), np.tile([0.0, np.pi], 6)],
                         ids=["one_phase", "zero_and_pi"])
def test_fringe_fit_rank_deficient_phases(x):
    with pytest.raises(SpectralError, match="rank < 3"):
        fringe_fit(np.column_stack([x, 100.0 + np.arange(x.size)]))


def test_fringe_fit_poisson_coverage():
    rng = np.random.default_rng(99)
    x = np.linspace(0.0, 3 * np.pi, 24)
    mean = 1e4
    truth = mean * (1.0 + 0.5 * np.sin(x))
    hits = 0
    n_rep = 500
    vs = []
    for _ in range(n_rep):
        y = rng.poisson(truth).astype(float)
        v, sigma = fringe_fit(np.column_stack([x, y]), sigma=np.sqrt(y))
        vs.append(v)
        if abs(v - 0.5) < 3 * sigma:
            hits += 1
    assert hits / n_rep > 0.97
    assert abs(np.mean(vs) - 0.5) < 0.005
