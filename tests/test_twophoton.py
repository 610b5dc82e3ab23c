import numpy as np
import pytest

from fcphotons.spectral import (
    CoherenceEnvelope,
    PhaseMatching,
    SpectralError,
    apply_phase_matching,
    coherence_envelope,
    fringe_fit,
    gaussian_spectrum,
)
from fcphotons.twophoton import (
    BELL_BOUND,
    PairCoherence,
    bell_check,
    coincidence_rate,
    entanglement_fidelity,
    expected_visibility_curve,
    pair_coherence,
)


def gaussian_envelope(sigma_inv_ps, tau_max=40.0, n=2001):
    tau = np.linspace(-tau_max, tau_max, n)
    return CoherenceEnvelope(tau, np.exp(-2 * np.pi**2 * sigma_inv_ps**2 * tau**2))


def flat_pc(value=1.0, span=100.0):
    grid = np.linspace(-span, span, 21)
    return PairCoherence(grid, np.full(21, value))


def test_pair_coherence_normalized_at_zero():
    a = gaussian_envelope(0.08)
    b = gaussian_envelope(0.05)
    pc = pair_coherence(a, b)
    assert pc.at(0.0) == pytest.approx(1.0, abs=1e-12)
    assert np.all(pc.f_value <= 1.0 + 1e-9)


def test_pair_coherence_identical_gaussians_sqrt2():
    s = 0.06
    a = gaussian_envelope(s)
    tau_single = 1.0 / (s * np.sqrt(2 * np.pi))
    pc = pair_coherence(a, a)
    tau_pair = pc.f_value.sum() * pc.step
    assert tau_pair == pytest.approx(tau_single * np.sqrt(2), rel=1e-4)


def test_pair_coherence_flat_partner():
    a = gaussian_envelope(0.08, tau_max=40.0)
    tau = np.linspace(-200.0, 200.0, 2001)
    flat = CoherenceEnvelope(tau, np.ones(tau.size))
    pc = pair_coherence(a, flat)
    inner = np.abs(pc.dtau_grid) <= 50.0
    assert np.allclose(pc.f_value[inner], 1.0, atol=1e-6)


def test_pair_coherence_swap_symmetry():
    s = gaussian_spectrum(173.0)
    filtered = apply_phase_matching(s, PhaseMatching(fwhm_ghz=118.0))
    a = coherence_envelope(s, 40.0, 2001)
    b = coherence_envelope(filtered, 40.0, 2001)
    ab = pair_coherence(a, b)
    ba = pair_coherence(b, a)
    assert np.max(np.abs(ab.f_value - ba.f_value[::-1])) < 1e-9


def test_pair_coherence_paper_pipeline_vicinity():
    # model chain: source line x converter filter; the pair coherence time
    # lands in the vicinity of the measured 12.4 ps
    s = gaussian_spectrum(173.0)
    filtered = apply_phase_matching(s, PhaseMatching(fwhm_ghz=118.0))
    a = coherence_envelope(s, 40.0, 2001)
    b = coherence_envelope(filtered, 40.0, 2001)
    pc = pair_coherence(a, b)
    assert pc.at(0.0) == 1.0
    tau_pair = pc.f_value.sum() * pc.step
    assert 9.0 < tau_pair < 15.0


def test_pair_coherence_zero_overlap():
    tau = np.linspace(-5.0, 5.0, 11)
    a = CoherenceEnvelope(tau, np.r_[np.zeros(5), 1.0, np.zeros(5)])
    b = CoherenceEnvelope(tau, np.r_[1.0, np.zeros(10)])
    with pytest.raises(SpectralError):
        pair_coherence(a, b)


def test_coincidence_rate_closed_form():
    v = 0.88 * 0.95 * flat_pc(1.0).at(0.0)
    r0 = coincidence_rate(v, 0.0)
    rpi = coincidence_rate(v, np.pi)
    assert r0 == pytest.approx(1.836, abs=1e-9)
    assert rpi == pytest.approx(0.164, abs=1e-9)
    assert (r0 - rpi) / (r0 + rpi) == pytest.approx(0.836, abs=1e-9)


def test_coincidence_rate_decohered_limit():
    rates = coincidence_rate(flat_pc(0.0).at(0.0), np.linspace(0, 2 * np.pi, 9))
    assert np.ptp(rates) < 1e-12


def test_coincidence_rate_phase_average_is_one():
    phases = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    rates = coincidence_rate(0.9 * flat_pc(0.7).at(0.0), phases)
    assert np.mean(rates) == pytest.approx(1.0, abs=1e-6)


def test_fringe_fit_recovers_closed_form_visibility():
    v_mi, v_mzi, f = 0.88, 0.95, flat_pc(0.8).at(0.0)
    phases = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    rates = 1e4 * coincidence_rate(v_mi * v_mzi * f, phases)
    v, _ = fringe_fit(list(zip(phases, rates)))
    assert v == pytest.approx(v_mi * v_mzi * 0.8, abs=1e-6)


def test_expected_visibility_curve():
    s = gaussian_spectrum(173.0)
    env = coherence_envelope(s, 30.0, 1501)
    pc = pair_coherence(env, env)
    curve = expected_visibility_curve(pc, 0.88, 0.95)
    assert curve.visibility.max() == pytest.approx(0.836, abs=1e-9)
    assert np.array_equal(curve.visibility, curve.visibility[::-1])
    ideal = expected_visibility_curve(pc, 1.0, 1.0)
    assert np.array_equal(ideal.visibility, pc.f_value)
    for v_mi, v_mzi in ((1.01, 0.95), (0.88, -0.1)):
        with pytest.raises(SpectralError):
            expected_visibility_curve(pc, v_mi, v_mzi)


def test_entanglement_fidelity():
    fid, sig = entanglement_fidelity(0.838, 0.078)
    assert fid == pytest.approx(0.919, abs=1e-9)
    assert sig == pytest.approx(0.039, abs=1e-9)
    assert entanglement_fidelity(1.0)[0] == 1.0
    assert entanglement_fidelity(0.0)[0] == 0.5


def test_bell_check():
    sigma = (0.88 - BELL_BOUND) / 1.7
    assert sigma == pytest.approx(0.102, abs=0.002)
    res = bell_check(0.88, sigma)
    assert res.violation_sigmas == pytest.approx(1.7, abs=1e-9)
    assert res.violates_bell
    assert res.bound == pytest.approx(0.7071068, abs=1e-7)
    at_bound = bell_check(BELL_BOUND, 0.05)
    assert at_bound.violation_sigmas == pytest.approx(0.0, abs=1e-12)
    classical = bell_check(0.5, 0.05)
    assert classical.classical_sigmas == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(SpectralError):
        bell_check(0.8, 0.0)
