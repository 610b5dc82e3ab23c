"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from fcphotons import models, simkit, spectral, tagcorr, twophoton
from oracles import THREE_SIGMA_TAIL, cross_correlate_bruteforce, poisson_tail
from streams import chain_streams, pair_streams

SEC = 10**12


def report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_01_gaussian_tbp_identity():
    t0 = time.time()
    ok = True
    for fwhm in (50.0, 173.0, 500.0):
        s = spectral.gaussian_spectrum(fwhm)
        sigma = fwhm / 2.3548200450309493
        env = spectral.coherence_envelope(s, 1.2e3 / sigma, 2001)
        tbp = spectral.time_bandwidth_product(s, env)
        ok = ok and abs(tbp - 1.0) <= 0.005
    ok = ok and (time.time() - t0) < 1.0
    report("1 (Gaussian TBP = 1.000 +- 0.005)", ok)


def test_02_sinc2_bandwidth():
    t0 = time.time()
    s = spectral.sinc2_spectrum(0.0, 118.0, np.linspace(-3000.0, 3000.0, 24001))
    bw = spectral.integral_bandwidth(s)
    ok = 128.8 <= bw <= 134.0 and (time.time() - t0) < 1.0
    report(f"2 (sinc^2 118 GHz bandwidth = {bw:.1f} GHz in [128.8, 134.0])", ok)


def test_03_filtering_direction():
    # exact paper values need the unmeasured source lineshape; the criterion
    # is the qualitative narrowing/lengthening direction
    s = spectral.gaussian_spectrum(173.0)
    filtered = spectral.apply_phase_matching(s, spectral.PhaseMatching(fwhm_ghz=118.0))
    bw0, bw1 = spectral.integral_bandwidth(s), spectral.integral_bandwidth(filtered)
    env0 = spectral.coherence_envelope(s, 30.0, 2001)
    env1 = spectral.coherence_envelope(filtered, 30.0, 2001)
    tc0, tc1 = spectral.coherence_time(env0), spectral.coherence_time(env1)
    report("3 (filtering narrows bandwidth, lengthens coherence)",
           bw1 < bw0 and tc1 > tc0)


def model_pair_coherence():
    return twophoton.converted_pair_coherence(spectral.gaussian_spectrum(173.0),
                                              spectral.PhaseMatching(fwhm_ghz=118.0))


def test_04_franson_closed_form_peak():
    pc = model_pair_coherence()
    curve = twophoton.expected_visibility_curve(pc, 0.88, 0.95)
    peak = float(curve.visibility.max())
    report(f"4 (expected visibility peak {peak:.4f} = 0.836 +- 0.001)",
           abs(peak - 0.836) <= 0.001)


def test_05_franson_monte_carlo():
    # the detectors' quoted ~600 ps jitter is a FWHM; sigma = 600/2.3548
    t0 = time.time()
    pc = model_pair_coherence()
    rng = np.random.default_rng(2024)
    scans = []
    total = 0
    for phi in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        pair_times = np.sort(rng.integers(0, SEC, 4500, dtype=np.int64))
        a, b = simkit.franson_sample(
            pair_times, 1140, 0.88 * 0.95 * pc.at(0.0), rng, delay_imbalance_ps=0,
            phase_rad=float(phi),
            detector_a=simkit.DetectorModel(jitter_sigma_ps=600.0 / 2.3548),
            detector_b=simkit.DetectorModel(jitter_sigma_ps=15.0))
        c = tagcorr.gated_coincidences(a, b, gate_ps=512, center_ps=0)
        total += c
        scans.append((phi, c))
    vis, sigma = tagcorr.franson_visibility_scan(scans)
    bell = twophoton.bell_check(vis, sigma)
    elapsed = time.time() - t0
    ok = (total >= 2e4 and abs(vis - 0.836) < 3 * sigma and bell.violates_bell
          and elapsed < 60.0)
    report(f"5 (Franson MC visibility {vis:.3f} +- {sigma:.3f}, "
           f"{total} gated coincidences, Bell violation)", ok)


def test_06_three_peak_structure():
    pc = model_pair_coherence()
    counts = {-1140: 0, 0: 0, 1140: 0}
    n_per_phase, n_phases = 2500, 24
    rng = np.random.default_rng(77)
    for phi in np.linspace(0.0, 2 * np.pi, n_phases, endpoint=False):
        pair_times = np.sort(rng.integers(0, SEC, n_per_phase, dtype=np.int64))
        a, b = simkit.franson_sample(pair_times, 1140, 0.836 * pc.at(0.0), rng,
                                     phase_rad=float(phi))
        for center in counts:
            counts[center] += tagcorr.gated_coincidences(a, b, 1000, center)
    total = n_per_phase * n_phases
    ok = abs(counts[0] - total / 2) < 3 * np.sqrt(total * 0.25)
    for side in (-1140, 1140):
        ok = ok and abs(counts[side] - total / 4) < 3 * np.sqrt(total * 0.1875)
    report(f"6 (three-peak areas {counts[-1140]}:{counts[0]}:{counts[1140]} "
           "in ratio 1:2:1)", ok)


def test_07_sbr_pipeline_equivalence():
    t0 = time.time()
    p = simkit.SourceParams(1e6, eta1=0.3, eta2=0.3)
    ok = True
    details = []
    for seed, bin_ps in ((1, 10**6), (2, 10**5), (3, 10**4)):
        herald, signal = pair_streams(p, SEC // 20, seed)
        hist = tagcorr.cross_correlate(herald, signal, bin_ps, 40 * bin_ps)
        res = tagcorr.extract_sbr(hist, 5 * bin_ps)
        a, b = models.ab_from_physics(p.q1, p.q2, p.eta1, p.eta2, p.dark2_per_s)
        predicted = models.sbr_model(
            herald.rate_per_s, models.RateModelParams(a, b, bin_ps * 1e-12))
        ok = ok and abs(res.sbr - predicted) < 3 * res.sigma
        details.append(f"{res.sbr:.2f}~{predicted:.2f}")
    ok = ok and (time.time() - t0) < 60.0
    report(f"7 (SBR pipeline vs rate model at {', '.join(details)})", ok)


def test_08_g2_endpoints():
    # perfect heralded single photons
    tags = np.arange(1, 20001, dtype=np.int64) * 10**6
    duration = int(tags[-1] + 10**6)
    herald = simkit.TagStream(tags, duration)
    hbt1, hbt2 = (simkit.TagStream(t, duration) for t in simkit.hbt_split(tags, 10))
    perfect = tagcorr.heralded_g2(herald, hbt1, hbt2, window_ps=1500)
    ok = perfect.g2_zero == 0.0

    # uncorrelated Poisson light
    rng = np.random.default_rng(11)
    mk = lambda rate: simkit.TagStream(
        np.sort(rng.integers(0, SEC, rng.poisson(rate), dtype=np.int64)), SEC)
    unc = tagcorr.heralded_g2(mk(1e4), mk(1e5), mk(1e5), window_ps=10**7)
    # the m = 0 count against g2(0) = 1 times the plateau, exact Poisson test at 3 sigma
    unc_tail = poisson_tail(unc.histogram[unc.m_values == 0][0], 1.0 * unc.plateau)
    ok = ok and unc_tail >= THREE_SIGMA_TAIL

    # full chain at SBR ~ 3 against the SBR -> g2 model
    p = simkit.SourceParams(2e6, q2=110.111, eta1=0.3, eta2=0.2)
    h, b1, b2 = chain_streams(p, SEC // 10, 12)
    res = tagcorr.heralded_g2(h, b1, b2, window_ps=1500)
    hist = tagcorr.cross_correlate(h, b1, 1500, 150000)
    sbr = tagcorr.extract_sbr(hist, 15000)
    predicted = models.g2_from_sbr(sbr.sbr)
    tail = poisson_tail(res.histogram[res.m_values == 0][0], predicted * res.plateau)
    ok = ok and tail >= THREE_SIGMA_TAIL
    report(f"8 (g2 endpoints: 0 exact, {unc.g2_zero:.3f}~1 (tail {unc_tail:.3f}), "
           f"{res.g2_zero:.3f}~{predicted:.3f} at SBR {sbr.sbr:.2f} (tail {tail:.3f}))", ok)


def test_09_model_arithmetic_paper_point():
    p = models.RateModelParams(6.78, 1.67e6, 1.5e-9)
    sbr0 = models.sbr_model(0.0, p)
    g2 = models.g2_from_sbr(sbr0)
    ok = abs(sbr0 - 399.2) <= 0.5 and abs(g2 - 4.99e-3) <= 1e-4
    report(f"9 (SBR(R=0) = {sbr0:.1f}, g2 = {g2:.3e})", ok)


def test_10_fit_round_trip():
    dt = 1.5e-9
    truth = models.RateModelParams(6.78, 1.67e6, dt)
    rates = np.linspace(5e4, 5e5, 9)
    noiseless = [(r, models.sbr_model(r, truth)) for r in rates]
    res = models.fit_sbr(noiseless, dt)
    ok = abs(res.a / 6.78 - 1) < 1e-6 and abs(res.b / 1.67e6 - 1) < 1e-6

    # Poisson-noisy points through the histogram/extraction pipeline
    rng = np.random.default_rng(13)
    eta1, eta2, q1, q2, w2 = 0.5, 0.5, 0.0, 2.39, 8.35e5
    duration_s = 5.0
    points = []
    for pair_rate in np.linspace(1e5, 1e6, 9):
        s1 = models.singles_rate(pair_rate, eta1, q1, 0.0)
        s2 = models.singles_rate(pair_rate, eta2, q2, w2)
        bg_per_bin = models.accidental_rate_per_bin(s1, s2, dt) * duration_s
        true_counts = models.true_coincidence_rate(pair_rate, eta1, eta2) * duration_s
        bins = rng.poisson(bg_per_bin, 101).astype(np.int64)
        bins[50] = rng.poisson(bg_per_bin + true_counts)
        hist = tagcorr.CorrelationHistogram(1500, bins)
        sbr = tagcorr.extract_sbr(hist, 15000)
        points.append((s1, sbr.sbr, sbr.sigma))
    noisy = models.fit_sbr(points, dt)
    a_true, b_true = models.ab_from_physics(q1, q2, eta1, eta2, w2)
    ok = ok and abs(noisy.a - a_true) < 3 * np.sqrt(noisy.covariance[0, 0])
    ok = ok and abs(noisy.b - b_true) < 3 * np.sqrt(noisy.covariance[1, 1])
    report(f"10 (fit round trip: noiseless exact, noisy a = {noisy.a:.2f}~{a_true:.2f})",
           ok)


def test_11_fidelity_and_bell_arithmetic():
    fid, _ = twophoton.entanglement_fidelity(0.838)
    bell = twophoton.bell_check(0.88, 0.102)
    ok = abs(fid - 0.919) < 1e-9 and abs(bell.violation_sigmas - 1.7) < 0.02
    report(f"11 (fidelity {fid:.3f}, Bell violation {bell.violation_sigmas:.2f} sigma)",
           ok)


def test_12_correlator_oracle_equivalence():
    rng = np.random.default_rng(14)
    ok = True
    for _ in range(3):
        a = simkit.TagStream(np.sort(rng.integers(0, 10**9, 1000, dtype=np.int64)),
                             10**9)
        b = simkit.TagStream(np.sort(rng.integers(0, 10**9, 1000, dtype=np.int64)),
                             10**9)
        fast = tagcorr.cross_correlate(a, b, 1500, 90000)
        slow = cross_correlate_bruteforce(a, b, 1500, 90000)
        ok = ok and np.array_equal(fast.bins, slow.bins)
    report("12 (streaming correlator equals brute force, bin-exact)", ok)
