import math

import numpy as np
import pytest

from fcphotons import simkit
from fcphotons.models import (
    RATE_MODEL_PRESETS,
    RateModelParams,
    ab_from_physics,
    fit_sbr,
    g2_from_sbr,
    sbr_model,
)
from fcphotons.simkit import (
    DetectorModel,
    SourceParams,
    TagStream,
    franson_sample,
    hbt_split,
)
from fcphotons.spectral import coherence_envelope, gaussian_spectrum
from fcphotons.tagcorr import (
    AnalysisError,
    CorrelationHistogram,
    CrossCorrelator,
    HeraldedG2Counter,
    cross_correlate,
    extract_sbr,
    franson_visibility_scan,
    gated_coincidences,
    heralded_g2,
)
from fcphotons.twophoton import pair_coherence
from oracles import (
    THREE_SIGMA_TAIL,
    cross_correlate_bruteforce,
    delay_counts_exact,
    gated_pairs_exact,
    poisson_tail,
    separation_histogram_loop,
    window_flags_mask,
)
from streams import chain_streams, pair_streams

SEC = 10**12


def poisson_stream(rate, duration, seed):
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate * duration * 1e-12)
    return TagStream(np.sort(rng.integers(0, duration, n, dtype=np.int64)),
                     duration)


def test_cross_correlate_self():
    tags = np.arange(0, 10**7, 10**5, dtype=np.int64)  # spacing >> delay range
    s = TagStream(tags, 10**7)
    h = cross_correlate(s, s, bin_width_ps=1000, delay_range_ps=10000)
    assert h.bins.sum() == h.bins[h.bins.size // 2] == tags.size


def test_cross_correlate_shift():
    tags = np.arange(10**4, 10**7, 10**5, dtype=np.int64)
    a = TagStream(tags, 10**7 + 10**4)
    b = TagStream(tags + 3000, 10**7 + 10**4)
    h = cross_correlate(a, b, bin_width_ps=1000, delay_range_ps=10000)
    assert h.bins[h.bins.size // 2 + 3] == tags.size
    assert h.bins.sum() == tags.size


def test_cross_correlate_empty():
    a = TagStream(np.empty(0, dtype=np.int64), SEC)
    b = poisson_stream(1e4, SEC, 1)
    h = cross_correlate(a, b, 1000, 10000)
    assert h.bins.sum() == 0


def test_cross_correlate_accidental_floor():
    s1 = poisson_stream(1e5, SEC, 2)
    s2 = poisson_stream(2e5, SEC, 3)
    h = cross_correlate(s1, s2, bin_width_ps=1500, delay_range_ps=150000)
    expected = 1e5 * 2e5 * 1.5e-9  # counts per bin over 1 s
    for count in h.bins:
        assert abs(count - expected) < 4 * np.sqrt(expected)


def test_two_pointer_equals_bruteforce():
    rng = np.random.default_rng(17)
    for trial in range(3):
        a = TagStream(np.sort(rng.integers(0, 10**9, 1000, dtype=np.int64)), 10**9)
        b = TagStream(np.sort(rng.integers(0, 10**9, 1000, dtype=np.int64)), 10**9)
        fast = cross_correlate(a, b, 1500, 90000)
        slow = cross_correlate_bruteforce(a, b, 1500, 90000)
        assert np.array_equal(fast.bins, slow.bins)


def test_extract_sbr_arithmetic():
    bins = np.full(101, 100, dtype=np.int64)
    bins[50] = 400
    h = CorrelationHistogram(1500, bins)
    res = extract_sbr(h, background_exclusion_ps=15000)
    assert res.signal == pytest.approx(300.0)
    assert res.sbr == pytest.approx(3.0)


def test_extract_sbr_errors():
    bins = np.zeros(101, dtype=np.int64)
    bins[50] = 10
    h = CorrelationHistogram(1500, bins)
    with pytest.raises(AnalysisError):
        extract_sbr(h, 15000)  # zero background
    with pytest.raises(AnalysisError):
        extract_sbr(h, 200000)  # exclusion beyond range


def test_extract_sbr_matches_rate_model():
    p = SourceParams(2e6, q1=0.0, q2=110.111, eta1=0.3, eta2=0.2)
    herald, hbt1, _ = chain_streams(p, SEC // 20, 21)
    h = cross_correlate(herald, hbt1, 1500, 150000)
    res = extract_sbr(h, 15000)
    a, b = ab_from_physics(p.q1, p.q2, p.eta1, p.eta2, 0.0)
    predicted = sbr_model(herald.rate_per_s, RateModelParams(a, b, 1.5e-9))
    assert abs(res.sbr - predicted) < 3 * res.sigma


def test_extract_sbr_duration_invariance():
    p = SourceParams(2e6, q1=0.0, q2=40.0, eta1=0.3, eta2=0.2)
    results = []
    for seed, dur in ((30, SEC // 20), (31, SEC // 10)):
        herald, hbt1, _ = chain_streams(p, dur, seed)
        h = cross_correlate(herald, hbt1, 1500, 150000)
        results.append(extract_sbr(h, 15000))
    assert abs(results[0].sbr - results[1].sbr) < 3 * np.hypot(results[0].sigma,
                                                               results[1].sigma)


def test_fig5_rate_sweep_from_tags_fits_run_a():
    # a source whose rate model is the paper's run_a: a = (1 + q2) / eta1, b = W2 / eta2
    run_a = RATE_MODEL_PRESETS["run_a"]
    eta1, eta2, q2 = 1.3 / 6.78, 0.048, 0.3
    w2 = run_a.b * eta2
    assert ab_from_physics(0.0, q2, eta1, eta2, w2) == pytest.approx((run_a.a, run_a.b))
    rng = np.random.default_rng(1)
    points = []
    for rate in np.linspace(5e4, 4e5, 8):  # herald rates, 1 s each
        p = SourceParams(rate / eta1, q2=q2, eta1=eta1, eta2=eta2, dark2_per_s=w2)
        herald, signal = pair_streams(p, SEC, rng)
        res = extract_sbr(cross_correlate(herald, signal, 1500, 150_000), 15_000)
        points.append((herald.rate_per_s, res.sbr, res.sigma))
    fit = fit_sbr(points, run_a.dt_s)
    assert not fit.b_at_boundary
    assert abs(fit.a - run_a.a) < 3 * math.sqrt(fit.covariance[0, 0])
    assert abs(fit.b - run_a.b) < 3 * math.sqrt(fit.covariance[1, 1])


def perfect_heralded_streams(n=20000, seed=40):
    tags = np.arange(1, n + 1, dtype=np.int64) * 10**6
    duration = int(tags[-1] + 10**6)
    herald = TagStream(tags, duration)
    hbt1, hbt2 = hbt_split(tags, seed)
    return herald, TagStream(hbt1, duration), TagStream(hbt2, duration)


def test_heralded_g2_perfect_singles_is_zero():
    herald, hbt1, hbt2 = perfect_heralded_streams()
    res = heralded_g2(herald, hbt1, hbt2, window_ps=1500)
    assert res.g2_zero == 0.0
    assert res.plateau > 100
    # h0 = 0: the interval starts at 0 and ends where P(0 | mu) = 15.87 %
    lo, hi = res.g2_zero_interval
    assert lo == 0.0
    assert hi * res.plateau == pytest.approx(-np.log(0.5 * math.erfc(1 / math.sqrt(2))))


def test_heralded_g2_uncorrelated_is_one():
    herald = poisson_stream(1e4, SEC, 50)
    hbt1 = poisson_stream(1e5, SEC, 51)
    hbt2 = poisson_stream(1e5, SEC, 52)
    res = heralded_g2(herald, hbt1, hbt2, window_ps=10**7)
    assert poisson_tail(res.histogram[res.m_values == 0][0], res.plateau) >= THREE_SIGMA_TAIL
    lo, hi = res.g2_zero_interval
    assert lo < res.g2_zero < hi


def test_heralded_g2_sbr3_matches_eq5():
    p = SourceParams(2e6, q1=0.0, q2=110.111, eta1=0.3, eta2=0.2)
    herald, hbt1, hbt2 = chain_streams(p, SEC // 10, 53)
    res = heralded_g2(herald, hbt1, hbt2, window_ps=1500)
    h = cross_correlate(herald, hbt1, 1500, 150000)
    sbr = extract_sbr(h, 15000)
    assert 2.5 < sbr.sbr < 3.5
    h0 = res.histogram[res.m_values == 0][0]
    assert poisson_tail(h0, g2_from_sbr(sbr.sbr) * res.plateau) >= THREE_SIGMA_TAIL


def test_heralded_g2_time_reversal_mirror():
    herald = poisson_stream(2e4, SEC // 10, 60)
    hbt1 = poisson_stream(1e5, SEC // 10, 61)
    hbt2 = poisson_stream(1e5, SEC // 10, 62)
    res = heralded_g2(herald, hbt1, hbt2, window_ps=10**6)

    def reverse(s):
        return TagStream(np.sort(s.duration_ps - s.tags), s.duration_ps)

    rev = heralded_g2(reverse(herald), reverse(hbt1), reverse(hbt2), window_ps=10**6)
    assert np.array_equal(res.histogram, rev.histogram[::-1])


def test_heralded_g2_errors():
    herald = poisson_stream(1e4, SEC // 100, 70)
    empty = TagStream(np.empty(0, dtype=np.int64), SEC // 100)
    with pytest.raises(AnalysisError):
        heralded_g2(herald, empty, empty, window_ps=1500)  # zero plateau
    with pytest.raises(AnalysisError):
        heralded_g2(herald, empty, empty, window_ps=0)


def test_gated_coincidences():
    a = TagStream(np.array([1000, 5000], dtype=np.int64), 10**4)
    b = TagStream(np.array([1100, 5600], dtype=np.int64), 10**4)
    assert gated_coincidences(a, b, gate_ps=10**4) == 4
    assert gated_coincidences(a, b, gate_ps=300) == 1
    assert gated_coincidences(a, b, gate_ps=0) == 0
    assert gated_coincidences(a, b, gate_ps=300, center_ps=600) == 1


def test_franson_visibility_scan_closed_form():
    phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    counts = 1000 * (1 + 0.84 * np.cos(phases))
    v, sigma = franson_visibility_scan(np.column_stack([phases, counts]))
    assert v == pytest.approx(0.84, abs=0.002)
    flat = np.column_stack([phases, np.full(16, 500.0)])
    v0, _ = franson_visibility_scan(flat)
    assert v0 == 0.0
    with pytest.raises(AnalysisError):
        franson_visibility_scan(np.column_stack([phases[:5], counts[:5]]))


def _franson_visibility(dtau, pc, jitter_a, n_pairs, seed):
    rng = np.random.default_rng(seed)
    scans = []
    for phi in np.linspace(0, 2 * np.pi, 12, endpoint=False):
        pair_times = np.sort(rng.integers(0, SEC, n_pairs, dtype=np.int64))
        a, b = franson_sample(pair_times, 1140, 0.836 * pc.at(float(dtau)), rng,
                              delay_imbalance_ps=dtau, phase_rad=phi,
                              detector_a=DetectorModel(jitter_sigma_ps=jitter_a),
                              detector_b=DetectorModel(jitter_sigma_ps=15.0))
        scans.append((phi, gated_coincidences(a, b, gate_ps=512, center_ps=0)))
    return franson_visibility_scan(scans)


def test_gating_leakage_bounds_visibility():
    # 600 ps jitter + 512 ps gate: side-peak leakage can only lower the
    # measured visibility relative to the closed-form curve
    s = gaussian_spectrum(173.0)
    env = coherence_envelope(s, 30.0, 1501)
    pc = pair_coherence(env, env)
    for dtau in (0, 6, 12):
        v, sigma = _franson_visibility(dtau, pc, jitter_a=600.0, n_pairs=3000,
                                       seed=80 + dtau)
        model = 0.836 * pc.at(float(dtau))
        assert v <= model + 3 * max(sigma, 1e-3)


def _edge_streams(w, seed):
    """Dense streams plus b tags placed exactly on the bin edges a + (k +- 1/2) w."""
    rng = np.random.default_rng(seed)
    span = 60 * w + 100
    a = np.sort(rng.integers(0, span, 120, dtype=np.int64))
    on_edges = a[:30] + (rng.integers(-20, 21, 30) * 2 + rng.choice([-1, 1], 30)) * w // 2
    b = np.sort(np.concatenate([rng.integers(0, span, 120, dtype=np.int64),
                                np.clip(on_edges, 0, span)]))
    return a, b, span


@pytest.mark.parametrize("case", ["dense", "short_b", "empty_a", "empty_b", "b_before_a",
                                  "b_after_a"])
@pytest.mark.parametrize("w", [1, 2, 7, 150, 1500, 1501])
def test_cross_correlate_equals_oracle(w, case):
    a, b, span = _edge_streams(w, seed=w)
    if case == "short_b":
        b = b[::3]  # the correlator then walks b's windows in a
    elif case == "empty_a":
        a = a[:0]
    elif case == "empty_b":
        b = b[:0]
    elif case in ("b_before_a", "b_after_a"):
        a, b = np.sort(a // 3), np.sort(b // 3 + span // 2)  # every b tag after every a tag
        if case == "b_before_a":
            a, b = b, a
    sa, sb = TagStream(a, span), TagStream(b, span)
    delay_range = 20 * w + w // 2
    fast = cross_correlate(sa, sb, w, delay_range)
    slow = cross_correlate_bruteforce(sa, sb, w, delay_range)
    assert np.array_equal(fast.bins, slow.bins)
    assert fast.bins.size == 41
    if case.startswith("empty"):
        assert fast.bins.sum() == 0


def test_heralded_g2_histogram_equals_mask_loop():
    herald = poisson_stream(2e5, SEC // 100, 90)
    hbt1 = poisson_stream(1e6, SEC // 100, 91)
    hbt2 = poisson_stream(1e6, SEC // 100, 92)
    res = heralded_g2(herald, hbt1, hbt2, window_ps=200000)
    f1 = window_flags_mask(herald.tags, hbt1, 100000.0)
    f2 = window_flags_mask(herald.tags, hbt2, 100000.0)
    assert np.array_equal(res.m_values, np.arange(-50, 51))
    assert np.array_equal(res.histogram, separation_histogram_loop(f1, f2, 50))
    assert res.histogram.sum() > 1000


def streamed_flags(herald: np.ndarray, hbt: TagStream, half_window: float, block: int):
    """hbt's flagged herald indices from a HeraldedG2Counter fed blocks of block heralds."""
    counter = HeraldedG2Counter(hbt, hbt, 2 * half_window)
    flags = [counter.add(herald[start:start + block])[0]
             for start in range(0, herald.size, block)]
    return np.concatenate(flags + [counter.finish()[0]])


@pytest.mark.parametrize("herald, tags", [
    ([100, 200, 300], [40, 150]),       # a tag before the first herald
    ([100, 200, 300], [250, 330, 390]),  # a tie (250) and tags after the last herald
    ([100, 200, 200, 300], [180, 200, 215, 260]),  # duplicate herald timestamps
    ([100], [0, 60, 100, 149, 150, 151, 10**6]),
], ids=["before_first", "tie_and_after_last", "duplicate_heralds", "one_herald"])
def test_window_flags_equal_mask(herald, tags):
    herald = np.array(herald, dtype=np.int64)
    stream = TagStream(np.array(tags, dtype=np.int64), 10**6)
    expected = np.flatnonzero(window_flags_mask(herald, stream, 50.0))
    for block in (1, 2, 3, 7, simkit._BLOCK):
        flagged = streamed_flags(herald, stream, 50.0, block)
        assert flagged.dtype == np.intp
        assert np.array_equal(flagged, expected), block


def test_window_flags_equal_mask_across_blocks():
    # ten tags per herald: the same herald is nearest on both sides of block seams
    herald = poisson_stream(1e6, SEC // 100, 93)
    hbt = poisson_stream(1e7, SEC // 100, 94)
    for half_window in (100.0, 400.0, 10**6):
        expected = np.flatnonzero(window_flags_mask(herald.tags, hbt, half_window))
        for block in (7, 1000, simkit._BLOCK):
            assert np.array_equal(streamed_flags(herald.tags, hbt, half_window, block),
                                  expected)
    empty = TagStream(np.empty(0, dtype=np.int64), SEC)
    assert streamed_flags(herald.tags, empty, 100.0, 7).size == 0


SEAM_HERALDS = [100, 200, 200, 200, 300, 300, 400, 1000, 5000, 5000, 5100]
SEAM_TAGS = [50, 150, 199, 200, 200, 201, 250, 300, 300, 350, 400, 1040, 4990, 5000, 5050,
             5100, 5100, 5160]


@pytest.mark.parametrize("block", [1, 3, 7])
def test_heralded_g2_seams_equal_whole_stream_masks(block, monkeypatch):
    # duplicate heralds and ties on both sides of the seams, tags equal to a
    # block's last herald, and blocks of heralds that no tag comes near
    herald = TagStream(np.array(SEAM_HERALDS, dtype=np.int64), 10**4)
    tags = TagStream(np.array(SEAM_TAGS, dtype=np.int64), 10**4)
    for half_window in (0.5, 10.0, 50.0, 60.0):
        expected = np.flatnonzero(window_flags_mask(herald.tags, tags, half_window))
        assert np.array_equal(streamed_flags(herald.tags, tags, half_window, block),
                              expected)
    # the whole estimator, fed through heralded_g2's own blocks
    herald = poisson_stream(2e5, SEC // 1000, 95)
    hbt1 = poisson_stream(1e6, SEC // 1000, 96)
    hbt2 = poisson_stream(1e6, SEC // 1000, 97)
    whole = heralded_g2(herald, hbt1, hbt2, window_ps=200000)
    monkeypatch.setattr(simkit, "_BLOCK", block)
    res = heralded_g2(herald, hbt1, hbt2, window_ps=200000)
    f1 = window_flags_mask(herald.tags, hbt1, 100000.0)
    f2 = window_flags_mask(herald.tags, hbt2, 100000.0)
    assert np.array_equal(res.histogram, separation_histogram_loop(f1, f2, 50))
    assert np.array_equal(res.histogram, whole.histogram)
    assert res.g2_zero == whole.g2_zero and res.g2_zero_interval == whole.g2_zero_interval


@pytest.mark.parametrize("block", [1, 3, 7])
def test_cross_correlate_seams_equal_bruteforce(block, monkeypatch):
    # pairs that cross many seams: each tag of a reaches tags of b several blocks away
    rng = np.random.default_rng(block)
    a = TagStream(np.sort(rng.integers(0, 10**5, 300, dtype=np.int64)), 10**5)
    b = TagStream(np.sort(np.concatenate([rng.integers(0, 10**5, 200, dtype=np.int64),
                                             a.tags[::5] + 1500])), 10**5 + 1500)
    monkeypatch.setattr(simkit, "_BLOCK", block)
    for x, y in ((a, b), (b, a)):
        fast = cross_correlate(x, y, 1500, 30000)
        assert np.array_equal(fast.bins, cross_correlate_bruteforce(x, y, 1500, 30000).bins)


@pytest.mark.parametrize("gate", [1, 2, 7, 300, 301])
@pytest.mark.parametrize("center", [0, 600, -37])
def test_gated_coincidences_equals_pair_count(gate, center):
    rng = np.random.default_rng(gate + 1000 * abs(center))
    a = np.sort(rng.integers(100, 5000, 200, dtype=np.int64))
    b = np.sort(np.concatenate([rng.integers(0, 5000, 200, dtype=np.int64),
                                a[:50] + center + gate // 2, a[50:100] + center - gate // 2,
                                a[100:150] + center + gate // 2 + 1]))
    d = b[None, :] - a[:, None]
    expected = np.count_nonzero(np.abs(d - center) <= gate / 2)
    n = gated_coincidences(TagStream(a, 10**4), TagStream(b, 10**4), gate, center)
    assert n == expected


@pytest.mark.parametrize("t0", [0, 8 * 3600 * SEC], ids=["t0", "t8h"])
def test_delay_queries_exact_beyond_2_53_ps(t0):
    # a pair 1 ps apart: float64 edges lose whole ps beyond 2^53 ps (about 2.5 h)
    a = TagStream(np.array([t0], dtype=np.int64), t0 + 10)
    b = TagStream(np.array([t0 + 1], dtype=np.int64), t0 + 10)
    assert gated_coincidences(a, b, gate_ps=1, center_ps=0) == 0
    assert gated_coincidences(a, b, gate_ps=1, center_ps=1) == 1
    h = cross_correlate(a, b, bin_width_ps=1, delay_range_ps=5)
    assert h.bins[h.bins.size // 2 + 1] == 1 and h.bins.sum() == 1


TOP = 2**63 - 1  # the largest int64 timestamp


def _int64_end_stream(seed):
    """Tags within 40 ps of both ends of the int64 range, ties and TOP itself included,
    and within 2 ps of 2^61 and 2^62, whose delays land on the edges of 2^62 ps bins."""
    rng = np.random.default_rng(seed)
    tags = np.concatenate([rng.integers(0, 40, 4), 2**61 + rng.integers(-2, 3, 3),
                           2**62 + rng.integers(-2, 3, 3), TOP - rng.integers(0, 40, 4), [TOP]])
    return TagStream(np.sort(tags), TOP)


@pytest.mark.parametrize("gate, center", [(20, 0), (2**40, 0), (2**62, 0), (2**63 - 1, 0),
                                          (2**40, -25), (2**63 - 1, 2**62), (2**40, TOP - 20)])
def test_gated_coincidences_exact_at_the_int64_end(gate, center):
    a, b = _int64_end_stream(1), _int64_end_stream(2)
    for x, y in ((a, b), (b, a)):
        assert gated_coincidences(x, y, gate, center) == gated_pairs_exact(x, y, gate, center)


@pytest.mark.parametrize("w, n_half", [(10, 10), (2**40 + 1, 5), (2**62, 1), (2**62 + 3, 1),
                                       (3 * 2**61, 1)])
def test_cross_correlate_exact_at_the_int64_end(w, n_half, monkeypatch):
    # blocks of 4 tags: the int64 end is passed in some blocks of a and not in others
    monkeypatch.setattr(simkit, "_BLOCK", 4)
    a, b = _int64_end_stream(3), _int64_end_stream(4)
    for x, y in ((a, b), (b, a)):
        bins = cross_correlate(x, y, w, n_half * w).bins
        assert bins.tolist() == delay_counts_exact(x, y, w, n_half * w)


@pytest.mark.parametrize("w, n_half", [(10, 10), (2**40 + 1, 5), (2**62, 1), (2**62 + 3, 1),
                                       (3 * 2**61, 1)])
def test_correlator_insertion_points_exact_at_the_int64_end(w, n_half):
    # 30 heralds against 15 tags: a block that walks the tags returns their side="left"
    # insertion points into it, counted from the walk's delays
    heralds = np.sort(np.concatenate([_int64_end_stream(3).tags, _int64_end_stream(5).tags]))
    hbt = _int64_end_stream(4)
    correlator = CrossCorrelator(hbt, w, n_half * w)
    walked = 0
    for block in (heralds[:8], heralds[8:]):
        points = correlator.add(block, points=True)
        if points is not None:
            start, found = points
            walked_tags = hbt.tags[start:start + found.size]
            assert found.tolist() == np.searchsorted(block, walked_tags).tolist()
            walked += found.size
    assert walked
    assert correlator.histogram().bins.tolist() == delay_counts_exact(
        TagStream(heralds, TOP), hbt, w, n_half * w)
