import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcphotons import io, simkit
from fcphotons.cli import main
from fcphotons.scenario import load_scenario
from fcphotons.simkit import (
    Detector,
    DetectorModel,
    SimError,
    SourceParams,
    TagStream,
    apply_detector,
    franson_sample,
    hbt_split,
)
from fcphotons.spectral import SpectralError, coherence_envelope, gaussian_spectrum
from fcphotons.tagcorr import gated_coincidences
from fcphotons.twophoton import PairCoherence, pair_coherence
from oracles import dead_time_loop, hbt_split_oneshot, pair_tags_oneshot
from streams import pair_streams

SEC = 10**12  # ps


def flat_pc(value=1.0):
    grid = np.linspace(-100.0, 100.0, 21)
    return PairCoherence(grid, np.full(21, value))


def test_tagstream_validation():
    with pytest.raises(SimError):
        TagStream(np.array([3, 1]), 10)
    with pytest.raises(SimError):
        TagStream(np.array([1, 20]), 10)


def test_determinism_bitwise():
    p = SourceParams(1e5, q1=0.2, q2=0.4, eta1=0.7, eta2=0.5,
                     dark1_per_s=50, dark2_per_s=80)
    h1, s1 = pair_streams(p, SEC // 10, seed=123)
    h2, s2 = pair_streams(p, SEC // 10, seed=123)
    assert np.array_equal(h1.tags, h2.tags)
    assert np.array_equal(s1.tags, s2.tags)
    h3, _ = pair_streams(p, SEC // 10, seed=124)
    assert not np.array_equal(h1.tags, h3.tags)


def test_lossless_source_identical_streams():
    p = SourceParams(1e6)
    herald, signal = pair_streams(p, SEC, seed=1)
    assert np.array_equal(herald.tags, signal.tags)
    assert abs(herald.tags.size - 1e6) < 4 * np.sqrt(1e6)


def test_blocked_signal_arm():
    p = SourceParams(1e6, eta2=0.0, q2=0.5, dark2_per_s=200.0)
    _, signal = pair_streams(p, SEC, seed=2)
    # background scales with eta2, so only dark counts remain
    assert abs(signal.tags.size - 200) < 4 * np.sqrt(200) + 10


def test_singles_rate_formula():
    p = SourceParams(1e6, q1=0.5, q2=0.2, eta1=0.4, eta2=0.6,
                     dark1_per_s=300, dark2_per_s=1000)
    herald, signal = pair_streams(p, SEC, seed=3)
    s1 = 0.4 * 1e6 * 1.5 + 300
    s2 = 0.6 * 1e6 * 1.2 + 1000
    assert abs(herald.tags.size - s1) < 4 * np.sqrt(s1)
    assert abs(signal.tags.size - s2) < 4 * np.sqrt(s2)


def test_rate_linearity():
    n1 = pair_streams(SourceParams(2e5, eta1=0.5), SEC, seed=4)[0].tags.size
    n2 = pair_streams(SourceParams(4e5, eta1=0.5), SEC, seed=5)[0].tags.size
    assert abs(n2 - 2 * n1) < 4 * np.sqrt(n2 + 4 * n1)


def test_true_coincidence_rate():
    p = SourceParams(1e6, eta1=0.4, eta2=0.3)
    herald, signal = pair_streams(p, SEC, seed=6)
    expected = 1e6 * 0.4 * 0.3
    n = gated_coincidences(herald, signal, gate_ps=3)
    assert abs(n - expected) < 4 * np.sqrt(expected)


def test_overflow_guard():
    # a time block spans at least 1 ps, so only a rate above 2^31 per ps overflows one
    with pytest.raises(SimError, match="exceeds 2\\^31"):
        next(simkit.pair_blocks(SourceParams(1e22), SEC, seed=0))


def test_pair_blocks_has_no_whole_run_cap():
    # the bundled converted source expects 2.2e9 heralds in 2,200 s, above 2^31
    sc = load_scenario("g2_chain")
    source = dataclasses.replace(
        sc.source, eta2=sc.source.eta2 * sc.qfc_efficiency,
        dark2_per_s=sc.source.dark2_per_s + sc.qfc_background_per_s)
    herald, signal = next(simkit.pair_blocks(source, 2200 * SEC, seed=0))
    assert abs(herald.size - simkit._BLOCK) < 5 * np.sqrt(simkit._BLOCK)
    assert 0 < signal.size < herald.size


def test_apply_detector_identity():
    s = TagStream(np.array([5, 10, 20], dtype=np.int64), 100)
    out = apply_detector(s, DetectorModel(), seed=0)
    assert np.array_equal(out.tags, s.tags)


def test_apply_detector_jitter_width():
    n = 20000
    base = np.sort(np.random.default_rng(7).integers(0, SEC, n, dtype=np.int64))
    a = apply_detector(TagStream(base, SEC), DetectorModel(jitter_sigma_ps=600), seed=8)
    b = apply_detector(TagStream(base, SEC), DetectorModel(jitter_sigma_ps=600), seed=9)
    # tags stay matched by order at these sparse rates
    diffs = b.tags.astype(float) - a.tags.astype(float)
    assert abs(np.std(diffs) - 600 * np.sqrt(2)) < 0.03 * 600 * np.sqrt(2)


def test_apply_detector_dead_time():
    s = TagStream(np.array([0, 10, 20, 30], dtype=np.int64), 100)
    out = apply_detector(s, DetectorModel(dead_time_ps=1000), seed=0)
    assert out.tags.size == 1
    out2 = apply_detector(s, DetectorModel(dead_time_ps=15), seed=0)
    assert np.array_equal(out2.tags, [0, 20])



@pytest.mark.parametrize("seed", range(6))
def test_apply_detector_dead_time_equals_loop(seed):
    rng = np.random.default_rng(seed)
    dead = int(rng.integers(1, 60))
    # gaps at, just under and just over the dead time, zero gaps, long runs of
    # close tags (chains) and isolated far tags
    gaps = rng.choice([0, 1, dead - 1, dead, dead + 1, 3 * dead], size=3000,
                      p=[0.05, 0.15, 0.3, 0.2, 0.1, 0.2])
    chain = np.full(200, max(dead // 3, 1))
    tags = np.cumsum(np.concatenate([gaps[:1500], chain, gaps[1500:]])).astype(np.int64)
    s = TagStream(tags, int(tags[-1]))
    out = apply_detector(s, DetectorModel(dead_time_ps=dead), seed=0)
    assert np.array_equal(out.tags, dead_time_loop(tags, dead))
    assert out.tags.dtype == np.int64


def clustered_tags(seed, dead):
    """Sorted tags with gaps at, just under and just over the dead time, and long chains."""
    rng = np.random.default_rng(seed)
    gaps = rng.choice([0, 1, dead - 1, dead, dead + 1, 3 * dead], size=600,
                      p=[0.05, 0.15, 0.3, 0.2, 0.1, 0.2])
    chain = np.full(60, max(dead // 3, 1))
    return np.cumsum(np.concatenate([gaps[:300], chain, gaps[300:]])).astype(np.int64)


def isolated_pairs(dead):
    """Close pairs, 0, 1 and dead - 1 apart, each at least the dead time after the last."""
    firsts = np.arange(300, dtype=np.int64) * (2 * dead + 1)
    return np.sort(np.concatenate([firsts, firsts + np.resize([0, 1, dead - 1], firsts.size)]))


def saturated_tags(seed, dead):
    """Sorted tags with every gap below the dead time."""
    return np.cumsum(np.random.default_rng(seed).integers(0, dead, 600))


def feed_in_pieces(det, tags, piece):
    """Everything the detector gives out when fed tags in pieces of piece tags."""
    out = [det.feed(tags[start:start + piece]) for start in range(0, tags.size, piece)]
    return np.concatenate(out + [det.close()])


@pytest.mark.parametrize("block", [1, 3, 7])
def test_detector_dead_time_carried_across_seams(block, monkeypatch):
    monkeypatch.setattr(simkit, "_BLOCK", block)  # the seams inside one feed too
    # with only isolated close pairs, pieces of one tag put each pair's second tag
    # first in a piece, within the dead time of the last kept tag; with every gap
    # below the dead time, the whole stream is one run of close tags
    for seed in range(3):
        dead = 10 + seed
        model = DetectorModel(dead_time_ps=dead)
        for name, tags in (("clustered", clustered_tags(seed, dead)),
                           ("isolated pairs", isolated_pairs(dead)),
                           ("saturated", saturated_tags(seed, dead))):
            expected = dead_time_loop(tags, dead)
            for piece in (1, 2, 5, 64, tags.size):
                out = feed_in_pieces(Detector(model, int(tags[-1]), seed), tags, piece)
                assert np.array_equal(out, expected), (seed, name, piece)
            whole = apply_detector(TagStream(tags, int(tags[-1])), model, seed)
            assert np.array_equal(whole.tags, expected), (seed, name)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_detector_jitter_crosses_seams_exactly(block, monkeypatch):
    # a 100 ps grid with 30 ps jitter: neighbours swap about once in 120 pairs,
    # so jittered tags cross the seams between pieces, but never a whole piece
    monkeypatch.setattr(simkit, "_BLOCK", block)
    tags = np.arange(0, 100_000, 100, dtype=np.int64)
    duration = int(tags[-1]) + 50
    for model in (DetectorModel(jitter_sigma_ps=30), DetectorModel(30, dead_time_ps=90)):
        ref = np.random.default_rng(21)
        shifted = tags + np.rint(ref.normal(0.0, 30, tags.size)).astype(np.int64)
        assert np.any(shifted[1:] < shifted[:-1])  # some tags do cross
        expected = np.sort(np.clip(shifted, 0, duration))
        if model.dead_time_ps:
            expected = dead_time_loop(expected, model.dead_time_ps)
        whole = apply_detector(TagStream(tags, duration), model, 21)
        assert np.array_equal(whole.tags, expected)
        for piece in (1, 3, 7, 100):
            rng = np.random.default_rng(21)
            out = feed_in_pieces(Detector(model, duration, rng), tags, piece)
            assert np.array_equal(out, expected), piece
            assert rng.bit_generator.state == ref.bit_generator.state


def test_detector_jitter_beyond_a_whole_block_is_an_error():
    det = Detector(DetectorModel(jitter_sigma_ps=1e6), 10**9, 3)
    with pytest.raises(SimError, match="whole block"):
        for t in range(10**4, 10**4 + 200):
            det.feed(np.array([t], dtype=np.int64))


@pytest.mark.parametrize("duration, sigma", [(10**6, 4e18), (2**62 + 1, 4e19),
                                             (2**63 - 1025, 4e19)])
def test_detector_jitter_beyond_the_stream_saturates_at_its_ends(duration, sigma):
    # most shifts pass the stream, and many pass 2^63; ten ties at 0 need a shift
    # of the whole duration to reach its end
    tags = np.maximum(np.arange(1000, dtype=np.int64) - 9, 0) * (duration // 1000)
    draws = np.random.default_rng(1).standard_normal(tags.size).tolist()
    expected = sorted(min(max(t + int(np.rint(z * sigma)), 0), duration)
                      for t, z in zip(tags.tolist(), draws))
    jittered = apply_detector(TagStream(tags, duration), DetectorModel(sigma), 1).tags
    assert jittered.tolist() == expected


@pytest.mark.parametrize("duration", [2**63 - 1, 2**63 - 1023])
@pytest.mark.parametrize("sigma", [4e19, 1e300])
def test_detector_jitter_exact_within_1024_ps_of_2_63(duration, sigma):
    # no float lies between 2^63 - 1024 and 2^63: a shift of 2^63 or more must still
    # take a tag near 0 to the end, and one of -2^63 or less a tag near the end to 0
    tags = np.sort(np.array([0, 1, 5, duration - 5, duration - 1, duration] * 50,
                            dtype=np.int64))
    draws = np.random.default_rng(7).standard_normal(tags.size).tolist()
    expected = sorted(min(max(t + int(np.rint(z * sigma)), 0), duration)
                      for t, z in zip(tags.tolist(), draws))
    det = Detector(DetectorModel(sigma), duration, 7)
    jittered = np.concatenate((det.feed(tags), det.close()))
    assert jittered.tolist() == expected


def test_detector_empty_pieces():
    model = DetectorModel(jitter_sigma_ps=50, dead_time_ps=200)
    tags = clustered_tags(4, 200)
    expected = apply_detector(TagStream(tags, int(tags[-1])), model, 9).tags
    det = Detector(model, int(tags[-1]), 9)
    empty = tags[:0]
    out = [det.feed(empty), det.feed(tags[:400]), det.feed(empty), det.feed(tags[400:]),
           det.feed(empty), det.close(), det.close()]
    assert np.array_equal(np.concatenate(out), expected)


@st.composite
def detector_partitions(draw):
    """Sorted tags with ties and gaps at dead - 1, dead and dead + 1, their partition
    into pieces (empty ones included), a small _BLOCK, a detector model and a seed."""
    dead = draw(st.integers(1, 20))
    n = draw(st.integers(0, 150))
    gaps = draw(st.lists(st.sampled_from([0, 1, dead - 1, dead, dead + 1, 4 * dead]),
                         min_size=n, max_size=n))
    tags = draw(st.integers(0, 2 * dead)) + np.cumsum(np.array(gaps, dtype=np.int64))
    cuts = sorted(draw(st.lists(st.integers(0, tags.size), max_size=12)))
    jitter = draw(st.sampled_from([0.0, 0.4, 3.0, 30.0]))
    return (tags, cuts, draw(st.sampled_from([1, 2, 3, 7, 64])),
            DetectorModel(jitter, dead), draw(st.integers(0, 2**16)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(detector_partitions())
def test_detector_any_partition_equals_whole_stream(case):
    tags, cuts, block, model, seed = case
    duration = int(tags[-1]) if tags.size else 0  # the jitter is clipped at both ends
    shifts = np.rint(np.random.default_rng(seed).standard_normal(tags.size)
                     * model.jitter_sigma_ps).astype(np.int64)
    jittered = np.clip(tags + shifts, 0, duration)
    expected = dead_time_loop(np.sort(jittered), model.dead_time_ps) if tags.size else tags
    with mock.patch.object(simkit, "_BLOCK", block):
        whole = apply_detector(TagStream(tags, duration), model, seed).tags
        assert np.array_equal(whole, expected)
        det = Detector(model, duration, seed)
        try:
            out = [det.feed(piece) for piece in np.split(tags, cuts)] + [det.close()]
        except SimError as exc:
            # only where a jittered tag lands below one of an earlier piece
            assert "whole block" in str(exc)
            pieces = [p for p in np.split(jittered, cuts) if p.size]
            tops = np.maximum.accumulate([p.max() for p in pieces])
            assert any(p.min() < top for p, top in zip(pieces[1:], tops))
            return
    assert np.array_equal(np.concatenate(out), expected)


def test_hbt_split():
    n = 100000
    tags = np.sort(np.random.default_rng(10).integers(0, SEC, n, dtype=np.int64))
    out1, out2 = hbt_split(tags, seed=11)
    assert abs(out1.size - n / 2) < 4 * np.sqrt(n / 4)
    union = np.sort(np.concatenate([out1, out2]))
    assert np.array_equal(union, tags)
    o1, o2 = hbt_split(np.array([42], dtype=np.int64), seed=12)
    assert o1.size + o2.size == 1


def test_blocked_marks_keep_the_one_shot_draws():
    # heralds and signal tags above two mark blocks, with every merge part present
    p = SourceParams(2e6, q1=0.1, q2=0.3, eta1=0.5, eta2=0.9, dark1_per_s=500,
                     dark2_per_s=2300)
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    herald, signal = simkit._pair_tags(rng, p, 0, SEC // 5)  # one time block of the source
    herald_ref, signal_ref = pair_tags_oneshot(p, 0, SEC // 5, ref)
    assert signal.size > 2 * simkit._BLOCK
    assert np.array_equal(herald, herald_ref)
    assert np.array_equal(signal, signal_ref)
    assert rng.bit_generator.state == ref.bit_generator.state
    split = hbt_split(signal, rng)
    split_ref = hbt_split_oneshot(signal_ref, ref)
    for out, out_ref in zip(split, split_ref):
        assert np.array_equal(out, out_ref)
    assert rng.bit_generator.state == ref.bit_generator.state


CONVERTED = dict(P=2e6, q1=0.1, q2=0.3, eta1=0.5, W1=500.0, W2=2300.0, eff=0.08, B=1000.0)


def simulate_converted(tmp_path, eta2):
    """herald and HBT-merged signal streams of a 1 s simulate run with a converter."""
    c = CONVERTED
    sc = tmp_path / "converted.ini"
    sc.write_text(
        f"[run]\nkind = g2_chain\nduration_ps = {SEC}\n"
        f"[source]\npair_rate_per_s = {c['P']}\nq1 = {c['q1']}\nq2 = {c['q2']}\n"
        f"eta1 = {c['eta1']}\neta2 = {eta2}\n"
        f"dark1_per_s = {c['W1']}\ndark2_per_s = {c['W2']}\n"
        f"[qfc]\nefficiency = {c['eff']}\nbackground_rate_per_s = {c['B']}\n")
    out = tmp_path / f"run_{eta2}"
    assert main(["simulate", "--scenario", str(sc), "--out", str(out), "--seed", "5"]) == 0
    herald = io.read_ptag(out / "herald.ptag")
    tags = np.sort(np.concatenate([io.read_ptag(out / f"hbt{k}.ptag").tags for k in (1, 2)]))
    return herald, TagStream(tags, SEC)


def test_converter_closed_form(tmp_path):
    c = CONVERTED
    eta2 = 0.6
    herald, signal = simulate_converted(tmp_path, eta2)
    expected = {
        "herald": c["P"] * c["eta1"] * (1 + c["q1"]) + c["W1"],
        # darks and converter background arrive at the detector, not thinned
        "signal": c["P"] * eta2 * c["eff"] * (1 + c["q2"]) + c["W2"] + c["B"],
        "coincidences": c["P"] * c["eta1"] * eta2 * c["eff"],
    }
    observed = {"herald": herald.tags.size, "signal": signal.tags.size,
                "coincidences": gated_coincidences(herald, signal, gate_ps=3)}
    for key, mean in expected.items():
        assert abs(observed[key] - mean) < 4 * np.sqrt(mean), (key, observed[key], mean)


def test_converter_blocked_arm_keeps_darks_and_background(tmp_path):
    _, signal = simulate_converted(tmp_path, 0.0)
    mean = CONVERTED["W2"] + CONVERTED["B"]
    assert abs(signal.tags.size - mean) < 4 * np.sqrt(mean)


DETECTED = ("[run]\nkind = g2_chain\nduration_ps = 200000000\n"
            "[source]\npair_rate_per_s = 2e6\nq1 = 0.1\nq2 = 0.3\neta1 = 0.5\neta2 = 0.6\n"
            "dark1_per_s = 500\ndark2_per_s = 2300\n"
            "[detector_herald]\njitter_sigma_ps = 254.8\ndead_time_ps = 50000\n"
            "[detector_signal]\njitter_sigma_ps = 15\ndead_time_ps = 50000\n")


DETECTED_SOURCE = SourceParams(2e6, q1=0.1, q2=0.3, eta1=0.5, eta2=0.6, dark1_per_s=500,
                               dark2_per_s=2300)
HERALD_MODEL, SIGNAL_MODEL = DetectorModel(254.8, 50_000), DetectorModel(15, 50_000)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_g2_chain_blocks_detect_like_whole_streams(block, seed):
    # time blocks of a few tags each: jitter and dead time cross every seam
    duration = 200_000_000
    with mock.patch.object(simkit, "_BLOCK", block):
        chain = list(simkit.g2_chain_blocks(DETECTED_SOURCE, HERALD_MODEL, SIGNAL_MODEL,
                                            duration, seed))
        # the same stages on whole streams, each from its own spawned generator
        source_rng, split_rng, *rngs = np.random.default_rng(seed).spawn(5)
        blocks = list(simkit.pair_blocks(DETECTED_SOURCE, duration, source_rng))
        herald, signal = (np.concatenate([b[k] for b in blocks]) for k in (0, 1))
        models = (HERALD_MODEL, SIGNAL_MODEL, SIGNAL_MODEL)
        for k, (tags, model, rng) in enumerate(zip((herald, *hbt_split(signal, split_rng)),
                                                   models, rngs)):
            expected = apply_detector(TagStream(tags, duration), model, rng).tags
            assert np.array_equal(np.concatenate([c[k] for c in chain]), expected), k
    assert len(chain) > 2


@pytest.mark.parametrize("block", [1, 3, 7])
def test_simulate_in_time_blocks_detects_like_whole_streams(tmp_path, block, monkeypatch):
    # time blocks of a few tags each: jitter and dead time cross every seam
    monkeypatch.setattr(simkit, "_BLOCK", block)
    sc = tmp_path / "detected.ini"
    sc.write_text(DETECTED)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(sc), "--out", str(out), "--seed", "4"]) == 0
    # the same stages on whole streams, each from its own spawned generator
    duration = 200_000_000
    source_rng, split_rng, *rngs = np.random.default_rng(4).spawn(5)
    blocks = list(simkit.pair_blocks(DETECTED_SOURCE, duration, source_rng))
    assert len(blocks) > 20
    herald, signal = (np.concatenate([b[k] for b in blocks]) for k in (0, 1))
    streams = (herald, *hbt_split(signal, split_rng))
    models = (HERALD_MODEL, SIGNAL_MODEL, SIGNAL_MODEL)
    summary = io.read_summary(out / "summary.json")
    for k, (label, tags, model, rng) in enumerate(zip(("herald", "hbt1", "hbt2"), streams,
                                                      models, rngs)):
        expected = apply_detector(TagStream(tags, duration), model, rng).tags
        back = io.read_ptag(out / f"{label}.ptag")
        records = np.fromfile(out / f"{label}.ptag", io._RECORD_DTYPE, offset=io._HEADER_BYTES)
        assert (records["channel"] == k).all()
        assert np.array_equal(back.tags, expected), label
        assert summary["counts"][label] == expected.size
        assert expected.size < tags.size  # the dead time removed some


def franson_run(phase, n_pairs, dtau=0, jitter_a=0.0, jitter_b=0.0, seed=0,
                pc=None, v_app=0.836):
    rng = np.random.default_rng(seed)
    pair_times = np.sort(rng.integers(0, SEC, n_pairs, dtype=np.int64))
    pc = pc if pc is not None else flat_pc(1.0)
    return franson_sample(pair_times, 1140, v_app * pc.at(float(dtau)), rng,
                          delay_imbalance_ps=dtau, phase_rad=phase,
                          detector_a=DetectorModel(jitter_sigma_ps=jitter_a),
                          detector_b=DetectorModel(jitter_sigma_ps=jitter_b))


def test_franson_sample_refuses_tags_at_2_63_ps():
    # the long path alone reaches the int64 limit
    with pytest.raises(SimError, match=r"would reach 2\^63 ps"):
        franson_sample(np.array([0, 10], dtype=np.int64), 2**63 - 1, 1.0 * flat_pc(1.0).at(0.0), 1)


@pytest.mark.parametrize("delay_ps, visibility, dtau, match", [
    (0, 0.5, 0, "delay must be positive"),
    (1140, 0.5, -1140, "B-arm long path is nonpositive"),
    (1140, 1.1, 0, "visibility 1.1 outside"),
    (1140, -0.1, 0, "visibility -0.1 outside"),
    (1140, math.nan, 0, "visibility nan outside"),
])
def test_franson_sample_refuses_bad_delays_and_visibility(delay_ps, visibility, dtau, match):
    with pytest.raises(SimError, match=match):
        franson_sample(np.array([0, 10], dtype=np.int64), delay_ps, visibility, 1,
                       delay_imbalance_ps=dtau)


def test_franson_imbalance_outside_the_pair_coherence_names_it_and_the_grid():
    env = coherence_envelope(gaussian_spectrum(173.0), 40.0, 2001)
    with pytest.raises(SpectralError, match=r"dtau = 100 ps outside .* \[-80, 80\] ps"):
        pair_coherence(env, env).at(100)


def test_franson_three_peaks():
    counts = {-1140: 0, 0: 0, 1140: 0}
    n_per_phase, phases = 2000, 24
    for i, phi in enumerate(np.linspace(0, 2 * np.pi, phases, endpoint=False)):
        a, b = franson_run(phi, n_per_phase, seed=100 + i)
        for center in counts:
            counts[center] += gated_coincidences(a, b, gate_ps=1000, center_ps=center)
    total = phases * n_per_phase
    assert abs(counts[0] - total / 2) < 3 * np.sqrt(total * 0.25)
    for side in (-1140, 1140):
        assert abs(counts[side] - total / 4) < 3 * np.sqrt(total * 0.1875)


def test_franson_decohered_limit():
    # F = 0: central peak loses all phase dependence
    gated = []
    for i, phi in enumerate((0.0, np.pi)):
        a, b = franson_run(phi, 20000, pc=flat_pc(0.0), seed=200 + i)
        gated.append(gated_coincidences(a, b, gate_ps=1000, center_ps=0))
    diff = gated[0] - gated[1]
    assert abs(diff) < 3 * np.sqrt(gated[0] + gated[1])


def test_franson_phase_modulation():
    a0, b0 = franson_run(0.0, 40000, seed=300)
    api, bpi = franson_run(np.pi, 40000, seed=301)
    c0 = gated_coincidences(a0, b0, gate_ps=1000, center_ps=0)
    cpi = gated_coincidences(api, bpi, gate_ps=1000, center_ps=0)
    vis = (c0 - cpi) / (c0 + cpi)
    assert abs(vis - 0.836) < 3 * np.sqrt(2.0 / (c0 + cpi))


def test_franson_uses_pair_coherence_at_imbalance():
    s = gaussian_spectrum(173.0)
    env = coherence_envelope(s, 30.0, 1501)
    pc = pair_coherence(env, env)
    dtau = 4
    f = pc.at(float(dtau))
    assert 0.05 < f < 0.95
    c = {}
    for i, phi in enumerate((0.0, np.pi)):
        a, b = franson_run(phi, 60000, dtau=dtau, pc=pc, seed=400 + i)
        c[phi] = gated_coincidences(a, b, gate_ps=1000, center_ps=0)
    vis = (c[0.0] - c[np.pi]) / (c[0.0] + c[np.pi])
    assert abs(vis - 0.836 * f) < 3 * np.sqrt(2.0 / (c[0.0] + c[np.pi]))
