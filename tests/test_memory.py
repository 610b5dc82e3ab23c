"""Scratch-memory bounds of the g2 chain's per-tag stages, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak above the
start of a call is the memory the call held at once, its output included.
"""

import importlib.resources
import tracemalloc

import numpy as np
import pytest

from fcphotons import io, simkit, tagcorr
from fcphotons.cli import main
from fcphotons.simkit import (
    Detector,
    DetectorModel,
    SourceParams,
    TagStream,
    apply_detector,
)
from streams import chain_streams

SEC = 10**12  # ps
MB = 2**20
# the bundled g2_chain source at 1 s, converter folded into eta2: 1e6 heralds
G2_CHAIN = SourceParams(2e6, q2=0.3, eta1=0.5, eta2=0.6 * 0.08, dark2_per_s=2300 + 1000)
# perfbench's dense_sbr source at 1 s, without the converter: 1e6 heralds, 1.6e6 signal tags
DENSE_SBR = SourceParams(2e6, q2=0.3, eta1=0.5, eta2=0.6, dark2_per_s=2300)
DENSE_SBR_HERALD = DetectorModel(254.8, 50_000)  # perfbench's dense_sbr herald detector


def traced_peak(fn, *args):
    """fn(*args) and the traced peak, in bytes, above the memory in use at the call."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def g2_chain_streams():
    return chain_streams(G2_CHAIN, SEC, seed=11)


def test_g2_chain_blocks_holds_output_plus_2_mb():
    def kept_blocks():
        return list(simkit.g2_chain_blocks(G2_CHAIN, DetectorModel(), DetectorModel(), SEC, 11))

    blocks, peak = traced_peak(kept_blocks)
    assert sum(b[0].size for b in blocks) > 990_000
    assert peak <= sum(tags.nbytes for b in blocks for tags in b) + 2 * MB


def test_write_ptag_holds_under_1_mb(tmp_path, g2_chain_streams):
    herald = g2_chain_streams[0]
    _, peak = traced_peak(io.write_ptag, tmp_path / "herald.ptag", 0, herald)
    assert peak < MB


def test_read_ptag_holds_result_plus_1_mb(tmp_path):
    n = 10**6
    path = tmp_path / "tags.ptag"
    io.write_ptag(path, 0, TagStream(np.arange(0, 3 * n, 3, dtype=np.int64), 3 * n))
    back, peak = traced_peak(io.read_ptag, path)
    assert back.tags.size == n
    assert peak <= back.tags.nbytes + MB


def test_heralded_g2_holds_under_a_quarter_of_the_heralds(g2_chain_streams):
    herald, hbt1, hbt2 = g2_chain_streams
    res, peak = traced_peak(tagcorr.heralded_g2, herald, hbt1, hbt2, 1500.0)
    assert res.histogram.sum() > 0
    assert peak < herald.tags.nbytes / 4


def test_cross_correlate_dense_holds_under_half_the_heralds():
    # each herald block reaches about 5e4 hbt1 tags, all walked in one pass
    herald, hbt1, _ = chain_streams(DENSE_SBR, SEC, seed=11)
    assert herald.tags.size > 990_000 and hbt1.tags.size > 750_000
    hist, peak = traced_peak(tagcorr.cross_correlate, herald, hbt1, 150, 150_000)
    assert hist.bins.size == 2001 and hist.bins.sum() > 0
    assert peak < herald.tags.nbytes / 2


def test_apply_detector_with_jitter_and_dead_time_holds_input_plus_2_mb():
    # the dense_sbr herald detector on 1e6 tags: the output plus block scratch only
    tags = np.sort(np.random.default_rng(3).integers(0, SEC, 10**6, dtype=np.int64))
    stream = TagStream(tags, SEC)
    out, peak = traced_peak(apply_detector, stream, DENSE_SBR_HERALD, 4)
    assert 0.9 * tags.size < out.tags.size < tags.size
    assert peak <= tags.nbytes + 2 * MB


def detector_blocks(n):
    """n blocks of simkit._BLOCK sorted tags about 1 us apart, and a duration past them."""
    tags = np.cumsum(np.random.default_rng(3).integers(1, 2 * 10**6, n * simkit._BLOCK))
    return list(simkit._blocks(tags)), int(tags[-1]) + 10**6


def test_detector_outputs_hold_their_own_bytes():
    # each block given out is a slice of the held block, not of a merge with the next
    blocks, duration = detector_blocks(8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        det = Detector(DENSE_SBR_HERALD, duration, 5)
        outs = [det.feed(block) for block in blocks] + [det.close()]
        del det
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert sum(out.size for out in outs) > 0.95 * 8 * simkit._BLOCK  # the dead time takes 2.5 %
    assert held <= 1.1 * sum(out.nbytes for out in outs)


def test_detector_steady_state_feed_holds_under_3_blocks():
    blocks, duration = detector_blocks(6)
    det = Detector(DENSE_SBR_HERALD, duration, 5)
    for block in blocks[:4]:
        det.feed(block)
    out, peak = traced_peak(det.feed, blocks[4])
    assert out.size > 0.9 * blocks[4].size
    assert peak < 3 * blocks[4].nbytes


@pytest.fixture(scope="module")
def g2_chain_runs(tmp_path_factory):
    """Bundled g2_chain simulated at 1 s and 4 s: run directory and traced simulate peak."""
    bundled = importlib.resources.files("fcphotons") / "scenarios" / "g2_chain.ini"
    text = bundled.read_text(encoding="utf-8")
    runs = {}
    for seconds in (1, 4):
        base = tmp_path_factory.mktemp(f"g2_chain_{seconds}s")
        scenario = base / "g2_chain.ini"
        scenario.write_text(text.replace("duration_ps = 100000000000   # 0.1 s",
                                         f"duration_ps = {seconds * SEC}"))
        argv = ["simulate", "--scenario", str(scenario), "--out", str(base / "run")]
        code, peak = traced_peak(main, argv)
        assert code == 0
        runs[seconds] = (base / "run", peak)
    return runs


def test_simulate_peak_grows_by_under_a_quarter_of_the_heralds(g2_chain_runs):
    # from 1 s to 4 s only the whole HBT streams (13 % of the tags) may grow
    (run1, peak1), (run4, peak4) = g2_chain_runs[1], g2_chain_runs[4]
    heralds = [io.read_summary(run / "summary.json")["counts"]["herald"] for run in (run1, run4)]
    assert heralds[1] > 3.9e6
    assert peak4 - peak1 < 8 * (heralds[1] - heralds[0]) / 4


def test_analyze_g2_holds_under_a_quarter_of_the_herald_file(g2_chain_runs):
    run = g2_chain_runs[4][0]
    argv = ["analyze", *(str(run / f"{n}.ptag") for n in ("herald", "hbt1", "hbt2")),
            "--mode", "g2", "--out", str(run / "g2")]
    code, peak = traced_peak(main, argv)
    assert code == 0
    assert io.read_summary(run / "g2" / "analysis.json")["status"] == "ok"
    assert peak < (run / "herald.ptag").stat().st_size / 4
