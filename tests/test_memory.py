"""Scratch-memory bounds of the g2 chain's per-tag stages, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak above the
start of a call is the memory the call held at once, its output included.
"""

import tracemalloc

import numpy as np
import pytest

from fcphotons import io, tagcorr
from fcphotons.simkit import SourceParams, TagStream, generate_pair_streams, hbt_split

SEC = 10**12  # ps
MB = 2**20
# the bundled g2_chain source at 1 s, converter folded into eta2: 1e6 heralds
G2_CHAIN = SourceParams(2e6, q2=0.3, eta1=0.5, eta2=0.6 * 0.08, dark2_per_s=2300 + 1000)


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
    herald, signal = generate_pair_streams(G2_CHAIN, SEC, seed=11)
    return (herald, *hbt_split(signal, seed=12, channels=(1, 2)))


def test_generate_pair_streams_holds_output_plus_2_mb():
    (herald, signal), peak = traced_peak(generate_pair_streams, G2_CHAIN, SEC, 11)
    assert herald.tags.size > 990_000
    assert peak <= herald.tags.nbytes + signal.tags.nbytes + 2 * MB


def test_write_ptag_holds_under_1_mb(tmp_path, g2_chain_streams):
    herald = g2_chain_streams[0]
    _, peak = traced_peak(io.write_ptag, tmp_path / "herald.ptag", herald)
    assert peak < MB


def test_read_ptag_holds_result_plus_1_mb(tmp_path):
    n = 10**6
    path = tmp_path / "tags.ptag"
    io.write_ptag(path, TagStream(0, np.arange(0, 3 * n, 3, dtype=np.int64), 3 * n))
    back, peak = traced_peak(io.read_ptag, path)
    assert back.tags.size == n
    assert peak <= back.tags.nbytes + MB


def test_heralded_g2_holds_under_a_quarter_of_the_heralds(g2_chain_streams):
    herald, hbt1, hbt2 = g2_chain_streams
    res, peak = traced_peak(tagcorr.heralded_g2, herald, hbt1, hbt2, 1500.0)
    assert res.histogram.sum() > 0
    assert peak < herald.tags.nbytes / 4
