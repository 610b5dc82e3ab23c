"""Block seams by property: any partition of a stream gives the whole-stream result.

Each test draws sorted streams with the adversarial ties placed on purpose
(duplicate tags, delays of exactly the reach or the half window, tags
equidistant from two heralds), cuts one stream into any partition, empty
pieces included, and patches simkit._BLOCK to 1-64 (and the g2 separation range to 1-12).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcphotons import io, simkit, tagcorr
from fcphotons.simkit import TagStream
from fcphotons.tagcorr import AnalysisError, CrossCorrelator, HeraldedG2Counter, cross_correlate
from oracles import cross_correlate_bruteforce, separation_histogram_loop, window_flags_mask

SEAMS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def sorted_tags(draw, gaps, max_size, min_size=0, start=0):
    """Sorted int64 tags from start, each gap drawn from gaps (0 gives a duplicate)."""
    n = draw(st.integers(min_size, max_size))
    steps = draw(st.lists(st.sampled_from(gaps), min_size=n, max_size=n))
    return start + np.cumsum(np.array(steps, dtype=np.int64))


def near(draw, anchors, offsets, max_size):
    """Sorted tags at anchor + offset for drawn anchors and offsets, nonnegative."""
    n = draw(st.integers(0, max_size))
    picks = draw(st.lists(st.tuples(st.integers(0, max(anchors.size - 1, 0)),
                                    st.sampled_from(offsets)), min_size=n, max_size=n))
    if not anchors.size:
        return np.empty(0, dtype=np.int64)
    tags = np.array([anchors[i] + d for i, d in picks], dtype=np.int64)
    return np.sort(tags[tags >= 0])


def pieces(draw, tags):
    """tags cut at drawn positions; repeated and end cuts give empty pieces."""
    cuts = sorted(draw(st.lists(st.integers(0, tags.size), max_size=10)))
    return np.split(tags, cuts)


@st.composite
def correlator_cases(draw):
    w = draw(st.sampled_from([1, 2, 3, 7, 150]))
    delay_range = draw(st.integers(0, 6 * w))
    reach = delay_range // w * w + w // 2
    edges = [k * w + s for k in range(-2, 3) for s in (-w // 2, (w + 1) // 2)]
    offsets = [0, reach, -reach, reach + 1, -reach - 1, reach - 1, 1 - reach, *edges]
    a = sorted_tags(draw, [0, 1, w, reach, 2 * reach + 1], 40, start=reach + 2)
    b = np.sort(np.concatenate([near(draw, a, offsets, 60),
                                sorted_tags(draw, [0, 1, w, reach + 1], 20)]))
    block = draw(st.integers(1, 64))
    return a, b, w, delay_range, pieces(draw, a), block


@SEAMS
@given(correlator_cases())
def test_cross_correlator_any_partition_equals_bruteforce(case):
    a, b, w, delay_range, parts, block = case
    duration = int(max(a.max(initial=0), b.max(initial=0)))
    sa, sb = TagStream(a, duration), TagStream(b, duration)
    expected = cross_correlate_bruteforce(sa, sb, w, delay_range).bins
    with mock.patch.object(simkit, "_BLOCK", block):
        correlator = CrossCorrelator(sb, w, delay_range)
        for part in parts:
            correlator.add(part)
        assert np.array_equal(correlator.histogram().bins, expected)
        assert np.array_equal(cross_correlate(sa, sb, w, delay_range).bins, expected)


@st.composite
def g2_cases(draw):
    hw = draw(st.integers(1, 40))
    heralds = sorted_tags(draw, [0, 1, hw, 2 * hw, 2 * hw + 1, 5 * hw], 40, min_size=1,
                          start=draw(st.integers(0, 3 * hw)))
    # at +-hw a tag is on the window's edge; at an odd gap's midpoint it ties two heralds
    offsets = [0, 1, -1, hw, -hw, hw + 1, -hw - 1, hw - 1, 1 - hw, 2 * hw + 1]
    hbt = [np.sort(np.concatenate([near(draw, heralds, offsets, 60),
                                   sorted_tags(draw, [0, 1, hw, 3 * hw], 20)]))
           for _ in range(2)]
    reach = draw(st.integers(1, 12))  # G2_MAX_SEPARATION, so pairs at the reach cross seams
    ranges = (reach, draw(st.integers(1, reach)), draw(st.integers(1, 64)))
    return heralds, hbt, 2 * hw, pieces(draw, heralds), ranges


@SEAMS
@given(g2_cases())
def test_heralded_g2_counter_any_partition_equals_masks(case):
    heralds, (tags1, tags2), window, parts, (reach, plateau_from, block) = case
    duration = int(max(heralds[-1], tags1.max(initial=0), tags2.max(initial=0)))
    hbt1, hbt2 = TagStream(tags1, duration), TagStream(tags2, duration)
    masks = [window_flags_mask(heralds, s, window / 2) for s in (hbt1, hbt2)]
    expected = separation_histogram_loop(*masks, reach)
    with mock.patch.object(simkit, "_BLOCK", block), \
            mock.patch.multiple(tagcorr, G2_MAX_SEPARATION=reach, G2_PLATEAU_FROM=plateau_from):
        counter = HeraldedG2Counter(hbt1, hbt2, window)
        flags = [counter.add(part) for part in parts] + [counter.finish()]
        for k, mask in enumerate(masks):
            assert np.array_equal(np.concatenate([f[k] for f in flags]), np.flatnonzero(mask))
        if expected[np.abs(np.arange(-reach, reach + 1)) >= plateau_from].sum() == 0:
            with pytest.raises(AnalysisError, match="empty normalization plateau"):
                counter.result()
        else:
            assert np.array_equal(counter.result().histogram, expected)


@st.composite
def ptag_cases(draw):
    tags = sorted_tags(draw, [0, 1, 2, 1000, 2**40], 80)
    return tags, pieces(draw, tags), draw(st.integers(0, 255)), draw(st.integers(1, 64))


@pytest.fixture(scope="module")
def ptag_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ptag")


@SEAMS
@given(case=ptag_cases())
def test_ptag_writer_any_partition_writes_write_ptag_bytes(ptag_dir, case):
    tags, parts, channel, block = case
    duration = int(tags.max(initial=0)) + 1
    whole, fed = ptag_dir / "whole.ptag", ptag_dir / "fed.ptag"
    with mock.patch.object(simkit, "_BLOCK", block):
        io.write_ptag(whole, channel, TagStream(tags, duration))
        with io.PtagWriter(fed, channel, duration) as writer:
            for part in parts:
                writer.append(part)
        assert writer.count == tags.size
        assert fed.read_bytes() == whole.read_bytes()
        back = io.read_ptag(fed)
    assert np.array_equal(back.tags, tags)


@st.composite
def swap_cases(draw):
    tags = sorted_tags(draw, [1, 2, 1000, 2**40], 80, min_size=2)  # strictly increasing
    return tags, draw(st.integers(0, tags.size - 2)), draw(st.integers(1, 64))


@SEAMS
@given(case=swap_cases())
def test_ptag_one_swapped_record_rejected_anywhere(ptag_dir, case):
    tags, i, block = case
    path = ptag_dir / "swapped.ptag"
    io.write_ptag(path, 3, TagStream(tags, int(tags[-1])))
    data = bytearray(path.read_bytes())
    size = io._RECORD_DTYPE.itemsize
    at = io._HEADER_BYTES + i * size
    data[at:at + 2 * size] = data[at + size:at + 2 * size] + data[at:at + size]
    path.write_bytes(bytes(data))
    with mock.patch.object(simkit, "_BLOCK", block):
        with pytest.raises(io.FileFormatError, match="out of time order"):
            io.read_ptag(path)
        with io.PtagReader(path) as reader, \
                pytest.raises(io.FileFormatError, match="out of time order"):
            for _ in reader.blocks():
                pass
