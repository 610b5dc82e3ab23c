"""Outside input by property: a damaged PTAG file or scenario is a typed error or a valid result.

io.read_ptag reads a valid file with bytes flipped, cut or appended;
scenario.load_scenario reads the bundled INIs with characters mutated and
with *_ps values drawn at magnitudes from 1 to past 2^64.  Every result is
either the module's own error (FileFormatError, ScenarioError) or one whose
timestamps and *_ps values are int64; any other exception fails.
"""

import dataclasses
import importlib.resources
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcphotons import io, simkit
from fcphotons.scenario import ScenarioError, load_scenario
from fcphotons.simkit import TagStream

FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)
BUNDLED = {name: (importlib.resources.files("fcphotons") / "scenarios" / f"{name}.ini")
           .read_text(encoding="utf-8") for name in ("g2_chain", "franson")}
PS_LINE = re.compile(r"^(\w+_ps) *= *(\S+)", re.MULTILINE)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def valid_ptag(path) -> bytes:
    """The bytes of a valid PTAG file: 40 sorted tags on channel 2, ties included."""
    tags = np.sort(np.random.default_rng(5).integers(0, 10**6, 40, dtype=np.int64))
    io.write_ptag(path, 2, TagStream(np.sort(np.concatenate([tags, tags[-3:]])), 10**6 + 7))
    return path.read_bytes()


@FUZZ
@given(flips=st.lists(st.tuples(st.integers(0, 10**4), st.integers(1, 255)), max_size=6),
       cut=st.none() | st.integers(0, 10**4), tail=st.binary(max_size=20),
       block=st.integers(1, 16))
def test_read_ptag_of_damaged_file(fuzz_dir, flips, cut, tail, block):
    path = fuzz_dir / "damaged.ptag"
    raw = bytearray(valid_ptag(path))
    for at, mask in flips:
        raw[at % len(raw)] ^= mask
    path.write_bytes(bytes(raw[:cut]) + tail)
    try:
        with mock.patch.object(simkit, "_BLOCK", block):  # order checks across seams too
            stream = io.read_ptag(path)
    except io.FileFormatError:
        return
    tags = stream.tags
    assert tags.dtype == np.int64 and 0 <= stream.duration_ps < 2**63
    assert np.all(tags[1:] >= tags[:-1])
    assert tags.size == 0 or (tags[0] >= 0 and tags[-1] <= stream.duration_ps)


def ps_values(obj):
    """(name, value) of every *_ps field of a dataclass and of the dataclasses it holds."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from ps_values(value)
        elif f.name.endswith("_ps") and value is not None:
            yield f.name, value


def check_load(fuzz_dir, text):
    """load_scenario of text: a ScenarioError, or *_ps values that are int64."""
    path = fuzz_dir / "scenario.ini"
    path.write_text(text, encoding="utf-8")
    try:
        scenario = load_scenario(path)
    except ScenarioError:
        return
    for name, value in ps_values(scenario):
        assert abs(value) < 2**63, (name, value)


# characters that make or break INI structure and numbers, plus any other
CHARS = st.sampled_from("[]=:#;%\n .-+e0123456789_") | st.characters(exclude_categories=("Cs",))


@FUZZ
@given(name=st.sampled_from(sorted(BUNDLED)),
       edits=st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from("rid"), CHARS),
                      min_size=1, max_size=4))
def test_load_scenario_of_mutated_text(fuzz_dir, name, edits):
    text = BUNDLED[name]
    for at, op, char in edits:  # replace, insert or delete one character
        at %= len(text)
        text = text[:at] + (char if op != "d" else "") + text[at + (op != "i"):]
    check_load(fuzz_dir, text)


@st.composite
def magnitudes(draw):
    """A number near +-2^k, k up to 70, written as an integer, a float or in e-notation."""
    value = draw(st.sampled_from((-1, 1))) * (2 ** draw(st.integers(0, 70))
                                              + draw(st.integers(-1, 1)))
    return draw(st.sampled_from((str(value), repr(float(value)), f"{value:.6e}")))


@FUZZ
@given(name=st.sampled_from(sorted(BUNDLED)), pick=st.integers(0, 10), raw=magnitudes())
def test_load_scenario_of_drawn_ps_magnitudes(fuzz_dir, name, pick, raw):
    text = BUNDLED[name]
    lines = list(PS_LINE.finditer(text))
    line = lines[pick % len(lines)]
    check_load(fuzz_dir, text[:line.start(2)] + raw + text[line.end(2):])
