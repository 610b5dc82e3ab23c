import ast
import importlib.resources
import os
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fcphotons
from fcphotons import io, models, simkit, twophoton
from fcphotons.cli import main
from fcphotons.scenario import FransonScanSettings, load_scenario
from fcphotons.simkit import DetectorModel, SourceParams, TagStream
from fcphotons.spectral import PhaseMatching, gaussian_spectrum
from oracles import THREE_SIGMA_TAIL, delay_counts_exact, poisson_tail

README = Path(__file__).resolve().parents[1] / "README.md"
MINIMAL_SCENARIO = "[run]\nkind = g2_chain\nduration_ps = 1000\n[source]\npair_rate_per_s = 1e6\n"
MINIMAL_FRANSON = ("[run]\nkind = franson\nduration_ps = 1000\n"
                   "[spectrum]\ngaussian_fwhm_ghz = 173\n[phase_matching]\nfwhm_ghz = 118\n"
                   "[franson]\ndelay_ps = 1140\ndelay_imbalance_ps = 0\nv_mi = 0.88\n"
                   "v_mzi = 0.95\nphase_points = 12\npairs_per_point = 5000\n")
# a source that draws no tag, so a run of any duration is quick
EMPTY_SOURCE = MINIMAL_SCENARIO.replace("pair_rate_per_s = 1e6", "pair_rate_per_s = 0")
WIDTH_FLAGS = ("--bin-ps", "--gate-ps", "--window-ps", "--delay-range-ps",
               "--background-exclusion-ps")


def scenario_path(name):
    return str(importlib.resources.files("fcphotons") / "scenarios" / name)


def write_sbr_points(path, dt_s):
    """Exact SBR model points for a = 6.78, b = 1.67e6 at eight herald rates."""
    p = models.RateModelParams(6.78, 1.67e6, dt_s)
    with open(path, "w") as fh:
        fh.write("# herald_rate_per_s,sbr\n")
        for r in np.linspace(5e4, 5e5, 8):
            fh.write(f"{r},{models.sbr_model(r, p)}\n")


def test_ptag_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    s = TagStream(np.sort(rng.integers(0, 10**9, 500, dtype=np.int64)), 10**9)
    path = tmp_path / "tags.ptag"
    io.write_ptag(path, 3, s)
    back = io.read_ptag(path)
    assert back.duration_ps == 10**9
    assert back.tags.dtype == np.int64 and np.array_equal(back.tags, s.tags)
    # the format: header, then one u8 channel + u64 timestamp record per tag
    raw = path.read_bytes()
    assert raw[:io._HEADER_BYTES] == b"PTAG" + struct.pack("<HQ", 1, 10**9)
    assert raw[io._HEADER_BYTES:] == b"".join(struct.pack("<BQ", 3, t) for t in s.tags)
    # an empty stream keeps its duration and writes no records
    io.write_ptag(path, 3, TagStream(np.empty(0, dtype=np.int64), 10**9))
    assert path.stat().st_size == io._HEADER_BYTES
    back = io.read_ptag(path)
    assert (back.tags.size, back.duration_ps) == (0, 10**9)


def test_ptag_bad_magic(tmp_path):
    path = tmp_path / "bad.ptag"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(io.FileFormatError):
        io.read_ptag(path)


@pytest.mark.parametrize("size", [6, 14 + 3 * 9 + 4], ids=["short_header", "partial_record"])
def test_ptag_truncated_file_rejected(tmp_path, size):
    full = tmp_path / "full.ptag"
    io.write_ptag(full, 0, TagStream(np.arange(0, 5000, 1000, dtype=np.int64), 10**4))
    cut = tmp_path / "cut.ptag"
    cut.write_bytes(full.read_bytes()[:size])
    with pytest.raises(io.FileFormatError):
        io.read_ptag(cut)
    assert main(["analyze", str(cut), str(full), "--mode", "sbr",
                 "--out", str(tmp_path / "ana")]) == 2


def test_ptag_file_shorter_than_its_size_rejected(tmp_path, monkeypatch):
    # a file that loses records between the size check and the read
    path = tmp_path / "tags.ptag"
    io.write_ptag(path, 0, TagStream(np.arange(5, dtype=np.int64), 10))
    fstat = os.fstat
    with monkeypatch.context() as m:
        m.setattr(io.os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 9))
        with pytest.raises(io.FileFormatError, match="shrank"):
            io.read_ptag(path)


def write_raw_ptag(path, channels, timestamps, duration_ps):
    """A PTAG file with the records in the order given, unchecked."""
    records = np.empty(len(channels), dtype=[("channel", "u1"), ("timestamp_ps", "<u8")])
    records["channel"] = channels
    records["timestamp_ps"] = timestamps
    path.write_bytes(b"PTAG" + struct.pack("<HQ", 1, duration_ps) + records.tobytes())


def assert_analyze_rejects_herald(tmp_path, capsys, path, match):
    """analyze exits 2 with path in the herald slot of g2 and sbr mode, writing nothing."""
    other = tmp_path / "other.ptag"
    io.write_ptag(other, 1, TagStream(np.arange(10**6, 10**7, 10**5, dtype=np.int64), 10**7))
    for mode, tags in (("g2", [path, other, other]), ("sbr", [path, other])):
        out = tmp_path / f"ana_{mode}"
        assert main(["analyze", *map(str, tags), "--mode", mode, "--out", str(out)]) == 2
        assert match in capsys.readouterr().err
        assert not (out / "analysis.json").exists()


def test_ptag_unsorted_rejected(tmp_path, capsys):
    rng = np.random.default_rng(5)
    stamps = rng.permutation(np.arange(0, 4000, 10, dtype=np.uint64))
    path = tmp_path / "unsorted.ptag"
    write_raw_ptag(path, np.full(stamps.size, 2), stamps, 4000)
    with pytest.raises(io.FileFormatError, match="out of time order"):
        io.read_ptag(path)
    assert_analyze_rejects_herald(tmp_path, capsys, path, "out of time order")


def test_ptag_two_channels_rejected(tmp_path, capsys):
    path = tmp_path / "two.ptag"
    write_raw_ptag(path, [0, 1, 0], [10, 20, 30], 40)
    with pytest.raises(io.FileFormatError, match="more than one channel"):
        io.read_ptag(path)
    assert main(["analyze", str(path), str(path), "--mode", "sbr",
                 "--out", str(tmp_path / "ana")]) == 2
    assert "more than one channel" in capsys.readouterr().err
    assert not (tmp_path / "ana" / "analysis.json").exists()


@pytest.mark.parametrize("timestamp, duration_ps", [
    (2**63, 2**63 + 1), (2**64 - 1, 10**4), (10, 2**63)],
    ids=["timestamp_2_63", "timestamp_max_u64", "duration_2_63"])
def test_ptag_beyond_int64_rejected(tmp_path, capsys, timestamp, duration_ps):
    path = tmp_path / "wide.ptag"
    write_raw_ptag(path, [0, 0], [5, timestamp], duration_ps)
    with pytest.raises(io.FileFormatError):
        io.read_ptag(path)
    assert main(["analyze", str(path), str(path), "--mode", "sbr",
                 "--out", str(tmp_path / "ana")]) == 2
    assert "2^63" in capsys.readouterr().err


BLOCK = simkit._BLOCK  # records per PTAG read/write block


@pytest.mark.parametrize("n", [0, 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3],
                         ids=["empty", "one", "one_block", "block_plus_1", "two_blocks_plus_3"])
def test_ptag_round_trip_across_blocks(tmp_path, n):
    rng = np.random.default_rng(n)
    s = TagStream(np.sort(rng.integers(0, 10**12, n, dtype=np.int64)), 10**12)
    path, ref = tmp_path / "tags.ptag", tmp_path / "ref.ptag"
    io.write_ptag(path, 4, s)
    write_raw_ptag(ref, np.full(n, 4), s.tags, 10**12)  # the records in one piece
    assert path.read_bytes() == ref.read_bytes()
    back = io.read_ptag(path)
    assert back.duration_ps == 10**12
    assert back.tags.dtype == np.int64 and np.array_equal(back.tags, s.tags)


def test_ptag_second_channel_in_later_block_rejected(tmp_path, capsys):
    n = 2 * BLOCK + 3
    channels = np.zeros(n, dtype=np.uint8)
    channels[BLOCK + 7] = 1
    path = tmp_path / "late.ptag"
    write_raw_ptag(path, channels, np.arange(n, dtype=np.uint64), n)
    with pytest.raises(io.FileFormatError, match="more than one channel"):
        io.read_ptag(path)
    assert main(["analyze", str(path), str(path), "--mode", "sbr",
                 "--out", str(tmp_path / "ana")]) == 2
    assert "more than one channel" in capsys.readouterr().err


def test_ptag_unsorted_block_seam_rejected(tmp_path, capsys):
    stamps = np.arange(2 * BLOCK + 3, dtype=np.uint64)
    # each block sorted, but the last tag of block 1 after the first of block 2
    stamps[[BLOCK - 1, BLOCK]] = stamps[[BLOCK, BLOCK - 1]]
    path = tmp_path / "seam.ptag"
    write_raw_ptag(path, np.full(stamps.size, 1), stamps, stamps.size)
    with pytest.raises(io.FileFormatError, match="out of time order"):
        io.read_ptag(path)
    assert_analyze_rejects_herald(tmp_path, capsys, path, "out of time order")


@pytest.mark.parametrize("timestamp", [2**63, 2**64 - 1])
def test_ptag_beyond_int64_in_last_block_rejected(tmp_path, timestamp):
    stamps = np.arange(2 * BLOCK + 3, dtype=np.uint64)
    stamps[-2] = timestamp
    path = tmp_path / "wide.ptag"
    write_raw_ptag(path, np.zeros(stamps.size), stamps, 10**12)  # a valid duration
    with pytest.raises(io.FileFormatError, match="2\\^63"):
        io.read_ptag(path)


def test_spectrum_file_round_trip(tmp_path):
    s = gaussian_spectrum(120.0, n_points=257)
    path = tmp_path / "spectrum.csv"
    io.save_curve(path, s.nu_grid, s.intensity, ("nu_GHz", "intensity"), comment="source")
    back = io.load_spectrum(path)
    assert np.allclose(back.nu_grid, s.nu_grid)
    assert np.allclose(back.intensity, s.intensity)


def test_spectrum_file_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# comment\nnu_GHz,intensity\n0,1\n1,1\n2.5,1\n")
    with pytest.raises(Exception):
        io.load_spectrum(path)


def test_curve_round_trip(tmp_path):
    x = np.linspace(-5, 5, 11)
    y = x**2
    path = tmp_path / "curve.csv"
    io.save_curve(path, x, y, ("dtau_ps", "f_value"), comment="model curve")
    back = io.load_table(path)
    assert np.allclose(back[:, 0], x)
    assert np.allclose(back[:, 1], y)


def test_table_with_a_byte_order_mark_keeps_its_first_row(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("\ufeff1e5,283.93\n2e5,220.31\n3e5,179.99\n4e5,152.14\n", encoding="utf-8")
    assert io.load_table(path).tolist() == [[1e5, 283.93], [2e5, 220.31], [3e5, 179.99],
                                            [4e5, 152.14]]


def test_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        rc = main(["simulate", "--scenario", scenario_path("g2_chain.ini"),
                   "--out", str(out)])
        assert rc == 0
    for name in ("herald.ptag", "hbt1.ptag", "hbt2.ptag"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_and_analyze_g2_chain(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", scenario_path("g2_chain.ini"),
                 "--out", str(out)]) == 0
    summary = io.read_summary(out / "summary.json")
    assert summary["kind"] == "g2_chain"
    assert set(summary["files"]) == {"herald", "hbt1", "hbt2"}

    ana = tmp_path / "ana"
    rc = main(["analyze", str(out / "herald.ptag"), str(out / "hbt1.ptag"),
               str(out / "hbt2.ptag"), "--mode", "g2", "--out", str(ana),
               "--window-ps", "1500"])
    assert rc == 0
    res = io.read_summary(ana / "analysis.json")
    assert res["status"] == "ok"
    predicted = models.g2_from_sbr(res["sbr"])
    tol = 3 * res["sbr_sigma"] / (res["sbr"] + 1) ** 2
    assert abs(res["g2_zero"] - predicted) < max(tol, 0.05)
    # the m = 0 count against the prediction times the plateau, exact Poisson test at 3 sigma
    assert poisson_tail(res["h0"], predicted * res["plateau"]) >= THREE_SIGMA_TAIL
    assert res["g2_zero"] == res["h0"] / res["plateau"] and "sigma" not in res
    assert (ana / "g2_histogram.csv").exists()
    assert (ana / "correlation.csv").exists()


DENSE = ("[run]\nkind = g2_chain\nduration_ps = 5000000000\n"
         "[source]\npair_rate_per_s = 2e6\nq2 = 0.3\neta1 = 0.5\neta2 = 0.6\n"
         "dark2_per_s = 2300\n")


@pytest.mark.parametrize("block", [1, 3, 7])
def test_analyze_in_blocks_equals_one_block(tmp_path, block, monkeypatch):
    sc = tmp_path / "dense.ini"
    sc.write_text(DENSE)
    run = tmp_path / "run"
    assert main(["simulate", "--scenario", str(sc), "--out", str(run), "--seed", "3"]) == 0
    tags = [str(run / f"{n}.ptag") for n in ("herald", "hbt1", "hbt2")]
    analyses = {"g2": ["analyze", *tags, "--mode", "g2"],
                "sbr": ["analyze", *tags[:2], "--mode", "sbr", "--bin-ps", "150"]}

    def analyze_all(label):
        for mode, argv in analyses.items():
            assert main([*argv, "--out", str(tmp_path / label / mode)]) == 0
        return {p.relative_to(tmp_path / label): p.read_bytes()
                for p in sorted((tmp_path / label).rglob("*.*"))}

    whole = analyze_all("whole")
    assert io.read_summary(tmp_path / "whole" / "g2" / "analysis.json")["status"] == "ok"
    monkeypatch.setattr(simkit, "_BLOCK", block)
    assert analyze_all("blocks") == whole
    assert len(whole) == 5


def test_simulate_zero_duration(tmp_path):
    src = scenario_path("g2_chain.ini")
    text = Path(src).read_text().replace("duration_ps = 100000000000   # 0.1 s",
                                         "duration_ps = 0")
    sc = tmp_path / "empty.ini"
    sc.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(sc), "--out", str(out)]) == 0
    assert io.read_ptag(out / "herald.ptag").tags.size == 0

    ana = tmp_path / "ana"
    rc = main(["analyze", str(out / "herald.ptag"), str(out / "hbt1.ptag"),
               str(out / "hbt2.ptag"), "--mode", "g2", "--out", str(ana)])
    assert rc == 0
    res = io.read_summary(ana / "analysis.json")
    assert res["status"] == "insufficient data"


def test_analyze_g2_empty_hbt_file(tmp_path):
    herald = TagStream(np.arange(0, 10**8, 10**4, dtype=np.int64), 10**8)
    io.write_ptag(tmp_path / "herald.ptag", 0, herald)
    io.write_ptag(tmp_path / "hbt.ptag", 1, TagStream(np.empty(0, dtype=np.int64), 10**8))
    ana = tmp_path / "ana"
    rc = main(["analyze", str(tmp_path / "herald.ptag"), str(tmp_path / "hbt.ptag"),
               str(tmp_path / "hbt.ptag"), "--mode", "g2", "--out", str(ana)])
    assert rc == 0
    assert io.read_summary(ana / "analysis.json")["status"] == "insufficient data"
    # no estimator's CSV is written unless every estimator succeeded
    assert os.listdir(ana) == ["analysis.json"]
    rc = main(["analyze", str(tmp_path / "herald.ptag"), str(tmp_path / "hbt.ptag"),
               "--mode", "sbr", "--out", str(tmp_path / "sbr")])
    assert rc == 0
    assert io.read_summary(tmp_path / "sbr" / "analysis.json")["status"] == "insufficient data"
    assert os.listdir(tmp_path / "sbr") == ["analysis.json"]


@pytest.mark.parametrize("flag", WIDTH_FLAGS)
@pytest.mark.parametrize("value", ["0", "-1500"])
def test_analyze_rejects_nonpositive_width(tmp_path, flag, value):
    for mode, tags in (("g2", ["h", "a", "b"]), ("sbr", ["h", "a"])):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *tags, "--mode", mode, "--out", str(tmp_path), flag, value])
        assert exc.value.code == 2


@pytest.mark.parametrize("flag", WIDTH_FLAGS)
def test_analyze_rejects_width_of_2_63_ps(tmp_path, flag, capsys):
    # the timestamps are int64, so no width in ps reaches 2^63
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *(str(tmp_path / t) for t in "hab"), "--mode", "g2",
              "--out", str(tmp_path / "ana"), flag, str(2**63)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_analyze_allocation_failure_exits_2(tmp_path, capsys):
    # a 2^63 - 1 ps range in 1500 ps bins asks numpy for 87.4 PiB, which fails at once
    for name in ("h.ptag", "a.ptag"):
        io.write_ptag(tmp_path / name, 0, TagStream(np.array([5], dtype=np.int64), 10))
    rc = main(["analyze", str(tmp_path / "h.ptag"), str(tmp_path / "a.ptag"), "--mode", "sbr",
               "--out", str(tmp_path / "ana"), "--delay-range-ps", str(2**63 - 1)])
    assert rc == 2
    assert "Unable to allocate" in capsys.readouterr().err


def test_analyze_sbr_in_2_62_ps_bins(tmp_path):
    # widths the CLI accepts, whose (2d + w) // (2w) binning would overflow int64
    herald = TagStream(np.array([0, 10], dtype=np.int64), 10)
    hbt = TagStream(np.array([5, 2**62 + 7], dtype=np.int64), 2**62 + 10)
    io.write_ptag(tmp_path / "h.ptag", 0, herald)
    io.write_ptag(tmp_path / "a.ptag", 1, hbt)
    ana, w = tmp_path / "ana", str(2**62)
    rc = main(["analyze", str(tmp_path / "h.ptag"), str(tmp_path / "a.ptag"), "--mode", "sbr",
               "--out", str(ana), "--bin-ps", w, "--delay-range-ps", w,
               "--background-exclusion-ps", str(3 * 10**18)])
    assert rc == 0
    counts = io.load_table(ana / "correlation.csv")[:, 1]
    assert counts.tolist() == delay_counts_exact(herald, hbt, 2**62, 2**62) == [0, 2, 2]
    res = io.read_summary(ana / "analysis.json")
    assert (res["status"], res["background_per_bin"], res["sbr"]) == ("ok", 1.0, 1.0)


def test_simulate_rejects_negative_seed_before_writing(tmp_path, capsys):
    out = tmp_path / "neg"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "g2_chain", "--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_and_analyze_franson(tmp_path):
    out = tmp_path / "franson"
    assert main(["simulate", "--scenario", scenario_path("franson.ini"),
                 "--out", str(out)]) == 0
    summary = io.read_summary(out / "summary.json")
    configured = summary["configured_visibility"]
    assert configured == pytest.approx(0.836, abs=0.001)

    ana = tmp_path / "ana"
    rc = main(["analyze", str(out), "--mode", "franson", "--out", str(ana)])
    assert rc == 0
    res = io.read_summary(ana / "analysis.json")
    assert res["status"] == "ok"
    assert abs(res["visibility"] - configured) < 3 * res["sigma"]
    assert res["bell_violation_sigmas"] > 0
    assert res["gate_ps"] == 512 and "gate_ps" not in summary


def test_analyze_franson_gate_is_an_analyze_default(tmp_path):
    # the summary names no gate; the default 512 ps gate counts pairs 256 ps apart
    # and not those 257 ps apart
    counts = [10 + round(8 * np.cos(k * np.pi / 4)) for k in range(8)]
    scan = []
    for k, n in enumerate(counts):
        a = np.arange(20, dtype=np.int64) * 10**4
        b = a + np.where(np.arange(20) < n, 256, 257)
        for label, tags in (("a", a), ("b", b)):
            io.write_ptag(tmp_path / f"{label}{k}.ptag", 0, TagStream(tags, 2 * 10**5))
        scan.append({"phase_rad": k * np.pi / 4, "a": f"a{k}.ptag", "b": f"b{k}.ptag"})
    io.write_summary(tmp_path / "summary.json", {"kind": "franson", "scan": scan})
    ana = tmp_path / "ana"
    assert main(["analyze", str(tmp_path), "--mode", "franson", "--out", str(ana)]) == 0
    res = io.read_summary(ana / "analysis.json")
    assert (res["status"], res["gate_ps"], res["gated_coincidences"]) == ("ok", 512, sum(counts))
    assert io.load_table(ana / "franson_scan.csv")[:, 1].tolist() == counts


def test_simulate_franson_imbalance_sets_the_configured_visibility(tmp_path):
    sc = tmp_path / "scenario.ini"
    sc.write_text(MINIMAL_FRANSON.replace("delay_imbalance_ps = 0", "delay_imbalance_ps = 7"))
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(sc), "--out", str(out)]) == 0
    summary = io.read_summary(out / "summary.json")
    loaded = load_scenario(sc)
    pc = twophoton.converted_pair_coherence(loaded.source_spectrum(), loaded.phase_matching)
    assert summary["delay_imbalance_ps"] == 7
    assert summary["configured_visibility"] == 0.88 * 0.95 * pc.at(7.0) < 0.836


def test_simulate_franson_imbalance_outside_the_pair_coherence(tmp_path, capsys):
    # the converted pair coherence is tabulated on +-80 ps
    sc = tmp_path / "scenario.ini"
    sc.write_text(MINIMAL_FRANSON.replace("delay_imbalance_ps = 0", "delay_imbalance_ps = 100"))
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(sc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "franson.delay_imbalance_ps = 100" in err and "[-80, 80] ps" in err
    assert not out.exists()


SCAN_ENTRY = {"phase_rad": 0.0, "a": "x.ptag", "b": "y.ptag"}


def scan_with_phase(phase):
    """Eight scan entries over one 2 pi fringe, the fourth at the given phase."""
    return [{**SCAN_ENTRY, "phase_rad": phase if k == 3 else k * np.pi / 4} for k in range(8)]


# gate_ps, which summaries of older runs carry, is ignored: the gate is an analyze option
@pytest.mark.parametrize("summary", [
    {"kind": "franson"},
    {"kind": "franson", "gate_ps": 512},
    {"kind": "franson", "gate_ps": 512, "scan": {"a": "x.ptag"}},
    {"kind": "franson", "gate_ps": 512, "scan": [{"phase_rad": 0.0, "a": "x.ptag"}]},
    ["franson"],
    {"kind": "franson", "gate_ps": 512, "scan": [{**SCAN_ENTRY, "a": 0}]},
    {"kind": "franson", "gate_ps": 512, "scan": scan_with_phase(True)},
    {"kind": "franson", "gate_ps": 512, "scan": scan_with_phase(None)},
    {"kind": "franson", "gate_ps": 512, "scan": scan_with_phase(float("inf"))},
], ids=["kind_only", "no_scan", "scan_not_list", "entry_without_b", "not_object",
        "file_not_string", "phase_bool", "phase_null", "phase_inf"])
def test_analyze_franson_incomplete_summary(tmp_path, summary, capsys):
    # empty tag files stand by, so only the summary's own defects can fail the run
    for name in ("x.ptag", "y.ptag"):
        io.write_ptag(tmp_path / name, 0, TagStream(np.empty(0, dtype=np.int64), 0))
    io.write_summary(tmp_path / "summary.json", summary)
    rc = main(["analyze", str(tmp_path), "--mode", "franson", "--out", str(tmp_path / "ana")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "summary.json" in err
    assert not (tmp_path / "ana" / "analysis.json").exists()


@pytest.mark.parametrize("mode, tags", [("g2", ["h", "a", "b"]), ("sbr", ["h", "a"])])
@pytest.mark.parametrize("flags", [
    ["--delay-range-ps", "100"],  # range below the default 15000 ps exclusion
    ["--delay-range-ps", "16000", "--bin-ps", "1500"],  # 10 whole bins = 15000 ps
    ["--background-exclusion-ps", "700"],  # below half the default 1500 ps window
    ["--window-ps", "40000"],  # half the bin beyond the exclusion
])
def test_analyze_inconsistent_widths_are_usage_errors(tmp_path, mode, tags, flags, capsys):
    # nonexistent tag files: the flags are checked before any file is read
    rc = main(["analyze", *[str(tmp_path / t) for t in tags], "--mode", mode,
               "--out", str(tmp_path / "ana"), *flags])
    assert rc == 2
    assert "--delay-range-ps" in capsys.readouterr().err
    assert not (tmp_path / "ana").exists()

def test_analyze_sbr_mode(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", scenario_path("g2_chain.ini"),
                 "--out", str(out)]) == 0
    ana = tmp_path / "ana"
    rc = main(["analyze", str(out / "herald.ptag"), str(out / "hbt1.ptag"),
               "--mode", "sbr", "--out", str(ana), "--bin-ps", "1500"])
    assert rc == 0
    res = io.read_summary(ana / "analysis.json")
    assert res["status"] == "ok"
    assert res["sbr"] > 0


def test_cli_fit(tmp_path):
    dt = 1.5e-9
    path = tmp_path / "points.csv"
    write_sbr_points(path, dt)
    out = tmp_path / "fit"
    assert main(["fit", str(path), "--dt-s", str(dt), "--out", str(out)]) == 0
    res = io.read_summary(out / "fit.json")
    assert res["a"] == pytest.approx(6.78, rel=1e-6)
    assert res["b"] == pytest.approx(1.67e6, rel=1e-6)
    assert res["b_at_boundary"] is False


@pytest.mark.parametrize("row, dt, error", [
    ("1e5,nan", "1.5e-9", "non-finite value"),
    ("1e5,inf", "1.5e-9", "non-finite value"),
    ("nan,50", "1.5e-9", "non-finite value"),
    (None, "-1", "dt must be positive and finite"),
    (None, "0", "dt must be positive and finite"),
    (None, "nan", "dt must be positive and finite"),
    (None, "inf", "dt must be positive and finite"),
    ("2e5,x", "1.5e-9", "non-numeric data row"),
], ids=["sbr_nan", "sbr_inf", "rate_nan", "dt_negative", "dt_zero", "dt_nan", "dt_inf",
        "data_row_not_numeric"])
def test_cli_fit_rejects_nonfinite_and_nonpositive(tmp_path, capsys, row, dt, error):
    path = tmp_path / "points.csv"
    write_sbr_points(path, 1.5e-9)
    if row is not None:
        with open(path, "a") as fh:
            fh.write(row + "\n")
    out = tmp_path / "fit"
    assert main(["fit", str(path), "--dt-s", dt, "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert not (out / "fit.json").exists()


def test_cli_fit_refuses_a_partly_numeric_first_row(tmp_path, capsys):
    # a header has no numeric field; a first data row with a typo is not one
    path = tmp_path / "points.csv"
    write_sbr_points(path, 1.5e-9)
    path.write_text("1.0,abc\n" + path.read_text())
    out = tmp_path / "fit"
    assert main(["fit", str(path), "--dt-s", "1.5e-9", "--out", str(out)]) == 2
    assert "non-numeric data row '1.0,abc'" in capsys.readouterr().err
    assert not (out / "fit.json").exists()


def test_cli_reproduce_all_figures(tmp_path):
    for fig in ("fig2", "fig3", "fig4", "fig5b", "fig5c"):
        out = tmp_path / fig
        assert main(["reproduce", fig, "--out", str(out)]) == 0
        assert os.listdir(out)
    fig4 = io.load_table(tmp_path / "fig4" / "fig4_visibility_vs_imbalance.csv")
    assert fig4[:, 1].max() == pytest.approx(0.836, abs=0.001)
    with open(tmp_path / "fig5c" / "fig5c_sbr_vs_herald_rate.csv") as fh:
        header = fh.read().splitlines()[0]
    assert "a=6.78" in header and "a=19.1" in header
    for fig, rows in (("fig2", 1201), ("fig3", 2001)):
        with open(tmp_path / fig / f"{fig}_visibility.csv") as fh:
            header = fh.readline()
        assert "173 GHz" in header and "apparatus ceiling 0.88" in header
        assert ("118 GHz" in header) == (fig == "fig3")
        assert io.load_table(tmp_path / fig / f"{fig}_visibility.csv").shape == (rows, 2)
    for fig, label in (("fig5b", "g2_zero"), ("fig5c", "sbr")):
        table = io.load_table(tmp_path / fig / f"{fig}_{label}_vs_herald_rate.csv")
        assert table.shape == (200, 3)
        assert table[0, 0] == 2000.0


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(fcphotons.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_cli_import_leaves_scipy_out():
    # the runtime is numpy only; importing scipy roughly quintuples the CLI's start-up
    code = ("import sys, fcphotons.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env(), check=True)
    assert out.stdout.strip() == "[]"


def test_cli_franson_chain_runs_without_scipy(tmp_path):
    code = """
import json, os, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from fcphotons.cli import main
out = sys.argv[1]
run = os.path.join(out, "run")
for argv in (["simulate", "--scenario", "franson", "--out", run],
             ["analyze", run, "--mode", "franson", "--out", run],
             ["reproduce", "fig3", "--out", os.path.join(out, "curves")]):
    assert main(argv) == 0, argv
with open(os.path.join(run, "analysis.json")) as fh:
    print(json.load(fh)["visibility"])
"""
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, env=src_env())
    assert out.returncode == 0, out.stderr
    assert 0.7 < float(out.stdout) < 1.0
    assert (tmp_path / "curves" / "fig3_visibility.csv").exists()


def test_cli_reproduce_unknown_figure():
    with pytest.raises(SystemExit):
        main(["reproduce", "fig9", "--out", "/tmp/nowhere"])


def test_cli_bad_scenario(tmp_path):
    sc = tmp_path / "broken.ini"
    sc.write_text("[run]\nkind = warp\nduration_ps = 1\n[source]\npair_rate_per_s = 1\n")
    assert main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", "--scenario", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_scenario_missing_spectrum_file(tmp_path):
    src = scenario_path("franson.ini")
    text = Path(src).read_text().replace("[spectrum]\ngaussian_fwhm_ghz = 173",
                                         "[spectrum]\nfile = does_not_exist.csv")
    sc = tmp_path / "bad_spectrum.ini"
    sc.write_text(text)
    assert main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("scenario, error", [
    ("g2_chain", None),
    ("franson", None),
    (MINIMAL_SCENARIO, None),
    (MINIMAL_SCENARIO + "[analysis]\nbin_ps = 1500\n", "unknown key analysis.bin_ps"),
    (MINIMAL_SCENARIO.replace("pair_rate_per_s = 1e6\n", ""),
     "missing key source.pair_rate_per_s"),
    (MINIMAL_SCENARIO + "q1 = lots\n", "bad value for source.q1: 'lots'"),
    (MINIMAL_FRANSON, None),
    (MINIMAL_FRANSON + "[source]\npair_rate_per_s = 1e6\n",
     "unknown key source.pair_rate_per_s"),
    (MINIMAL_SCENARIO + "[qfc]\nefficiency = 0.5\nbackground_rate_per_s = -1\n",
     "qfc.background_rate_per_s must be nonnegative"),
    (MINIMAL_SCENARIO + "[detector_herald]\njitter_sigma_ps = nan\n",
     "bad value for detector_herald.jitter_sigma_ps: 'nan'"),
    (MINIMAL_SCENARIO.replace("duration_ps = 1000", "duration_ps = inf"),
     "bad value for run.duration_ps: 'inf'"),
    (MINIMAL_FRANSON.replace("phase_points = 12", "phase_points = 16.7"),
     "bad value for franson.phase_points: '16.7'"),
    (MINIMAL_FRANSON.replace("phase_points = 12", "phase_points = 12.0"), None),
    (MINIMAL_SCENARIO + "[franson]\nv_mi = 0.5\n", "unknown key franson.v_mi"),
    (MINIMAL_SCENARIO + "[analysis]\ngate_ps = 7\n", "unknown key analysis.gate_ps"),
    (MINIMAL_FRANSON + "[analysis]\ngate_ps = 512\n", "unknown key analysis.gate_ps"),
    (MINIMAL_FRANSON + "[qfc]\nefficiency = 0.5\n", "unknown key qfc.efficiency"),
    (MINIMAL_FRANSON.replace("[spectrum]\n", "[spectrum]\nfile = line.csv\n"),
     "[spectrum] must set exactly one of file and gaussian_fwhm_ghz"),
    (MINIMAL_FRANSON.replace("gaussian_fwhm_ghz = 173\n", ""),
     "[spectrum] must set exactly one of file and gaussian_fwhm_ghz"),
    (MINIMAL_FRANSON.replace("phase_points = 12\n", ""), "missing key franson.phase_points"),
    (MINIMAL_FRANSON.replace("fwhm_ghz = 118\n", ""), "missing key phase_matching.fwhm_ghz"),
    (MINIMAL_FRANSON.replace("gaussian_fwhm_ghz = 173", "file = nan_line.csv"),
     "nan_line.csv: non-finite value"),
    (MINIMAL_SCENARIO + "[run]\nseed = 3\n", "section 'run' already exists"),
    (MINIMAL_SCENARIO.replace("kind = g2_chain\n", "kind = g2_chain\nkind = franson\n"),
     "option 'kind' in section 'run' already exists"),
    ("seed = 3\n" + MINIMAL_SCENARIO, "File contains no section headers"),
    (MINIMAL_SCENARIO + "[detector_herald]\njitter_sigma_ps = 5%\n",
     "bad value for detector_herald.jitter_sigma_ps: '5%'"),
    (MINIMAL_SCENARIO.replace("[run]\n", "[run]\nname = g2-%(x)s\n"), None),
    (MINIMAL_FRANSON.replace("delay_ps = 1140", "delay_ps = 0"),
     "[franson] delay_ps must be positive"),
    (MINIMAL_FRANSON.replace("v_mi = 0.88\nv_mzi = 0.95", "v_mi = 1.5\nv_mzi = 0.6"),
     "[franson] v_mi and v_mzi must lie in [0, 1]"),
    (MINIMAL_FRANSON.replace("phase_points = 12", "phase_points = -3"),
     "[franson] phase_points and pairs_per_point must be nonnegative"),
    (MINIMAL_FRANSON.replace("pairs_per_point = 5000", "pairs_per_point = -5"),
     "[franson] phase_points and pairs_per_point must be nonnegative"),
    (MINIMAL_SCENARIO.replace("[run]\n", "[run]\nseed = -1\n"), "run.seed must be nonnegative"),
    (MINIMAL_SCENARIO.replace("[run]\n", "[run]\nseed = 1e3\n"), None),
    ("\ufeff" + Path(scenario_path("g2_chain.ini")).read_text(encoding="utf-8"), None),
    (EMPTY_SOURCE.replace("duration_ps = 1000", "duration_ps = 9223372036854775808"),
     "run.duration_ps = '9223372036854775808' is not below 2^63 ps"),
    (EMPTY_SOURCE.replace("duration_ps = 1000", "duration_ps = 18446744073709551616"),
     "run.duration_ps = '18446744073709551616' is not below 2^63 ps"),
    (MINIMAL_FRANSON.replace("delay_ps = 1140", "delay_ps = 1e23"),
     "franson.delay_ps = '1e23' is not below 2^63 ps"),
    (MINIMAL_FRANSON.replace("delay_imbalance_ps = 0", "delay_imbalance_ps = -1e23"),
     "franson.delay_imbalance_ps = '-1e23' is not below 2^63 ps"),
    (MINIMAL_SCENARIO + "[detector_herald]\njitter_sigma_ps = 1e300\n",
     "detector_herald.jitter_sigma_ps = '1e300' is not below 2^63 ps"),
], ids=["g2_chain_by_name", "franson_by_name", "minimal_defaults", "unknown_key",
        "missing_pair_rate", "bad_value", "franson_without_source", "franson_with_source",
        "negative_qfc_background", "jitter_nan", "duration_inf",
        "int_key_fractional", "int_key_integral_float", "g2_chain_with_franson",
        "g2_chain_with_analysis", "franson_with_analysis", "franson_with_qfc", "spectrum_both",
        "spectrum_neither", "missing_phase_points", "missing_pm_fwhm", "spectrum_nan",
        "section_twice", "key_twice", "key_before_section", "lone_percent",
        "percent_in_name", "delay_zero", "v_mi_above_one", "phase_points_negative",
        "pairs_per_point_negative", "seed_negative", "seed_float_form", "g2_chain_with_bom",
        "duration_2_63", "duration_2_64", "delay_1e23", "imbalance_minus_1e23", "jitter_1e300"])
def test_scenario_loader(tmp_path, capsys, scenario, error):
    bundled = "g2_chain" if scenario.startswith("\ufeff") else scenario
    name = "g2-%(x)s" if "name = " in scenario else "scenario.ini"
    seed = 1000 if "seed = 1e3" in scenario else 0
    if "\n" in scenario:  # the file's text, not a bundled name
        path = tmp_path / "scenario.ini"
        path.write_text(scenario, encoding="utf-8")
        scenario = str(path)
        # a line broader than the Gaussian, for the cases that name a spectrum file
        io.save_curve(tmp_path / "line.csv", [-300.0, 0.0, 300.0], [0.5, 1.0, 0.5],
                      ("nu_GHz", "intensity"))
        io.save_curve(tmp_path / "nan_line.csv", [-300.0, 0.0, 300.0], [0.5, np.nan, 0.5],
                      ("nu_GHz", "intensity"))
    if error is not None:
        assert main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 2
        assert error in capsys.readouterr().err
        return
    loaded = load_scenario(scenario)
    if bundled in ("g2_chain", "franson"):
        assert loaded == load_scenario(scenario_path(f"{bundled}.ini"))
        return
    assert loaded.seed == seed
    assert loaded.name == name
    assert loaded.detector_herald == loaded.detector_signal == DetectorModel()
    if loaded.kind == "g2_chain":
        assert loaded.source == SourceParams(pair_rate_per_s=1e6)
        assert (loaded.qfc_efficiency, loaded.qfc_background_per_s) == (None, 0.0)
        assert loaded.franson is loaded.phase_matching is None
        assert loaded.spectrum_fwhm_ghz is loaded.spectrum_file is None
    else:
        assert loaded.source is loaded.qfc_efficiency is loaded.qfc_background_per_s is None
        assert loaded.phase_matching == PhaseMatching(fwhm_ghz=118.0)
        assert loaded.franson == FransonScanSettings(1140, 0, 0.88, 0.95, 12, 5000)
        assert loaded.spectrum_file is None
        assert loaded.spectrum_fwhm_ghz == 173.0


@pytest.mark.parametrize("raw, value", [("9007199254740993", 2**53 + 1), ("1e6", 10**6)])
def test_scenario_int_key_parsed_exactly(tmp_path, raw, value):
    path = tmp_path / "scenario.ini"
    path.write_text(MINIMAL_FRANSON.replace("duration_ps = 1000", f"duration_ps = {raw}"))
    assert load_scenario(path).duration_ps == value


def readme_cli_commands():
    """Each "fcphotons ..." line of the README's CLI quick start, as argv."""
    block = README.read_text(encoding="utf-8").split("## Quick start (CLI)")[1]
    block = block.split("```sh")[1].split("```")[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("fcphotons ")]


def test_readme_cli_commands_run_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_sbr_points(tmp_path / "points.csv", 1.5e-9)
    commands = readme_cli_commands()
    assert len(commands) >= 6
    for argv in commands:
        assert main(argv) == 0, argv


def test_bundled_scenario_not_shadowed_by_directory(tmp_path, monkeypatch):
    # the second run finds the first run's franson/ output directory in the way
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert main(["simulate", "--scenario", "franson", "--out", "franson/"]) == 0


def test_readme_library_quick_start_runs_as_written(capsys):
    block = README.read_text(encoding="utf-8").split("## Quick start (library)")[1]
    exec(block.split("```python")[1].split("```")[0], {})
    peak, fidelity = capsys.readouterr().out.splitlines()
    assert float(peak) == pytest.approx(0.836, abs=0.001)
    assert ast.literal_eval(fidelity)[0] == pytest.approx(0.919, abs=1e-9)
