import ast
import importlib.resources
import os
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fcphotons
from fcphotons import io, models
from fcphotons.cli import main
from fcphotons.scenario import FransonScanSettings, load_scenario
from fcphotons.simkit import DetectorModel, SourceParams, TagStream
from fcphotons.spectral import PhaseMatching, gaussian_spectrum

README = Path(__file__).resolve().parents[1] / "README.md"
MINIMAL_SCENARIO = "[run]\nkind = g2_chain\nduration_ps = 1000\n[source]\npair_rate_per_s = 1e6\n"
MINIMAL_FRANSON = "[run]\nkind = franson\nduration_ps = 1000\n"
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
    s0 = TagStream(0, np.sort(rng.integers(0, 10**9, 500, dtype=np.int64)), 10**9)
    s1 = TagStream(3, np.sort(rng.integers(0, 10**9, 300, dtype=np.int64)), 10**9)
    path = tmp_path / "tags.ptag"
    io.write_ptag(path, [s0, s1])
    back = io.read_ptag(path)
    assert [s.channel for s in back] == [0, 3]
    assert np.array_equal(back[0].tags, s0.tags)
    assert np.array_equal(back[1].tags, s1.tags)
    assert back[0].duration_ps == 10**9
    with open(path, "rb") as fh:
        assert fh.read(4) == b"PTAG"


def test_ptag_single_stream_matches_multi_stream_path(tmp_path):
    rng = np.random.default_rng(2)
    s = TagStream(1, np.sort(rng.integers(0, 10**9, 1000, dtype=np.int64)), 10**9)
    io.write_ptag(tmp_path / "one.ptag", s)
    io.write_ptag(tmp_path / "two.ptag", [s, TagStream(5, np.empty(0, dtype=np.int64), 0)])
    assert (tmp_path / "one.ptag").read_bytes() == (tmp_path / "two.ptag").read_bytes()
    # interleaved streams come out time ordered, ties in stream order
    a = TagStream(0, np.array([0, 10, 20, 30], dtype=np.int64), 40)
    b = TagStream(2, np.array([5, 10, 25], dtype=np.int64), 40)
    io.write_ptag(tmp_path / "mixed.ptag", [a, b])
    raw = np.frombuffer((tmp_path / "mixed.ptag").read_bytes()[io._HEADER_BYTES:],
                        dtype=io._RECORD_DTYPE)
    assert raw["timestamp_ps"].tolist() == [0, 5, 10, 10, 20, 25, 30]
    assert raw["channel"].tolist() == [0, 2, 0, 2, 0, 2, 0]


def test_ptag_bad_magic(tmp_path):
    path = tmp_path / "bad.ptag"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(io.FileFormatError):
        io.read_ptag(path)


@pytest.mark.parametrize("size", [6, 14 + 3 * 9 + 4], ids=["short_header", "partial_record"])
def test_ptag_truncated_file_rejected(tmp_path, size):
    full = tmp_path / "full.ptag"
    io.write_ptag(full, TagStream(0, np.arange(0, 5000, 1000, dtype=np.int64), 10**4))
    cut = tmp_path / "cut.ptag"
    cut.write_bytes(full.read_bytes()[:size])
    with pytest.raises(io.FileFormatError):
        io.read_ptag(cut)
    assert main(["analyze", str(cut), str(full), "--mode", "sbr",
                 "--out", str(tmp_path / "ana")]) == 2


def write_raw_ptag(path, channels, timestamps, duration_ps):
    """A PTAG file with the records in the order given, unchecked."""
    records = np.empty(len(channels), dtype=[("channel", "u1"), ("timestamp_ps", "<u8")])
    records["channel"] = channels
    records["timestamp_ps"] = timestamps
    path.write_bytes(b"PTAG" + struct.pack("<HQ", 1, duration_ps) + records.tobytes())


def test_ptag_unsorted_channels_read_back_sorted(tmp_path):
    rng = np.random.default_rng(5)
    stamps = rng.permutation(np.arange(0, 4000, 10, dtype=np.uint64))
    channels = np.where(np.arange(stamps.size) % 3 == 0, 3, 1)
    path = tmp_path / "unsorted.ptag"
    write_raw_ptag(path, channels, stamps, 4000)
    back = io.read_ptag(path)
    assert [s.channel for s in back] == [1, 3]
    for s in back:
        assert s.tags.dtype == np.int64
        assert np.array_equal(s.tags, np.sort(stamps[channels == s.channel]).astype(np.int64))
    single = tmp_path / "single.ptag"
    write_raw_ptag(single, np.full(stamps.size, 2), stamps, 4000)
    (back,) = io.read_ptag(single)
    assert back.channel == 2
    assert np.array_equal(back.tags, np.sort(stamps).astype(np.int64))


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
    tol = 3 * res["sigma"] + 3 * res["sbr_sigma"] / (res["sbr"] + 1) ** 2
    assert abs(res["g2_zero"] - predicted) < max(tol, 0.05)
    assert (ana / "g2_histogram.csv").exists()
    assert (ana / "correlation.csv").exists()


def test_simulate_zero_duration(tmp_path):
    src = scenario_path("g2_chain.ini")
    text = Path(src).read_text().replace("duration_ps = 100000000000   # 0.1 s",
                                         "duration_ps = 0")
    sc = tmp_path / "empty.ini"
    sc.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(sc), "--out", str(out)]) == 0
    streams = io.read_ptag(out / "herald.ptag")
    assert streams == [] or streams[0].tags.size == 0

    ana = tmp_path / "ana"
    rc = main(["analyze", str(out / "herald.ptag"), str(out / "hbt1.ptag"),
               str(out / "hbt2.ptag"), "--mode", "g2", "--out", str(ana)])
    assert rc == 0
    res = io.read_summary(ana / "analysis.json")
    assert res["status"] == "insufficient data"


def test_analyze_g2_empty_hbt_file(tmp_path):
    herald = TagStream(0, np.arange(0, 10**8, 10**4, dtype=np.int64), 10**8)
    io.write_ptag(tmp_path / "herald.ptag", herald)
    io.write_ptag(tmp_path / "hbt.ptag", [])
    ana = tmp_path / "ana"
    rc = main(["analyze", str(tmp_path / "herald.ptag"), str(tmp_path / "hbt.ptag"),
               str(tmp_path / "hbt.ptag"), "--mode", "g2", "--out", str(ana)])
    assert rc == 0
    assert io.read_summary(ana / "analysis.json")["status"] == "insufficient data"


@pytest.mark.parametrize("flag", WIDTH_FLAGS)
@pytest.mark.parametrize("value", ["0", "-1500"])
def test_analyze_rejects_nonpositive_width(tmp_path, flag, value):
    for mode, tags in (("g2", ["h", "a", "b"]), ("sbr", ["h", "a"])):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *tags, "--mode", mode, "--out", str(tmp_path), flag, value])
        assert exc.value.code == 2


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



SCAN_ENTRY = {"phase_rad": 0.0, "a": "x.ptag", "b": "y.ptag"}


@pytest.mark.parametrize("summary", [
    {"kind": "franson"},
    {"kind": "franson", "gate_ps": 512},
    {"kind": "franson", "gate_ps": 512, "scan": {"a": "x.ptag"}},
    {"kind": "franson", "gate_ps": 512, "scan": [{"phase_rad": 0.0, "a": "x.ptag"}]},
    {"kind": "franson", "scan": [{"phase_rad": 0.0, "a": "x.ptag", "b": "y.ptag"}]},
    ["franson"],
    {"kind": "franson", "gate_ps": "512", "scan": [SCAN_ENTRY]},
    {"kind": "franson", "gate_ps": -5, "scan": [SCAN_ENTRY]},
    {"kind": "franson", "gate_ps": True, "scan": [SCAN_ENTRY]},
    {"kind": "franson", "gate_ps": 512.0, "scan": [SCAN_ENTRY]},
    {"kind": "franson", "gate_ps": 512, "scan": [{**SCAN_ENTRY, "a": 0}]},
], ids=["kind_only", "no_scan", "scan_not_list", "entry_without_b", "no_gate", "not_object",
        "gate_string", "gate_negative", "gate_bool", "gate_float", "file_not_string"])
def test_analyze_franson_incomplete_summary(tmp_path, summary, capsys):
    # empty tag files stand by, so only the summary's own defects can fail the run
    for name in ("x.ptag", "y.ptag"):
        io.write_ptag(tmp_path / name, [])
    io.write_summary(tmp_path / "summary.json", summary)
    rc = main(["analyze", str(tmp_path), "--mode", "franson", "--out", str(tmp_path / "ana")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
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
    for fig, label in (("fig5b", "g2_zero"), ("fig5c", "sbr")):
        table = io.load_table(tmp_path / fig / f"{fig}_{label}_vs_herald_rate.csv")
        assert table.shape == (200, 3)
        assert table[0, 0] == 2000.0


def test_cli_import_leaves_scipy_signal_out():
    # scipy.signal roughly doubles the time to import the CLI
    src = os.path.dirname(os.path.dirname(fcphotons.__file__))
    code = "import sys, fcphotons.cli; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


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
    (MINIMAL_SCENARIO + "[analysis]\ngate_ps = -4\n", "analysis.gate_ps must be positive"),
], ids=["g2_chain_by_name", "franson_by_name", "minimal_defaults", "unknown_key",
        "missing_pair_rate", "bad_value", "franson_without_source", "franson_with_source",
        "negative_qfc_background", "jitter_nan", "duration_inf", "gate_nonpositive"])
def test_scenario_loader(tmp_path, capsys, scenario, error):
    if scenario.startswith("["):
        path = tmp_path / "scenario.ini"
        path.write_text(scenario)
        scenario = str(path)
    if error is not None:
        assert main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 2
        assert error in capsys.readouterr().err
        return
    loaded = load_scenario(scenario)
    if scenario in ("g2_chain", "franson"):
        assert loaded == load_scenario(scenario_path(f"{scenario}.ini"))
        return
    assert loaded.source == (SourceParams(pair_rate_per_s=1e6)
                             if loaded.kind == "g2_chain" else None)
    assert loaded.detector_herald == loaded.detector_signal == DetectorModel()
    assert loaded.phase_matching == PhaseMatching()
    assert loaded.franson == FransonScanSettings()
    assert (loaded.seed, loaded.qfc_efficiency, loaded.gate_ps) == (0, None, 512)


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


def test_readme_library_quick_start_runs_as_written(capsys):
    block = README.read_text(encoding="utf-8").split("## Quick start (library)")[1]
    exec(block.split("```python")[1].split("```")[0], {})
    peak, fidelity = capsys.readouterr().out.splitlines()
    assert float(peak) == pytest.approx(0.836, abs=0.001)
    assert ast.literal_eval(fidelity)[0] == pytest.approx(0.919, abs=1e-9)
