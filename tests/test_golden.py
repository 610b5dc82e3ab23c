"""Fixed-seed outputs of the CLI chains, pinned against tests/golden.json.

Each run goes through ``cli.main`` in a temporary directory.  PTAG files and
the integer-count CSVs are compared by sha256; JSON files value by value,
floats at relative 1e-12; the figure CSVs line by line for their header and
column by column for their values, at 1e-12 of each column's largest value.
NumPy does not promise the same Generator streams across versions, so
golden.json records the numpy version it was made with.

After a deliberate output change, or a numpy upgrade, re-record with

    PYTHONPATH=src python tests/test_golden.py

which keeps every stored value that the fresh one matches within these
tolerances, so golden.json changes only where an output moved.
"""

import hashlib
import importlib.resources
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fcphotons.cli import FIGURES, main

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-12
# outputs of integers (and of the phases of a fixed linspace), compared by hash
HASHED = ("*.ptag", "correlation.csv", "g2_histogram.csv", "franson_scan.csv")
RERECORD = ("re-record tests/golden.json with `PYTHONPATH=src python tests/test_golden.py` "
            "in a change of its own, and say why in CHANGES.md")

# perfbench's dense_sbr workload: the bundled g2_chain without its converter, with
# jittered, dead-time-limited detectors, correlated in 150 ps bins
DENSE_SBR = """[run]
kind = g2_chain
name = dense-sbr
seed = 11
duration_ps = 100000000000

[source]
pair_rate_per_s = 2e6
q1 = 0.0
q2 = 0.3
eta1 = 0.5
eta2 = 0.6
dark1_per_s = 0.0
dark2_per_s = 2300

[detector_herald]
jitter_sigma_ps = 254.8
dead_time_ps = 50000

[detector_signal]
jitter_sigma_ps = 15
dead_time_ps = 50000
"""


def _bundled(name):
    return str(importlib.resources.files("fcphotons") / "scenarios" / name)


def _chains(root: Path):
    """The golden runs: name -> the argv lists run in root / name, in order."""
    tags = ["herald.ptag", "hbt1.ptag", "hbt2.ptag"]
    (root / "dense_sbr.ini").write_text(DENSE_SBR, encoding="utf-8")

    def run(name, scenario, seed, *analyses):
        out = root / name
        return [["simulate", "--scenario", scenario, "--out", str(out), "--seed", str(seed)],
                *(["analyze", *(str(out / t) for t in inputs), *flags, "--out", str(out / mode)]
                  for mode, inputs, flags in analyses)]

    return {
        "g2_chain": run("g2_chain", _bundled("g2_chain.ini"), 11,
                        ("g2", tags, ["--mode", "g2"]),
                        ("sbr", tags[:2], ["--mode", "sbr", "--bin-ps", "1500"])),
        "dense_sbr": run("dense_sbr", str(root / "dense_sbr.ini"), 11,
                         ("sbr", tags[:2], ["--mode", "sbr", "--bin-ps", "150"])),
        "franson": run("franson", _bundled("franson.ini"), 23,
                       ("analysis", ["."], ["--mode", "franson"])),
        "reproduce": [["reproduce", fig, "--out", str(root / "reproduce")] for fig in FIGURES],
    }


def _record(path: Path):
    """What the golden file keeps of one output file."""
    if any(path.match(pattern) for pattern in HASHED):
        return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    if path.suffix == ".json":
        return {"json": json.loads(path.read_text(encoding="utf-8"))}
    lines = path.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    names = lines[len(header)]
    values = np.array([[float(v) for v in line.split(",")] for line in lines[len(header) + 1:]])
    return {"header": [*header, names], "columns": values.T.tolist()}


def run_all(root: Path) -> dict:
    """Every golden run's outputs, by run name and path inside its directory."""
    outputs = {}
    for name, argvs in _chains(root).items():
        for argv in argvs:
            assert main(argv) == 0, argv
        out = root / name
        outputs[name] = {str(p.relative_to(out)): _record(p)
                         for p in sorted(out.rglob("*")) if p.is_file()}
    return outputs


def _column_atol(expected) -> float:
    """A figure column's absolute tolerance: RTOL of its largest value."""
    return RTOL * np.abs(expected).max()


def merge(stored, fresh):
    """fresh, with each value that matches its stored one within the test's
    tolerances (floats at RTOL, figure columns at _column_atol) kept as stored."""
    if isinstance(stored, dict) and isinstance(fresh, dict):
        return {key: (_merge_columns if key == "columns" else merge)(stored[key], value)
                if key in stored else value for key, value in fresh.items()}
    if isinstance(stored, list) and isinstance(fresh, list) and len(stored) == len(fresh):
        return [merge(s, f) for s, f in zip(stored, fresh)]
    if isinstance(stored, float) and isinstance(fresh, float) and math.isclose(
            fresh, stored, rel_tol=RTOL):
        return stored
    return fresh


def _merge_columns(stored, fresh):
    """fresh figure columns, each one that matches its stored one kept as stored."""
    if len(stored) != len(fresh):
        return fresh
    return [s if len(s) == len(f) and np.allclose(f, s, rtol=RTOL, atol=_column_atol(s)) else f
            for s, f in zip(stored, fresh)]


def _close(actual, expected, where):
    """Assert two parsed JSON values equal, floats at RTOL."""
    if isinstance(expected, float) and isinstance(actual, float):
        assert math.isclose(actual, expected, rel_tol=RTOL), \
            f"{where}: {actual} != {expected}; {RERECORD}"
    elif isinstance(expected, dict) and isinstance(actual, dict):
        assert actual.keys() == expected.keys(), f"{where}: keys differ; {RERECORD}"
        for key in expected:
            _close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        assert len(actual) == len(expected), f"{where}: lengths differ; {RERECORD}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            _close(a, e, f"{where}[{i}]")
    else:
        assert actual == expected and type(actual) is type(expected), \
            f"{where}: {actual!r} != {expected!r}; {RERECORD}"


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert recorded["numpy"] == np.__version__, (
        f"golden.json was recorded with numpy {recorded['numpy']}, this is "
        f"numpy {np.__version__}; its Generator streams may differ: {RERECORD}")
    return recorded["outputs"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("run", ["g2_chain", "dense_sbr", "franson", "reproduce"])
def test_fixed_seed_outputs_equal_golden(golden, outputs, run):
    expected, actual = golden[run], outputs[run]
    assert sorted(actual) == sorted(expected), f"{run}: other output files; {RERECORD}"
    for name, want in expected.items():
        got, where = actual[name], f"{run}/{name}"
        if "columns" in want:
            assert got["header"] == want["header"], f"{where}: header differs; {RERECORD}"
            assert len(got["columns"]) == len(want["columns"]), where
            for k, (a, e) in enumerate(zip(got["columns"], want["columns"])):
                e = np.asarray(e)
                np.testing.assert_allclose(a, e, rtol=RTOL, atol=_column_atol(e),
                                           err_msg=f"{where} column {k}; {RERECORD}")
        else:
            _close(got, want, where)


def test_merge_keeps_only_the_stored_values_that_match():
    stored = {"a.json": {"json": {"x": 1.0, "y": 2.0, "n": 3, "v": [1.0, 5.0]}},
              "fig.csv": {"header": ["x,y"], "columns": [[0.0, 1e3], [1.0, 2.0]]},
              "gone.ptag": {"sha256": "00"}}
    fresh = {"a.json": {"json": {"x": 1.0 + 1e-13, "y": 2.0 + 1e-9, "n": 4, "v": [1.0, 5.0, 6.0]}},
             "fig.csv": {"header": ["x,y"], "columns": [[1e-10, 1e3], [1.0, 2.0 + 1e-11]]},
             "new.ptag": {"sha256": "11"}}
    assert merge(stored, fresh) == {
        "a.json": {"json": {"x": 1.0, "y": 2.0 + 1e-9, "n": 4, "v": [1.0, 5.0, 6.0]}},
        # 1e-10 is within RTOL of its column's largest value, 1e3; 1e-11 exceeds RTOL of 2.0
        "fig.csv": {"header": ["x,y"], "columns": [[0.0, 1e3], [1.0, 2.0 + 1e-11]]},
        "new.ptag": {"sha256": "11"}}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_all(Path(tmp))
    if GOLDEN.exists():
        outputs = merge(json.loads(GOLDEN.read_text(encoding="utf-8"))["outputs"], outputs)
    recorded = {"numpy": np.__version__, "outputs": outputs}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
