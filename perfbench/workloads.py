"""The benchmark's workloads: scenario files, CLI argv and output checks.

Each workload is one simulate -> analyze chain through ``fcphotons.cli.main``.
The argv is built in one function per workload, in the shape the CLI's
``build_parser()`` accepts: positional tag files, ``--mode``, and the
scenario given as a path.  The output checks use the benchmark's own int64
oracles and PTAG/CSV readers, never the program's correlator or readers.
"""

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fcphotons
from fcphotons import models
from fcphotons.scenario import load_scenario

BUNDLED_SCENARIOS = Path(fcphotons.__file__).resolve().parent / "scenarios"

PTAG_HEADER_BYTES = 14  # "PTAG", u16 version, u64 duration_ps
PTAG_RECORD = np.dtype([("channel", "u1"), ("timestamp_ps", "<u8")])

# heralded_g2's default herald-separation range and plateau start
G2_MAX_SEPARATION = 50
G2_PLATEAU_FROM = 10

# Width of the statistical checks, in standard errors.  A correct program
# lands beyond 3 sigma in about 1 run in 370 per check, and the benchmark is
# run many times on seeds it does not choose; beyond 5 sigma, 1 in 1.7e6.
CHECK_SIGMAS = 5.0


class CheckFailed(Exception):
    """A workload's outputs disagree with the benchmark's oracle or model."""


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    base: str  # bundled scenario file the workload starts from
    inputs: tuple[str, ...]  # PTAG files (glob patterns) that analyze reads
    argv: Callable  # (scenario, run_dir, seed) -> (simulate argv, analyze argv)
    check: Callable  # (run_dir, scenario, parsed analyze args) -> None
    overrides: dict = field(default_factory=dict)  # section -> {key: value}
    drop: tuple[str, ...] = ()  # sections removed from the base scenario

    def scenario_file(self, path: Path, **run_overrides) -> Path:
        """The workload's scenario: the bundled file, or a variant written to path."""
        base = BUNDLED_SCENARIOS / self.base
        overrides = {sec: dict(kv) for sec, kv in self.overrides.items()}
        if run_overrides:
            overrides.setdefault("run", {}).update(
                {k: str(v) for k, v in run_overrides.items()})
        if not overrides and not self.drop:
            return base
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
        if not cp.read(base, encoding="utf-8"):
            raise FileNotFoundError(base)
        for section in self.drop:
            if not cp.remove_section(section):
                raise KeyError(f"{base.name} has no [{section}] to drop")
        for section, values in overrides.items():
            if not cp.has_section(section):
                cp.add_section(section)
            for key, value in values.items():
                cp.set(section, key, value)
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        return path

    def analyzed_tags(self, run_dir: Path) -> int:
        """Tag records in the PTAG files that analyze reads, from their sizes."""
        return sum((p.stat().st_size - PTAG_HEADER_BYTES) // PTAG_RECORD.itemsize
                   for pattern in self.inputs for p in run_dir.glob(pattern))


def _simulate_argv(scenario, run_dir, seed):
    return ["simulate", "--scenario", str(scenario), "--out", str(run_dir),
            "--seed", str(seed)]


def g2_chain_argv(scenario, run_dir, seed):
    tags = [str(run_dir / name) for name in WORKLOADS["g2_chain"].inputs]
    return (_simulate_argv(scenario, run_dir, seed),
            ["analyze", *tags, "--mode", "g2", "--out", str(run_dir)])


def dense_sbr_argv(scenario, run_dir, seed):
    tags = [str(run_dir / name) for name in WORKLOADS["dense_sbr"].inputs]
    return (_simulate_argv(scenario, run_dir, seed),
            ["analyze", *tags, "--mode", "sbr", "--bin-ps", "150", "--out", str(run_dir)])


def franson_argv(scenario, run_dir, seed):
    return (_simulate_argv(scenario, run_dir, seed),
            ["analyze", str(run_dir), "--mode", "franson", "--out", str(run_dir)])


# ---------------------------------------------------------------- readers

def read_tags(path) -> np.ndarray:
    """Timestamps of a single-channel PTAG file as sorted int64."""
    records = np.fromfile(path, dtype=PTAG_RECORD, offset=PTAG_HEADER_BYTES)
    if np.unique(records["channel"]).size > 1:
        raise CheckFailed(f"{Path(path).name}: more than one channel")
    return np.sort(records["timestamp_ps"].astype(np.int64))


def read_curve(path):
    """x and y columns of a curve CSV written by the CLI."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    rows = np.array([[float(v) for v in ln.split(",")[:2]] for ln in lines[1:]]).reshape(-1, 2)
    return rows[:, 0], rows[:, 1]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- oracles

def pair_differences(a: np.ndarray, b: np.ndarray, reach: int) -> np.ndarray:
    """b[j] - a[i] for every pair with |b[j] - a[i]| <= reach (sorted int64)."""
    lo = np.searchsorted(b, a - reach, side="left")
    hi = np.searchsorted(b, a + reach, side="right")
    n = hi - lo
    j = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)
    return b[j] - np.repeat(a, n)


def correlation_oracle(a, b, bin_ps: int, delay_range_ps: int) -> np.ndarray:
    """Delay histogram with integer bins k = (2d + w) // (2w), |k| <= range // w."""
    n_half = delay_range_ps // bin_ps
    d = pair_differences(a, b, (n_half + 1) * bin_ps)
    k = (2 * d + bin_ps) // (2 * bin_ps)
    k = k[np.abs(k) <= n_half]
    return np.bincount(k + n_half, minlength=2 * n_half + 1)


def herald_flags(herald, tags, half_window) -> np.ndarray:
    """Heralds with a tag within half_window, each tag given to its nearest herald."""
    idx = np.searchsorted(herald, tags)
    before = np.maximum(idx - 1, 0)
    after = np.minimum(idx, herald.size - 1)
    d_before = np.abs(tags - herald[before])
    d_after = np.abs(tags - herald[after])
    nearest = np.where(d_before <= d_after, before, after)
    flags = np.zeros(herald.size, dtype=bool)
    flags[nearest[np.minimum(d_before, d_after) <= half_window]] = True
    return flags


def separation_oracle(herald, hbt1, hbt2, window_ps) -> np.ndarray:
    """Counts of flagged (hbt1, hbt2) herald pairs by separation m = i2 - i1."""
    i1 = np.flatnonzero(herald_flags(herald, hbt1, window_ps / 2.0))
    i2 = np.flatnonzero(herald_flags(herald, hbt2, window_ps / 2.0))
    m = pair_differences(i1, i2, G2_MAX_SEPARATION)
    return np.bincount(m + G2_MAX_SEPARATION, minlength=2 * G2_MAX_SEPARATION + 1)


# ---------------------------------------------------------------- checks

def _ok_analysis(run_dir):
    analysis = _read_json(run_dir / "analysis.json")
    if analysis.get("status") != "ok":
        raise CheckFailed(f"analysis status {analysis.get('status')!r}")
    return analysis


def _expect_counts(path, x_expected, counts):
    x, y = read_curve(path)
    if not (np.array_equal(x, x_expected) and np.array_equal(y, counts)):
        bad = np.flatnonzero(y != counts) if y.shape == counts.shape else []
        raise CheckFailed(f"{path.name} differs from the oracle "
                          f"({len(bad)} bins differ, sizes {y.size}/{counts.size})")


def _expect_equal(name, reported, expected):
    if not np.isclose(reported, expected, rtol=1e-12, atol=0.0):
        raise CheckFailed(f"{name}: reported {reported!r}, oracle gives {expected!r}")


def _expect_within(name, value, target, sigma):
    if not abs(value - target) <= CHECK_SIGMAS * sigma:
        raise CheckFailed(f"{name}: {value:.6g} is not within {CHECK_SIGMAS:g} sigma "
                          f"({sigma:.3g}) of {target:.6g}")


def _expect_poisson(name, observed, expected):
    """Two-sided exact Poisson test at the tail probability of CHECK_SIGMAS.

    For the few counts at g2(0) the reported sigma, sqrt(max(n, 1)), is far
    too small when n is 0 or 1, so the test uses the expected count instead.
    """
    tail = 0.5 * math.erfc(CHECK_SIGMAS / math.sqrt(2.0))
    pmf = [math.exp(k * math.log(expected) - expected - math.lgamma(k + 1))
           for k in range(observed + 1)]
    at_most, at_least = sum(pmf), 1.0 - sum(pmf[:-1])
    if min(at_most, at_least) < tail:
        raise CheckFailed(f"{name}: {observed} observed, {expected:.3g} expected "
                          f"(Poisson tails {at_most:.2g} / {at_least:.2g})")


def _correlation(run_dir, a, b, bin_ps, delay_range_ps):
    """Check correlation.csv against the oracle and return the oracle bins."""
    bins = correlation_oracle(a, b, bin_ps, delay_range_ps)
    n_half = bins.size // 2
    _expect_counts(run_dir / "correlation.csv",
                   (np.arange(bins.size) - n_half) * bin_ps, bins)
    return bins


def check_g2_chain(run_dir: Path, scenario: Path, args) -> None:
    """Histograms equal the oracles; SBR and g2(0) agree with the closed-form model."""
    analysis = _ok_analysis(run_dir)
    bin_ps = args.bin_ps or args.window_ps
    herald, hbt1, hbt2 = (read_tags(run_dir / f"{n}.ptag") for n in ("herald", "hbt1", "hbt2"))
    bins = _correlation(run_dir, herald, hbt1, bin_ps, args.delay_range_ps)
    sep = separation_oracle(herald, hbt1, hbt2, args.window_ps)
    m = np.arange(-G2_MAX_SEPARATION, G2_MAX_SEPARATION + 1)
    _expect_counts(run_dir / "g2_histogram.csv", m, sep)

    delays = (np.arange(bins.size) - bins.size // 2) * bin_ps
    background = bins[np.abs(delays) > args.background_exclusion_ps].mean()
    central = bins[np.abs(delays) <= bin_ps / 2].sum()
    signal_bins = np.count_nonzero(np.abs(delays) <= bin_ps / 2)
    _expect_equal("sbr", analysis["sbr"], (central - background * signal_bins) / background)
    plateau = sep[np.abs(m) >= G2_PLATEAU_FROM].mean()
    pairs_at_zero = int(sep[G2_MAX_SEPARATION])
    _expect_equal("g2_zero", analysis["g2_zero"], pairs_at_zero / plateau)

    sc = load_scenario(scenario)
    run = _read_json(run_dir / "summary.json")
    duration_s = run["duration_ps"] * 1e-12
    qfc = sc.qfc_efficiency if sc.qfc_efficiency is not None else 1.0
    signal = (models.true_coincidence_rate(sc.source.pair_rate_per_s, sc.source.eta1,
                                           sc.source.eta2) * qfc / 2 * duration_s)
    accidentals = models.accidental_rate_per_bin(
        run["rates_per_s"]["herald"], run["rates_per_s"]["hbt1"], bin_ps * 1e-12) * duration_s
    _expect_within("SBR vs closed form", analysis["sbr"], signal / accidentals,
                   analysis["sbr_sigma"])
    _expect_poisson("g2(0) vs g2_from_sbr, pairs at m = 0", pairs_at_zero,
                    models.g2_from_sbr(max(analysis["sbr"], 0.0)) * plateau)


def check_dense_sbr(run_dir: Path, scenario: Path, args) -> None:
    """correlation.csv equals the int64 oracle bin for bin."""
    _ok_analysis(run_dir)
    _correlation(run_dir, read_tags(run_dir / "herald.ptag"), read_tags(run_dir / "hbt1.ptag"),
                 args.bin_ps or args.window_ps, args.delay_range_ps)


def check_franson(run_dir: Path, scenario: Path, args) -> None:
    """Gated counts equal the oracle; the visibility matches the configured one."""
    analysis = _ok_analysis(run_dir)
    run = _read_json(run_dir / "summary.json")
    half_gate = (args.gate_ps or run["gate_ps"]) // 2
    phases = np.array([e["phase_rad"] for e in run["scan"]])
    counts = np.array([pair_differences(read_tags(run_dir / e["a"]),
                                        read_tags(run_dir / e["b"]), half_gate).size
                       for e in run["scan"]])
    _expect_counts(run_dir / "franson_scan.csv", phases, counts)
    if analysis["gated_coincidences"] != counts.sum():
        raise CheckFailed(f"gated_coincidences {analysis['gated_coincidences']} "
                          f"!= oracle {counts.sum()}")
    _expect_within("visibility vs configured", analysis["visibility"],
                   run["configured_visibility"], analysis["sigma"])
    if not analysis["bell_violation_sigmas"] > 0:
        raise CheckFailed(f"no Bell violation: {analysis['bell_violation_sigmas']}")


WORKLOADS = {
    "g2_chain": Workload(
        name="g2_chain", seed=11, base="g2_chain.ini",
        inputs=("herald.ptag", "hbt1.ptag", "hbt2.ptag"),
        argv=g2_chain_argv, check=check_g2_chain,
        overrides={"run": {"duration_ps": "1000000000000"}}),
    "dense_sbr": Workload(
        name="dense_sbr", seed=11, base="g2_chain.ini",
        inputs=("herald.ptag", "hbt1.ptag"),
        argv=dense_sbr_argv, check=check_dense_sbr,
        overrides={"run": {"name": "dense-sbr", "duration_ps": "100000000000"},
                   "detector_herald": {"jitter_sigma_ps": "254.8", "dead_time_ps": "50000"},
                   "detector_signal": {"jitter_sigma_ps": "15", "dead_time_ps": "50000"}},
        drop=("qfc",)),
    "franson": Workload(
        name="franson", seed=23, base="franson.ini",
        inputs=("franson_*.ptag",),
        argv=franson_argv, check=check_franson),
}
