"""Command-line front end: simulate, analyze, fit, reproduce."""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import io, models, simkit, spectral, tagcorr, twophoton
from .scenario import BUNDLED_DIR, Scenario, load_scenario

# the bundled scenario holds the paper's spectral and apparatus constants for fig2-4
PAPER_SCENARIO = os.path.join(BUNDLED_DIR, "franson.ini")


class CliError(ValueError):
    pass


def _simulate_g2_chain(scenario: Scenario, out_dir, seed):
    """simkit.g2_chain_blocks of the scenario, the converter folded into its source.

    The herald tags go to their file as they come, the HBT streams whole at the end.
    """
    source = scenario.source
    if scenario.qfc_efficiency is not None:
        # the converter thins the signal arm; its background and the darks come after it
        source = dataclasses.replace(
            source, eta2=source.eta2 * scenario.qfc_efficiency,
            dark2_per_s=source.dark2_per_s + scenario.qfc_background_per_s)
    duration = scenario.duration_ps
    os.makedirs(out_dir, exist_ok=True)
    files = {label: f"{label}.ptag" for label in ("herald", "hbt1", "hbt2")}
    hbt_parts = ([], [])
    with io.PtagWriter(os.path.join(out_dir, files["herald"]), 0, duration) as herald_out:
        for herald, *hbt in simkit.g2_chain_blocks(source, scenario.detector_herald,
                                                   scenario.detector_signal, duration, seed):
            herald_out.append(herald)
            for parts, block in zip(hbt_parts, hbt):
                parts.append(block)
    counts = {"herald": herald_out.count}
    for channel, (label, parts) in enumerate(zip(("hbt1", "hbt2"), hbt_parts), start=1):
        tags = np.concatenate(parts)
        parts.clear()
        io.write_ptag(os.path.join(out_dir, files[label]), channel,
                      simkit.TagStream(tags, duration))
        counts[label] = tags.size
        del tags  # one whole HBT stream in memory at a time
    return {
        "duration_ps": duration,
        "files": files,
        "counts": counts,
        "rates_per_s": {label: n / (duration * 1e-12) if duration else 0.0
                        for label, n in counts.items()},
    }


def _simulate_franson(scenario: Scenario, out_dir, seed):
    fr = scenario.franson
    pc = twophoton.converted_pair_coherence(scenario.source_spectrum(), scenario.phase_matching)
    lo, hi = pc.dtau_grid[0], pc.dtau_grid[-1]
    if not lo <= fr.delay_imbalance_ps <= hi:
        raise CliError(f"franson.delay_imbalance_ps = {fr.delay_imbalance_ps} lies outside "
                       f"[{lo:g}, {hi:g}] ps, where the converted pair coherence is tabulated")
    visibility = fr.v_mi * fr.v_mzi * pc.at(float(fr.delay_imbalance_ps))
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    files = []
    for k, phi in enumerate(np.linspace(0.0, 2.0 * np.pi, fr.phase_points, endpoint=False)):
        n_pairs = rng.poisson(fr.pairs_per_point)
        if scenario.duration_ps > 0 and n_pairs > 0:
            pair_times = np.sort(rng.integers(0, scenario.duration_ps, n_pairs,
                                              dtype=np.int64))
        else:
            pair_times = np.empty(0, dtype=np.int64)
        a, b = simkit.franson_sample(
            pair_times, fr.delay_ps, visibility, rng, delay_imbalance_ps=fr.delay_imbalance_ps,
            phase_rad=float(phi), detector_a=scenario.detector_herald,
            detector_b=scenario.detector_signal)
        fa, fb = f"franson_a_{k:03d}.ptag", f"franson_b_{k:03d}.ptag"
        io.write_ptag(os.path.join(out_dir, fa), 0, a)
        io.write_ptag(os.path.join(out_dir, fb), 1, b)
        files.append({"phase_rad": float(phi), "a": fa, "b": fb})
    return {
        "delay_ps": fr.delay_ps,
        "delay_imbalance_ps": fr.delay_imbalance_ps,
        "configured_visibility": visibility,
        "scan": files,
    }


def cmd_simulate(args):
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    simulate = _simulate_g2_chain if scenario.kind == "g2_chain" else _simulate_franson
    summary = simulate(scenario, args.out, seed)
    summary.update(kind=scenario.kind, name=scenario.name, seed=seed)
    io.write_summary(os.path.join(args.out, "summary.json"), summary)
    return 0


def _bin_ps(args) -> int:
    """The correlation histogram's bin: --bin-ps, or else --window-ps."""
    return args.bin_ps or args.window_ps


def _stream_herald(path, *counters):
    """Feed every block of the PTAG file at path to each counter's add."""
    with io.PtagReader(path) as reader:
        for block in reader.blocks():
            for counter in counters:
                counter.add(block)


def _save_sbr(correlator, args, out_dir) -> tagcorr.SbrResult:
    """SBR of the correlator's histogram; the histogram goes to correlation.csv.

    Callers run their other estimators first, so an AnalysisError leaves no CSV.
    """
    hist = correlator.histogram()
    sbr = tagcorr.extract_sbr(hist, args.background_exclusion_ps)
    io.save_curve(os.path.join(out_dir, "correlation.csv"),
                  hist.delays_ps, hist.bins, ("delay_ps", "counts"))
    return sbr


def _analyze_g2(args, out_dir) -> dict:
    hbt1, hbt2 = map(io.read_ptag, args.tags[1:])
    g2 = tagcorr.HeraldedG2Counter(hbt1, hbt2, args.window_ps)
    correlator = tagcorr.CrossCorrelator(hbt1, _bin_ps(args), args.delay_range_ps)
    _stream_herald(args.tags[0], g2, correlator)
    res = g2.result()
    sbr = _save_sbr(correlator, args, out_dir)
    io.save_curve(os.path.join(out_dir, "g2_histogram.csv"),
                  res.m_values, res.histogram, ("herald_separation_m", "pairs"))
    return {
        "status": "ok",
        "g2_zero": res.g2_zero,
        "g2_zero_interval": list(res.g2_zero_interval),
        # the m = 0 count and the plateau the interval is computed from
        "h0": int(res.histogram[res.m_values == 0][0]),
        "plateau": res.plateau,
        "sbr": sbr.sbr,
        "sbr_sigma": sbr.sigma,
        "g2_from_sbr": models.g2_from_sbr(max(sbr.sbr, 0.0)),
    }


def _analyze_sbr(args, out_dir) -> dict:
    correlator = tagcorr.CrossCorrelator(io.read_ptag(args.tags[1]), _bin_ps(args),
                                         args.delay_range_ps)
    _stream_herald(args.tags[0], correlator)
    sbr = _save_sbr(correlator, args, out_dir)
    return {"status": "ok", "sbr": sbr.sbr, "sigma": sbr.sigma,
            "signal": sbr.signal, "background_per_bin": sbr.background_per_bin}


def _analyze_franson(args, out_dir) -> dict:
    run_dir = args.tags[0]
    summary_path = os.path.join(run_dir, "summary.json")
    if not os.path.exists(summary_path):
        raise CliError(f"{run_dir}: no summary.json from a franson simulate run")
    run = io.read_summary(summary_path)
    if not isinstance(run, dict) or run.get("kind") != "franson":
        raise CliError(f"{summary_path}: not a franson run")
    scan = run.get("scan")
    if not isinstance(scan, list) or not all(
            isinstance(e, dict) and {"phase_rad", "a", "b"} <= e.keys()
            and isinstance(e["a"], str) and isinstance(e["b"], str)
            # a finite JSON number: no bool, null, nan, inf or int beyond float range
            and type(e["phase_rad"]) in (int, float) and abs(e["phase_rad"]) <= sys.float_info.max
            for e in scan):
        raise CliError(f"{summary_path}: 'scan' must list a finite number phase_rad "
                       "and file names a and b")
    scans = []
    for entry in scan:
        a = io.read_ptag(os.path.join(run_dir, entry["a"]))
        b = io.read_ptag(os.path.join(run_dir, entry["b"]))
        scans.append((entry["phase_rad"], tagcorr.gated_coincidences(a, b, args.gate_ps)))
    vis, sigma = tagcorr.franson_visibility_scan(scans)
    bell = twophoton.bell_check(vis, max(sigma, 1e-12))
    io.save_curve(os.path.join(out_dir, "franson_scan.csv"),
                  [p for p, _ in scans], [c for _, c in scans],
                  ("phase_rad", "gated_counts"))
    return {
        "status": "ok",
        "gate_ps": args.gate_ps,
        "visibility": vis,
        "sigma": sigma,
        "gated_coincidences": sum(c for _, c in scans),
        "bell_bound": bell.bound,
        "bell_violation_sigmas": bell.violation_sigmas,
        "classical_violation_sigmas": bell.classical_sigmas,
    }


# mode -> (analyzer, number of positional inputs, what those inputs are)
ANALYZE_MODES = {
    "g2": (_analyze_g2, 3, "g2 mode needs herald, hbt1, hbt2 tag files"),
    "sbr": (_analyze_sbr, 2, "sbr mode needs two tag files"),
    "franson": (_analyze_franson, 1, "franson mode takes the simulate output directory"),
}


def _check_sbr_widths(args):
    """The histogram must reach past the background exclusion, and that past the central bin."""
    bin_ps = _bin_ps(args)
    reach = args.delay_range_ps // bin_ps * bin_ps
    if not reach > args.background_exclusion_ps > bin_ps / 2:
        raise CliError(
            f"--delay-range-ps in whole bins ({reach} ps) must exceed "
            f"--background-exclusion-ps ({args.background_exclusion_ps} ps), which must "
            f"exceed half the bin, --bin-ps or else --window-ps ({bin_ps} ps)")


def cmd_analyze(args):
    analyze, n_inputs, usage = ANALYZE_MODES[args.mode]
    if len(args.tags) != n_inputs:
        raise CliError(usage)
    if args.mode != "franson":
        _check_sbr_widths(args)
    os.makedirs(args.out, exist_ok=True)
    try:
        summary = analyze(args, args.out)
    except tagcorr.AnalysisError as exc:
        summary = {"status": "insufficient data", "detail": str(exc)}
    summary["mode"] = args.mode
    io.write_summary(os.path.join(args.out, "analysis.json"), summary)
    return 0


def cmd_fit(args):
    res = models.fit_sbr(io.load_table(args.points), args.dt_s)
    os.makedirs(args.out, exist_ok=True)
    io.write_summary(os.path.join(args.out, "fit.json"), {
        "a": res.a,
        "b": res.b,
        "b_at_boundary": res.b_at_boundary,
        "covariance": res.covariance.tolist(),
        "dt_s": args.dt_s,
    })
    return 0


def _reproduce_envelope(out_dir, which):
    """fig2: the source line and its |g1|; fig3: both behind the converter's filter."""
    sc = load_scenario(PAPER_SCENARIO)
    s = sc.source_spectrum()
    if which == "fig2":
        env = spectral.coherence_envelope(s, tau_max=12.0, n_points=1201)
        params = f"synthetic Gaussian source line, {sc.spectrum_fwhm_ghz:g} GHz FWHM"
    else:
        s = spectral.apply_phase_matching(s, sc.phase_matching)
        env = spectral.coherence_envelope(s, tau_max=25.0, n_points=2001)
        params = (f"source Gaussian {sc.spectrum_fwhm_ghz:g} GHz FWHM x sinc^2 filter "
                  f"{sc.phase_matching.fwhm_ghz:g} GHz FWHM; "
                  f"coherence_time_ps={spectral.coherence_time(env):.4f}; "
                  f"bandwidth_ghz={spectral.integral_bandwidth(s):.3f}")
    params += f"; apparatus ceiling {sc.franson.v_mi:g}"
    io.save_curve(os.path.join(out_dir, f"{which}_spectrum.csv"),
                  s.nu_grid, s.intensity, ("nu_GHz", "intensity"), comment=params)
    io.save_curve(os.path.join(out_dir, f"{which}_visibility.csv"),
                  env.tau_grid, sc.franson.v_mi * env.magnitude, ("tau_ps", "visibility"),
                  comment=params)


def _reproduce_fig4(out_dir, which):
    sc = load_scenario(PAPER_SCENARIO)
    fr = sc.franson
    pc = twophoton.converted_pair_coherence(sc.source_spectrum(), sc.phase_matching)
    curve = twophoton.expected_visibility_curve(pc, fr.v_mi, fr.v_mzi)
    keep = np.abs(curve.tau) <= 40.0
    params = (f"v(dtau) = {fr.v_mi:g} * {fr.v_mzi:g} * F(dtau); "
              f"peak {curve.visibility.max():.3f}")
    io.save_curve(os.path.join(out_dir, f"{which}_visibility_vs_imbalance.csv"),
                  curve.tau[keep], curve.visibility[keep],
                  ("delay_imbalance_ps", "visibility"), comment=params)


def _reproduce_fig5(out_dir, which):
    # start above zero: presets with no background have SBR -> infinity at R=0
    rates = np.linspace(2.0e3, 4.0e5, 200)
    presets = models.RATE_MODEL_PRESETS
    cols = []
    for preset in presets.values():
        sbr = [models.sbr_model(r, preset) for r in rates]
        cols.append(sbr if which == "fig5c" else [models.g2_from_sbr(v) for v in sbr])
    label = "sbr" if which == "fig5c" else "g2_zero"
    io.save_curve(os.path.join(out_dir, f"{which}_{label}_vs_herald_rate.csv"),
                  rates, np.column_stack(cols),
                  ["herald_rate_per_s", *(f"{label}_{n}" for n in presets)],
                  comment="SBR model 1/(dt*(a*R+b)), dt=1.5e-9 s; presets: " + "; ".join(
                      f"{n}: a={p.a}, b={p.b:g}" for n, p in presets.items()))


# figure id -> writer of its model curves, called as writer(out_dir, figure id)
FIGURES = {"fig2": _reproduce_envelope, "fig3": _reproduce_envelope, "fig4": _reproduce_fig4,
           "fig5b": _reproduce_fig5, "fig5c": _reproduce_fig5}


def cmd_reproduce(args):
    os.makedirs(args.out, exist_ok=True)
    FIGURES[args.figure](args.out, args.figure)
    return 0


def _nonnegative_int(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    """A width in ps: a positive int64, as the timestamps are."""
    if not text.isdigit() or not 0 < int(text) < 2**63:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer of ps below 2^63, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fcphotons",
        description="Simulate and analyze frequency-converted heralded single photons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write PTAG tag files")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="analyze tag files (g2, sbr or franson)")
    p.add_argument("tags", nargs="+",
                   help="tag files (g2: herald hbt1 hbt2; sbr: two files; "
                        "franson: simulate output dir)")
    p.add_argument("--mode", choices=ANALYZE_MODES, default="g2")
    p.add_argument("--out", required=True)
    # 0 for --bin-ps means the window width
    p.add_argument("--bin-ps", type=_positive_int, default=0, dest="bin_ps")
    p.add_argument("--window-ps", type=_positive_int, default=1500, dest="window_ps")
    p.add_argument("--gate-ps", type=_positive_int, default=512, dest="gate_ps")
    p.add_argument("--delay-range-ps", type=_positive_int, default=150000,
                   dest="delay_range_ps")
    p.add_argument("--background-exclusion-ps", type=_positive_int, default=15000,
                   dest="background_exclusion_ps")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="fit SBR points with the linear rate model")
    p.add_argument("points", help="CSV of herald_rate_per_s,sbr[,sigma]; sigmas all "
                                  "positive give a weighted fit, all zero an unweighted one")
    p.add_argument("--dt-s", type=float, required=True, dest="dt_s")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("reproduce", help="emit model curves for a figure id")
    p.add_argument("figure", choices=FIGURES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:  # MemoryError: numpy's allocation message
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
