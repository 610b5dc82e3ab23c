"""Command-line front end: simulate, analyze, fit, reproduce."""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import io, models, simkit, spectral, tagcorr, twophoton
from .scenario import BUNDLED_DIR, Scenario, ScenarioError, franson_phases, load_scenario

# the bundled scenario holds the paper's spectral and apparatus constants for fig2-4
PAPER_SCENARIO = os.path.join(BUNDLED_DIR, "franson.ini")


class CliError(Exception):
    pass


def _simulate_g2_chain(scenario: Scenario, out_dir, seed):
    rng = np.random.default_rng(seed)
    source = scenario.source
    if scenario.qfc_efficiency is not None:
        # the converter thins the signal arm; its background and the darks come after it
        source = dataclasses.replace(
            source, eta2=source.eta2 * scenario.qfc_efficiency,
            dark2_per_s=source.dark2_per_s + scenario.qfc_background_per_s)
    herald, signal = simkit.generate_pair_streams(source, scenario.duration_ps, rng)
    hbt1, hbt2 = simkit.hbt_split(signal, rng, channels=(1, 2))
    herald = simkit.apply_detector(herald, scenario.detector_herald, rng)
    hbt1 = simkit.apply_detector(hbt1, scenario.detector_signal, rng)
    hbt2 = simkit.apply_detector(hbt2, scenario.detector_signal, rng)
    files = {}
    for label, stream in (("herald", herald), ("hbt1", hbt1), ("hbt2", hbt2)):
        fn = f"{label}.ptag"
        io.write_ptag(os.path.join(out_dir, fn), stream)
        files[label] = fn
    summary = {
        "kind": "g2_chain",
        "name": scenario.name,
        "seed": seed,
        "duration_ps": scenario.duration_ps,
        "files": files,
        "counts": {"herald": int(herald.tags.size), "hbt1": int(hbt1.tags.size),
                   "hbt2": int(hbt2.tags.size)},
        "rates_per_s": {"herald": herald.rate_per_s, "hbt1": hbt1.rate_per_s,
                        "hbt2": hbt2.rate_per_s},
    }
    io.write_summary(os.path.join(out_dir, "summary.json"), summary)
    return summary


def _simulate_franson(scenario: Scenario, out_dir, seed):
    fr = scenario.franson
    cfg = simkit.FransonMcConfig(
        pc=twophoton.converted_pair_coherence(scenario.source_spectrum(),
                                              scenario.phase_matching),
        delay_imbalance_ps=fr.delay_imbalance_ps,
        delay_ps=fr.delay_ps,
        v_app=fr.v_mi * fr.v_mzi,
        detector_a=scenario.detector_herald,
        detector_b=scenario.detector_signal,
    )
    rng = np.random.default_rng(seed)
    phases = franson_phases(fr.phase_points)
    files = []
    for k, phi in enumerate(phases):
        n_pairs = rng.poisson(fr.pairs_per_point)
        if scenario.duration_ps > 0 and n_pairs > 0:
            pair_times = np.sort(rng.integers(0, scenario.duration_ps, n_pairs,
                                              dtype=np.int64))
        else:
            pair_times = np.empty(0, dtype=np.int64)
        a, b = simkit.franson_sample(pair_times, dataclasses.replace(cfg, phase_rad=float(phi)),
                                     rng)
        fa, fb = f"franson_a_{k:03d}.ptag", f"franson_b_{k:03d}.ptag"
        io.write_ptag(os.path.join(out_dir, fa), a)
        io.write_ptag(os.path.join(out_dir, fb), b)
        files.append({"phase_rad": float(phi), "a": fa, "b": fb})
    summary = {
        "kind": "franson",
        "name": scenario.name,
        "seed": seed,
        "delay_ps": fr.delay_ps,
        "delay_imbalance_ps": fr.delay_imbalance_ps,
        "gate_ps": scenario.gate_ps,
        "configured_visibility": cfg.visibility,
        "scan": files,
    }
    io.write_summary(os.path.join(out_dir, "summary.json"), summary)
    return summary


def cmd_simulate(args):
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        raise CliError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    seed = args.seed if args.seed is not None else scenario.seed
    if scenario.kind == "g2_chain":
        _simulate_g2_chain(scenario, args.out, seed)
    else:
        _simulate_franson(scenario, args.out, seed)
    return 0


def _read_single(path) -> simkit.TagStream:
    """The one channel of a PTAG file; an empty stream when the file holds no tags."""
    streams = io.read_ptag(path)
    if len(streams) > 1:
        raise CliError(f"{path}: expected a single channel")
    return streams[0] if streams else simkit.TagStream(0, np.empty(0, dtype=np.int64), 0)


def _analyze_g2(args, out_dir) -> dict:
    herald, hbt1, hbt2 = (_read_single(path) for path in args.tags)
    window = args.window_ps
    bin_ps = args.bin_ps if args.bin_ps else window
    res = tagcorr.heralded_g2(herald, hbt1, hbt2, window)
    hist = tagcorr.cross_correlate(herald, hbt1, bin_ps, args.delay_range_ps)
    sbr = tagcorr.extract_sbr(hist, bin_ps, args.background_exclusion_ps)
    io.save_curve(os.path.join(out_dir, "g2_histogram.csv"),
                  res.m_values, res.histogram, ("herald_separation_m", "pairs"))
    io.save_curve(os.path.join(out_dir, "correlation.csv"),
                  hist.delays_ps, hist.bins, ("delay_ps", "counts"))
    return {
        "status": "ok",
        "g2_zero": res.g2_zero,
        "sigma": res.sigma,
        "g2_zero_interval": list(res.g2_zero_interval),
        "sbr": sbr.sbr,
        "sbr_sigma": sbr.sigma,
        "g2_from_sbr": models.g2_from_sbr(max(sbr.sbr, 0.0)),
    }


def _analyze_sbr(args, out_dir) -> dict:
    a, b = (_read_single(path) for path in args.tags)
    bin_ps = args.bin_ps if args.bin_ps else args.window_ps
    hist = tagcorr.cross_correlate(a, b, bin_ps, args.delay_range_ps)
    sbr = tagcorr.extract_sbr(hist, bin_ps, args.background_exclusion_ps)
    io.save_curve(os.path.join(out_dir, "correlation.csv"),
                  hist.delays_ps, hist.bins, ("delay_ps", "counts"))
    return {"status": "ok", "sbr": sbr.sbr, "sigma": sbr.sigma,
            "signal": sbr.signal, "background_per_bin": sbr.background_per_bin}


def _analyze_franson(args, out_dir) -> dict:
    run_dir = args.tags[0]
    summary_path = os.path.join(run_dir, "summary.json")
    if not os.path.exists(summary_path):
        raise CliError(f"{run_dir}: no summary.json from a franson simulate run")
    run = io.read_summary(summary_path)
    if not isinstance(run, dict) or run.get("kind") != "franson":
        raise CliError(f"{run_dir}: not a franson run")
    gate = args.gate_ps or run.get("gate_ps")
    if isinstance(gate, bool) or not isinstance(gate, int) or gate <= 0:
        raise CliError(f"{summary_path}: gate_ps {gate!r} is not a positive integer of ps; "
                       "give --gate-ps")
    scan = run.get("scan")
    if not isinstance(scan, list) or not all(
            isinstance(e, dict) and {"phase_rad", "a", "b"} <= e.keys()
            and isinstance(e["a"], str) and isinstance(e["b"], str) for e in scan):
        raise CliError(f"{summary_path}: 'scan' must list phase_rad and file names a and b")
    scans = []
    for entry in scan:
        a = _read_single(os.path.join(run_dir, entry["a"]))
        b = _read_single(os.path.join(run_dir, entry["b"]))
        scans.append((entry["phase_rad"],
                      tagcorr.gated_coincidences(a, b, gate, center_ps=0.0)))
    vis, sigma = tagcorr.franson_visibility_scan(scans)
    bell = twophoton.bell_check(vis, max(sigma, 1e-12))
    io.save_curve(os.path.join(out_dir, "franson_scan.csv"),
                  [p for p, _ in scans], [c for _, c in scans],
                  ("phase_rad", "gated_counts"))
    return {
        "status": "ok",
        "gate_ps": gate,
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
    bin_ps = args.bin_ps if args.bin_ps else args.window_ps
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
    try:
        res = models.fit_sbr(io.load_table(args.points), args.dt_s)
    except models.ModelError as exc:
        raise CliError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    io.write_summary(os.path.join(args.out, "fit.json"), {
        "a": res.a,
        "b": res.b,
        "b_at_boundary": res.b_at_boundary,
        "covariance": res.covariance.tolist(),
        "dt_s": args.dt_s,
    })
    return 0


def _reproduce_fig2(out_dir, which):
    sc = load_scenario(PAPER_SCENARIO)
    s = sc.source_spectrum()
    env = spectral.coherence_envelope(s, tau_max=12.0, n_points=1201)
    params = (f"synthetic Gaussian source line, {sc.spectrum_fwhm_ghz:g} GHz FWHM; "
              f"apparatus ceiling {sc.franson.v_mi:g}")
    io.save_curve(os.path.join(out_dir, f"{which}_spectrum.csv"),
                  s.nu_grid, s.intensity, ("nu_GHz", "intensity"), comment=params)
    io.save_curve(os.path.join(out_dir, f"{which}_visibility.csv"),
                  env.tau_grid, sc.franson.v_mi * env.magnitude, ("tau_ps", "visibility"),
                  comment=params)


def _reproduce_fig3(out_dir, which):
    sc = load_scenario(PAPER_SCENARIO)
    filtered = spectral.apply_phase_matching(sc.source_spectrum(), sc.phase_matching)
    env = spectral.coherence_envelope(filtered, tau_max=25.0, n_points=2001)
    tau_c = spectral.coherence_time(env)
    bw = spectral.integral_bandwidth(filtered)
    params = (f"source Gaussian {sc.spectrum_fwhm_ghz:g} GHz FWHM x sinc^2 filter "
              f"{sc.phase_matching.fwhm_ghz:g} GHz FWHM; coherence_time_ps={tau_c:.4f}; "
              f"bandwidth_ghz={bw:.3f}; apparatus ceiling {sc.franson.v_mi:g}")
    io.save_curve(os.path.join(out_dir, f"{which}_spectrum.csv"),
                  filtered.nu_grid, filtered.intensity, ("nu_GHz", "intensity"),
                  comment=params)
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
    cols = {}
    for name, preset in models.RATE_MODEL_PRESETS.items():
        sbr = np.array([models.sbr_model(r, preset) for r in rates])
        cols[name] = sbr if which == "fig5c" else np.array(
            [models.g2_from_sbr(v) for v in sbr])
    label = "sbr" if which == "fig5c" else "g2_zero"
    path = os.path.join(out_dir, f"{which}_{label}_vs_herald_rate.csv")
    names = list(models.RATE_MODEL_PRESETS)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# SBR model 1/(dt*(a*R+b)), dt=1.5e-9 s; presets: "
                 + "; ".join(f"{n}: a={models.RATE_MODEL_PRESETS[n].a}, "
                             f"b={models.RATE_MODEL_PRESETS[n].b:g}" for n in names)
                 + "\n")
        fh.write("herald_rate_per_s," + ",".join(f"{label}_{n}" for n in names) + "\n")
        for i, r in enumerate(rates):
            row = [r, *(cols[n][i] for n in names)]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# figure id -> writer of its model curves, called as writer(out_dir, figure id)
FIGURES = {"fig2": _reproduce_fig2, "fig3": _reproduce_fig3, "fig4": _reproduce_fig4,
           "fig5b": _reproduce_fig5, "fig5c": _reproduce_fig5}


def cmd_reproduce(args):
    os.makedirs(args.out, exist_ok=True)
    FIGURES[args.figure](args.out, args.figure)
    return 0


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer of ps, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fcphotons",
        description="Simulate and analyze frequency-converted heralded single photons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write PTAG tag files")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="analyze tag files (g2, sbr or franson)")
    p.add_argument("tags", nargs="+",
                   help="tag files (g2: herald hbt1 hbt2; sbr: two files; "
                        "franson: simulate output dir)")
    p.add_argument("--mode", choices=("g2", "sbr", "franson"), default="g2")
    p.add_argument("--out", required=True)
    # 0 for --bin-ps / --gate-ps means the window width / the run's gate
    p.add_argument("--bin-ps", type=_positive_int, default=0, dest="bin_ps")
    p.add_argument("--gate-ps", type=_positive_int, default=0, dest="gate_ps")
    p.add_argument("--window-ps", type=_positive_int, default=1500, dest="window_ps")
    p.add_argument("--delay-range-ps", type=_positive_int, default=150000,
                   dest="delay_range_ps")
    p.add_argument("--background-exclusion-ps", type=_positive_int, default=15000,
                   dest="background_exclusion_ps")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="fit SBR points with the linear rate model")
    p.add_argument("points", help="CSV of herald_rate_per_s,sbr[,sigma]")
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
