#!/usr/bin/env python3
"""fcphotons benchmark: simulate -> analyze CLI chains, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload g2_chain --seed 11 --seconds 10 --trace 0
    python3 perfbench/run.py --compare RESULTS_DIR_A RESULTS_DIR_B

One run is a closed loop with one client: an untimed warm-up chain, then
timed chains, each started after the previous one ends, until ``--seconds``
have passed.  Every chain calls ``fcphotons.cli.main`` in-process, first
``simulate`` and then ``analyze``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced chains and reports the
per-layer metrics.  Outputs are checked after timing; a chain that raises,
exits non-zero or fails its check counts as failed.  Each run writes its
result (and, when traced, its spans) under ``.perfbench/results``.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"analyze_s": "s", "chain_s": "s", "analyze_tags_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
# simulate_s is recorded in the result file but is not a bounded metric: on a
# shared 2-vCPU machine its ten-run spread reached the largest allowed bound.
RECORDED_UNITS = {"simulate_s": "s", **END_TO_END_UNITS}
# Fresh interpreter until the CLI is imported, the scenario loaded and the
# parser built; prints the monotonic clock, which is system-wide on Linux.
SETUP_CODE = """import sys, time
sys.path.insert(0, sys.argv[1])
from fcphotons import cli
cli.load_scenario(sys.argv[2])
cli.build_parser()
print(time.monotonic())
"""


def prepare() -> int:
    """Cap BLAS/OpenMP threads at nproc and put the checkout's src first.

    Must run before numpy is imported.  Returns the thread cap.
    """
    if not (SRC / "fcphotons" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fcphotons sources under {SRC.relative_to(ROOT)}/")
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return cap


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".bytes", ".bytes_computed")):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def high_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


@dataclass
class Chain:
    run_dir: Path
    scenario: Path
    times: list = field(default_factory=list)
    codes: list = field(default_factory=list)
    failure: str | None = None
    tags: int = 0

    @property
    def simulate_s(self):
        return self.times[1] - self.times[0]

    @property
    def analyze_s(self):
        return self.times[2] - self.times[1]

    @property
    def chain_s(self):
        return self.times[-1] - self.times[0]


def run_chain(cli, w, scenario, run_dir, seed, tracer=None, iteration=0) -> Chain:
    sim_argv, analyze_argv = w.argv(scenario, run_dir, seed)
    chain = Chain(run_dir, scenario)
    gc.collect()
    with tracer.installed(iteration) if tracer else contextlib.nullcontext():
        chain.times.append(time.perf_counter())
        try:
            for argv in (sim_argv, analyze_argv):
                try:
                    chain.codes.append(cli.main(argv))
                except SystemExit as exc:  # argparse rejected the argv
                    chain.codes.append(exc.code)
                chain.times.append(time.perf_counter())
                if chain.codes[-1] != 0:
                    break
        except Exception as exc:  # a chain that raises is counted, not fatal
            chain.times.append(time.perf_counter())
            chain.failure = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
    if chain.failure is None and chain.codes != [0, 0]:
        chain.failure = f"exit codes {chain.codes}"
    return chain


def check_chain(w, chain, args) -> None:
    if chain.failure is not None:
        return
    try:
        w.check(chain.run_dir, chain.scenario, args)
        chain.tags = w.analyzed_tags(chain.run_dir)
    except Exception as exc:  # any defect in the outputs fails the chain
        chain.failure = f"check: {type(exc).__name__}: {exc}"


def dir_digest(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


def setup_sample(scenario: Path) -> float:
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(scenario)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1]) - t0


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(cap, w, seed, scenario) -> dict:
    import numpy
    import scipy
    try:
        scenario_name = str(scenario.relative_to(ROOT))
    except ValueError:
        scenario_name = scenario.name
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": cap,
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
        "cpu": cpu_model(),
        "machine": platform.machine(),
        "workload_seed": seed,
        "default_seed": w.seed,
        "scenario": scenario_name,
        "scenario_sha256": hashlib.sha256(scenario.read_bytes()).hexdigest(),
    }


def summarize(samples: dict, units) -> dict:
    metrics = {}
    for name, values in samples.items():
        entry = {"value": statistics.median(values), "unit": units(name), "n": len(values)}
        high = high_percentile(values)
        if high is not None:
            entry["p_high"] = {"percentile": high[0], "value": high[1]}
        metrics[name] = entry
    return metrics


def measure(w, seed, seconds, trace, cap) -> dict:
    from fcphotons import cli
    from tracer import Tracer, chain_metrics

    name = w.name
    seed = w.seed if seed is None else seed
    work = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        scenario = w.scenario_file(work / f"{name}.ini")
        setup = [] if trace else [setup_sample(scenario) for _ in range(SETUP_SAMPLES)]
        args = cli.build_parser().parse_args(w.argv(scenario, work / "x", seed)[1])
        tracer = Tracer(name)
        chains = [run_chain(cli, w, scenario, work / "warmup", seed)]
        timed = []  # untraced chains, or (untraced, traced) pairs when tracing
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            i = len(timed)
            plain = run_chain(cli, w, scenario, work / f"chain-{i}", seed)
            chains.append(plain)
            if trace:
                traced = run_chain(cli, w, scenario, work / f"traced-{i}", seed, tracer, i)
                chains.append(traced)
                timed.append((plain, traced))
            else:
                timed.append(plain)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        for chain in chains:
            check_chain(w, chain, args)
        if trace:
            for plain, traced in timed:
                if traced.failure is None and dir_digest(plain.run_dir) != dir_digest(
                        traced.run_dir):
                    traced.failure = "traced outputs differ from untraced outputs"
            per_chain = [chain_metrics([s for s in tracer.spans if s.iteration == i],
                                       traced.chain_s)
                         for i, (_, traced) in enumerate(timed)]
            samples = {k: [m[k] for m in per_chain] for k in per_chain[0]}
            samples["trace.overhead_s"] = [
                statistics.median(t.chain_s for _, t in timed)
                - statistics.median(p.chain_s for p, _ in timed)]
            metrics = summarize(samples, layer_unit)
        else:
            samples = {
                "simulate_s": [c.simulate_s for c in timed if len(c.times) > 1],
                "analyze_s": [c.analyze_s for c in timed if len(c.times) > 2],
                "chain_s": [c.chain_s for c in timed],
                "analyze_tags_per_s": [c.tags / c.analyze_s for c in timed
                                       if len(c.times) > 2],
                "peak_rss_mb": [peak_rss_mb],
                "setup_s": setup,
            }
            metrics = summarize({k: v for k, v in samples.items() if v}, RECORDED_UNITS.get)
        failures = [f"{c.run_dir.name}: {c.failure}" for c in chains if c.failure]
        return {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "seconds": seconds,
            "timed_chains": len(timed),
            "attempted": len(chains),
            "failed": len(failures),
            "failures": failures,
            "provenance": provenance(cap, w, seed, scenario),
            "samples": samples,
            "metrics": metrics,
            "spans": [vars(s) for s in tracer.spans],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def save(result) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{result['workload']}-s{result['seed']}-t{result['trace']}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    spans = result.pop("spans")
    if spans:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    path = results / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


def report(result, path) -> None:
    p = result["provenance"]
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']} "
          f"timed={result['timed_chains']} attempted={result['attempted']} "
          f"failed={result['failed']} thread_cap={p['thread_cap']} "
          f"commit={p['git_commit'][:12]}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, m in result["metrics"].items():
        high = (f"p{m['p_high']['percentile']:.0f}={m['p_high']['value']:.6g}"
                if "p_high" in m else "no percentile with 10 samples above")
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']:6s} n={m['n']} {high}")
    print(f"  error_rate {result['failed']}/{result['attempted']}; result {path.name}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()
                    if result["trace"] or k in END_TO_END_UNITS},
    }))


def load_results(directory) -> dict:
    by_workload = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result.get("trace") == 0:
            by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def verdict(a, b, bound, lower_is_better) -> tuple[float, str]:
    """Relative worsening of b against a, and whether it exceeds the bound."""
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if lower_is_better else (ma - mb) / ma
    spread = max((q3 - q1) / statistics.median(v)
                 for v in (a, b) for q1, q3 in [quartiles(v)])
    all_better = max(b) < min(a) if lower_is_better else min(b) > max(a)
    if spread > bound and not all_better:
        return worse, "unresolved: spread wider than bound"
    if worse > bound:
        return worse, "worse, beyond bound"
    if -worse > bound:
        return worse, "better, beyond bound"
    return worse, "within bound"


def compare(dir_a, dir_b) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a, b = load_results(dir_a), load_results(dir_b)
    print(f"A = {dir_a}   B = {dir_b}   (median [q1, q3] over runs; change = B worse than A)")
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            print(f"{workload}: only in {'A' if workload in a else 'B'}")
            continue
        print(f"{workload}: runs A={len(a[workload])} B={len(b[workload])}")
        for side, runs in (("A", a[workload]), ("B", b[workload])):
            shas = sorted({r["provenance"]["scenario_sha256"][:12] for r in runs})
            print(f"  {side}: error_rate {sum(r['failed'] for r in runs)}/"
                  f"{sum(r['attempted'] for r in runs)}, scenario sha256 {', '.join(shas)}")
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[workload]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[workload]]
            worse, text = verdict(va, vb, m["bound"], m["better"] == "lower")
            cols = []
            for v in (va, vb):
                q1, q3 = quartiles(v)
                cols.append(f"{statistics.median(v):11.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"  {m['name']:20s} A {cols[0]:34s} B {cols[1]:34s} "
                  f"change {100 * worse:+6.1f}% bound {100 * m['bound']:.0f}%: {text}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed, passed to simulate as --seed "
                             "(default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        cap = prepare()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, cap)
    report(result, save(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
