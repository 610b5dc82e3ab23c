"""The benchmark's own tests: argv shape, output checks, tracing, compare verdicts.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil

import numpy as np
import pytest

import run

run.prepare()

from fcphotons import cli  # noqa: E402
from tracer import Tracer, chain_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed, correlation_oracle, pair_differences  # noqa: E402

# Small versions of the workloads, so each chain takes well under a second.
SMALL = {"g2_chain": {"duration_ps": 50_000_000_000},
         "dense_sbr": {"duration_ps": 20_000_000_000},
         "franson": {}}
# The count columns each workload's check compares with its oracle.
CHECKED_CSVS = {"g2_chain": ("correlation.csv", "g2_histogram.csv"),
                "dense_sbr": ("correlation.csv",),
                "franson": ("franson_scan.csv",)}


def small_chain(name, tmp_path, tracer=None, label="run"):
    w = WORKLOADS[name]
    scenario = w.scenario_file(tmp_path / f"{label}.ini", **SMALL[name])
    chain = run.run_chain(cli, w, scenario, tmp_path / label, w.seed, tracer)
    assert chain.failure is None, chain.failure
    args = cli.build_parser().parse_args(w.argv(scenario, chain.run_dir, w.seed)[1])
    return w, scenario, chain, args


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_argv_parses_under_the_cli(name, tmp_path):
    w = WORKLOADS[name]
    parser = cli.build_parser()
    for argv in w.argv(w.scenario_file(tmp_path / "s.ini"), tmp_path / "run", w.seed):
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"fcphotons.cli no longer accepts the {name} argv {argv}; "
                        f"update {w.argv.__name__} in perfbench/workloads.py")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_rejects_one_count_perturbation(name, tmp_path):
    w, scenario, chain, args = small_chain(name, tmp_path)
    w.check(chain.run_dir, scenario, args)
    for csv in CHECKED_CSVS[name]:
        bad = tmp_path / f"bad-{csv}"
        shutil.copytree(chain.run_dir, bad)
        lines = (bad / csv).read_text(encoding="utf-8").splitlines()
        row = len(lines) // 2
        x, y = lines[row].split(",")
        lines[row] = f"{x},{float(y) + 1.0!r}"
        (bad / csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckFailed):
            w.check(bad, scenario, args)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_outputs_unchanged(name, tmp_path):
    _, _, plain, _ = small_chain(name, tmp_path, label="plain")
    tracer = Tracer(name)
    _, _, traced, _ = small_chain(name, tmp_path, tracer, label="traced")
    assert run.dir_digest(plain.run_dir) == run.dir_digest(traced.run_dir)

    m = chain_metrics(tracer.spans, traced.chain_s)
    assert m["trace.layers_self_s"] + m["cli.self_s"] == pytest.approx(traced.chain_s,
                                                                       abs=1e-9)
    assert m["io.write_ptag.calls"] > 0 and m["io.read_ptag.calls"] > 0
    assert m["scenario.load_scenario.s"] > 0  # reached through cli's own import of it
    if name == "franson":
        assert m["spectral.fringe_fit.s"] > 0  # called through tagcorr's import of it
        names = [s.name for s in tracer.spans]
        nested = [s for s in tracer.spans if s.name == "simkit.apply_detector"]
        assert nested and all(names[s.parent] == "simkit.franson_sample" for s in nested)
    # the wrappers are gone after the traced chain
    assert not hasattr(cli.load_scenario, "__wrapped__")
    assert not hasattr(cli.io.read_ptag, "__wrapped__")


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {*chain_metrics([], 1.0), "trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.layer_unit(n) for n in per_layer}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_correlation_oracle_matches_all_pairs_loop():
    rng = np.random.default_rng(5)
    a = np.sort(rng.integers(0, 200_000, 300))
    b = np.sort(rng.integers(0, 200_000, 300))
    bin_ps, delay_range = 150, 10_000
    n_half = delay_range // bin_ps
    expected = np.zeros(2 * n_half + 1, dtype=np.int64)
    for ta in a:
        for tb in b:
            k = (2 * (tb - ta) + bin_ps) // (2 * bin_ps)  # floor(d / w + 1/2)
            if abs(k) <= n_half:
                expected[k + n_half] += 1
    assert np.array_equal(correlation_oracle(a, b, bin_ps, delay_range), expected)
    d = pair_differences(a, b, 256)
    assert d.size == sum(abs(int(tb) - int(ta)) <= 256 for ta in a for tb in b)


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
    assert run.verdict(parent, [v * 1.05 for v in parent], 0.1, True)[1] == "within bound"
    assert run.verdict(parent, [v * 1.30 for v in parent], 0.1, True)[1] == (
        "worse, beyond bound")
    assert run.verdict(parent, [v * 0.50 for v in parent], 0.1, True)[1] == (
        "better, beyond bound")
    assert run.verdict(parent, [v * 1.30 for v in parent], 0.1, False)[1] == (
        "better, beyond bound")
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.9]
    assert run.verdict(noisy, [v * 1.3 for v in noisy], 0.1, True)[1].startswith(
        "unresolved")
