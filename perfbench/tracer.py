"""Per-layer tracing from outside the program: wrap module functions, keep spans.

The tracer replaces public functions of the fcphotons modules with wrappers
that record a span (name, start, end, parent, workload, iteration) and a few
counts.  Every other fcphotons module attribute that is the same function
object (``tagcorr.fringe_fit``, ``cli.load_scenario``) is patched too, and
calls between module functions go through the module globals, so a call made
inside another wrapped call (``apply_detector`` inside ``franson_sample``)
nests under it.  Spans stay in memory until the run writes them out.
"""

import functools
import inspect
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# module -> traced functions (None: every public function defined there)
TARGETS = {
    "simkit": None,
    "spectral": ("coherence_envelope", "fringe_fit"),
    "twophoton": ("pair_coherence",),
    "tagcorr": None,
    "io": None,
    "scenario": ("load_scenario",),
}


def _counts_cross_correlate(bound, result):
    return {"bins": int(result.bins.size), "pairs": int(result.bins.sum())}


def _counts_coherence_envelope(bound, result):
    points = int(result.tau_grid.size) * int(bound.arguments["s"].nu_grid.size)
    return {"grid_points": points, "bytes_computed": 16 * points}  # complex128


def _counts_apply_detector(bound, result):
    return {"tags_in": int(bound.arguments["s"].tags.size), "tags_out": int(result.tags.size)}


def _counts_file(bound, result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


COUNTERS = {
    "tagcorr.cross_correlate": _counts_cross_correlate,
    "spectral.coherence_envelope": _counts_coherence_envelope,
    "simkit.apply_detector": _counts_apply_detector,
    "io.write_ptag": _counts_file,
    "io.read_ptag": _counts_file,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # enclosing span's index in its iteration, None at top level
    workload: str
    iteration: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans of wrapped fcphotons calls; see ``installed``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.iteration = 0
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._first = 0  # index in spans of the current iteration's first span

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans) - self._first
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.workload, self.iteration)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs), result)
            return result

        return traced

    @contextmanager
    def installed(self, iteration: int):
        """Patch the traced functions for the duration of the block."""
        self.iteration = iteration
        self._first = len(self.spans)
        wrappers = {}
        for short, names in TARGETS.items():
            module = sys.modules[f"fcphotons.{short}"]
            if names is None:
                names = [n for n, f in inspect.getmembers(module, inspect.isfunction)
                         if not n.startswith("_") and f.__module__ == module.__name__]
            for n in names:
                fn = getattr(module, n)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{n}", fn))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fcphotons" and not mod_name.startswith("fcphotons."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patched.append((module, attr, value))
        for module, attr, value in patched:
            setattr(module, attr, wrappers[id(value)][1])
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per function name: inclusive seconds, self seconds and call count."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = {}
    for s, c in zip(spans, child):
        entry = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += s.end - s.start
        entry["self_s"] += s.end - s.start - c
        entry["calls"] += 1
    return out


def chain_metrics(spans: list[Span], chain_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced chain, from the spans of its iteration."""
    layers = layer_times(spans)

    def get(name, key):
        return layers.get(name, {}).get(key, 0.0)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    m = {}
    for name in ("tagcorr.cross_correlate", "tagcorr.heralded_g2", "tagcorr.extract_sbr",
                 "tagcorr.gated_coincidences", "spectral.fringe_fit",
                 "spectral.coherence_envelope", "twophoton.pair_coherence",
                 "simkit.apply_detector", "simkit.generate_pair_streams",
                 "simkit.qfc_transform", "simkit.hbt_split", "io.write_ptag",
                 "io.read_ptag", "io.save_curve", "io.write_summary",
                 "scenario.load_scenario"):
        m[f"{name}.s"] = get(name, "s")
    for name in ("tagcorr.franson_visibility_scan", "simkit.franson_sample"):
        m[f"{name}.self_s"] = get(name, "self_s")

    cc = "tagcorr.cross_correlate"
    m[f"{cc}.bins"] = total(cc, "bins")
    m[f"{cc}.pairs"] = total(cc, "pairs")
    m[f"{cc}.pairs_per_s"] = m[f"{cc}.pairs"] / m[f"{cc}.s"] if m[f"{cc}.s"] else 0.0
    ce = "spectral.coherence_envelope"
    m[f"{ce}.grid_points"] = total(ce, "grid_points")
    m[f"{ce}.bytes_computed"] = total(ce, "bytes_computed")
    ad = "simkit.apply_detector"
    tags_in = total(ad, "tags_in")
    m[f"{ad}.kept_ratio"] = total(ad, "tags_out") / tags_in if tags_in else 0.0
    m["simkit.tags_out"] = total(ad, "tags_out")
    for name in ("io.write_ptag", "io.read_ptag"):
        m[f"{name}.bytes"] = total(name, "bytes")
        m[f"{name}.calls"] = get(name, "calls")

    top = sum(s.end - s.start for s in spans if s.parent is None)
    m["cli.self_s"] = chain_s - top
    m["trace.layers_self_s"] = sum(v["self_s"] for v in layers.values())
    m["trace.chain_s"] = chain_s
    return m
