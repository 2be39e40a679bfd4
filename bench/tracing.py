"""Spans and search counts recorded around the public biramsey calls the benchmark makes.

A Recorder replaces module attributes of ``biramsey`` with wrappers while a
pass runs and puts the originals back afterwards.  The benchmark always calls
the engine through those module attributes (``search.arrows``, not a name
imported earlier), so the wrappers see every call it makes.  The engine's
own internal calls are not traced, with one deliberate exception:
``find_br_m`` reaches ``arrows`` through the module global of
``biramsey.search``, so each decision of an n-scan gets its own span carrying
its ``SearchStats`` counts.

Spans are kept in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs wrapped in a traced pass.  The module name is the
# span's layer.
TRACED_CALLS = (
    ("search", "arrows"),
    ("search", "find_br_m"),
    ("witnesses", "verify_good_coloring"),
    ("witnesses", "parse_witness"),
    ("witnesses", "serialize_witness"),
    ("core", "find_biclique"),
    ("core", "complement"),
    ("cnf", "write_dimacs"),
    ("cnf", "satisfies"),
    ("cnf", "decode_model"),
    ("table", "build_table"),
)
LAYERS = ("search", "witnesses", "core", "cnf", "table")
BENCH_LAYER = "bench"  # the benchmark's own operation spans and gate checks


class Recorder:
    """Collects the SearchStats of every decision and, when ``tracing``, spans.

    Untraced passes wrap only ``search.arrows``, with a wrapper that copies
    the outcome's counts and adds no span, so traced and untraced passes
    report the same search counts.
    """

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[dict] = []
        self.decisions: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._patched: list[tuple[object, str, object]] = []
        self.after_decision = None  # called after each search.arrows call returns

    def install(self, modules: dict) -> None:
        """Wrap the traced calls in ``modules`` (layer name -> module object)."""
        targets = TRACED_CALLS if self.tracing else (("search", "arrows"),)
        for layer, name in targets:
            module = modules[layer]
            original = getattr(module, name)
            self._patched.append((module, name, original))
            setattr(module, name, self._wrap(layer, name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def _wrap(self, layer: str, name: str, fn):
        counts = (layer, name) == ("search", "arrows")

        def wrapper(*args, **kwargs):
            with self.span(name, layer) as rec:
                out = fn(*args, **kwargs)
                if counts:
                    decision = _decision(out)
                    self.decisions.append(decision)
                    if rec is not None:
                        rec["stats"] = decision
            if counts and self.after_decision is not None:
                self.after_decision()
            return out

        return wrapper

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; its spans share its op id."""
        self._op = self._ops
        self._ops += 1
        try:
            with self.span(name, BENCH_LAYER):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.tracing:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "op": self._op,
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _decision(outcome) -> dict:
    stats = outcome.stats
    return {
        "verdict": outcome.verdict,
        "nodes": stats.nodes,
        "attempts": stats.attempts,
        "prunes": dict(stats.prunes),
    }


def search_counts(decisions: list[dict]) -> dict:
    """Totals over the decisions of one pass; these repeat exactly run to run."""
    verdicts: dict[str, int] = defaultdict(int)
    prunes: dict[str, int] = defaultdict(int)
    for d in decisions:
        verdicts[d["verdict"]] += 1
        for rule, count in d["prunes"].items():
            prunes[rule] += count
    return {
        "decisions": len(decisions),
        "nodes": sum(d["nodes"] for d in decisions),
        "attempts": sum(d["attempts"] for d in decisions),
        "prunes": dict(sorted(prunes.items())),
        "verdicts": dict(sorted(verdicts.items())),
    }


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span durations minus the part their child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    out = {layer: 0.0 for layer in LAYERS + (BENCH_LAYER,)}
    for s in spans:
        out[s["layer"]] += duration(s) - covered[s["id"]]
    return out


def busy_time(spans: list[dict], layer: str) -> float:
    """Time inside the layer's outermost spans (nested spans of the layer not double-counted)."""
    by_id = {s["id"]: s for s in spans}
    return sum(
        duration(s)
        for s in spans
        if s["layer"] == layer
        and (s["parent"] is None or by_id[s["parent"]]["layer"] != layer)
    )


def call_stats(spans: list[dict], name: str) -> tuple[int, float]:
    """Number of spans with this name and their summed duration."""
    hits = [duration(s) for s in spans if s["name"] == name]
    return len(hits), sum(hits)
