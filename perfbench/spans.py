"""Spans around sigaug's public functions, recorded from outside the program.

``Tracer.install`` replaces each function in ``workloads.TRACED_FUNCTIONS``
with a wrapper in every sigaug module namespace that holds it.  Modules bind
imported functions under their own names (``evalbench.balance_report`` is a
separate binding from ``balance.balance_report``), and ``sigaug.augment`` is
the function, not the module, because the package re-exports it, so the
rebinding walks ``sys.modules`` rather than attribute paths.  ``uninstall``
puts the originals back, so untraced passes run the unwrapped code.

A span records name, start, end and parent, plus counters taken from the
call's arguments and result after the span has ended.  Start and end are
process CPU seconds, the clock of the pass times.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

from workloads import PER_LAYER, TRACED_FUNCTIONS


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    phase: str  # "setup" or "pass<k>"
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _graph_fingerprint(graph) -> str:
    adj = graph.signed_adjacency()
    digest = hashlib.sha1(adj.indptr.tobytes())
    digest.update(adj.indices.tobytes())
    digest.update(adj.data.tobytes())
    return digest.hexdigest()


def _counts(name: str, args: dict, result) -> dict:
    """Counters for one finished call, keyed like the per-layer metrics."""
    if name == "graph.load_edge_list":
        return {"graph.load_edge_list.records": len(result.samples)}
    if name == "balance.balance_report":
        graph = args["graph"]
        return {
            "balance.balance_report.edges": graph.edge_count,
            "balance.triangles": result.stats.total,
            "graphs": {_graph_fingerprint(graph)},
        }
    if name == "encoder.train_encoder":
        epochs = args["config"].epochs
        return {"epochs": epochs, "encoder.edge_epochs": len(args["train"]) * epochs}
    if name == "curriculum.train_with_curriculum":
        subset_size = sys.modules["sigaug.curriculum"].subset_size
        pace = args["pace_cfg"]
        n = len(args["schedule"].ordered_edges)
        exposed = sum(min(subset_size(n, t, pace), n) for t in range(pace.total_epochs))
        return {"epochs": pace.total_epochs, "encoder.edge_epochs": exposed}
    if name == "encoder.pair_class_probabilities":
        return {"encoder.pair_class_probabilities.pairs": len(args["u"])}
    if name == "augment.augment":
        log = result[1]
        return {
            "augment.candidates": log.candidate_additions,
            "augment.accepted": log.added_pos + log.added_neg,
            "augment.rejected": log.rejected,
        }
    if name == "curriculum.score_and_sort":
        return {"curriculum.schedule_edges": len(result.ordered_edges)}
    if name == "cli.balance_report":
        path = args["args"].per_edge_csv
        return {"cli.per_edge_csv.bytes": os.path.getsize(path)} if path else {}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        signature = inspect.signature(func)
        clock = time.process_time  # CPU seconds, like the pass times

        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                        self.phase, clock())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = _counts(name, bound.arguments, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for module, _ in TRACED_FUNCTIONS.values():
            importlib.import_module(f"sigaug.{module}")
        modules = [m for key, m in sys.modules.items() if key == "sigaug" or key.startswith("sigaug.")]
        for name, (module, attr) in TRACED_FUNCTIONS.items():
            original = getattr(sys.modules[f"sigaug.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def to_json(self) -> list[dict]:
        out = []
        for s in self.spans:
            counts = {k: sorted(v) if isinstance(v, set) else v for k, v in s.counts.items()}
            out.append({"id": s.id, "name": s.name, "parent": s.parent, "phase": s.phase,
                        "start": s.start, "end": s.end, "counts": counts})
        return out


def phase_totals(spans: list[Span], phase: str) -> dict:
    """Raw per-layer sums of one phase: seconds, self seconds, counters."""
    mine = [s for s in spans if s.phase == phase]
    child_time: dict[int, float] = {}
    for s in mine:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    totals: dict = {}
    graphs: set = set()
    for s in mine:
        duration = s.end - s.start
        totals[f"{s.name}.s"] = totals.get(f"{s.name}.s", 0.0) + duration
        self_s = duration - child_time.get(s.id, 0.0)
        totals[f"{s.name}.self_s"] = totals.get(f"{s.name}.self_s", 0.0) + self_s
        totals[f"{s.name}.calls"] = totals.get(f"{s.name}.calls", 0) + 1
        for key, value in s.counts.items():
            if key == "graphs":
                graphs |= value
            else:
                totals[key] = totals.get(key, 0) + value
    totals["balance.balance_report.distinct_graphs"] = len(graphs)
    return totals


def layer_metrics(tracer: Tracer, traced_pass_s: list[float], untraced_pass_s: list[float]) -> dict:
    """Per-layer metrics for one set-up plus one (median) traced pass.

    Each raw quantity is the median over traced passes of its per-pass sum,
    plus its set-up sum; ratios are formed from those.  Layers a workload
    never calls read 0.  Needs at least one traced and one untraced pass.
    """
    phases = sorted({s.phase for s in tracer.spans if s.phase != "setup"})
    per_pass = [phase_totals(tracer.spans, p) for p in phases]
    setup = phase_totals(tracer.spans, "setup")
    raw = {
        k: setup.get(k, 0) + statistics.median(t.get(k, 0) for t in per_pass)
        for k in set(setup).union(*per_pass)
    }
    calls = raw.get("balance.balance_report.calls", 0)
    candidates = raw.get("augment.candidates", 0)
    epochs = raw.get("epochs", 0)
    train_s = raw.get("encoder.train_encoder.s", 0.0) + raw.get("curriculum.train_with_curriculum.s", 0.0)
    raw["balance.balance_report.distinct_ratio"] = (
        raw.get("balance.balance_report.distinct_graphs", 0) / calls if calls else 0.0
    )
    raw["augment.accept_ratio"] = raw.get("augment.accepted", 0) / candidates if candidates else 0.0
    raw["encoder.epoch_s"] = (train_s - raw.get("encoder.init_state.s", 0.0)) / epochs if epochs else 0.0
    raw["trace.overhead_s"] = statistics.median(traced_pass_s) - statistics.median(untraced_pass_s)
    return {name: {"value": raw.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
