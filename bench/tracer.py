"""In-memory span tracer for the benchmark's traced run.

``Tracer`` wraps each layer's public function in every ``gridtopo`` module
that binds it (``connected_components`` is bound in ``graphs``, ``metrics``,
``evolution`` and the package itself), records one span per call, and puts
the originals back on exit.  No file of the program changes.  Counters are
read from the recorded arguments and results after each CLI call returns,
so they cost nothing inside the timed region.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "gridtopo"
# span name -> (defining module, functions recorded under that name)
LAYERS = {
    "grid_log.load_log": ("grid_log", ("load_log",)),
    "grid_log.line_count_series": ("grid_log", ("line_count_series",)),
    "graphs.build_snapshot": ("graphs", ("build_snapshot",)),
    "graphs.connected_components": ("graphs", ("connected_components",)),
    "metrics.path_sweep": ("metrics", ("average_path_length", "diameter")),
    "metrics.clustering_coefficient": ("metrics", ("clustering_coefficient",)),
    "communities.detect_communities": ("communities", ("detect_communities",)),
    "degree_fit.fit_model": ("degree_fit", ("fit_model",)),
    "degree_fit.compare_fits": ("degree_fit", ("compare_fits",)),
    "evolution.compute_metrics_record": ("evolution", ("compute_metrics_record",)),
}
COUNTS = ("grid_log.records_in", "grid_log.circuits_merged", "graphs.snapshot_nodes",
          "graphs.snapshot_edges", "metrics.bfs_sources", "communities.merges")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    year: int | None = None
    args: tuple = ()  # dropped once counted
    result: object = None


def _year(args: tuple) -> int | None:
    """The snapshot's year, or the year argument of build_snapshot."""
    if not args:
        return None
    year = getattr(args[0], "year", None)
    if year is None and len(args) > 1 and type(args[1]) is int:
        year = args[1]
    return year


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._counted = 0
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, parent=stack[-1] if stack else None, year=_year(args))
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            span.args = args
            return span.result

        return traced

    def __enter__(self) -> Tracer:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, (module_name, functions) in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                self._originals[fn_name] = original
                wrapper = self._wrap(name, original)
                for module in modules:
                    if vars(module).get(fn_name) is original:
                        self._patched.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def take_counts(self) -> None:
        """Turn the arguments and results of new spans into counters, then drop them."""
        components = self._originals.get("connected_components")
        for span in self.spans[self._counted:]:
            result = span.result
            if result is None:  # the call raised
                continue
            if span.name == "grid_log.load_log":
                merged_away = sum(len(m.merged_ids) - 1 for m in result.merges)
                self.counts["grid_log.records_in"] += len(result.nodes) + len(result.edges) + merged_away
                self.counts["grid_log.circuits_merged"] += len(result.merges)
            elif span.name == "graphs.build_snapshot":
                self.counts["graphs.snapshot_nodes"] += result.num_nodes
                self.counts["graphs.snapshot_edges"] += result.num_edges
            elif span.name == "metrics.path_sweep" and components is not None:
                self.counts["metrics.bfs_sources"] += len(components(span.args[0]).largest)
            elif span.name == "communities.detect_communities":
                self.counts["communities.merges"] += span.args[0].num_nodes - result.num_communities
            span.args, span.result = (), None
        self._counted = len(self.spans)

    def breakdown(self, total_s: float) -> dict[str, float]:
        """Self time and calls per layer, counters, and the untraced rest of ``total_s``."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        top_s = 0.0
        for span, children in zip(self.spans, child_s):
            out[f"{span.name}.self_s"] += span.end - span.start - children
            out[f"{span.name}.calls"] += 1
            if span.parent is None:
                top_s += span.end - span.start
        for name in COUNTS:
            out[name] = self.counts[name]
        records = out["evolution.compute_metrics_record.calls"]
        out["graphs.components_per_snapshot"] = (
            out["graphs.connected_components.calls"] / records if records else 0.0)
        out["metrics.path_sweeps_per_snapshot"] = (
            out["metrics.path_sweep.calls"] / records if records else 0.0)
        out["cli.other_s"] = total_s - top_s
        out["trace.total_s"] = total_s
        return out

    def span_rows(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "year": s.year}
                for s in self.spans]
