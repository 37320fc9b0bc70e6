"""Layer spans recorded from outside the package.

Each boundary is a module attribute that a caller looks up at call time,
such as ``phasefree.entanglement._pair_window_grid``.  Installing the
tracer replaces those attributes with wrappers that record a span (name,
start, end, parent, thread) and a few exact counts read off the returned
value.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics at the end of the process.

A boundary that no longer exists is listed as absent, and every metric fed
only by absent boundaries is reported as 0 and named in the absent list
``layer_metrics`` returns, so a later refactor changes the report instead
of breaking it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import statistics
import threading
import time

import workloads

# (module, attribute the caller looks up, span name = "<layer>.<role>")
BOUNDARIES = (
    ("phasefree.cli", "main", "cli.main"),
    ("phasefree.cli", "entanglement_sweep", "entanglement.sweep"),
    ("phasefree.cli", "render_line_chart", "svgplot.render"),
    ("phasefree.entanglement", "average_entanglement", "entanglement.point"),
    ("phasefree.entanglement", "_pair_window_grid", "encoding.grid"),
    ("phasefree.entanglement", "shannon_entropy_bits", "numerics.reduce"),
    ("phasefree.encoding", "_pair_window_grid", "encoding.grid"),
    ("phasefree.encoding", "_pair_log_slices", "encoding.slices"),
    ("phasefree.encoding", "pair_outcome_distribution", "encoding.table"),
    ("phasefree.encoding", "mean_pair_approx_fidelity", "encoding.fidelity"),
    ("phasefree.encoding", "mean_coherent_approx_fidelity", "encoding.fidelity"),
    ("phasefree.encoding", "encode_pair", "encoding.state"),
    ("phasefree.encoding", "encode_coherent", "encoding.state"),
    ("phasefree.encoding", "log_poisson_table", "numerics.table"),
    ("phasefree.encoding", "log_factorial_table", "numerics.table"),
    ("phasefree.encoding", "log_sum_exp", "numerics.reduce"),
)

# Per-layer metrics: name -> (unit, span names that feed it).  Metrics the
# tracer cannot see (cli.output_bytes, trace.overhead_s) are added by the
# runner from the files and the untraced samples.
LAYER_METRICS = {
    "encoding.grid_s": ("s", ("encoding.grid",)),
    "encoding.grid_calls": ("count", ("encoding.grid",)),
    "encoding.window_cells": ("count", ("encoding.grid",)),
    "encoding.growth_rounds": ("count", ("encoding.grid",)),
    "encoding.window_useful_frac": ("ratio", ("encoding.grid",)),
    "encoding.slices": ("count", ("encoding.slices",)),
    "encoding.table_s": ("s", ("encoding.table",)),
    "encoding.table_entries": ("count", ("encoding.table",)),
    "encoding.fidelity_s": ("s", ("encoding.fidelity",)),
    "encoding.state_s": ("s", ("encoding.state",)),
    "encoding.state_calls": ("count", ("encoding.state",)),
    "entanglement.reduce_s": ("s", ("entanglement.point",)),
    "entanglement.point_s_median": ("s", ("entanglement.point",)),
    "entanglement.point_s_max": ("s", ("entanglement.point",)),
    "entanglement.sweep_s": ("s", ("entanglement.sweep",)),
    "entanglement.pool_efficiency": ("ratio", ("entanglement.sweep", "entanglement.point")),
    "numerics.table_s": ("s", ("numerics.table",)),
    "numerics.table_calls": ("count", ("numerics.table",)),
    "numerics.table_entries": ("count", ("numerics.table",)),
    "numerics.reduce_s": ("s", ("numerics.reduce",)),
    "numerics.reduce_calls": ("count", ("numerics.reduce",)),
    "svgplot.render_s": ("s", ("svgplot.render",)),
    "cli.self_s": ("s", ("cli.main",)),
    "trace.spans": ("count", ()),
    "trace.absent_boundaries": ("count", ()),
}

# Counts that must repeat exactly between samples of the same inputs.
EXACT_COUNTS = (
    "encoding.grid_calls",
    "encoding.window_cells",
    "encoding.growth_rounds",
    "encoding.slices",
    "encoding.table_entries",
    "encoding.state_calls",
    "numerics.table_calls",
    "numerics.table_entries",
    "numerics.reduce_calls",
    "trace.spans",
)


def _grid_counts(bound: inspect.BoundArguments, result) -> dict:
    args = bound.arguments
    return {"eta": float(args["eta"]), "mean_b": float(args["mean_b"]), "k_max": int(result[-1])}


def _sweep_counts(bound: inspect.BoundArguments, result) -> dict:
    workers = bound.arguments.get("max_workers")
    return {"workers": workers if workers and workers > 1 else 1}


# Metrics read off returned values, hence lost when a counter cannot parse them.
_RESULT_METRICS = {
    "encoding.grid": ("encoding.window_cells", "encoding.growth_rounds", "encoding.window_useful_frac"),
    "encoding.table": ("encoding.table_entries",),
    "numerics.table": ("numerics.table_entries",),
    "entanglement.sweep": ("entanglement.pool_efficiency",),
}

_COUNTERS = {
    "encoding.grid": _grid_counts,
    "encoding.table": lambda bound, result: {"entries": len(result.support)},
    "numerics.table": lambda bound, result: {"entries": len(result)},
    "entanglement.sweep": _sweep_counts,
}


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "thread", "counts")

    def __init__(self, sid, name, parent, start, end, thread, counts):
        self.sid, self.name, self.parent = sid, name, parent
        self.start, self.end, self.thread, self.counts = start, end, thread, counts

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Wraps the boundaries of the imported package; ``enabled`` pauses
    recording (for correctness checks run between timed regions)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.unreadable: set[str] = set()
        self.enabled = True
        self.generator_counts: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        for module_name, attr, name in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, original))
            self._installed.append((module, attr, original))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # A generator's lifetime interleaves with its caller's work, so it
            # gets no span; only the items it yields are counted.
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                yielded = 0
                try:
                    for item in fn(*args, **kwargs):
                        yielded += 1
                        yield item
                finally:
                    if self.enabled:
                        with self._lock:
                            self.generator_counts[name] = self.generator_counts.get(name, 0) + yielded

            return generator_wrapper

        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if counter is not None and result is not None:
                    try:
                        counts = counter(signature.bind(*args, **kwargs), result)
                    except (TypeError, ValueError, KeyError, IndexError, AttributeError):
                        self.unreadable.add(name)
                self.spans.append(Span(sid, name, parent, start, end, threading.get_ident(), counts))

        return wrapper

    def absent_spans(self) -> set[str]:
        present = {name for module, attr, name in BOUNDARIES if f"{module}.{attr}" not in self.absent}
        return {name for _, _, name in BOUNDARIES} - present


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.sid] = (span.end - span.start) - covered
    return out


def window_rounds(eta: float, mean_b: float, k_max: int) -> tuple[int, int]:
    """(doubling rounds, cells computed over all rounds) inferred by
    replaying workloads.window_sizes up to the returned k_max."""
    rounds, computed = 0, 0
    for k in itertools.islice(workloads.window_sizes(eta, mean_b), 40):
        if k >= k_max:
            break
        computed += (k + 1) ** 2
        rounds += 1
    return rounds, computed + (k_max + 1) ** 2


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values of one traced process, plus the names of
    metrics whose every boundary is absent or whose counts were unreadable."""
    spans = tracer.spans
    self_time = _self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def spans_of(name):
        return by_name.get(name, [])

    def self_s(name):
        return math.fsum(self_time[s.sid] for s in spans_of(name))

    def duration(span):
        return span.end - span.start

    def count_sum(name, key):
        return sum(s.counts[key] for s in spans_of(name) if s.counts)

    grids = [s.counts for s in spans_of("encoding.grid") if s.counts]
    cells = sum((g["k_max"] + 1) ** 2 for g in grids)
    replay = [window_rounds(g["eta"], g["mean_b"], g["k_max"]) for g in grids]
    computed = sum(c for _, c in replay)
    points = [duration(s) for s in spans_of("entanglement.point")]
    sweeps = spans_of("entanglement.sweep")
    sweep_s = math.fsum(duration(s) for s in sweeps)
    workers = max((s.counts["workers"] for s in sweeps if s.counts), default=1)

    values = {
        "encoding.grid_s": self_s("encoding.grid"),
        "encoding.grid_calls": len(spans_of("encoding.grid")),
        "encoding.window_cells": cells,
        "encoding.growth_rounds": sum(r for r, _ in replay),
        "encoding.window_useful_frac": cells / computed if computed else 0.0,
        "encoding.slices": tracer.generator_counts.get("encoding.slices", 0),
        "encoding.table_s": self_s("encoding.table"),
        "encoding.table_entries": count_sum("encoding.table", "entries"),
        "encoding.fidelity_s": self_s("encoding.fidelity"),
        "encoding.state_s": self_s("encoding.state"),
        "encoding.state_calls": len(spans_of("encoding.state")),
        "entanglement.reduce_s": self_s("entanglement.point"),
        "entanglement.point_s_median": statistics.median(points) if points else 0.0,
        "entanglement.point_s_max": max(points, default=0.0),
        "entanglement.sweep_s": sweep_s,
        "entanglement.pool_efficiency": math.fsum(points) / (workers * sweep_s) if sweep_s else 0.0,
        "numerics.table_s": self_s("numerics.table"),
        "numerics.table_calls": len(spans_of("numerics.table")),
        "numerics.table_entries": count_sum("numerics.table", "entries"),
        "numerics.reduce_s": self_s("numerics.reduce"),
        "numerics.reduce_calls": len(spans_of("numerics.reduce")),
        "svgplot.render_s": self_s("svgplot.render"),
        "cli.self_s": self_s("cli.main"),
        "trace.spans": len(spans),
        "trace.absent_boundaries": len(tracer.absent),
    }
    gone = tracer.absent_spans()
    absent = {metric for metric, (_, feeds) in LAYER_METRICS.items() if feeds and all(n in gone for n in feeds)}
    for name in tracer.unreadable:
        absent.update(_RESULT_METRICS[name])
    for metric in absent:
        values[metric] = 0
    return values, sorted(absent)
