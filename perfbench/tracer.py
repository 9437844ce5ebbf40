"""Outside-in tracer for awareflow's layers.

The program has no spans of its own, so this module wraps the public
functions of each ``awareflow`` module from outside.  A wrapper replaces the
function at every import site (for example both ``awareflow.domain.
load_dataset`` and ``awareflow.cli.load_dataset``, and the values of
module-level dicts such as ``cli.STEP_FUNCS``), and :meth:`Tracer.uninstall`
puts every original back.  A target that a later change removes or renames
is reported as absent instead of failing the run.

Spans are kept in memory and turned into ``<module>.<function>.<quantity>``
metrics at the end; :meth:`Tracer.write_spans` writes them out as JSON lines.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import dataclass

PACKAGE = "awareflow"
LAYERS = ("simulate", "domain", "netinfer", "awareness", "analytics", "regress", "kernels", "cli")
STAGES = ("gen", "infer-net", "label", "segment", "cohort", "geo-corr", "regress", "report")

UNITS = {
    "calls": "count", "s": "s", "cpu_s": "s", "rows": "count", "edges": "count",
    "draws": "count", "mb": "MB", "iters": "count", "ridge": "count",
    "failed": "count", "ok_frac": "ratio", "self_s": "s",
}


def _len_of(arg):
    return lambda args, result: len(args[arg])


def _file_mb(arg):
    return lambda args, result: os.path.getsize(args[arg]) / 1e6


def _edges(args, result):
    return sum(int(v) for v in result.edge_counts().values())


@dataclass(frozen=True)
class Target:
    """One wrapped function.

    ``path`` is the attribute path inside ``awareflow.<module>``; ``sizes``
    maps a quantity to ``f(bound_arguments, result)``, summed over calls.
    """

    module: str
    path: str
    quantities: tuple
    sizes: tuple = ()
    name: str = None

    @property
    def prefix(self):
        return self.name or f"{self.module}.{self.path}"

    @property
    def stage(self):
        return self.name is not None and self.name.startswith("cli.stage.")


def _stage_target(stage):
    return Target("cli", "cmd_" + stage.replace("-", "_"), ("s", "cpu_s"), name=f"cli.stage.{stage}")


TARGETS = tuple(_stage_target(s) for s in STAGES) + (
    Target("cli", "sha256_file", ("calls", "s", "mb"), (("mb", _file_mb("path")),)),
    Target("domain", "load_dataset", ("s",)),
    Target("domain", "read_events", ("s", "rows"), (("rows", lambda a, r: len(r)),)),
    Target("domain", "read_population", ("s",)),
    Target("domain", "read_addresses", ("s",)),
    Target("domain", "validate_dataset", ("calls", "s")),
    Target("domain", "EventLog.canonical", ("calls", "s", "rows"), (("rows", lambda a, r: len(r)),)),
    Target("domain", "save_dataset", ("s",)),
    Target("domain", "write_events", ("s", "mb"), (("mb", _file_mb("path")),)),
    Target("domain", "PopulationColumns.rows_of", ("calls", "s", "rows"), (("rows", _len_of("individual_ids")),)),
    Target("simulate", "generate", ("s",)),
    Target("simulate", "generate_population", ("s",)),
    Target("simulate", "simulate_diffusion", ("s",)),
    Target("simulate", "GroundTruth.save", ("s",)),
    Target("netinfer", "infer_networks", ("s", "edges"), (("edges", _edges),)),
    Target("netinfer", "write_edges", ("s",)),
    Target("netinfer", "read_edges", ("s",)),
    Target("netinfer", "layer_fractions", ("calls", "s")),
    Target("awareness", "label_awareness", ("s",)),
    Target("awareness", "match_mask", ("s", "rows"), (("rows", _len_of("events")),)),
    Target("awareness", "filter_qualified", ("s",)),
    Target("awareness", "AwarenessTimeline.aligned", ("calls", "s")),
    Target("analytics", "neighborhood_awareness_ratio", ("calls", "s")),
    Target("analytics", "aware_group_means", ("calls", "s")),
    Target("analytics", "group_trend", ("calls", "s")),
    Target("analytics", "geo_correlation_series", ("calls", "s")),
    Target("analytics", "segment_phases", ("s",)),
    Target("analytics", "write_tsv", ("calls", "s", "rows"), (("rows", _len_of("rows")),)),
    Target("regress", "run_time_evolving", ("s",)),
    Target("regress", "DesignBuilder.at", ("calls", "s")),
    # a ridge refit means the plain fit before it was discarded work
    Target(
        "regress", "fit_logistic", ("calls", "s", "iters", "ridge", "failed", "ok_frac"),
        (("iters", lambda a, r: r.n_iter), ("ridge", lambda a, r: int(r.ridge_used))),
    ),
    Target("kernels", "count_marked_neighbors_two", ("calls", "s", "edges"), (("edges", _len_of("indices")),)),
    Target("kernels", "count_marked_neighbors", ("calls", "s", "edges"), (("edges", _len_of("indices")),)),
    Target("kernels", "increment_neighbor_counts", ("calls", "s")),
    Target("kernels", "counter_uniforms", ("calls", "s", "draws"), (("draws", _len_of("ids")),)),
)

# Measured by the benchmark around the traced run rather than by a span.
RUN_METRICS = (
    ("cli.import.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def metric_units(targets=TARGETS):
    """Every per-layer metric name the traced run prints, with its unit."""
    out = {}
    for t in targets:
        for q in t.quantities:
            out[f"{t.prefix}.{q}"] = UNITS[q]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = "s"
    out.update(RUN_METRICS)
    return out


class Span:
    __slots__ = ("target", "parent", "thread", "t0", "t1", "c0", "c1", "error", "sizes")

    def __init__(self, target, parent, thread):
        self.target = target
        self.parent = parent
        self.thread = thread
        self.error = False
        self.sizes = None
        self.c0 = time.process_time()
        self.t0 = time.perf_counter()
        self.t1 = self.c1 = None

    @property
    def module(self):
        return self.target.module

    @property
    def duration(self):
        return self.t1 - self.t0


class Tracer:
    """Install wrappers, collect spans, aggregate them into metrics."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans = []
        self.absent = []
        self.unsized = set()
        self._patches = []  # (container, key, original, is_attr)
        self._local = threading.local()
        self._main = None
        self._stage = None

    # -- installation ------------------------------------------------------

    def install(self):
        self._main = threading.get_ident()
        for target in self.targets:
            try:
                self._install_one(target)
            except (ImportError, AttributeError):
                self.absent.append(target.prefix)
        return self

    def uninstall(self):
        for container, key, original, is_attr in reversed(self._patches):
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _install_one(self, target):
        module = importlib.import_module(f"{PACKAGE}.{target.module}")
        *owner_path, attr = target.path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        if owner_path:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(target, raw.__func__))
            else:
                replacement = self._wrap(target, raw)
            self._patches.append((owner, attr, raw, True))
            setattr(owner, attr, replacement)
            return
        original = getattr(owner, attr)
        wrapper = self._wrap(target, original)
        for site in [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            for key, value in list(vars(site).items()):
                if value is original:
                    self._patches.append((site, key, value, True))
                    setattr(site, key, wrapper)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patches.append((value, dkey, dvalue, False))
                            value[dkey] = wrapper

    def _wrap(self, target, fn):
        signature = inspect.signature(fn) if target.sizes else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(target)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self._close(span)
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    span.sizes = {q: f(bound, result) for q, f in target.sizes}
                except (TypeError, KeyError, AttributeError, OSError):
                    # a changed signature or return type must not break the run
                    self.unsized.add(target.prefix)
            return result

        return wrapper

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, target):
        stack = self._stack()
        thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif thread != self._main:
            # worker threads (run_time_evolving's pool) hang off the stage
            parent = self._stage
        else:
            parent = None
        span = Span(target, parent, thread)
        stack.append(span)
        if target.stage:
            self._stage = span
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        span.c1 = time.process_time()
        self._stack().pop()
        if span.target.stage:
            self._stage = None

    # -- aggregation -------------------------------------------------------

    def metrics(self):
        """``{name: value}`` for every target quantity and module self time.

        ``s`` sums the inclusive wall time of calls that are not nested in a
        call of the same function; spans in worker threads add their own
        time, so a layer's total may exceed the wall time of its stage.
        """
        by_target = {t: [] for t in self.targets}
        for span in self.spans:
            by_target[span.target].append(span)
        out = {}
        for target, spans in by_target.items():
            outer = [s for s in spans if not self._nested_in_same(s)]
            calls = len(spans)
            failed = sum(s.error for s in spans)
            values = {
                "calls": calls,
                "s": sum(s.duration for s in outer),
                "cpu_s": sum(s.c1 - s.c0 for s in outer),
                "failed": failed,
                "ok_frac": (calls - failed) / calls if calls else 0.0,
            }
            for quantity, _ in target.sizes:
                values[quantity] = sum(s.sizes[quantity] for s in spans if s.sizes)
            for q in target.quantities:
                out[f"{target.prefix}.{q}"] = values[q]
        out.update({f"{layer}.self_s": v for layer, v in self.self_times().items()})
        return out

    @staticmethod
    def _nested_in_same(span):
        p = span.parent
        while p is not None:
            if p.target is span.target:
                return True
            p = p.parent
        return False

    def self_times(self):
        """Per module: time in its spans not covered by other modules' spans.

        A module's outermost span (its parent is in another module, or it
        has none) owns the spans of other modules that open directly inside
        it or inside its same-module descendants; their union is subtracted.
        """
        covered = {}
        for span in self.spans:
            p = span.parent
            if p is None or p.module == span.module:
                continue
            while p.parent is not None and p.parent.module == p.module:
                p = p.parent
            covered.setdefault(p, []).append((span.t0, span.t1))
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            if span.parent is not None and span.parent.module == span.module:
                continue
            totals[span.module] = totals.get(span.module, 0.0) + span.duration - _union(covered.get(span, ()))
        return totals

    def write_spans(self, path):
        ids = {id(s): k for k, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                record = {
                    "id": k,
                    "name": s.target.prefix,
                    "parent": None if s.parent is None else ids[id(s.parent)],
                    "thread": s.thread,
                    "start": s.t0,
                    "end": s.t1,
                    "cpu_s": s.c1 - s.c0,
                    "error": s.error,
                    "sizes": s.sizes,
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            for name in self.absent:
                fh.write(json.dumps({"name": name, "absent": True}) + "\n")


def _union(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
