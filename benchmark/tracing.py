"""Spans around the public functions of every ``bpa`` module.

:class:`Tracer.install` replaces each public function of the layer modules
with a timing wrapper, at every module attribute that names it (the
package namespace included), so calls from one function to another in the
same module are caught as well.  A call nested inside a span of the same
function opens no new span, which keeps recursive functions such as
``normal_form`` to one span per outermost call.

Spans are kept in memory and written out when the run ends.  To keep
memory bounded on functions called millions of times (``kendall_distance``),
the sibling calls of one function under one parent span share a single
span record, which carries the call count and the summed duration.  Each
record keeps its parent's id and the id of the op (root span) it belongs
to; calls made outside an op open no span.  Self time is a span's duration minus the durations of its direct
children; calls are sequential on one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import types
from collections import Counter, defaultdict
from time import perf_counter

#: the modules of ``src/bpa``, which are the benchmark's layers
LAYERS = (
    "logs",
    "trees",
    "semantics",
    "profiles",
    "model_abstraction",
    "miner",
    "event_abstraction",
    "pipeline",
    "cli",
)

OP = "op"


class Span:
    __slots__ = ("id", "parent", "op", "name", "calls", "duration", "start", "end")

    def __init__(self, id: int, parent: int | None, op: int | None, name: str, start: float):
        self.id = id
        self.parent = parent
        self.op = id if op is None else op
        self.name = name
        self.calls = 0
        self.duration = 0.0
        self.start = start
        self.end = start

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Collects spans and result counters for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op_class_refs: list[int] = []
        self._stack: list[tuple[Span, float]] = []
        self._open: set[str] = set()
        self._merged: dict[tuple[int | None, str], int] = {}
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- installing and removing the wrappers ------------------------------
    def install(self) -> None:
        import bpa

        modules = [importlib.import_module(f"bpa.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for module in (bpa, *modules):
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, qualname: str, fn):
        tracer = self
        hook = HOOKS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if qualname in tracer._open or not tracer._stack:
                return fn(*args, **kwargs)
            span = tracer._enter(qualname, merge=True)
            tracer._open.add(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._open.discard(qualname)
                tracer._exit(span)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- spans -------------------------------------------------------------
    def _enter(self, name: str, merge: bool) -> Span:
        parent = self._stack[-1][0].id if self._stack else None
        key = (parent, name)
        sid = self._merged.get(key) if merge else None
        now = perf_counter()
        if sid is None:
            sid = len(self.spans)
            op = self.spans[parent].op if parent is not None else None
            self.spans.append(Span(sid, parent, op, name, now))
            if merge:
                self._merged[key] = sid
        span = self.spans[sid]
        self._stack.append((span, now))
        return span

    def _exit(self, span: Span) -> None:
        now = perf_counter()
        _, start = self._stack.pop()
        span.duration += now - start
        span.end = now
        span.calls += 1

    def run_op(self, fn, *args):
        """Run one op under its own root span; returns ``fn(*args)``."""
        self.counters["op_class_refs"] = 0
        span = self._enter(OP, merge=False)
        try:
            return fn(*args)
        finally:
            self._exit(span)
            self.op_class_refs.append(self.counters.pop("op_class_refs"))

    def adopt(self, spans: list[dict], counters: dict) -> None:
        """Attach the spans of ops traced in another process under the open
        span, which takes the place of their root spans."""
        parent = self._stack[-1][0].id
        ids = {r["id"]: parent for r in spans if r["parent"] is None}
        for record in spans:
            if record["parent"] is None:
                continue
            span = Span(
                len(self.spans), ids[record["parent"]], self.spans[parent].op,
                record["name"], record["start"],
            )
            span.calls, span.duration, span.end = record["calls"], record["duration"], record["end"]
            ids[record["id"]] = span.id
            self.spans.append(span)
        self.counters.update(counters)

    # -- summaries ---------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over all records of that name."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.duration - covered[span.id]
        return dict(out)

    def calls(self) -> Counter:
        out: Counter = Counter()
        for span in self.spans:
            out[span.name] += span.calls
        return out

    def op_time(self) -> float:
        return sum(s.duration for s in self.spans if s.name == OP)


# ---------------------------------------------------------------------------
# Result counters, recorded after the span closed
# ---------------------------------------------------------------------------

def _count_minimal_log(tracer: Tracer, args, log) -> None:
    tracer.counters["semantics.minimal_log.traces"] += log.num_traces
    if "event_abstraction.ea2" in tracer._open:
        # the reference log of stage two: its largest class of traces with
        # one activity multiset bounds the greedy matching's work
        classes = Counter(
            tuple(sorted(Counter(e.activity for e in t).items())) for t, _ in log.variants()
        )
        largest = max(classes.values(), default=0)
        tracer.counters["event_abstraction.ea2.max_class_refs"] = max(
            tracer.counters["event_abstraction.ea2.max_class_refs"], largest
        )
        tracer.counters["op_class_refs"] = max(tracer.counters["op_class_refs"], largest)


def _count_discover(tracer: Tracer, args, tree) -> None:
    tracer.counters["miner.discover.variants"] += len(args[0].activity_variants())


def _count_transposed(tracer: Tracer, args, log) -> None:
    tracer.counters["event_abstraction.transposed_events"] += sum(
        count * sum(e.get("transposed") == "true" for e in trace)
        for trace, count in log.variants()
    )


def _count_instance(tracer: Tracer, args, instance) -> None:
    tracer.counters["pipeline.instances"] += 1


def _count_spec_candidate(tracer: Tracer, args, weight) -> None:
    if "pipeline.generate_instance" in tracer._open:
        tracer.counters["pipeline.w_minmax_in_generate"] += 1


#: counters recorded from a function's result, by span name
HOOKS = {
    "semantics.minimal_log": _count_minimal_log,
    "miner.discover": _count_discover,
    "event_abstraction.ea2": _count_transposed,
    "pipeline.generate_instance": _count_instance,
    "model_abstraction.w_minmax": _count_spec_candidate,
}
