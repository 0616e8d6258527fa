"""Event logs as multisets of traces, plus directly-follows graphs and IO.

Traces are tuples of :class:`Event`.  A log stores trace *variants* with
multiplicities; a variant is its sequence of events, attributes included,
so two traces that differ only in an attribute are two variants.  An
event keeps its attributes sorted, so their order never splits a variant.
The control-flow views (:meth:`EventLog.activity_variants`, ``==``,
:func:`dfg_of_log`, :func:`format_compact` and discovery) read activity
sequences only and ignore attributes; discovery and :func:`dfg_of_log`
share one directly-follows builder.

Supported file formats
----------------------
CSV
    Header ``case,activity[,timestamp][,attr:*]``.  Rows are grouped by
    case id; events are ordered by timestamp when the column is present,
    otherwise by file order.  On output the attribute columns ``concrete``
    and ``transposed`` (produced by log abstraction) are written as plain
    columns.

Compact traces
    One trace per line: ``[xN ]act1,act2,...`` with an optional
    multiplicity prefix ``N >= 1``.  A line ``xN `` with nothing but spaces
    after the space denotes an empty trace; blank lines are ignored.  An
    empty activity name, as in ``a,,b`` or a trailing comma, is refused.
"""
from __future__ import annotations

import operator
import re
from collections import Counter
from itertools import chain
from types import SimpleNamespace
from typing import Iterable, Iterator, NamedTuple, Sequence

from .trees import _dot

START = "▷"  # artificial start node of the DFG
END = "◁"    # artificial end node of the DFG


class _EventFields(NamedTuple):
    activity: str
    attrs: tuple[tuple[str, str], ...] = ()


class Event(_EventFields):
    """A single event: an activity name plus optional string attributes,
    kept sorted, so the order they are given in never tells events apart."""

    __slots__ = ()

    def __new__(cls, activity: str, attrs: Iterable[tuple[str, str]] = ()) -> "Event":
        return super().__new__(cls, activity, tuple(sorted(attrs)))

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def with_attrs(self, **kv: str) -> "Event":
        merged = dict(self.attrs)
        merged.update(kv)
        return Event(self.activity, merged.items())


Trace = tuple[Event, ...]
_activity = operator.attrgetter("activity")


def as_trace(items: Sequence[str | Event]) -> Trace:
    """Build a trace from activity names and/or events; a tuple that holds
    only events is a trace already and is returned as it is."""
    if type(items) is tuple and set(map(type, items)) <= {Event}:
        return items
    return tuple(e if isinstance(e, Event) else Event(e) for e in items)


def trace_activities(trace: Trace) -> tuple[str, ...]:
    return tuple(map(_activity, trace))


class EventLog:
    """Multiset of traces with insertion-ordered variants."""

    __slots__ = ("_variants",)

    def __init__(self, traces: Iterable[Sequence[str | Event]] = ()):
        self._variants: dict[Trace, int] = {}
        for t in traces:
            self.add(t)

    def add(self, trace: Sequence[str | Event], count: int = 1) -> None:
        if count < 1:
            raise ValueError("multiplicity must be >= 1")
        t = as_trace(trace)
        self._variants[t] = self._variants.get(t, 0) + count

    # -- views -------------------------------------------------------------
    def variants(self) -> list[tuple[Trace, int]]:
        """Distinct traces with multiplicities, in first-appearance order."""
        return list(self._variants.items())

    def activity_variants(self) -> list[tuple[tuple[str, ...], int]]:
        out: dict[tuple[str, ...], int] = {}
        for t, c in self._variants.items():
            key = trace_activities(t)
            out[key] = out.get(key, 0) + c
        return list(out.items())

    def traces(self) -> Iterator[Trace]:
        """All traces, multiplicities expanded."""
        for t, c in self._variants.items():
            for _ in range(c):
                yield t

    def as_multiset(self) -> dict[tuple[str, ...], int]:
        return dict(self.activity_variants())

    @property
    def num_traces(self) -> int:
        return sum(self._variants.values())

    @property
    def num_events(self) -> int:
        return sum(c * len(t) for t, c in self._variants.items())

    def __len__(self) -> int:
        return self.num_traces

    def __bool__(self) -> bool:
        return bool(self._variants)

    def __eq__(self, other: object) -> bool:
        """Multiset equality on activity sequences (control flow only)."""
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.as_multiset() == other.as_multiset()

    def __repr__(self) -> str:
        return f"EventLog({self.num_traces} traces, {self.num_events} events)"

    def activities(self) -> set[str]:
        out: set[str] = set()
        for t in self._variants:
            out.update(trace_activities(t))
        return out

    def union(self, other: "EventLog") -> "EventLog":
        """Multiset union (additive)."""
        out = EventLog()
        for t, c in chain(self.variants(), other.variants()):
            out.add(t, c)
        return out

    __add__ = union


def log_from_sequences(seqs: Iterable[Sequence[str]], counts: Iterable[int] | None = None) -> EventLog:
    """Shorthand constructor from activity-name sequences."""
    log = EventLog()
    if counts is None:
        for s in seqs:
            log.add(s)
    else:
        for s, c in zip(seqs, counts):
            log.add(s, c)
    return log


# ---------------------------------------------------------------------------
# Directly-follows graphs
# ---------------------------------------------------------------------------

class DFG(NamedTuple):
    """Directly-follows graph over activities plus the START/END nodes."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def successors(self, node: str) -> set[str]:
        return {y for x, y in self.edges if x == node}

    def predecessors(self, node: str) -> set[str]:
        return {x for x, y in self.edges if y == node}


def dfg_of_log(log: EventLog) -> DFG:
    """Edge (x,y) iff y directly follows x in some trace; empty traces map
    to the single edge (START, END)."""
    variants = [acts for acts, _ in log.activity_variants()]
    edges, starts, ends = _dfg_edges(variants)
    edges.update((START, a) for a in starts)
    edges.update((a, END) for a in ends)
    if not all(variants):
        edges.add((START, END))
    return DFG(frozenset({START, END} | log.activities()), frozenset(edges))


def _dfg_edges(
    variants: Iterable[Sequence[str]],
) -> tuple[set[tuple[str, str]], set[str], set[str]]:
    """Directly-follows edges, start and end activities of activity
    sequences; an empty sequence adds nothing."""
    edges: set[tuple[str, str]] = set()
    starts: set[str] = set()
    ends: set[str] = set()
    for v in variants:
        if v:
            starts.add(v[0])
            ends.add(v[-1])
            edges.update(zip(v, v[1:]))
    return edges, starts, ends


def dfg_to_dot(g: DFG) -> str:
    return _dot(
        "dfg",
        {n: (n, "doublecircle" if n in (START, END) else "box") for n in sorted(g.nodes)},
        sorted(g.edges),
        "rankdir=LR",
    )


# ---------------------------------------------------------------------------
# CSV ingestion / output
# ---------------------------------------------------------------------------

def read_csv_log(source) -> EventLog:
    """Read a log from a CSV path or file object.

    Required columns ``case`` and ``activity``; optional ``timestamp``
    (sorting key within a case, stable w.r.t. file order); every column
    named ``attr:NAME`` becomes an event attribute ``NAME``.  A path is read
    as UTF-8, a leading byte-order mark skipped.  A row too short for its
    case, activity or timestamp, or a field the ``csv`` module refuses, is a
    ``ValueError`` naming the line where the row ends.
    """
    import csv
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            return read_csv_log(fh)
    reader = csv.reader(source)
    try:
        header = next(reader, None)
        if header is None or "case" not in header or "activity" not in header:
            raise ValueError("CSV log needs 'case' and 'activity' columns")
        width = len(header)
        col = {name: i for i, name in enumerate(header)}
        ci, ai, ti = col["case"], col["activity"], col.get("timestamp")
        required = sorted((col[c], c) for c in ("case", "activity", "timestamp") if c in col)
        named = [(c[5:], col[c]) for c in header if c.startswith("attr:")]
        named += [(c, col[c]) for c in ("concrete", "transposed") if c in col]
        # a row's raw key: its activity, its named values and, last, its timestamp
        raw_key = operator.itemgetter(ai, *(j for _, j in named), *([] if ti is None else [ti]))
        # case -> its keys in file order, or (timestamp key, event key) pairs.
        # A stretch of one case's consecutive rows is compacted when it ends:
        # a case's first stretch without timestamps becomes a tuple shared
        # through ``distinct`` with every case of the same keys; any other
        # stretch keeps one ``shared`` copy per distinct key and joins its
        # case's list, which grows in place, so switching cases stays O(1).
        cases: dict[str, tuple | list] = {}
        distinct: dict[tuple, tuple] = {}
        shared: dict = {}
        case, run = None, []
        for row in chain(reader, [[None] * width]):  # the extra row ends the last stretch
            try:
                case_id, key = row[ci], raw_key(row)
            except IndexError:
                if not row:
                    continue
                missing = [c for i, c in required if i >= len(row)]
                if missing:
                    raise ValueError(f"CSV line {reader.line_num}: row has no '{missing[0]}' field")
                case_id, key = row[ci], raw_key(row + [""] * (width - len(row)))
            if case_id != case:
                if run:
                    seen = cases.get(case)
                    if seen is None and ti is None:
                        cases[case] = distinct.setdefault(seq := tuple(run), seq)
                    else:
                        if type(seen) is not list:
                            seen = cases[case] = list(seen or ())
                        seen += [shared.setdefault(k, k) for k in run] if ti is None else [
                            (_timestamp_key(k[-1]), shared.setdefault(e := k[:-1], e)) for k in run
                        ]
                case, run = case_id, []
            run.append(key)
    except csv.Error as exc:
        raise ValueError(f"CSV line {reader.line_num}: {exc}") from None
    if ti is None:
        variants = Counter(map(tuple, cases.values()))
    else:
        first = operator.itemgetter(0)  # a stable sort keeps ties in file order
        variants = Counter(
            tuple(key for _, key in sorted(rows, key=first)) for rows in cases.values()
        )
    events: dict[object, Event] = {}  # one Event per distinct key
    for key in {key for seq in variants for key in seq}:
        activity, *values = key if type(key) is tuple else (key,)
        events[key] = Event(activity, ((k, v) for (k, _), v in zip(named, values) if v))
    log = EventLog()
    for seq, count in variants.items():
        log.add(tuple(map(events.__getitem__, seq)), count)
    return log


def _timestamp_key(ts: str):
    try:
        value = float(ts)
    except ValueError:
        return (1, ts)
    return (0, value) if value == value else (1, ts)  # nan orders with no number: text


def write_csv_log(log: EventLog, target) -> None:
    """Write a log as CSV; abstraction attributes ``concrete`` and
    ``transposed`` get their own columns, all others go to ``attr:*``."""
    import csv
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_csv_log(log, fh)
            return
    special = ("concrete", "transposed")
    attr_names = sorted(
        {k for t, _ in log.variants() for e in t for k, _ in e.attrs if k not in special}
    )
    columns = (*special, *attr_names)
    csv.writer(target).writerow(["case", "activity", *special, *(f"attr:{a}" for a in attr_names)])
    # each variant's rows are rendered once, without the case column, then
    # written under one case id per copy ("c<n>" never needs quoting)
    lines: list[str] = []
    row_writer = csv.writer(SimpleNamespace(write=lines.append))
    case_no = 0
    for trace, count in log.variants():
        lines.clear()
        row_writer.writerows([ev.activity, *(ev.get(c, "") for c in columns)] for ev in trace)
        if lines:
            for n in range(case_no + 1, case_no + count + 1):
                target.write(f"c{n}," + f"c{n},".join(lines))
        case_no += count


# ---------------------------------------------------------------------------
# Compact trace format
# ---------------------------------------------------------------------------

_MULT_RE = re.compile(r"^x(\d+) (.*)$")


def read_compact(text: str) -> EventLog:
    """Parse the compact one-trace-per-line format from a string.

    An empty activity name or a multiplicity below 1 is a ``ValueError``
    naming its 1-based line."""
    log = EventLog()
    for no, line in enumerate(text.splitlines(), 1):
        m = _MULT_RE.match(line)
        if not (m or line.strip()):
            continue
        try:
            count, rest = (int(m.group(1)), m.group(2)) if m else (1, line)
            acts = [a.strip() for a in rest.split(",")] if rest.strip() else []
            if "" in acts:
                raise ValueError("empty activity name")
            log.add(acts, count)
        except ValueError as exc:
            raise ValueError(f"compact line {no}: {exc}") from None
    return log


def read_compact_file(path) -> EventLog:
    with open(path, encoding="utf-8-sig") as fh:
        return read_compact(fh.read())


def format_compact(log: EventLog) -> str:
    lines = []
    for acts, count in log.activity_variants():
        body = ",".join(acts)
        lines.append(f"x{count} {body}" if count > 1 or not body else body)
    return "\n".join(lines) + "\n"
