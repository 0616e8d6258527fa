"""Event-log abstraction synchronized with model abstraction.

The log is rewritten in two stages.  Stage one replaces, per trace, the
events of each aggregated group by a single abstract event (doubled when
the abstract activity is in parallel self-relation, dropped when a kept
activity in the same trace is in choice relation with it) and then breaks
co-occurrence of mutually exclusive abstract activities by a round-robin
deletion.  Stage two redistributes the traces over the minimal log of the
abstracted model: traces are grouped by activity multiset, matched to
reference traces with the same multiset, and reordered by the fewest
adjacent transpositions (Kendall tau distance), marking every moved event.

Rediscovering a model from the abstracted log yields a tree isomorphic to
the abstracted model, provided the log lies in the restricted class and
the aggregation is applicable.
"""
from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import networkx as nx

from .logs import Event, EventLog, Trace
from .miner import discover
from .model_abstraction import AggSpec, Abstraction, InapplicableError, plan
from .profiles import CHOICE, PARALLEL
from .semantics import minimal_log
from .trees import ProcessTree, require_class


class MatchingError(RuntimeError):
    """The abstracted traces cannot be distributed over the reference log."""


# ---------------------------------------------------------------------------
# Kendall tau sequence distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KendallResult:
    """Distance plus a witness: indices i of adjacent transpositions
    (i, i+1) that, applied left to right, turn the source into the
    target."""

    distance: int
    transpositions: tuple[int, ...]


def kendall_distance(source: Sequence[str], target: Sequence[str]) -> KendallResult:
    """Minimal number of adjacent transpositions between two sequences
    over the same multiset; duplicate symbols are matched left to right."""
    if Counter(source) != Counter(target):
        raise ValueError("sequences must contain the same activities")
    slots: dict[str, deque[int]] = defaultdict(deque)
    for i, sym in enumerate(target):
        slots[sym].append(i)
    perm = [slots[sym].popleft() for sym in source]

    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(perm) - 1):
            if perm[i] > perm[i + 1]:
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                swaps.append(i)
                changed = True
    return KendallResult(distance=len(swaps), transpositions=tuple(swaps))


def apply_transpositions(items: Sequence, transpositions: Iterable[int]) -> list:
    out = list(items)
    for i in transpositions:
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


# ---------------------------------------------------------------------------
# Stage one: per-trace aggregation
# ---------------------------------------------------------------------------

def ea1(log: EventLog, abstraction: Abstraction) -> EventLog:
    """Replace aggregated activities by abstract events, trace by trace,
    then break co-occurrence of choice-related abstract activities."""
    cover: dict[str, list[str]] = defaultdict(list)
    for x in sorted(abstraction.new_names):
        for a in abstraction.spec.agg[x]:
            cover[a].append(x)

    out = [_abstract_trace(trace, abstraction, cover) for trace in log.traces()]
    out = delete_choice_activities(out, abstraction)
    result = EventLog(attrs_identity=True)
    for trace in out:
        result.add(trace)
    return result


def _abstract_trace(trace: Trace, abstraction: Abstraction, cover) -> Trace:
    profile = abstraction.profile
    trace_acts = {e.activity for e in trace}
    kept_here = sorted(
        a for a in trace_acts if a not in cover and a in profile.activities
    )
    handled: set[str] = set()
    out: list[Event] = []
    for event in trace:
        groups = cover.get(event.activity)
        if not groups:
            out.append(event)
            continue
        for x in groups:
            if x in handled:
                continue
            handled.add(x)
            if any(profile.relation(v, x) == CHOICE for v in kept_here):
                continue  # a kept activity excludes x; drop it for good
            concrete = ";".join(sorted(abstraction.spec.agg[x] & trace_acts))
            abstract_event = Event(x, attrs=(("concrete", concrete),))
            out.append(abstract_event)
            if profile.relation(x, x) == PARALLEL:
                out.append(abstract_event)
    return tuple(out)


def choice_sets(abstraction: Abstraction) -> list[tuple[str, ...]]:
    """Maximal sets of pairwise choice-related abstract activities (new
    names only); their members must not co-occur in any abstracted trace."""
    new = abstraction.new_names
    g = nx.Graph()
    g.add_nodes_from(new)
    for x in new:
        for y in new:
            if x < y and abstraction.profile.relation(x, y) == CHOICE:
                g.add_edge(x, y)
    cliques = [tuple(sorted(c)) for c in nx.find_cliques(g) if len(c) >= 2]
    return sorted(cliques)


def delete_choice_activities(
    traces: list[Trace], abstraction: Abstraction
) -> list[Trace]:
    """In traces where several members of a choice set co-occur, keep one
    member and delete the rest; the kept member rotates round-robin over
    offending traces so deletion frequencies stay balanced."""
    out = [list(t) for t in traces]
    for members in choice_sets(abstraction):
        k = len(members)
        ptr = 0
        for i, trace in enumerate(out):
            present = {e.activity for e in trace} & set(members)
            if len(present) < 2:
                continue
            keeper = next(
                members[(ptr + j) % k]
                for j in range(k)
                if members[(ptr + j) % k] in present
            )
            drop = set(members) - {keeper}
            out[i] = [e for e in trace if e.activity not in drop]
            ptr += 1
    return [tuple(t) for t in out]


# ---------------------------------------------------------------------------
# Stage two: redistribution over the reference log
# ---------------------------------------------------------------------------

@dataclass
class QuotientSet:
    """One class of traces sharing an activity multiset, with original
    positions preserved."""

    signature: tuple[tuple[str, int], ...]
    members: list[tuple[int, Trace]]


def quotient(traces: Sequence[Trace]) -> list[QuotientSet]:
    classes: dict[tuple, QuotientSet] = {}
    for i, trace in enumerate(traces):
        sig = tuple(sorted(Counter(e.activity for e in trace).items()))
        if sig not in classes:
            classes[sig] = QuotientSet(signature=sig, members=[])
        classes[sig].members.append((i, trace))
    return list(classes.values())


def even_split_sizes(m: int, k: int) -> list[int]:
    """Split m items over k buckets as evenly as possible (larger buckets
    first)."""
    if k < 1:
        raise ValueError("need at least one bucket")
    if m < k:
        raise ValueError(f"cannot fill {k} buckets with {m} items")
    base, extra = divmod(m, k)
    return [base + 1] * extra + [base] * (k - extra)


def ea2(abstracted: EventLog, model: ProcessTree) -> EventLog:
    """Distribute the stage-one traces over the minimal log of the
    abstracted model and reorder each by the fewest adjacent
    transpositions."""
    require_class(model, "C_a")
    reference = list(minimal_log(model).traces())
    ref_classes = quotient(reference)
    pool_classes = quotient(list(abstracted.traces()))

    # distances within a class repeat across duplicate traces; memoize per
    # (variant, reference) pair
    witnesses: dict[tuple, KendallResult] = {}

    def witness(acts: tuple[str, ...], ref_acts: tuple[str, ...]) -> KendallResult:
        key = (acts, ref_acts)
        if key not in witnesses:
            witnesses[key] = kendall_distance(acts, ref_acts)
        return witnesses[key]

    used = [False] * len(ref_classes)
    out: list[Trace] = []
    for qa in pool_classes:
        match = next(
            (
                ci
                for ci, qt in enumerate(ref_classes)
                if not used[ci] and qt.signature == qa.signature
            ),
            None,
        )
        if match is None:
            acts = ", ".join(f"{a}:{n}" for a, n in qa.signature)
            raise MatchingError(f"no reference trace with activities {{{acts}}}")
        used[match] = True
        qt = ref_classes[match]
        m, k = len(qa.members), len(qt.members)
        if m < k:
            raise MatchingError(
                f"{m} abstracted trace(s) cannot cover {k} reference trace(s) "
                f"of the same activity multiset"
            )
        sizes = even_split_sizes(m, k)
        remaining = [
            (i, trace, tuple(e.activity for e in trace)) for i, trace in qa.members
        ]
        for (_, ref_trace), n_j in zip(qt.members, sizes):
            ref_acts = tuple(e.activity for e in ref_trace)
            remaining.sort(
                key=lambda item: (witness(item[2], ref_acts).distance, item[0])
            )
            take, remaining = remaining[:n_j], remaining[n_j:]
            for _, trace, acts in sorted(take, key=lambda item: item[0]):
                out.append(_transpose_to(trace, witness(acts, ref_acts)))
    unmatched = [ref_classes[ci] for ci in range(len(ref_classes)) if not used[ci]]
    if unmatched:
        acts = ", ".join(f"{a}:{n}" for a, n in unmatched[0].signature)
        raise MatchingError(f"reference traces with activities {{{acts}}} got no match")

    result = EventLog(attrs_identity=True)
    for trace in out:
        result.add(trace)
    return result


def _transpose_to(trace: Trace, witness: KendallResult) -> Trace:
    events = list(trace)
    for i in witness.transpositions:
        events[i], events[i + 1] = (
            events[i + 1].with_attrs(transposed="true"),
            events[i].with_attrs(transposed="true"),
        )
    return tuple(events)


# ---------------------------------------------------------------------------
# Full log abstraction
# ---------------------------------------------------------------------------

def ea_bpa(log: EventLog, spec: AggSpec) -> EventLog:
    """Discover a model from the log, abstract it, and abstract the log in
    sync with it."""
    abstraction = plan(discover(log), spec)
    if not abstraction.report.in_class:
        raise InapplicableError(abstraction.report)
    return ea2(ea1(log, abstraction), abstraction.tree)
