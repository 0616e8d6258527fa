"""Event-log abstraction synchronized with model abstraction.

The log is rewritten in two stages, both on trace variants with their
multiplicities: the output depends on the variants and their counts only,
so the work grows with the number of variants, not of traces.  Stage one
replaces, in each variant, the events of each aggregated group by a single
abstract event (doubled when the abstract activity is in parallel
self-relation, dropped when a kept activity in the same trace is in choice
relation with it) and then breaks co-occurrence of mutually exclusive
abstract activities by a round-robin deletion over the traces.  Stage two
redistributes the traces over the minimal log of the abstracted model:
traces are grouped by activity multiset, matched to reference traces with
the same multiset, and reordered by the fewest adjacent transpositions
(Kendall tau distance), marking every moved event.  The matching ranks
candidates by Kendall distance, read off bitmasks built once per trace
(:func:`_order_mask`), and marks the events of a taken trace that are in an
inverted pair: those a shortest sequence of adjacent transpositions moves.

Rediscovering a model from the abstracted log yields a tree isomorphic to
the abstracted model, provided the log lies in the restricted class and
the aggregation is applicable.
"""
from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict, deque
from itertools import accumulate
from typing import NamedTuple, Sequence

from .logs import Event, EventLog, Trace, trace_activities
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

class KendallResult(NamedTuple):
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
    perm = _slot_permutation(source, target)
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


def _slot_permutation(source: Sequence[str], target: Sequence[str]) -> list[int]:
    """The target position of each source symbol, duplicates left to right."""
    slots: dict[str, deque[int]] = defaultdict(deque)
    for i, sym in enumerate(target):
        slots[sym].append(i)
    return [slots[sym].popleft() for sym in source]


def _order_mask(acts: Sequence[str]) -> int:
    """Label the k-th occurrence of a symbol (symbol, k) and rank the L
    labels in sorted order; bit r*L + s is set when rank s > r comes first.
    Over one multiset, ``(mask_a ^ mask_b).bit_count()`` is the Kendall
    distance: copies of a symbol keep their order, so they never swap."""
    width = len(acts)
    rank = {sym: r for r, sym in reversed(list(enumerate(sorted(acts))))}
    seen = mask = 0
    for sym in acts:
        r = rank[sym]
        rank[sym] = r + 1
        mask |= (seen >> (r + 1)) << (r * width + r + 1)
        seen |= 1 << r
    return mask


# ---------------------------------------------------------------------------
# Stage one: aggregation per variant
# ---------------------------------------------------------------------------

def ea1(log: EventLog, abstraction: Abstraction) -> EventLog:
    """Replace aggregated activities by abstract events, once per variant,
    then break co-occurrence of choice-related abstract activities.  What
    becomes of each abstract activity is worked out once per activity set."""
    cover: dict[str, list[str]] = defaultdict(list)
    for x in sorted(abstraction.new_names):
        for a in abstraction.spec.agg[x]:
            cover[a].append(x)

    outcomes = functools.cache(functools.partial(_outcomes, abstraction, cover))
    runs = []
    for trace, n in log.variants():
        # each abstract activity stands at the first of its members
        pending = dict(outcomes(frozenset(trace_activities(trace))))
        out: list[Event] = []
        for event in trace:
            groups = cover.get(event.activity)
            if groups:
                for x in groups:
                    out.extend(pending.pop(x, ()))
            else:
                out.append(event)
        runs.append((tuple(out), n))
    result = EventLog()
    for trace, n in delete_choice_activities(runs, abstraction):
        result.add(trace, n)
    return result


def _outcomes(abstraction: Abstraction, cover, acts: frozenset[str]) -> dict[str, tuple[Event, ...]]:
    """The events standing for each abstract activity in a trace with
    activities ``acts``: none when a kept one is in choice relation with it,
    else one, or two when self-parallel, listing the members present."""
    profile = abstraction.profile
    kept_here = sorted(a for a in acts if a not in cover and a in profile.activities)
    emit: dict[str, tuple[Event, ...]] = {}
    for x in {x for a in acts for x in cover.get(a, ())}:
        if any(profile.relation(v, x) == CHOICE for v in kept_here):
            emit[x] = ()
            continue
        concrete = ";".join(sorted(abstraction.spec.agg[x] & acts))
        event = Event(x, attrs=(("concrete", concrete),))
        emit[x] = (event, event) if profile.relation(x, x) == PARALLEL else (event,)
    return emit


def choice_sets(abstraction: Abstraction) -> list[tuple[str, ...]]:
    """Maximal sets of pairwise choice-related abstract activities (new
    names only); their members must not co-occur in any abstracted trace.

    They are the maximal cliques of two or more vertices of the choice
    graph, found by Bron–Kerbosch with Tomita pivoting (Tomita, Tanaka &
    Takahashi, TCS 2006) on an explicit stack of (clique, candidates,
    excluded) frames."""
    new, relation = abstraction.new_names, abstraction.profile.relation
    adj = {x: {y for y in new if y != x and relation(x, y) == CHOICE} for x in new}
    cliques = []
    stack = [((), set(new), set())]
    while stack:
        clique, cand, excl = stack.pop()
        if not cand:
            if not excl and len(clique) >= 2:
                cliques.append(tuple(sorted(clique)))
            continue
        pivot = max(cand | excl, key=lambda u: len(adj[u] & cand))
        for v in cand - adj[pivot]:
            stack.append((clique + (v,), cand & adj[v], excl & adj[v]))
            cand.discard(v)
            excl.add(v)
    return sorted(cliques)


def delete_choice_activities(
    runs: list[tuple[Trace, int]], abstraction: Abstraction
) -> list[tuple[Trace, int]]:
    """In traces where several members of a choice set co-occur, keep one
    member and delete the rest; the kept member rotates round-robin over
    offending traces so deletion frequencies stay balanced.

    Works on runs ``(trace, copies)``.  Each set's pointer advances once
    per offending copy and matters only mod the set size, so the copies of
    a run repeat with period P, the product of the sizes of the sets the
    trace offends: copy i < min(copies, P) stands for i, i + P, i + 2P, ...
    and, P copies leaving every pointer where it was, the pointers resume
    from their values after copies mod P.
    """
    sets = choice_sets(abstraction)
    ptrs = [0] * len(sets)
    out: list[tuple[Trace, int]] = []
    for trace, copies in runs:
        acts = {e.activity for e in trace}
        period = math.prod(len(m) for m in sets if len(acts.intersection(m)) >= 2)
        resume = None
        for i in range(min(copies, period)):
            if i == copies % period:
                resume = list(ptrs)
            kept = trace
            for j, members in enumerate(sets):
                present = {e.activity for e in kept}.intersection(members)
                if len(present) >= 2:
                    p = ptrs[j] % len(members)
                    keeper = next(x for x in members[p:] + members[:p] if x in present)
                    kept = tuple(e for e in kept if e.activity == keeper or e.activity not in members)
                    ptrs[j] += 1
            out.append((kept, (copies - i - 1) // period + 1))
        if resume is not None:
            ptrs = resume
    return out


# ---------------------------------------------------------------------------
# Stage two: redistribution over the reference log
# ---------------------------------------------------------------------------

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
    transpositions.  The copies of a variant are adjacent and equally far
    from every reference, so the greedy choice (fewest transpositions, then
    earliest trace) takes them as one block, by count."""
    require_class(model, "C_a")
    ref_classes: dict[tuple, list[tuple[tuple[str, ...], int]]] = {}
    for ref, n in minimal_log(model).variants():
        acts = trace_activities(ref)
        ref_classes.setdefault(tuple(sorted(acts)), []).extend([(acts, _order_mask(acts))] * n)
    pool_classes: dict[tuple, list[list]] = {}
    for index, (trace, n) in enumerate(abstracted.variants()):
        acts = trace_activities(trace)
        item = [index, trace, acts, n, _order_mask(acts)]
        pool_classes.setdefault(tuple(sorted(acts)), []).append(item)
    reorder = functools.cache(_reorder)  # variants may share a sequence
    result = EventLog()
    for sig, remaining in pool_classes.items():
        refs = ref_classes.pop(sig, None)
        if refs is None:
            acts = ", ".join(f"{a}:{n}" for a, n in Counter(sig).items())
            raise MatchingError(f"no reference trace with activities {{{acts}}}")
        m, k = sum(item[3] for item in remaining), len(refs)
        if m < k:
            raise MatchingError(
                f"{m} abstracted trace(s) cannot cover {k} reference trace(s) "
                f"of the same activity multiset"
            )
        for (ref_acts, ref_mask), need in zip(refs, even_split_sizes(m, k)):
            remaining.sort(key=lambda item: ((item[4] ^ ref_mask).bit_count(), item[0]))
            taken = []  # (index, trace, acts, copies), a prefix of remaining
            while need:
                item = remaining[0]
                n = min(need, item[3])
                taken.append((*item[:3], n))
                need -= n
                item[3] -= n
                if not item[3]:
                    remaining.pop(0)
            for _, trace, acts, n in sorted(taken):
                events = (trace[i].with_attrs(transposed="true") if moved else trace[i]
                          for i, moved in reorder(acts, ref_acts))
                result.add(tuple(events), n)
    if ref_classes:
        acts = ", ".join(f"{a}:{n}" for a, n in Counter(next(iter(ref_classes))).items())
        raise MatchingError(f"reference traces with activities {{{acts}}} got no match")
    return result


def _reorder(source: tuple[str, ...], target: tuple[str, ...]) -> tuple[tuple[int, bool], ...]:
    """For each position of ``target``, the source position of its event and
    whether the event is in an inverted pair of the slot permutation, that
    is, whether a shortest sequence of adjacent transpositions moves it."""
    perm = _slot_permutation(source, target)
    earlier_max = [-1, *accumulate(perm, max)]
    later_min = [*accumulate(reversed(perm), min)][::-1] + [len(perm)]
    order = [(0, False)] * len(perm)
    for i, slot in enumerate(perm):
        order[slot] = (i, earlier_max[i] > slot or slot > later_min[i + 1])
    return tuple(order)


# ---------------------------------------------------------------------------
# Full log abstraction
# ---------------------------------------------------------------------------

def synchronize(log: EventLog, abstraction: Abstraction) -> EventLog:
    """The log abstracted in sync with the planned abstraction of its model:
    the applicability gate (:class:`InapplicableError`), then both stages."""
    if not abstraction.report.in_class:
        raise InapplicableError(abstraction.report)
    return ea2(ea1(log, abstraction), abstraction.tree)


def ea_bpa(log: EventLog, spec: AggSpec) -> EventLog:
    """Discover a model from the log, abstract it, and abstract the log in
    sync with it."""
    return synchronize(log, plan(discover(log), spec))
