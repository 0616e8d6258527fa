"""Reference implementations of the fast paths, for the tests to compare
against.

The model side: ``bpa`` counts the concrete pairs of each abstract pair in
integers and compares counts with the threshold by cross-multiplication.
The functions here build every relation weight as an exact ``Fraction``
and compare the weights themselves, which is the direct reading of the
cascade.  The spec generator weighs only the pairs with a group and reads
co-occurrence off the concrete relations; the oracle generator derives the
full abstract profile of every candidate and reads co-occurrence off the
traces of the base log.

The profiles: ``bpa`` relates the activities of every two children of
each operator node in one recursion; ``lca_profile`` builds the root path
of every activity and searches each pair's lowest common ancestor, and
``weak_order_oracle`` reads the relations off the traces of the minimal
log and one more loop unrolling (``enumerate_language``).

The graph side: ``bpa`` partitions activity sets with a small union of
classes, reads the sequence cut off per-activity reachability sets and
finds choice sets by Bron–Kerbosch on an explicit stack.  The networkx
versions here are the cuts, components and maximal cliques as first
written: on graphs, condensations, union-finds and ``find_cliques``.

The log side: ``bpa`` reads, abstracts and writes logs per variant, with
multiplicities.  The functions here do the same work one trace at a time,
expanding every multiplicity; the tests require the library's outputs to
equal theirs, variant order, attributes and CSV bytes included.  Stage two
ranks candidates by bitmasks of ordered label pairs; the oracle counts the
inversions of the slot permutation pair by pair.

Stage one: ``bpa`` works out once per activity set what becomes of each
abstract activity; the oracle works it out again for every trace
(``_abstract_trace``).  Stage two: ``bpa`` puts a trace into its
reference's order straight from the slot permutation and marks the events
in an inverted pair; the oracle replays the bubble-sort witness of
``kendall_distance`` swap by swap (``_transpose_to``).

The trees: ``bpa`` checks a class in one pass without paths and renders
canonical keys of ``xor`` branches only when two branches share their
activities; the versions here build the path-annotated report every time
and key every branch (``check_class``, ``normal_form``).  ``bpa`` appends
the interleavings of a minimal log to one list; the generator here yields
them up a chain as deep as the trace (``interleavings``).

Also here: small helpers that only the tests use (log metrics, replaying
a transposition witness, df-completeness, renaming activities, synthesis
from a profile alone).
"""
from __future__ import annotations

import csv
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Sequence

import networkx as nx

from bpa.event_abstraction import (
    MatchingError,
    KendallResult,
    _slot_permutation,
    even_split_sizes,
    kendall_distance,
)
from bpa.logs import DFG, Event, EventLog, Trace, dfg_of_log
from bpa.miner import DiscoveryAudit
from bpa.model_abstraction import Abstraction, AggSpec, _synthesize, expand_spec, modular_decomposition
from bpa.profiles import (
    CHOICE,
    INVERSE,
    PARALLEL,
    STRICT,
    BehavioralProfile,
    behavioral_profile,
    order_relations_graph,
    profile_from_function,
)
from bpa.semantics import DEFAULT_TRACE_CAP, minimal_log, ntl
from bpa.trees import (
    ClassReport,
    ProcessTree,
    activities,
    canonical,
    render_tree,
    require_class,
    walk,
)


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------

def check_class(tree: ProcessTree, which: str = "C_c") -> ClassReport:
    """The path-annotated class check, run in full on every tree."""
    if which not in ("C_c", "C_a"):
        raise ValueError(f"unknown tree class: {which!r}")
    violations: list[tuple[str, str, str]] = []

    seen: dict[str, str] = {}
    for path, name in [(p, t.label) for p, t in walk(tree) if t.is_activity]:
        if name in seen:
            violations.append(
                ("duplicate-activity", path, f"activity '{name}' already used at '{seen[name]}'")
            )
        else:
            seen[name] = path

    for path, t in walk(tree):
        if t.label == "loop" and not t.is_self_loop:
            violations.append(("loop-shape", path, "loop node is not of the form loop(v,tau)"))

    if which == "C_a":
        def scan(t: ProcessTree, path: str) -> None:
            if t.is_self_loop:
                return  # the only sanctioned tau
            if t.is_tau:
                violations.append(("tau-outside-self-loop", path, "tau leaf outside a self-loop"))
                return
            for i, c in enumerate(t.children):
                scan(c, f"{path}.{i}".lstrip("."))

        scan(tree, "")

    return ClassReport.from_violations(violations)


def normal_form(tree: ProcessTree) -> ProcessTree:
    """The normal form, keying every ``xor`` branch by its canonical
    rendering."""
    if not tree.is_operator:
        return tree
    kids = [normal_form(c) for c in tree.children]
    if tree.label == "loop":
        return ProcessTree("loop", tuple(kids))
    flat: list[ProcessTree] = []
    for c in kids:
        if c.label == tree.label:
            flat.extend(c.children)
        else:
            flat.append(c)
    if tree.label == "xor":
        seen: set[str] = set()
        unique = []
        for c in flat:
            key = render_tree(canonical(c))
            if key not in seen:
                seen.add(key)
                unique.append(c)
        flat = unique
    if len(flat) == 1:
        return flat[0]
    return ProcessTree(tree.label, tuple(flat))


def map_activities(tree: ProcessTree, fn: Callable[[str], str]) -> ProcessTree:
    """Rename activity leaves through ``fn`` (structure unchanged)."""
    if tree.is_activity:
        return ProcessTree(fn(tree.label))
    if not tree.is_operator:
        return tree
    return ProcessTree(tree.label, tuple(map_activities(c, fn) for c in tree.children))


def synthesize(profile: BehavioralProfile) -> ProcessTree | None:
    """Tree whose behavioral profile equals the given one, or None when a
    primitive module makes the profile unrealizable."""
    mdt = modular_decomposition(order_relations_graph(profile))
    return None if mdt.has_primitive() else _synthesize(profile, mdt)


def interleavings(seqs: tuple[Sequence, ...]) -> Iterator[tuple]:
    """Order-preserving shuffles, in lexicographic child-pick order."""
    n = len(seqs)
    total = sum(len(s) for s in seqs)

    def rec(positions: tuple[int, ...], acc: list) -> Iterator[tuple]:
        if len(acc) == total:
            yield tuple(acc)
            return
        for i in range(n):
            if positions[i] < len(seqs[i]):
                acc.append(seqs[i][positions[i]])
                bumped = positions[:i] + (positions[i] + 1,) + positions[i + 1:]
                yield from rec(bumped, acc)
                acc.pop()

    return rec((0,) * n, [])


# ---------------------------------------------------------------------------
# Relation weights and the selection cascade
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationWeights:
    """The four weak-order weights of an abstract pair and the relation
    weights derived from them (all exact rationals)."""

    x_before_y: Fraction
    y_before_x: Fraction
    x_not_before_y: Fraction
    y_not_before_x: Fraction
    choice: Fraction
    strict: Fraction
    inverse: Fraction
    parallel: Fraction

    @property
    def w_max(self) -> Fraction:
        return max(self.choice, self.strict, self.inverse, self.parallel)


def relation_weights(
    x: str, y: str, profile: BehavioralProfile, spec: AggSpec
) -> RelationWeights:
    gx, gy = spec.agg[x], spec.agg[y]
    n_xy = n_yx = n_not_xy = n_not_yx = 0
    for v, u in product(sorted(gx), sorted(gy)):
        rel = profile.relation(v, u)
        if rel in (STRICT, PARALLEL):
            n_xy += 1
        if rel in (INVERSE, PARALLEL):
            n_yx += 1
        if rel in (INVERSE, CHOICE):
            n_not_xy += 1
        if rel in (STRICT, CHOICE):
            n_not_yx += 1
    w_prod = len(gx) * len(gy)
    xb = Fraction(n_xy, w_prod)
    yb = Fraction(n_yx, w_prod)
    xnb = Fraction(n_not_xy, w_prod)
    ynb = Fraction(n_not_yx, w_prod)
    return RelationWeights(
        x_before_y=xb,
        y_before_x=yb,
        x_not_before_y=xnb,
        y_not_before_x=ynb,
        choice=min(xnb, ynb),
        strict=min(xb, ynb),
        inverse=min(yb, xnb),
        parallel=min(xb, yb),
    )


def select(w: RelationWeights, w_t: Fraction) -> str:
    """The cascade on the weights; below every threshold it defaults to
    parallel (where the library also logs a warning)."""
    if w.choice >= w_t:
        return CHOICE
    if w.strict >= w_t:
        if w.inverse > w.strict:
            return INVERSE
        return STRICT
    if w.inverse >= w_t:
        return INVERSE
    if w.parallel >= w_t:
        return PARALLEL
    return PARALLEL


def w_minmax(profile: BehavioralProfile, spec: AggSpec) -> Fraction:
    names = sorted(spec.agg)
    return min(
        relation_weights(x, y, profile, spec).w_max
        for i, x in enumerate(names)
        for y in names[i:]
    )


def minmax_profile(profile: BehavioralProfile, spec: AggSpec) -> tuple[Fraction, BehavioralProfile]:
    """``w_minmax`` and the full abstract profile derived at it."""
    limit = w_minmax(profile, spec)
    derived = profile_from_function(
        spec.agg, lambda x, y: select(relation_weights(x, y, profile, spec), limit)
    )
    return limit, derived


# ---------------------------------------------------------------------------
# Bounded language enumeration and the weak-order profile
# ---------------------------------------------------------------------------

def enumerate_language(tree: ProcessTree, loop_bound: int = 1) -> set[tuple[str, ...]]:
    """All traces of ``M`` with every loop unrolled ``1..loop_bound+1``
    times."""
    if tree.is_tau:
        return {()}
    if tree.is_activity:
        return {(tree.label,)}
    subs = [enumerate_language(c, loop_bound) for c in tree.children]
    if tree.label == "xor":
        return set().union(*subs)
    if tree.label == "seq":
        out = {()}
        for sub in subs:
            out = {a + b for a in out for b in sub}
        return out
    if tree.label == "and":
        out = {()}
        for sub in subs:
            out = {m for a in out for b in sub for m in interleavings((a, b))}
        return out
    # loop(body, redo_1..redo_k): body (redo body)^0..loop_bound
    body, redos = subs[0], set().union(*subs[1:])
    out = set(body)
    frontier = set(body)
    for _ in range(loop_bound):
        frontier = {f + r + b for f in frontier for r in redos for b in body}
        out |= frontier
    return out


def lca_profile(model: ProcessTree) -> BehavioralProfile:
    """Profile of a duplicate-free tree, one lowest-common-ancestor search
    over two root paths per pair."""
    require_class(model, "C_c")

    # Path of each activity: sequence of (node-identity, child-index) pairs.
    paths: dict[str, list[tuple[int, int, ProcessTree]]] = {}

    def collect(t: ProcessTree, prefix: list[tuple[int, int, ProcessTree]]) -> None:
        if t.is_activity:
            paths[t.label] = list(prefix)
            return
        for i, c in enumerate(t.children):
            collect(c, prefix + [(id(t), i, t)])

    collect(model, [])

    def lca_relation(x: str, y: str) -> str:
        px, py = paths[x], paths[y]
        if x == y:
            looped = any(n.label == "loop" for _, _, n in px)
            return PARALLEL if looped else CHOICE
        k = 0
        while k < len(px) and k < len(py) and px[k][0] == py[k][0] and px[k][1] == py[k][1]:
            k += 1
        # px[k] and py[k] share the node but diverge in child index.
        node = px[k][2]
        if node.label == "seq":
            return STRICT if px[k][1] < py[k][1] else INVERSE
        if node.label == "xor":
            return CHOICE
        if node.label == "and":
            return PARALLEL
        raise AssertionError("distinct activities cannot share a loop ancestor in C_c")

    return profile_from_function(paths.keys(), lca_relation)


def weak_order_oracle(model: ProcessTree, trace_cap: int = 2000) -> BehavioralProfile:
    """Profile recomputed from traces (minimal log + one loop unrolling)."""
    require_class(model, "C_c")
    if ntl(model).tr > trace_cap:
        raise RuntimeError(f"oracle cap of {trace_cap} traces exceeded")
    traces = {acts for acts, _ in minimal_log(model).activity_variants()}
    traces |= enumerate_language(model, 1)

    weak: set[tuple[str, str]] = set()
    for sigma in traces:
        for i in range(len(sigma)):
            for j in range(i + 1, len(sigma)):
                weak.add((sigma[i], sigma[j]))

    acts = {a for sigma in traces for a in sigma}

    def from_weak(x: str, y: str) -> str:
        xy, yx = (x, y) in weak, (y, x) in weak
        if xy and yx:
            return PARALLEL
        if xy:
            return STRICT
        if yx:
            return INVERSE
        return CHOICE

    return profile_from_function(acts, from_weak)


# ---------------------------------------------------------------------------
# Cuts, components and cliques on networkx
# ---------------------------------------------------------------------------

def choice_cut(alphabet, edges) -> list[frozenset[str]] | None:
    g = nx.Graph()
    g.add_nodes_from(alphabet)
    g.add_edges_from((a, b) for a, b in edges if a != b)
    comps = sorted((frozenset(c) for c in nx.connected_components(g)), key=min)
    return comps if len(comps) > 1 else None


def sequence_cut(alphabet, edges, audit: DiscoveryAudit) -> list[frozenset[str]] | None:
    dg = nx.DiGraph()
    dg.add_nodes_from(alphabet)
    dg.add_edges_from(edges)
    cond = nx.condensation(dg)
    reach = {i: nx.descendants(cond, i) for i in cond.nodes}

    # pairwise mutually unreachable strongly connected components end up in
    # the same group; union-find closes the merge transitively
    uf = nx.utils.UnionFind(cond.nodes)
    for i, j in combinations(cond.nodes, 2):
        if j not in reach[i] and i not in reach[j]:
            uf.union(i, j)
    groups = [frozenset(s) for s in uf.to_sets()]
    if len(groups) < 2:
        return None

    # across two groups every component pair is reachable in exactly one
    # direction; the direction must be uniform, else there is no cut
    forward: dict[tuple[int, int], bool] = {}
    for gi, gj in combinations(range(len(groups)), 2):
        dirs = {j in reach[i] for i in groups[gi] for j in groups[gj]}
        if len(dirs) != 1:
            audit.failures.append("sequence-cut: mixed directions between groups")
            return None
        forward[(gi, gj)] = dirs.pop()

    wins = [0] * len(groups)
    for (gi, gj), fwd in forward.items():
        wins[gi if fwd else gj] += 1
    order = sorted(range(len(groups)), key=lambda i: -wins[i])

    members = cond.graph["mapping"]  # activity -> condensation node
    return [
        frozenset(a for a in alphabet if members[a] in groups[i])
        for i in order
    ]


def parallel_cut(alphabet, edges, starts, ends, audit: DiscoveryAudit) -> list[frozenset[str]] | None:
    uf = nx.utils.UnionFind(alphabet)
    for a, b in combinations(sorted(alphabet), 2):
        if not ((a, b) in edges and (b, a) in edges):
            uf.union(a, b)
    parts = sorted((frozenset(s) for s in uf.to_sets()), key=min)
    if len(parts) < 2:
        return None
    valid = [p for p in parts if p & starts and p & ends]
    if not valid:
        audit.failures.append("parallel-cut: no part contains both a start and an end activity")
        return None
    if len(valid) < len(parts):
        # parts without a start or end activity cannot stand alone
        merged = set(valid[0])
        for p in parts:
            if p not in valid:
                merged |= p
        parts = sorted(
            [frozenset(merged) if p == valid[0] else p for p in valid], key=min
        )
    if len(parts) < 2:
        audit.failures.append("parallel-cut: merging start/end-less parts left one part")
        return None
    return parts


def components(vertices: frozenset[str], adjacent) -> list[frozenset[str]]:
    g = nx.Graph()
    g.add_nodes_from(vertices)
    vs = sorted(vertices)
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if adjacent(a, b):
                g.add_edge(a, b)
    return sorted((frozenset(c) for c in nx.connected_components(g)), key=min)


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


# ---------------------------------------------------------------------------
# The spec generator's group check
# ---------------------------------------------------------------------------

def random_spec(
    tree: ProcessTree, base: EventLog, rng: random.Random, count: int, size: int, unrestricted: bool
) -> AggSpec | None:
    """The generator's spec sampling, deriving the full abstract profile of
    every candidate grouping at its ``w_minmax``."""
    acts = sorted(activities(tree))
    profile = behavioral_profile(tree)
    trace_sets = [set(v) for v, _ in base.activity_variants()]
    for _ in range(10):
        chosen = rng.sample(acts, count * size)
        groups = {
            f"X{i + 1}": frozenset(chosen[i * size:(i + 1) * size])
            for i in range(count)
        }
        full = expand_spec(AggSpec(agg=groups, w_t=Fraction(1)), acts)
        w_t, abstract = minmax_profile(profile, full)
        if unrestricted or choices_hold(abstract, full, trace_sets):
            return AggSpec(agg=groups, w_t=w_t)
    return None


def choices_hold(abstract: BehavioralProfile, full: AggSpec, trace_sets: list[set[str]]) -> bool:
    """True when no two choice-related abstract activities have members
    co-occurring in a trace."""
    names = sorted(full.agg)
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            if abstract.relation(x, y) != CHOICE:
                continue
            gx, gy = full.agg[x], full.agg[y]
            if any(ts & gx and ts & gy for ts in trace_sets):
                return False
    return True


# ---------------------------------------------------------------------------
# Test-only helpers
# ---------------------------------------------------------------------------

def log_metrics(log: EventLog) -> tuple[int, int]:
    """``(number of traces, total number of events)``."""
    return log.num_traces, log.num_events


def apply_transpositions(items: Sequence, transpositions: Iterable[int]) -> list:
    out = list(items)
    for i in transpositions:
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def dfg_of_model(tree: ProcessTree, trace_cap: int = DEFAULT_TRACE_CAP) -> DFG:
    """``G(M)``, computed from the minimal df-complete log."""
    return dfg_of_log(minimal_log(tree, trace_cap))


def df_complete(log: EventLog, tree: ProcessTree, trace_cap: int = DEFAULT_TRACE_CAP) -> bool:
    """True iff ``G(L)`` and ``G(M)`` are equal (nodes and edges)."""
    return dfg_of_log(log) == dfg_of_model(tree, trace_cap)


# ---------------------------------------------------------------------------
# Stage one
# ---------------------------------------------------------------------------

def ea1(log: EventLog, abstraction: Abstraction) -> EventLog:
    cover: dict[str, list[str]] = defaultdict(list)
    for x in sorted(abstraction.new_names):
        for a in abstraction.spec.agg[x]:
            cover[a].append(x)

    out = [_abstract_trace(trace, abstraction, cover) for trace in log.traces()]
    out = delete_choice_activities(out, abstraction)
    result = EventLog()
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


def delete_choice_activities(traces: list[Trace], abstraction: Abstraction) -> list[Trace]:
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
# Stage two
# ---------------------------------------------------------------------------

def inversions(source: Sequence[str], target: Sequence[str]) -> int:
    """The Kendall distance of two sequences over one multiset, without a
    witness: the inversion count of their slot permutation."""
    perm = _slot_permutation(source, target)
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])


def _transpose_to(trace: Trace, witness: KendallResult) -> Trace:
    events = list(trace)
    for i in witness.transpositions:
        events[i], events[i + 1] = (
            events[i + 1].with_attrs(transposed="true"),
            events[i].with_attrs(transposed="true"),
        )
    return tuple(events)


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


def ea2(abstracted: EventLog, model: ProcessTree) -> EventLog:
    require_class(model, "C_a")
    reference = list(minimal_log(model).traces())
    ref_classes = quotient(reference)
    pool_classes = quotient(list(abstracted.traces()))

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

    result = EventLog()
    for trace in out:
        result.add(trace)
    return result


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def read_csv_log(source) -> EventLog:
    reader = csv.DictReader(source)
    if reader.fieldnames is None or "case" not in reader.fieldnames or "activity" not in reader.fieldnames:
        raise ValueError("CSV log needs 'case' and 'activity' columns")
    has_ts = "timestamp" in reader.fieldnames
    attr_cols = [c for c in reader.fieldnames if c.startswith("attr:")]
    special_cols = [c for c in ("concrete", "transposed") if c in reader.fieldnames]
    cases: dict[str, list] = {}
    last = max("case", "activity", key=reader.fieldnames.index)
    for i, row in enumerate(reader):
        if row[last] is None:
            raise ValueError(f"CSV line {reader.line_num}: row has no '{last}' field")
        named = [(c[5:], row[c]) for c in attr_cols if row.get(c)]
        named += [(c, row[c]) for c in special_cols if row.get(c)]
        ev = Event(row["activity"], tuple(sorted(named)))
        ts = row.get("timestamp", "") if has_ts else ""
        cases.setdefault(row["case"], []).append((ts, i, ev))
    log = EventLog()
    for case in cases:
        rows = cases[case]
        if has_ts:
            rows.sort(key=lambda r: (_timestamp_key(r[0]), r[1]))
        log.add([ev for _, _, ev in rows])
    return log


def _timestamp_key(ts: str):
    try:
        value = float(ts)
    except ValueError:
        return (1, ts)
    return (0, value) if value == value else (1, ts)  # nan orders with no number: text


def write_csv_log(log: EventLog, target) -> None:
    special = ("concrete", "transposed")
    attr_names = sorted(
        {k for t, _ in log.variants() for e in t for k, _ in e.attrs if k not in special}
    )
    fields = ["case", "activity", *special, *(f"attr:{a}" for a in attr_names)]
    writer = csv.DictWriter(target, fieldnames=fields)
    writer.writeheader()
    case_no = 0
    for trace, count in log.variants():
        for _ in range(count):
            case_no += 1
            for ev in trace:
                row = {"case": f"c{case_no}", "activity": ev.activity}
                for s in special:
                    row[s] = ev.get(s, "")
                for a in attr_names:
                    row[f"attr:{a}"] = ev.get(a, "")
                writer.writerow(row)
