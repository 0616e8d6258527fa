"""Discovery of block-structured trees from event logs, with an audit of
which mechanisms produced the result.

The miner is a restricted inductive miner: it recurses over the directly-
follows graph with the choice, sequence and parallel cuts, handles empty
traces by wrapping the remainder in an optional branch, and turns a
single-activity log with repetitions into a self-loop.  There is no
general loop cut.  When no rule applies it falls through to a flower model
over the sublog's alphabet and records which of the classic fall-through
detectors (tau-loop, activity-once-per-trace, activity-concurrent) would
have fired at that point.

:func:`audit_restrictions` inspects the discovery audit and the resulting
tree and reports everything that places the log outside the restricted
class: forbidden fall-throughs, loop nodes that are not plain self-loops,
and sequence nodes with activity or self-loop children.
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable, NamedTuple

from .logs import EventLog, _dfg_edges
from .trees import (
    KEYWORDS,
    MAX_TREE_DEPTH,
    ClassReport,
    ProcessTree,
    _classes,
    _closure,
    _masks,
    _members,
    leaf,
    node,
    normal_form,
    tau,
    walk,
)

#: Fall-throughs that disqualify a log from the restricted class.  Only
#: "flower" can actually be executed here; the other three are detector
#: names recorded in ``DiscoveryAudit.detected``.
FORBIDDEN_FALLTHROUGHS = (
    "tau-loop",
    "activity-once-per-trace",
    "activity-concurrent",
    "flower",
)


class DiscoveryAudit(SimpleNamespace):
    """Trace of one discovery run.

    cuts_used/fallthroughs_used list what actually executed, in recursion
    order; detected lists fall-through detectors that fired at a flower
    step without being executed; failures lists cut candidates that were
    found but rejected by validation.  Each audit holds its own lists.
    """

    def __init__(self, cuts_used: Iterable[str] = (), fallthroughs_used: Iterable[str] = (),
                 detected: Iterable[str] = (), failures: Iterable[str] = ()) -> None:
        super().__init__(cuts_used=[*cuts_used], fallthroughs_used=[*fallthroughs_used],
                         detected=[*detected], failures=[*failures])


class RestrictionCheck(NamedTuple):
    tree: ProcessTree
    audit: DiscoveryAudit
    report: ClassReport

    @property
    def restricted(self) -> bool:
        return self.report.in_class


def discover(log: EventLog, audit: DiscoveryAudit | None = None) -> ProcessTree:
    """Discover a process tree from the control-flow variants of ``log``;
    raises ``ValueError`` on an activity named like a tree keyword, and
    before operators would nest deeper than
    :data:`~bpa.trees.MAX_TREE_DEPTH` levels."""
    if not log:
        raise ValueError("cannot discover a model from an empty log")
    variants = sorted({acts for acts, _ in log.activity_variants()})
    keywords = sorted(KEYWORDS & {a for acts in variants for a in acts})
    if keywords:
        raise ValueError(f"activity {keywords[0]!r} is a tree keyword")
    tree = _discover(variants, audit if audit is not None else DiscoveryAudit())
    return normal_form(tree)


def check_restricted(log: EventLog) -> RestrictionCheck:
    audit = DiscoveryAudit()
    tree = discover(log, audit)
    return RestrictionCheck(tree=tree, audit=audit, report=audit_restrictions(tree, audit))


def audit_restrictions(tree: ProcessTree, audit: DiscoveryAudit) -> ClassReport:
    violations: list[tuple[str, str, str]] = []
    for name in audit.fallthroughs_used:
        if name in FORBIDDEN_FALLTHROUGHS:
            violations.append(
                ("forbidden-fallthrough", "", f"discovery used the '{name}' fall-through")
            )
    for path, n in walk(tree):
        if n.label == "loop" and not n.is_self_loop:
            violations.append(
                ("loop-cut", path, "loop node is not a single-activity self-loop")
            )
        if n.label == "seq":
            for i, child in enumerate(n.children):
                if child.is_activity or child.is_self_loop:
                    child_path = f"{path}.{i}" if path else str(i)
                    violations.append(
                        ("model-structure", child_path,
                         "sequence child is an activity or self-loop")
                    )
    return ClassReport.from_violations(violations)


# ---------------------------------------------------------------------------
# Recursion
# ---------------------------------------------------------------------------

def _discover(
    variants: list[tuple[str, ...]], audit: DiscoveryAudit, depth: int = 0
) -> ProcessTree:
    variants = sorted(set(variants))
    alphabet = sorted({a for v in variants for a in v})

    if not alphabet:
        return tau()
    if len(alphabet) == 1 and all(v == (alphabet[0],) for v in variants):
        return leaf(alphabet[0])
    # every other outcome is an operator node at this depth
    if depth == MAX_TREE_DEPTH:
        raise ValueError(
            f"discovery nests operators deeper than MAX_TREE_DEPTH ({MAX_TREE_DEPTH}) levels"
        )
    depth += 1
    if any(not v for v in variants):
        audit.fallthroughs_used.append("empty-traces")
        rest = _discover([v for v in variants if v], audit, depth)
        return node("xor", tau(), rest)

    edges, starts, ends = _dfg_edges(variants)

    parts = _choice_cut(alphabet, edges)
    if parts is not None:
        audit.cuts_used.append("choice")
        assigned = {p: [] for p in parts}
        comp_of = {a: p for p in parts for a in p}
        for v in variants:
            assigned[comp_of[v[0]]].append(v)
        return node("xor", *(_discover(assigned[p], audit, depth) for p in parts))

    groups = _sequence_cut(alphabet, edges)
    if groups is not None:
        audit.cuts_used.append("sequence")
        return node("seq", *(_discover(_project(variants, g), audit, depth) for g in groups))

    parts = _parallel_cut(alphabet, edges, starts, ends, audit)
    if parts is not None:
        audit.cuts_used.append("parallel")
        return node("and", *(_discover(_project(variants, p), audit, depth) for p in parts))

    if len(alphabet) == 1:
        audit.fallthroughs_used.append("strict-tau-loop")
        return node("loop", leaf(alphabet[0]), tau())

    audit.fallthroughs_used.append("flower")
    for name in _fired_detectors(variants, alphabet, starts):
        audit.detected.append(name)
    body = node("xor", *(leaf(a) for a in alphabet))
    return node("loop", body, tau())


def _project(variants, keep: frozenset[str]) -> list[tuple[str, ...]]:
    return [tuple(a for a in v if a in keep) for v in variants]


def _choice_cut(alphabet, edges) -> list[frozenset[str]] | None:
    out, into = _masks(alphabet, edges)
    parts = _classes((1 << len(alphabet)) - 1, lambda i: out[i] | into[i])
    return [_members(alphabet, p) for p in parts] if len(parts) > 1 else None


def _sequence_cut(alphabet, edges) -> list[frozenset[str]] | None:
    succ, pred = _masks(alphabet, edges)
    full = (1 << len(alphabet)) - 1
    # bitmasks of the activities each activity reaches, and is reached from,
    # over one or more edges
    reach = [_closure(mask, succ.__getitem__, full) for mask in succ]
    reached = [_closure(mask, pred.__getitem__, full) for mask in pred]
    # strongly connected and mutually unreachable activities share a group,
    # closed transitively
    groups = _classes(full, lambda i: full & ~(reach[i] ^ reached[i]))
    if len(groups) < 2:
        return None

    # the groups are the summands of an ordinal sum (Gallai 1967), so a group
    # with all that one member reaches is the suffix the group starts, and
    # each suffix holds the later ones
    groups.sort(key=lambda g: reach[g.bit_length() - 1] | g, reverse=True)
    return [_members(alphabet, g) for g in groups]


def _parallel_cut(alphabet, edges, starts, ends, audit: DiscoveryAudit) -> list[frozenset[str]] | None:
    out, into = _masks(alphabet, edges)
    full = (1 << len(alphabet)) - 1
    parts = [_members(alphabet, p) for p in _classes(full, lambda i: full & ~(out[i] & into[i]))]
    if len(parts) < 2:
        return None
    valid = [p for p in parts if p & starts and p & ends]
    if not valid:
        audit.failures.append("parallel-cut: no part contains both a start and an end activity")
        return None
    if len(valid) < len(parts):
        # parts without a start or end activity cannot stand alone
        merged = valid[0].union(*(p for p in parts if p not in valid))
        parts = sorted([merged, *valid[1:]], key=min)
    if len(parts) < 2:
        audit.failures.append("parallel-cut: merging start/end-less parts left one part")
        return None
    return parts


def _fired_detectors(variants, alphabet, starts) -> list[str]:
    fired = []
    if any(len(v) >= 2 and any(a in starts for a in v[1:]) for v in variants):
        fired.append("tau-loop")
    if any(all(v.count(a) == 1 for v in variants) for a in alphabet):
        fired.append("activity-once-per-trace")
    if any(all(a in v for v in variants) for a in alphabet):
        fired.append("activity-concurrent")
    return fired
