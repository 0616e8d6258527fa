"""Behavioral profiles: strict order, choice, and parallel relations.

Every ordered activity pair (including self-pairs) is classified from the
*weak order* (eventually-follows) relation: ``x`` before ``y`` but never the
reverse gives strict order ``->``; neither direction gives choice ``+``;
both directions give parallel ``||``.  Self-pairs are ``||`` exactly when
the activity can repeat (here: sits under a self-loop), else ``+``.

The computation is structural: in a duplicate-free tree the operator at
the lowest common ancestor of two activities fixes their relation.  So each
operator node relates the activities of every two of its children: a
``seq`` node gives ``->`` from an earlier child to a later one, ``xor``
gives ``+`` and ``and`` gives ``||``.
"""
from __future__ import annotations

from typing import Callable, Iterator, Mapping, NamedTuple

from .trees import ProcessTree, _dot, require_class

STRICT = "->"
INVERSE = "<-"
CHOICE = "+"
PARALLEL = "||"

RELATIONS = (STRICT, INVERSE, CHOICE, PARALLEL)

_MIRROR = {STRICT: INVERSE, INVERSE: STRICT, CHOICE: CHOICE, PARALLEL: PARALLEL}

#: relation of an operator's earlier child's activities to a later child's
_NODE_RELATION = {"seq": STRICT, "xor": CHOICE, "and": PARALLEL}


def mirror(relation: str) -> str:
    return _MIRROR[relation]


class _ProfileFields(NamedTuple):
    activities: frozenset[str]
    relations: Mapping[tuple[str, str], str]


class BehavioralProfile(_ProfileFields):
    """Total relation assignment over ordered activity pairs."""

    __slots__ = ()

    def __new__(cls, activities: frozenset[str],
                relations: Mapping[tuple[str, str], str]) -> "BehavioralProfile":
        acts = sorted(activities)
        for x in acts:
            for y in acts:
                rel = relations.get((x, y))
                if rel not in RELATIONS:
                    raise ValueError(f"missing or invalid relation for ({x}, {y}): {rel!r}")
                if relations[(y, x)] != mirror(rel):
                    raise ValueError(f"relation of ({y}, {x}) does not mirror ({x}, {y})")
        return super().__new__(cls, activities, relations)

    def relation(self, x: str, y: str) -> str:
        return self.relations[(x, y)]

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Unordered pairs including self-pairs, lexicographically."""
        acts = sorted(self.activities)
        for i, x in enumerate(acts):
            for y in acts[i:]:
                yield x, y

    def matrix_tsv(self) -> str:
        """Relation matrix with symbols ``->``, ``<-``, ``+``, ``||``."""
        acts = sorted(self.activities)
        lines = ["\t".join([""] + acts)]
        for x in acts:
            lines.append("\t".join([x] + [self.relations[(x, y)] for y in acts]))
        return "\n".join(lines) + "\n"


def profile_from_function(acts, rel: Callable[[str, str], str]) -> BehavioralProfile:
    """Build a profile by evaluating ``rel`` once per unordered pair."""
    acts = sorted(set(acts))
    relations: dict[tuple[str, str], str] = {}
    for i, x in enumerate(acts):
        for y in acts[i:]:
            r = rel(x, y)
            relations[(x, y)] = r
            relations[(y, x)] = mirror(r)
    return BehavioralProfile(frozenset(acts), relations)


# ---------------------------------------------------------------------------
# Structural computation
# ---------------------------------------------------------------------------

def behavioral_profile(model: ProcessTree) -> BehavioralProfile:
    """Profile of a duplicate-free tree in one recursion over its operator
    nodes: each relates the activities of every two of its children."""
    require_class(model, "C_c")
    relations: dict[tuple[str, str], str] = {}

    def visit(t: ProcessTree) -> list[str]:
        """The activities of ``t``, after relating its pairs."""
        if not t.children:
            if t.is_tau:
                return []
            relations[t.label, t.label] = CHOICE
            return [t.label]
        if t.label == "loop":  # loop(v, tau) in C_c: v may repeat
            v = t.children[0].label
            relations[v, v] = PARALLEL
            return [v]
        rel = _NODE_RELATION[t.label]
        back = mirror(rel)
        acts: list[str] = []
        for c in t.children:
            later = visit(c)
            for x in acts:
                for y in later:
                    relations[x, y] = rel
                    relations[y, x] = back
            acts += later
        return acts

    return BehavioralProfile(frozenset(visit(model)), relations)


# ---------------------------------------------------------------------------
# Order-relations graph
# ---------------------------------------------------------------------------

class OrderRelationsGraph(NamedTuple):
    """Directed graph with edges for strict order and (both ways) choice;
    parallel pairs contribute no edge, identity is excluded."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]


def order_relations_graph(profile: BehavioralProfile) -> OrderRelationsGraph:
    edges: set[tuple[str, str]] = set()
    for x, y in profile.pairs():
        if x == y:
            continue
        rel = profile.relation(x, y)
        if rel == STRICT:
            edges.add((x, y))
        elif rel == INVERSE:
            edges.add((y, x))
        elif rel == CHOICE:
            edges.add((x, y))
            edges.add((y, x))
    return OrderRelationsGraph(profile.activities, frozenset(edges))


def graph_to_dot(g: OrderRelationsGraph) -> str:
    return _dot("order_relations", {v: (v, "box") for v in sorted(g.vertices)}, sorted(g.edges))
