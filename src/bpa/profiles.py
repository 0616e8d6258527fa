"""Behavioral profiles: strict order, choice, and parallel relations.

Every ordered activity pair (including self-pairs) is classified from the
*weak order* (eventually-follows) relation: ``x`` before ``y`` but never the
reverse gives strict order ``->``; neither direction gives choice ``+``;
both directions give parallel ``||``.  Self-pairs are ``||`` exactly when
the activity can repeat (here: sits under a self-loop), else ``+``.  A
profile stores the weak order, one bitmask per activity over the sorted
alphabet, so it is mirrored by construction.

The computation is structural: in a duplicate-free tree the operator at
the lowest common ancestor of two activities fixes their relation.  So each
operator node relates the activities of every two of its children: a
``seq`` node puts an earlier child's activities weakly before a later
child's, ``and`` puts them before each other's and ``xor`` puts none.
"""
from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Callable, Iterator, Mapping, NamedTuple

from .trees import ProcessTree, _dot, activities, require_class

STRICT = "->"
INVERSE = "<-"
CHOICE = "+"
PARALLEL = "||"

_MIRROR = {STRICT: INVERSE, INVERSE: STRICT, CHOICE: CHOICE, PARALLEL: PARALLEL}

#: a relation by its two weak-order bits, ``x before y | (y before x) << 1``
_SYMBOLS = (CHOICE, STRICT, INVERSE, PARALLEL)
_BITS = {r: b for b, r in enumerate(_SYMBOLS)}


def mirror(relation: str) -> str:
    return _MIRROR[relation]


class _ProfileFields(NamedTuple):
    activities: frozenset[str]
    index: Mapping[str, int]  # position in the sorted alphabet
    masks: tuple[int, ...]  # bit j of masks[i]: activity i weakly before activity j


class BehavioralProfile(_ProfileFields):
    """Total relation assignment over ordered activity pairs."""

    __slots__ = ()

    def __new__(cls, activities: frozenset[str],
                relations: Mapping[tuple[str, str], str]) -> "BehavioralProfile":
        acts = sorted(activities)
        masks = [0] * len(acts)
        for i, x in enumerate(acts):
            for j, y in enumerate(acts):
                rel = relations.get((x, y))
                if rel not in _SYMBOLS:
                    raise ValueError(f"missing or invalid relation for ({x}, {y}): {rel!r}")
                if relations[(y, x)] != mirror(rel):
                    raise ValueError(f"relation of ({y}, {x}) does not mirror ({x}, {y})")
                masks[i] |= (_BITS[rel] & 1) << j
        return _profile(acts, masks)

    def relation(self, x: str, y: str) -> str:
        i, j = self.index[x], self.index[y]
        return _SYMBOLS[(self.masks[i] >> j & 1) | (self.masks[j] >> i & 1) << 1]

    def __reduce__(self):  # copy and pickle pass the fields, not the checked mapping
        return type(self)._make, (tuple(self),)

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Unordered pairs including self-pairs, lexicographically."""
        return combinations_with_replacement(self.index, 2)

    def matrix_tsv(self) -> str:
        """Relation matrix with symbols ``->``, ``<-``, ``+``, ``||``."""
        acts = list(self.index)
        lines = ["\t".join([""] + acts)]
        for x in acts:
            lines.append("\t".join([x] + [self.relation(x, y) for y in acts]))
        return "\n".join(lines) + "\n"


def _profile(acts: list[str], masks: list[int]) -> BehavioralProfile:
    """The profile of sorted ``acts`` and their masks, without the checks."""
    index = {a: i for i, a in enumerate(acts)}
    return BehavioralProfile._make((frozenset(acts), index, tuple(masks)))


def profile_from_function(acts, rel: Callable[[str, str], str]) -> BehavioralProfile:
    """Build a profile by evaluating ``rel`` once per unordered pair."""
    acts = sorted(set(acts))
    masks = [0] * len(acts)
    for i, x in enumerate(acts):
        for j in range(i, len(acts)):
            bits = _BITS[rel(x, acts[j])]
            masks[i] |= (bits & 1) << j
            masks[j] |= (bits >> 1) << i
    return _profile(acts, masks)


# ---------------------------------------------------------------------------
# Structural computation
# ---------------------------------------------------------------------------

def behavioral_profile(model: ProcessTree) -> BehavioralProfile:
    """Profile of a duplicate-free tree in one recursion over its operator
    nodes: each relates the activities of every two of its children."""
    require_class(model, "C_c")
    acts = sorted(activities(model))
    index = {a: i for i, a in enumerate(acts)}
    masks = [0] * len(acts)

    def visit(t: ProcessTree) -> list[int]:
        """The positions of ``t``'s activities, after relating its pairs."""
        if not t.children:
            return [] if t.is_tau else [index[t.label]]
        if t.label == "loop":  # loop(v, tau) in C_c: v may repeat
            i = index[t.children[0].label]
            masks[i] |= 1 << i
            return [i]
        kids = list(map(visit, t.children))
        bits = [sum(1 << i for i in k) for k in kids]
        later = whole = sum(bits)  # the children's activities are disjoint
        for members, b in zip(kids, bits):
            later -= b
            grant = later if t.label == "seq" else whole - b if t.label == "and" else 0
            for i in members:
                masks[i] |= grant
        return [i for k in kids for i in k]

    visit(model)
    return _profile(acts, masks)


# ---------------------------------------------------------------------------
# Order-relations graph
# ---------------------------------------------------------------------------

class OrderRelationsGraph(NamedTuple):
    """Directed graph with edges for strict order and (both ways) choice;
    parallel pairs contribute no edge, identity is excluded."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]


def order_relations_graph(profile: BehavioralProfile) -> OrderRelationsGraph:
    acts, masks = list(profile.index), profile.masks
    edges = frozenset(  # y not weakly before x: x strictly before y, or in choice
        (x, y) for i, x in enumerate(acts) for j, y in enumerate(acts)
        if i != j and not masks[j] >> i & 1
    )
    return OrderRelationsGraph(profile.activities, edges)


def graph_to_dot(g: OrderRelationsGraph) -> str:
    return _dot("order_relations", {v: (v, "box") for v in sorted(g.vertices)}, sorted(g.edges))
