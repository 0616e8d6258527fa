"""Behavioral profiles: strict order, choice, and parallel relations.

Every ordered activity pair (including self-pairs) is classified from the
*weak order* (eventually-follows) relation: ``x`` before ``y`` but never the
reverse gives strict order ``->``; neither direction gives choice ``+``;
both directions give parallel ``||``.  Self-pairs are ``||`` exactly when
the activity can repeat (here: sits under a self-loop), else ``+``.

The computation is structural: for duplicate-free trees the relation of a
pair is fully determined by the lowest common ancestor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .trees import ProcessTree, require_class

STRICT = "->"
INVERSE = "<-"
CHOICE = "+"
PARALLEL = "||"

RELATIONS = (STRICT, INVERSE, CHOICE, PARALLEL)

_MIRROR = {STRICT: INVERSE, INVERSE: STRICT, CHOICE: CHOICE, PARALLEL: PARALLEL}


def mirror(relation: str) -> str:
    return _MIRROR[relation]


@dataclass(frozen=True)
class BehavioralProfile:
    """Total relation assignment over ordered activity pairs."""

    activities: frozenset[str]
    relations: Mapping[tuple[str, str], str]

    def __post_init__(self) -> None:
        acts = sorted(self.activities)
        for x in acts:
            for y in acts:
                rel = self.relations.get((x, y))
                if rel not in RELATIONS:
                    raise ValueError(f"missing or invalid relation for ({x}, {y}): {rel!r}")
                if self.relations[(y, x)] != mirror(rel):
                    raise ValueError(f"relation of ({y}, {x}) does not mirror ({x}, {y})")

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
    """Profile of a duplicate-free tree via lowest common ancestors."""
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


# ---------------------------------------------------------------------------
# Order-relations graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderRelationsGraph:
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


def graph_to_dot(g: OrderRelationsGraph, name: str = "order_relations") -> str:
    ids = {v: f"n{i}" for i, v in enumerate(sorted(g.vertices))}
    lines = [f"digraph {name} {{"]
    for v, vid in ids.items():
        lines.append(f'  {vid} [label="{v}", shape=box];')
    for x, y in sorted(g.edges):
        lines.append(f"  {ids[x]} -> {ids[y]};")
    lines.append("}")
    return "\n".join(lines)
