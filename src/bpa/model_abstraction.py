"""Model abstraction by aggregating activities over behavioral profiles.

Given a duplicate-free tree ``M``, an aggregation mapping ``agg`` from
abstract names to sets of concrete activities, and a rational threshold
``w_t``, the abstracted tree is built in three steps:

1. derive the behavioral profile of ``M``;
2. derive an abstract profile over the aggregated alphabet: for each pair
   of abstract activities the four relation weights are computed from the
   fractions of concrete pairs in each relation and the strongest relation
   above ``w_t`` is selected (choice first, then strict order, then
   inverse, then parallel);
3. build the order-relations graph of the abstract profile, compute its
   modular decomposition tree, and synthesize one tree node per module
   (linear -> ``seq``, XOR-complete -> ``xor``, AND-complete -> ``and``,
   a leaf in parallel self-relation -> self-loop).  Primitive modules have
   no corresponding operator, so synthesis fails on them.  The
   decomposition is exact at every size: one rule finds the strong modules
   of linear and primitive nodes alike, so only real primitive modules are
   reported.

:func:`plan` runs the applicability gate and all three steps once, sharing
one weight table and one decomposition tree.

Every weighing reads the concrete relations as one table of integer codes
(:func:`relation_codes`) and counts the pairs of two groups in one place.
Weights are these counts, compared with ``w_t = p/q`` by cross-multiplication
and exposed as exact ``Fraction`` values: thresholds sit at boundary values
like 1/2 and 5/9, where floats would betray us.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Collection, Iterable, Mapping, NamedTuple

from .profiles import (
    CHOICE,
    INVERSE,
    PARALLEL,
    STRICT,
    BehavioralProfile,
    OrderRelationsGraph,
    behavioral_profile,
    order_relations_graph,
    profile_from_function,
)
from .trees import (
    KEYWORDS,
    _IDENT_RE,
    ClassReport,
    ProcessTree,
    _classes,
    _closure,
    _masks,
    _members,
    activities,
    check_class,
    render_tree,
)

def _warn(fmt: str, *args: object) -> None:
    import logging  # loaded only here: neither diagnostic fires at w_t <= w_minmax
    logging.getLogger(__name__).warning(fmt, *args, stacklevel=2)


class InapplicableError(RuntimeError):
    """The aggregation is not applicable to the model; carries the report."""

    def __init__(self, report: ClassReport):
        details = "; ".join(f"{r}: {m}" for r, _, m in report.violations)
        super().__init__(f"aggregation not applicable: {details}")
        self.report = report


# ---------------------------------------------------------------------------
# Aggregation specifications
# ---------------------------------------------------------------------------

class AggSpec(NamedTuple):
    """Aggregation mapping (abstract name -> concrete activities) plus the
    relation-weight threshold ``w_t``.  Carried as given; validity against a
    concrete model is the business of :func:`applicable`."""

    agg: Mapping[str, frozenset[str]]
    w_t: Fraction

    def domain(self) -> set[str]:
        return set(self.agg)

    def covered(self) -> set[str]:
        return set().union(*self.agg.values())

    def new_names(self, alphabet: Iterable[str]) -> set[str]:
        """Abstract names that are not concrete activities."""
        alpha = set(alphabet)
        return {x for x in self.agg if x not in alpha}

    def kept_names(self, alphabet: Iterable[str]) -> set[str]:
        alpha = set(alphabet)
        return {x for x in self.agg if x in alpha}


def make_spec(groups: Mapping[str, Iterable[str]], w_t) -> AggSpec:
    """The spec of ``groups`` at ``w_t``; raises ``ValueError`` on a group
    name that is not a valid activity name."""
    for name in groups:
        if name in KEYWORDS or not _IDENT_RE.fullmatch(name):
            raise ValueError(f"aggregation group name {name!r} is not a valid activity name")
    return AggSpec(
        agg={name: frozenset(members) for name, members in groups.items()},
        w_t=Fraction(w_t),
    )


def expand_spec(spec: AggSpec, alphabet: Iterable[str]) -> AggSpec:
    """Complete a partial mapping: every concrete activity that is neither
    listed as an abstract name nor covered by a group maps to itself."""
    agg = {name: frozenset(members) for name, members in spec.agg.items()}
    covered = spec.covered() | set(agg)
    for a in sorted(alphabet):
        if a not in covered:
            agg[a] = frozenset({a})
    return AggSpec(agg=agg, w_t=spec.w_t)


def load_agg_spec(text: str) -> AggSpec:
    """Parse the JSON spec format: ``{"w_t": "p/q", name: [members...]}``."""
    try:
        raw = json.loads(text)
    except RecursionError:
        raise ValueError("aggregation spec nests too deeply") from None
    if not isinstance(raw, dict) or "w_t" not in raw:
        raise ValueError("aggregation spec needs a 'w_t' entry")
    value = raw.pop("w_t")
    value = value if isinstance(value, str) else json.dumps(value)  # named as written
    try:
        w_t = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"invalid w_t {value!r}: zero denominator") from None
    except ValueError:
        raise ValueError(f"invalid w_t {value!r}: not a rational number") from None
    groups = {}
    for name, members in raw.items():
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise ValueError(f"group {name!r} must be a list of activity names")
        groups[name] = members
    return make_spec(groups, w_t)


def dump_agg_spec(spec: AggSpec) -> str:
    payload: dict = {"w_t": str(spec.w_t)}
    for name in sorted(spec.agg):
        members = sorted(spec.agg[name])
        if members != [name]:  # identity mappings stay implicit
            payload[name] = members
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# Relation-weight derivation
# ---------------------------------------------------------------------------

#: A concrete pair (v, u) adds ``_BEFORE`` when v is weakly before u and
#: ``_AFTER`` when u is weakly before v, so the codes of two groups sum to
#: ``n_xy + n_yx * _AFTER``: a profile holding ``_AFTER`` pairs would not
#: fit in memory.
_BEFORE, _AFTER = 1, 1 << 32
_CODES = {CHOICE: 0, STRICT: _BEFORE, INVERSE: _AFTER, PARALLEL: _BEFORE + _AFTER}

_Codes = dict[str, dict[str, int]]
#: per abstract pair: the number of concrete pairs and the choice, strict,
#: inverse and parallel counts
_Table = dict[tuple[str, str], tuple[int, tuple[int, int, int, int]]]


def relation_codes(profile: BehavioralProfile) -> _Codes:
    """The relations of a profile as codes, ``codes[v][u]``: the one input
    every weighing reads."""
    acts = sorted(profile.activities)
    return {v: {u: _CODES[profile.relations[v, u]] for u in acts} for v in acts}


def _weigh(codes: _Codes, gx: Collection[str], gy: Collection[str]) -> tuple[int, int, int]:
    """``(n_xy, n_yx, total)`` of the concrete pairs (v, u) of two groups."""
    packed = sum(codes[v][u] for v in gx for u in gy)
    return packed % _AFTER, packed // _AFTER, len(gx) * len(gy)


def _counts(n_xy: int, n_yx: int, total: int) -> tuple[int, int, int, int]:
    """Numerators of the choice, strict, inverse and parallel weights."""
    xnb, ynb = total - n_xy, total - n_yx
    return min(xnb, ynb), min(n_xy, ynb), min(n_yx, xnb), min(n_xy, n_yx)


def _table(codes: _Codes, groups: list[tuple[str, Collection[str]]], weighed: int) -> _Table:
    """The pairs of ``groups`` (self-pairs included) with one of the first
    ``weighed`` groups, keyed in the orientation of the list."""
    table = {}
    for i, (x, gx) in enumerate(groups[:weighed]):
        for y, gy in groups[i:]:
            w = _weigh(codes, gx, gy)
            table[x, y] = w[2], _counts(*w)
    return table


class RelationWeights(NamedTuple):
    """Of the ``total`` concrete pairs (v, u) of an abstract pair (x, y),
    ``n_xy`` have v weakly before u (strict or parallel) and ``n_yx`` u before
    v (inverse or parallel); the rest are "not before".  The weights are
    exact read-only views on these counts."""

    n_xy: int
    n_yx: int
    total: int

    x_before_y = property(lambda w: Fraction(w.n_xy, w.total))
    y_before_x = property(lambda w: Fraction(w.n_yx, w.total))
    x_not_before_y = property(lambda w: Fraction(w.total - w.n_xy, w.total))
    y_not_before_x = property(lambda w: Fraction(w.total - w.n_yx, w.total))
    choice = property(lambda w: Fraction(_counts(*w)[0], w.total))
    strict = property(lambda w: Fraction(_counts(*w)[1], w.total))
    inverse = property(lambda w: Fraction(_counts(*w)[2], w.total))
    parallel = property(lambda w: Fraction(_counts(*w)[3], w.total))
    w_max = property(lambda w: Fraction(max(_counts(*w)), w.total))


def _check(profile: BehavioralProfile, groups: Collection[frozenset[str]]) -> None:
    if not all(groups):
        raise ValueError("empty aggregation group")
    unknown = set().union(*groups) - profile.activities
    if unknown:
        raise ValueError(f"activities not covered by the profile: {sorted(unknown)}")


def relation_weights(
    x: str, y: str, profile: BehavioralProfile, spec: AggSpec
) -> RelationWeights:
    gx, gy = spec.agg[x], spec.agg[y]
    _check(profile, (gx, gy))
    return RelationWeights(*_weigh(relation_codes(profile), gx, gy))


def derive_ordering_relation(x: str, y: str, profile: BehavioralProfile, spec: AggSpec) -> str:
    """Select the relation of an abstract pair by the priority cascade:
    choice, strict order, inverse, parallel; below-threshold pairs default
    to parallel with a diagnostic (unreachable for thresholds within the
    applicable range)."""
    w = relation_weights(x, y, profile, spec)
    return _select(x, y, w.total, _counts(*w), spec.w_t)


def _select(x: str, y: str, total: int, counts: tuple[int, int, int, int], w_t: Fraction) -> str:
    """The cascade on the counts of a pair."""
    # count / total >= p / q, by cross-multiplication
    bar = w_t.numerator * total
    q = w_t.denominator
    choice, strict, inverse, parallel = counts
    if choice * q >= bar:
        return CHOICE
    if strict * q >= bar:
        # inverse <= (pairs not x-before-y) = choice < strict: no flip to inverse
        return STRICT
    if inverse * q >= bar:
        return INVERSE
    if parallel * q >= bar:
        return PARALLEL
    _warn(
        "no relation weight of (%s, %s) reaches w_t=%s (max %s); defaulting to parallel",
        x, y, w_t, Fraction(max(counts), total),
    )
    return PARALLEL


def _minmax(table: _Table) -> Fraction:
    top, total = 1, 1  # no weight exceeds 1
    for n, counts in table.values():
        m = max(counts)
        if m * total < top * n:  # m / n < top / total
            top, total = m, n
    return Fraction(top, total)


def _weigh_spec(profile: BehavioralProfile, spec: AggSpec) -> tuple[_Table, Fraction]:
    """The table of every unordered pair of ``spec`` (self-pairs included),
    keyed in lexicographic orientation, and its ``w_minmax``."""
    groups = sorted(spec.agg.items())
    if not groups:
        raise ValueError("empty aggregation")
    _check(profile, spec.agg.values())
    table = _table(relation_codes(profile), groups, len(groups))
    return table, _minmax(table)


def w_minmax(profile: BehavioralProfile, spec: AggSpec) -> Fraction:
    """min over abstract pairs (self-pairs included) of the maximum derived
    relation weight — the largest threshold for which every pair still
    reaches some relation."""
    return _weigh_spec(profile, spec)[1]


def grouping_threshold(
    codes: _Codes, groups: Mapping[str, frozenset[str]], check_choices: bool
) -> Fraction | None:
    """:func:`w_minmax` of ``groups`` with every other activity of ``codes``
    mapped to itself; with ``check_choices``, None when the cascade derives a
    false choice at that threshold.

    Only the pairs with a group are weighed: a pair of two single-member
    groups weighs 1 and keeps its concrete relation at any ``w_t`` in (0, 1].
    A false choice is choice between two abstract activities whose members
    co-occur in a trace of the minimal log.  Two distinct activities of a
    duplicate-free tree co-occur there exactly when they are not in choice
    (their lowest common ancestor is not ``xor``), so the members of a pair
    co-occur exactly when its choice count is below its total."""
    grouped = set().union(*groups.values())
    names = [*groups.items(), *((u, (u,)) for u in codes if u not in grouped)]
    table = _table(codes, names, len(groups))
    limit = _minmax(table)
    if check_choices and any(
        x != y and counts[0] < total and _select(x, y, total, counts, limit) == CHOICE
        for (x, y), (total, counts) in table.items()
    ):
        return None
    return limit


def derive_profile(profile: BehavioralProfile, spec: AggSpec) -> BehavioralProfile:
    """Abstract profile over the aggregated alphabet.

    Each unordered pair is derived once in lexicographic orientation and
    mirrored, which keeps the result consistent when strict and inverse
    weights tie."""
    table, limit = _weigh_spec(profile, spec)
    if spec.w_t > limit:
        _warn(
            "w_t=%s exceeds w_minmax=%s; the default branch may fire", spec.w_t, limit
        )
    return _derive(table, spec.w_t)


def _derive(table: _Table, w_t: Fraction) -> BehavioralProfile:
    return profile_from_function(
        {x for x, _ in table},  # every name has its self-pair
        lambda x, y: _select(x, y, *table[x, y], w_t),
    )


# ---------------------------------------------------------------------------
# Modular decomposition
# ---------------------------------------------------------------------------

class MDTNode(NamedTuple):
    """A node of the modular decomposition tree: the vertex set of the
    module, its kind, and the child modules (which partition it)."""

    members: frozenset[str]
    kind: str  # leaf | linear | and-complete | xor-complete | primitive
    children: tuple["MDTNode", ...] = ()

    def iter_nodes(self) -> Iterable["MDTNode"]:
        yield self
        for c in self.children:
            yield from c.iter_nodes()

    def has_primitive(self) -> bool:
        return any(n.kind == "primitive" for n in self.iter_nodes())

    def member_sets(self) -> set[frozenset[str]]:
        return {n.members for n in self.iter_nodes()}


def modular_decomposition(graph: OrderRelationsGraph) -> MDTNode:
    if not graph.vertices:
        raise ValueError("cannot decompose the empty graph")
    vs = sorted(graph.vertices)
    out, into = _masks(vs, graph.edges)
    return _decompose(vs, out, into, (1 << len(vs)) - 1)


def _decompose(vs: list[str], out: list[int], into: list[int], sub: int) -> MDTNode:
    """The node of ``sub``, a bitmask over the sorted vertices ``vs`` with
    neighbour masks ``out`` and ``into``: complete, linear or primitive, and
    its children the maximal proper strong modules (Ehrenfeucht & Rozenberg's
    prime decomposition of 2-structures), exact at every size."""
    vertices = _members(vs, sub)
    if not sub & (sub - 1):
        return MDTNode(vertices, "leaf")

    def split(kind: str, parts: list[int]) -> MDTNode:
        return MDTNode(vertices, kind, tuple(_decompose(vs, out, into, m) for m in parts))

    # the components of the graph, then those of the complement of its
    # two-way edges
    comps = _classes(sub, lambda i: sub & (out[i] | into[i]))
    if len(comps) > 1:
        return split("and-complete", comps)
    comps = _classes(sub, lambda i: sub & ~(out[i] & into[i]))
    if len(comps) > 1:
        return split("xor-complete", comps)

    # the least prefix holding a vertex: add every vertex that is not a strict
    # successor of a member; the prefixes form a chain
    members = [i for i in range(len(vs)) if sub >> i & 1]
    not_after = {i: sub & ~(out[i] & ~into[i]) for i in members}
    prefixes = sorted({_closure(1 << i, not_after.__getitem__, sub) for i in members})
    if len(prefixes) > 1:
        return split("linear", [b & ~a for a, b in zip([0, *prefixes], prefixes)])

    # primitive: the child of v is v with every smallest module M(v, w)
    # short of the node, grown by the vertices that tell a member from v
    children, free = [], sub
    while free:
        v = (free & -free).bit_length() - 1
        splitters = {i: sub & ((into[i] ^ into[v]) | (out[i] ^ out[v])) for i in members}
        child = 1 << v
        for w in members:
            if w > v and (free & ~child) >> w & 1:
                module = _closure(1 << v | 1 << w, splitters.__getitem__, sub)
                if module != sub:
                    child |= module
        children.append(child)
        free &= ~child
    return split("primitive", children)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def _synthesize(profile: BehavioralProfile, mdt: MDTNode) -> ProcessTree:
    """Tree whose behavioral profile equals the given one, built on the
    modular decomposition ``mdt`` of its order-relations graph, which has no
    primitive module (:func:`plan` synthesizes only when the gate passed)."""
    def build(m: MDTNode) -> ProcessTree:
        if m.kind == "leaf":
            (x,) = m.members
            if profile.relation(x, x) == PARALLEL:
                return ProcessTree("loop", (ProcessTree(x), ProcessTree("tau")))
            return ProcessTree(x)
        kids = [build(c) for c in m.children]
        if m.kind == "linear":
            return ProcessTree("seq", tuple(kids))
        op = "xor" if m.kind == "xor-complete" else "and"
        kids.sort(key=render_tree)
        return ProcessTree(op, tuple(kids))

    # built canonical and in normal form: every child is built canonical, and no child
    # of a linear, xor- or and-complete node (two or more, disjoint) is of its kind
    return build(mdt)


# ---------------------------------------------------------------------------
# The abstraction plan: gate, abstract profile and abstracted tree at once
# ---------------------------------------------------------------------------

class Abstraction(NamedTuple):
    """The model side of one abstraction, as computed by :func:`plan`.

    ``spec`` is the expanded aggregation and ``report`` the applicability
    gate.  ``profile`` is the derived abstract profile; it is present when
    the gate passed or failed only on primitive modules.  ``tree`` is the
    abstracted model, present exactly when the gate passed."""

    spec: AggSpec
    report: ClassReport
    new_names: frozenset[str]
    profile: BehavioralProfile | None = None
    tree: ProcessTree | None = None


def group_violations(groups: Mapping[str, frozenset[str]]) -> list[tuple[str, str, str]]:
    """The gate's rules that read only the groups of the new abstract
    activities: there is one, none is a singleton, and together they
    aggregate more activities than there are abstract activities + 1."""
    violations = []
    if not groups:
        violations.append(("no-new-activity", "", "aggregation introduces no abstract activity"))
    for x in sorted(groups):
        if len(groups[x]) < 2:
            violations.append(
                ("singleton-group", "", f"abstract activity '{x}' aggregates fewer than 2 activities")
            )
    union_new = set().union(*groups.values())
    if groups and len(union_new) <= len(groups) + 1:
        violations.append(
            ("aggregation-union", "",
             f"aggregated activities ({len(union_new)}) must outnumber abstract activities + 1 "
             f"({len(groups) + 1})")
        )
    return violations


def plan(model: ProcessTree, spec: AggSpec) -> Abstraction:
    """Check the five applicability conditions and, as far as they allow,
    derive the abstract profile and synthesize the abstracted tree.
    Violations are reported, not thrown."""
    violations: list[tuple[str, str, str]] = []

    for rule, path, msg in check_class(model, "C_c").violations:
        violations.append((rule if rule == "duplicate-activity" else "model-class", path, msg))

    alphabet = activities(model)
    full = expand_spec(spec, alphabet)
    unknown = full.covered() - alphabet
    if unknown:
        violations.append(
            ("agg-unknown-activity", "", f"group members not in the model: {sorted(unknown)}")
        )

    new = frozenset(full.new_names(alphabet))
    kept = full.kept_names(alphabet)
    violations += group_violations({x: full.agg[x] for x in new})
    for y in sorted(kept):
        if full.agg[y] != frozenset({y}):
            violations.append(("kept-not-identity", "", f"kept activity '{y}' must map to itself"))

    if not (0 < spec.w_t <= 1):
        violations.append(("threshold", "", f"w_t={spec.w_t} outside (0, 1]"))

    if violations:
        return Abstraction(full, ClassReport.from_violations(violations), new)

    table, limit = _weigh_spec(behavioral_profile(model), full)
    if spec.w_t > limit:
        violations.append(("threshold", "", f"w_t={spec.w_t} exceeds w_minmax={limit}"))
        return Abstraction(full, ClassReport.from_violations(violations), new)

    abstract = _derive(table, full.w_t)
    mdt = modular_decomposition(order_relations_graph(abstract))
    for n in mdt.iter_nodes():
        if n.kind == "primitive":
            violations.append(("primitive-module", "", f"primitive module over {sorted(n.members)}"))
    report = ClassReport.from_violations(violations)
    tree = _synthesize(abstract, mdt) if report.in_class else None
    return Abstraction(full, report, new, abstract, tree)


def applicable(model: ProcessTree, spec: AggSpec) -> ClassReport:
    """The applicability report of :func:`plan`."""
    return plan(model, spec).report


def ma_bpa(model: ProcessTree, spec: AggSpec) -> ProcessTree:
    """The full model abstraction; raises :class:`InapplicableError` when
    the aggregation is not applicable."""
    abstraction = plan(model, spec)
    if not abstraction.report.in_class:
        raise InapplicableError(abstraction.report)
    return abstraction.tree
