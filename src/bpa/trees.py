"""Block-structured process trees.

A process tree is either an activity leaf, the silent leaf ``tau``, or an
operator node over at least two children:

* ``seq`` — sequential composition (ordered),
* ``xor`` — exclusive choice,
* ``and`` — interleaved parallel composition,
* ``loop`` — repetition (first child is the body).

Trees are ``(label, children)`` tuples, so immutable and hashable.  The
text grammar is::

    tree := 'tau' | IDENT | OP '(' tree (',' tree)+ ')'
    OP   := 'seq' | 'xor' | 'and' | 'loop'

with ``IDENT = [A-Za-z0-9_]+`` excluding the keywords.  Two trees are
*isomorphic* when they are equal up to reordering the children of ``xor``/
``and`` nodes and the non-first children of ``loop`` nodes.
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple

OPERATORS = ("seq", "xor", "and", "loop")
TAU = "tau"
KEYWORDS = frozenset(OPERATORS) | {TAU}

#: Pretty symbols used for DOT export.
OPERATOR_SYMBOLS = {"seq": "→", "xor": "×", "and": "∧", "loop": "↺"}
TAU_SYMBOL = "τ"

_IDENT_RE = re.compile(r"[A-Za-z0-9_]+")

#: Deepest operator nesting :func:`parse_tree` accepts.  Most tree functions
#: recurse once per level, using up to four stack frames each: at the
#: default recursion limit of 1000 and called from a shallow stack,
#: ``render_tree``, ``canonical`` and synthesis fail on chains of about 330
#: nested operators, ``isomorphic`` on about 250.  The margin is left to the
#: caller's own stack.
MAX_TREE_DEPTH = 200


class TreeSyntaxError(ValueError):
    """Raised by :func:`parse_tree` with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _TreeFields(NamedTuple):
    label: str
    children: tuple["ProcessTree", ...] = ()


class ProcessTree(_TreeFields):
    """One node of a process tree.

    ``label`` is an operator name, an activity name, or ``"tau"``.  Operator
    nodes carry at least two children; leaves carry none.
    """

    __slots__ = ()

    def __new__(cls, label: str, children: tuple["ProcessTree", ...] = ()) -> "ProcessTree":
        if label in OPERATORS:
            if len(children) < 2:
                raise ValueError(f"operator '{label}' needs >= 2 children")
        elif children:
            raise ValueError(f"leaf '{label}' cannot have children")
        elif label != TAU and not _IDENT_RE.fullmatch(label):
            raise ValueError(f"invalid activity name: {label!r}")
        return tuple.__new__(cls, (label, children))

    # -- structural predicates -------------------------------------------
    @property
    def is_operator(self) -> bool:
        return self.label in OPERATORS

    @property
    def is_tau(self) -> bool:
        return self.label == TAU

    @property
    def is_activity(self) -> bool:
        return self.label not in KEYWORDS

    @property
    def is_self_loop(self) -> bool:
        """True for ``loop(v, tau)`` with ``v`` an activity leaf."""
        return (
            self.label == "loop"
            and len(self.children) == 2
            and self.children[0].is_activity
            and self.children[1].is_tau
        )

    def __repr__(self) -> str:  # compact, mirrors the text grammar
        return f"ProcessTree({render_tree(self)!r})"


class ClassReport(NamedTuple):
    """Outcome of a rule check: ``in_class`` iff ``violations`` is empty.

    Each violation is a ``(rule-id, path, message)`` triple where ``path``
    is the dotted child-index path from the root (empty string = root).
    """

    in_class: bool
    violations: tuple[tuple[str, str, str], ...] = ()

    @classmethod
    def from_violations(cls, violations) -> "ClassReport":
        vs = tuple(violations)
        return cls(in_class=not vs, violations=vs)


def leaf(name: str) -> ProcessTree:
    return ProcessTree(name)


def tau() -> ProcessTree:
    return ProcessTree(TAU)


def node(op: str, *children: ProcessTree) -> ProcessTree:
    return ProcessTree(op, tuple(children))


# ---------------------------------------------------------------------------
# Parsing / rendering
# ---------------------------------------------------------------------------

def parse_tree(text: str) -> ProcessTree:
    """Parse the tree text grammar; raises :class:`TreeSyntaxError`, also
    for operators nested deeper than :data:`MAX_TREE_DEPTH`."""
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    def parse_node(p: int, depth: int) -> tuple[ProcessTree, int]:
        p = skip_ws(p)
        m = _IDENT_RE.match(text, p)
        if not m:
            raise TreeSyntaxError("expected identifier", p)
        word = m.group()
        p = m.end()
        if word in OPERATORS:
            if depth == MAX_TREE_DEPTH:
                raise TreeSyntaxError(
                    f"operators nested deeper than {MAX_TREE_DEPTH} levels", m.start()
                )
            p = skip_ws(p)
            if p >= n or text[p] != "(":
                raise TreeSyntaxError(f"operator '{word}' requires '('", p)
            children = []
            p += 1
            while True:
                child, p = parse_node(p, depth + 1)
                children.append(child)
                p = skip_ws(p)
                if p < n and text[p] == ",":
                    p += 1
                    continue
                if p < n and text[p] == ")":
                    p += 1
                    break
                raise TreeSyntaxError("expected ',' or ')'", p)
            if len(children) < 2:
                raise TreeSyntaxError(f"operator '{word}' needs >= 2 children", p)
            return ProcessTree(word, tuple(children)), p
        return ProcessTree(word), p  # an activity or tau

    tree, pos = parse_node(pos, 0)
    pos = skip_ws(pos)
    if pos != n:
        raise TreeSyntaxError("trailing input after tree", pos)
    return tree


def render_tree(tree: ProcessTree) -> str:
    """Inverse of :func:`parse_tree` (compact, no whitespace)."""
    if not tree.is_operator:
        return tree.label
    return f"{tree.label}({','.join(render_tree(c) for c in tree.children)})"


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def size(tree: ProcessTree) -> int:
    """Number of nodes: operator nodes plus leaves (tau counts)."""
    return 1 + sum(size(c) for c in tree.children)


def activities(tree: ProcessTree) -> set[str]:
    """All non-tau leaf labels."""
    if not tree.children:
        return set() if tree.label == TAU else {tree.label}
    return set().union(*map(activities, tree.children))


def walk(tree: ProcessTree, path: str = "") -> Iterator[tuple[str, ProcessTree]]:
    """Depth-first (pre-order) iteration as ``(dotted-index-path, node)``."""
    yield path, tree
    for i, c in enumerate(tree.children):
        yield from walk(c, f"{path}.{i}".lstrip("."))


def _masks(names: list[str], edges: Iterable[tuple[str, str]]) -> tuple[list[int], list[int]]:
    """The out- and in-neighbours of each of ``names`` as bitmasks, bit i for
    ``names[i]``, so over sorted names a set's lowest bit is its least name;
    an edge with an end outside ``names`` is left out."""
    pos = {a: i for i, a in enumerate(names)}
    out, into = [0] * len(names), [0] * len(names)
    for a, b in edges:
        if a in pos and b in pos:
            out[pos[a]] |= 1 << pos[b]
            into[pos[b]] |= 1 << pos[a]
    return out, into


def _members(names: list[str], mask: int) -> frozenset[str]:
    return frozenset(v for i, v in enumerate(names) if mask >> i & 1)


def _closure(mask: int, grow, full: int) -> int:
    """The least superset of ``mask`` that ``grow`` adds nothing to:
    ``grow(i)`` is the bitmask member ``i`` brings in, a subset of ``full``,
    so reaching ``full`` ends the search early."""
    todo = mask
    while todo and mask != full:
        i = (todo & -todo).bit_length() - 1
        more = grow(i) & ~mask
        mask |= more
        todo = (todo | more) & ~(1 << i)
    return mask


def _classes(mask: int, grow) -> list[int]:
    """The classes of the smallest equivalence on the members of ``mask``
    holding every pair (i, j) with j in ``grow(i)``, ordered by least member;
    ``grow`` is symmetric and keeps within ``mask``."""
    classes = []
    while mask:
        cls = _closure(mask & -mask, grow, mask)
        classes.append(cls)
        mask &= ~cls
    return classes


# ---------------------------------------------------------------------------
# Class checks
# ---------------------------------------------------------------------------

def check_class(tree: ProcessTree, which: str = "C_c") -> ClassReport:
    """Check tree-shape restrictions.

    ``C_c``: no duplicate activities (rule ``duplicate-activity``) and every
    loop node is exactly ``loop(v, tau)`` (rule ``loop-shape``).  ``C_a``
    additionally forbids tau leaves outside self-loop nodes (rule
    ``tau-outside-self-loop``).  Violations are listed rule by rule, in that
    order, and within a rule in pre-order.  One iterative pass checks any
    depth; paths are ``(parent link, child index)`` links, rendered on a violation.
    """
    if which not in ("C_c", "C_a"):
        raise ValueError(f"unknown tree class: {which!r}")
    duplicates, loops, taus, first = [], [], [], {}
    stack = [(None, enumerate((tree,)))]  # (parent link, children left); root's is None
    while stack:
        parent, children = stack[-1]
        for i, t in children:
            link = (parent, i)
            if t.children:
                if not t.is_self_loop:
                    if t.label == "loop":
                        loops.append(("loop-shape", link, "loop node is not of the form loop(v,tau)"))
                    stack.append((link, enumerate(t.children)))
                    break  # pre-order: this subtree before the next sibling
                t, link = t.children[0], (link, 0)  # its tau is the sanctioned one
            if t.label != TAU:
                at = first.setdefault(t.label, link)
                if at is not link:
                    message = f"activity '{t.label}' already used at '{_dotted(at)}'"
                    duplicates.append(("duplicate-activity", link, message))
            elif which == "C_a":
                taus.append(("tau-outside-self-loop", link, "tau leaf outside a self-loop"))
        else:
            stack.pop()
    violations = duplicates + loops + taus
    if not violations:
        return ClassReport(in_class=True)
    return ClassReport.from_violations((r, _dotted(link), m) for r, link, m in violations)


def _dotted(link: tuple) -> str:
    """The dotted child-index path a :func:`check_class` link stands for."""
    indices = []
    while link[0] is not None:
        link, i = link
        indices.append(str(i))
    return ".".join(reversed(indices))


class ClassViolationError(ValueError):
    """A tree failed a required class check."""

    def __init__(self, report: ClassReport, which: str):
        details = "; ".join(f"{r}@{p or 'root'}: {m}" for r, p, m in report.violations)
        super().__init__(f"process tree is not in {which}: {details}")
        self.report = report


def require_class(tree: ProcessTree, which: str = "C_c") -> None:
    report = check_class(tree, which)
    if not report.in_class:
        raise ClassViolationError(report, which)


# ---------------------------------------------------------------------------
# Normal form, canonical form, isomorphism
# ---------------------------------------------------------------------------

def normal_form(tree: ProcessTree) -> ProcessTree:
    """Language-preserving reduction.

    Flattens nested ``seq``/``xor``/``and`` nodes of the same operator, drops
    duplicate (isomorphic) ``xor`` branches, and collapses single-child
    nodes.  Idempotent and activity-preserving.
    """
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
    if tree.label == "xor" and len({frozenset(activities(c)) for c in flat}) < len(flat):
        # isomorphic branches share their activities; only then are keys needed
        unique: dict[str, ProcessTree] = {}  # the first branch of each key
        for c in flat:
            unique.setdefault(render_tree(canonical(c)), c)
        flat = list(unique.values())
    if len(flat) == 1:
        return flat[0]
    return ProcessTree(tree.label, tuple(flat))


def canonical(tree: ProcessTree) -> ProcessTree:
    """Canonical representative of the isomorphism class.

    Children of commutative nodes (``xor``, ``and``) and the non-first
    children of ``loop`` nodes are sorted lexicographically by their
    canonical rendering.
    """
    if not tree.is_operator:
        return tree
    kids = [canonical(c) for c in tree.children]
    if tree.label in ("xor", "and"):
        kids.sort(key=render_tree)
    elif tree.label == "loop":
        kids = [kids[0]] + sorted(kids[1:], key=render_tree)
    return ProcessTree(tree.label, tuple(kids))


def isomorphic(a: ProcessTree, b: ProcessTree) -> bool:
    return canonical(a) == canonical(b)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _dot(name: str, nodes: dict, edges: Iterable[tuple], *attrs: str) -> str:
    """Graphviz DOT text of graph ``name``: its ``attrs`` lines, then one
    node ``n<i>`` per entry ``key: (label, shape)`` of ``nodes`` in order,
    then one edge per ``(key, key)`` pair of ``edges``."""
    ids = {key: f"n{i}" for i, key in enumerate(nodes)}
    lines = [f"digraph {name} {{", *(f"  {a};" for a in attrs)]
    lines += (f'  {ids[k]} [label="{label}", shape={shape}];' for k, (label, shape) in nodes.items())
    lines += (f"  {ids[x]} -> {ids[y]};" for x, y in edges)
    lines.append("}")
    return "\n".join(lines)


def tree_to_dot(tree: ProcessTree) -> str:
    """DOT text with one node per tree node, numbered in pre-order, and
    every node before every edge."""
    nodes: dict[int, tuple[str, str]] = {}
    edges: list[tuple[int, int]] = []
    stack: list[tuple[ProcessTree, int | None]] = [(tree, None)]
    while stack:  # no recursion, so any depth renders
        t, parent = stack.pop()
        me = len(nodes)
        if parent is not None:
            edges.append((parent, me))
        if t.is_operator:
            nodes[me] = OPERATOR_SYMBOLS[t.label], "circle"
        else:
            nodes[me] = (TAU_SYMBOL, "circle") if t.is_tau else (t.label, "box")
        stack.extend((c, me) for c in reversed(t.children))
    return _dot("process_tree", nodes, edges, "node [shape=circle]")
