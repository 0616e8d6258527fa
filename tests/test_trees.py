"""Process-tree structure: parsing, rendering, normal form, isomorphism,
and the structural class checks."""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpa.logs import dfg_of_log, dfg_to_dot
from bpa.profiles import behavioral_profile, graph_to_dot, order_relations_graph
from bpa.semantics import minimal_log, ntl
import oracles
from bpa.trees import (
    MAX_TREE_DEPTH,
    OPERATORS,
    ClassViolationError,
    ProcessTree,
    TreeSyntaxError,
    activities,
    canonical,
    check_class,
    isomorphic,
    leaf,
    node,
    normal_form,
    parse_tree,
    render_tree,
    require_class,
    size,
    tau,
    tree_to_dot,
    walk,
)
from conftest import CLAIMS_MODEL, ORDERS_DESIGNED, random_tree

trees = st.builds(random_tree, st.randoms(use_true_random=False))

#: trees outside both classes: duplicate activities, loops that are not
#: self-loops, stray taus, and xor nodes over isomorphic branches
unrestricted = st.recursive(
    st.sampled_from(["a", "b", "c", "tau"]).map(ProcessTree)
    | st.sampled_from("abc").map(lambda a: node("loop", leaf(a), tau())),
    lambda kids: st.builds(
        lambda op, cs: ProcessTree(op, tuple(cs)),
        st.sampled_from(OPERATORS),
        st.lists(kids, min_size=2, max_size=3),
    )
    | st.builds(lambda t: node("xor", t, canonical(t)), kids),
    max_leaves=12,
)


# ---------------------------------------------------------------------------
# Construction and parsing
# ---------------------------------------------------------------------------

def test_operator_needs_two_children():
    with pytest.raises(ValueError, match=">= 2 children"):
        ProcessTree("seq", (leaf("a"),))


def test_leaf_cannot_have_children():
    with pytest.raises(ValueError, match="cannot have children"):
        ProcessTree("a", (leaf("b"), leaf("c")))


def test_invalid_activity_name_rejected():
    with pytest.raises(ValueError, match="invalid activity name"):
        leaf("has space")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("tau", tau()),
        ("a", leaf("a")),
        ("seq(a,b)", node("seq", leaf("a"), leaf("b"))),
        ("xor( a , tau )", node("xor", leaf("a"), tau())),
        ("loop(v,tau)", node("loop", leaf("v"), tau())),
        (
            "and(seq(a,b),xor(c,d))",
            node("and", node("seq", leaf("a"), leaf("b")), node("xor", leaf("c"), leaf("d"))),
        ),
    ],
)
def test_parse_examples(text, expected):
    assert parse_tree(text) == expected


@pytest.mark.parametrize(
    "bad", ["", "seq(a)", "seq(a,)", "seq(a,b", "a b", "()", "seq a,b)", "seq(,a)"]
)
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(TreeSyntaxError) as exc:
        parse_tree(bad)
    assert exc.value.position >= 0


def test_parse_error_position_points_at_offence():
    with pytest.raises(TreeSyntaxError) as exc:
        parse_tree("seq(a,b")
    assert exc.value.position == 7


def nested(depth: int, ops=("xor",)) -> str:
    """``depth`` operators nested along one branch, a leaf beside each."""
    return "".join(f"{ops[i % len(ops)]}(a{i}," for i in range(depth)) + "z" + ")" * depth


@pytest.mark.parametrize("ops", [("xor",), ("seq",), ("xor", "seq")])
def test_trees_at_the_depth_limit_work(ops):
    text = nested(MAX_TREE_DEPTH, ops)
    tree = parse_tree(text)
    assert render_tree(tree) == text
    assert isomorphic(canonical(tree), tree)
    assert activities(normal_form(tree)) == activities(tree)
    assert len(behavioral_profile(tree).activities) == MAX_TREE_DEPTH + 1
    assert ntl(tree).tr == minimal_log(tree).num_traces


def test_parse_rejects_trees_beyond_the_depth_limit():
    text = nested(MAX_TREE_DEPTH + 1)
    with pytest.raises(TreeSyntaxError, match="nested deeper") as exc:
        parse_tree(text)
    assert exc.value.position == text.index(f"xor(a{MAX_TREE_DEPTH},")


@given(trees)
def test_render_parse_roundtrip(tree):
    assert parse_tree(render_tree(tree)) == tree


def test_anchor_renders_parse():
    for text in (CLAIMS_MODEL, ORDERS_DESIGNED):
        assert render_tree(parse_tree(text)) == text


# ---------------------------------------------------------------------------
# Size, activities, traversal
# ---------------------------------------------------------------------------

def test_size_counts_operators_and_all_leaves():
    # 2 operators + 3 leaves, tau included
    assert size(parse_tree("seq(a,xor(b,tau))")) == 5


def test_claims_anchor_size():
    assert size(parse_tree(CLAIMS_MODEL)) == 23


def test_activities_excludes_tau():
    assert activities(parse_tree("seq(a,loop(b,tau))")) == {"a", "b"}


def test_walk_paths_are_child_indices():
    tree = parse_tree("seq(a,xor(b,c))")
    assert [(p, t.label) for p, t in walk(tree)] == [
        ("", "seq"),
        ("0", "a"),
        ("1", "xor"),
        ("1.0", "b"),
        ("1.1", "c"),
    ]


def test_map_activities_renames_leaves_only():
    tree = parse_tree("seq(a,loop(b,tau))")
    mapped = oracles.map_activities(tree, str.upper)
    assert render_tree(mapped) == "seq(A,loop(B,tau))"


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text, expected",
    [
        ("seq(a,seq(b,c))", "seq(a,b,c)"),
        ("xor(xor(a,b),xor(c,d))", "xor(a,b,c,d)"),
        ("and(and(a,b),c)", "and(a,b,c)"),
        ("xor(a,a)", "a"),  # duplicate branch then single-child collapse
        ("xor(seq(a,b),seq(a,b),c)", "xor(seq(a,b),c)"),
        ("seq(a,loop(b,tau))", "seq(a,loop(b,tau))"),  # loops untouched
    ],
)
def test_normal_form_examples(text, expected):
    assert render_tree(normal_form(parse_tree(text))) == expected


def test_normal_form_dedupes_up_to_isomorphism():
    # the two xor branches differ only in and-child order
    tree = parse_tree("xor(and(a,b),and(b,a))")
    assert render_tree(normal_form(tree)) == "and(a,b)"


@given(unrestricted | trees)
def test_activities_are_the_labels_of_non_tau_leaves(tree):
    leaves = [t for _, t in walk(tree) if not t.children]
    assert activities(tree) == {t.label for t in leaves if t.label != "tau"}
    assert [t.is_activity for t in leaves] == [t.label != "tau" for t in leaves]


@given(unrestricted | trees)
@settings(max_examples=200)
def test_normal_form_matches_the_keying_oracle(tree):
    assert normal_form(tree) == oracles.normal_form(tree)


@given(trees)
def test_normal_form_idempotent(tree):
    once = normal_form(tree)
    assert normal_form(once) == once


@given(trees)
def test_normal_form_preserves_activities(tree):
    assert activities(normal_form(tree)) == activities(tree)


# ---------------------------------------------------------------------------
# Canonical form and isomorphism
# ---------------------------------------------------------------------------

def test_isomorphic_ignores_xor_and_child_order():
    assert isomorphic(parse_tree("xor(a,and(b,c))"), parse_tree("xor(and(c,b),a)"))


def test_isomorphic_respects_seq_order():
    assert not isomorphic(parse_tree("seq(a,b)"), parse_tree("seq(b,a)"))


def test_isomorphic_respects_loop_first_child():
    assert not isomorphic(parse_tree("loop(a,b)"), parse_tree("loop(b,a)"))


@given(trees, st.randoms(use_true_random=False))
def test_random_child_shuffles_stay_isomorphic(tree, rng):
    def shuffle(t: ProcessTree) -> ProcessTree:
        if not t.is_operator:
            return t
        kids = [shuffle(c) for c in t.children]
        if t.label in ("xor", "and"):
            rng.shuffle(kids)
        return ProcessTree(t.label, tuple(kids))

    assert isomorphic(tree, shuffle(tree))


@given(trees)
def test_canonical_is_stable(tree):
    assert canonical(canonical(tree)) == canonical(tree)


# ---------------------------------------------------------------------------
# Class checks
# ---------------------------------------------------------------------------

def test_duplicate_activity_violates_both_classes():
    report = check_class(parse_tree("seq(a,xor(a,b))"), "C_c")
    assert not report.in_class
    assert [(r, p) for r, p, _ in report.violations] == [("duplicate-activity", "1.0")]


def test_general_loop_violates_loop_shape():
    report = check_class(parse_tree("loop(seq(a,b),c)"), "C_c")
    assert {r for r, _, _ in report.violations} == {"loop-shape"}


def test_self_loop_is_fine_in_both_classes():
    tree = parse_tree("xor(loop(a,tau),b)")
    assert check_class(tree, "C_c").in_class
    assert check_class(tree, "C_a").in_class


def test_tau_outside_self_loop_only_violates_stricter_class():
    tree = parse_tree("xor(tau,a)")
    assert check_class(tree, "C_c").in_class
    report = check_class(tree, "C_a")
    assert [(r, p) for r, p, _ in report.violations] == [("tau-outside-self-loop", "0")]


def test_unknown_class_name_rejected():
    with pytest.raises(ValueError, match="unknown tree class"):
        check_class(leaf("a"), "C_z")


def shared_tau_tree() -> ProcessTree:
    """``xor(loop(a,tau),tau)`` with one tau object in both places."""
    shared = tau()
    return node("xor", node("loop", leaf("a"), shared), shared)


def shared_loop_tree() -> ProcessTree:
    """``seq(L,b,L)`` with one ``loop(a,tau)`` object as both ``L``."""
    shared = node("loop", leaf("a"), tau())
    return node("seq", shared, leaf("b"), shared)


@given(unrestricted | trees)
@example(shared_tau_tree())
@example(parse_tree("loop(tau,a)"))
@example(parse_tree("loop(a,tau,tau)"))
@example(parse_tree("loop(seq(a,tau),a)"))
@example(shared_loop_tree())
@settings(max_examples=200)
def test_class_checks_match_the_path_annotated_oracle(tree):
    for which in ("C_c", "C_a"):
        assert check_class(tree, which) == oracles.check_class(tree, which)


def test_a_tau_shared_with_a_self_loop_is_reported_outside_it():
    report = check_class(shared_tau_tree(), "C_a")
    assert [(r, p) for r, p, _ in report.violations] == [("tau-outside-self-loop", "1")]


def test_class_checks_work_at_any_depth():
    # seq(a0, seq(a1, ... seq(a1999, a0))): far deeper than the recursion limit
    depth = 2_000
    tree = node("seq", leaf(f"a{depth - 1}"), leaf("a0"))
    for k in range(depth - 2, -1, -1):
        tree = node("seq", leaf(f"a{k}"), tree)
    report = check_class(tree, "C_c")
    path = ".".join(["1"] * depth)
    assert report.violations == (
        ("duplicate-activity", path, "activity 'a0' already used at '0'"),
    )
    with pytest.raises(ClassViolationError):
        require_class(tree, "C_c")


def test_require_class_raises_with_report():
    with pytest.raises(ClassViolationError) as exc:
        require_class(parse_tree("seq(a,a)"), "C_c")
    assert exc.value.report.violations


@given(trees)
def test_generated_trees_lie_in_the_strict_class(tree):
    # the shared generator promises taus only inside self-loops
    require_class(tree, "C_a")


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def test_tree_to_dot_mentions_every_activity():
    dot = tree_to_dot(parse_tree("seq(a,xor(b,tau))"))
    assert dot.startswith("digraph")
    for label in ("a", "b", "→", "×", "τ"):  # operators render as glyphs
        assert label in dot


def test_tree_to_dot_numbers_the_nodes_in_pre_order_before_the_edges():
    assert tree_to_dot(parse_tree("seq(a,xor(b,tau))")) == (
        "digraph process_tree {\n"
        "  node [shape=circle];\n"
        '  n0 [label="→", shape=circle];\n'
        '  n1 [label="a", shape=box];\n'
        '  n2 [label="×", shape=circle];\n'
        '  n3 [label="b", shape=box];\n'
        '  n4 [label="τ", shape=circle];\n'
        "  n0 -> n1;\n"
        "  n0 -> n2;\n"
        "  n2 -> n3;\n"
        "  n2 -> n4;\n"
        "}"
    )


@pytest.mark.parametrize(
    "render",
    [
        lambda t: tree_to_dot(t),
        lambda t: dfg_to_dot(dfg_of_log(minimal_log(t))),
        lambda t: graph_to_dot(order_relations_graph(behavioral_profile(t))),
    ],
    ids=["tree", "dfg", "order-relations"],
)
def test_every_dot_writer_lists_every_node_before_every_edge(render):
    lines = render(parse_tree(ORDERS_DESIGNED)).splitlines()
    nodes = [i for i, line in enumerate(lines) if "[label=" in line]
    edges = [i for i, line in enumerate(lines) if " -> " in line]
    assert nodes and edges and max(nodes) < min(edges)


def test_tree_to_dot_renders_a_chain_of_any_depth():
    # far deeper than parse_tree accepts; the writer does not recurse
    tree = leaf("z")
    for i in range(1_500):
        tree = node(("seq", "xor")[i % 2], leaf(f"a{i}"), tree)
    dot = tree_to_dot(tree)
    assert dot.count(" -> ") == 3_000 and dot.count("shape=box") == 1_501


fuzz_tree_texts = st.lists(
    st.one_of(
        st.sampled_from(["seq", "xor", "and", "loop", "tau", "a", "b1", "(", ")", ",", " ", "\n", "\x00"]),
        st.sampled_from(["seq(" * (MAX_TREE_DEPTH + 50), "(" * 1_000]),  # nested brackets
        st.text(max_size=4),
    ),
    max_size=30,
).map("".join)


@given(fuzz_tree_texts)
@settings(max_examples=100, deadline=None)
def test_parser_raises_only_value_errors_on_fuzzed_text(text):
    try:
        parse_tree(text)
    except ValueError:
        pass
