"""Behavioral profiles: structural computation, the language-based oracle,
and the order-relations graph."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpa.profiles import (
    CHOICE,
    INVERSE,
    PARALLEL,
    STRICT,
    BehavioralProfile,
    behavioral_profile,
    graph_to_dot,
    mirror,
    order_relations_graph,
    profile_from_function,
)
from bpa.semantics import LogSizeError, minimal_log
from bpa.trees import node, normal_form, parse_tree, tau
from conftest import CLAIMS_MODEL, ORDERS_DESIGNED, ORDERS_DISCOVERED, random_tree
from oracles import lca_profile, weak_order_oracle

trees = st.builds(random_tree, st.randoms(use_true_random=False))


def test_mirror_involution():
    for rel in (STRICT, INVERSE, CHOICE, PARALLEL):
        assert mirror(mirror(rel)) == rel
    assert mirror(STRICT) == INVERSE


def test_profile_requires_total_assignment():
    with pytest.raises(ValueError, match="missing or invalid"):
        BehavioralProfile(frozenset({"a", "b"}), {("a", "a"): CHOICE})


def test_profile_requires_mirrored_pairs():
    rels = {
        ("a", "a"): CHOICE,
        ("b", "b"): CHOICE,
        ("a", "b"): STRICT,
        ("b", "a"): STRICT,  # should be INVERSE
    }
    with pytest.raises(ValueError, match="mirror"):
        BehavioralProfile(frozenset({"a", "b"}), rels)


def test_profile_from_function_evaluates_each_unordered_pair_once():
    calls = []

    def rel(x, y):
        calls.append((x, y))
        return CHOICE if x == y else STRICT

    profile = profile_from_function(["b", "a", "c"], rel)
    assert calls == [("a", "a"), ("a", "b"), ("a", "c"), ("b", "b"), ("b", "c"), ("c", "c")]
    assert profile.relation("c", "a") == INVERSE


# ---------------------------------------------------------------------------
# Structural computation: frozen facts on the worked examples
# ---------------------------------------------------------------------------

def test_claims_profile_facts():
    profile = behavioral_profile(parse_tree(CLAIMS_MODEL))
    assert profile.relation("RBP", "AP") == STRICT
    assert profile.relation("AP", "RBP") == INVERSE
    assert profile.relation("RP", "SC") == CHOICE
    assert profile.relation("RFI", "PN") == PARALLEL
    assert profile.relation("PN", "CD") == STRICT
    assert profile.relation("PN", "PN") == PARALLEL  # self-loop
    assert profile.relation("RBP", "RBP") == CHOICE  # occurs at most once


def test_orders_designed_and_discovered_agree():
    designed = behavioral_profile(parse_tree(ORDERS_DESIGNED))
    discovered = behavioral_profile(parse_tree(ORDERS_DISCOVERED))
    assert designed == discovered
    assert designed.relation("TLS", "TOS") == STRICT
    assert designed.relation("C", "T") == PARALLEL
    assert designed.relation("OLS", "GO") == CHOICE
    assert designed.relation("OW", "OW") == PARALLEL


@pytest.mark.parametrize(
    "text, x, y, expected",
    [
        ("seq(a,b)", "a", "b", STRICT),
        ("xor(a,b)", "a", "b", CHOICE),
        ("and(a,b)", "a", "b", PARALLEL),
        ("loop(a,tau)", "a", "a", PARALLEL),
        ("seq(a,b)", "a", "a", CHOICE),
        # the nearest diverging ancestor decides, not the outermost operator
        ("seq(xor(a,b),c)", "a", "b", CHOICE),
        ("xor(seq(a,b),c)", "a", "b", STRICT),
        ("and(seq(a,b),c)", "b", "a", INVERSE),
    ],
)
def test_lca_decides_the_relation(text, x, y, expected):
    assert behavioral_profile(parse_tree(text)).relation(x, y) == expected


def test_structural_profile_rejects_duplicates():
    from bpa.trees import ClassViolationError

    with pytest.raises(ClassViolationError):
        behavioral_profile(parse_tree("seq(a,a)"))


# ---------------------------------------------------------------------------
# Language-based oracle (dual route)
# ---------------------------------------------------------------------------

def test_oracle_matches_structure_on_the_worked_examples():
    for text in (CLAIMS_MODEL, ORDERS_DESIGNED):
        tree = parse_tree(text)
        assert weak_order_oracle(tree) == behavioral_profile(tree)


def test_oracle_refuses_oversized_languages():
    wide = parse_tree("and(" + ",".join(f"a{i}" for i in range(8)) + ")")
    with pytest.raises(RuntimeError, match="cap"):
        weak_order_oracle(wide, trace_cap=100)


@given(trees)
@settings(max_examples=80, deadline=None)
def test_structural_equals_language_oracle(tree):
    try:
        oracle = weak_order_oracle(tree)
    except RuntimeError:
        return  # language too large for the oracle; covered by sized corpus
    assert behavioral_profile(tree) == oracle


def with_skips(tree, rng):
    """``tree`` with random subtrees made optional, as ``xor(tau, ...)``."""
    if tree.is_operator and not tree.is_self_loop:
        tree = node(tree.label, *(with_skips(c, rng) for c in tree.children))
    return node("xor", tau(), tree) if rng.random() < 0.25 else tree


@given(trees, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_distinct_activities_co_occur_exactly_when_not_in_choice(tree, rng):
    # the spec generator decides false choices from this, without a log
    tree = normal_form(with_skips(tree, rng))
    try:
        log = minimal_log(tree, trace_cap=2000)
    except LogSizeError:
        return  # too large to enumerate; the relations alone are covered above
    together = {(a, b) for acts, _ in log.activity_variants() for a in acts for b in acts}
    profile = behavioral_profile(tree)
    for a, b in profile.pairs():
        if a != b:
            assert ((a, b) in together) == (profile.relation(a, b) != CHOICE)


@given(st.randoms(use_true_random=False), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_structural_equals_lca_oracle_on_large_trees(rng, n):
    # beyond the language oracle's trace cap; skips add taus outside self-loops
    tree = with_skips(random_tree(rng, n_activities=n, max_children=4), rng)
    assert behavioral_profile(tree) == lca_profile(tree)


# ---------------------------------------------------------------------------
# Rendering and the order-relations graph
# ---------------------------------------------------------------------------

def test_matrix_tsv_layout():
    profile = behavioral_profile(parse_tree("seq(a,xor(b,c))"))
    assert profile.matrix_tsv() == (
        "\ta\tb\tc\n"
        "a\t+\t->\t->\n"
        "b\t<-\t+\t+\n"
        "c\t<-\t+\t+\n"
    )


def test_order_relations_graph_edges():
    profile = behavioral_profile(parse_tree("seq(a,xor(b,c),and(d,e))"))
    g = order_relations_graph(profile)
    assert ("a", "b") in g.edges and ("b", "a") not in g.edges  # strict: one way
    assert ("b", "c") in g.edges and ("c", "b") in g.edges  # choice: both ways
    assert ("d", "e") not in g.edges and ("e", "d") not in g.edges  # parallel: none
    assert all(x != y for x, y in g.edges)  # identity excluded


def test_order_relations_graph_ignores_self_loop_parallel():
    profile = behavioral_profile(parse_tree("loop(a,tau)"))
    assert order_relations_graph(profile).edges == frozenset()


def test_graph_to_dot_lists_vertices_and_edges():
    g = order_relations_graph(behavioral_profile(parse_tree("seq(a,b)")))
    dot = graph_to_dot(g)
    assert dot.startswith("digraph order_relations {")
    assert 'label="a"' in dot and 'label="b"' in dot
    assert "n0 -> n1;" in dot
    assert dot.count("->") == 1
