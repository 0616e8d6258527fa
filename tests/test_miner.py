"""Restricted discovery: cut cascade, fall-throughs, the audit, and the
restriction report."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpa.miner as miner
import oracles
from bpa.logs import EventLog, _dfg_edges, log_from_sequences
from bpa.miner import (
    FORBIDDEN_FALLTHROUGHS,
    DiscoveryAudit,
    audit_restrictions,
    check_restricted,
    discover,
)
from bpa.semantics import LogSizeError, minimal_log, ntl
from bpa.trees import activities, isomorphic, normal_form, parse_tree, render_tree, size
from conftest import (
    CLAIMS_MODEL,
    ORDERS_DESIGNED,
    ORDERS_DISCOVERED,
    ORDERS_TRACES,
    random_tree,
)
from oracles import df_complete


def tree_of(*seqs) -> str:
    return render_tree(discover(log_from_sequences(seqs)))


def checked(*seqs):
    return check_restricted(log_from_sequences(seqs))


def rule_set(check) -> set[str]:
    return {r for r, _, _ in check.report.violations}


# ---------------------------------------------------------------------------
# Base cases and single cuts
# ---------------------------------------------------------------------------

def test_discover_rejects_empty_logs():
    with pytest.raises(ValueError, match="empty log"):
        discover(EventLog([]))


def test_base_cases():
    assert tree_of(()) == "tau"
    assert tree_of(("a",)) == "a"


def test_single_cuts():
    assert tree_of(("a", "b")) == "seq(a,b)"
    assert tree_of(("a",), ("b",)) == "xor(a,b)"
    assert tree_of(("a", "b"), ("b", "a")) == "and(a,b)"


def test_self_loop_from_repetitions():
    check = checked(("v", "v"), ("v", "v", "v"))
    assert render_tree(check.tree) == "loop(v,tau)"
    assert check.audit.fallthroughs_used == ["strict-tau-loop"]
    assert check.restricted


def test_empty_traces_unfold_into_an_optional_branch():
    check = checked((), ("a",), ("b",))
    assert render_tree(check.tree) == "xor(tau,a,b)"
    assert check.audit.fallthroughs_used == ["empty-traces"]
    assert check.restricted


def test_discovery_uses_variants_not_frequencies():
    once = log_from_sequences([("a", "b"), ("b", "a")])
    many = log_from_sequences([("a", "b")] * 50 + [("b", "a")])
    assert discover(once) == discover(many)


# ---------------------------------------------------------------------------
# Rediscoverability on the strict class
# ---------------------------------------------------------------------------

trees = st.builds(random_tree, st.randoms(use_true_random=False))


@given(trees)
@settings(max_examples=60, deadline=None)
def test_minimal_logs_rediscover_their_tree(tree):
    try:
        log = minimal_log(tree, trace_cap=400)
    except LogSizeError:
        return
    assert isomorphic(discover(log), normal_form(tree))


def test_claims_log_rediscovers_the_model():
    from conftest import build_claims_log

    log = build_claims_log()
    audit = DiscoveryAudit()
    tree = discover(log, audit)
    assert isomorphic(tree, parse_tree(CLAIMS_MODEL))
    assert audit.cuts_used == [
        "sequence", "choice", "sequence", "parallel", "sequence", "sequence",
    ]
    assert audit.fallthroughs_used == ["strict-tau-loop"] * 3
    assert audit.detected == []


def test_claims_log_is_unrestricted_only_by_model_structure():
    from conftest import build_claims_log

    # top-level sequence has activity children, which the restricted class
    # forbids; discovery itself never fell through
    check = check_restricted(build_claims_log())
    assert not check.restricted
    assert rule_set(check) == {"model-structure"}


def test_orders_log_discovery_anchor():
    check = check_restricted(log_from_sequences(ORDERS_TRACES))
    assert render_tree(check.tree) == ORDERS_DISCOVERED
    assert size(check.tree) == 28
    assert check.audit.cuts_used == [
        "sequence", "choice", "choice", "sequence", "parallel", "sequence",
    ]
    assert not check.restricted
    assert rule_set(check) == {"model-structure"}


def test_orders_discovery_overgeneralizes_the_designed_model():
    # the designed tree and the discovered tree have the same profile but
    # different languages: the log is df-complete only for the designed one
    log = log_from_sequences(ORDERS_TRACES)
    assert df_complete(log, parse_tree(ORDERS_DESIGNED))
    assert not df_complete(log, parse_tree(ORDERS_DISCOVERED))


# ---------------------------------------------------------------------------
# The cuts against their networkx oracles
# ---------------------------------------------------------------------------

#: random variants over six activities, with repeats and empty traces
random_variants = st.lists(
    st.lists(st.sampled_from("abcdef"), max_size=6).map(tuple), min_size=1, max_size=8
)


@st.composite
def model_variants(draw):
    """Some variants of the minimal log of a random tree: logs with cuts."""
    tree = draw(trees)
    try:
        variants = [acts for acts, _ in minimal_log(tree, trace_cap=200).activity_variants()]
    except LogSizeError:
        variants = [(a,) for a in sorted(activities(tree))]
    return draw(st.lists(st.sampled_from(variants), min_size=1, max_size=12))


@given(random_variants | model_variants())
@settings(max_examples=300, deadline=None)
def test_cuts_match_the_networkx_oracles(variants):
    nonempty = sorted({v for v in variants if v})
    if nonempty:
        alphabet = sorted({a for v in nonempty for a in v})
        edges, starts, ends = _dfg_edges(nonempty)
        assert miner._choice_cut(alphabet, edges) == oracles.choice_cut(alphabet, edges)
        got, want = DiscoveryAudit(), DiscoveryAudit()
        assert miner._sequence_cut(alphabet, edges) == oracles.sequence_cut(alphabet, edges, want)
        assert miner._parallel_cut(alphabet, edges, starts, ends, got) == oracles.parallel_cut(
            alphabet, edges, starts, ends, want
        )
        assert got.failures == want.failures

    # and through the whole recursion: the same tree and the same audit
    log = log_from_sequences(variants)
    got, want = DiscoveryAudit(), DiscoveryAudit()
    tree = discover(log, got)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("choice_cut", "parallel_cut"):
            patch.setattr(miner, f"_{name}", getattr(oracles, name))
        patch.setattr(miner, "_sequence_cut", lambda a, e: oracles.sequence_cut(a, e, want))
        assert discover(log, want) == tree
    assert got == want


#: a digraph on the first n letters, self-loops included: any graph, not only
#: the directly-follows graph of some log
digraphs = st.integers(2, 8).map(lambda n: list("abcdefgh"[:n])).flatmap(
    lambda alphabet: st.tuples(
        st.just(alphabet), st.sets(st.tuples(st.sampled_from(alphabet), st.sampled_from(alphabet)))
    )
)


@given(digraphs)
@settings(max_examples=150, deadline=None)
def test_the_sequence_cut_needs_no_direction_check(graph):
    # groups of strongly connected or mutually unreachable activities are the
    # summands of an ordinal sum (Gallai 1967): every pair across two groups
    # points the same way, so the oracle's direction tally never fails
    alphabet, edges = graph
    audit = DiscoveryAudit()
    assert miner._sequence_cut(alphabet, edges) == oracles.sequence_cut(alphabet, edges, audit)
    assert audit.failures == []


# ---------------------------------------------------------------------------
# Fall-through counterexamples: logs that leave the restricted class
# ---------------------------------------------------------------------------

def test_forbidden_fallthrough_list_is_stable():
    assert FORBIDDEN_FALLTHROUGHS == (
        "tau-loop", "activity-once-per-trace", "activity-concurrent", "flower",
    )


def test_flower_fallthrough():
    check = checked(("a", "b"), ("a", "b", "c"), ("c", "a"), ("d", "e"))
    assert render_tree(check.tree) == "xor(loop(xor(a,b,c),tau),seq(d,e))"
    assert size(check.tree) == 10
    assert check.audit.fallthroughs_used == ["flower"]
    assert check.audit.detected == [
        "tau-loop", "activity-once-per-trace", "activity-concurrent",
    ]
    assert not check.restricted
    assert rule_set(check) == {"forbidden-fallthrough", "loop-cut", "model-structure"}


def test_once_per_trace_log_falls_to_a_flower():
    check = checked(("a", "b"), ("e", "c", "d"), ("d", "e", "c"))
    assert render_tree(check.tree) == "xor(seq(a,b),loop(xor(c,d,e),tau))"
    assert "activity-once-per-trace" in check.audit.detected
    assert "forbidden-fallthrough" in rule_set(check)


def test_concurrent_activity_log_falls_to_a_flower():
    check = checked(
        ("a", "b"), ("f", "c", "d", "e"), ("c", "d", "e", "f", "f"), ("c", "d", "e", "f")
    )
    assert render_tree(check.tree) == "xor(seq(a,b),loop(xor(c,d,e,f),tau))"
    assert "activity-concurrent" in check.audit.detected
    assert not check.restricted


def test_nested_repetition_log_falls_to_a_flower():
    check = checked(("a", "c", "a"), ("b", "a"), ("d", "e"))
    assert render_tree(check.tree) == "xor(seq(xor(tau,b),loop(xor(a,c),tau)),seq(d,e))"
    assert check.audit.fallthroughs_used == ["empty-traces", "flower"]
    assert check.audit.detected == ["tau-loop", "activity-concurrent"]
    assert check.audit.failures == [
        "parallel-cut: merging start/end-less parts left one part"
    ]
    assert not check.restricted


def test_two_activity_repetition_log_falls_to_a_flower():
    # a loop cut would explain <a,b,a>; without one the sublog is a flower
    check = checked(("a", "b", "a"), ("c", "d", "e"))
    assert render_tree(check.tree) == "xor(loop(xor(a,b),tau),seq(c,d,e))"
    assert check.audit.fallthroughs_used == ["flower"]
    assert not check.restricted


def test_sequence_of_activities_violates_model_structure():
    check = checked(("a", "b", "c"))
    assert render_tree(check.tree) == "seq(a,b,c)"
    assert not check.restricted
    assert [v for v in check.report.violations] == [
        ("model-structure", "0", "sequence child is an activity or self-loop"),
        ("model-structure", "1", "sequence child is an activity or self-loop"),
        ("model-structure", "2", "sequence child is an activity or self-loop"),
    ]


def test_audit_restrictions_flags_self_loop_sequence_children():
    tree = parse_tree("seq(xor(a,b),loop(c,tau))")
    report = audit_restrictions(tree, DiscoveryAudit())
    assert [(r, p) for r, p, _ in report.violations] == [("model-structure", "1")]


def test_audit_restrictions_accepts_composite_sequences():
    tree = parse_tree("seq(xor(a,b),and(c,loop(d,tau)))")
    assert audit_restrictions(tree, DiscoveryAudit()).in_class


def test_restricted_logs_pass_the_audit():
    tree = parse_tree("xor(and(a,loop(b,tau)),seq(xor(c,d),xor(e,tau)))")
    check = check_restricted(minimal_log(tree))
    assert check.restricted
    assert isomorphic(check.tree, tree)


# ---------------------------------------------------------------------------
# Downstream contrast: what the counterexample aggregations would produce
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "model, groups, tr, lens_head, total",
    [
        # aggregating the two-activity branch blows up the minimal log
        ("xor(seq(a,b),and(e,and(c,d)))", {"x": ["a", "b"]}, 7, (1, 3), 19),
        ("xor(seq(a,b),and(xor(loop(f,tau),tau),seq(c,d,e)))", {"x": ["a", "b"]}, 11, (1, 5), 51),
        ("xor(loop(xor(b,seq(a,xor(c,tau))),tau),seq(d,e))", {"x": ["d", "e"]}, 91, (1, 6), 541),
        ("xor(loop(a,b),seq(d,e,f))", {"x": ["c", "d"]}, 3, (2, 2), 6),
    ],
)
def test_counterexample_aggregations_are_rejected(model, groups, tr, lens_head, total):
    from fractions import Fraction

    from bpa.model_abstraction import applicable, make_spec

    report = applicable(parse_tree(model), make_spec(groups, Fraction(1, 2)))
    assert not report.in_class  # the gates refuse all of these


@pytest.mark.parametrize(
    "abstracted, tr, lens, total",
    [
        ("xor(x,and(c,d,e))", 7, (1,) + (3,) * 6, 19),
        ("xor(x,and(loop(f,tau),seq(c,d,e)))", 11, (1,) + (5,) * 10, 51),
        ("xor(and(loop(a,tau),loop(b,tau),loop(c,tau)),x)", 91, (6,) * 90 + (1,), 541),
        ("xor(and(a,b),seq(x,f))", 3, (2, 2, 2), 6),
    ],
)
def test_counterexample_abstractions_inflate_the_log(abstracted, tr, lens, total):
    result = ntl(parse_tree(abstracted))
    assert result.tr == tr
    assert result.lens == lens
    assert result.size == total


def test_flower_abstraction_grows_the_model():
    concrete = parse_tree("xor(loop(xor(a,b,c),tau),seq(d,e))")
    abstracted = parse_tree("xor(and(loop(a,tau),loop(b,tau),loop(c,tau)),x)")
    assert size(abstracted) == 12
    assert size(concrete) == 10  # abstraction made the model bigger
