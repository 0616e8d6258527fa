"""Minimal df-complete logs: the trace-count/length computation, the log
materialization, language enumeration, and df-completeness."""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpa.semantics import (
    DEFAULT_TRACE_CAP,
    LogSizeError,
    _interleavings,
    minimal_log,
    ntl,
)
from bpa.logs import EventLog, dfg_of_log
from bpa.trees import parse_tree
from conftest import CLAIMS_ABSTRACT, CLAIMS_REFERENCE, random_tree
from oracles import df_complete, enumerate_language, interleavings

def _fits(tree) -> bool:
    try:
        ntl(tree, trace_cap=300)
    except LogSizeError:
        return False
    return True


# parallel compositions of self-loops explode combinatorially; keep the
# enumeration-based properties on trees whose minimal log stays small
trees = st.builds(random_tree, st.randoms(use_true_random=False)).filter(_fits)


def acts(trace) -> tuple[str, ...]:
    return tuple(e.activity for e in trace)


# ---------------------------------------------------------------------------
# Trace counts and lengths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text, tr, lens",
    [
        ("tau", 1, (0,)),
        ("a", 1, (1,)),
        ("loop(a,tau)", 1, (2,)),
        ("xor(a,b)", 2, (1, 1)),
        ("seq(a,b)", 1, (2,)),
        ("and(a,b)", 2, (2, 2)),
        ("xor(a,seq(b,c))", 2, (1, 2)),
        ("seq(xor(a,b),xor(c,d))", 4, (2, 2, 2, 2)),
        # two interleaved decks of sizes 1 and 2: 3!/(1!2!) = 3
        ("and(a,loop(b,tau))", 3, (3, 3, 3)),
        ("and(a,b,c)", 6, (3,) * 6),
    ],
)
def test_ntl_small_cases(text, tr, lens):
    result = ntl(parse_tree(text))
    assert (result.tr, result.lens) == (tr, lens)


def test_ntl_claims_abstract_model():
    result = ntl(parse_tree(CLAIMS_ABSTRACT))
    assert result.tr == 4
    assert result.lens == (3, 7, 7, 7)
    assert result.size == 24


def test_ntl_result_validates_consistency():
    from bpa.semantics import NtlResult

    with pytest.raises(ValueError):
        NtlResult(2, (1,))


def test_ntl_rejects_duplicate_activities():
    from bpa.trees import ClassViolationError

    with pytest.raises(ClassViolationError):
        ntl(parse_tree("seq(a,a)"))


def test_ntl_rejects_general_loops():
    from bpa.trees import ClassViolationError

    with pytest.raises(ClassViolationError):
        ntl(parse_tree("loop(seq(a,b),c)"))


def test_ntl_cap_aborts_early():
    # 12 parallel activities would need 12! = 479M traces; the cap must trip
    # without materializing anything
    wide = parse_tree("and(" + ",".join(f"a{i}" for i in range(12)) + ")")
    with pytest.raises(LogSizeError):
        ntl(wide, trace_cap=10_000)


def test_ntl_cap_guards_giant_interleavings():
    # two 64-event chains: the single combination alone has C(128,64)
    # interleavings; the incremental check must fire before the extend
    left = parse_tree("seq(" + ",".join(f"l{i}" for i in range(64)) + ")")
    right = parse_tree("seq(" + ",".join(f"r{i}" for i in range(64)) + ")")
    from bpa.trees import node

    with pytest.raises(LogSizeError):
        ntl(node("and", left, right), trace_cap=1_000)


def test_ntl_caps_by_default():
    # four parallel chains of three: 12!/(3!)^4 = 369,600 traces, over the
    # default cap, so no list of that many lengths is built
    four_chains = parse_tree("and(seq(a0,b0,c0),seq(a1,b1,c1),seq(a2,b2,c2),seq(a3,b3,c3))")
    with pytest.raises(LogSizeError, match=f"exceeding {DEFAULT_TRACE_CAP}"):
        ntl(four_chains)


# ---------------------------------------------------------------------------
# Minimal log materialization
# ---------------------------------------------------------------------------

def test_minimal_log_claims_generation_order():
    log = minimal_log(parse_tree(CLAIMS_ABSTRACT))
    assert [acts(t) for t in log.traces()] == CLAIMS_REFERENCE


def test_minimal_log_self_loop_repeats_exactly_twice():
    log = minimal_log(parse_tree("loop(a,tau)"))
    assert log.as_multiset() == {("a", "a"): 1}


def test_minimal_log_interleavings_are_distinct():
    log = minimal_log(parse_tree("and(a,a2)"))
    assert log.as_multiset() == {("a", "a2"): 1, ("a2", "a"): 1}


@given(st.lists(st.lists(st.integers(0, 9), max_size=3).map(tuple), min_size=1, max_size=3))
@settings(deadline=None)
def test_interleavings_match_the_generator_oracle(seqs):
    seqs = tuple(seqs)
    assert _interleavings(seqs) == list(interleavings(seqs))


def test_minimal_log_respects_cap():
    wide = parse_tree("and(" + ",".join(f"a{i}" for i in range(8)) + ")")
    with pytest.raises(LogSizeError, match="exceeding"):
        minimal_log(wide, trace_cap=100)


@given(trees)
@settings(max_examples=60)
def test_counts_match_materialization(tree):
    # dual route: combinatorial counting vs. explicit enumeration
    predicted = ntl(tree)
    log = minimal_log(tree)
    assert log.num_traces == predicted.tr
    assert log.num_events == predicted.size
    assert Counter(len(t) for t in log.traces()) == Counter(predicted.lens)


@given(trees)
@settings(max_examples=60)
def test_minimal_traces_lie_in_the_language(tree):
    language = enumerate_language(tree, loop_bound=1)
    for trace in minimal_log(tree).traces():
        assert acts(trace) in language


# ---------------------------------------------------------------------------
# Language enumeration
# ---------------------------------------------------------------------------

def test_language_unrolls_loops_up_to_bound():
    lang = enumerate_language(parse_tree("loop(a,tau)"), loop_bound=2)
    assert lang == {("a",), ("a", "a"), ("a", "a", "a")}


def test_language_of_choice_contains_both_branches():
    assert enumerate_language(parse_tree("xor(a,tau)")) == {("a",), ()}


def test_language_of_parallel_is_all_interleavings():
    assert enumerate_language(parse_tree("and(a,seq(b,c))")) == {
        ("a", "b", "c"),
        ("b", "a", "c"),
        ("b", "c", "a"),
    }


# ---------------------------------------------------------------------------
# df-completeness
# ---------------------------------------------------------------------------

def test_df_complete_for_the_models_own_minimal_log():
    tree = parse_tree("seq(xor(a,b),and(c,loop(d,tau)))")
    assert df_complete(minimal_log(tree), tree)


def test_df_complete_fails_on_missing_edges():
    tree = parse_tree("and(a,b)")
    assert not df_complete(EventLog([("a", "b")]), tree)


@given(trees)
@settings(max_examples=60)
def test_minimal_log_is_df_complete(tree):
    assert df_complete(minimal_log(tree), tree)


@given(trees)
@settings(max_examples=60)
def test_extra_repetitions_keep_df_completeness(tree):
    log = minimal_log(tree)
    doubled = log.union(log)
    assert dfg_of_log(doubled) == dfg_of_log(log)
    assert df_complete(doubled, tree)
