"""Synchronized event-log abstraction: Kendall witnesses, stage one
(per-trace aggregation), and stage two (redistribution over the reference
log)."""
import inspect
import sys
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpa import make_spec
from bpa.event_abstraction import (
    MatchingError,
    _order_mask,
    _reorder,
    choice_sets,
    delete_choice_activities,
    ea1,
    ea2,
    ea_bpa,
    even_split_sizes,
    kendall_distance,
)
from bpa.logs import Event, EventLog, log_from_sequences
from bpa.model_abstraction import Abstraction, InapplicableError, plan
from bpa.profiles import CHOICE, PARALLEL, profile_from_function
from bpa.semantics import minimal_log
from bpa.trees import parse_tree
from conftest import (
    CLAIMS_GROUPS,
    CLAIMS_MODEL,
    ORDERS_GROUPS,
    ORDERS_TRACES,
    build_claims_log,
)
import oracles
from oracles import _transpose_to, apply_transpositions, inversions, quotient


def acts(trace) -> tuple[str, ...]:
    return tuple(e.activity for e in trace)


def marked(trace) -> int:
    return sum(1 for e in trace if e.get("transposed") == "true")


# ---------------------------------------------------------------------------
# Kendall tau distance with witness
# ---------------------------------------------------------------------------

def bfs_swap_distance(source: tuple[str, ...], target: tuple[str, ...]) -> int:
    """Oracle: shortest path in the adjacent-transposition graph."""
    if source == target:
        return 0
    seen = {source}
    frontier = deque([(source, 0)])
    while frontier:
        current, d = frontier.popleft()
        for i in range(len(current) - 1):
            step = list(current)
            step[i], step[i + 1] = step[i + 1], step[i]
            step = tuple(step)
            if step == target:
                return d + 1
            if step not in seen:
                seen.add(step)
                frontier.append((step, d + 1))
    raise AssertionError("unreachable for equal multisets")


def test_kendall_identity():
    assert kendall_distance(("a", "b"), ("a", "b")) == kendall_distance(("a", "b"), ("a", "b"))
    result = kendall_distance(("a", "b", "c"), ("a", "b", "c"))
    assert (result.distance, result.transpositions) == (0, ())


def test_kendall_single_swap():
    result = kendall_distance(("a", "b"), ("b", "a"))
    assert (result.distance, result.transpositions) == (1, (0,))


def test_kendall_duplicates_match_left_to_right():
    result = kendall_distance(("b", "a", "b"), ("b", "b", "a"))
    assert result.distance == 1
    assert apply_transpositions(("b", "a", "b"), result.transpositions) == ["b", "b", "a"]


def test_kendall_requires_equal_multisets():
    with pytest.raises(ValueError, match="same activities"):
        kendall_distance(("a", "b"), ("a", "a"))


sequences = st.lists(st.sampled_from("abc"), min_size=0, max_size=7).map(tuple)


@given(sequences, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_kendall_matches_the_bfs_oracle(source, rng):
    target = tuple(rng.sample(source, len(source)))
    result = kendall_distance(source, target)
    assert result.distance == bfs_swap_distance(source, target)
    assert result.distance == kendall_distance(target, source).distance
    assert len(result.transpositions) == result.distance
    assert apply_transpositions(source, result.transpositions) == list(target)


#: sequences with some symbols doubled in place, as stage one doubles the
#: event of an abstract activity in parallel self-relation
doubled = st.lists(st.tuples(st.sampled_from("abcd"), st.booleans()), max_size=7).map(
    lambda items: tuple(sym for sym, twice in items for _ in range(1 + twice))
)


@given(doubled | sequences, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_stage_two_ranking_matches_the_kendall_distance(source, rng):
    target = tuple(rng.sample(source, len(source)))
    assert inversions(source, target) == kendall_distance(source, target).distance
    assert inversions(target, source) == kendall_distance(target, source).distance


#: longer sequences over few symbols, so that most symbols repeat
repeating = st.lists(st.sampled_from("abc"), max_size=14).map(tuple)


@given(doubled | repeating, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_order_masks_rank_by_the_kendall_distance(source, rng):
    target = tuple(rng.sample(source, len(source)))
    rank = (_order_mask(source) ^ _order_mask(target)).bit_count()
    assert rank == inversions(source, target) == kendall_distance(source, target).distance
    # the mask of a sequence does not depend on what it is compared with
    assert _order_mask(source) == _order_mask(list(source))


@given(doubled | repeating, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_reorder_matches_the_bubble_sort_witness(source, rng):
    target = tuple(rng.sample(source, len(source)))
    trace = tuple(Event(a, (("at", str(i)),)) for i, a in enumerate(source))
    replayed = _transpose_to(trace, kendall_distance(source, target))
    expected = [(int(e.get("at")), e.get("transposed") == "true") for e in replayed]
    assert list(_reorder(source, target)) == expected


def test_order_mask_sets_one_bit_per_inverted_label_pair():
    # labels in sorted order: (a,0) (a,1) (b,0); b before both copies of a
    assert _order_mask(("b", "a", "a")) == (1 << 2) | (1 << (1 * 3 + 2))
    assert _order_mask(("a", "a", "b")) == 0
    assert _order_mask(()) == 0


# ---------------------------------------------------------------------------
# Quotients and split sizes
# ---------------------------------------------------------------------------

def test_quotient_groups_by_activity_multiset():
    traces = [
        (Event("a"), Event("b")),
        (Event("b"), Event("a")),
        (Event("a"),),
    ]
    classes = quotient(traces)
    assert [c.signature for c in classes] == [(("a", 1), ("b", 1)), (("a", 1),)]
    assert [i for i, _ in classes[0].members] == [0, 1]  # original positions


def test_even_split_sizes():
    assert even_split_sizes(45, 3) == [15, 15, 15]
    assert even_split_sizes(7, 3) == [3, 2, 2]
    assert even_split_sizes(1, 1) == [1]


def test_even_split_rejects_deficits():
    with pytest.raises(ValueError, match="cannot fill"):
        even_split_sizes(2, 3)
    with pytest.raises(ValueError, match="at least one bucket"):
        even_split_sizes(2, 0)


@given(st.integers(1, 200), st.integers(1, 20))
def test_even_split_is_even(m, k):
    if m < k:
        return
    sizes = even_split_sizes(m, k)
    assert sum(sizes) == m and len(sizes) == k
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


# ---------------------------------------------------------------------------
# Stage one on the worked example
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def claims_ctx():
    return plan(parse_tree(CLAIMS_MODEL), make_spec(CLAIMS_GROUPS, Fraction(1, 2)))


def test_context_splits_the_abstract_alphabet(claims_ctx):
    assert claims_ctx.new_names == {"AB", "AC", "FDD"}
    assert frozenset(claims_ctx.spec.agg) - claims_ctx.new_names == {"RBP", "RP", "SC", "AP"}


def test_stage_one_collapses_every_complex_variant(claims_ctx):
    out = ea1(build_claims_log(), claims_ctx)
    variants = dict(out.activity_variants())
    assert variants == {
        ("RBP", "AB", "AC", "FDD", "FDD", "SC", "AP"): 45,
        ("RBP", "RP", "AP"): 1,
    }


def test_stage_one_suppresses_choice_conflicting_groups(claims_ctx):
    # the short variant contains RP, which excludes both AB and AC
    out = ea1(log_from_sequences([("RBP", "CBW", "NC", "RP", "AP")]), claims_ctx)
    assert [acts(t) for t in out.traces()] == [("RBP", "RP", "AP")]


def test_stage_one_records_covered_activities(claims_ctx):
    out = ea1(build_claims_log(), claims_ctx)
    trace = next(t for t in out.traces() if len(t) == 7)
    by_activity = {e.activity: e.get("concrete") for e in trace}
    assert by_activity["AB"] == "CBW;CD"
    assert by_activity["AC"] == "BC;NC;RFI"
    assert by_activity["FDD"] == "PDD;PN"
    assert by_activity["RBP"] is None  # kept events pass through untouched


def test_stage_one_doubles_parallel_self_related_activities(claims_ctx):
    out = ea1(build_claims_log(), claims_ctx)
    trace = next(t for t in out.traces() if len(t) == 7)
    assert acts(trace).count("FDD") == 2
    i = acts(trace).index("FDD")
    assert trace[i] == trace[i + 1]  # doubled in place, back to back


def test_stage_one_keeps_partial_group_coverage(claims_ctx):
    # only one member of FDD occurs: the abstract event still appears, and
    # records just the member that was present
    out = ea1(log_from_sequences([("RBP", "CBW", "NC", "PN", "SC", "AP")]), claims_ctx)
    trace = next(iter(out.traces()))
    fdd = [e for e in trace if e.activity == "FDD"]
    assert len(fdd) == 2  # still parallel self-related
    assert fdd[0].get("concrete") == "PN"


# ---------------------------------------------------------------------------
# Choice sets and round-robin deletion
# ---------------------------------------------------------------------------

#: two aggregated branches of an exclusive choice: X and Y come out
#: choice-related, so stage one must never leave them in the same trace
XOR_MODEL = "xor(seq(x1,and(x2,x3)),seq(y1,and(y2,y3)))"
XOR_GROUPS = {"X": ["x1", "x2", "x3"], "Y": ["y1", "y2", "y3"]}


@pytest.fixture(scope="module")
def xor_ctx():
    return plan(parse_tree(XOR_MODEL), make_spec(XOR_GROUPS, Fraction(1, 2)))


def test_choice_sets_on_the_worked_example(claims_ctx):
    # AB before AC, AB before FDD, AC parallel FDD: no exclusive pair
    assert choice_sets(claims_ctx) == []


def test_choice_sets_cover_exclusive_aggregations(xor_ctx):
    assert choice_sets(xor_ctx) == [("X", "Y")]


def choice_graph(names, edges) -> Abstraction:
    """An abstraction whose new names ``names`` are choice-related along
    ``edges`` and parallel otherwise.  The kept activity ``k`` is
    choice-related with every name; it is not new, so it joins no set."""
    choice = {frozenset(e) for e in edges}

    def rel(x, y):
        return CHOICE if (x != y and "k" in (x, y)) or frozenset((x, y)) in choice else PARALLEL

    profile = profile_from_function([*names, "k"], rel)
    return Abstraction(spec=None, report=None, new_names=frozenset(names), profile=profile)


@st.composite
def choice_graphs(draw):
    names = [f"X{i}" for i in range(draw(st.integers(0, 8)))]
    pairs = list(combinations(names, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return names, [p for p, k in zip(pairs, keep) if k]


K5 = ["A", "B", "C", "D", "E"]


@given(choice_graphs())
@example(([], []))
@example((["X", "Y"], [("X", "Y")]))
@example((["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")]))  # two sets sharing Y
@example((K5, list(combinations(K5, 2))))
@example((["A", "B", "C", "D", "E", "F"], [*combinations("ABC", 2), *combinations("DEF", 2)]))
@settings(max_examples=300, deadline=None)
def test_choice_sets_match_the_networkx_oracle(graph):
    abstraction = choice_graph(*graph)
    assert choice_sets(abstraction) == oracles.choice_sets(abstraction)


def test_choice_sets_do_not_recurse():
    # a clique of 60 names under a recursion limit 20 frames above the
    # caller: a search that recursed once per member could not finish
    names = [f"X{i:02}" for i in range(60)]
    abstraction = choice_graph(names, combinations(names, 2))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)
    try:
        got = choice_sets(abstraction)
    finally:
        sys.setrecursionlimit(limit)
    assert got == [tuple(names)]


def test_round_robin_deletion_alternates_the_keeper(xor_ctx):
    conflicted = [(Event("X"), Event("Y"))] * 4
    out = [t for t, _ in delete_choice_activities([(t, 1) for t in conflicted], xor_ctx)]
    assert [acts(t) for t in out] == [("X",), ("Y",), ("X",), ("Y",)]


def test_round_robin_keeper_falls_forward_when_absent(xor_ctx):
    traces = [
        (Event("X"), Event("Y")),   # keeper X
        (Event("Y"),),              # no conflict: untouched, pointer stays
        (Event("X"), Event("Y")),   # keeper Y
        (Event("X"), Event("Y")),   # keeper X again
    ]
    out = [t for t, _ in delete_choice_activities([(t, 1) for t in traces], xor_ctx)]
    assert [acts(t) for t in out] == [("X",), ("Y",), ("Y",), ("X",)]


def test_deletion_balances_frequencies(xor_ctx):
    conflicted = [(Event("X"), Event("Y"))] * 10
    out = [t for t, _ in delete_choice_activities([(t, 1) for t in conflicted], xor_ctx)]
    counts = Counter(a for t in out for a in acts(t))
    assert counts == {"X": 5, "Y": 5}


# ---------------------------------------------------------------------------
# Stage two on the worked examples
# ---------------------------------------------------------------------------

def test_claims_end_to_end_redistribution():
    out = ea_bpa(build_claims_log(), make_spec(CLAIMS_GROUPS, Fraction(1, 2)))
    assert (out.num_traces, out.num_events) == (46, 318)
    variants = Counter((acts(t), marked(t)) for t in out.traces())
    assert variants == {
        (("RBP", "RP", "AP"), 0): 1,
        (("RBP", "AB", "AC", "FDD", "FDD", "SC", "AP"), 0): 15,
        (("RBP", "AB", "FDD", "AC", "FDD", "SC", "AP"), 2): 15,
        (("RBP", "AB", "FDD", "FDD", "AC", "SC", "AP"), 3): 15,
    }


def test_orders_end_to_end_redistribution():
    out = ea_bpa(log_from_sequences(ORDERS_TRACES), make_spec(ORDERS_GROUPS, Fraction(5, 9)))
    assert (out.num_traces, out.num_events) == (9, 39)
    variants = Counter(acts(t) for t in out.traces())
    assert variants == {("RQ", "OT", "N", "N", "CT"): 7, ("RQ", "DQ"): 2}
    assert all(marked(t) == 0 for t in out.traces())  # already in order


def test_transpositions_mark_both_swapped_events():
    # one abstracted trace <b,a> must match the reference <a,b> of seq(a,b):
    # the single swap marks both events
    out = ea2(EventLog([(Event("b"), Event("a"))]), parse_tree("seq(a,b)"))
    trace = next(iter(out.traces()))
    assert acts(trace) == ("a", "b")
    assert [e.get("transposed") for e in trace] == ["true", "true"]


def test_stage_two_preserves_event_attributes():
    source = (Event("b", (("concrete", "u;v"),)), Event("a"))
    out = ea2(EventLog([source]), parse_tree("seq(a,b)"))
    trace = next(iter(out.traces()))
    assert trace[1].activity == "b"
    assert trace[1].get("concrete") == "u;v"
    assert trace[1].get("transposed") == "true"


def test_stage_two_requires_the_stricter_model_class():
    from bpa.trees import ClassViolationError

    with pytest.raises(ClassViolationError):
        ea2(EventLog([("a",)]), parse_tree("xor(a,tau)"))


def test_matching_fails_without_a_reference_bag():
    with pytest.raises(MatchingError, match=r"no reference trace with activities \{a:2\}"):
        ea2(EventLog([("a", "a")]), parse_tree("seq(a,b)"))


def test_matching_fails_on_class_deficit():
    with pytest.raises(MatchingError, match="1 abstracted trace\\(s\\) cannot cover 2"):
        ea2(EventLog([("a", "b")]), parse_tree("and(a,b)"))


def test_matching_fails_on_unmatched_reference_class():
    with pytest.raises(MatchingError, match=r"activities \{b:1\} got no match"):
        ea2(EventLog([("a",), ("a",)]), parse_tree("xor(a,b)"))


def test_stage_two_splits_surpluses_evenly():
    log = EventLog([("a", "b")] * 5 + [("b", "a")] * 2)
    out = ea2(log, parse_tree("and(a,b)"))
    variants = Counter(acts(t) for t in out.traces())
    # 7 traces over 2 references: 4 + 3, closest-first
    assert sorted(variants.values()) == [3, 4]
    assert (out.num_traces, out.num_events) == (7, 14)


def test_ea_rejects_inapplicable_aggregations():
    with pytest.raises(InapplicableError, match="not applicable"):
        ea_bpa(log_from_sequences([("a", "b", "c")]), make_spec({"X": ["a", "c"]}, Fraction(1, 2)))


def test_empty_traces_cannot_be_matched():
    # an optional branch puts empty traces in the log; synthesis never
    # recreates a bare tau, so stage two has no reference bag for them
    log = log_from_sequences([(), ("a", "b"), ("c", "d"), ("a", "b")])
    spec = make_spec({"X": ["a", "b"], "Y": ["c", "d"]}, Fraction(1, 2))
    with pytest.raises((MatchingError, InapplicableError)):
        ea_bpa(log, spec)


# ---------------------------------------------------------------------------
# Work per variant, not per trace
# ---------------------------------------------------------------------------

def test_stages_work_once_per_variant(monkeypatch):
    import bpa.event_abstraction as ea

    log = EventLog()
    for trace, n in build_claims_log().variants():
        log.add(trace, 1000 * n)
    calls = Counter()

    def counted(name):
        fn = getattr(ea, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(ea, name, wrapper)

    counted("_outcomes")
    counted("_reorder")
    abstraction = plan(parse_tree(CLAIMS_MODEL), make_spec(CLAIMS_GROUPS, Fraction(1, 2)))
    stage_one = ea1(log, abstraction)
    activity_sets = {frozenset(acts(trace)) for trace, _ in log.variants()}
    assert calls["_outcomes"] == len(activity_sets) < len(log.variants()) == 29
    out = ea2(stage_one, abstraction.tree)
    assert out.num_traces == 46_000
    references = minimal_log(abstraction.tree).num_traces
    assert 0 < calls["_reorder"] <= len(stage_one.variants()) * references
