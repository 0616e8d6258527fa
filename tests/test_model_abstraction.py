"""Model abstraction: relation weights, threshold cascade, modular
decomposition, synthesis, applicability gates, and the end-to-end mapping."""
import json
import logging
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from bpa import model_abstraction
from bpa.model_abstraction import (
    AggSpec,
    InapplicableError,
    MDTNode,
    RelationWeights,
    applicable,
    derive_ordering_relation,
    derive_profile,
    dump_agg_spec,
    expand_spec,
    grouping_threshold,
    load_agg_spec,
    ma_bpa,
    make_spec,
    modular_decomposition,
    plan,
    relation_weights,
    w_minmax,
)
from bpa.profiles import (
    CHOICE,
    INVERSE,
    PARALLEL,
    STRICT,
    BehavioralProfile,
    behavioral_profile,
    order_relations_graph,
    profile_from_function,
)
from bpa.semantics import LogSizeError, minimal_log
from bpa.trees import (
    _classes,
    _masks,
    _members,
    activities,
    canonical,
    isomorphic,
    normal_form,
    parse_tree,
    render_tree,
    size,
)
from conftest import (
    CLAIMS_ABSTRACT,
    CLAIMS_GROUPS,
    CLAIMS_MODEL,
    ORDERS_ABSTRACT,
    ORDERS_DESIGNED,
    ORDERS_GROUPS,
    random_tree,
)

trees = st.builds(random_tree, st.randoms(use_true_random=False))

#: concrete tree whose aggregation produces the unrealizable "N" profile
#: a -> {B, C}, {B, C} -> d, B || C, a || d  (no tree has that profile)
N_MODEL = "and(seq(a,and(b2,c2)),seq(and(b1,c1),d))"
N_GROUPS = {"B": ["b1", "b2"], "C": ["c1", "c2"]}


def full_spec(model_text: str, groups, w_t) -> AggSpec:
    return expand_spec(make_spec(groups, w_t), activities(parse_tree(model_text)))


def random_grouping(rng: random.Random, names: list[str]) -> dict[str, list[str]]:
    """One or two non-singleton groups over a random subset of ``names``."""
    pool = list(names)
    rng.shuffle(pool)
    groups = {}
    for g in range(rng.randint(1, 2)):
        k = rng.randint(2, 3)
        if len(pool) < k:
            break
        groups[f"G{g}"] = [pool.pop() for _ in range(k)]
    return groups or {"G0": names[:2]}


# ---------------------------------------------------------------------------
# Aggregation specifications
# ---------------------------------------------------------------------------

def test_spec_alphabet_partition():
    spec = make_spec({"X": ["a", "b"], "c": ["c"]}, Fraction(1, 2))
    assert spec.domain() == {"X", "c"}
    assert spec.covered() == {"a", "b", "c"}
    assert spec.new_names({"a", "b", "c"}) == {"X"}
    assert spec.kept_names({"a", "b", "c"}) == {"c"}


def test_expand_spec_adds_identity_groups():
    spec = expand_spec(make_spec({"X": ["a", "b"]}, 1), {"a", "b", "c", "d"})
    assert spec.agg == {"X": frozenset({"a", "b"}), "c": frozenset({"c"}), "d": frozenset({"d"})}


def test_load_agg_spec_parses_fractional_threshold():
    spec = load_agg_spec('{"w_t": "5/9", "RQ": ["OLS", "GO"]}')
    assert spec.w_t == Fraction(5, 9)
    assert spec.agg == {"RQ": frozenset({"OLS", "GO"})}


def test_load_agg_spec_requires_threshold():
    with pytest.raises(ValueError, match="w_t"):
        load_agg_spec('{"X": ["a", "b"]}')


def test_load_agg_spec_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        load_agg_spec('{"w_t": "1/0", "X": ["a", "b"]}')


@pytest.mark.parametrize("text", ["", "w_t: 1/2", '{"w_t": "1/2",}'])
def test_load_agg_spec_names_a_spec_that_is_not_json(text):
    with pytest.raises(ValueError, match="^aggregation spec is not JSON: "):
        load_agg_spec(text)


def test_load_agg_spec_rejects_non_list_groups():
    with pytest.raises(ValueError, match="list of activity names"):
        load_agg_spec('{"w_t": "1/2", "X": "ab"}')


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers()
    | st.sampled_from(["1/2", "1/0", "a", "b", "tau", "X-1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["w_t", "X", "a", "tau"]), inner, max_size=3),
    max_leaves=8,
)
fuzz_spec_texts = st.one_of(
    st.lists(
        st.one_of(
            st.sampled_from(['{', '}', '[', ']', '"w_t"', ':', '"1/2"', '"X"', '"a"', ',', "1e999", "NaN"]),
            st.just("[" * 100_000),  # nested brackets
            st.text(max_size=4),
        ),
        max_size=20,
    ).map("".join),
    st.tuples(json_values, st.dictionaries(st.sampled_from(["X", "a", "tau"]), json_values, max_size=3))
    .map(lambda p: json.dumps({"w_t": p[0], **p[1]})),
)


@given(fuzz_spec_texts)
@settings(max_examples=100, deadline=None)
def test_load_agg_spec_raises_only_value_errors_on_fuzzed_text(text):
    try:
        load_agg_spec(text)
    except ValueError:
        pass


def test_spec_json_roundtrip():
    spec = make_spec(CLAIMS_GROUPS, Fraction(1, 2))
    assert load_agg_spec(dump_agg_spec(spec)) == spec


@pytest.mark.parametrize("name", ["tau", "seq", "xor", "and", "loop", "X-1", "a b", ""])
def test_specs_refuse_group_names_that_are_not_activity_names(name):
    with pytest.raises(ValueError, match=f"group name '{name}' is not a valid activity name"):
        make_spec({name: ["b", "c"]}, Fraction(1, 2))
    with pytest.raises(ValueError, match=f"group name '{name}' is not a valid activity name"):
        load_agg_spec(json.dumps({"w_t": "1/2", name: ["b", "c"]}))


def test_dump_keeps_identity_groups_implicit():
    spec = expand_spec(make_spec({"X": ["a", "b"]}, "1/2"), {"a", "b", "c"})
    text = dump_agg_spec(spec)
    assert '"c"' not in text
    assert load_agg_spec(text) == make_spec({"X": ["a", "b"]}, Fraction(1, 2))


# ---------------------------------------------------------------------------
# Relation weights and the selection cascade
# ---------------------------------------------------------------------------

def test_claims_pair_weights_are_exact():
    profile = behavioral_profile(parse_tree(CLAIMS_MODEL))
    spec = full_spec(CLAIMS_MODEL, CLAIMS_GROUPS, Fraction(1, 2))
    w = relation_weights("AB", "AC", profile, spec)
    assert w.x_before_y == Fraction(5, 6)
    assert w.y_before_x == Fraction(3, 6)
    assert w.x_not_before_y == Fraction(1, 6)
    assert w.y_not_before_x == Fraction(3, 6)
    assert (w.choice, w.strict, w.inverse, w.parallel) == (
        Fraction(1, 6), Fraction(1, 2), Fraction(1, 6), Fraction(1, 2),
    )
    assert w.w_max == Fraction(1, 2)
    assert derive_ordering_relation("AB", "AC", profile, spec) == STRICT


def test_weights_reject_unknown_members():
    profile = behavioral_profile(parse_tree("seq(a,b)"))
    spec = make_spec({"X": ["a", "zz"], "b": ["b"]}, 1)
    with pytest.raises(ValueError, match="not covered"):
        relation_weights("X", "b", profile, spec)


def test_weights_reject_empty_groups():
    profile = behavioral_profile(parse_tree("seq(a,b)"))
    spec = AggSpec(agg={"X": frozenset(), "b": frozenset({"b"})}, w_t=Fraction(1))
    with pytest.raises(ValueError, match="empty aggregation group"):
        relation_weights("X", "b", profile, spec)


def test_cascade_prefers_choice_over_parallel():
    # both weights reach the threshold; choice has priority
    profile = profile_from_function(
        ["a", "b", "c", "d"],
        lambda x, y: CHOICE if x == y or {x, y} == {"a", "c"} or {x, y} == {"b", "d"}
        else PARALLEL,
    )
    spec = make_spec({"X": ["a", "b"], "Y": ["c", "d"]}, Fraction(1, 2))
    w = relation_weights("X", "Y", profile, spec)
    assert w.choice == w.parallel == Fraction(1, 2)
    assert derive_ordering_relation("X", "Y", profile, spec) == CHOICE


def test_cascade_falls_back_to_parallel_with_a_diagnostic(caplog):
    # a || b1, a -> b2: every derived weight is exactly 1/2
    profile = behavioral_profile(parse_tree("and(seq(a,b2),b1)"))
    spec = make_spec({"B": ["b1", "b2"], "a": ["a"]}, Fraction(2, 3))
    assert relation_weights("a", "B", profile, spec).w_max == Fraction(1, 2)
    with caplog.at_level(logging.WARNING, logger="bpa.model_abstraction"):
        rel = derive_ordering_relation("a", "B", profile, spec)
    assert rel == PARALLEL
    assert "defaulting to parallel" in caplog.text


def test_threshold_comparisons_are_exact_at_the_boundary():
    profile = behavioral_profile(parse_tree("and(seq(a,b2),b1)"))
    spec = make_spec({"B": ["b1", "b2"], "a": ["a"]}, Fraction(1, 2))
    # strict weight is exactly 1/2 = w_t: the >= comparison must include it
    assert derive_ordering_relation("a", "B", profile, spec) == STRICT


def test_parallel_weight_at_the_threshold_is_not_a_default(caplog):
    # X || Y on three of the four concrete pairs, b + d on the fourth
    profile = profile_from_function(
        ["a", "b", "c", "d"],
        lambda x, y: CHOICE if x == y or {x, y} in ({"a", "b"}, {"c", "d"}, {"b", "d"})
        else PARALLEL,
    )
    spec = make_spec({"X": ["a", "b"], "Y": ["c", "d"]}, Fraction(3, 4))
    w = relation_weights("X", "Y", profile, spec)
    assert w.parallel == Fraction(3, 4) > max(w.choice, w.strict, w.inverse)
    with caplog.at_level(logging.WARNING, logger="bpa.model_abstraction"):
        assert derive_ordering_relation("X", "Y", profile, spec) == PARALLEL
    assert "defaulting" not in caplog.text


@given(trees, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_weights_match_a_direct_transcription(tree, rng):
    # independent route: count concrete relations per the definition, without
    # reusing any helper from the implementation
    profile = behavioral_profile(tree)
    names = sorted(activities(tree))
    spec = expand_spec(make_spec(random_grouping(rng, names), Fraction(1, 2)), names)
    abstract = sorted(spec.agg)
    for i, x in enumerate(abstract):
        for y in abstract[i:]:
            gx, gy = sorted(spec.agg[x]), sorted(spec.agg[y])
            total = len(gx) * len(gy)
            xb = sum(profile.relation(v, u) in ("->", "||") for v, u in product(gx, gy))
            yb = sum(profile.relation(v, u) in ("<-", "||") for v, u in product(gx, gy))
            xnb = total - xb
            ynb = total - yb
            w = relation_weights(x, y, profile, spec)
            assert (w.x_before_y, w.y_before_x) == (Fraction(xb, total), Fraction(yb, total))
            assert (w.x_not_before_y, w.y_not_before_x) == (Fraction(xnb, total), Fraction(ynb, total))
            assert w.choice == min(w.x_not_before_y, w.y_not_before_x)
            assert w.strict == min(w.x_before_y, w.y_not_before_x)
            assert w.inverse == min(w.y_before_x, w.x_not_before_y)
            assert w.parallel == min(w.x_before_y, w.y_before_x)

            expected = next(
                rel for rel, weight in (
                    (CHOICE, w.choice),
                    (INVERSE if w.inverse > w.strict else STRICT, w.strict),
                    (INVERSE, w.inverse),
                    (PARALLEL, w.parallel),
                    (PARALLEL, Fraction(1)),
                )
                if weight >= spec.w_t
            )
            assert derive_ordering_relation(x, y, profile, spec) == expected


#: the boundary values of the fixtures and the gate, then any threshold in (0, 1]
thresholds = st.sampled_from([Fraction(1, 2), Fraction(5, 9), Fraction(2, 3)]) | st.fractions(
    min_value=0, max_value=1, max_denominator=12
).filter(lambda t: t > 0)


def random_spec(tree, rng, w_t) -> AggSpec:
    names = sorted(activities(tree))
    return expand_spec(make_spec(random_grouping(rng, names), w_t), names)


def oracle_profile(profile, spec, w_t) -> BehavioralProfile:
    return profile_from_function(
        spec.agg,
        lambda x, y: oracles.select(oracles.relation_weights(x, y, profile, spec), w_t),
    )


@given(trees, st.randoms(use_true_random=False), thresholds)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cascade_matches_the_fraction_oracle(caplog, tree, rng, w_t):
    profile = behavioral_profile(tree)
    spec = random_spec(tree, rng, w_t)
    want = oracle_profile(profile, spec, w_t)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="bpa.model_abstraction"):
        for x, y in want.pairs():
            w = relation_weights(x, y, profile, spec)
            exact = oracles.relation_weights(x, y, profile, spec)
            assert (w.choice, w.strict, w.inverse, w.parallel, w.w_max) == (
                exact.choice, exact.strict, exact.inverse, exact.parallel, exact.w_max,
            )
            assert derive_ordering_relation(x, y, profile, spec) == want.relation(x, y)
    # the default branch fires exactly for the pairs no weight lets through
    assert ("defaulting to parallel" in caplog.text) == (w_t > oracles.w_minmax(profile, spec))
    assert derive_profile(profile, spec) == want


@given(
    trees,
    st.randoms(use_true_random=False),
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=12).filter(lambda e: e > 0),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cascade_matches_the_fraction_oracle_above_w_minmax(caplog, tree, rng, excess):
    profile = behavioral_profile(tree)
    spec = random_spec(tree, rng, Fraction(1))
    w_t = oracles.w_minmax(profile, spec) + excess
    spec = AggSpec(agg=spec.agg, w_t=w_t)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="bpa.model_abstraction"):
        derived = derive_profile(profile, spec)
    assert derived == oracle_profile(profile, spec, w_t)
    # the pair at w_minmax reaches no relation: the default branch fires
    assert "exceeds w_minmax" in caplog.text
    assert "defaulting to parallel" in caplog.text


# ---------------------------------------------------------------------------
# w_minmax
# ---------------------------------------------------------------------------

@given(trees, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_w_minmax_matches_the_fraction_oracle(tree, rng):
    profile = behavioral_profile(tree)
    spec = random_spec(tree, rng, Fraction(1))
    limit = oracles.w_minmax(profile, spec)
    assert w_minmax(profile, spec) == limit
    assert derive_profile(profile, AggSpec(agg=spec.agg, w_t=limit)) == oracle_profile(
        profile, spec, limit
    )


@pytest.mark.parametrize("count, size", [(2, 2), (1, 3), (3, 2)])
@given(st.randoms(use_true_random=False), st.integers(6, 10))
@settings(max_examples=40, deadline=None)
def test_grouping_threshold_matches_the_fraction_oracle(count, size, rng, n_activities):
    tree = random_tree(rng, n_activities=n_activities)
    try:
        traces = [set(v) for v, _ in minimal_log(tree, trace_cap=400).activity_variants()]
    except LogSizeError:
        assume(False)
    profile = behavioral_profile(tree)
    names = sorted(activities(tree))
    chosen = rng.sample(names, count * size)
    groups = {f"X{i + 1}": frozenset(chosen[i * size:(i + 1) * size]) for i in range(count)}
    spec = expand_spec(make_spec(groups, 1), names)
    limit = oracles.w_minmax(profile, spec)
    assert grouping_threshold(profile, groups, check_choices=False) == limit
    # the false-choice check, on the full abstract profile and the traces
    holds = oracles.choices_hold(oracle_profile(profile, spec, limit), spec, traces)
    assert grouping_threshold(profile, groups, check_choices=True) == (limit if holds else None)


def test_a_refused_grouping_stops_weighing_before_the_last_pair(monkeypatch):
    # X1 = {b, c} is weighed with itself, a and d.  Against a, b comes after
    # a and c excludes it: a and b co-occur while choice weighs 1/2, a false
    # choice at any w_minmax.  The pair with d goes unweighed.
    profile = behavioral_profile(parse_tree("xor(seq(a,b),c,d)"))
    groups = {"X1": frozenset("bc")}
    weighed, weigh = [], model_abstraction._weigh

    def counted(gx, gy):
        weighed.append(gy)
        return weigh(gx, gy)

    monkeypatch.setattr(model_abstraction, "_weigh", counted)
    assert grouping_threshold(profile, groups, check_choices=False) == Fraction(1, 2)
    assert len(weighed) == 3
    weighed.clear()
    assert grouping_threshold(profile, groups, check_choices=True) is None
    assert len(weighed) == 2
    assert oracles.grouping_threshold(profile, groups, check_choices=True) is None


def test_w_minmax_anchors():
    claims = behavioral_profile(parse_tree(CLAIMS_MODEL))
    assert w_minmax(claims, full_spec(CLAIMS_MODEL, CLAIMS_GROUPS, 1)) == Fraction(1, 2)
    orders = behavioral_profile(parse_tree(ORDERS_DESIGNED))
    assert w_minmax(orders, full_spec(ORDERS_DESIGNED, ORDERS_GROUPS, 1)) == Fraction(5, 9)


def test_w_minmax_rejects_empty_aggregation():
    profile = behavioral_profile(parse_tree("seq(a,b)"))
    with pytest.raises(ValueError, match="empty"):
        w_minmax(profile, AggSpec(agg={}, w_t=Fraction(1)))


@given(trees, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_w_minmax_is_at_least_one_half(tree, rng):
    profile = behavioral_profile(tree)
    names = sorted(activities(tree))
    spec = expand_spec(make_spec(random_grouping(rng, names), Fraction(1, 2)), names)
    assert w_minmax(profile, spec) >= Fraction(1, 2)


# ---------------------------------------------------------------------------
# Abstract profiles
# ---------------------------------------------------------------------------

def test_claims_abstract_profile_facts():
    profile = plan(parse_tree(CLAIMS_MODEL), make_spec(CLAIMS_GROUPS, Fraction(1, 2))).profile
    assert profile.activities == {"RBP", "AB", "AC", "FDD", "SC", "RP", "AP"}
    assert profile.relation("AB", "AC") == STRICT
    assert profile.relation("AC", "FDD") == PARALLEL
    assert profile.relation("RP", "AB") == CHOICE
    assert profile.relation("FDD", "FDD") == PARALLEL  # abstract self-loop
    assert profile.relation("AB", "AB") == CHOICE


def test_derive_profile_warns_above_w_minmax(caplog):
    profile = behavioral_profile(parse_tree("and(seq(a,b2),b1)"))
    spec = make_spec({"B": ["b1", "b2"], "a": ["a"]}, Fraction(2, 3))
    with caplog.at_level(logging.WARNING, logger="bpa.model_abstraction"):
        derived = derive_profile(profile, spec)
    assert "w_minmax" in caplog.text
    assert derived.relation("B", "a") == PARALLEL  # default branch fired


def test_weighing_warnings_name_the_function_that_warns(caplog):
    # a logging format with %(funcName)s or %(lineno)d reads the call site,
    # not the helper that imports logging
    profile = behavioral_profile(parse_tree("and(seq(a,b2),b1)"))
    spec = make_spec({"B": ["b1", "b2"], "a": ["a"]}, Fraction(2, 3))
    with caplog.at_level(logging.WARNING, logger="bpa.model_abstraction"):
        derive_profile(profile, spec)
    assert {(r.name, r.levelname, r.funcName) for r in caplog.records} == {
        ("bpa.model_abstraction", "WARNING", "derive_profile"),
        ("bpa.model_abstraction", "WARNING", "_select"),
    }


def test_derive_profile_is_silent_at_w_minmax(caplog):
    profile = behavioral_profile(parse_tree("and(seq(a,b2),b1)"))
    spec = make_spec({"B": ["b1", "b2"], "a": ["a"]}, Fraction(1, 2))
    assert w_minmax(profile, spec) == spec.w_t
    with caplog.at_level(logging.WARNING, logger="bpa.model_abstraction"):
        derive_profile(profile, spec)
    assert caplog.records == []


# ---------------------------------------------------------------------------
# Modular decomposition
# ---------------------------------------------------------------------------

def graph_of(text: str):
    return order_relations_graph(behavioral_profile(parse_tree(text)))


def test_mdt_kinds_follow_the_operators():
    assert modular_decomposition(graph_of("seq(a,b,c)")).kind == "linear"
    assert modular_decomposition(graph_of("xor(a,b,c)")).kind == "xor-complete"
    assert modular_decomposition(graph_of("and(a,b,c)")).kind == "and-complete"
    assert modular_decomposition(graph_of("a")).kind == "leaf"


def test_mdt_linear_children_follow_the_edge_direction():
    mdt = modular_decomposition(graph_of("seq(c,a,b)"))
    assert [sorted(c.members) for c in mdt.children] == [["c"], ["a"], ["b"]]


def test_mdt_nested_modules():
    mdt = modular_decomposition(graph_of("seq(a,xor(b,and(c,d)))"))
    assert mdt.kind == "linear"
    assert mdt.member_sets() == {
        frozenset("abcd"), frozenset("a"), frozenset("bcd"),
        frozenset("b"), frozenset("cd"), frozenset("c"), frozenset("d"),
    }
    assert not mdt.has_primitive()


def test_mdt_primitive_detection():
    profile = plan(parse_tree(N_MODEL), make_spec(N_GROUPS, Fraction(1, 2))).profile
    mdt = modular_decomposition(order_relations_graph(profile))
    assert mdt.kind == "primitive"
    assert mdt.has_primitive()
    # the B/C pair is still recognized as an inner module
    assert frozenset({"B", "C"}) in mdt.member_sets()


def test_mdt_rejects_empty_graph():
    from bpa.profiles import OrderRelationsGraph

    with pytest.raises(ValueError, match="empty"):
        modular_decomposition(OrderRelationsGraph(frozenset(), frozenset()))


def test_mdt_ignores_edges_leaving_the_vertex_set():
    from bpa.profiles import OrderRelationsGraph

    mdt = modular_decomposition(OrderRelationsGraph(frozenset("ab"), frozenset({("a", "b"), ("a", "z")})))
    assert mdt.kind == "linear"
    assert [c.members for c in mdt.children] == [frozenset("a"), frozenset("b")]


def brute_force_strong_modules(graph) -> set[frozenset[str]]:
    """All strong modules by subset enumeration (exponential; oracle only)."""
    vs = sorted(graph.vertices)
    edges = graph.edges

    def is_module(ms: frozenset[str]) -> bool:
        probe = next(iter(ms))
        for z in vs:
            if z in ms:
                continue
            zin, zout = (z, probe) in edges, (probe, z) in edges
            if any(((z, u) in edges) != zin or ((u, z) in edges) != zout for u in ms):
                return False
        return True

    n = len(vs)
    modules = [
        sub
        for mask in range(1, 1 << n)
        for sub in [frozenset(vs[i] for i in range(n) if mask >> i & 1)]
        if is_module(sub)
    ]
    return {
        s for s in modules
        if all(t <= s or s <= t or not (s & t) for t in modules)
    }


def random_profile(rng: random.Random) -> BehavioralProfile:
    names = [f"v{i}" for i in range(rng.randint(1, 8))]

    def rel(x, y):
        if x == y:
            return rng.choice([CHOICE, PARALLEL])
        return rng.choice([STRICT, INVERSE, CHOICE, PARALLEL])

    return profile_from_function(names, rel)


def quotient_kind(node: MDTNode, edges) -> str:
    """The kind the relations between a node's children call for, in the
    order the children are listed (they are modules: one member speaks for
    each)."""
    reps = [min(c.members) for c in node.children]
    pairs = {((a, b) in edges, (b, a) in edges) for a, b in combinations(reps, 2)}
    if pairs == {(False, False)}:
        return "and-complete"
    if pairs == {(True, True)}:
        return "xor-complete"
    if pairs == {(True, False)}:
        return "linear"
    if pairs <= {(True, False), (False, True)}:
        successors = {sum((a, b) in edges for b in reps) for a in reps}
        if len(successors) == len(reps):  # an acyclic tournament
            return "linear, listed out of order"
    return "primitive"


#: a -> b -> c -> a strictly, all of them strictly before d and e, and d -> e
STRICT_CYCLE_FIRST = {("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), *product("abc", "de")}


@given(st.builds(random_profile, st.randoms(use_true_random=False)))
@example(profile_from_function(
    "abcde",
    lambda x, y: CHOICE if x == y else STRICT if (x, y) in STRICT_CYCLE_FIRST else INVERSE,
))
@settings(max_examples=80, deadline=None)
def test_mdt_nodes_are_exactly_the_strong_modules(profile):
    graph = order_relations_graph(profile)
    mdt = modular_decomposition(graph)
    assert mdt.member_sets() == brute_force_strong_modules(graph)
    for node in mdt.iter_nodes():
        if node.children:
            assert node.kind == quotient_kind(node, graph.edges)


def test_mdt_is_exact_above_sixteen_vertices():
    # a choice path p00 - p01 - ... - p17 (prime) and q05, a twin of p05 in
    # choice with it; every other pair is parallel
    path = [f"p{i:02}" for i in range(18)]
    neighbours = {frozenset(p) for p in zip(path, path[1:])}
    neighbours |= {frozenset({"q05", "p04"}), frozenset({"q05", "p06"}), frozenset({"q05", "p05"})}
    profile = profile_from_function(
        [*path, "q05"],
        lambda x, y: CHOICE if x == y or frozenset({x, y}) in neighbours else PARALLEL,
    )
    mdt = modular_decomposition(order_relations_graph(profile))
    assert mdt.kind == "primitive"
    assert mdt.member_sets() == {
        frozenset(profile.activities), frozenset({"p05", "q05"}),
        *(frozenset({v}) for v in profile.activities),
    }


#: the kind of a node whose quotient has only no edges, only two-way edges or
#: only forward edges; any other quotient is primitive
QUOTIENT_KINDS = {
    frozenset({(False, False)}): "and-complete",
    frozenset({(True, True)}): "xor-complete",
    frozenset({(True, False)}): "linear",
}


@given(st.builds(random_profile, st.randoms(use_true_random=False)))
@settings(max_examples=80, deadline=None)
def test_mdt_kinds_and_linear_order_match_the_quotient(profile):
    # children are modules, so one member speaks for each: the edges between
    # representatives are the quotient graph the kind describes
    graph = order_relations_graph(profile)
    edges = graph.edges
    for node in modular_decomposition(graph).iter_nodes():
        if not node.children:
            continue
        reps = [min(c.members) for c in node.children]
        # in child order: a linear node's edges all point forward
        pairs = frozenset(((a, b) in edges, (b, a) in edges) for a, b in combinations(reps, 2))
        assert node.kind == QUOTIENT_KINDS.get(pairs, "primitive")
        assert node.kind != "primitive" or len(reps) >= 3  # a directed 3-cycle is prime


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_components_match_the_networkx_oracle(rng):
    # the three partitions the decomposition and the cuts take, on random
    # graphs, as classes of neighbour-bitmask relations
    edges = order_relations_graph(random_profile(rng)).edges
    vertices = frozenset(v for e in edges for v in e) or frozenset({"v0"})
    vs = sorted(vertices)
    out, into = _masks(vs, edges)
    full = (1 << len(vs)) - 1

    def has_any(a, b):
        return (a, b) in edges or (b, a) in edges

    def has_both(a, b):
        return (a, b) in edges and (b, a) in edges

    relations = (
        (has_any, lambda i: out[i] | into[i]),
        (lambda a, b: not has_both(a, b), lambda i: full & ~(out[i] & into[i])),
        (lambda a, b: has_any(a, b) == has_both(a, b), lambda i: full & ~(out[i] ^ into[i])),
    )
    for adjacent, grow in relations:
        classes = [_members(vs, c) for c in _classes(full, grow)]
        assert classes == oracles.components(vertices, adjacent)


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_mdt_children_partition_their_parent(rng):
    mdt = modular_decomposition(order_relations_graph(random_profile(rng)))
    for n in mdt.iter_nodes():
        if n.children:
            kids = [c.members for c in n.children]
            assert frozenset().union(*kids) == n.members
            assert sum(len(k) for k in kids) == len(n.members)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def test_synthesize_builds_self_loops_for_parallel_self_pairs():
    tree = oracles.synthesize(behavioral_profile(parse_tree("loop(a,tau)")))
    assert render_tree(tree) == "loop(a,tau)"


def test_synthesize_returns_none_on_primitive_profiles():
    profile = plan(parse_tree(N_MODEL), make_spec(N_GROUPS, Fraction(1, 2))).profile
    assert oracles.synthesize(profile) is None


@given(trees)
@settings(max_examples=80, deadline=None)
def test_synthesis_inverts_the_profile(tree):
    from bpa.trees import normal_form

    rebuilt = oracles.synthesize(behavioral_profile(tree))
    assert rebuilt is not None
    assert isomorphic(rebuilt, normal_form(tree))


@given(st.builds(random_profile, st.randoms(use_true_random=False)))
@settings(max_examples=200, deadline=None)
def test_synthesis_builds_canonical_trees_in_normal_form(profile):
    # no child of a linear, xor- or and-complete node is of its parent's
    # kind, so the built tree needs no flattening and no re-sorting
    tree = oracles.synthesize(profile)
    assume(tree is not None)  # a primitive module: nothing to synthesize
    assert tree == canonical(tree) == normal_form(tree)


# ---------------------------------------------------------------------------
# Applicability
# ---------------------------------------------------------------------------

def rules(model_text: str, groups, w_t) -> set[str]:
    report = applicable(parse_tree(model_text), make_spec(groups, w_t))
    return {r for r, _, _ in report.violations}


def test_applicable_on_the_worked_examples():
    assert applicable(parse_tree(CLAIMS_MODEL), make_spec(CLAIMS_GROUPS, Fraction(1, 2))).in_class
    assert applicable(parse_tree(ORDERS_DESIGNED), make_spec(ORDERS_GROUPS, Fraction(5, 9))).in_class


def test_applicable_rejects_duplicate_activities():
    assert "duplicate-activity" in rules("seq(a,a,b,c)", {"X": ["b", "c"]}, Fraction(1, 2))


def test_applicable_rejects_wrong_loop_shapes_as_model_class():
    assert "model-class" in rules("seq(loop(seq(a,b),c),d,e)", {"X": ["d", "e"]}, Fraction(1, 2))


def test_applicable_rejects_unknown_group_members():
    assert "agg-unknown-activity" in rules("seq(a,b,c)", {"X": ["a", "zz"]}, Fraction(1, 2))


def test_applicable_requires_a_new_activity():
    assert "no-new-activity" in rules("seq(a,b,c)", {}, Fraction(1, 2))
    assert "no-new-activity" in rules("seq(a,b,c)", {"a": ["a"]}, Fraction(1, 2))


def test_applicable_rejects_singleton_groups():
    assert "singleton-group" in rules("seq(a,b,c)", {"X": ["a"]}, Fraction(1, 2))


def test_applicable_requires_enough_aggregated_activities():
    # one group over two activities abstracts nothing a rename cannot do
    assert "aggregation-union" in rules("seq(a,b,c)", {"X": ["a", "c"]}, Fraction(1, 2))
    assert "aggregation-union" not in rules("seq(a,b,c)", {"X": ["a", "b", "c"]}, Fraction(1, 2))


def test_applicable_rejects_redefined_kept_activities():
    assert "kept-not-identity" in rules("seq(a,b,c)", {"a": ["a", "b"]}, Fraction(1, 2))


def test_applicable_threshold_range():
    assert "threshold" in rules("seq(a,b,c)", {"X": ["a", "b", "c"]}, Fraction(0))
    # the range check, not the w_minmax check, refuses a threshold above 1
    report = applicable(parse_tree("seq(a,b,c)"), make_spec({"X": ["a", "b", "c"]}, Fraction(3, 2)))
    assert report.violations == (("threshold", "", "w_t=3/2 outside (0, 1]"),)


def test_applicable_threshold_above_w_minmax():
    report = applicable(parse_tree(CLAIMS_MODEL), make_spec(CLAIMS_GROUPS, Fraction(2, 3)))
    assert [r for r, _, _ in report.violations] == ["threshold"]
    assert "w_minmax" in report.violations[0][2]


def test_applicable_reports_primitive_modules():
    assert rules(N_MODEL, N_GROUPS, Fraction(1, 2)) == {"primitive-module"}


# ---------------------------------------------------------------------------
# The plan against the stepwise oracle: derive, then synthesize
# ---------------------------------------------------------------------------

def assert_plan_matches_the_oracle(model, spec):
    abstraction = plan(model, spec)
    full = expand_spec(spec, activities(model))
    derived = oracle_profile(behavioral_profile(model), full, spec.w_t)
    assert abstraction.report.in_class
    assert abstraction.profile == derived
    assert abstraction.tree == oracles.synthesize(derived)


@pytest.mark.parametrize(
    "model, groups, w_t",
    [(CLAIMS_MODEL, CLAIMS_GROUPS, Fraction(1, 2)), (ORDERS_DESIGNED, ORDERS_GROUPS, Fraction(5, 9))],
)
def test_plan_matches_the_oracle_on_the_fixtures(model, groups, w_t):
    assert_plan_matches_the_oracle(parse_tree(model), make_spec(groups, w_t))


def test_plan_matches_the_oracle_on_the_criterion_corpus(criterion_corpus):
    for inst in criterion_corpus:
        assert_plan_matches_the_oracle(inst.model, inst.spec)


def test_plan_keeps_the_profile_of_a_primitive_abstraction():
    abstraction = plan(parse_tree(N_MODEL), make_spec(N_GROUPS, Fraction(1, 2)))
    assert [r for r, _, _ in abstraction.report.violations] == ["primitive-module"]
    assert abstraction.profile is not None
    assert abstraction.tree is None


# ---------------------------------------------------------------------------
# End-to-end abstraction
# ---------------------------------------------------------------------------

def test_ma_claims_anchor():
    out = ma_bpa(parse_tree(CLAIMS_MODEL), make_spec(CLAIMS_GROUPS, Fraction(1, 2)))
    assert render_tree(out) == CLAIMS_ABSTRACT
    assert size(out) == 13


def test_ma_orders_anchor():
    out = ma_bpa(parse_tree(ORDERS_DESIGNED), make_spec(ORDERS_GROUPS, Fraction(5, 9)))
    assert isomorphic(out, parse_tree(ORDERS_ABSTRACT))
    assert size(out) == 10


def test_ma_raises_with_the_violation_report():
    with pytest.raises(InapplicableError, match="not applicable") as exc:
        ma_bpa(parse_tree("seq(a,b,c)"), make_spec({"X": ["a"]}, Fraction(1, 2)))
    assert any(r == "singleton-group" for r, _, _ in exc.value.report.violations)


def test_ma_rejects_primitive_profiles_at_the_gate():
    with pytest.raises(InapplicableError, match="primitive-module"):
        ma_bpa(parse_tree(N_MODEL), make_spec(N_GROUPS, Fraction(1, 2)))
