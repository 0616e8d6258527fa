"""Round trip (log -> model -> abstraction -> synchronized log ->
rediscovery) and the randomized verifier around it."""
import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bpa.event_abstraction as event_abstraction
import bpa.pipeline as pipeline
from bpa import make_spec
from bpa.event_abstraction import _reorder, ea1, ea_bpa
from bpa.cli import main
from bpa.logs import format_compact, log_from_sequences
from bpa.miner import check_restricted, discover
from bpa.model_abstraction import (
    applicable,
    derive_profile,
    dump_agg_spec,
    expand_spec,
    modular_decomposition,
    plan,
    relation_codes,
    relation_weights,
    w_minmax,
)
from bpa.pipeline import (
    NEGATIVE_CONTROL,
    GenParams,
    GenerationError,
    generate_instance,
    roundtrip,
    verify,
)
from bpa.profiles import behavioral_profile
from bpa.semantics import LogSizeError, minimal_log
from bpa.trees import activities, check_class, isomorphic, parse_tree, render_tree, size
from conftest import (
    BOUNDARY_GROUPS,
    BOUNDARY_MODEL,
    BOUNDARY_W_T,
    CLAIMS_ABSTRACT,
    CLAIMS_GROUPS,
    ORDERS_DISCOVERED,
    ORDERS_GROUPS,
    ORDERS_TRACES,
    build_claims_log,
    random_tree,
)
import oracles
from oracles import df_complete


# ---------------------------------------------------------------------------
# Round trips on the worked examples
# ---------------------------------------------------------------------------

def test_claims_roundtrip_synchronizes():
    report = roundtrip(build_claims_log(), make_spec(CLAIMS_GROUPS, Fraction(1, 2)))
    # the discovered model has activity children under a sequence node, so
    # the log is outside the restricted class; the chain still synchronizes
    assert not report.check.restricted
    assert report.abstraction.report.in_class
    assert report.isomorphic is True
    assert report.failures == ()
    assert isomorphic(report.abstraction.tree, parse_tree(CLAIMS_ABSTRACT))
    assert (report.abstract_log.num_traces, report.abstract_log.num_events) == (46, 318)


def test_orders_roundtrip_synchronizes():
    report = roundtrip(log_from_sequences(ORDERS_TRACES), make_spec(ORDERS_GROUPS, Fraction(5, 9)))
    assert not report.check.restricted
    assert report.isomorphic is True
    assert (report.abstract_log.num_traces, report.abstract_log.num_events) == (9, 39)


def test_roundtrip_stops_at_the_applicability_gate():
    report = roundtrip(log_from_sequences([("a", "b", "c")]), make_spec({"X": ["a", "c"]}, Fraction(1, 2)))
    assert report.failures == ("aggregation not applicable to the discovered model",)
    assert report.abstraction.tree is None
    assert report.abstract_log is None
    assert report.isomorphic is None


def test_roundtrip_reports_matching_failures():
    # frozen from a randomized-verification find: all gates pass, but the
    # aggregation derives a choice its traces contradict, stage one
    # suppresses events, and the leftover bags fit no reference trace
    model = parse_tree(BOUNDARY_MODEL)
    spec = make_spec(BOUNDARY_GROUPS, BOUNDARY_W_T)
    log = minimal_log(model)
    assert (log.num_traces, log.num_events) == (23, 103)

    check = check_restricted(log)
    assert check.restricted and isomorphic(check.tree, model)
    assert applicable(model, spec).in_class
    assert w_minmax(
        behavioral_profile(model), expand_spec(spec, activities(model))
    ) == BOUNDARY_W_T

    report = roundtrip(log, spec)
    assert report.failures == (
        "trace matching failed: no reference trace with activities {a1:2, a8:1}",
    )
    assert report.isomorphic is None
    assert report.abstraction.tree is not None  # model abstraction itself worked
    assert report.abstract_log is None


def record_calls(monkeypatch, fn, only=None) -> list[tuple]:
    """Wrap ``fn`` at every ``bpa`` submodule attribute naming it, or at the
    one of module ``only``, and return the list the positional arguments of
    its calls are appended to.  The package itself reads each name from its
    module, so it sees the wrapper; patching it would leave the name bound
    there after the undo."""
    calls: list[tuple] = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    modules = [only] if only else [m for name, m in sys.modules.items() if name.startswith("bpa.")]
    for module in modules:
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, wrapper)
    return calls


def roundtrip_input(which: str):
    if which == "claims":
        return build_claims_log(), make_spec(CLAIMS_GROUPS, Fraction(1, 2))
    if which == "orders":
        return log_from_sequences(ORDERS_TRACES), make_spec(ORDERS_GROUPS, Fraction(5, 9))
    inst = generate_instance(GenParams(seed=0))
    return inst.log, inst.spec


@pytest.mark.parametrize("which", ["claims", "orders", "generated"])
def test_roundtrip_computes_the_model_side_once(monkeypatch, which):
    log, spec = roundtrip_input(which)
    profiles = record_calls(monkeypatch, behavioral_profile)
    mdts = record_calls(monkeypatch, modular_decomposition)
    codes = record_calls(monkeypatch, relation_codes)
    weights = record_calls(monkeypatch, relation_weights)
    report = roundtrip(log, spec)
    assert report.isomorphic is True
    assert [args[0] for args in profiles] == [report.check.tree]
    assert len(mdts) == 1
    # every abstract pair is weighed on one table of the model's relations
    assert [args[0] for args in codes] == [behavioral_profile(report.check.tree)]
    assert weights == []


@pytest.mark.parametrize("caller", ["ea_bpa", "roundtrip", "abstract-log"])
def test_the_abstraction_chain_is_written_once(monkeypatch, tmp_path, capsys, caller):
    # every caller reaches stage one through the one chain in
    # event_abstraction, so a wrapper bound there alone sees its call
    log, spec = roundtrip_input("claims")
    stage_one = record_calls(monkeypatch, ea1, only=event_abstraction)
    if caller == "abstract-log":
        paths = tmp_path / "log.txt", tmp_path / "agg.json"
        paths[0].write_text(format_compact(log))
        paths[1].write_text(dump_agg_spec(spec))
        assert main(["abstract-log", *map(str, paths)]) == 0
    else:
        {"ea_bpa": ea_bpa, "roundtrip": roundtrip}[caller](log, spec)
    assert len(stage_one) == 1


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_generated_instances_clear_every_gate(seed):
    inst = generate_instance(GenParams(seed=seed))
    assert check_class(inst.model, "C_a").in_class
    assert df_complete(inst.log, inst.model)
    check = check_restricted(inst.log)
    assert check.restricted
    assert isomorphic(check.tree, inst.model)
    assert applicable(check.tree, inst.spec).in_class
    # threshold pinned to the largest value every pair can reach
    full = expand_spec(inst.spec, activities(inst.model))
    assert inst.spec.w_t == w_minmax(behavioral_profile(inst.model), full)


def test_generation_is_deterministic_per_seed():
    a = generate_instance(GenParams(seed=7))
    b = generate_instance(GenParams(seed=7))
    assert a.model == b.model
    assert a.spec == b.spec
    assert a.log == b.log


#: sha256 of the 300-instance criterion corpus (model, spec, log variants
#: and round-trip abstract-log variants, attributes included), pinned when
#: the corpus was generated with full abstract profiles per candidate spec
CORPUS_DIGEST = "22af4bdeccce15303e2907cff5453c7bf5b01eeea48b8dfbba484d2c1134e23d"


def _variants(log) -> list:
    return [[[[e.activity, list(map(list, e.attrs))] for e in t], n] for t, n in log.variants()]


def corpus_digest(instances) -> str:
    digest = hashlib.sha256()
    for inst in instances:
        report = pipeline._roundtrip(inst.log, inst.check, inst.abstraction)
        record = [
            inst.seed, render_tree(inst.model), dump_agg_spec(inst.spec), _variants(inst.log),
            None if report.abstract_log is None else _variants(report.abstract_log),
        ]
        digest.update(json.dumps(record).encode())
    return digest.hexdigest()


def test_criterion_corpus_matches_its_pinned_digest(criterion_corpus):
    assert corpus_digest(criterion_corpus) == CORPUS_DIGEST


#: digests of seeds 0-49 in the shapes the default corpus does not reach:
#: the forced 1x3 grouping, three groups, and the negative control (which
#: skips the false-choice check, and whose round trips stop at the gate);
#: pinned when spec sampling read co-occurrence off the base log
SHAPE_DIGESTS = {
    (1, 3, False): "b989f4a751ee5657fbd2e9df8ab91b74d77c9e62b485a07cf1d65efbeed0fecf",
    (3, 2, False): "eb07e18aa596604b7f5cf5d70b54584828d34ad140dfc14a67f4ca573db8b53b",
    (1, 2, True): "33b5560075c38d3ebff1b5a58f3528d11094d7f9554924920a196066ae8c2ffe",
}


@pytest.mark.parametrize("count, size, unrestricted", list(SHAPE_DIGESTS))
def test_generator_shapes_match_their_pinned_digests(count, size, unrestricted):
    params = GenParams(
        agg_group_count=count, agg_group_size=size, allow_unrestricted=unrestricted
    )
    instances = (generate_instance(params._replace(seed=seed)) for seed in range(50))
    assert corpus_digest(instances) == SHAPE_DIGESTS[count, size, unrestricted]


@pytest.mark.parametrize(
    "count, size, unrestricted", [(2, 2, False), (1, 3, False), (3, 2, False), (1, 2, True)]
)
@given(st.randoms(use_true_random=False), st.integers(6, 10))
@settings(max_examples=30, deadline=None)
def test_spec_sampling_matches_the_full_profile_oracle(count, size, unrestricted, rng, n_activities):
    tree = random_tree(rng, n_activities=n_activities)
    try:
        base = minimal_log(tree, trace_cap=400)
    except LogSizeError:
        assume(False)
    seed = rng.randrange(1 << 30)
    want = oracles.random_spec(tree, base, random.Random(seed), count, size, unrestricted)
    got = pipeline._random_spec(tree, random.Random(seed), count, size, unrestricted)
    assert got == want


def test_generator_builds_no_log_for_a_tree_too_small_for_the_grouping(monkeypatch):
    built = record_calls(monkeypatch, minimal_log)
    for seed in range(20):
        generate_instance(GenParams(seed=seed))
    assert built
    assert all(len(activities(tree)) >= 4 for tree, *_ in built)


def test_verify_refuses_a_negative_instance_count():
    with pytest.raises(ValueError, match="at least 0"):
        verify(-3)
    assert verify(0).instances == 0


def test_generation_fails_loudly_when_parameters_are_unsatisfiable():
    with pytest.raises(GenerationError, match="no viable instance"):
        generate_instance(GenParams(activity_budget=3))


#: shapes the gate refuses whatever the tree, with the rule that refuses them
DOOMED_SHAPES = {
    GenParams(agg_group_count=1, agg_group_size=2): "aggregation-union",
    GenParams(agg_group_count=0): "no-new-activity",
    GenParams(agg_group_size=1): "singleton-group",
}


@pytest.mark.parametrize("params", list(DOOMED_SHAPES))
def test_generation_runs_the_shape_it_is_given(monkeypatch, params):
    # no shape is rewritten into one the gate passes, and the gate's rules on
    # the groups alone refuse these shapes before a tree is drawn
    def drawn(*_):
        raise AssertionError("a tree was drawn")

    monkeypatch.setattr(pipeline, "_random_tree", drawn)
    rule = DOOMED_SHAPES[params]
    with pytest.raises(GenerationError, match=rf"no viable instance: .*\[{rule}\]"):
        generate_instance(params)
    # the negative control draws trees in the same shape
    with pytest.raises(AssertionError, match="a tree was drawn"):
        generate_instance(params._replace(allow_unrestricted=True))


# ---------------------------------------------------------------------------
# Randomized verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("check, reason", [
    ("_profile_realized", "does not realize the derived profile"),
    ("_counts_match", "predicted trace count and lengths"),
])
def test_verify_fails_on_a_failed_side_invariant(monkeypatch, check, reason):
    monkeypatch.setattr(pipeline, check, lambda *_: False)
    summary = verify(2)
    assert summary.iso_checks == 2
    assert not summary.ok and len(summary.failures) == 2
    assert all(reason in failure.reason for failure in summary.failures)


def test_verify_small_corpus_is_clean():
    summary = verify(12, seed=0)
    assert summary.instances == 12
    assert summary.iso_checks == 12
    assert summary.profile_checks == 12
    assert summary.count_checks == 12
    assert summary.ok


def test_verify_does_the_model_side_once_per_instance(monkeypatch):
    steps = (check_restricted, plan, discover, derive_profile, w_minmax, _reorder)
    calls = {fn.__name__: record_calls(monkeypatch, fn) for fn in steps}
    marks = []  # per instance: call counts before and after its generation

    def counts() -> dict[str, int]:
        return {name: len(made) for name, made in calls.items()}

    def generating(params):
        before = counts()
        instance = generate(params)
        marks.append((before, counts()))
        return instance

    generate = pipeline.generate_instance
    monkeypatch.setattr(pipeline, "generate_instance", generating)
    summary = verify(3, seed=0)
    assert summary.ok and summary.instances == len(marks) == 3

    ends = [before for before, _ in marks[1:]] + [counts()]
    for (before, generated), end in zip(marks, ends):
        inside = {name: generated[name] - before[name] for name in calls}
        after = {name: end[name] - generated[name] for name in calls}
        assert (inside["check_restricted"], after["check_restricted"]) == (1, 0)
        assert (inside["plan"], after["plan"]) == (1, 0)
        assert (inside["discover"], after["discover"]) == (1, 1)  # the rediscovery
        assert after["derive_profile"] == after["w_minmax"] == 0
        reordered = calls["_reorder"][generated["_reorder"]:end["_reorder"]]
        assert reordered and max(Counter(reordered).values()) == 1


#: ``render_summary`` of two one-group-of-three instances from seed 1: the
#: first fails stage two and is shrunk, the second round-trips
SHRUNK_SUMMARY = """\
FAIL seed=1: trace matching failed: no reference trace with activities {X1:1, a1:1, a3:2}
  model: xor(seq(xor(a1,and(a8,a4,a0)),xor(a11,a10,a6),and(xor(loop(a3,tau),a5),a7)),a9)
  agg:   {"w_t": "5/9", "X1": ["a11", "a5", "a7"]}
  shrunk model: seq(xor(a11,a6),and(a5,a7))
  shrunk agg:   {"w_t": "5/9", "X1": ["a11", "a5", "a7"]}
2 instances: 1 isomorphic, 2 profile checks, 2 count checks, 1 failures"""


def test_verify_summary_prints_the_shrunk_counterexample():
    base = GenParams(agg_group_count=1, agg_group_size=3)
    assert pipeline.render_summary(verify(2, seed=1, base=base)) == SHRUNK_SUMMARY


def test_check_instances_takes_a_hand_built_source(monkeypatch):
    # one instance that round-trips, and the generator's smallest failing case
    orders = log_from_sequences(ORDERS_TRACES)
    failing = parse_tree("xor(a9,and(a5,a6,a7))")
    instances = [
        pipeline._instance(
            parse_tree(ORDERS_DISCOVERED), orders, make_spec(ORDERS_GROUPS, Fraction(5, 9)), 0
        ),
        pipeline._instance(
            failing, minimal_log(failing), make_spec({"X1": ["a5", "a7", "a9"]}, Fraction(2, 3)), 1
        ),
    ]
    audited = record_calls(monkeypatch, check_restricted)
    planned = record_calls(monkeypatch, plan)
    summary = pipeline.check_instances(instances)
    assert pipeline.render_summary(summary).splitlines()[-1] == (
        "2 instances: 1 isomorphic, 2 profile checks, 2 count checks, 1 failures"
    )
    [failure] = summary.failures
    assert (failure.seed, failure.shrunk_model) == (1, None)
    assert failure.reason == "trace matching failed: no reference trace with activities {X1:1}"
    # each instance is checked on the audit and plan it carries; only the
    # shrinker's candidates are audited and planned
    assert audited and planned
    assert not any(args[0] is inst.log for args in audited for inst in instances)
    assert not any(args[1] is inst.spec for args in planned for inst in instances)


def test_negative_control_fails_at_the_gate():
    summary = verify(3, seed=0, base=NEGATIVE_CONTROL)
    assert summary.instances == 3
    assert not summary.ok
    assert len(summary.failures) == 3
    for failure in summary.failures:
        assert failure.reason == "aggregation not applicable to the discovered model"
        assert failure.shrunk_model is None  # gate failures are not shrunk


def test_shrinking_keeps_the_failure_and_never_grows():
    from bpa.pipeline import _shrink

    model = parse_tree(BOUNDARY_MODEL)
    inst = pipeline._instance(
        model, minimal_log(model), make_spec(BOUNDARY_GROUPS, BOUNDARY_W_T), seed=0
    )
    shrunk = _shrink(inst)
    assert size(shrunk.model) <= size(inst.model)
    report = roundtrip(shrunk.log, shrunk.spec)
    assert report.abstraction.report.in_class
    assert report.isomorphic is not True


def test_shrinking_stays_in_the_restricted_class():
    # with one group of three, the gate passes instances whose round trip
    # fails; this one used to shrink to a tree with an activity child under
    # a sequence, which the restriction audit refuses
    from bpa.pipeline import _shrink

    inst = generate_instance(GenParams(seed=1, agg_group_count=1, agg_group_size=3))
    assert roundtrip(inst.log, inst.spec).isomorphic is not True
    shrunk = _shrink(inst)
    assert size(shrunk.model) < size(inst.model)
    report = roundtrip(shrunk.log, shrunk.spec)
    assert report.check.restricted
    assert report.abstraction.report.in_class
    assert report.isomorphic is not True


def test_shrinking_skips_a_candidate_only_on_the_errors_its_round_trip_raises(monkeypatch):
    # with one group of three, seed 1 passes the gate and fails its round trip
    inst = generate_instance(GenParams(seed=1, agg_group_count=1, agg_group_size=3))
    tried = []

    def raising(error):
        def candidate_roundtrip(log, check, abstraction):
            tried.append(abstraction)
            raise error("raised by a candidate")
        return candidate_roundtrip

    for error in (LogSizeError, ValueError):
        tried.clear()
        monkeypatch.setattr(pipeline, "_roundtrip", raising(error))
        assert pipeline._shrink(inst) is inst and len(tried) > 1  # every candidate skipped

    # any other error is a bug, not a candidate that stops failing
    monkeypatch.setattr(pipeline, "_roundtrip", raising(TypeError))
    with pytest.raises(TypeError, match="raised by a candidate"):
        pipeline._shrink(inst)


def test_count_check_refuses_minimal_logs_over_the_trace_cap():
    from bpa.pipeline import _counts_match

    # 12! interleavings: the predicted lengths alone would take gigabytes
    chain = "a11"
    for i in range(10, -1, -1):
        chain = f"and(a{i},{chain})"
    with pytest.raises(LogSizeError):
        _counts_match(parse_tree(chain))
