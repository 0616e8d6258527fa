"""The record types of the package, each a tuple record or a
``SimpleNamespace``: trees, class reports, graphs, audits, profiles, specs,
plans, reports and verification records keep value semantics, their checks
and their reprs."""
import copy
import pickle
import re
from fractions import Fraction

import pytest

from bpa.event_abstraction import KendallResult, kendall_distance
from bpa.logs import DFG, END, START, log_from_sequences
from bpa.miner import DiscoveryAudit, RestrictionCheck, check_restricted
from bpa.model_abstraction import AggSpec, modular_decomposition
from bpa.pipeline import (
    NEGATIVE_CONTROL,
    FailureRecord,
    GenParams,
    VerificationSummary,
    generate_instance,
    roundtrip,
    verify,
)
from bpa.profiles import CHOICE, STRICT, BehavioralProfile, OrderRelationsGraph, order_relations_graph
from bpa.semantics import NtlResult, ntl
from bpa.trees import ClassReport, ProcessTree, leaf, node, parse_tree, tau


def test_a_tree_cannot_be_assigned_to():
    tree = node("seq", leaf("a"), leaf("b"))
    with pytest.raises(AttributeError):
        tree.label = "xor"
    with pytest.raises(AttributeError):
        tree.depth = 2
    assert tree == node("seq", leaf("a"), leaf("b"))


def test_structurally_equal_trees_are_equal_and_hash_alike():
    built = node("xor", node("seq", leaf("a"), leaf("b")), node("loop", leaf("c"), tau()))
    parsed = parse_tree("xor(seq(a,b),loop(c,tau))")
    assert built == parsed and built is not parsed
    assert hash(built) == hash(parsed)
    assert len({built, parsed}) == 1
    assert built != parse_tree("xor(seq(b,a),loop(c,tau))")
    assert ProcessTree(label="a") == leaf("a")
    assert repr(built) == "ProcessTree('xor(seq(a,b),loop(c,tau))')"


@pytest.mark.parametrize(
    "label, children, message",
    [
        ("seq", (leaf("a"),), "operator 'seq' needs >= 2 children"),
        ("a", (leaf("b"), leaf("c")), "leaf 'a' cannot have children"),
        ("a-b", (), "invalid activity name: 'a-b'"),
    ],
)
def test_a_tree_is_checked_when_it_is_built(label, children, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ProcessTree(label, children)


def test_reports_checks_and_graphs_take_keywords_and_keep_their_reprs():
    report = ClassReport(in_class=True, violations=())
    assert report == ClassReport(True) == ClassReport.from_violations([])
    assert repr(report) == "ClassReport(in_class=True, violations=())"
    with pytest.raises(AttributeError):
        report.in_class = False

    graph = DFG(nodes=frozenset({START, END}), edges=frozenset({(START, END)}))
    assert repr(graph) == (
        f"DFG(nodes={frozenset({START, END})!r}, edges=frozenset({{('{START}', '{END}')}}))"
    )
    assert graph.successors(START) == {END} and graph.predecessors(START) == set()

    check = RestrictionCheck(tree=leaf("a"), audit=DiscoveryAudit(), report=report)
    assert check.restricted
    assert repr(check) == (
        "RestrictionCheck(tree=ProcessTree('a'), audit=DiscoveryAudit(cuts_used=[], "
        "fallthroughs_used=[], detected=[], failures=[]), "
        "report=ClassReport(in_class=True, violations=()))"
    )
    log = log_from_sequences([["a", "b"], ["b", "a"]])
    assert check_restricted(log) == check_restricted(log)


def test_each_discovery_audit_has_its_own_lists():
    filled = DiscoveryAudit()
    filled.cuts_used.append("sequence")
    filled.failures.append("parallel-cut: merging start/end-less parts left one part")
    assert DiscoveryAudit() == DiscoveryAudit(cuts_used=[], fallthroughs_used=[], detected=[],
                                              failures=[])
    assert DiscoveryAudit() != filled

    cuts = ["choice"]
    one, two = DiscoveryAudit(cuts_used=cuts), DiscoveryAudit(cuts_used=cuts)
    assert one == two and one.cuts_used is not two.cuts_used
    one.cuts_used.append("sequence")
    assert two.cuts_used == cuts == ["choice"]


@pytest.fixture(scope="module")
def records(orders_log, orders_spec):
    """One of each record of the abstraction chain and the verifier."""
    report = roundtrip(orders_log, orders_spec)
    abstraction = report.abstraction
    graph = order_relations_graph(abstraction.profile)
    return {
        "RoundtripReport": report,
        "Abstraction": abstraction,
        "AggSpec": abstraction.spec,
        "BehavioralProfile": abstraction.profile,
        "OrderRelationsGraph": graph,
        "MDTNode": modular_decomposition(graph),
        "NtlResult": ntl(abstraction.tree),
        "KendallResult": kendall_distance("ab", "ba"),
        "GenParams": GenParams(),
        "Instance": generate_instance(GenParams()),
        "FailureRecord": verify(1, base=NEGATIVE_CONTROL).failures[0],
    }


#: each record of ``records`` and one of its fields
RECORD_FIELDS = {
    "Abstraction": "tree", "AggSpec": "w_t", "BehavioralProfile": "masks",
    "FailureRecord": "reason", "GenParams": "seed", "Instance": "model",
    "KendallResult": "distance", "MDTNode": "kind", "NtlResult": "tr",
    "OrderRelationsGraph": "edges", "RoundtripReport": "isomorphic",
}


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_a_record_cannot_be_assigned_to(records, name):
    record, field = records[name], RECORD_FIELDS[name]
    assert type(record).__name__ == name
    kept = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.note = "x"
    assert getattr(record, field) is kept


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_records_copy_and_pickle(records, name):
    # a profile's constructor takes a relation mapping, not its mask fields
    record = records[name]
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_keep_their_reprs():
    assert repr(kendall_distance("ab", "ba")) == "KendallResult(distance=1, transpositions=(0,))"
    assert repr(NtlResult(2, (3, 4))) == "NtlResult(tr=2, lens=(3, 4))"
    assert repr(GenParams()) == (
        "GenParams(seed=0, max_depth=4, max_children=3, activity_budget=12, "
        "agg_group_count=2, agg_group_size=2, allow_unrestricted=False)"
    )
    assert repr(AggSpec(agg={"X": frozenset({"a"})}, w_t=Fraction(1, 2))) == (
        "AggSpec(agg={'X': frozenset({'a'})}, w_t=Fraction(1, 2))"
    )
    assert repr(BehavioralProfile(frozenset({"a"}), {("a", "a"): CHOICE})) == (
        "BehavioralProfile(activities=frozenset({'a'}), index={'a': 0}, masks=(0,))"
    )
    assert repr(OrderRelationsGraph(frozenset({"a"}), frozenset())) == (
        "OrderRelationsGraph(vertices=frozenset({'a'}), edges=frozenset())"
    )
    assert repr(VerificationSummary()) == (
        "VerificationSummary(instances=0, profile_checks=0, count_checks=0, iso_checks=0, "
        "failures=[])"
    )


def test_records_take_keywords_and_compare_by_value():
    assert KendallResult(distance=1, transpositions=(0,)) == kendall_distance("ab", "ba")
    assert NtlResult(tr=1, lens=(2,)) == NtlResult(1, (2,))
    assert GenParams(seed=3) != GenParams()
    # a record is a tuple of its fields: it equals that tuple, iterates,
    # indexes and orders like one
    assert kendall_distance("ab", "ba") == (1, (0,))
    assert tuple(NtlResult(1, (2,))) == (1, (2,)) and NtlResult(1, (2,))[1] == (2,)
    assert GenParams(seed=1) < GenParams(seed=2)


def test_replace_keeps_the_other_generator_fields():
    changed = GenParams()._replace(seed=3)
    assert changed == GenParams(seed=3)
    assert changed._asdict() == {**GenParams()._asdict(), "seed": 3}
    assert NEGATIVE_CONTROL._replace(max_depth=5) == GenParams(
        max_depth=5, allow_unrestricted=True, agg_group_count=1, agg_group_size=2
    )


def test_each_verification_summary_has_its_own_failures():
    one, two = VerificationSummary(), VerificationSummary()
    one.failures.append(FailureRecord(seed=0, model="a", spec="{}", reason="r"))
    one.instances += 1
    assert two == VerificationSummary() and two.failures == []
    assert one != two and not one.ok and two.ok

    failures = [FailureRecord(seed=0, model="a", spec="{}", reason="r")]
    three = VerificationSummary(instances=1, failures=failures)
    assert three.failures == failures and three.failures is not failures


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NtlResult(2, (1,)), "tr must equal len(lens)"),
        (lambda: NtlResult(tr=0, lens=(1,)), "tr must equal len(lens)"),
        (
            lambda: BehavioralProfile(frozenset("ab"), {("a", "a"): CHOICE}),
            "missing or invalid relation for (a, b): None",
        ),
        (
            lambda: BehavioralProfile(
                frozenset("ab"),
                {("a", "a"): CHOICE, ("b", "b"): CHOICE, ("a", "b"): STRICT, ("b", "a"): STRICT},
            ),
            "relation of (b, a) does not mirror (a, b)",
        ),
    ],
)
def test_validated_records_are_checked_when_they_are_built(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
