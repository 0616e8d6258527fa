"""The record types on the ``bpa discover`` path: trees, class reports,
directly-follows graphs and discovery audits keep value semantics, their
checks and their reprs."""
import re

import pytest

from bpa.logs import DFG, END, START, log_from_sequences
from bpa.miner import DiscoveryAudit, RestrictionCheck, check_restricted
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
