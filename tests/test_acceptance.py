"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line (run with ``-s`` to watch them as they complete).

The criteria pin down the worked-example regressions (ordering weights,
minimal-log counts, end-to-end log abstraction), the synchronization
property at scale, the size/rediscoverability/matching properties behind it,
the counterexamples that motivate the restricted log class, and the
equivalence of the three core algorithms with their independent oracles.
"""
import itertools
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from bpa.event_abstraction import ea1, ea_bpa, kendall_distance
from bpa.logs import log_from_sequences
from bpa.miner import check_restricted, discover
from bpa.model_abstraction import (
    applicable,
    derive_ordering_relation,
    expand_spec,
    make_spec,
    modular_decomposition,
    plan,
    relation_weights,
    w_minmax,
)
from bpa.pipeline import roundtrip, verify
from bpa.profiles import (
    STRICT,
    behavioral_profile,
    order_relations_graph,
)
from bpa.semantics import minimal_log, ntl
from bpa.trees import (
    ProcessTree,
    activities,
    check_class,
    isomorphic,
    leaf,
    node,
    parse_tree,
    tau,
)
from conftest import (
    CLAIMS_ABSTRACT,
    CLAIMS_GROUPS,
    CLAIMS_MODEL,
    CORPUS_SIZE,
    ORDERS_DESIGNED,
    ORDERS_GROUPS,
    ORDERS_TRACES,
    build_claims_log,
    random_tree,
)
from oracles import weak_order_oracle
from test_event_abstraction import bfs_swap_distance
from test_model_abstraction import brute_force_strong_modules, random_profile


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_criterion_1_ordering_derivation_regression():
    with criterion("criterion 1: ordering derivation on the worked example (<1s)"):
        start = time.perf_counter()
        model = parse_tree(CLAIMS_MODEL)
        profile = behavioral_profile(model)
        spec = expand_spec(
            make_spec(CLAIMS_GROUPS, Fraction(1, 2)), activities(model)
        )
        w = relation_weights("AB", "AC", profile, spec)
        assert (
            w.x_before_y,
            w.y_before_x,
            w.x_not_before_y,
            w.y_not_before_x,
        ) == (Fraction(5, 6), Fraction(3, 6), Fraction(1, 6), Fraction(3, 6))
        assert derive_ordering_relation("AB", "AC", profile, spec) == STRICT
        assert time.perf_counter() - start < 1.0


def test_criterion_2_minimal_log_counts_regression():
    with criterion("criterion 2: minimal-log trace and length counts"):
        result = ntl(parse_tree(CLAIMS_ABSTRACT))
        assert result.tr == 4
        assert result.lens == (3, 7, 7, 7)
        assert result.size == 24
        # the parallel sub-case: a single activity interleaved with the two
        # events of a self-loop gives 3!/(1!*2!) = 3 traces
        sub = ntl(parse_tree("and(AC,loop(FDD,tau))"))
        expected = math.factorial(3) // (math.factorial(1) * math.factorial(2))
        assert sub.tr == expected == 3


def test_criterion_3_log_abstraction_end_to_end():
    with criterion("criterion 3: synchronized log abstraction on both fixtures"):
        claims = ea_bpa(build_claims_log(), make_spec(CLAIMS_GROUPS, Fraction(1, 2)))
        assert Counter(dict(claims.activity_variants())) == Counter(
            {
                ("RBP", "RP", "AP"): 1,
                ("RBP", "AB", "AC", "FDD", "FDD", "SC", "AP"): 15,
                ("RBP", "AB", "FDD", "AC", "FDD", "SC", "AP"): 15,
                ("RBP", "AB", "FDD", "FDD", "AC", "SC", "AP"): 15,
            }
        )

        profile = behavioral_profile(parse_tree(ORDERS_DESIGNED))
        full = expand_spec(make_spec(ORDERS_GROUPS, Fraction(1)), profile.activities)
        threshold = w_minmax(profile, full)
        assert threshold == Fraction(5, 9)
        orders = ea_bpa(
            log_from_sequences(ORDERS_TRACES), make_spec(ORDERS_GROUPS, threshold)
        )
        assert Counter(dict(orders.activity_variants())) == Counter(
            {("RQ", "OT", "N", "N", "CT"): 7, ("RQ", "DQ"): 2}
        )
        # this instance synchronizes without reordering a single event
        assert all(
            event.get("transposed") != "true"
            for trace in orders.traces()
            for event in trace
        )


def test_criterion_4_synchronization_at_scale():
    with criterion(f"criterion 4: {CORPUS_SIZE} seeded round trips, zero failures (<5min)"):
        start = time.perf_counter()
        summary = verify(CORPUS_SIZE, seed=0)
        elapsed = time.perf_counter() - start
        assert summary.instances == CORPUS_SIZE
        assert summary.iso_checks == CORPUS_SIZE
        assert summary.profile_checks == CORPUS_SIZE
        assert summary.count_checks == CORPUS_SIZE
        assert summary.ok, summary.failures[:3]
        assert elapsed < 300, f"took {elapsed:.1f}s"


def _signatures(log_like) -> Counter:
    """Multiset of per-trace activity bags."""
    return Counter(
        tuple(sorted(Counter(e.activity for e in t).items()))
        for t in log_like.traces()
    )


def _ordering_child(rng: random.Random, names) -> ProcessTree:
    kind = rng.randrange(6)
    if kind == 0:
        return leaf(next(names))
    if kind == 1:
        return node("loop", leaf(next(names)), tau())
    if kind == 2:
        return node("xor", leaf(next(names)), leaf(next(names)))
    if kind == 3:
        return node("xor", leaf(next(names)), leaf(next(names)), leaf(next(names)))
    if kind == 4:
        return node("and", leaf(next(names)), leaf(next(names)))
    return node("xor", node("loop", leaf(next(names)), tau()), leaf(next(names)))


def _check_operator_ordering(trials: int) -> tuple[int, int]:
    """Compare minimal-log sizes of xor/seq/and over shared children.

    With child trace counts k_i, the claims split in two regimes: when every
    k_i is 1 or 2 the parallel composition strictly dominates and xor never
    exceeds seq in events; when every k_i is at least 2 the trace counts and
    event counts both form strict chains xor < seq < and.  Mixed counts
    satisfy neither hypothesis and are skipped.
    """
    rng = random.Random(5)
    small = chains = 0
    for trial in range(trials):
        names = iter(f"v{trial}_{j}" for j in itertools.count())
        kids = [_ordering_child(rng, names) for _ in range(rng.randint(2, 3))]
        counts = [ntl(k).tr for k in kids]
        by_xor = ntl(ProcessTree("xor", tuple(kids)))
        by_seq = ntl(ProcessTree("seq", tuple(kids)))
        by_and = ntl(ProcessTree("and", tuple(kids)))
        if all(k in (1, 2) for k in counts):
            assert by_xor.tr <= by_and.tr and by_seq.tr < by_and.tr
            assert by_xor.size <= by_seq.size < by_and.size
            small += 1
        elif all(k >= 2 for k in counts):
            assert by_xor.tr < by_seq.tr < by_and.tr
            assert by_xor.size < by_seq.size < by_and.size
            chains += 1
    return small, chains


def test_criterion_5_supporting_properties(criterion_corpus):
    with criterion("criterion 5: compression, rediscoverability, ordering, matching"):
        for inst in criterion_corpus:
            report = roundtrip(inst.log, inst.spec)
            abstract = report.abstraction.tree
            assert abstract is not None
            reference = minimal_log(abstract)
            # the abstract model's minimal log is strictly smaller than the
            # input log, in traces and in events
            assert reference.num_traces < inst.log.num_traces
            assert reference.num_events < inst.log.num_events
            # the abstract model lies in the discoverable class and comes
            # back unchanged from its own minimal log
            assert check_class(abstract, "C_a").in_class
            assert isomorphic(discover(reference), abstract)
            # stage-one abstraction covers every reference bag with at
            # least as many traces, so a trace matching always exists
            got = _signatures(ea1(inst.log, plan(report.check.tree, inst.spec)))
            ref = _signatures(reference)
            assert set(got) == set(ref)
            assert all(got[key] >= ref[key] for key in ref)
        small, chains = _check_operator_ordering(200)
        assert small and chains  # both regimes actually exercised


# Aggregations that would blow up the minimal log instead of shrinking it,
# each paired with the fall-through its characteristic log provokes; the
# last entry breaks the model-structure rule instead.
REJECTED_CASES = [
    (
        "xor(seq(a,b),and(e,and(c,d)))",
        {"x": ["a", "b"]},
        "xor(x,and(c,d,e))",
        (7, 19),
        (("a", "b"), ("e", "c", "d"), ("d", "e", "c")),
    ),
    (
        "xor(seq(a,b),and(xor(loop(f,tau),tau),seq(c,d,e)))",
        {"x": ["a", "b"]},
        "xor(x,and(loop(f,tau),seq(c,d,e)))",
        (11, 51),
        (("a", "b"), ("f", "c", "d", "e"), ("c", "d", "e", "f", "f"), ("c", "d", "e", "f")),
    ),
    (
        "xor(loop(xor(b,seq(a,xor(c,tau))),tau),seq(d,e))",
        {"x": ["d", "e"]},
        "xor(and(loop(a,tau),loop(b,tau),loop(c,tau)),x)",
        (91, 541),
        (("a", "c", "a"), ("b", "a"), ("d", "e")),
    ),
    (
        "xor(loop(a,b),seq(d,e,f))",
        {"x": ["c", "d"]},
        "xor(and(a,b),seq(x,f))",
        (3, 6),
        (("a", "b", "a"), ("c", "d", "e")),
    ),
]


def test_criterion_6_counterexample_fixtures():
    with criterion("criterion 6: inflation counterexamples reproduce and are rejected"):
        for model, groups, abstracted, (tr, total), log_seqs in REJECTED_CASES:
            result = ntl(parse_tree(abstracted))
            assert (result.tr, result.size) == (tr, total)
            gate = applicable(parse_tree(model), make_spec(groups, Fraction(1, 2)))
            assert not gate.in_class
            assert not check_restricted(log_from_sequences(log_seqs)).restricted
        # a bare activity sequence: its minimal log is the one-trace
        # singleton, and the discovered model violates the structure rule
        plain = parse_tree("seq(a,b,c)")
        result = ntl(plain)
        assert (result.tr, result.lens, result.size) == (1, (3,), 3)
        assert [tuple(e.activity for e in t) for t in minimal_log(plain).traces()] == [
            ("a", "b", "c")
        ]
        assert not check_restricted(log_from_sequences([("a", "b", "c")])).restricted


def test_criterion_7_oracle_equivalences():
    with criterion("criterion 7: implementations match their independent oracles"):
        # structural profile computation against the language-based scan
        done, seed = 0, 0
        while done < 300:
            tree = random_tree(random.Random(seed))
            seed += 1
            try:
                oracle = weak_order_oracle(tree)
            except RuntimeError:  # language too large for the oracle cap
                continue
            assert behavioral_profile(tree) == oracle
            done += 1

        # transposition distance against breadth-first search over swaps
        rng = random.Random(7)
        for _ in range(500):
            source = tuple(rng.choice("abc") for _ in range(rng.randint(0, 7)))
            shuffled = list(source)
            rng.shuffle(shuffled)
            target = tuple(shuffled)
            got = kendall_distance(source, target).distance
            assert got == bfs_swap_distance(source, target)

        # modular decomposition against exhaustive module enumeration
        rng = random.Random(11)
        for _ in range(200):
            graph = order_relations_graph(random_profile(rng))
            mdt = modular_decomposition(graph)
            assert mdt.member_sets() == brute_force_strong_modules(graph)
