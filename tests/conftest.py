"""Shared fixtures and generators for the test suite.

Two worked examples anchor most regression values:

* ``claims``: an insurance-claims handling log (46 traces).  Its discovered
  model violates the sequence-structure rule, yet the aggregation applies
  and the round trip synchronizes — a useful "unrestricted but working"
  anchor.
* ``orders``: a small ordering process (9 traces) whose aggregation
  threshold sits exactly at the minimax weight and whose stage-two
  redistribution needs zero transpositions.

Frozen anchor strings below were derived once by hand/enumeration and are
asserted against the implementation in the module tests; they must never be
regenerated from the code under test.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from bpa import AggSpec, EventLog, make_spec
from bpa.pipeline import GenParams, Instance, generate_instance
from bpa.trees import ProcessTree, leaf, node, normal_form, tau

# ---------------------------------------------------------------------------
# Claims example
# ---------------------------------------------------------------------------

#: model discovered from the claims log (canonical render)
CLAIMS_MODEL = (
    "seq(RBP,CBW,NC,xor(seq(and(seq(RFI,BC),seq(loop(PN,tau),loop(CD,tau),"
    "loop(PDD,tau))),SC),RP),AP)"
)

#: abstracted claims model
CLAIMS_ABSTRACT = "seq(RBP,xor(RP,seq(AB,and(AC,loop(FDD,tau)),SC)),AP)"

#: reference traces of the abstracted claims model, generation order
CLAIMS_REFERENCE = [
    ("RBP", "RP", "AP"),
    ("RBP", "AB", "AC", "FDD", "FDD", "SC", "AP"),
    ("RBP", "AB", "FDD", "AC", "FDD", "SC", "AP"),
    ("RBP", "AB", "FDD", "FDD", "AC", "SC", "AP"),
]

CLAIMS_GROUPS = {
    "AB": ["CBW", "CD"],
    "AC": ["NC", "RFI", "BC"],
    "FDD": ["PN", "PDD"],
}


def claims_complex_trace(positions: tuple[int, int]) -> tuple[str, ...]:
    """One long claims trace: the review/assessment pair is interleaved into
    the six-step payment chain at the two given slot indices (0..7)."""
    chain = ["PN", "PN", "CD", "CD", "PDD", "PDD"]
    par = ["RFI", "BC"]
    merged, pi, ci = [], 0, 0
    for k in range(8):
        if pi < len(par) and k == sorted(positions)[pi]:
            merged.append(par[pi])
            pi += 1
        else:
            merged.append(chain[ci])
            ci += 1
    return tuple(["RBP", "CBW", "NC", *merged, "SC", "AP"])


def build_claims_log() -> EventLog:
    """46 traces / 590 events: one short rejection trace plus every
    interleaving of the long trace, the first 17 of them duplicated."""
    log = EventLog()
    log.add(("RBP", "CBW", "NC", "RP", "AP"), 1)
    for i, positions in enumerate(combinations(range(8), 2)):
        log.add(claims_complex_trace(positions), 2 if i < 17 else 1)
    return log


@pytest.fixture(scope="session")
def claims_log() -> EventLog:
    return build_claims_log()


@pytest.fixture(scope="session")
def claims_spec() -> AggSpec:
    return make_spec(CLAIMS_GROUPS, Fraction(1, 2))


# ---------------------------------------------------------------------------
# Orders example
# ---------------------------------------------------------------------------

ORDERS_TRACES = [
    ("OLS", "TLS", "TOS", "OW", "C", "T", "T", "C", "CT"),
    ("GO", "TLS", "TOS", "OW", "C", "C", "T", "T", "CT"),
    ("OLS", "OW", "OW", "T", "C", "T", "C", "CT"),
    ("GO", "OW", "T", "T", "CT"),
    ("OLS", "OW", "C", "C", "T", "T", "CT"),
    ("GO", "OW", "OW", "C", "T", "C", "T", "CT"),
    ("OLS", "OW", "T", "T", "CT"),
    ("GO", "RO", "ODS"),
    ("OLS", "RO", "ODS"),
]

#: hand-designed model that is df-complete with the orders log …
ORDERS_DESIGNED = (
    "seq(xor(OLS,GO),xor(seq(xor(seq(TLS,TOS),tau),loop(OW,tau),"
    "and(xor(loop(C,tau),tau),loop(T,tau)),CT),seq(RO,ODS)))"
)

#: … and the (different) model the miner actually discovers from it: the
#: maximal sequence cut splits the optional TLS→TOS block into two
#: independent skips.  Both trees share one behavioral profile.
ORDERS_DISCOVERED = (
    "seq(xor(GO,OLS),xor(seq(xor(tau,TLS),xor(tau,TOS),loop(OW,tau),"
    "and(xor(tau,loop(C,tau)),loop(T,tau)),CT),seq(RO,ODS)))"
)

ORDERS_ABSTRACT = "seq(RQ,xor(seq(OT,loop(N,tau),CT),DQ))"

ORDERS_GROUPS = {
    "RQ": ["OLS", "GO"],
    "OT": ["TLS", "TOS", "OW"],
    "N": ["C", "T"],
    "DQ": ["RO", "ODS"],
}


@pytest.fixture(scope="session")
def orders_log() -> EventLog:
    return EventLog(ORDERS_TRACES)


@pytest.fixture(scope="session")
def orders_spec() -> AggSpec:
    return make_spec(ORDERS_GROUPS, Fraction(5, 9))


# ---------------------------------------------------------------------------
# Synchronization boundary: a gate-passing instance whose stage-two matching
# must fail (frozen from a randomized-verification find)
# ---------------------------------------------------------------------------

#: The group X2 straddles an exclusive slot (a10) and a concurrent activity
#: (a5), which drives every pairwise weight to 1/2; the choice-first cascade
#: then derives X2 + a1 / X2 + a7 although a10 co-occurs with both.  Stage
#: one consequently suppresses X2 in those traces and the residue bags match
#: no reference trace.
BOUNDARY_MODEL = (
    "xor(loop(a0,tau),loop(a9,tau),a6,"
    "seq(xor(a3,a2,and(a11,a4),a10),xor(loop(a1,tau),a7),and(a8,a5)))"
)
BOUNDARY_GROUPS = {"X1": ["a0", "a9"], "X2": ["a10", "a5"]}
BOUNDARY_W_T = Fraction(1, 2)


# ---------------------------------------------------------------------------
# The acceptance criteria's corpus of generated instances
# ---------------------------------------------------------------------------

CORPUS_SIZE = 300


@pytest.fixture(scope="session")
def criterion_corpus() -> list[Instance]:
    """The instances of generator seeds 0 .. CORPUS_SIZE - 1 at default
    parameters, generated once per session."""
    return [generate_instance(GenParams(seed=i)) for i in range(CORPUS_SIZE)]


# ---------------------------------------------------------------------------
# Random tree generation (plain ``random``, for corpus-style tests)
# ---------------------------------------------------------------------------

def random_tree(
    rng: random.Random,
    n_activities: int = 7,
    self_loop_prob: float = 0.3,
    max_children: int = 3,
) -> ProcessTree:
    """A random tree with unique activities and taus only inside self-loops
    (so it lies in the stricter structural class by construction)."""
    names = [f"a{i}" for i in range(n_activities)]
    rng.shuffle(names)

    def build(pool: list[str]) -> ProcessTree:
        if len(pool) == 1:
            if rng.random() < self_loop_prob:
                return node("loop", leaf(pool[0]), tau())
            return leaf(pool[0])
        k = rng.randint(2, min(max_children, len(pool)))
        cuts = sorted(rng.sample(range(1, len(pool)), k - 1))
        parts = [pool[i:j] for i, j in zip([0, *cuts], [*cuts, len(pool)])]
        op = rng.choice(("seq", "xor", "and"))
        return node(op, *(build(p) for p in parts))

    return normal_form(build(names))
