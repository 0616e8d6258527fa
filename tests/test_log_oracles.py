"""The log side against its trace-by-trace oracles (``oracles.py``):
stage one, stage two, CSV reading and CSV writing must give identical
outputs, variant order, attributes and CSV bytes included."""
import csv
import io
import random
import re
import timeit
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bpa import make_spec
from bpa.event_abstraction import MatchingError, choice_sets, ea1, ea2
from bpa.logs import Event, EventLog, read_csv_log, write_csv_log
from bpa.miner import discover
from bpa.model_abstraction import plan
from bpa.trees import activities, parse_tree
from conftest import CLAIMS_GROUPS, ORDERS_GROUPS, ORDERS_TRACES, build_claims_log, random_tree

FIXTURES = {
    "claims": (build_claims_log, make_spec(CLAIMS_GROUPS, Fraction(1, 2))),
    "orders": (lambda: EventLog(ORDERS_TRACES), make_spec(ORDERS_GROUPS, Fraction(5, 9))),
}


def scaled(log: EventLog, factor: int) -> EventLog:
    out = EventLog()
    for trace, n in log.variants():
        out.add(trace, n * factor)
    return out


def as_csv(log: EventLog, writer=write_csv_log) -> str:
    buf = io.StringIO()
    writer(log, buf)
    return buf.getvalue()


def shuffled_csv(log: EventLog, seed: int) -> str:
    """The log's traces as CSV cases in a seeded order."""
    cases = list(log.traces())
    random.Random(seed).shuffle(cases)
    out = ["case,activity,concrete\r\n"]
    for i, trace in enumerate(cases):
        out += [f"k{i},{e.activity},{e.get('concrete', '')}\r\n" for e in trace]
    return "".join(out)


def assert_same_log(got: EventLog, want: EventLog) -> None:
    assert got.variants() == want.variants()


def assert_same_abstraction(log: EventLog, spec) -> EventLog:
    """Both stages and the CSV writer against the oracles; returns the
    abstracted log."""
    abstraction = plan(discover(log), spec)
    assert abstraction.report.in_class
    stage_one = ea1(log, abstraction)
    assert_same_log(stage_one, oracles.ea1(log, abstraction))
    stage_two = ea2(stage_one, abstraction.tree)
    assert_same_log(stage_two, oracles.ea2(stage_one, abstraction.tree))
    assert as_csv(stage_two) == as_csv(stage_two, oracles.write_csv_log)
    return stage_two


# ---------------------------------------------------------------------------
# The fixtures, scaled
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factor", [1, 10, 1000])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_match_the_oracles(name, factor):
    build, spec = FIXTURES[name]
    log = scaled(build(), factor)
    abstracted = assert_same_abstraction(log, spec)
    assert abstracted.num_traces == log.num_traces

    text = shuffled_csv(log, seed=factor)
    got = read_csv_log(io.StringIO(text))
    assert_same_log(got, oracles.read_csv_log(io.StringIO(text)))
    assert as_csv(log) == as_csv(log, oracles.write_csv_log)


def test_criterion_corpus_matches_the_oracles(criterion_corpus):
    for inst in criterion_corpus:
        assert_same_abstraction(inst.log, inst.spec)


# ---------------------------------------------------------------------------
# Round-robin deletion over runs of copies
# ---------------------------------------------------------------------------

#: two disjoint choice sets, {X, Y} (k = 2) and {U, V, W} (k = 3)
DISJOINT_MODEL = (
    "and(xor(seq(a1,a2),seq(b1,b2)),xor(seq(c1,c2),seq(d1,d2),seq(e1,e2)))"
)
DISJOINT_GROUPS = {
    "X": ["a1", "a2"], "Y": ["b1", "b2"],
    "U": ["c1", "c2"], "V": ["d1", "d2"], "W": ["e1", "e2"],
}
#: two choice sets sharing Y: {X, Y} and {Y, Z}, since X precedes Z
OVERLAP_MODEL = "xor(seq(a1,a2,c1,c2),seq(b1,b2))"
OVERLAP_GROUPS = {"X": ["a1", "a2"], "Z": ["c1", "c2"], "Y": ["b1", "b2"]}


@pytest.fixture(scope="module")
def disjoint():
    return plan(parse_tree(DISJOINT_MODEL), make_spec(DISJOINT_GROUPS, Fraction(1, 2)))


@pytest.fixture(scope="module")
def overlap():
    return plan(parse_tree(OVERLAP_MODEL), make_spec(OVERLAP_GROUPS, Fraction(1, 2)))


def test_crafted_choice_sets(disjoint, overlap):
    assert choice_sets(disjoint) == [("U", "V", "W"), ("X", "Y")]
    assert choice_sets(overlap) == [("X", "Y"), ("Y", "Z")]
    for abstraction in (disjoint, overlap):
        assert choice_sets(abstraction) == oracles.choice_sets(abstraction)


def test_runs_not_a_multiple_of_the_period_match_the_oracle(disjoint):
    log = EventLog()
    log.add(("a1", "b1", "c1", "d1", "e1"), 7)   # offends both sets: period 6
    log.add(("a1", "c1"), 2)                     # offends neither
    log.add(("b2", "a2", "d2", "c2"), 5)         # both sets, only U and V present
    log.add(("a1", "b1", "e2"), 13)              # {X, Y} only: period 2
    log.add(("c1", "d1", "e1", "e2"), 4)         # {U, V, W} only: period 3
    log.add(("a1", "b1", "c1", "d1", "e1", "a2"), 1)
    got = ea1(log, disjoint)
    assert_same_log(got, oracles.ea1(log, disjoint))
    assert got.num_traces == log.num_traces


activity_sets = st.lists(
    st.sets(st.sampled_from(["a1", "b1", "c1", "d1", "e1", "b2"]), min_size=1).map(sorted),
    min_size=1,
    max_size=6,
)


@given(activity_sets, st.lists(st.integers(1, 40), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_random_runs_match_the_oracle(disjoint, overlap, variants, counts):
    log = EventLog()
    for acts, n in zip(variants, counts):
        log.add(acts, n)
    assert_same_log(ea1(log, disjoint), oracles.ea1(log, disjoint))
    named = {"a1": "a1", "b1": "b1", "c1": "c1", "d1": "a2", "e1": "c2", "b2": "b2"}
    renamed = EventLog()
    for acts, n in zip(variants, counts):
        renamed.add([named[a] for a in acts], n)
    assert_same_log(ea1(renamed, overlap), oracles.ea1(renamed, overlap))


@given(st.randoms(use_true_random=False), st.sampled_from([(1, 3), (1, 4), (2, 2), (2, 3)]))
@settings(max_examples=60, deadline=None)
def test_stage_one_matches_the_per_trace_oracle_on_random_specs(rng, shape):
    # variants that share an activity set differ in order or attributes;
    # stage one works out each set once, the oracle every trace
    tree = random_tree(rng)
    alphabet = sorted(activities(tree))
    log = EventLog()
    for _ in range(rng.randint(1, 20)):
        acts = rng.sample(alphabet, rng.randint(1, len(alphabet)))
        for _ in range(rng.randint(1, 3)):
            rng.shuffle(acts)
            log.add([Event(a, (("k", str(rng.randint(0, 1))),)) for a in acts], rng.randint(1, 3))
    spec = oracles.random_spec(tree, log, rng, *shape, unrestricted=True)
    abstraction = plan(tree, spec)
    assert abstraction.profile is not None
    assert_same_log(ea1(log, abstraction), oracles.ea1(log, abstraction))


pools = st.lists(
    st.tuples(
        st.permutations(["a", "b", "c"]),
        st.sampled_from(["", "p", "q"]),
        st.integers(1, 12),
    ),
    min_size=1,
    max_size=10,
)


@given(pools)
@settings(max_examples=80, deadline=None)
def test_random_pools_match_the_stage_two_oracle(pool):
    # one class of six reference traces; variants with one sequence but
    # other attributes tie on distance, so the greedy order decides
    model = parse_tree("and(a,b,c)")
    log = EventLog()
    for acts, concrete, n in pool:
        attrs = (("concrete", concrete),) if concrete else ()
        log.add([Event(a, attrs) for a in acts], n)
    try:
        want = oracles.ea2(log, model)
    except MatchingError as exc:
        with pytest.raises(MatchingError, match=re.escape(str(exc))):
            ea2(log, model)
    else:
        assert_same_log(ea2(log, model), want)


# ---------------------------------------------------------------------------
# CSV reading and writing
# ---------------------------------------------------------------------------

CRAFTED_CSVS = [
    # timestamps: numeric, empty and text, ties kept in file order
    "case,activity,timestamp\nc1,b,2\nc1,a,1\nc2,x,\nc2,y,\nc3,b,t2\nc3,a,t1\nc1,c,2\n",
    # attribute columns, empty values dropped, short rows padded
    "case,activity,attr:team,attr:area\nc1,a,blue,n\nc1,b,,s\nc2,a,blue,n\nc2,b\n"
    "c3,a,blue,n\nc3,b,,s\n",
    # blank lines and interleaved cases
    "activity,case\n\na,1\nb,2\n\nb,1\na,2\na,3\nb,3\n\n",
    # abstraction columns, quoting, and a timestamp after them
    'case,activity,concrete,transposed,timestamp\n'
    'c1,X,"p;q",true,3\nc2,Y,,,1\nc1,Y,,,1\nc2,X,"p;q",true,3\nc3,"a,b",,,0\n',
    # c2 comes back after c3 started, and its first stretch is c1's and
    # c4's whole sequence; c3 has a quoted newline
    'case,activity\nc1,a\nc1,b\nc2,a\nc2,b\nc3,"x\ny"\nc2,c\nc3,a\nc4,a\nc4,b\n',
    # a nan timestamp sorts as text, after the numbers
    "case,activity,timestamp\nc1,c,3\nc1,x,nan\nc1,a,1\nc2,b,NaN\nc2,a,-1\nc2,c,z\n",
]


@pytest.mark.parametrize("text", CRAFTED_CSVS)
@pytest.mark.parametrize("from_path", [False, True])
def test_crafted_csvs_match_the_oracle(text, from_path, tmp_path):
    # from a file object, or from a path the reader opens itself
    if from_path:
        source = tmp_path / "log.csv"
        source.write_text(text, encoding="utf-8", newline="")
        got = read_csv_log(source)
    else:
        got = read_csv_log(io.StringIO(text))
    assert_same_log(got, oracles.read_csv_log(io.StringIO(text)))
    assert as_csv(got) == as_csv(got, oracles.write_csv_log)


rows = st.lists(
    st.tuples(
        st.sampled_from(["c1", "c2", "c3"]),
        st.sampled_from(["a", "b", "c d", "x,y"]),
        st.sampled_from(["", "1", "2", "1.5", "late"]),
        st.sampled_from(["", "red", 'say "hi"']),
    ),
    max_size=25,
)


@given(rows)
@settings(max_examples=80, deadline=None)
def test_random_csvs_match_the_oracle(table):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["timestamp", "case", "attr:colour", "activity"])
    for i, (case, act, ts, colour) in enumerate(table):
        if i % 4 == 3:
            buf.write("\r\n")  # a blank line
        writer.writerow([ts, case, colour, act])
    text = buf.getvalue()
    got = read_csv_log(io.StringIO(text))
    assert_same_log(got, oracles.read_csv_log(io.StringIO(text)))
    assert as_csv(got) == as_csv(got, oracles.write_csv_log)


def test_writer_numbers_cases_across_empty_traces():
    log = EventLog()
    log.add([Event("a", (("concrete", "p"), ("team", "x")))], 2)
    log.add([], 3)
    log.add([Event("b", (("transposed", "true"),)), Event("a")], 2)
    assert as_csv(log) == as_csv(log, oracles.write_csv_log)


def alternating_csv(events: int) -> tuple[str, str]:
    """Two cases of ``events`` rows each: rows alternating between the
    cases, and the same rows grouped by case."""
    rows = [(f"c{i % 2}", f"a{i % 7}") for i in range(2 * events)]
    grouped = sorted(rows, key=lambda r: r[0])  # stable: file order per case
    return tuple("case,activity\n" + "".join(f"{c},{a}\n" for c, a in t) for t in (rows, grouped))


def test_alternating_cases_read_in_linear_time():
    # each case switch is O(1): a reader that rebuilt a case's sequence on
    # every switch was 400 times slower here than on the grouped rows
    alternating, grouped = alternating_csv(20_000)
    got = read_csv_log(io.StringIO(alternating))
    assert_same_log(got, oracles.read_csv_log(io.StringIO(alternating)))
    assert got.num_events == 40_000

    def seconds(text: str) -> float:
        return min(timeit.repeat(lambda: read_csv_log(io.StringIO(text)), number=1, repeat=3))

    assert seconds(alternating) < 20 * seconds(grouped)


def test_csv_reader_memory_per_case():
    # one shared tuple per distinct sequence: the peak is the case index
    # (id and slot per case); a list per case took 263 B per case here
    log = scaled(build_claims_log(), 200)
    source = io.StringIO(shuffled_csv(log, seed=200))
    tracemalloc.start()
    try:
        got = read_csv_log(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.num_traces == log.num_traces == 9_200
    assert peak / got.num_traces < 150


def read_peak_per_row(text: str) -> float:
    """The reader's tracemalloc peak over ``text``, per event row."""
    source = io.StringIO(text)
    tracemalloc.start()
    try:
        got = read_csv_log(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / got.num_events


def timestamped_csv(cases: int) -> str:
    """``cases`` cases of five rows each, written latest first, with a
    resource column; every row has its own timestamp."""
    steps = ["register claim", "check policy", "assess damage", "approve payment", "notify"]
    out = ["case,activity,timestamp,attr:resource\n"]
    for i in range(cases):
        out += [
            f"c{i},{step},{1_700_000_000 + 3_600 * i - 60 * j},clerk{j % 3}\n"
            for j, step in enumerate(steps)
        ]
    return "".join(out)


def test_csv_reader_memory_per_row_on_interleaved_cases():
    # a stretch that joins a case's list keeps one shared copy per distinct
    # key: 36 B per row; keeping each row's own key took 87 B per row here
    alternating, _ = alternating_csv(5_000)
    assert read_peak_per_row(alternating) < 60


def test_csv_reader_memory_per_row_with_timestamps():
    # a stretch's raw timestamps become sort keys and its event keys are
    # shared when it ends: 166 B per row; keeping each row's raw key until
    # the end of the file took 286 B per row here
    assert read_peak_per_row(timestamped_csv(2_000)) < 230


SHORT_FIELDS = ("timestamp", "case", "activity", "attr:colour")

short_rows = st.lists(
    st.tuples(
        st.sampled_from(["c1", "c2", "c3"]),
        st.sampled_from(["a", "b", "x\ny"]),
        st.sampled_from(["", "1", "2", "late"]),
        st.sampled_from(["", "red", "two\nlines"]),
        st.sampled_from([4, 4, 4, 4, 3, 2, 1, 0]),  # how many fields the row keeps
    ),
    max_size=25,
)


@given(short_rows)
@settings(max_examples=80, deadline=None)
def test_short_rows_match_the_oracle_or_name_the_first_bad_line(table):
    # a row keeping 3 fields lost only its colour (perhaps a multi-line
    # one) and is padded; keeping 1 or 2 it lost the case or the activity;
    # keeping none it is a blank line
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SHORT_FIELDS)
    error = None
    for case, act, ts, colour, kept in table:
        writer.writerow([ts, case, act, colour][:kept])
        if error is None and 0 < kept < 3:
            line = buf.getvalue().count("\n")
            error = f"CSV line {line}: row has no '{SHORT_FIELDS[kept]}' field"
    text = buf.getvalue()
    if error is None:
        got = read_csv_log(io.StringIO(text))
        assert_same_log(got, oracles.read_csv_log(io.StringIO(text)))
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            read_csv_log(io.StringIO(text))


fuzz_texts = st.tuples(
    st.sampled_from(["", "case,activity\n", "case,activity,timestamp,attr:x\n", "activity,case"]),
    st.lists(
        st.one_of(
            st.sampled_from(['"', ",", "\r", "\n", "\r\n", "\x00", "c1", "a", "1", "nan", " "]),
            st.text(max_size=5),
            st.just("x" * 131_073),  # one past the csv module's field limit
        ),
        max_size=30,
    ),
).map(lambda parts: parts[0] + "".join(parts[1]))


@given(fuzz_texts)
@settings(max_examples=120, deadline=None)
def test_csv_reader_raises_only_value_errors_on_fuzzed_text(text):
    try:
        read_csv_log(io.StringIO(text))
    except ValueError:
        pass
