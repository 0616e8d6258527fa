"""Event and log containers, directly-follows graphs, and the two on-disk
formats (CSV and compact)."""
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpa.logs import (
    END,
    START,
    Event,
    EventLog,
    as_trace,
    dfg_of_log,
    dfg_to_dot,
    format_compact,
    log_from_sequences,
    read_compact,
    read_csv_log,
    trace_activities,
    write_csv_log,
)
from oracles import log_metrics

traces_strategy = st.lists(
    st.lists(st.sampled_from("abcde"), max_size=6).map(tuple), max_size=8
)


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

def test_event_attrs_lookup():
    e = Event("a", (("concrete", "x;y"),))
    assert e.get("concrete") == "x;y"
    assert e.get("missing") is None
    assert e.get("missing", "d") == "d"


def test_as_trace_returns_an_event_tuple_itself():
    trace = (Event("a"), Event("b", (("k", "v"),)))
    assert as_trace(trace) is trace
    assert as_trace(()) == ()


def test_as_trace_builds_events_from_names():
    events = [Event("a"), "b", Event("c", (("k", "v"),))]
    trace = as_trace(events)
    assert type(trace) is tuple
    assert trace == (Event("a"), Event("b"), Event("c", (("k", "v"),)))
    assert trace[0] is events[0] and trace[2] is events[2]
    assert as_trace(["a", "b"]) == (Event("a"), Event("b"))
    assert as_trace((Event("a"), "b")) == (Event("a"), Event("b"))


def test_as_trace_keeps_event_subclasses():
    class Tagged(Event):
        pass

    events = (Tagged("a"), Event("b"))
    trace = as_trace(events)
    assert trace == events
    assert type(trace[0]) is Tagged and trace[0] is events[0]
    assert trace_activities(trace) == ("a", "b")


def test_with_attrs_returns_new_event():
    e = Event("a")
    e2 = e.with_attrs(transposed="true")
    assert e.attrs == ()
    assert e2.get("transposed") == "true"
    assert e2.activity == "a"


def test_with_attrs_overwrites_existing_key():
    e = Event("a", (("k", "1"),)).with_attrs(k="2")
    assert e.get("k") == "2"
    assert len(e.attrs) == 1


# ---------------------------------------------------------------------------
# EventLog as a multiset
# ---------------------------------------------------------------------------

def test_add_accumulates_counts():
    log = EventLog()
    log.add(("a", "b"))
    log.add(("a", "b"), 2)
    assert log.as_multiset() == {("a", "b"): 3}
    assert log.num_traces == 3
    assert log.num_events == 6


@pytest.mark.parametrize("count", [1.5, "2", None])
def test_add_refuses_a_multiplicity_that_is_not_an_integer(count):
    log = EventLog([("a",)])
    with pytest.raises(ValueError) as exc:
        log.add(["a", "b"], count)
    assert str(exc.value) == f"multiplicity must be an integer, not {count!r}"
    assert log.as_multiset() == {("a",): 1}


def test_traces_expands_multiplicities():
    log = EventLog([("a",), ("a",), ("b",)])
    assert sorted(tuple(e.activity for e in t) for t in log.traces()) == [
        ("a",),
        ("a",),
        ("b",),
    ]


def test_empty_trace_counts_as_trace():
    log = EventLog([()])
    assert log.num_traces == 1
    assert log.num_events == 0


def test_a_variant_is_its_event_sequence_and_control_flow_views_merge():
    log = EventLog()
    log.add([Event("a", (("k", "1"),)), Event("b")])
    log.add([Event("a", (("k", "2"),)), Event("b")], 2)
    log.add([Event("a", (("k", "1"),)), Event("b")])
    assert [(trace_activities(t), t[0].get("k"), n) for t, n in log.variants()] == [
        (("a", "b"), "1", 2),
        (("a", "b"), "2", 2),
    ]
    assert log.activity_variants() == [(("a", "b"), 4)]
    assert log == EventLog([("a", "b")] * 4)
    assert format_compact(log) == "x4 a,b\n"


def test_attribute_order_never_splits_a_variant():
    log = EventLog()
    log.add([Event("a", (("k", "1"), ("c", "2")))])
    log.add([Event("a", (("c", "2"), ("k", "1")))])
    assert log.variants() == [((Event("a", (("c", "2"), ("k", "1"))),), 2)]
    assert Event("a", (("k", "1"), ("c", "2"))).attrs == (("c", "2"), ("k", "1"))


def test_union_merges_counts():
    a = EventLog([("a",)])
    b = EventLog([("a",), ("b",)])
    merged = a.union(b)
    assert merged.as_multiset() == {("a",): 2, ("b",): 1}


def test_log_equality_ignores_insertion_order():
    assert EventLog([("a",), ("b",)]) == EventLog([("b",), ("a",)])


def test_log_from_sequences_with_counts():
    log = log_from_sequences([("a",), ("b",)], counts=[2, 5])
    assert log.as_multiset() == {("a",): 2, ("b",): 5}


def test_claims_fixture_metrics(claims_log):
    assert log_metrics(claims_log) == (46, 590)


def test_orders_fixture_metrics(orders_log):
    assert log_metrics(orders_log) == (9, 57)


# ---------------------------------------------------------------------------
# Directly-follows graphs
# ---------------------------------------------------------------------------

def test_dfg_of_simple_log():
    g = dfg_of_log(EventLog([("a", "b"), ("a", "c")]))
    assert g.nodes == frozenset({START, END, "a", "b", "c"})
    assert g.edges == frozenset(
        {(START, "a"), ("a", "b"), ("a", "c"), ("b", END), ("c", END)}
    )


def test_dfg_of_empty_trace():
    g = dfg_of_log(EventLog([()]))
    assert g.edges == frozenset({(START, END)})


def test_dfg_successors_predecessors():
    g = dfg_of_log(EventLog([("a", "b", "a")]))
    assert g.successors("a") == {"b", END}
    assert g.predecessors("a") == {START, "b"}


def test_dfg_to_dot_contains_markers():
    dot = dfg_to_dot(dfg_of_log(EventLog([("a",)])))
    assert START in dot and END in dot and "doublecircle" in dot


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_roundtrip_plain(tmp_path):
    log = EventLog([("a", "b"), ("a", "b"), ("c",)])
    path = tmp_path / "log.csv"
    write_csv_log(log, path)
    assert read_csv_log(path) == log


def test_csv_roundtrip_keeps_abstraction_columns():
    log = EventLog()
    log.add([Event("x", (("concrete", "a;b"), ("transposed", "true")))])
    buf = io.StringIO()
    write_csv_log(log, buf)
    text = buf.getvalue()
    assert "concrete" in text.splitlines()[0]
    back = read_csv_log(io.StringIO(text))
    (trace, count), = back.variants()
    assert count == 1
    assert trace[0].get("concrete") == "a;b"
    assert trace[0].get("transposed") == "true"


def test_csv_reader_requires_case_and_activity():
    with pytest.raises(ValueError, match="'case' and 'activity'"):
        read_csv_log(io.StringIO("foo,bar\n1,2\n"))


@pytest.mark.parametrize(
    "text, missing",
    [
        ("case,activity\nc1,a\nc1\n", "activity"),
        ("activity,case\na,c1\nb\n", "case"),
        ("case,activity,timestamp\nc1,a,1\nc1,b\n", "timestamp"),
    ],
)
def test_csv_reader_names_the_line_of_a_short_row(text, missing):
    with pytest.raises(ValueError, match=f"CSV line 3: row has no '{missing}' field"):
        read_csv_log(io.StringIO(text))


def test_csv_reader_names_the_line_where_a_short_row_ends():
    # a quoted newline makes the first row two lines long
    with pytest.raises(ValueError, match="CSV line 4: row has no 'activity' field"):
        read_csv_log(io.StringIO('case,activity\nc1,"a\nb"\nc1\n'))


def test_csv_reader_turns_an_oversized_field_into_a_value_error():
    text = "case,activity\nc1,a\nc1," + "a" * 140_000 + "\n"
    with pytest.raises(ValueError, match=r"CSV line 3: field larger than field limit \(131072\)"):
        read_csv_log(io.StringIO(text))


def test_csv_reader_orders_by_timestamp_then_file_order():
    text = (
        "case,activity,timestamp\n"
        "c1,b,2\n"
        "c1,a,1\n"
        "c2,x,\n"
        "c2,y,\n"
    )
    log = read_csv_log(io.StringIO(text))
    assert sorted(log.as_multiset()) == [("a", "b"), ("x", "y")]


def test_csv_reader_sorts_a_nan_timestamp_after_the_numbers():
    text = "case,activity,timestamp\nc1,c,3\nc1,x,nan\nc1,a,1\n"
    assert read_csv_log(io.StringIO(text)).as_multiset() == {("a", "c", "x"): 1}


def test_csv_attr_columns_become_event_attrs():
    text = "case,activity,attr:team\nc1,a,blue\n"
    log = read_csv_log(io.StringIO(text))
    (trace, _), = log.variants()
    assert trace[0].get("team") == "blue"


@given(traces_strategy)
def test_csv_roundtrip_random_logs(seqs):
    log = EventLog(seqs)
    buf = io.StringIO()
    write_csv_log(log, buf)
    buf.seek(0)
    if log.num_traces == 0:
        # a CSV file cannot represent traces without events
        assert read_csv_log(buf).num_traces == 0
    elif any(not t for t in seqs):
        pass  # ditto for the empty trace
    else:
        assert read_csv_log(buf) == log


# ---------------------------------------------------------------------------
# Compact format
# ---------------------------------------------------------------------------

def test_compact_parses_counts_and_whitespace():
    log = read_compact("a,b\nx3 a,b\n\nc\n")
    assert log.as_multiset() == {("a", "b"): 4, ("c",): 1}


def test_compact_roundtrip():
    log = EventLog([("a", "b"), ("a", "b"), ("c",)])
    assert read_compact(format_compact(log)) == log


def test_compact_empty_trace_needs_explicit_count():
    log = EventLog([(), ()])
    text = format_compact(log)
    assert text == "x2 \n"
    assert read_compact(text) == log


fuzz_compact_texts = st.lists(
    st.one_of(
        st.sampled_from(["x", "x2 ", "x0 ", "x-1 ", "a", "tau", ",", " ", "\n", "\r", "\r\n", "\u2028"]),
        st.just("x" + "9" * 5_000 + " "),  # past int()'s digit limit
        st.text(max_size=4),
    ),
    max_size=30,
).map("".join)


@given(fuzz_compact_texts)
@settings(max_examples=100, deadline=None)
def test_compact_reader_raises_only_value_errors_on_fuzzed_text(text):
    try:
        read_compact(text)
    except ValueError:
        pass


def test_compact_counts_empty_traces_and_skips_blank_lines():
    log = read_compact("x3 \n  \n\na\n")
    assert log.as_multiset() == {(): 3, ("a",): 1}


@pytest.mark.parametrize("text, error", [
    ("a,,b\n", "compact line 1: empty activity name"),
    ("a,b,\n", "compact line 1: empty activity name"),
    ("x2 ,\n", "compact line 1: empty activity name"),
    ("a\n\n ,\n", "compact line 3: empty activity name"),  # no empty trace: that is ``xN ``
    ("c\nx2  , a\n", "compact line 2: empty activity name"),
    ("a\nx0 a,b\n", "compact line 2: multiplicity must be >= 1"),
    # only \n, \r\n and \r end a line, as in the CSV reader
    *((f"a,b{c}c\n,\n", "compact line 2: empty activity name")
      for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    ("a\r\nb\r\n,\n", "compact line 3: empty activity name"),
    ("a\r,\n", "compact line 2: empty activity name"),
])
def test_compact_errors_name_the_line(text, error):
    with pytest.raises(ValueError) as exc:
        read_compact(text)
    assert str(exc.value) == error


def test_compact_empty_trace_may_have_trailing_spaces():
    assert read_compact("x2   \na\n").as_multiset() == {(): 2, ("a",): 1}


def test_event_logs_are_unhashable():
    # a value hash on a multiset that ``add`` mutates would lose set members
    with pytest.raises(TypeError):
        hash(EventLog())


@given(traces_strategy)
def test_compact_roundtrip_random_logs(seqs):
    log = EventLog(seqs)
    assert read_compact(format_compact(log)) == log
