"""Command-line interface: subcommands, formats, --out, and exit codes
(0 ok, 2 gate failure, 1 error)."""
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpa.cli as cli
import bpa.pipeline as pipeline
from bpa import make_spec
from bpa.cli import main
from bpa.logs import format_compact, log_from_sequences
from bpa.miner import check_restricted, discover
from bpa.model_abstraction import dump_agg_spec
from bpa.pipeline import GenParams, generate_instance
from bpa.semantics import minimal_log
from bpa.trees import MAX_TREE_DEPTH, isomorphic, parse_tree
from conftest import CLAIMS_ABSTRACT, CLAIMS_GROUPS, CLAIMS_MODEL, build_claims_log
from test_pipeline import record_calls
from test_trees import nested

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture()
def claims_files(tmp_path):
    log_path = tmp_path / "claims.txt"
    log_path.write_text(format_compact(build_claims_log()))
    agg_path = tmp_path / "claims_agg.json"
    agg_path.write_text(dump_agg_spec(make_spec(CLAIMS_GROUPS, Fraction(1, 2))))
    return str(log_path), str(agg_path)


def test_discover_prints_the_tree(claims_files, capsys):
    log_path, _ = claims_files
    assert main(["discover", log_path]) == 0
    out = capsys.readouterr()
    assert "seq(RBP,CBW,NC," in out.out
    assert "cuts: sequence, choice, sequence, parallel, sequence, sequence" in out.err
    assert "fall-throughs: strict-tau-loop, strict-tau-loop, strict-tau-loop" in out.err
    assert "outside the restricted class" in out.err
    assert "[model-structure]" in out.err


def test_discover_reads_csv_logs(tmp_path, capsys):
    path = tmp_path / "log.csv"
    path.write_text("case,activity\n1,a\n1,b\n2,b\n2,a\n")
    assert main(["discover", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "and(a,b)"


@pytest.mark.parametrize(
    "name, text",
    [("log.csv", "case,activity\n1,a\n1,b\n2,b\n2,a\n"), ("log.txt", "a,b\nb,a\n")],
)
def test_discover_skips_a_byte_order_mark(tmp_path, capsys, name, text):
    # spreadsheet tools start a UTF-8 file with one
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    for folder, prefix in ((plain, ""), (marked, "\ufeff")):
        folder.mkdir()
        (folder / name).write_text(prefix + text, encoding="utf-8")
    assert main(["discover", str(plain / name)]) == 0
    want = capsys.readouterr()
    assert main(["discover", str(marked / name)]) == 0
    got = capsys.readouterr()
    assert got.out == want.out and got.out.strip() == "and(a,b)"
    assert got.err == want.err


def test_model_and_spec_files_may_start_with_a_byte_order_mark(tmp_path, capsys):
    model, agg = tmp_path / "model.txt", tmp_path / "agg.json"
    model.write_text("\ufeff" + CLAIMS_MODEL, encoding="utf-8")
    spec = dump_agg_spec(make_spec(CLAIMS_GROUPS, Fraction(1, 2)))
    agg.write_text("\ufeff" + spec, encoding="utf-8")
    assert main(["abstract-model", str(model), str(agg)]) == 0
    assert capsys.readouterr().out.strip() == CLAIMS_ABSTRACT


def test_discover_dot_output(tmp_path, capsys):
    path = tmp_path / "log.txt"
    path.write_text(format_compact(log_from_sequences([("a", "b")])))
    assert main(["discover", str(path), "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "→" in out  # sequence operator node


def test_discover_reports_the_detectors_of_a_flower(tmp_path, capsys):
    path = tmp_path / "log.txt"
    path.write_text("a,b,c,a\nb,c,a,b\n")
    assert main(["discover", str(path)]) == 0
    out = capsys.readouterr()
    assert out.out == "loop(xor(a,b,c),tau)\n"
    assert "detected: tau-loop, activity-once-per-trace, activity-concurrent\n" in out.err


def test_profile_matrix(capsys):
    assert main(["profile", "seq(a,xor(b,c))"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "\ta\tb\tc"
    assert "a\t+\t->\t->" in out


def test_profile_csv_format(capsys):
    assert main(["profile", "seq(a,b)", "--format", "csv"]) == 0
    assert "a,+,->" in capsys.readouterr().out


def test_profile_dot_format(capsys):
    assert main(["profile", "seq(a,xor(b,c))", "--format", "dot"]) == 0
    assert capsys.readouterr().out == (
        "digraph order_relations {\n"
        '  n0 [label="a", shape=box];\n'
        '  n1 [label="b", shape=box];\n'
        '  n2 [label="c", shape=box];\n'
        "  n0 -> n1;\n"
        "  n0 -> n2;\n"
        "  n1 -> n2;\n"
        "  n2 -> n1;\n"
        "}\n"
    )


def test_minlog_counts_and_output(capsys):
    assert main(["minlog", CLAIMS_ABSTRACT]) == 0
    out = capsys.readouterr()
    assert "4 traces, 24 events" in out.err
    assert "RBP,RP,AP" in out.out


def test_minlog_out_directory(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["minlog", "seq(a,b)", "--out", str(out_dir)]) == 0
    err = capsys.readouterr().err
    assert f"wrote {out_dir / 'minimal_log.txt'}" in err
    assert (out_dir / "minimal_log.txt").read_text() == "a,b\n"


def test_minlog_rejects_oversized_models(capsys):
    wide = "and(" + ",".join(f"a{i}" for i in range(12)) + ")"
    assert main(["minlog", wide]) == 1
    assert "error:" in capsys.readouterr().err


def test_abstract_model(tmp_path, claims_files, capsys):
    _, agg_path = claims_files
    model_path = tmp_path / "model.txt"
    model_path.write_text(
        "seq(RBP,CBW,NC,xor(seq(and(seq(RFI,BC),seq(loop(PN,tau),loop(CD,tau),"
        "loop(PDD,tau))),SC),RP),AP)\n"
    )
    assert main(["abstract-model", str(model_path), agg_path]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == CLAIMS_ABSTRACT
    assert "size 23 -> 13" in out.err


def test_abstract_model_gate_failure(tmp_path, capsys):
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"w_t": "1/2", "X": ["a", "c"]}))
    assert main(["abstract-model", "seq(a,b,c)", str(agg)]) == 2
    err = capsys.readouterr().err
    assert "not applicable" in err
    assert "[aggregation-union]" in err


def test_abstract_log(claims_files, capsys):
    log_path, agg_path = claims_files
    assert main(["abstract-log", log_path, agg_path]) == 0
    out = capsys.readouterr()
    assert "46 traces, 590 events -> 46 traces, 318 events" in out.err
    assert "RBP,AB,AC,FDD,FDD,SC,AP" in out.out


def test_abstract_log_csv_format(claims_files, capsys):
    log_path, agg_path = claims_files
    assert main(["abstract-log", log_path, agg_path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == "case,activity,concrete,transposed"


def test_abstract_log_dot_format(capsys):
    # the directly-follows graph of the abstracted orders log
    assert main(["abstract-log", str(FIXTURES / "orders_log.txt"),
                 str(FIXTURES / "orders_agg.json"), "--format", "dot"]) == 0
    assert capsys.readouterr().out == (
        "digraph dfg {\n"
        "  rankdir=LR;\n"
        '  n0 [label="CT", shape=box];\n'
        '  n1 [label="DQ", shape=box];\n'
        '  n2 [label="N", shape=box];\n'
        '  n3 [label="OT", shape=box];\n'
        '  n4 [label="RQ", shape=box];\n'
        '  n5 [label="▷", shape=doublecircle];\n'
        '  n6 [label="◁", shape=doublecircle];\n'
        "  n0 -> n6;\n"
        "  n1 -> n6;\n"
        "  n2 -> n0;\n"
        "  n2 -> n2;\n"
        "  n3 -> n2;\n"
        "  n4 -> n1;\n"
        "  n4 -> n3;\n"
        "  n5 -> n4;\n"
        "}\n"
    )


def test_abstract_log_gate_failure(tmp_path, capsys):
    log = tmp_path / "log.txt"
    log.write_text("a,b,c\n")
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"w_t": "1/2", "X": ["a", "c"]}))
    assert main(["abstract-log", str(log), str(agg)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    # the audit is printed before the chain runs, so a refused log shows it too
    warning, gate = out.err.split("aggregation not applicable:\n")
    assert warning.startswith("warning: log outside the restricted class:\n")
    assert warning.count("\n  - [model-structure] at ") == 3
    assert gate.startswith("  - [aggregation-union]")


def test_abstract_log_matching_failure(tmp_path, capsys):
    # passes the gate, but the trace <a9> becomes <X1>, which no reference has
    log = tmp_path / "log.txt"
    log.write_text(format_compact(minimal_log(parse_tree("xor(a9,and(a5,a6,a7))"))))
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"w_t": "2/3", "X1": ["a5", "a7", "a9"]}))
    assert main(["abstract-log", str(log), str(agg)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "trace matching failed: no reference trace with activities {X1:1}\n"


def test_abstract_log_runs_one_audited_discovery_and_no_rediscovery(
    monkeypatch, claims_files, capsys
):
    discovered = record_calls(monkeypatch, discover)
    audited = record_calls(monkeypatch, check_restricted)
    compared = record_calls(monkeypatch, isomorphic)
    assert main(["abstract-log", *claims_files]) == 0
    assert (len(discovered), len(audited), compared) == (1, 1, [])


def test_abstract_log_warns_as_discover_does(capsys):
    log, agg = str(FIXTURES / "orders_log.txt"), str(FIXTURES / "orders_agg.json")
    assert main(["discover", log]) == 0
    warning = "warning: " + capsys.readouterr().err.partition("warning: ")[2]
    assert warning.startswith("warning: log outside the restricted class:\n")
    assert warning.count("\n  - [model-structure] at ") == 4
    assert main(["abstract-log", log, agg]) == 0
    out = capsys.readouterr()
    assert out.out == "x7 RQ,OT,N,N,CT\nx2 RQ,DQ\n\n"
    assert out.err == warning + "9 traces, 57 events -> 9 traces, 39 events\n"


def test_abstract_log_of_a_restricted_log_warns_of_nothing(tmp_path, capsys):
    inst = generate_instance(GenParams(seed=0))
    log_path, agg_path = tmp_path / "log.txt", tmp_path / "agg.json"
    log_path.write_text(format_compact(inst.log))
    agg_path.write_text(dump_agg_spec(inst.spec))
    assert main(["abstract-log", str(log_path), str(agg_path)]) == 0
    assert "warning" not in capsys.readouterr().err


def test_verify_generation_error_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "_random_tree", lambda *_: None)
    assert main(["verify", "-n", "2"]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: no viable instance after")
    assert "Traceback" not in out.err + out.out


def test_verify_exits_1_on_a_failed_side_invariant(monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "_counts_match", lambda *_: False)
    assert main(["verify", "-n", "2"]) == 1
    out = capsys.readouterr().out
    assert "2 instances: 2 isomorphic, 2 profile checks, 0 count checks, 2 failures" in out


def test_roundtrip_gate_exit_on_unrestricted_logs(claims_files, capsys):
    log_path, agg_path = claims_files
    # synchronization works, but the log is outside the restricted class:
    # success with a warning exit
    assert main(["roundtrip", log_path, agg_path]) == 2
    out = capsys.readouterr().out
    assert "restricted: no" in out
    assert "applicable: yes" in out
    assert "abstracted log: 46 traces, 318 events" in out
    assert "isomorphic: yes" in out


def test_roundtrip_clean_exit_on_restricted_instances(tmp_path, capsys):
    inst = generate_instance(GenParams(seed=0))
    log_path = tmp_path / "log.txt"
    log_path.write_text(format_compact(inst.log))
    agg_path = tmp_path / "agg.json"
    agg_path.write_text(dump_agg_spec(inst.spec))
    assert main(["roundtrip", str(log_path), str(agg_path)]) == 0
    out = capsys.readouterr().out
    assert "restricted: yes" in out
    assert "isomorphic: yes" in out


def test_roundtrip_out_files(tmp_path, claims_files):
    log_path, agg_path = claims_files
    out_dir = tmp_path / "results"
    assert main(["roundtrip", log_path, agg_path, "--out", str(out_dir)]) == 2
    names = {p.name for p in out_dir.iterdir()}
    assert names == {
        "model.txt", "abstract_model.txt", "abstract_log.csv", "rediscovered_model.txt",
    }
    assert out_dir.joinpath("abstract_model.txt").read_text().strip() == CLAIMS_ABSTRACT


def test_roundtrip_applicability_gate(tmp_path, capsys):
    log_path = tmp_path / "log.txt"
    log_path.write_text("a,b,c\n")
    agg_path = tmp_path / "agg.json"
    agg_path.write_text(json.dumps({"w_t": "1/2", "X": ["a", "c"]}))
    assert main(["roundtrip", str(log_path), str(agg_path)]) == 2
    out = capsys.readouterr()
    assert "applicable: no" in out.out
    assert "[aggregation-union]" in out.err


def test_roundtrip_matching_failure(tmp_path, capsys):
    # the abstract-log case above, through the whole round trip
    log = tmp_path / "log.txt"
    log.write_text(format_compact(minimal_log(parse_tree("xor(a9,and(a5,a6,a7))"))))
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"w_t": "2/3", "X1": ["a5", "a7", "a9"]}))
    assert main(["roundtrip", str(log), str(agg)]) == 2
    out = capsys.readouterr()
    assert "abstracted model (3 nodes): and(X1,a6)" in out.out
    assert "rediscovered" not in out.out
    assert "trace matching failed: no reference trace with activities {X1:1}" in out.err


def test_verify_summary_line(capsys):
    assert main(["verify", "-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "4 instances: 4 isomorphic" in out
    assert "0 failures" in out


@pytest.mark.parametrize("count", ["-3", "-1"])
def test_verify_refuses_a_negative_instance_count(capsys, count):
    assert main(["verify", "-n", count]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error:") and "at least 0" in out.err
    assert out.out == ""


def test_verify_negative_control_fails(capsys):
    assert main(["verify", "-n", "2", "--negative-control"]) == 1
    out = capsys.readouterr().out
    assert "FAIL seed=0:" in out
    assert "2 failures" in out


#: the whole stdout of ``bpa verify -n 5 --seed 3 --negative-control``:
#: every failure stops at the gate, so none is shrunk
VERIFY_NEGATIVE_CONTROL = """\
FAIL seed=3: aggregation not applicable to the discovered model
  model: xor(a7,and(loop(a4,tau),seq(a9,a5,a2,loop(a11,tau),a1,a6)),loop(a10,tau),seq(and(a3,a8),a0))
  agg:   {"w_t": "1/2", "X1": ["a1", "a7"]}
FAIL seed=4: aggregation not applicable to the discovered model
  model: seq(xor(seq(a3,xor(loop(a4,tau),a1,a6),xor(a7,a9)),loop(a0,tau),a5),and(a10,xor(a8,loop(a2,tau)),a11))
  agg:   {"w_t": "1/2", "X1": ["a0", "a1"]}
FAIL seed=5: aggregation not applicable to the discovered model
  model: xor(seq(loop(a9,tau),xor(a4,loop(a5,tau))),a8,a0,seq(a6,and(a3,a1)),loop(a7,tau))
  agg:   {"w_t": "1/2", "X1": ["a3", "a7"]}
FAIL seed=6: aggregation not applicable to the discovered model
  model: xor(a9,a1,a7,a4,a0)
  agg:   {"w_t": "1", "X1": ["a1", "a4"]}
FAIL seed=7: aggregation not applicable to the discovered model
  model: and(a5,loop(a2,tau))
  agg:   {"w_t": "3/4", "X1": ["a2", "a5"]}
5 instances: 0 isomorphic, 0 profile checks, 0 count checks, 5 failures
"""


def test_verify_negative_control_prints_every_failure_in_full(capsys):
    assert main(["verify", "-n", "5", "--seed", "3", "--negative-control"]) == 1
    assert capsys.readouterr().out == VERIFY_NEGATIVE_CONTROL


def test_missing_file_is_an_error(capsys):
    assert main(["discover", "/nonexistent/log.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_tree_literal_is_an_error(capsys):
    assert main(["profile", "seq(a,"]) == 1
    assert "error:" in capsys.readouterr().err


def test_csv_row_without_activity_is_an_error(tmp_path, capsys):
    path = tmp_path / "log.csv"
    path.write_text("case,activity\nc1,a\nc1\n")
    assert main(["discover", str(path)]) == 1
    assert "error: CSV line 3" in capsys.readouterr().err


def test_compact_line_of_commas_is_an_error(tmp_path, capsys):
    path = tmp_path / "log.txt"
    path.write_text("a\n,,,\n")
    assert main(["discover", str(path)]) == 1
    assert capsys.readouterr().err == "error: compact line 2: empty activity name\n"


def test_csv_row_without_timestamp_is_an_error(tmp_path, capsys):
    path = tmp_path / "log.csv"
    path.write_text("case,activity,timestamp\nc1,a,1\nc1,b\n")
    assert main(["discover", str(path)]) == 1
    assert "error: CSV line 3: row has no 'timestamp' field" in capsys.readouterr().err


def test_csv_field_over_the_csv_limit_is_an_error(tmp_path, capsys):
    path = tmp_path / "log.csv"
    path.write_text("case,activity\nc1," + "a" * 140_000 + "\n")
    assert main(["discover", str(path)]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: CSV line 2: field larger than field limit")
    assert "Traceback" not in out.err + out.out


def test_abstracting_an_abstract_log_keeps_each_case_grounded(tmp_path, capsys):
    # a variant is its event sequence: read back, cases whose X events list
    # other concrete activities stay apart, and each keeps its own
    log = tmp_path / "l4.txt"
    log.write_text("a,b,e,f,g\na,c,e,f,g\nx2 a,d,e,f,g\n")
    first, second = tmp_path / "x.json", tmp_path / "y.json"
    first.write_text(json.dumps({"w_t": "1/2", "X": ["b", "c", "d"]}))
    second.write_text(json.dumps({"w_t": "1/2", "Y": ["e", "f", "g"]}))
    out = tmp_path / "o4"
    assert main(["abstract-log", str(log), str(first), "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["abstract-log", str(out / "abstract_log.csv"), str(second), "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["concrete"] for r in rows if r["activity"] == "X"] == ["b", "c", "d", "d"]
    assert [r["concrete"] for r in rows if r["activity"] == "Y"] == ["e;f;g"] * 4


def test_long_tree_literals_are_parsed(capsys):
    literal = f"seq({','.join(f'a{i}' for i in range(80))})"
    assert len(literal) > 300  # longer than a file name may be
    assert main(["minlog", literal]) == 0
    assert "1 traces, 80 events" in capsys.readouterr().err


def test_zero_denominator_threshold_is_an_error(tmp_path, capsys):
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"w_t": "1/0", "X": ["a", "b", "c"]}))
    assert main(["abstract-model", "seq(a,b,c)", str(agg)]) == 1
    assert "error: invalid w_t" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ['{"w_t":"1/2","X":' + "[" * 100_000, "[" * 100_000],
    ids=["nested-group", "bare-brackets"],
)
def test_deeply_nested_spec_is_an_error(tmp_path, capsys, text):
    agg = tmp_path / "agg.json"
    agg.write_text(text)
    assert main(["abstract-model", "seq(a,b)", str(agg)]) == 1
    assert capsys.readouterr().err == "error: aggregation spec nests too deeply\n"


def test_abstract_model_reports_only_real_primitive_modules(tmp_path, capsys):
    # the root is linear ({a6, a9} precedes the rest); only the module
    # below it, whose members' pairs are mixed, is primitive
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"w_t": "1/2", "X1": ["a2", "a5"], "X2": ["a0", "a1"]}))
    model = (
        "xor(a7,seq(and(loop(a6,tau),a9),and(loop(a1,tau),xor(a3,a5)),"
        "and(loop(a0,tau),a8),xor(a4,a2)))"
    )
    assert main(["abstract-model", model, str(agg)]) == 2
    lines = [line for line in capsys.readouterr().err.splitlines() if "[primitive-module]" in line]
    assert lines == ["  - [primitive-module] primitive module over ['X1', 'X2', 'a3', 'a4', 'a8']"]


def test_minlog_accepts_trees_at_the_depth_limit(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text(nested(MAX_TREE_DEPTH))
    assert main(["minlog", str(model)]) == 0
    assert f"{MAX_TREE_DEPTH + 1} traces" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [MAX_TREE_DEPTH + 1, 800])
def test_trees_beyond_the_depth_limit_are_an_error(tmp_path, depth, capsys):
    model = tmp_path / "model.txt"
    model.write_text(nested(depth))
    assert main(["minlog", str(model)]) == 1
    assert "error: operators nested deeper" in capsys.readouterr().err


def deep_log(path, levels: int, tail: tuple[str, ...] = ()) -> str:
    """A log whose discovered tree nests ``2 * levels`` operators: trace k is
    a0..a(k-1),bk, and the last trace runs a0..a(levels), then ``tail``."""
    traces = [[f"a{i}" for i in range(k)] + [f"b{k}"] for k in range(levels)]
    traces.append([f"a{i}" for i in range(levels + 1)] + list(tail))
    path.write_text("".join(",".join(t) + "\n" for t in traces))
    return str(path)


def test_discovery_reaches_the_depth_limit(tmp_path, capsys):
    log = deep_log(tmp_path / "log.txt", MAX_TREE_DEPTH // 2)
    assert main(["discover", log]) == 0
    tree = capsys.readouterr().out.splitlines()[0]
    assert tree.startswith("xor(seq(a0,xor(seq(a1,")
    assert max(accumulate((c == "(") - (c == ")") for c in tree)) == MAX_TREE_DEPTH
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"w_t": "1/2", "X": ["b0", "a0", "b1"]}))
    assert main(["roundtrip", log, str(agg)]) == 2  # the restriction gate
    assert "isomorphic: yes" in capsys.readouterr().out


@pytest.mark.parametrize("levels, tail", [(MAX_TREE_DEPTH // 2, ("a_end", "a_end")), (150, ())])
def test_discovery_beyond_the_depth_limit_is_an_error(tmp_path, levels, tail, capsys):
    # a self-loop under the deepest sequence is one operator level too many;
    # at 150 levels the tree would be 300 deep
    log = deep_log(tmp_path / "log.txt", levels, tail)
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"w_t": "1/2", "X": ["b0", "a0", "b1"]}))
    for command in (["discover", log], ["roundtrip", log, str(agg)]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: discovery nests operators deeper than MAX_TREE_DEPTH")
        assert "Traceback" not in err


@pytest.mark.parametrize("keyword", ["tau", "seq", "loop"])
@pytest.mark.parametrize("suffix", ["txt", "csv"])
def test_discover_refuses_tree_keywords_as_activities(tmp_path, capsys, keyword, suffix):
    # as a leaf, 'tau' would become a silent step and an operator name a node
    path = tmp_path / f"log.{suffix}"
    if suffix == "csv":
        path.write_text(f"case,activity\n1,a\n1,{keyword}\n1,b\n2,a\n2,b\n")
    else:
        path.write_text(f"a,{keyword},b\na,b\n")
    assert main(["discover", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: activity '{keyword}' is a tree keyword")


@pytest.mark.parametrize("name", ["tau", "seq", "loop", "X-1"])
def test_abstract_model_refuses_invalid_group_names(tmp_path, capsys, name):
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"w_t": "1/2", name: ["b", "c", "d"]}))
    assert main(["abstract-model", "seq(a,and(b,c,d),e)", str(agg)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: aggregation group name '{name}' is not a valid activity name")


@pytest.mark.parametrize(
    "w_t, named", [(None, "null"), (True, "true"), ("nan", "nan"), ("abc", "abc")]
)
def test_abstract_model_names_a_threshold_that_is_not_a_fraction(tmp_path, capsys, w_t, named):
    agg = tmp_path / "agg.json"
    agg.write_text(json.dumps({"w_t": w_t, "X": ["b", "c", "d"]}))
    assert main(["abstract-model", "seq(a,and(b,c,d),e)", str(agg)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: invalid w_t '{named}': not a rational number\n"


#: the flags each subcommand reads; every other flag is a usage error
FLAGS_READ = {
    "discover": {"--format", "--out"},
    "profile": {"--format", "--out"},
    "minlog": {"--format", "--out"},
    "abstract-model": {"--format", "--out"},
    "abstract-log": {"--format", "--out"},
    "roundtrip": {"--out"},
    "verify": {"--seed"},
}
#: ``--attrs`` is read by none: a variant is always its event sequence
FLAG_VALUES = {"--format": ["csv"], "--out": ["out"], "--attrs": [], "--seed": ["1"]}
#: the subcommands whose output is a tree, which has no csv form
TREE_OUTPUTS = ["discover", "abstract-model"]
POSITIONALS = {
    "discover": ["log.txt"], "profile": ["seq(a,b)"], "minlog": ["seq(a,b)"],
    "abstract-model": ["seq(a,b)", "agg.json"], "abstract-log": ["log.txt", "agg.json"],
    "roundtrip": ["log.txt", "agg.json"], "verify": [],
}


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, read in FLAGS_READ.items() for f in FLAG_VALUES if f not in read],
)
def test_subcommands_refuse_flags_they_do_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *POSITIONALS[command], flag, *FLAG_VALUES[flag]])
    assert exc.value.code == 1  # a usage error; 2 is the gate's code
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", TREE_OUTPUTS)
def test_tree_outputs_refuse_csv(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *POSITIONALS[command], "--format", "csv"])
    assert exc.value.code == 1
    assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["abstract-log", "log.txt"], ["discover"], []])
def test_missing_positionals_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "the following arguments are required" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "usage: bpa verify" in capsys.readouterr().out


def subprocess_env(**extra: str) -> dict[str, str]:
    """The environment of a child interpreter that imports this checkout's bpa."""
    paths = [str(Path(pipeline.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **extra}


@pytest.mark.parametrize("module", ["bpa", "bpa.cli"])
def test_python_m_runs_the_cli(module):
    def run(*argv):
        argv = [sys.executable, "-m", module, *argv]
        return subprocess.run(argv, env=subprocess_env(), capture_output=True, text=True)

    ok = run("minlog", "seq(a,b)")
    assert ok.returncode == 0
    assert ok.stdout.splitlines()[0] == "a,b"
    assert run("minlog", "seq(a,b)", "--bogus").returncode == 1


@pytest.mark.parametrize("to_files", [True, False], ids=["out", "stdout"])
def test_out_files_are_utf8_whatever_the_locale(tmp_path, to_files):
    # the dot output labels edges with an arrow, which ASCII cannot encode
    env = subprocess_env(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    log = Path(__file__).parents[1] / "fixtures" / "claims_log.txt"
    argv = [sys.executable, "-m", "bpa", "discover", str(log), "--format", "dot"]
    done = subprocess.run(argv + ["--out", str(tmp_path)] * to_files, env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    out = (tmp_path / "model.dot").read_bytes() if to_files else done.stdout
    assert "\u2192" in out.decode("utf-8")


def test_the_cli_runs_without_networkx():
    # networkx is only a test dependency, the oracle for cuts, components
    # and cliques: importing bpa and running its commands must not load it
    script = (
        "import sys, bpa, bpa.cli\n"
        "assert bpa.cli.main(['discover', 'fixtures/claims_log.txt']) == 0\n"
        "assert bpa.cli.main(['abstract-log', 'fixtures/orders_log.txt', 'fixtures/orders_agg.json']) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'networkx'))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=FIXTURES.parent,
                          env=subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


#: the package modules a cold ``bpa discover`` loads
DISCOVER_MODULES = ["bpa", "bpa.cli", "bpa.logs", "bpa.miner", "bpa.trees"]


def test_discover_loads_only_the_modules_it_runs():
    # `import bpa` is lazy and each handler imports what it runs; random and
    # pathlib are not checked, since site may load them before bpa
    unused = ["bpa.model_abstraction", "bpa.pipeline", "bpa.event_abstraction", "bpa.profiles",
              "bpa.semantics", "fractions", "decimal", "logging", "dataclasses", "inspect", "csv"]
    script = (
        "import sys, bpa, bpa.cli\n"
        "assert bpa.cli.main(['discover', 'fixtures/claims_log.txt']) == 0\n"
        f"print(sorted(m for m in {unused!r} if m in sys.modules))\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'bpa'))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=FIXTURES.parent,
                          env=subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[]", str(DISCOVER_MODULES)]


#: one run of each subcommand besides ``discover`` on the fixtures, and its
#: exit code: the orders log round-trips, but its discovered model is not restricted
SUBCOMMAND_RUNS = {
    "profile": (["profile", "fixtures/claims_model.txt"], 0),
    "minlog": (["minlog", "fixtures/claims_model.txt"], 0),
    "abstract-model": (["abstract-model", "fixtures/orders_model.txt", "fixtures/orders_agg.json"], 0),
    "abstract-log": (["abstract-log", "fixtures/orders_log.txt", "fixtures/orders_agg.json"], 0),
    "roundtrip": (["roundtrip", "fixtures/orders_log.txt", "fixtures/orders_agg.json"], 2),
    "verify": (["verify", "-n", "1"], 0),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_RUNS))
def test_no_subcommand_loads_dataclasses(command):
    # every record is a tuple record or a SimpleNamespace, so no run pays
    # for dataclasses and the inspect module it loads; and logging loads
    # only when a weighing diagnostic fires, which no run here provokes
    argv, code = SUBCOMMAND_RUNS[command]
    script = (
        "import sys, bpa.cli\n"
        f"assert bpa.cli.main({argv!r}) == {code}\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'logging') if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=FIXTURES.parent,
                          env=subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_logging_loads_when_a_weighing_diagnostic_fires():
    # pytest itself imports logging, so only a fresh interpreter shows
    # that the warning, not the import of the library, loads it
    script = (
        "import sys, bpa.pipeline\n"
        "print('logging' in sys.modules)\n"
        "from fractions import Fraction\n"
        "from bpa import behavioral_profile, derive_profile, make_spec, parse_tree\n"
        "spec = make_spec({'B': ['b1', 'b2'], 'a': ['a']}, Fraction(2, 3))\n"
        "derive_profile(behavioral_profile(parse_tree('and(seq(a,b2),b1)')), spec)\n"
        "print('logging' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False", "True"]
    assert "w_t=2/3 exceeds w_minmax=1/2; the default branch may fire" in done.stderr.splitlines()


#: a statement that raises in a handler, the exit code ``main`` maps it to
#: (None: it propagates) and the stderr it prints
HANDLER_ERRORS = {
    "InapplicableError": (
        "from bpa.model_abstraction import InapplicableError as E; from bpa.trees import ClassReport;"
        " raise E(ClassReport.from_violations([('aggregation-union', '', 'too few')]))",
        2, "aggregation not applicable:\n  - [aggregation-union] too few\n",
    ),
    "MatchingError": (
        "from bpa.event_abstraction import MatchingError as E; raise E('no reference trace')",
        2, "trace matching failed: no reference trace\n",
    ),
    "LogSizeError": (
        "from bpa.semantics import LogSizeError as E; raise E('too many traces')",
        1, "error: too many traces\n",
    ),
    "GenerationError": (
        "from bpa.pipeline import GenerationError as E; raise E('no viable instance')",
        1, "error: no viable instance\n",
    ),
    "ValueError": ("raise ValueError('bad input')", 1, "error: bad input\n"),
    "OSError": ("raise OSError('no such file')", 1, "error: no such file\n"),
    "RuntimeError": ("raise RuntimeError('a bug')", None, None),
}


@pytest.mark.parametrize("error", sorted(HANDLER_ERRORS))
def test_main_maps_handler_errors_to_exit_codes(monkeypatch, capsys, error):
    statement, code, err = HANDLER_ERRORS[error]
    monkeypatch.setattr(cli, "cmd_discover", lambda args: exec(statement))
    if code is None:
        with pytest.raises(RuntimeError, match="a bug"):
            main(["discover", "log.txt"])
        return
    assert main(["discover", "log.txt"]) == code
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", err)


@pytest.mark.parametrize("error", sorted(HANDLER_ERRORS))
def test_main_maps_handler_errors_in_a_fresh_interpreter(error):
    # only discover's modules are loaded when the handler runs: main imports
    # the exception classes it names only once an error reaches it
    statement, code, err = HANDLER_ERRORS[error]
    script = (
        "import sys, bpa.cli\n"
        f"assert sorted(m for m in sys.modules if m.partition('.')[0] == 'bpa') == {DISCOVER_MODULES!r}\n"
        f"bpa.cli.cmd_discover = lambda args: exec({statement!r})\n"
        "sys.exit(bpa.cli.main(['discover', 'log.txt']))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=FIXTURES.parent,
                          env=subprocess_env(), capture_output=True, text=True)
    if code is None:
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1] == "RuntimeError: a bug"
    else:
        assert (done.returncode, done.stderr) == (code, err)


@pytest.mark.parametrize("command", sorted(FLAGS_READ))
def test_subcommands_accept_the_flags_they_read(tmp_path, claims_files, capsys, command):
    log_path, agg_path = claims_files
    positionals = {
        "discover": [log_path], "profile": [CLAIMS_ABSTRACT], "minlog": [CLAIMS_ABSTRACT],
        "abstract-model": [CLAIMS_MODEL, agg_path], "abstract-log": [log_path, agg_path],
        "roundtrip": [log_path, agg_path], "verify": ["-n", "1"],
    }[command]
    out_dir = tmp_path / "out"
    values = {**FLAG_VALUES, "--out": [str(out_dir)]}
    if command in TREE_OUTPUTS:
        values["--format"] = ["dot"]
    flags = [item for f in sorted(FLAGS_READ[command]) for item in (f, *values[f])]
    assert main([command, *positionals, *flags]) in (0, 2)  # roundtrip: the restriction gate
    assert "error" not in capsys.readouterr().err
    if "--out" in FLAGS_READ[command]:
        assert any(out_dir.iterdir())


# ---------------------------------------------------------------------------
# Fuzzed logs end in an exit code
# ---------------------------------------------------------------------------

fuzz_names = st.sampled_from(["a", "b", "c", "d", "e", "tau", "x y", "é", "", " ", '"', "\r"])
fuzz_compact = st.lists(
    st.tuples(st.sampled_from(["", "", "x2 ", "x0 ", "x", "x3"]), st.lists(fuzz_names, max_size=7)),
    max_size=8,
).map(lambda lines: "\n".join(prefix + ",".join(acts) for prefix, acts in lines))
fuzz_csv = st.tuples(
    st.sampled_from(["case,activity\n", "case,activity,timestamp,attr:r\n", "activity,case\n", ""]),
    st.lists(
        st.tuples(
            st.sampled_from(["1", "2", "3", ""]),
            fuzz_names,
            st.sampled_from(["", "1", "2", "nan", "t"]),
            st.sampled_from(["", "p", "q"]),
            st.integers(0, 4),  # how many fields the row keeps
        ),
        max_size=16,
    ),
).map(lambda p: p[0] + "".join(",".join(row[:4][: row[4]]) + "\n" for row in p[1]))
fuzz_text = st.text(st.characters(), max_size=40)  # surrogates: bytes that are not UTF-8
fuzz_specs = st.fixed_dictionaries(
    {"w_t": st.sampled_from(["1/2", "1", "0", "2/3", 1])},
    optional={
        "X": st.lists(fuzz_names, min_size=1, max_size=3),
        "Y": st.lists(st.sampled_from(["c", "d", "e"]), min_size=2, max_size=3),
    },
)


@given(
    st.one_of(
        st.tuples(st.just("log.txt"), st.one_of(fuzz_compact, fuzz_text)),
        st.tuples(st.just("log.csv"), st.one_of(fuzz_csv, fuzz_text)),
    ),
    fuzz_specs,
)
@settings(max_examples=100, deadline=None)
def test_fuzzed_logs_end_in_an_exit_code(named_text, spec):
    name, text = named_text
    with tempfile.TemporaryDirectory() as tmp:
        log, agg = Path(tmp, name), Path(tmp, "agg.json")
        log.write_bytes(text.encode("utf-8", "surrogatepass"))
        agg.write_text(json.dumps(spec))
        for argv in (["discover", str(log)], ["abstract-log", str(log), str(agg)]):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                assert main(argv) in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
