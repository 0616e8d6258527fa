"""``scripts/bench_pairs.py``'s summary of alternating benchmark pairs."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def record(value: float) -> dict:
    return {"metrics": {"events_per_s": {"value": value}}, "details": {"error_rate": 0.0}}


def summary(
    parent: list[float], change: list[float], better: str = "higher", bound: float = 0.25
) -> dict:
    pairs = [(record(p), record(c)) for p, c in zip(parent, change)]
    declared = {"events_per_s": {"better": better, "bound": bound}}
    return bench_pairs.summarize(pairs, declared)["events_per_s"]


PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # q1 102.25, q3 106.75
# median 104.5: the spread is 4.5, a share of 0.043


def test_gain_rule_met_when_nine_pairs_win_by_more_than_the_spread():
    got = summary(PARENT, [p + 10 for p in PARENT[:9]] + [90])
    assert got["change_better_in_pairs"] == "9/10"
    assert got["gain_rule_met"] is True


@pytest.mark.parametrize(
    "change, why",
    [
        ([p + 10 for p in PARENT[:8]] + [90, 90], "better in only 8/10 pairs"),
        ([p + 10 for p in PARENT[:8]] + [108, 109], "two ties count for neither side"),
        ([p + 4 for p in PARENT], "medians 4 apart, the spread is 4.5"),
    ],
)
def test_gain_rule_not_met(change, why):
    assert summary(PARENT, change)["gain_rule_met"] is False, why


def test_gain_rule_needs_ten_pairs():
    # three pairs, each won by 50 against a parent spread of 1
    got = summary([100, 101, 102], [150, 151, 152])
    assert got["change_better_in_pairs"] == "3/3"
    assert got["gain_rule_met"] is False


def test_gain_rule_follows_the_declared_direction():
    faster = [p - 10 for p in PARENT]
    assert summary(PARENT, faster, better="lower")["gain_rule_met"] is True
    assert summary(PARENT, faster, better="higher")["gain_rule_met"] is False
    assert summary(PARENT, faster, better="higher")["change_better_in_pairs"] == "0/10"


@pytest.mark.parametrize(
    "change, better, bound, want",
    [
        ([p - 11 for p in PARENT], "higher", 0.1, "worse"),  # 11 below, the bound 10.45
        ([p - 10 for p in PARENT], "higher", 0.1, "none"),
        ([p + 11 for p in PARENT], "lower", 0.1, "worse"),
        ([p - 11 for p in PARENT], "lower", 0.1, "none"),  # better
        ([p - 1 for p in PARENT], "higher", 0.04, "unresolved"),  # spread 0.043 > 0.04
        ([p + 1 for p in PARENT], "higher", 0.04, "unresolved"),  # better, but overlapping
        ([p + 10 for p in PARENT], "higher", 0.04, "none"),  # every run beats every run
        ([p - 10 for p in PARENT], "lower", 0.04, "none"),
        ([p - 5 for p in PARENT], "higher", 0.04, "worse"),  # 5 below, the bound 4.18
    ],
)
def test_regression_verdict(change, better, bound, want):
    assert summary(PARENT, change, better, bound)["regression"] == want


def test_main_takes_the_parent_commit_from_its_records(tmp_path, monkeypatch):
    # neither checkout is a git one: the commit comes from the parent's runs
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "events_per_s", "better": "higher", "bound": 0.25}]}'
    )
    commits = {parent: "0123abc", change: "unknown"}

    def fake_run(checkout, workload, seed, seconds, trace):
        return {**record(100.0 + seed), "commit": commits[checkout], "failed": 0,
                "attempted": 5, "nproc": 2, "python": "3.11.7"}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    argv = ["--parent", str(parent), "--change", str(change), "--label", "t",
            "--what", "a test", "--run", "log_scale:1-2"]
    assert bench_pairs.main(argv) == 0
    bench = json.loads((change / "BENCH_t.json").read_text())
    assert bench["parent_commit"] == "0123abc"
    assert bench["summary"]["log_scale"]["events_per_s"]["change_better_in_pairs"] == "0/2"
    assert bench["summary"]["log_scale"]["events_per_s"]["regression"] == "none"
