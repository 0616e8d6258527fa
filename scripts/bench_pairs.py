#!/usr/bin/env python3
"""Run ``benchmark/run.py`` in two checkouts in alternating pairs and write
one ``BENCH_<label>.json``.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --parent DIR --change DIR --label NAME \\
        --what TEXT --run verify_corpus:22-31 --run log_scale:1-3 \\
        --run cold_start:1-3 --traced verify_corpus:11 [--seconds 30]

``--parent`` is a checkout of the parent commit (a ``git worktree`` or a
clone), ``--change`` the checkout holding the change.  Each ``--run
WORKLOAD:SEEDS`` runs one pair per seed (``A-B`` or ``A,B,...``), untraced;
odd seeds run the parent first, even seeds the change.  Each ``--traced
WORKLOAD:SEED`` runs one traced pair, parent first.  Every run reads back the
result file ``benchmark/run.py`` writes to ``.bench_results/`` in its
checkout.

The file goes to ``BENCH_<label>.json`` in the change's checkout, with the
keys ``what``, ``command``, ``machine``, ``runs``, ``parent_commit``,
``note``, ``summary`` and ``results``.  ``parent_commit`` is the ``commit``
of the parent's result records, so neither checkout need be a git one.
The summary gives, per workload and end-to-end metric, each side's
quartiles (``statistics.quantiles(n=4, method='inclusive')``), the ratio of
the medians (``change_over_parent``), in how many pairs the change read
better, by the direction ``BENCHMARK.json`` declares, whether that is a
gain (``gain_rule_met``: at least ten pairs, better in at least 9 of 10,
medians apart by more than the parent's quartile spread; false below ten
pairs) and whether it is a regression beyond the declared ``bound``
(``regression``: ``worse``, ``unresolved`` or ``none``); per traced pair,
both sides' per-layer values.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def spec(text: str) -> tuple[str, list[int]]:
    workload, _, seed_text = text.partition(":")
    if not workload or not seed_text:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, not {text!r}")
    return workload, seeds(seed_text)


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of the benchmark in ``checkout``; returns its result record."""
    subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )
    name = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((checkout / ".bench_results" / f"{name}.json").read_text())


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(pairs: list[tuple[dict, dict]], declared: dict[str, dict]) -> dict:
    """Quartiles, median ratio, pairs won, the gain rule and the regression
    verdict per end-to-end metric, each declared with its ``better``
    direction and ``bound``.  The gain rule is met when at least ten pairs
    ran, the change is better in at least 9 of 10 of them (a tie counts for
    neither side) and its median is better than the parent's by more than
    the parent's q3 - q1.  The regression is ``worse`` when the change's
    median is worse than the parent's by more than ``bound`` times the
    parent's median, else ``unresolved`` when the parent's q3 - q1 exceeds
    ``bound`` times its median and some change run does not beat every
    parent run, else ``none``."""
    out: dict = {}
    for metric, spec in declared.items():
        if metric not in pairs[0][0]["metrics"]:
            continue
        direction, bound = spec["better"], spec["bound"]
        parent = [p["metrics"][metric]["value"] for p, _ in pairs]
        change = [c["metrics"][metric]["value"] for _, c in pairs]
        sign = -1 if direction == "lower" else 1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_side, c_side = quartiles(parent), quartiles(change)
        gap = sign * (c_side["median"] - p_side["median"])
        if -gap > bound * p_side["median"]:
            regression = "worse"
        elif (p_side["q3"] - p_side["q1"] > bound * p_side["median"]
              and min(sign * c for c in change) <= max(sign * p for p in parent)):
            regression = "unresolved"
        else:
            regression = "none"
        out[metric] = {
            "parent": p_side,
            "change": c_side,
            "change_over_parent": (
                round(c_side["median"] / p_side["median"], 3) if p_side["median"] else None
            ),
            "change_better_in_pairs": f"{won}/{len(pairs)}",
            "gain_rule_met": (
                len(pairs) >= 10 and 10 * won >= 9 * len(pairs)
                and gap > p_side["q3"] - p_side["q1"]
            ),
            "regression": regression,
        }
    out["error_rate"] = {
        "parent": [p["details"]["error_rate"] for p, _ in pairs],
        "change": [c["details"]["error_rate"] for _, c in pairs],
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout holding the change")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--what", required=True, help="one line on what the change does")
    parser.add_argument("--note", default="", help="anything else a reader of the runs needs")
    parser.add_argument("--run", type=spec, action="append", default=[], metavar="WORKLOAD:SEEDS")
    parser.add_argument("--traced", type=spec, action="append", default=[], metavar="WORKLOAD:SEED")
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    if not args.run and not args.traced:
        parser.error("give at least one --run or --traced")
    parent, change = args.parent.resolve(), args.change.resolve()

    declared = json.loads((change / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in declared["end_to_end"]}
    results: dict = {"parent": {}, "change": {}}
    summary: dict = {}

    def pair(workload: str, seed: int, trace: int, parent_first: bool) -> tuple[dict, dict]:
        sides = [("parent", parent), ("change", change)]
        records = {}
        for side, checkout in sides if parent_first else sides[::-1]:
            record = run(checkout, workload, seed, args.seconds, trace)
            results[side][f"{workload}-seed{seed}-trace{trace}"] = record
            records[side] = record
            print(f"{side} {workload} seed {seed} trace {trace}: failed {record['failed']}"
                  f"/{record['attempted']}", file=sys.stderr)
        return records["parent"], records["change"]

    for workload, workload_seeds in args.run:
        pairs = [pair(workload, seed, 0, seed % 2 == 1) for seed in workload_seeds]
        summary[workload] = summarize(pairs, end_to_end)
    for workload, traced_seeds in args.traced:
        for seed in traced_seeds:
            p, c = pair(workload, seed, 1, True)
            summary[f"{workload}_traced_seed{seed}"] = {
                name: {"parent": round(p["metrics"][name]["value"], 4),
                       "change": round(c["metrics"][name]["value"], 4)}
                for name in p["metrics"]
            }

    records = [r for side in results.values() for r in side.values()]
    runs = "; ".join(
        [f"{w} seeds {','.join(map(str, s))} in alternating pairs (odd seeds parent first)"
         for w, s in args.run]
        + [f"traced {w} seed {','.join(map(str, s))}, parent first" for w, s in args.traced]
    )
    bench = {
        "what": args.what,
        "command": f"python3 benchmark/run.py --workload W --seed N --seconds {args.seconds:g} --trace T",
        "machine": f"{records[0]['nproc']} CPUs, Python {records[0]['python']}",
        "runs": runs,
        "parent_commit": next(iter(results["parent"].values()))["commit"],
        "note": args.note,
        "summary": summary,
        "results": results,
    }
    out = change / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
