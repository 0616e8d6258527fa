"""The benchmark's workloads.

Each workload makes its inputs in :meth:`prepare` (the set-up, timed),
lists one pass of ops in the order its seed sets, runs an op through the
program's public functions, and checks the op's output against a
reference written by hand here, never against ``bpa``'s own output at
another size.

The corpus of generated instances is fixed and the seed sets only the
order of the ops.  Over windows of generator seeds, the few instances with
large interleaving classes move the 90th percentile and the throughput by
15 to 30 percent from one window to the next, more than any bound could
hold.  A fixed corpus keeps every run on the same instances, the slow ones
included.
"""
from __future__ import annotations

import csv
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from bpa import logs, model_abstraction, pipeline, trees

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".bench_work"

# ---------------------------------------------------------------------------
# Hand-written references
# ---------------------------------------------------------------------------

#: acceptance criterion 3: the abstracted claims log, per unit multiplicity
CLAIMS_EXPECTED = {
    ("RBP", "RP", "AP"): 1,
    ("RBP", "AB", "AC", "FDD", "FDD", "SC", "AP"): 15,
    ("RBP", "AB", "FDD", "AC", "FDD", "SC", "AP"): 15,
    ("RBP", "AB", "FDD", "FDD", "AC", "SC", "AP"): 15,
}

#: acceptance criterion 3: the abstracted orders log, with no transposition
ORDERS_EXPECTED = {
    ("RQ", "OT", "N", "N", "CT"): 7,
    ("RQ", "DQ"): 2,
}

#: the README's ``bpa discover fixtures/claims_log.txt``
CLAIMS_TREE = (
    "seq(RBP,CBW,NC,xor(seq(and(seq(RFI,BC),seq(loop(PN,tau),loop(CD,tau),"
    "loop(PDD,tau))),SC),RP),AP)"
)


class CheckFailed(Exception):
    """An op's output differs from its reference."""


def read_fixture_log(name: str) -> list[tuple[tuple[str, ...], int]]:
    """Variants of a compact-format fixture log, parsed without ``bpa``."""
    variants = []
    for line in (FIXTURES / f"{name}_log.txt").read_text().splitlines():
        if not line.strip():
            continue
        count = 1
        if line.startswith("x") and " " in line:
            head, line = line.split(" ", 1)
            count = int(head[1:])
        variants.append((tuple(a.strip() for a in line.split(",")), count))
    return variants


def read_fixture_spec(name: str) -> model_abstraction.AggSpec:
    raw = json.loads((FIXTURES / f"{name}_agg.json").read_text())
    w_t = Fraction(raw.pop("w_t"))
    return model_abstraction.make_spec(raw, w_t)


class Workload:
    name = ""
    #: whether the ops run in child processes, whose peak memory counts
    in_children = False

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def run(self, op, tracer=None):
        """Run one op through the program and return its output."""
        raise NotImplementedError

    def check(self, op, output) -> None:
        """Raise :class:`CheckFailed` unless the output matches the reference."""
        raise NotImplementedError

    def size(self, op) -> tuple[int, int]:
        """Input events and instances the op processed."""
        raise NotImplementedError

    def properties(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# log_scale: the fixture logs with every multiplicity scaled, through CSV
# ---------------------------------------------------------------------------

class LogScale(Workload):
    name = "log_scale"
    names = ("claims", "orders")

    def __init__(self, multiplier: int = 1000):
        self.multiplier = multiplier

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        self.dir = WORK / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.specs, self.events, self.variants, self.traces, self.alphabets = {}, {}, {}, {}, {}
        for name in self.names:
            variants = read_fixture_log(name)
            cases = [acts for acts, n in variants for _ in range(n * self.multiplier)]
            rng.shuffle(cases)
            with open(self.dir / f"{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("case", "activity"))
                for i, acts in enumerate(cases):
                    case = f"c{i}"
                    writer.writerows((case, a) for a in acts)
            self.specs[name] = read_fixture_spec(name)
            self.events[name] = sum(len(acts) for acts in cases)
            self.traces[name] = len(cases)
            self.variants[name] = len(variants)
            self.alphabets[name] = len({a for acts, _ in variants for a in acts})

    def ops(self) -> list:
        return [self.names]

    def run(self, op, tracer=None):
        reports = {}
        for name in op:
            log = logs.read_csv_log(self.dir / f"{name}.csv")
            report = pipeline.roundtrip(log, self.specs[name])
            if report.abstract_log is not None:
                logs.write_csv_log(report.abstract_log, self.dir / f"{name}_out.csv")
            reports[name] = report
        return reports

    def size(self, op) -> tuple[int, int]:
        return sum(self.events[n] for n in op), len(op)

    def check(self, op, reports) -> None:
        expected = {"claims": CLAIMS_EXPECTED, "orders": ORDERS_EXPECTED}
        for name, report in reports.items():
            if report.isomorphic is not True:
                raise CheckFailed(f"{name}: {report.failures}")
            want = Counter({t: n * self.multiplier for t, n in expected[name].items()})
            got = Counter(dict(report.abstract_log.activity_variants()))
            if got != want:
                raise CheckFailed(f"{name}: abstracted log differs from criterion 3")
            if name == "orders" and any(
                e.get("transposed") == "true" for t, _ in report.abstract_log.variants() for e in t
            ):
                raise CheckFailed("orders: events were transposed")
            rows = (self.dir / f"{name}_out.csv").read_bytes().count(b"\n") - 1
            if rows != sum(len(t) * n for t, n in want.items()):
                raise CheckFailed(f"{name}: written CSV has {rows} event rows")

    def properties(self) -> dict:
        return {
            "traces": sum(self.traces.values()),
            "variants": sum(self.variants.values()),
            "events": sum(self.events.values()),
            "activities_per_model": sum(self.alphabets.values()) / len(self.alphabets),
        }


# ---------------------------------------------------------------------------
# verify_corpus: verify(1) per generator seed at default GenParams
# ---------------------------------------------------------------------------

class VerifyCorpus(Workload):
    name = "verify_corpus"

    def __init__(self, corpus: int = 100):
        self.corpus = corpus

    def prepare(self, seed: int) -> None:
        self.order = list(range(self.corpus))
        random.Random(seed).shuffle(self.order)
        self.instances: dict[int, pipeline.Instance] = {}
        # first call in the process: fills lazy state before timing, on a
        # generator seed just outside the corpus
        self.check(self.corpus, self.run(self.corpus))
        del self.instances[self.corpus]

    def ops(self) -> list:
        return self.order

    def run(self, seed, tracer=None):
        # the instance is generated inside verify(); a thin wrapper on the
        # generator keeps it, so that its size can be counted after the op
        generate = pipeline.generate_instance

        def kept(params):
            self.instances[seed] = generate(params)
            return self.instances[seed]

        pipeline.generate_instance = kept
        try:
            return pipeline.verify(1, seed=seed)
        finally:
            pipeline.generate_instance = generate

    def size(self, seed) -> tuple[int, int]:
        instance = self.instances.get(seed)
        return (instance.log.num_events if instance else 0), 1

    def check(self, seed, summary) -> None:
        counts = (summary.instances, summary.iso_checks, summary.profile_checks, summary.count_checks)
        if counts != (1, 1, 1, 1) or summary.failures:
            raise CheckFailed(f"seed {seed}: checks {counts}, failures {summary.failures[:1]}")

    def properties(self) -> dict:
        instances = list(self.instances.values())
        return {
            "traces": sum(inst.log.num_traces for inst in instances),
            "variants": sum(len(inst.log.variants()) for inst in instances),
            "events": sum(inst.log.num_events for inst in instances),
            "activities_per_model": sum(len(trees.activities(inst.model)) for inst in instances)
            / max(1, len(instances)),
        }


# ---------------------------------------------------------------------------
# cold_start: fresh interpreters import bpa and run `bpa discover`
# ---------------------------------------------------------------------------

class ColdStart(Workload):
    """Each op runs one child interpreter, one at a time; a pass is a few
    ops, so a run stops soon after its time.  The input is the claims
    fixture, so the seed changes nothing."""

    name = "cold_start"
    in_children = True
    log = "claims"

    def __init__(self, processes: int = 5):
        self.processes = processes

    def prepare(self, seed: int) -> None:
        self.dir = WORK / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.events = sum(len(acts) * n for acts, n in read_fixture_log(self.log))
        self.child_times: list[dict] = []
        # the first child compiles the sources; later ones start warm
        self.check(None, self.run(None))
        self.child_times.clear()

    def ops(self) -> list:
        return list(range(self.processes))

    def run(self, op, tracer=None):
        cmd = [sys.executable]
        if tracer is not None:
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "cold_child.py"), str(ROOT / "src"), f"fixtures/{self.log}_log.txt"]
        spans_file = self.dir / "child_spans.json"
        if tracer is not None:
            cmd.append(str(spans_file))
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        lines = proc.stderr.splitlines()
        if proc.returncode == 0 and lines and lines[-1].startswith("{"):
            times = json.loads(lines[-1])
            if tracer is not None:
                times.update(_import_times(lines))
                child = json.loads(spans_file.read_text())
                tracer.adopt(child["spans"], child["counters"])
            self.child_times.append(times)
        return proc

    def size(self, op) -> tuple[int, int]:
        return self.events, 1

    def check(self, op, proc) -> None:
        if proc.returncode != 0:
            raise CheckFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        if proc.stdout != CLAIMS_TREE + "\n":
            raise CheckFailed(f"discovered {proc.stdout.strip()!r}")

    def properties(self) -> dict:
        variants = read_fixture_log(self.log)
        return {
            "traces": sum(n for _, n in variants),
            "variants": len(variants),
            "events": self.events,
            "activities_per_model": len({a for acts, _ in variants for a in acts}),
        }


def _import_times(stderr_lines: list[str]) -> dict:
    """Cumulative import times of bpa and networkx from ``-X importtime``."""
    out = {}
    for line in stderr_lines:
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in ("bpa", "networkx"):
            out[f"import_{name}_ms"] = int(parts[1]) / 1000
    return out


WORKLOADS = {w.name: w for w in (LogScale, VerifyCorpus, ColdStart)}
