"""Run one benchmark workload of ``bpa`` and print its metrics.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload is set up five times (``setup_s`` is the
median), then whole passes of its ops run until S seconds have passed, with
tracing off; the end-to-end metrics are printed.  With ``--trace 1`` it is
set up once, one pass runs untraced and one traced, and the per-layer
metrics are printed.  Every op's output is checked; an op that raises or
fails its check counts as failed and is never dropped.

Lines before the last describe the run for a reader; the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with the Python version, nproc,
git commit, seed and input properties goes to ``.bench_results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("log_scale", "verify_corpus", "cold_start")

#: name -> unit of every end-to-end metric; each workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "events_per_s": "1/s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: functions whose self time and call count are reported one by one
MODEL_FUNCTIONS = (
    "relation_weights",
    "w_minmax",
    "derive_profile",
    "applicable",
    "modular_decomposition",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update(
        {
            "trace.op_s": "s",
            "trace.unattributed_s": "s",
            "trace.overhead_s": "s",
            "logs.read_s": "s",
            "logs.write_s": "s",
            "logs.traces_per_variant": "ratio",
            "event_abstraction.ea1.self_s": "s",
            "event_abstraction.ea2.self_s": "s",
            "event_abstraction.kendall_distance.calls": "count",
            "event_abstraction.transposed_events": "count",
            "event_abstraction.ea2.max_class_refs": "count",
        }
    )
    for fn in MODEL_FUNCTIONS:
        units[f"model_abstraction.{fn}.self_s"] = "s"
        units[f"model_abstraction.{fn}.calls"] = "count"
    units.update(
        {
            "pipeline.generate_instance.self_s": "s",
            "pipeline.spec_accept_ratio": "ratio",
            "pipeline.roundtrip.self_s": "s",
            "pipeline.verify.self_s": "s",
            "semantics.minimal_log.calls": "count",
            "semantics.minimal_log.traces": "count",
            "semantics.ntl.calls": "count",
            "miner.discover.calls": "count",
            "miner.discover.variants": "count",
            "profiles.behavioral_profile.calls": "count",
            "trees.isomorphic.calls": "count",
            "cli.import_bpa_ms": "ms",
            "cli.import_networkx_ms": "ms",
        }
    )
    return units


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

class Run:
    """Op latencies, input sizes and failures of one run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.events = 0
        self.instances = 0
        self.failures: list[str] = []

    def op(self, workload, op, tracer=None) -> None:
        start = perf_counter()
        error = None
        try:
            if tracer is None:
                output = workload.run(op)
            else:
                output = tracer.run_op(workload.run, op, tracer)
        except Exception as exc:  # every failure is counted, none stops the run
            error = exc
        self.latencies.append(perf_counter() - start)
        if error is None:
            try:
                workload.check(op, output)
            except Exception as exc:
                error = exc
        if error is not None:
            self.failures.append(f"op {op!r}: {type(error).__name__}: {error}")
        events, instances = workload.size(op)
        self.events += events
        self.instances += instances

    def one_pass(self, workload, tracer=None) -> float:
        start = perf_counter()
        for op in workload.ops():
            self.op(workload, op, tracer)
        return perf_counter() - start


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kB on Linux


def end_to_end(workload, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.prepare(seed)
        setups.append(perf_counter() - start)
    run = Run()
    start = perf_counter()
    while True:
        run.one_pass(workload)
        if perf_counter() - start >= seconds:
            break
    lat = run.latencies
    busy = sum(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": _percentile(lat, 90) * 1000,
        "events_per_s": run.events / busy,
        "instances_per_s": run.instances / busy,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    extra = {"setup_samples_s": setups, "ops": len(lat), "busy_s": busy}
    if getattr(workload, "child_times", None):
        extra["import_ms"] = 1000 * statistics.median(t["import_s"] for t in workload.child_times)
        extra["cli_discover_ms"] = 1000 * statistics.median(t["cli_s"] for t in workload.child_times)
    return run, metrics, extra


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def traced(workload, seed: int) -> tuple[Run, dict, dict, list]:
    start = perf_counter()
    workload.prepare(seed)
    setup = perf_counter() - start
    run = Run()
    untraced_wall = run.one_pass(workload)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall = run.one_pass(workload, tracer)
    finally:
        tracer.uninstall()

    selfs, calls, counters = tracer.self_times(), tracer.calls(), tracer.counters
    props = workload.properties()

    def self_s(*names: str) -> float:
        return sum(selfs.get(n, 0.0) for n in names)

    m = {f"{layer}.self_s": sum(v for k, v in selfs.items() if k.startswith(layer + ".")) for layer in LAYERS}
    m.update(
        {
            "trace.op_s": tracer.op_time(),
            "trace.unattributed_s": selfs.get("op", 0.0),
            "trace.overhead_s": traced_wall - untraced_wall,
            "logs.read_s": self_s("logs.read_csv_log", "logs.read_compact", "logs.read_compact_file"),
            "logs.write_s": self_s("logs.write_csv_log", "logs.format_compact"),
            "logs.traces_per_variant": props["traces"] / max(1, props["variants"]),
            "event_abstraction.ea1.self_s": self_s("event_abstraction.ea1"),
            "event_abstraction.ea2.self_s": self_s("event_abstraction.ea2"),
            "event_abstraction.kendall_distance.calls": calls["event_abstraction.kendall_distance"],
            "event_abstraction.transposed_events": counters["event_abstraction.transposed_events"],
            "event_abstraction.ea2.max_class_refs": counters["event_abstraction.ea2.max_class_refs"],
        }
    )
    for fn in MODEL_FUNCTIONS:
        m[f"model_abstraction.{fn}.self_s"] = self_s(f"model_abstraction.{fn}")
        m[f"model_abstraction.{fn}.calls"] = calls[f"model_abstraction.{fn}"]
    in_generate = counters["pipeline.w_minmax_in_generate"]
    child_times = getattr(workload, "child_times", [])

    def import_ms(module: str) -> float:
        samples = [t[f"import_{module}_ms"] for t in child_times if f"import_{module}_ms" in t]
        return statistics.median(samples) if samples else 0.0

    m.update(
        {
            "pipeline.generate_instance.self_s": self_s("pipeline.generate_instance"),
            "pipeline.spec_accept_ratio": counters["pipeline.instances"] / in_generate if in_generate else 0.0,
            "pipeline.roundtrip.self_s": self_s("pipeline.roundtrip"),
            "pipeline.verify.self_s": self_s("pipeline.verify"),
            "semantics.minimal_log.calls": calls["semantics.minimal_log"],
            "semantics.minimal_log.traces": counters["semantics.minimal_log.traces"],
            "semantics.ntl.calls": calls["semantics.ntl"],
            "miner.discover.calls": calls["miner.discover"],
            "miner.discover.variants": counters["miner.discover.variants"],
            "profiles.behavioral_profile.calls": calls["profiles.behavioral_profile"],
            "trees.isomorphic.calls": calls["trees.isomorphic"],
            "cli.import_bpa_ms": import_ms("bpa"),
            "cli.import_networkx_ms": import_ms("networkx"),
        }
    )
    refs = tracer.op_class_refs
    extra = {
        "setup_s": setup,
        "untraced_pass_s": untraced_wall,
        "traced_pass_s": traced_wall,
        "max_class_refs": max(refs, default=0),
        "ops_with_class_refs_ge_100": sum(r >= 100 for r in refs) / max(1, len(refs)),
    }
    return run, m, extra, [s.as_dict() for s in tracer.spans]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bpa" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} holds no bpa sources (src/bpa) and fixtures", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        run, metrics, extra, spans = traced(workload, args.seed)
        units = per_layer_units()
    else:
        run, metrics, extra = end_to_end(workload, args.seed, args.seconds)
        spans = None
        units = END_TO_END
    attempted = len(run.latencies)
    failed = len(run.failures)
    extra["error_rate"] = failed / attempted
    extra["input"] = workload.properties()

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "attempted": attempted,
        "failed": failed,
        "failures": run.failures[:20],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "details": extra,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans is not None:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    shutil.rmtree(workloads.WORK / args.workload, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {attempted} ops, {failed} failed")
    for failure in run.failures[:5]:
        print(f"  failed: {failure}")
    for name, unit in units.items():
        samples = f"  (n={attempted} ops)" if name.startswith("op_p") else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}{samples}")
    print(f"  error_rate = {extra['error_rate']:.6g} ratio")
    for key, value in extra.items():
        if key != "error_rate":
            print(f"  {key}: {value}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
