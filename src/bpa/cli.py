"""Command-line interface.

Subcommands cover the individual stages (discover, profile, minlog, and
the paper's two techniques: abstract-model runs ``ma_bpa``, abstract-log
the audited ``ea_bpa`` chain) and the end-to-end flows (roundtrip,
verify).  Logs are read from CSV when the file ends in ``.csv`` and from
the compact one-trace-per-line format otherwise; model arguments accept a
file path or a literal tree expression.

Only ``trees``, ``logs`` and ``miner`` are imported here, which is all
``discover`` needs; every other handler imports the modules it runs, so a
subcommand loads only what it uses.

Exit codes: 0 on success, 2 when a gate failed or stage-two matching found
no reference trace (roundtrip may still have produced output), 1 on
everything else.  Handlers raise and ``main`` maps each exception to its
code; ``roundtrip`` maps its report to 2 and 1 itself, and ``discover``
and ``abstract-log`` only warn of a log outside the restricted class.
"""
from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

import bpa

from .logs import (
    EventLog,
    dfg_of_log,
    dfg_to_dot,
    format_compact,
    read_compact_file,
    read_csv_log,
    write_csv_log,
)
from .miner import check_restricted
from .trees import (
    parse_tree,
    render_tree,
    size,
    tree_to_dot,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GATE = 2  # a failed gate, or stage-two matching


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    # the lazy package imports these classes only when an exception gets here
    except bpa.InapplicableError as exc:
        _print_violations(exc.report, "aggregation not applicable")
        return EXIT_GATE
    except bpa.MatchingError as exc:
        print(f"trace matching failed: {exc}", file=sys.stderr)
        return EXIT_GATE
    # parse and class errors are ValueErrors
    except (ValueError, OSError, bpa.LogSizeError, bpa.GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Usage errors exit 1, as every input error does: 2 is the gate's."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


#: help texts of the positional arguments
_POSITIONALS = {
    "log": "event log (.csv or compact format)",
    "model": "process tree (file or literal)",
    "agg": "aggregation spec (JSON file)",
}


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags its handler reads."""
    fmt, tree_fmt, out = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    for p, choices in (fmt, ("text", "dot", "csv")), (tree_fmt, ("text", "dot")):
        p.add_argument("--format", choices=choices, default="text",
                       help="output format (default: text)")
    out.add_argument("--out", metavar="DIR", help="write outputs into DIR instead of stdout")

    parser = _Parser(
        prog="bpa",
        description="Synchronized abstraction of process models and event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, positionals, flags, help_text in (
        ("discover", cmd_discover, ["log"], [tree_fmt, out], "discover a process tree from a log"),
        ("profile", cmd_profile, ["model"], [fmt, out], "behavioral profile of a model"),
        ("minlog", cmd_minlog, ["model"], [fmt, out], "minimal log of a model"),
        ("abstract-model", cmd_abstract_model, ["model", "agg"], [tree_fmt, out], "abstract a model"),
        ("abstract-log", cmd_abstract_log, ["log", "agg"], [fmt, out],
         "abstract a log in sync with its model"),
        ("roundtrip", cmd_roundtrip, ["log", "agg"], [out],
         "abstract model and log, rediscover, compare"),
    ):
        p = sub.add_parser(name, parents=flags, help=help_text)
        for arg in positionals:
            p.add_argument(arg, help=_POSITIONALS[arg])
        p.set_defaults(handler=handler)

    p = sub.add_parser("verify", help="random round trips with invariant checks")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("-n", "--instances", type=int, default=25, help="number of instances")
    p.add_argument(
        "--negative-control", action="store_true",
        help="generate instances outside the supported class (failures expected)",
    )
    p.set_defaults(handler=cmd_verify)

    return parser


# ---------------------------------------------------------------------------
# Shared input/output helpers
# ---------------------------------------------------------------------------

def _read_log(path: str) -> EventLog:
    if Path(path).suffix.lower() == ".csv":
        return read_csv_log(path)
    return read_compact_file(path)


def _read_tree(arg: str):
    try:
        is_file = Path(arg).is_file()
    except OSError:  # a literal too long to be a file name
        is_file = False
    return parse_tree((Path(arg).read_text(encoding="utf-8-sig") if is_file else arg).strip())


def _load_spec(path: str):
    from .model_abstraction import load_agg_spec

    return load_agg_spec(Path(path).read_text(encoding="utf-8-sig"))


def _emit(args, filename: str, text: str) -> None:
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / filename
        target.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
        print(f"wrote {target}", file=sys.stderr)
    else:
        if isinstance(sys.stdout, io.TextIOWrapper):  # UTF-8 whatever the locale
            sys.stdout.reconfigure(encoding="utf-8")
        print(text)


def _log_text(log: EventLog, fmt: str) -> tuple[str, str]:
    """Rendered log plus a file suffix for --out."""
    if fmt == "csv":
        buf = io.StringIO()
        write_csv_log(log, buf)
        return buf.getvalue().rstrip("\n"), "csv"
    if fmt == "dot":
        return dfg_to_dot(dfg_of_log(log)), "dot"
    return format_compact(log), "txt"


def _tree_text(tree, fmt: str) -> tuple[str, str]:
    if fmt == "dot":
        return tree_to_dot(tree), "dot"
    return render_tree(tree), "txt"


def _print_violations(report, label: str) -> None:
    print(f"{label}:", file=sys.stderr)
    for rule, path, msg in report.violations:
        where = f" at {path}" if path else ""
        print(f"  - [{rule}]{where} {msg}", file=sys.stderr)


def _warn_unrestricted(check) -> None:
    if not check.restricted:
        _print_violations(check.report, "warning: log outside the restricted class")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_discover(args) -> int:
    log = _read_log(args.log)
    check = check_restricted(log)
    text, suffix = _tree_text(check.tree, args.format)
    _emit(args, f"model.{suffix}", text)
    audit = check.audit
    print(
        f"cuts: {', '.join(audit.cuts_used) or 'none'}; "
        f"fall-throughs: {', '.join(audit.fallthroughs_used) or 'none'}",
        file=sys.stderr,
    )
    if audit.detected:
        print(f"detected: {', '.join(audit.detected)}", file=sys.stderr)
    _warn_unrestricted(check)
    return EXIT_OK


def cmd_profile(args) -> int:
    from .profiles import behavioral_profile, graph_to_dot, order_relations_graph

    tree = _read_tree(args.model)
    profile = behavioral_profile(tree)
    if args.format == "dot":
        _emit(args, "profile.dot", graph_to_dot(order_relations_graph(profile)))
    elif args.format == "csv":
        _emit(args, "profile.csv", profile.matrix_tsv().replace("\t", ","))
    else:
        _emit(args, "profile.tsv", profile.matrix_tsv())
    return EXIT_OK


def cmd_minlog(args) -> int:
    from .semantics import minimal_log

    tree = _read_tree(args.model)
    log = minimal_log(tree)
    text, suffix = _log_text(log, args.format)
    _emit(args, f"minimal_log.{suffix}", text)
    print(f"{log.num_traces} traces, {log.num_events} events", file=sys.stderr)
    return EXIT_OK


def cmd_abstract_model(args) -> int:
    from .model_abstraction import ma_bpa

    tree = _read_tree(args.model)
    abstracted = ma_bpa(tree, _load_spec(args.agg))
    text, suffix = _tree_text(abstracted, args.format)
    _emit(args, f"abstract_model.{suffix}", text)
    print(f"size {size(tree)} -> {size(abstracted)}", file=sys.stderr)
    return EXIT_OK


def cmd_abstract_log(args) -> int:
    from .event_abstraction import synchronize
    from .model_abstraction import plan

    log = _read_log(args.log)
    spec = _load_spec(args.agg)
    check = check_restricted(log)
    _warn_unrestricted(check)  # before the chain, which may fail
    abstracted = synchronize(log, plan(check.tree, spec))
    text, suffix = _log_text(abstracted, args.format)
    _emit(args, f"abstract_log.{suffix}", text)
    print(
        f"{log.num_traces} traces, {log.num_events} events -> "
        f"{abstracted.num_traces} traces, {abstracted.num_events} events",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    from .pipeline import roundtrip

    report = roundtrip(_read_log(args.log), _load_spec(args.agg))

    check, gate, abstract_model = report.check, report.abstraction.report, report.abstraction.tree
    print(f"discovered model ({size(check.tree)} nodes): {render_tree(check.tree)}")
    print(f"restricted: {'yes' if check.restricted else 'no'}")
    if not check.restricted:
        _print_violations(check.report, "restriction violations")
    print(f"applicable: {'yes' if gate.in_class else 'no'}")
    if not gate.in_class:
        _print_violations(gate, "applicability violations")
        return EXIT_GATE

    assert abstract_model is not None
    print(f"abstracted model ({size(abstract_model)} nodes): {render_tree(abstract_model)}")
    if args.out:
        _emit(args, "model.txt", render_tree(check.tree))
        _emit(args, "abstract_model.txt", render_tree(abstract_model))
    if report.abstract_log is None:
        for line in report.failures:
            print(line, file=sys.stderr)
        return EXIT_GATE

    print(
        f"abstracted log: {report.abstract_log.num_traces} traces, "
        f"{report.abstract_log.num_events} events"
    )
    assert report.rediscovered is not None
    print(f"rediscovered model: {render_tree(report.rediscovered)}")
    print(f"isomorphic: {'yes' if report.isomorphic else 'no'}")
    if args.out:
        _emit(args, "abstract_log.csv", _log_text(report.abstract_log, "csv")[0])
        _emit(args, "rediscovered_model.txt", render_tree(report.rediscovered))
    if not report.isomorphic:
        return EXIT_ERROR
    return EXIT_OK if check.restricted else EXIT_GATE


def cmd_verify(args) -> int:
    from .pipeline import NEGATIVE_CONTROL, GenParams, render_summary, verify

    base = NEGATIVE_CONTROL if args.negative_control else GenParams()
    summary = verify(args.instances, seed=args.seed, base=base)
    print(render_summary(summary))
    return EXIT_OK if summary.ok else EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
