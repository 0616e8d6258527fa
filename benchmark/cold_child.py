"""One cold start of the CLI, run in a fresh interpreter by the cold_start
workload: import ``bpa``, then run ``bpa discover LOG``.

Usage: python3 cold_child.py SRC_DIR LOG [SPANS_OUT]

The discovered tree goes to stdout, as from the ``bpa`` command.  The last
line on stderr is a JSON object with the import and CLI times in seconds.
With SPANS_OUT, the CLI call is traced and its spans are written there.
"""
import json
import sys
from time import perf_counter


def main() -> int:
    src, log = sys.argv[1], sys.argv[2]
    spans_out = sys.argv[3] if len(sys.argv) > 3 else None
    sys.path.insert(0, src)
    start = perf_counter()
    import bpa.cli

    imported = perf_counter()
    tracer = None
    if spans_out is not None:
        from tracing import Tracer  # beside this script, which is on sys.path

        tracer = Tracer()
        tracer.install()
    called = perf_counter()
    argv = ["discover", log]
    code = bpa.cli.main(argv) if tracer is None else tracer.run_op(bpa.cli.main, argv)
    done = perf_counter()
    if tracer is not None:
        tracer.uninstall()
        with open(spans_out, "w") as fh:
            json.dump(
                {"spans": [s.as_dict() for s in tracer.spans], "counters": tracer.counters}, fh
            )
    sys.stdout.flush()
    print(json.dumps({"import_s": imported - start, "cli_s": done - called}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
