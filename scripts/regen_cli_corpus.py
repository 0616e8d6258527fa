#!/usr/bin/env python3
"""Rewrite the recorded outputs of the CLI characterization corpus
(tests/cli_corpus/) and print a unified diff of every change.

Usage: PYTHONPATH=src python scripts/regen_cli_corpus.py [CASE ...]

Each case directory holds ``argv.json`` (paths relative to the repository
root, ``{out}`` for the --out directory) and any input files it names.
This script runs every case, or the named ones, through ``bpa.cli.main``
and writes ``stdout.txt``, ``stderr.txt``, ``exit_code.txt`` and ``out/``.
To add a case, create its directory with ``argv.json`` and run this.
"""
import difflib
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from test_cli_corpus import CORPUS, case_names, recorded, run_case


def _lines(data: bytes) -> list[str]:
    return data.decode("utf-8", errors="replace").splitlines(keepends=True)


def main(argv: list[str]) -> int:
    for name in argv or case_names():
        case = CORPUS / name
        old, new = recorded(case), run_case(case)
        for key in sorted(old.keys() | new.keys()):
            path = f"{case.relative_to(ROOT).as_posix()}/{key}"
            sys.stdout.writelines(difflib.unified_diff(
                _lines(old.get(key, b"")), _lines(new.get(key, b"")),
                f"a/{path}", f"b/{path}",
            ))
        shutil.rmtree(case / "out", ignore_errors=True)
        for key, data in new.items():
            (case / key).parent.mkdir(exist_ok=True)
            (case / key).write_bytes(data)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
