"""Characterization corpus of the CLI: each case under ``tests/cli_corpus/``
runs through ``main`` in-process, from the repository root, and must
reproduce its recorded stdout, stderr, exit code and ``--out`` files byte
for byte.  ``scripts/regen_cli_corpus.py`` rewrites the recordings."""
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from bpa.cli import main

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "cli_corpus"
#: stands for the ``--out`` directory in argv.json and in the recordings
OUT = "{out}"


def case_names() -> list[str]:
    return sorted(p.name for p in CORPUS.iterdir() if (p / "argv.json").is_file())


def run_case(case: Path) -> dict[str, bytes]:
    """The outputs of one case, keyed by the name they are recorded under."""
    argv = json.loads((case / "argv.json").read_text(encoding="utf-8"))
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    # argparse wraps usage lines to the terminal width
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        out_dir = Path(tmp) / "out"
        os.chdir(ROOT)
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = main([arg.replace(OUT, str(out_dir)) for arg in argv])
                except SystemExit as exc:  # usage errors
                    code = exc.code
        finally:
            os.chdir(cwd)
        result = {
            "stdout.txt": stdout.getvalue().replace(str(out_dir), OUT).encode(),
            "stderr.txt": stderr.getvalue().replace(str(out_dir), OUT).encode(),
            "exit_code.txt": f"{code}\n".encode(),
        }
        result.update((f"out/{f.name}", f.read_bytes()) for f in sorted(out_dir.glob("*")))
    return result


def recorded(case: Path) -> dict[str, bytes]:
    files = [case / "stdout.txt", case / "stderr.txt", case / "exit_code.txt"]
    files += sorted(case.glob("out/*"))
    return {f.relative_to(case).as_posix(): f.read_bytes() for f in files if f.is_file()}


@pytest.mark.parametrize("name", case_names())
def test_cli_output_matches_the_corpus(name):
    case = CORPUS / name
    assert run_case(case) == recorded(case)
