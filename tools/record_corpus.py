"""Re-record the digests of the output corpus, ``tests/output_corpus.json``.

    python3 tools/record_corpus.py [CORPUS]

The corpus is a JSON list of records, one per command line: ``argv``, the
arguments after ``detrec``, and the md5 digests of the ``stdout`` and
``stderr`` text that ``detrec.cli.main`` writes for it in process, with its
``exit`` code.  The argv lists are frozen in the file; this script only
runs each one and rewrites its digests and exit code, then prints how many
records changed.  A change that means to alter output re-records the
corpus and names each changed command line.  ``tests/test_corpus.py``
checks the committed digests.  ``CORPUS`` defaults to the file under
``tests`` beside this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "output_corpus.json"


def run(argv: list[str]) -> dict:
    """The stdout and stderr md5 digests and the exit code of ``detrec`` on ``argv``.

    A usage error's line wrapping follows the terminal width, so it is held
    at 80 columns, as it is in a pipe with ``COLUMNS`` unset."""
    from detrec.cli import main

    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"stdout": hashlib.md5(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.md5(err.getvalue().encode()).hexdigest(), "exit": code}


def load(path: Path = CORPUS) -> list[dict]:
    return json.loads(path.read_text())


def dump(records: list[dict], path: Path = CORPUS) -> None:
    """One record a line, so that a re-recording's diff names the command lines it changed."""
    lines = [json.dumps(record) for record in records]
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("corpus", nargs="?", type=Path, default=CORPUS)
    path = parser.parse_args(argv).corpus
    sys.path.insert(0, str(ROOT / "src"))
    records = load(path)
    recorded = [{"argv": record["argv"], **run(record["argv"])} for record in records]
    changed = sum(old != new for old, new in zip(records, recorded))
    dump(recorded, path)
    print(f"{len(recorded)} command lines, {changed} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
