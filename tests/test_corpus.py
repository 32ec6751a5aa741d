"""The recorded output corpus: each frozen command line's stdout, stderr and exit code.

``tests/output_corpus.json`` holds the command lines of the ``cli-enumerate``
benchmark rounds of seeds 17, 23 and 29, ``compute h`` for k <= 12 and
vars <= 6, ``enumerate tilings`` for n <= 15 and r <= 5 (symbolic and
integer) and ``enumerate circular-tilings`` for n = 3..17, both formats,
each with the md5 digests of its output.  ``tools/record_corpus.py``
re-records them when a change means to alter output.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "record_corpus.py"
_SPEC = importlib.util.spec_from_file_location("record_corpus", _PATH)
record_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_corpus)


def test_every_command_line_prints_its_recorded_output():
    records = record_corpus.load()
    assert len(records) == 561
    changed = [" ".join(record["argv"]) for record in records
               if {"argv": record["argv"], **record_corpus.run(record["argv"])} != record]
    assert not changed, f"{len(changed)} command lines changed output, first: {changed[:5]}"
