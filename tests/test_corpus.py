"""The recorded output corpus: each frozen command line's stdout, stderr and exit code.

``tests/output_corpus.json`` holds the command lines of the ``cli-enumerate``
benchmark rounds of seeds 17, 23 and 29, ``compute h`` for k <= 12 and
vars <= 6, ``enumerate tilings`` for n <= 15 and r <= 5 (symbolic and
integer), ``enumerate circular-tilings`` for n = 3..17, and ``compute det``
and ``enumerate lsds`` for every matrix family (``E`` for n <= 8 and vars
<= 4, ``S`` and ``A`` for n = 3..12, and ``C`` symbolic for r <= 4 and
with three integer lists, ``G`` for r <= 4 and ``F``, each for n <= 12),
all in both formats, and the refusals by the cell, digit, term and size
caps of ``tests/test_cli.py``, each with the md5 digests of its output.  ``tools/record_corpus.py``
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
    assert len(records) == 1376
    changed = [" ".join(record["argv"]) for record in records
               if {"argv": record["argv"], **record_corpus.run(record["argv"])} != record]
    assert not changed, f"{len(changed)} command lines changed output, first: {changed[:5]}"
