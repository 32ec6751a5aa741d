"""The envelope search, ``tools/envelope.py``, with its timing off."""

import importlib.util
from pathlib import Path

from detrec.caps import MAX_WORK

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("envelope", _ROOT / "tools" / "envelope.py")
envelope = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(envelope)

# the ladders whose search takes milliseconds; those of a 2000 x 2000 band
# or of r = 1 price for a second or more
PICKED = ["--family S", "--vars 4", "--r 3", "schur"]


def test_each_size_found_is_the_largest_accepted(capsys):
    assert envelope.main(["--no-time", *PICKED]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == f"MAX_WORK = {MAX_WORK:,}"
    ladders = [ladder for ladder in envelope.LADDERS if any(p in ladder[0] for p in PICKED)]
    assert len(lines) == len(ladders) == 11
    for ladder, line in zip(ladders, lines):
        size, work = envelope.largest(ladder)
        assert line.split() == [*ladder[0].replace("{}", str(size)).split(), "work", f"{work:,}"]
        assert 0 < work <= MAX_WORK, line
        assert envelope._price(ladder, size) == work
        assert envelope._price(ladder, size + 1) is None, line


def test_the_ladders_cover_every_priced_command():
    commands = {" ".join(ladder[0].split()[:2]) for ladder in envelope.LADDERS}
    assert commands == {"compute det", "compute recurrence", "compute schur"}
    families = {ladder[0].split()[3] for ladder in envelope.LADDERS
                if ladder[0].startswith("compute det")}
    assert families == {"E", "S", "C"}
