"""Find the largest command each priced family accepts, and time it from the command line.

    python3 tools/envelope.py [--no-time] [--runs RUNS] [LADDER ...]

A ladder is one priced command with one growing size, written with ``{}``
for it, such as ``compute det --family E --n {} --vars 4``.  For each
ladder the script finds the largest size the command accepts by bisection
on the price alone: it calls the public pricing function that the command
runs before any real work (``symfunc.price_E``, ``detmat.price_S``,
``detmat.price_C``, ``recurrence.price_recurrence`` and
``symfunc.schur_price``), with the caps that command checks besides, and
runs nothing else.  It then prints that size's priced work under
``caps.MAX_WORK`` and, unless ``--no-time``, the median wall time of
``RUNS`` (default 3) ``python -m detrec`` children running the command, its
output written to ``/dev/null``.  ``LADDER`` arguments pick ladders by a
substring of their text; by default every ladder runs.  Standard library
only; the children import ``src`` beside this script.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from detrec import caps, detmat, recurrence, symfunc  # noqa: E402
from detrec.errors import TooLarge  # noqa: E402


def _schur(shape: str, n_vars: int):
    return lambda k: symfunc.schur_price(tuple(int(p.replace("K", str(k))) for p in
                                               shape.split(",")), n_vars)


# (command with {} for the size, the least size, the price of a size); a
# matrix also holds its size to caps.MAX_CELLS, so to 2000 at most
LADDERS = [
    *[(f"compute det --family E --n {{}} --vars {v}", 1, lambda n, v=v: symfunc.price_E(n, v))
      for v in (1, 2, 4, 10)],
    ("compute det --family E --n 2 --vars {}", 1, lambda v: symfunc.price_E(2, v)),
    ("compute det --family S --n {}", 3, detmat.price_S),
    *[(f"compute det --family C --n {{}} --r {r}", 1, lambda n, r=r: detmat.price_C(n, r))
      for r in (1, 2, 3, 6, 10)],
    *[(f"compute recurrence --n {{}} --r {r}", 1, lambda n, r=r: recurrence.price_recurrence(n, r))
      for r in (1, 2, 3, 10)],
    *[(f"compute schur --parts {shape.replace('K', '{}')} --vars {v}", int(low), _schur(shape, v))
      for shape, v, low in (("K,2", 5, 2), ("K,K", 3, 1), ("K,K", 4, 1), ("K,4", 6, 4),
                            ("K,2,2", 8, 2), ("K,5,2,2", 7, 5), ("K,4", 10, 4))],
]


def _price(ladder, size: int):
    """The priced work of the ladder's command at ``size``, or ``None`` when it is refused."""
    command, _, price = ladder
    if command.startswith("compute det") and size * size > caps.MAX_CELLS:
        return None
    try:
        bound = price(size)
    except TooLarge:
        return None
    return bound.price.work if isinstance(bound, caps._Bound) else 0


def largest(ladder) -> tuple[int, int] | None:
    """The largest accepted size of ``ladder`` and its priced work, or ``None`` if none is.

    The size doubles from the least one until a size is refused, then
    bisects between the last accepted size and it.
    """
    low = ladder[1]
    work = _price(ladder, low)
    if work is None:
        return None
    high = low * 2
    while (high_work := _price(ladder, high)) is not None:
        low, work, high = high, high_work, high * 2
    while high - low > 1:
        middle = (low + high) // 2
        middle_work = _price(ladder, middle)
        if middle_work is None:
            high = middle
        else:
            low, work = middle, middle_work
    return low, work


def wall_time(argv: list[str], runs: int) -> float:
    """The median wall time in seconds of ``runs`` ``python -m detrec *argv`` children."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "detrec", *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ladders", nargs="*", metavar="LADDER",
                        help="a substring of the ladders to run (default: all)")
    parser.add_argument("--no-time", action="store_true", help="search only, run no child")
    parser.add_argument("--runs", type=int, default=3, help="children per command (default 3)")
    args = parser.parse_args(argv)
    chosen = [ladder for ladder in LADDERS
              if not args.ladders or any(text in ladder[0] for text in args.ladders)]
    if not chosen:
        parser.error("no ladder matches")
    print(f"MAX_WORK = {caps.MAX_WORK:,}")
    for ladder in chosen:
        found = largest(ladder)
        if found is None:
            print(f"{ladder[0].replace('{}', '?'):48} refused at every size")
            continue
        size, work = found
        command = ladder[0].replace("{}", str(size))
        seconds = "" if args.no_time else f" {wall_time(command.split(), args.runs):7.2f} s"
        print(f"{command:48} work {work:>12,}{seconds}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
