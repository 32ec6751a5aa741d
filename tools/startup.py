"""Time detrec's start-up in child processes, for one or more checkouts side by side.

    python3 tools/startup.py [-n ROUNDS] SRC [SRC ...]

Each ``SRC`` is a checkout's ``src`` directory.  A round runs four commands
once for each ``SRC``, the ``SRC``s in turn, in the order given on even
rounds and reversed on odd ones, so a slow spell of the machine falls on
every checkout alike.  A first round, not counted, writes the checkouts'
bytecode caches.  The commands:

- ``bare``: the interpreter alone;
- ``import detrec``;
- ``worker``: the detrec part of ``perfbench/worker.py``'s import line;
- ``compute fib``: ``python -m detrec compute fib --n 10``.

Every child is ``python -c CODE`` with ``PYTHONPATH=SRC`` and no other
``PYTHON*`` variable.  Its code runs the command and then, in a
``finally``, writes its ``VmHWM`` (peak resident set) to stderr, so
``compute fib`` runs detrec's ``__main__`` through ``runpy``, as
``python -m`` does.  A run's time is its wall time as the parent sees it,
spawning included.  For each ``SRC`` and command the script prints the
median and quartiles, over the rounds, of the run's time minus that
round's bare run of the same ``SRC``, and the median ``VmHWM``; the bare
row gives its own time.  Linux only, as it reads ``/proc/self/status``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

_HWM = ("\nfinally:\n"
        "    import sys\n"
        "    with open('/proc/self/status') as f:\n"
        "        sys.stderr.write(next(line for line in f if line.startswith('VmHWM:')))")

COMMANDS = {
    "bare": "pass",
    "import detrec": "import detrec",
    "worker": "from detrec import cli, detmat, digraph, identities, poly, recurrence, symfunc",
    "compute fib": ("import runpy, sys\n"
                    "sys.argv = ['detrec', 'compute', 'fib', '--n', '10']\n"
                    "runpy.run_module('detrec', run_name='__main__', alter_sys=True)"),
}


def run_once(src: str, code: str) -> tuple[float, float]:
    """The wall time in ms and the ``VmHWM`` in MB of one child running ``code``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = src
    body = "".join(f"    {line}\n" for line in code.splitlines())
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", f"try:\n{body}{_HWM}"], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    ms = (time.perf_counter() - start) * 1000
    line = (proc.stderr.strip().splitlines() or [""])[-1]
    if proc.returncode or not line.startswith("VmHWM:"):
        raise RuntimeError(f"{src}: {code!r} failed:\n{proc.stderr}")
    return ms, int(line.split()[1]) / 1024


def measure(srcs: list[str], rounds: int) -> dict:
    """``{src: {command: [(ms, mb), ...]}}``, one pair per round after the warm-up round."""
    runs = {src: {name: [] for name in COMMANDS} for src in srcs}
    for i in range(-1, rounds):
        for src in (srcs if i % 2 == 0 else srcs[::-1]):
            for name, code in COMMANDS.items():
                sample = run_once(src, code)
                if i >= 0:
                    runs[src][name].append(sample)
    return runs


def summary(runs: dict) -> list[str]:
    """One line per ``SRC`` and command: median and quartiles in ms, and the median ``VmHWM``."""
    lines = [f"{'src':40} {'command':20} {'ms':>7} {'q1':>7} {'q3':>7} {'VmHWM MB':>9}"]
    for src, commands in runs.items():
        bare = [ms for ms, _ in commands["bare"]]
        for name, samples in commands.items():
            times = bare if name == "bare" else [ms - b for (ms, _), b in zip(samples, bare)]
            q1, median, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                              if len(times) > 1 else times * 3)
            label = name if name == "bare" else f"{name} - bare"
            mb = statistics.median(m for _, m in samples)
            lines.append(f"{src:40} {label:20} {median:7.2f} {q1:7.2f} {q3:7.2f} {mb:9.2f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("srcs", nargs="+", metavar="SRC", help="a checkout's src directory")
    parser.add_argument("-n", "--rounds", type=int, default=31, help="rounds (default 31)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    print("\n".join(summary(measure([os.path.abspath(s) for s in args.srcs], args.rounds))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
