"""detrec benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

The load is a closed loop: this process is the one client, and it sends the
next op only after the previous one answered.  Ops run in a fresh child
interpreter (``worker.py``) that imports only detrec and the standard
library.  Outputs come back as canonical strings and are checked here,
after the clock stops, against oracles outside detrec's shared core.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a separate traced
run.  Either way a fuller record (git SHA, Python version, nproc, seed, the
sample counts) goes to ``perfbench/out/``, and a readable summary to
stderr.  The exit code is 1 if any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_MS
from workloads import WORKLOADS, round_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: fewest worker start-ups per run; setup_s is their median
SETUPS = 9
#: reference-task runs that gauge the machine's speed after a start-up
SETUP_REFS = 15
#: executions on either side of one whose reference times are pooled
SPEED_WINDOW = 5
#: every op runs at least this often, so its latency is a median of several
MIN_ROUNDS = 2
#: latency ranks, as shares of the round, of the ops around each quantile
BANDS = {"p50": (0.4, 0.6), "p90": (0.8, 1.0)}
#: traced names listed per band, largest self-time share first
PROFILE_NAMES = 8
#: no round starts after this, so a run ends well inside three minutes
HARD_STOP_S = 120.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: metric name -> unit, as BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: the same for the per-layer metrics; each value is per traced round
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: traced statistic -> field of the tracer's per-function aggregate
_FIELDS = {"self_ms": "self_ms", "total_ms": "total_ms", "calls": "calls",
           "quotient_terms": "size", "terms_out": "size", "items": "size"}


class WorkerError(RuntimeError):
    """The worker process died or broke the protocol."""


def hermetic_env() -> dict:
    """The parent's environment without PYTHON* settings or ``DETREC_MAX_N``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "DETREC_MAX_N"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A started ``worker.py``.

    ``wall_setup_s`` is the time until it was ready, and ``setup_s`` the
    same at the reference speed, gauged by the reference task right after.
    """

    def __init__(self, ops: list[dict]):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=hermetic_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.call({"ops": ops})
            self.wall_setup_s = time.perf_counter() - started
            refs = self.call({"cmd": "ref", "n": SETUP_REFS})["ms"]
        except BaseException:
            self.close()
            raise
        self.setup_s = self.wall_setup_s * REFERENCE_MS / statistics.median(refs)

    def call(self, msg: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerError("worker closed its input") from exc
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        for step in (lambda: self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n"),
                     self.proc.stdin.close):
            try:
                step()
            except BrokenPipeError:  # the worker is gone already
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_rounds(worker: Worker, n_ops: int, seconds: float, min_rounds: int,
               after_round=None):
    """Run whole rounds until the next one would end past ``seconds``.

    ``after_round``, if given, is called after each round.  Returns the
    executions ``(op index, reply)`` and each round's wall time.
    """
    executions: list[tuple[int, dict]] = []
    rounds: list[float] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i in range(n_ops):
            executions.append((i, worker.call({"cmd": "op", "i": i})))
        now = time.perf_counter()
        rounds.append(now - round_start)
        if after_round is not None:
            after_round()
        elapsed = time.perf_counter() - started
        if elapsed > HARD_STOP_S:
            break
        if len(rounds) >= min_rounds and elapsed + statistics.mean(rounds) > seconds:
            break
    return executions, rounds


def count_failed(ops: list[dict], executions, oracle) -> int:
    """Ops that raised, returned a wrong answer or reported ``passed: false``."""
    failed = 0
    for i, reply in executions:
        try:
            ok = "error" not in reply and oracle.check(ops[i], reply["out"])
        except (KeyError, TypeError, ValueError):  # malformed output
            ok = False
        failed += not ok
    return failed


def scaled(executions) -> list[tuple[int, float]]:
    """Each execution's time in ms at the reference speed of ``speed.py``.

    An execution's time is divided by the median time of the reference
    task run after it and after its ``SPEED_WINDOW`` neighbours on either
    side, then multiplied by ``REFERENCE_MS``.  That takes the host's speed
    at the moment out of the figure and leaves the program's cost.
    """
    executions = list(executions)
    refs = [reply["ref_ms"] for _, reply in executions]
    return [(i, reply["ms"] * REFERENCE_MS
             / statistics.median(refs[max(0, k - SPEED_WINDOW):k + SPEED_WINDOW + 1]))
            for k, (i, reply) in enumerate(executions)]


def op_latencies(timed) -> dict[int, float]:
    """Each op's median time over its executions ``(op index, ms)``, by index.

    A median, not the fastest: once the host's speed is scaled out, the
    fastest execution is most often one whose reference runs happened to
    be slow, an error of the scaling rather than the op's cost.
    """
    times: dict[int, list[float]] = {}
    for i, ms in timed:
        times.setdefault(i, []).append(ms)
    return {i: statistics.median(ms) for i, ms in times.items()}


def bands(latency: dict[int, float]) -> dict[str, list[int]]:
    """The ops around ``op_p50_ms`` and ``op_p90_ms``, by latency rank.

    A change moves a quantile through the ops near it, so each band holds
    the ops ranked within ten percentage points of its quantile.
    """
    order = sorted(latency, key=latency.get)
    return {q: order[round(lo * len(order)):round(hi * len(order))]
            for q, (lo, hi) in BANDS.items()}


def end_to_end(setups: list[float], latencies: list[float], rss_kib: int) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": rss_kib / 1024,
    }


def per_layer(report: dict, rounds: int, untraced_ms: float, traced_ms: float) -> dict:
    """Per-layer metrics per traced round, from the tracer's aggregates."""
    functions, nested = report["functions"], report["nested_ms"]

    def stat(fn: str, field: str) -> float:
        return functions.get(fn, {}).get(field, 0) / rounds

    def share(outer: str) -> float:
        total = functions.get(outer, {}).get("total_ms", 0)
        return nested[f"{outer}>poly.exact_divide"] / total if total else 0.0

    derived = {
        "detmat.det_bareiss.divide_ms": nested["detmat.det_bareiss>poly.exact_divide"] / rounds,
        "detmat.det_bareiss.divide_share": share("detmat.det_bareiss"),
        "identities.verify_hom_det.divide_share": share("identities.verify_hom_det"),
        "cli.main.stdout_bytes": report["counters"].get("cli.main.stdout_bytes", 0) / rounds,
        "trace.round.untraced_ms": untraced_ms,
        "trace.round.traced_ms": traced_ms,
        "trace.round.overhead_ms": traced_ms - untraced_ms,
        "trace.round.spans": report["spans"] / rounds,
    }
    values = {}
    for name in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        else:
            fn, field = name.rsplit(".", 1)
            values[name] = stat(fn, _FIELDS[field])
    return values


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=False,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(ops: list[dict], seconds: float) -> dict:
    """Untraced run: time whole rounds, and start a spare worker after each.

    The start-ups are spread over the run; ``setup_s`` is the median of at
    least ``SETUPS``.  The record keeps the wall-clock figures beside the
    scaled ones.
    """
    def start_up() -> None:
        with Worker(ops) as spare:
            setups.append(spare)

    with Worker(ops) as worker:
        setups = [worker]
        executions, rounds = run_rounds(worker, len(ops), seconds, MIN_ROUNDS, start_up)
        rss_kib = worker.call({"cmd": "rss"})["kib"]
    while len(setups) < SETUPS:
        start_up()
    latency = op_latencies(scaled(executions))
    wall = op_latencies((i, reply["ms"]) for i, reply in executions)
    latencies = sorted(latency.values())
    p90 = statistics.quantiles(latencies, n=10)[8]
    return {"executions": executions, "round_s": rounds,
            "setups_s": [w.setup_s for w in setups],
            "wall_setups_s": [w.wall_setup_s for w in setups],
            "latency_samples": len(latencies),
            "samples_beyond_p90": sum(1 for x in latencies if x > p90),
            "reference_ms": statistics.median(r["ref_ms"] for _, r in executions),
            "bands": {q: {"ops": [ops[i] for i in band],
                          "ms": [latency[i] for i in band]}
                      for q, band in bands(latency).items()},
            "metrics": end_to_end([w.setup_s for w in setups], latencies, rss_kib),
            "wall_metrics": end_to_end([w.wall_setup_s for w in setups],
                                       sorted(wall.values()), rss_kib),
            "units": END_TO_END}


def trace(ops: list[dict], seconds: float, spans_path: Path) -> dict:
    """Traced run: untraced and traced rounds of the same ops, alternating.

    Alternating rounds meet the same spells of a busy machine, so the
    difference between the two kinds is the tracing overhead.  Besides the
    per-layer metrics it records, for the ops around ``op_p50_ms`` and
    ``op_p90_ms`` untraced, which traced names take the largest shares of
    their self time.
    """
    tracing = False

    def toggle() -> None:
        nonlocal tracing
        tracing = not tracing
        worker.call({"cmd": "trace", "on": tracing})

    with Worker(ops) as worker:
        executions, rounds = run_rounds(worker, len(ops), seconds, 2, toggle)
        report = worker.call({"cmd": "trace_report", "path": str(spans_path)})
    n = len(ops)
    by_round = [executions[k * n:(k + 1) * n] for k in range(len(rounds))]
    traced_rounds = len(rounds) // 2
    untraced = op_latencies(scaled(e for r in by_round[0::2] for e in r))
    profiles = {}
    for q, band in bands(untraced).items():
        self_ms: dict[str, float] = {}
        for i in band:
            for name, ms in report["by_op"][str(i)].items():
                self_ms[name] = self_ms.get(name, 0.0) + ms
        total = sum(self_ms.values())
        shares = sorted(((name, ms / total) for name, ms in self_ms.items()),
                        key=lambda item: -item[1])
        profiles[q] = {"ops": [ops[i] for i in band], "ms": [untraced[i] for i in band],
                       "self_share": dict(shares[:PROFILE_NAMES])}
    # a round's time, each op at its median, without and with tracing
    untraced_ms = sum(untraced.values())
    traced_ms = sum(op_latencies(scaled(e for r in by_round[1::2] for e in r)).values())
    return {"executions": executions, "rounds": len(rounds), "bands": profiles,
            "metrics": per_layer(report, traced_rounds, untraced_ms, traced_ms),
            "units": PER_LAYER, "trace": report, "spans_file": str(spans_path)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "detrec" / "__init__.py").is_file():
        print("error: detrec sources not found under src/detrec", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from oracle import Oracle  # it imports detrec, found only now

    ops = round_ops(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = trace(ops, args.seconds, OUT_DIR / f"{stem}-spans.jsonl")
    else:
        result = measure(ops, args.seconds)
    executions = result.pop("executions")
    attempted = len(executions)
    failed = count_failed(ops, executions, Oracle())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "ops_per_round": len(ops), "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted,
        **result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    units = result["units"]
    wall = result.get("wall_metrics", {})
    for name, value in result["metrics"].items():
        print(f"{name:44s} {value:14.4f} {units[name]}"
              + (f"   wall clock {wall[name]:.4f}" if name in wall else ""), file=sys.stderr)
    print(f"{'ops_failed_frac':44s} {failed / attempted:14.4f} ratio "
          f"({failed} of {attempted} ops failed)", file=sys.stderr)
    if "latency_samples" in result:
        print(f"latency samples: {result['latency_samples']} ops, "
              f"{result['samples_beyond_p90']} beyond op_p90_ms", file=sys.stderr)
    for q, band in result["bands"].items():
        lo, hi = BANDS[q]
        print(f"{len(band['ops'])} ops ranked {lo:.0%}-{hi:.0%} by latency, "
              f"{min(band['ms']):.2f}-{max(band['ms']):.2f} ms", file=sys.stderr)
        for name, share in band.get("self_share", {}).items():
            print(f"  {name:42s} {share:6.1%} of their self time", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
