"""Summarise perfbench end-to-end records of a parent and a change into one file.

    python3 tools/bench_summary.py --out BENCH_16.json \\
        --parent runs/parent/*.json --change runs/change/*.json

Each file named is a record that ``perfbench/run.py --trace 0`` wrote to
``perfbench/out/<workload>-seed<n>-trace0.json``, copied aside after its
run, since the next run of the same workload and seed overwrites it.  The
records are grouped by workload.  On each side a workload's records must
share one git SHA and one seed, and the two sides must hold as many
records each: the pairs, pair ``i`` being the ``i``-th parent record with
the ``i``-th change record, in the order given.  The summary gives, per
workload and side, the SHA, the seed, the pair count, the ops that failed,
and each end-to-end metric's median and quartiles over the side's runs;
and per workload and metric, in ``change_wins``, the number of pairs whose
change record is better than its parent record, in the direction that
``BENCHMARK.json`` gives the metric (a tie counts for neither side).

Per workload and metric, ``verdicts`` names the first of these that holds,
with the metric's ``bound`` share from ``BENCHMARK.json``:

- ``worse``: the change's median is worse than the parent's by more than
  ``bound`` times the parent's median;
- ``better``: the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's q3 - q1;
- ``unresolved``: the parent's q3 - q1 exceeds ``bound`` times its median,
  and not every change run is better than every parent run;
- ``flat``: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _side(records: list[dict]) -> dict:
    """The SHA, failed ops and per-metric median and quartiles of one side's records."""
    sha = {r["git_sha"] for r in records}
    if len(sha) != 1:
        raise ValueError(f"{records[0]['workload']}: records of one side name SHAs {sorted(sha)}")
    metrics = {}
    for name, unit in records[0]["units"].items():
        q1, median, q3 = statistics.quantiles([r["metrics"][name] for r in records],
                                              n=4, method="inclusive")
        metrics[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3}
    return {"sha": sha.pop(), "failed": sum(r["failed"] for r in records), "metrics": metrics}


def directions(benchmark: dict) -> dict[str, str]:
    """Each end-to-end metric's better direction, ``higher`` or ``lower``."""
    return {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}


def bounds(benchmark: dict) -> dict[str, float]:
    """Each end-to-end metric's ``bound``: the share of the parent's median it may lose."""
    return {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}


def _wins(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict[str, int]:
    """Per metric, the pairs whose change record beats its parent record."""
    wins = {}
    for name in parent[0]["units"]:
        if better.get(name) not in ("higher", "lower"):
            raise ValueError(f"{name}: no better direction in BENCHMARK.json")
        sign = 1 if better[name] == "higher" else -1
        wins[name] = sum(sign * (c["metrics"][name] - p["metrics"][name]) > 0
                         for p, c in zip(parent, change))
    return wins


def _verdicts(parent: list[dict], change: list[dict], sides: dict, wins: dict[str, int],
              better: dict[str, str], bound: dict[str, float]) -> dict[str, str]:
    """Per metric, ``worse``, ``better``, ``unresolved`` or ``flat`` (see the module)."""
    verdicts = {}
    for name, won in wins.items():
        if name not in bound:
            raise ValueError(f"{name}: no bound in BENCHMARK.json")
        sign = 1 if better[name] == "higher" else -1
        base, new = sides["parent"]["metrics"][name], sides["change"]["metrics"][name]
        gain = sign * (new["median"] - base["median"])
        spread = base["q3"] - base["q1"]
        allowed = bound[name] * abs(base["median"])
        if -gain > allowed:
            verdict = "worse"
        elif 10 * won >= 9 * len(parent) and gain > spread:
            verdict = "better"
        elif spread > allowed and (min(sign * r["metrics"][name] for r in change)
                                   <= max(sign * r["metrics"][name] for r in parent)):
            verdict = "unresolved"
        else:
            verdict = "flat"
        verdicts[name] = verdict
    return verdicts


def summarise(parent: list[dict], change: list[dict], better: dict[str, str],
              bound: dict[str, float]) -> dict:
    """The summary of the records of both sides, by workload.

    ``better`` gives each metric's better direction (see ``directions``)
    and ``bound`` its bound share (see ``bounds``).
    """
    by_workload: dict[str, dict[str, list[dict]]] = {}
    for label, records in (("parent", parent), ("change", change)):
        for record in records:
            if record.get("trace") != 0:
                raise ValueError(f"{record['workload']}: a traced record holds no "
                                 "end-to-end metrics")
            sides = by_workload.setdefault(record["workload"], {"parent": [], "change": []})
            sides[label].append(record)
    workloads = {}
    for workload, sides in sorted(by_workload.items()):
        pairs = len(sides["parent"])
        if pairs != len(sides["change"]) or pairs < 2:
            raise ValueError(f"{workload}: {pairs} parent and {len(sides['change'])} change "
                             "records; need as many of each, at least 2")
        seeds = {r["seed"] for r in sides["parent"] + sides["change"]}
        if len(seeds) != 1:
            raise ValueError(f"{workload}: records of seeds {sorted(seeds)}")
        summary = {label: _side(records) for label, records in sides.items()}
        wins = _wins(sides["parent"], sides["change"], better)
        workloads[workload] = {"seed": seeds.pop(), "pairs": pairs, **summary,
                               "change_wins": wins,
                               "verdicts": _verdicts(sides["parent"], sides["change"],
                                                     summary, wins, better, bound)}
    return {"workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        benchmark = json.loads(BENCHMARK.read_text())
        summary = summarise(*([json.loads(path.read_text()) for path in paths]
                              for paths in (args.parent, args.change)),
                            directions(benchmark), bounds(benchmark))
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
