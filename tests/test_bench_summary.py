"""The summary writer over perfbench run records, ``tools/bench_summary.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_SPEC = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_summary)


BETTER = {"ops_per_s": "higher", "peak_rss_mb": "lower"}
BOUNDS = {"ops_per_s": 0.25, "peak_rss_mb": 0.15}


def record(workload, sha, ops_per_s, seed=17, failed=0, trace=0, rss=20.0):
    return {"workload": workload, "seed": seed, "trace": trace, "git_sha": sha,
            "failed": failed, "units": {"ops_per_s": "1/s", "peak_rss_mb": "MB"},
            "metrics": {"ops_per_s": ops_per_s, "peak_rss_mb": rss}}


def test_summary_gives_each_side_its_median_and_quartiles(tmp_path):
    paths = {"parent": [], "change": []}
    for label, sha, values in (("parent", "aaa", [10, 40, 20, 30, 50]),
                               ("change", "bbb", [12, 11, 13, 15, 14])):
        for k, value in enumerate(values):
            path = tmp_path / f"{label}{k}.json"
            path.write_text(json.dumps(record("sweep", sha, value, failed=label == "change")))
            paths[label].append(str(path))
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), "--parent", *paths["parent"],
                               "--change", *paths["change"]]) == 0
    sweep = json.loads(out.read_text())["workloads"]["sweep"]
    assert (sweep["seed"], sweep["pairs"]) == (17, 5)
    assert sweep["parent"]["sha"] == "aaa" and sweep["parent"]["failed"] == 0
    assert sweep["parent"]["metrics"]["ops_per_s"] == {
        "unit": "1/s", "median": 30, "q1": 20, "q3": 40}
    assert sweep["change"]["sha"] == "bbb" and sweep["change"]["failed"] == 5
    assert sweep["change"]["metrics"]["ops_per_s"]["median"] == 13
    assert sweep["change"]["metrics"]["peak_rss_mb"]["q3"] == 20.0
    # pair i is the i-th record named on each side; equal RSS ties every pair
    assert sweep["change_wins"] == {"ops_per_s": 1, "peak_rss_mb": 0}
    # 13 against 30 loses more than a quarter of the parent's median
    assert sweep["verdicts"] == {"ops_per_s": "worse", "peak_rss_mb": "flat"}


def test_summary_counts_the_pairs_the_change_won():
    # the directions are BENCHMARK.json's: more ops per second, less memory
    benchmark = json.loads(bench_summary.BENCHMARK.read_text())
    directions = bench_summary.directions(benchmark)
    assert {name: directions[name] for name in BETTER} == BETTER
    assert {name: bench_summary.bounds(benchmark)[name] for name in BOUNDS} == BOUNDS
    parent = [record("numeric-det", "a", ops, rss=rss)
              for ops, rss in ((100, 20.0), (100, 21.0), (100, 22.0), (100, 23.0))]
    change = [record("numeric-det", "b", ops, rss=rss)
              for ops, rss in ((101, 19.0), (99, 21.0), (100, 22.5), (150, 20.0))]
    summary = bench_summary.summarise(parent, change, directions, BOUNDS)
    assert summary["workloads"]["numeric-det"]["change_wins"] == {"ops_per_s": 2,
                                                                  "peak_rss_mb": 2}
    # and the other way round: the parent's wins, the ties counting for neither
    summary = bench_summary.summarise(change, parent, directions, BOUNDS)
    assert summary["workloads"]["numeric-det"]["change_wins"] == {"ops_per_s": 1,
                                                                  "peak_rss_mb": 1}
    with pytest.raises(ValueError, match="peak_rss_mb: no better direction"):
        bench_summary.summarise(parent, change, {"ops_per_s": "higher"}, BOUNDS)
    with pytest.raises(ValueError, match="peak_rss_mb: no bound"):
        bench_summary.summarise(parent, change, directions, {"ops_per_s": 0.25})


@pytest.mark.parametrize("parent, change, message", [
    ([record("sweep", "a", 1), record("sweep", "a", 2)], [record("sweep", "b", 1)],
     "2 parent and 1 change records"),
    ([record("sweep", "a", 1), record("sweep", "c", 2)],
     [record("sweep", "b", 1), record("sweep", "b", 2)], "SHAs ['a', 'c']"),
    ([record("sweep", "a", 1), record("sweep", "a", 2, seed=5)],
     [record("sweep", "b", 1), record("sweep", "b", 2)], "seeds [5, 17]"),
    ([record("sweep", "a", 1, trace=1)], [record("sweep", "b", 1)], "traced record"),
])
def test_summary_refuses_records_that_do_not_pair(parent, change, message):
    with pytest.raises(ValueError, match=message.replace("[", r"\[")):
        bench_summary.summarise(parent, change, BETTER, BOUNDS)


TIGHT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]  # median 100, q3 - q1 = 1.5
WIDE = [60, 80, 100, 120, 140] * 2  # median 100, q3 - q1 = 40, over a quarter of it


@pytest.mark.parametrize("parent, change, bound, verdict", [
    (TIGHT, [74] * 10, 0.25, "worse"),  # 26% fewer ops: past the bound
    (TIGHT, [76] * 10, 0.25, "flat"),  # 24% fewer: inside it
    (TIGHT, [103] * 10, 0.25, "better"),  # 10/10 pairs, and 3 over q3 - q1
    (TIGHT, [103] * 8 + [90] * 2, 0.25, "flat"),  # 8/10 pairs: not nine tenths
    (TIGHT, [101] * 10, 0.25, "flat"),  # 8/10 pairs, and 1 under q3 - q1
    (WIDE, [130, 70, 110, 90, 100] * 2, 0.25, "unresolved"),
    # a parent spread past the bound, but every change run beats every
    # parent run, by less than q3 - q1
    ([0, 80, 100, 110, 120], [121] * 5, 0.1, "flat"),
])
def test_summary_gives_each_metric_a_verdict(parent, change, bound, verdict):
    parent = [record("sweep", "a", ops) for ops in parent]
    change = [record("sweep", "b", ops) for ops in change]
    summary = bench_summary.summarise(parent, change, BETTER,
                                      {"ops_per_s": bound, "peak_rss_mb": 0.15})
    # equal RSS on both sides ties every pair and reads flat
    assert summary["workloads"]["sweep"]["verdicts"] == {"ops_per_s": verdict,
                                                         "peak_rss_mb": "flat"}
