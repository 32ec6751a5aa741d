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


def test_summary_counts_the_pairs_the_change_won():
    # the directions are BENCHMARK.json's: more ops per second, less memory
    directions = bench_summary.directions(json.loads(bench_summary.BENCHMARK.read_text()))
    assert {name: directions[name] for name in BETTER} == BETTER
    parent = [record("numeric-det", "a", ops, rss=rss)
              for ops, rss in ((100, 20.0), (100, 21.0), (100, 22.0), (100, 23.0))]
    change = [record("numeric-det", "b", ops, rss=rss)
              for ops, rss in ((101, 19.0), (99, 21.0), (100, 22.5), (150, 20.0))]
    summary = bench_summary.summarise(parent, change, directions)
    assert summary["workloads"]["numeric-det"]["change_wins"] == {"ops_per_s": 2,
                                                                  "peak_rss_mb": 2}
    # and the other way round: the parent's wins, the ties counting for neither
    summary = bench_summary.summarise(change, parent, directions)
    assert summary["workloads"]["numeric-det"]["change_wins"] == {"ops_per_s": 1,
                                                                  "peak_rss_mb": 1}
    with pytest.raises(ValueError, match="peak_rss_mb: no better direction"):
        bench_summary.summarise(parent, change, {"ops_per_s": "higher"})


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
        bench_summary.summarise(parent, change, BETTER)
