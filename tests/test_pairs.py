"""The alternating-pairs protocol in ``benchmarks/pairs.py``.

Its summary is what a perf claim rests on, so each field is checked
here against hand-built run records, and one run is driven through a
stand-in ``perfbench/run.py`` to check what a run record captures.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
_spec = importlib.util.spec_from_file_location("pairs",
                                               BENCHMARKS / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = pairs
_spec.loader.exec_module(pairs)

SPEC = [{"name": "pause_ms", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


def _run(side, seed, pause, ops, workload="w", failed=0):
    return {"workload": workload, "seed": seed, "side": side,
            "attempted": 100, "failed": failed, "correct": not failed,
            "metrics": {"pause_ms": pause, "ops_per_s": ops}}


def _runs(parent, change, **kwargs):
    """Records for seeds 1.. from per-seed ``(pause, ops)`` pairs."""
    return [_run(side, seed, *values, **kwargs)
            for side, series in (("parent", parent), ("change", change))
            for seed, values in enumerate(series, 1)]


def test_parse_seeds_and_order():
    assert pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert pairs.parse_seeds("5") == [5]
    assert pairs.order_for(1) == ("parent", "change")
    assert pairs.order_for(2) == ("change", "parent")


def test_quartiles_use_the_inclusive_method():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == \
        {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == \
        {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}
    assert pairs.quartiles([7.0]) == \
        {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_a_clear_gain():
    parent = [(10.0, 100.0), (11.0, 110.0), (12.0, 120.0), (13.0, 130.0),
              (14.0, 140.0)]
    change = [(2.0, 150.0), (3.0, 160.0), (2.5, 100.0), (3.5, 170.0),
              (13.0, 180.0)]
    summary = pairs.summarize(_runs(parent, change), SPEC)["w"]
    assert summary["seeds"] == [1, 2, 3, 4, 5]
    assert summary["failed_ops"] == {"parent": 0, "change": 0}
    assert summary["attempted_ops"] == {"parent": 500, "change": 500}
    assert summary["correct"] is True
    pause = summary["metrics"]["pause_ms"]
    assert pause["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0,
                               "n": 5}
    assert pause["change"] == {"median": 3.0, "q1": 2.5, "q3": 3.5,
                               "n": 5}
    assert pause["change_wins"] == "5/5"
    assert pause["change_worse_by"] == -0.75
    assert pause["bound"] == 0.25 and pause["within_bound"] is True
    assert pause["beyond_parent_iqr"] is True     # |3 - 12| > 13 - 11
    # the change's IQR (1.0) is the narrower: 2.0 / 12
    assert pause["wider_iqr_over_parent_median"] == 0.167
    assert pause["unresolved"] is False
    ops = summary["metrics"]["ops_per_s"]
    # higher is better: seed 3 reads lower at the change, a loss
    assert ops["change_wins"] == "4/5"
    assert ops["change_worse_by"] == round((120 - 160) / 120, 4)
    assert ops["beyond_parent_iqr"] is True       # 40 > 130 - 110


def test_regression_beyond_bound_and_unresolved_spread():
    parent = [(10.0, 100.0)] * 4
    change = [(11.0, 60.0), (13.0, 70.0), (14.0, 80.0), (20.0, 90.0)]
    metrics = pairs.summarize(_runs(parent, change), SPEC)["w"]["metrics"]
    pause = metrics["pause_ms"]
    assert pause["change_wins"] == "0/4"
    assert pause["change_worse_by"] == 0.35       # median 13.5 vs 10
    assert pause["within_bound"] is False
    assert pause["beyond_parent_iqr"] is True     # parent IQR is 0
    # change IQR 15.5 - 12.5 = 3.0 over the parent median 10
    assert pause["wider_iqr_over_parent_median"] == 0.3
    assert pause["unresolved"] is True
    ops = metrics["ops_per_s"]
    assert ops["change_worse_by"] == 0.25         # median 75 vs 100
    assert ops["within_bound"] is True            # the bound is inclusive


def test_ties_win_nothing_and_failures_are_counted():
    runs = _runs([(5.0, 50.0)] * 3, [(5.0, 50.0)] * 3)
    runs[-1]["failed"], runs[-1]["correct"] = 2, False
    summary = pairs.summarize(runs, SPEC)["w"]
    assert summary["failed_ops"] == {"parent": 0, "change": 2}
    assert summary["correct"] is False
    pause = summary["metrics"]["pause_ms"]
    assert pause["change_wins"] == "0/3"
    assert pause["change_worse_by"] == 0.0
    assert pause["beyond_parent_iqr"] is False
    assert pause["unresolved"] is False


def test_workloads_are_summarized_apart_and_unpaired_seeds_not_won():
    runs = _runs([(10.0, 10.0)], [(5.0, 20.0)], workload="a") + \
        _runs([(1.0, 1.0)] * 2, [(2.0, 1.0)], workload="b")
    summary = pairs.summarize(runs, SPEC)
    assert list(summary) == ["a", "b"]
    assert summary["a"]["metrics"]["pause_ms"]["change_wins"] == "1/1"
    b_pause = summary["b"]["metrics"]["pause_ms"]
    assert b_pause["change_wins"] == "0/1"        # seed 2 has no change
    assert b_pause["parent"]["n"] == 2 and b_pause["change"]["n"] == 1


def test_run_once_records_the_last_json_line(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import json, sys\n"
        "print('pause_ms 1.5 ms')\n"
        "print(json.dumps({'correct': True, 'attempted': 9, 'failed': 0,"
        " 'metrics': {'pause_ms': {'value': 1.5, 'unit': 'ms'},"
        " 'argv': {'value': len(sys.argv), 'unit': 'count'}}}))\n")
    record = pairs.run_once(str(tmp_path), "w", 3, 0.5)
    assert record["workload"] == "w" and record["seed"] == 3
    assert record["metrics"] == {"pause_ms": 1.5, "argv": 9}
    assert (record["attempted"], record["failed"], record["correct"]) == \
        (9, 0, True)
    assert record["wall_s"] >= 0 and record["cpu_s"] >= 0
    json.dumps(record)


def test_run_once_records_a_crash(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import sys\nsys.exit('no src/repro here')\n")
    record = pairs.run_once(str(tmp_path), "w", 1, 0.5)
    assert record["correct"] is False and record["metrics"] == {}
    assert "no src/repro here" in record["error"]
    summary = pairs.summarize(
        [dict(record, side="parent"), dict(record, side="change")], SPEC)
    assert summary["w"]["metrics"] == {}


@pytest.mark.parametrize("better, parent, change, worse", [
    ("lower", 2.0, 3.0, 0.5),
    ("higher", 2.0, 3.0, -0.5),
])
def test_worse_by_follows_the_direction(better, parent, change, worse):
    entry = pairs.compare({1: parent}, {1: change}, better, 0.25)
    assert entry["change_worse_by"] == worse
