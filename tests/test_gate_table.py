"""The benchmark gate table in ``benchmarks/compare_baselines.py``.

The evaluator decides every check CI holds on a ``run_all.py`` record,
so its comparison forms, its backend conditions and the committed
baseline are tested here on small hand-built records.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core import vectorized

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
_spec = importlib.util.spec_from_file_location(
    "compare_baselines", BENCHMARKS / "compare_baselines.py")
gates = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = gates        # dataclasses resolve it there
_spec.loader.exec_module(gates)
Row, Baseline, Metric = gates.Row, gates.Baseline, gates.Metric


def _run(backend="numpy", **suites):
    return {"vector_backend": backend, "suites": suites}


RUN = _run(suite={"count": 10, "pair": {"low": 2.0, "high": 5.0}})
BASELINE = {"numpy": {"suite.count": 8}, "array": {"suite.count": 20}}


@pytest.mark.parametrize("row, holds", [
    # a constant bound, every comparison
    (Row("suite.count", "<", 11), True),
    (Row("suite.count", "<", 10), False),
    (Row("suite.count", "<=", 10), True),
    (Row("suite.count", "<=", 9), False),
    (Row("suite.count", "==", 10), True),
    (Row("suite.count", "==", 11), False),
    (Row("suite.count", ">=", 10), True),
    (Row("suite.count", ">=", 11), False),
    (Row("suite.count", ">", 9), True),
    (Row("suite.count", ">", 10), False),
    # the baseline of the run's backend (8 on numpy) times a factor
    (Row("suite.count", "<=", Baseline(1.25)), True),
    (Row("suite.count", "<=", Baseline(1.2)), False),
    (Row("suite.count", ">=", Baseline(0.5)), True),
    (Row("suite.count", "==", Baseline()), False),
    # another metric of the same run times a factor
    (Row("suite.pair.high", ">", Metric("suite.pair.low", 2)), True),
    (Row("suite.pair.high", ">", Metric("suite.pair.low", 2.5)), False),
    (Row("suite.pair.low", "<", Metric("suite.pair.high")), True),
])
def test_each_comparison_form(row, holds):
    held, failed = gates.evaluate(RUN, BASELINE, "numpy", rows=(row,))
    assert (len(held), len(failed)) == ((1, 0) if holds else (0, 1))


def test_baseline_is_read_per_backend():
    row = Row("suite.count", "==", Baseline())
    assert gates.evaluate(_run("array", suite={"count": 20}), BASELINE,
                          "array", rows=(row,)) == ([f"{row}: 20 vs 20"], [])


def test_backend_row_skipped_on_the_other_backend():
    rows = (Row("suite.count", ">", 100, "numpy"),
            Row("suite.absent", ">", 0, "numpy"))
    assert gates.evaluate(_run("array", suite={"count": 10}), {}, "array",
                          rows=rows) == ([], [])
    held, failed = gates.evaluate(_run("numpy", suite={"count": 10}), {},
                                  "numpy", rows=rows)
    assert held == [] and len(failed) == 2


def test_run_on_another_backend_fails():
    """A numpy leg whose run fell back to array fails; it does not pass
    on the array rows alone."""
    row = Row("suite.count", "==", 10)
    held, failed = gates.evaluate(RUN, BASELINE, "array", rows=(row,))
    assert held == [f"{row}: 10 vs 10"]
    assert failed == ["vector_backend == array: 'numpy' vs 'array'"]
    held, failed = gates.evaluate(_run("array", suite={"count": 10}),
                                  BASELINE, "numpy", rows=(row,))
    assert failed == ["vector_backend == numpy: 'array' vs 'numpy'"]


@pytest.mark.parametrize("row, missing", [
    (Row("suite.vanished", ">=", 1), "suite.vanished missing from the run"),
    (Row("suite.count", ">=", Metric("suite.vanished")),
     "suite.vanished missing from the run"),
    (Row("suite.pair.low", "<=", Baseline(1.2)),
     "suite.pair.low missing from the numpy baseline"),
])
def test_missing_metric_fails(row, missing):
    held, failed = gates.evaluate(RUN, BASELINE, "numpy", rows=(row,))
    assert held == [] and failed == [f"{row}: {missing}"]


def test_vanished_gated_metric_fails_the_command(tmp_path, capsys):
    """A run that lost a gated metric exits 1; it does not pass with a
    note."""
    committed = json.loads((BENCHMARKS / "baseline.json").read_text())
    suites = dict(committed["numpy"])
    run = {"vector_backend": "numpy", "suites": suites}
    (tmp_path / "run.json").write_text(json.dumps(run))
    argv = ["--backend", "numpy", str(BENCHMARKS / "baseline.json"),
            str(tmp_path / "run.json")]
    assert gates.main(argv) == 0
    del suites["faults.storm.covered"]
    (tmp_path / "run.json").write_text(json.dumps(run))
    assert gates.main(argv) == 1
    assert "faults.storm.covered missing from the run" in \
        capsys.readouterr().out


def test_every_row_reads_a_recorded_metric():
    """Each path a row reads is in the committed baseline for every
    backend the row applies to, so a typo cannot make a gate vacuous."""
    committed = json.loads((BENCHMARKS / "baseline.json").read_text())
    assert set(committed) == set(vectorized.BACKENDS)
    for backend, recorded in committed.items():
        for row in gates.ROWS:
            if row.backend in (None, backend):
                paths = [row.metric]
                if isinstance(row.bound, Metric):
                    paths.append(row.bound.path)
                for path in paths:
                    assert path in recorded, (backend, str(row))


def test_committed_baseline_passes_its_own_table():
    committed = json.loads((BENCHMARKS / "baseline.json").read_text())
    for backend, recorded in committed.items():
        assert gates.evaluate(_run(backend, **recorded), committed,
                              backend)[1] == []

