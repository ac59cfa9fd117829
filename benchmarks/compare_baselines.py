"""The benchmark gate table: every check CI holds on a run_all.py record.

Usage::

    python benchmarks/compare_baselines.py --backend numpy \\
        benchmarks/baseline.json run.json

:data:`ROWS` declares each check once: the metric (a dotted path into
the record's ``suites``), the comparison, the bound, and the vector
backend the row applies to (``None``: every backend).  A bound is a
constant, :class:`Baseline` (this metric's committed value for the
backend, times a factor) or :class:`Metric` (another metric of the same
run, times a factor).  A row whose metric or bound is missing on a
backend it applies to fails, so deleting or renaming a gated metric
cannot switch its gate off.  ``--backend`` names the vector backend the
run must report, so a run that fell back to another backend fails
instead of skipping the rows of the one it was meant to measure.

Only checks that hold on any machine are rows: the paper's §3.1 cost
counts, exact answer counts, and speedups whose two sides are timed in
the same run, with margins wide enough for a shared runner.  End-to-end
wall times are ``perfbench``'s (``BENCHMARK.json``).

The baseline holds, per backend, every value a row reads; edit it by
hand, from fresh runs, when a row's baseline moves.

Exit status 0 when every row that applies to the backend holds on each
run, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
       ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Baseline:
    """Bound: the row metric's committed baseline value times ``factor``."""

    factor: float = 1

    def __str__(self) -> str:
        return f"{self.factor:g} x baseline"


@dataclass(frozen=True)
class Metric:
    """Bound: another metric of the same run times ``factor``."""

    path: str
    factor: float = 1

    def __str__(self) -> str:
        return f"{self.factor:g} x {self.path}"


@dataclass(frozen=True)
class Row:
    """One check: ``metric <op> bound`` on runs of ``backend``."""

    metric: str
    op: str
    bound: Any
    backend: str | None = None

    def __str__(self) -> str:
        where = f" [{self.backend}]" if self.backend else ""
        return f"{self.metric} {self.op} {self.bound}{where}"


COMMIT = "observability.service.histograms.service.commit.seconds"

ROWS = (
    # §3.1 cost counts and exact answers: machine-independent, so held
    # to 20% over the baseline (answers exactly)
    Row("query_containment.results", "==", Baseline()),
    Row("query_containment.label_lookups", "<=", Baseline(1.2)),
    Row("random_insert.relabels_per_insert.ltree", "<=", Baseline(1.2)),
    Row("random_insert.relabels_per_insert.ltree-compact", "<=",
        Baseline(1.2)),
    Row("sharded.count_updates_per_insert.ltree-compact", "<=",
        Baseline(1.2)),
    Row("sharded.count_updates_per_insert.ltree-sharded", "<=",
        Baseline(1.2)),
    Row("rebalance.modes.policy_off.count_updates_per_insert", "<=",
        Baseline(1.2)),
    Row("rebalance.modes.policy_off.tail.count_updates_per_insert", "<=",
        Baseline(1.2)),
    Row("rebalance.modes.policy_on.count_updates_per_insert", "<=",
        Baseline(1.2)),
    Row("rebalance.modes.policy_on.tail.count_updates_per_insert", "<=",
        Baseline(1.2)),
    # the rebalance policy splits the hot shard, and its tail inserts
    # are cheaper and its occupancy flatter than without it
    Row("rebalance.modes.policy_on.tail.count_updates_per_insert", "<",
        Metric("rebalance.modes.policy_off.tail.count_updates_per_insert")),
    Row("rebalance.modes.policy_on.splits", ">", 0),
    Row("rebalance.modes.policy_on.skew_ratio", "<",
        Metric("rebalance.modes.policy_off.skew_ratio")),
    # the crash storm reaches every declared failpoint, every recovery
    # invariant holds, and coverage never shrinks
    Row("faults.storm.storm_ok", "==", True),
    Row("faults.storm.unreached", "==", 0),
    Row("faults.storm.covered", ">=", Baseline()),
    Row("faults.storm.covered", ">=", 25),
    # per-op vs grouped WAL fsync never touches the vector backend, so
    # one bound serves both: half the 15.0 BENCH_PR9.json recorded
    Row("concurrent.group_commit.group_commit_speedup", ">=", 7.5),
    # speedups timed within one run travel across machines only
    # roughly: each may fall to half its baseline
    Row("random_insert.compact_speedup", ">=", Baseline(0.5)),
    Row("run_insert.compact_speedup", ">=", Baseline(0.5)),
    Row("sharded.insert_speedup_vs_flat", ">=", Baseline(0.5)),
    Row("query_incremental.repin_speedup_vs_rebuild", ">=", Baseline(0.5)),
    # the columnar bulk load beats the per-node reference LTree.bulk_load
    Row("bulk_load.seconds.reference", ">=",
        Metric("bulk_load.seconds.array", 2.6)),
    Row("bulk_load.seconds.reference", ">=",
        Metric("bulk_load.seconds.numpy", 6.0), "numpy"),
    # restoring an image beats rebuilding: the payload-free image beats
    # the §2.2 algorithm and the columnar rebuild, the mapped page store
    # beats the algorithm
    Row("bulk_load.seconds.reference", ">",
        Metric("bulk_load.seconds.restore_bytes", 6)),
    Row("bulk_load.seconds.reference", ">",
        Metric("bulk_load.seconds.restore_mmap", 3)),
    Row("bulk_load.seconds.array", ">",
        Metric("bulk_load.seconds.restore_bytes", 4)),
    Row("bulk_load.seconds.numpy", ">",
        Metric("bulk_load.seconds.restore_bytes", 4), "numpy"),
    # the columnar plan beats the stack-tree join at ~69k elements
    Row("query.backend", "==", "numpy", "numpy"),
    Row("query.columnar_speedup_vs_stack./site//increase", ">=", 3.0,
        "numpy"),
    Row("query.columnar_speedup_vs_stack.//item/name", ">=", 3.0, "numpy"),
    Row("query.columnar_speedup_vs_stack.//open_auction//increase", ">=",
        3.0, "numpy"),
    # a re-pin after a small edit batch splices instead of rebuilding
    Row("query_incremental.backend", "==", "numpy", "numpy"),
    Row("query_incremental.repin_speedup_vs_rebuild", ">=", 5.0, "numpy"),
    Row("query_incremental.repin_counters.shards_reused", ">", 0, "numpy"),
    Row("query_incremental.repin_counters.segments_spliced", ">", 0,
        "numpy"),
    # turning repro.obs on leaves uninstrumented code alone, and the
    # service run records the commit latencies a scrape serves
    Row("observability.backend", "==", "numpy", "numpy"),
    Row("observability.bulk_load.enabled_overhead_ratio", "<=", 1.05,
        "numpy"),
    Row(f"{COMMIT}.count", ">", 0, "numpy"),
    Row(f"{COMMIT}.p50", ">", 0, "numpy"),
    Row(f"{COMMIT}.p99", ">=", Metric(f"{COMMIT}.p50"), "numpy"),
)


def _flatten(node, path=""):
    """(dotted-path, leaf) pairs of a nested JSON record."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _flatten(value, f"{path}.{key}" if path else key)
    else:
        yield path, node


def _lookup(values: dict, path: str, where: str):
    try:
        return values[path]
    except KeyError:
        raise LookupError(f"{path} missing from {where}") from None


def evaluate(run: dict, baseline: dict, backend: str, rows=ROWS
             ) -> tuple[list[str], list[str]]:
    """``(held, failed)`` lines for the rows that apply to ``backend``,
    the vector backend ``run`` must report."""
    metrics = dict(_flatten(run["suites"]))
    recorded = baseline.get(backend, {})
    held: list[str] = []
    failed: list[str] = []
    if run["vector_backend"] != backend:
        failed.append(f"vector_backend == {backend}: "
                      f"{run['vector_backend']!r} vs {backend!r}")
    for row in rows:
        if row.backend not in (None, backend):
            continue
        try:
            value = _lookup(metrics, row.metric, "the run")
            if isinstance(row.bound, Baseline):
                bound = row.bound.factor * _lookup(
                    recorded, row.metric, f"the {backend} baseline")
            elif isinstance(row.bound, Metric):
                bound = row.bound.factor * _lookup(
                    metrics, row.bound.path, "the run")
            else:
                bound = row.bound
        except LookupError as missing:
            failed.append(f"{row}: {missing}")
            continue
        line = f"{row}: {value!r} vs {bound!r}"
        (held if OPS[row.op](value, bound) else failed).append(line)
    return held, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline JSON "
                                         "(benchmarks/baseline.json)")
    parser.add_argument("runs", nargs="+", help="run_all.py records")
    parser.add_argument("--backend", required=True,
                        choices=("numpy", "array"),
                        help="vector backend every run must report")
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    status = 0
    for name in args.runs:
        run = json.loads(Path(name).read_text(encoding="utf-8"))
        held, failed = evaluate(run, baseline, args.backend)
        for line in held:
            print(f"ok    {line}")
        for line in failed:
            print(f"FAIL  {line}")
        print(f"{name} ({args.backend}): {len(held)} rows held, "
              f"{len(failed)} failed")
        status |= bool(failed)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
