"""Gate harness: every suite the gate table reads, one command, one record.

Usage::

    python benchmarks/run_all.py                     # writes bench-run.json
    python benchmarks/compare_baselines.py --backend numpy \\
        benchmarks/baseline.json bench-run.json

Runs eleven suites — bulk load against byte-image restore, random
single inserts, §4.1 run inserts, the query-containment plan, the
sharded-vs-flat engine head-to-head, online shard rebalancing (skewed
tail insert cost with the split/merge policy on vs off), WAL group
commit, the columnar-vs-stack-tree query join, incremental re-pin vs
rebuild, the crash storm's failpoint coverage, and the ``repro.obs``
enabled-vs-disabled overhead — and writes one machine-readable record.
Each suite measures what a row of the gate table in
``benchmarks/compare_baselines.py`` reads: the paper's §3.1 cost counts,
exact answer counts, and speedups taken within one run.  CI runs this
harness and then that table against the committed
``benchmarks/baseline.json``.  End-to-end wall times are gated by
``perfbench`` (``BENCHMARK.json``), not here.

The suites deliberately measure through the public entry points the rest
of the system uses (``make_scheme``, ``LabeledDocument``,
``IntervalTableStore``, ``to_bytes``/``from_bytes``), so a regression in
any layer shows up here, not only in microbenchmarks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import vectorized  # noqa: E402
from repro.core.compact import CompactLTree  # noqa: E402
from repro.core.ltree import LTree  # noqa: E402
from repro.core.params import LTreeParams  # noqa: E402
from repro.core.stats import Counters  # noqa: E402
from repro.labeling.scheme import LabeledDocument  # noqa: E402
from repro.order.registry import make_scheme  # noqa: E402
from repro.query.engine import evaluate_interval  # noqa: E402
from repro.query.xpath import parse_xpath  # noqa: E402
from repro.storage.interval_table import IntervalTableStore  # noqa: E402
from repro.workloads import updates as W  # noqa: E402
from repro.xml.generator import xmark_like  # noqa: E402

PARAMS = LTreeParams(f=16, s=4)
QUERY = "/site//increase"


def _best(callable_, rounds: int = 3) -> float:
    """Best-of-N wall seconds of ``callable_()``."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def suite_bulk_load() -> dict:
    """Building a 100k-leaf tree vs restoring its byte image.

    Builds: the per-node reference ``LTree.bulk_load`` (the §2.2
    algorithm) and the columnar ``CompactLTree.bulk_load`` per backend,
    each the best of five calls with building the empty tree and freeing
    the loaded one left untimed, so one slow scheduler slice on a shared
    runner cannot fail the numpy row's thinner margin.  Restores: the
    payload-free image ``LabeledDocument.save`` writes, and a page-store
    load through the mapped file, each the best of five.
    """
    from repro.storage.pages import PageStore

    n = 100_000

    def load_seconds(engine) -> float:
        best = float("inf")
        for _ in range(5):
            tree = engine(PARAMS)
            start = time.perf_counter()
            tree.bulk_load(range(n))
            best = min(best, time.perf_counter() - start)
        return best

    seconds = {"reference": load_seconds(LTree)}
    for backend in ["array"] + (["numpy"] if vectorized.HAS_NUMPY else []):
        with vectorized.use_backend(backend):
            seconds[backend] = load_seconds(CompactLTree)

    tree = CompactLTree(PARAMS)
    tree.bulk_load(range(n))
    image = tree.to_bytes(include_payloads=False)
    directory = tempfile.mkdtemp(prefix="bench-restore-")
    path = f"{directory}/tree.ltp"
    with PageStore(path) as store:
        tree.save(store)

    def mmap_load():
        with PageStore(path) as store:
            CompactLTree.load(store, prefer_mmap=True)

    try:
        seconds["restore_bytes"] = _best(
            lambda: CompactLTree.from_bytes(image), 5)
        seconds["restore_mmap"] = _best(mmap_load, 5)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"n_leaves": n, "seconds": seconds}


def suite_random_insert() -> dict:
    """The uniform single-insert workload on both engines."""
    n_ops = 2000
    seconds = {}
    relabels_per_insert = {}
    for name in ("ltree", "ltree-compact"):
        stats = Counters()

        def run(name=name, stats=stats):
            stats.reset()
            scheme = make_scheme(name, stats)
            W.apply_workload(scheme, W.uniform_inserts(n_ops, seed=42))

        seconds[name] = _best(run)
        relabels_per_insert[name] = round(stats.relabels / stats.inserts, 2)
    return {
        "n_ops": n_ops,
        "seconds": seconds,
        "compact_speedup": round(
            seconds["ltree"] / seconds["ltree-compact"], 2),
        "relabels_per_insert": relabels_per_insert,
    }


def suite_run_insert() -> dict:
    """§4.1 batch runs: repeated insert_run_after at random anchors."""
    n_runs = 800
    run_length = 16
    seconds = {}
    for name, engine in (("ltree", LTree), ("ltree-compact", CompactLTree)):

        def run(engine=engine):
            tree = engine(PARAMS)
            handles = list(tree.bulk_load(range(64)))
            rng = random.Random(9)
            for index in range(n_runs):
                anchor = handles[rng.randrange(len(handles))]
                payloads = [(index, k) for k in range(run_length)]
                handles.extend(tree.insert_run_after(anchor, payloads))

        seconds[name] = _best(run)
    return {
        "n_runs": n_runs,
        "run_length": run_length,
        "seconds": seconds,
        "compact_speedup": round(
            seconds["ltree"] / seconds["ltree-compact"], 2),
    }


def suite_query_containment() -> dict:
    """Label + shred + one containment join on the interval plan."""
    document = xmark_like(n_items=120, n_people=60, n_auctions=40, seed=43)
    stats = Counters()
    labeled = LabeledDocument(document, stats=stats)
    store = IntervalTableStore(labeled, stats)
    results = evaluate_interval(store, parse_xpath(QUERY), stats)
    return {
        "query": QUERY,
        "results": len(results),
        "label_lookups": stats.label_lookups,
    }


def suite_sharded() -> dict:
    """Sharded vs flat compact engine: random inserts.

    Wall seconds are machine-bound; the machine-independent number this
    suite tracks is ``count_updates_per_insert`` — sharding shortens
    every arena, so the paper's ``h`` cost term drops.
    """
    n_ops = 2000
    insert_seconds = {}
    count_updates = {}
    for name in ("ltree-compact", "ltree-sharded"):
        stats = Counters()

        def run(name=name, stats=stats):
            stats.reset()
            scheme = make_scheme(name, stats)
            W.apply_workload(scheme, W.uniform_inserts(n_ops, seed=42))

        insert_seconds[name] = _best(run)
        count_updates[name] = round(stats.count_updates / stats.inserts,
                                    2)
    return {
        "n_ops": n_ops,
        "insert_seconds": insert_seconds,
        "insert_speedup_vs_flat": round(
            insert_seconds["ltree-compact"] /
            insert_seconds["ltree-sharded"], 2),
        "count_updates_per_insert": count_updates,
    }


def suite_rebalance() -> dict:
    """Online rebalancing at a skewed tail: split/merge policy on vs off.

    Every insert lands after one hot anchor, so a single shard's arena
    keeps growing while the other seven idle.  With the policy off the
    paper's ``h`` cost term climbs with the fat arena's height; with
    the policy on, :class:`RebalancePolicy` periodically splits the
    hot shard, so the *tail* of the workload pays the short-arena
    price.  The machine-independent gate is
    ``tail.count_updates_per_insert`` — policy_on must stay below
    policy_off over the last quarter of the ops — plus the final skew
    ratio.  The pause seconds record what each online split/merge
    round cost the writer: under ``ConcurrentLTree`` every writer
    waits out one split/merge, which holds the writer mutex.
    """
    from repro.core.sharded import RebalancePolicy, ShardedCompactLTree

    n = 4000
    n_ops = 20_000
    tail_ops = n_ops // 4
    cadence = n_ops // 8
    policy = RebalancePolicy(max_ratio=2.0, min_split_leaves=64,
                             max_shards=32)
    modes = {}
    for mode in ("policy_off", "policy_on"):
        stats = Counters()
        tree = ShardedCompactLTree(PARAMS, stats, n_shards=8)
        handles = tree.bulk_load(range(n))
        anchor = handles[len(handles) // 3]
        actions: list[dict] = []
        pauses: list[float] = []
        tail_base = None
        # count churn the rebalance itself causes (arena rebuilds),
        # tracked separately so the per-insert metrics price only the
        # writer's own work
        reb_updates = reb_inserts = 0
        tail_reb_updates = tail_reb_inserts = 0
        start = time.perf_counter()
        for step in range(n_ops):
            if step == n_ops - tail_ops:
                tail_base = stats.snapshot()
            anchor = tree.insert_after(anchor, step)
            if mode == "policy_on" and step % cadence == cadence - 1:
                pause_start = time.perf_counter()
                before = stats.snapshot()
                actions.extend(tree.rebalance(policy))
                delta = stats - before
                pauses.append(time.perf_counter() - pause_start)
                reb_updates += delta.count_updates
                reb_inserts += delta.inserts
                if tail_base is not None:
                    tail_reb_updates += delta.count_updates
                    tail_reb_inserts += delta.inserts
        elapsed = time.perf_counter() - start
        tail = stats - tail_base
        report = tree.shard_report()
        lives = [row["live"] for row in report]
        modes[mode] = {
            "seconds": elapsed,
            "count_updates_per_insert": round(
                (stats.count_updates - reb_updates) /
                (stats.inserts - reb_inserts), 2),
            "tail": {"count_updates_per_insert": round(
                (tail.count_updates - tail_reb_updates) /
                (tail.inserts - tail_reb_inserts), 2)},
            "splits": sum(1 for act in actions
                          if act["action"] == "split"),
            "merges": sum(1 for act in actions
                          if act["action"] == "merge"),
            "final_shards": len(report),
            "final_epoch": tree.epoch,
            "skew_ratio": round(
                max(lives) / (sum(lives) / len(lives)), 2),
            "max_pause_seconds": max(pauses) if pauses else 0.0,
            "total_pause_seconds": sum(pauses),
        }
    return {
        "n_leaves": n,
        "n_ops": n_ops,
        "tail_ops": tail_ops,
        "modes": modes,
        "tail_cost_ratio_off_over_on": round(
            modes["policy_off"]["tail"]["count_updates_per_insert"] /
            modes["policy_on"]["tail"]["count_updates_per_insert"], 2),
    }


def suite_concurrent() -> dict:
    """WAL group commit: per-op fsync vs one fsync per batch.

    The ratio on a ``sync=True`` WAL is the whole economic argument for
    group commit, as a speedup.  Each side is the best of three rounds,
    each on a fresh log, so one slow fsync on a shared disk cannot set
    the ratio.
    """
    from repro.storage.wal import WriteAheadLog

    n_sync = 300
    record = {"op": "insert_after", "h": [0, 0], "p": "x"}
    sync_dir = tempfile.mkdtemp(prefix="bench-wal-")
    fsyncs = {}

    def append_all(mode, group_commit):
        path = f"{sync_dir}/{mode}-{len(os.listdir(sync_dir))}.wal"
        with WriteAheadLog(path, sync=True,
                           group_commit=group_commit) as wal:
            for _ in range(n_sync):
                wal.append(record)
                if group_commit is None:
                    wal.commit()
            wal.commit()
        fsyncs[mode] = wal.fsyncs

    try:
        per_op_seconds = _best(lambda: append_all("per_op", None))
        grouped_seconds = _best(lambda: append_all("grouped", 64))
    finally:
        shutil.rmtree(sync_dir, ignore_errors=True)

    return {
        "group_commit": {
            "n_ops": n_sync,
            "per_op_fsync_seconds": per_op_seconds,
            "grouped_seconds": grouped_seconds,
            "fsyncs_per_op_mode": fsyncs["per_op"],
            "fsyncs_grouped_mode": fsyncs["grouped"],
            "group_commit_speedup": round(
                per_op_seconds / grouped_seconds, 2),
        },
    }


def suite_query() -> dict:
    """Columnar vs stack-tree evaluation at scale (E9, read side).

    The same XPath battery through the vectorized columnar plan and the
    tuple-at-a-time stack-tree interval plan on a ~69k-element document.
    The headline metric is ``columnar_speedup_vs_stack``: the batch
    range-intersection passes against the boxed-triple merge join they
    replace.
    """
    from repro.query.columnar import ColumnarStore, evaluate_columnar

    document = xmark_like(n_items=5000, n_people=2500, n_auctions=1700,
                          seed=47)
    n_elements = sum(1 for _ in document.iter_elements())
    labeled = LabeledDocument(document)
    interval = IntervalTableStore(labeled)
    columnar = ColumnarStore.from_labeled(labeled)
    queries = ("/site//increase", "//item/name",
               "//open_auction//increase")
    seconds: dict[str, dict[str, float]] = {"columnar": {},
                                            "stack_tree": {}}
    n_results = {}
    for text in queries:
        query = parse_xpath(text)
        want = len(evaluate_columnar(columnar, query))
        assert want == len(evaluate_interval(interval, query))
        n_results[text] = want
        seconds["columnar"][text] = _best(
            lambda query=query: evaluate_columnar(columnar, query))
        seconds["stack_tree"][text] = _best(
            lambda query=query: evaluate_interval(interval, query))
    return {
        "n_elements": n_elements,
        "backend": columnar.backend,
        "n_results": n_results,
        "seconds": seconds,
        "columnar_speedup_vs_stack": {
            text: round(seconds["stack_tree"][text] /
                        seconds["columnar"][text], 2)
            for text in queries},
    }


def suite_query_incremental() -> dict:
    """Incremental re-pin vs rebuild (E9, write side).

    After a small edit batch lands in a fraction of the shards,
    ``from_snapshot(..., previous=store)`` re-extracts only the dirty
    shards' column segments while a full ``from_snapshot`` re-walks the
    whole document.  The headline metric is ``repin_speedup_vs_rebuild``
    (identical outputs, differential-tested in ``tests/query``).
    """
    from repro.query.columnar import ColumnarStore

    document = xmark_like(n_items=5000, n_people=2500, n_auctions=1700,
                          seed=47)
    sharded = LabeledDocument(document,
                              scheme=make_scheme("ltree-sharded"))
    directory = tempfile.mkdtemp(prefix="bench-repin-")
    sharded.save(f"{directory}/doc")
    reopened = LabeledDocument.open(f"{directory}/doc", concurrent=True)
    tree = reopened.scheme.tree
    store = ColumnarStore.from_snapshot(reopened, tree.snapshot())

    n_edits = 200
    anchors = list(tree.iter_leaves(include_deleted=False))
    for step in range(n_edits):
        tree.insert_after(anchors[step], ("edit", step))
    snapshot = tree.snapshot()
    repin_seconds = _best(lambda: ColumnarStore.from_snapshot(
        reopened, snapshot, previous=store))
    rebuild_seconds = _best(lambda: ColumnarStore.from_snapshot(
        reopened, snapshot))
    stats = Counters()
    ColumnarStore.from_snapshot(reopened, snapshot, stats, previous=store)
    reopened.close()
    shutil.rmtree(directory, ignore_errors=True)

    return {
        "n_elements": len(store),
        "backend": store.backend,
        "n_edits": n_edits,
        "repin_seconds": repin_seconds,
        "rebuild_seconds": rebuild_seconds,
        "repin_speedup_vs_rebuild": round(
            rebuild_seconds / repin_seconds, 2),
        "repin_counters": {
            "shards_reused": stats.shards_reused,
            "shards_reextracted": stats.shards_reextracted,
            "segments_spliced": stats.segments_spliced,
        },
    }


def suite_faults() -> dict:
    """Crash-storm coverage over the declared failpoint surface: how
    many points fired and whether every recovery invariant held."""
    from repro.testing import run_storm

    start = time.perf_counter()
    report = run_storm(seed=0)
    return {
        "storm": {
            "covered": len(report.covered),
            "unreached": len(report.unreached),
            "invariant_failures": len(report.failures()),
            "storm_ok": report.ok,
            "seconds": time.perf_counter() - start,
        },
    }


def suite_observability() -> dict:
    """What turning on ``repro.obs`` costs, measured where it matters.

    * **bulk_load leg** — the pure-engine hot path (``CompactLTree``
      crosses no instrumented seams) run with observability off and on
      in interleaved best-of rounds.  The gate table holds
      ``enabled_overhead_ratio`` at <= 1.05 on the numpy backend:
      flipping metrics+tracing on must not perturb uninstrumented code
      at all, because every seam hoists a single ``.enabled``
      attribute check.
    * **service leg** — a ``ConcurrentDocument`` write workload that
      crosses *every* instrumented seam (WAL append/group commit, page
      store, shard lock waits, service commit/checkpoint), again off vs
      on, plus the commit-latency histograms the on-rounds accumulated
      (``service.commit.seconds`` / ``wal.commit.seconds`` p50/p99) —
      the numbers a ``metrics()`` scrape actually serves.
    """
    from repro import obs
    from repro.concurrent import ConcurrentDocument

    n = 60_000
    n_ops = 2500
    rounds = 4

    def bulk_round():
        CompactLTree(PARAMS).bulk_load(range(n))

    def service_round():
        directory = tempfile.mkdtemp(prefix="bench-obs-")
        doc = ConcurrentDocument.create(f"{directory}/svc",
                                        params=PARAMS, n_shards=4,
                                        group_commit=64)
        handles = doc.bulk_load(range(n_ops // 10))
        rng = random.Random(11)
        for step in range(n_ops):
            anchor = handles[rng.randrange(len(handles))]
            handles.append(doc.insert_after(anchor, step))
        doc.commit()
        doc.checkpoint()
        doc.close()
        shutil.rmtree(directory, ignore_errors=True)

    obs.disable()
    obs.reset()
    legs = {}
    try:
        for leg, body in (("bulk_load", bulk_round),
                          ("service", service_round)):
            off = on = float("inf")
            # interleaved so drift (thermal, cache) hits both sides
            for _ in range(rounds):
                obs.disable()
                start = time.perf_counter()
                body()
                off = min(off, time.perf_counter() - start)
                obs.enable()
                start = time.perf_counter()
                body()
                on = min(on, time.perf_counter() - start)
            legs[leg] = {
                "off_seconds": off,
                "on_seconds": on,
                "enabled_overhead_ratio": round(on / off, 4),
            }
        legs["bulk_load"]["n_leaves"] = n
        legs["service"]["n_ops"] = n_ops
        legs["service"]["histograms"] = {
            name: obs.METRICS.histogram(name)
            for name in ("service.commit.seconds", "wal.commit.seconds",
                         "wal.commit.batch_records")}
    finally:
        obs.disable()
        obs.reset()
    legs["backend"] = vectorized.get_backend()
    return legs


SUITES = {
    "bulk_load": suite_bulk_load,
    "random_insert": suite_random_insert,
    "run_insert": suite_run_insert,
    "query_containment": suite_query_containment,
    "sharded": suite_sharded,
    "rebalance": suite_rebalance,
    "concurrent": suite_concurrent,
    "query": suite_query,
    "query_incremental": suite_query_incremental,
    "faults": suite_faults,
    "observability": suite_observability,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="bench-run.json",
                        help="output JSON path (default: bench-run.json, "
                             "untracked)")
    args = parser.parse_args(argv)

    numpy_version = None
    if vectorized.HAS_NUMPY:
        import numpy
        numpy_version = numpy.__version__
    record = {
        "schema": 2,
        "created_unix": round(time.time(), 3),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "vector_backend": vectorized.get_backend(),
        "suites": {},
    }
    for name, suite in SUITES.items():
        start = time.perf_counter()
        record["suites"][name] = suite()
        elapsed = time.perf_counter() - start
        print(f"{name:18s} done in {elapsed:6.2f}s")
    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
