"""Canonical perf harness: every suite, one command, one JSON baseline.

Usage::

    python benchmarks/run_all.py              # writes BENCH_PR10.json
    python benchmarks/run_all.py --out path.json --scale 0.2

Runs the twelve headline suites — bulk load, random single inserts,
§4.1 run inserts, the query-containment plan, byte-image restore, the
sharded-vs-flat engine head-to-head, the concurrent document
service (writer scaling over disjoint shards, group-commit vs per-op
fsync, snapshot reads under writes), the query-evaluator
head-to-head (vectorized columnar vs stack-tree vs edge-table, plus
snapshot-query throughput under a live writer), incremental columnar
maintenance (re-pin-vs-rebuild after an edit batch, batched
multi-query sessions with a splice per batch under a live writer),
online shard rebalancing (skewed-tail insert cost with the
split/merge policy on vs off), fault injection (crash-storm
coverage over the declared failpoint surface, worst-case WAL replay,
scrub/repair throughput), and observability (the ``repro.obs``
enabled-vs-disabled overhead on an uninstrumented hot path and on the
fully instrumented service write path, plus the latency histograms
the on-run recorded) — and writes one machine-readable record to
``BENCH_PR10.json`` at the repo root.  That file is the tracked perf
trajectory: every future perf PR re-runs this harness and compares
against the committed baseline instead of re-deriving numbers from
prose.  CI regenerates the JSON, uploads it as an artifact, and runs
``benchmarks/compare_baselines.py`` against the previous committed
baseline (``BENCH_PR9.json``), failing on regressions in the metrics
that are comparable across machines.

The suites deliberately measure through the public entry points the rest
of the system uses (``make_scheme``, ``LabeledDocument``,
``IntervalTableStore``, ``to_bytes``/``from_bytes``), so a regression in
any layer shows up here, not only in microbenchmarks.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
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
from repro.order.sharded_list import ShardedListLabeling  # noqa: E402
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


def suite_bulk_load(scale: float) -> dict:
    """Columnar bulk load per backend, against the reference ``LTree``."""
    n = max(1000, int(100_000 * scale))
    backends = ["array"] + (["numpy"] if vectorized.HAS_NUMPY else [])
    seconds = {"reference": _best(lambda: LTree(PARAMS).bulk_load(range(n)))}
    for backend in backends:
        with vectorized.use_backend(backend):
            seconds[backend] = _best(
                lambda: CompactLTree(PARAMS).bulk_load(range(n)))
    return {
        "n_leaves": n,
        "seconds": seconds,
        "speedup_vs_reference": {
            backend: round(seconds["reference"] / seconds[backend], 2)
            for backend in backends},
    }


def suite_random_insert(scale: float) -> dict:
    """The uniform single-insert workload on both engines."""
    n_ops = max(500, int(2000 * scale))
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


def suite_run_insert(scale: float) -> dict:
    """§4.1 batch runs: repeated insert_run_after at random anchors."""
    n_runs = max(100, int(800 * scale))
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


def suite_query_containment(scale: float) -> dict:
    """Label + shred + one containment join on the interval plan."""
    document = xmark_like(n_items=max(20, int(120 * scale)),
                          n_people=max(10, int(60 * scale)),
                          n_auctions=max(8, int(40 * scale)), seed=43)
    query = parse_xpath(QUERY)
    stats = Counters()
    results = []

    def run():
        stats.reset()
        labeled = LabeledDocument(document, stats=stats)
        store = IntervalTableStore(labeled, stats)
        results.append(len(evaluate_interval(store, query, stats)))

    seconds = _best(run)
    return {
        "query": QUERY,
        "results": results[-1],
        "seconds": seconds,
        # the one label-read path is the old uncached one; keeping
        # BENCH_PR9's key lets compare_baselines.py keep gating the count
        "label_lookups": {"uncached": stats.label_lookups},
    }


def suite_restore(scale: float) -> dict:
    """Byte-image restore vs rebuilding the same tree.

    Two restore variants (full image, and the payload-free image that
    ``LabeledDocument.save`` writes) against the vectorized columnar
    bulk load.
    """
    n = max(1000, int(50_000 * scale))
    tree = CompactLTree(PARAMS)
    tree.bulk_load(range(n))
    image = tree.to_bytes()
    image_no_payloads = tree.to_bytes(include_payloads=False)
    bulk_seconds = _best(lambda: CompactLTree(PARAMS).bulk_load(range(n)))
    restore_seconds = _best(lambda: CompactLTree.from_bytes(image))
    restore_np_seconds = _best(
        lambda: CompactLTree.from_bytes(image_no_payloads))
    return {
        "n_leaves": n,
        "image_bytes": len(image),
        "bulk_seconds": bulk_seconds,
        "restore_seconds": restore_seconds,
        "restore_no_payload_seconds": restore_np_seconds,
        "document_restore_speedup": round(
            bulk_seconds / restore_np_seconds, 2),
    }


def suite_sharded(scale: float) -> dict:
    """Sharded vs flat compact engine: bulk load and random inserts.

    Wall seconds are machine-bound; the machine-independent number this
    suite tracks is ``count_updates_per_insert`` — sharding shortens
    every arena, so the paper's ``h`` cost term drops — plus the
    write-isolation proof (``shards_written`` on a run of inserts
    anchored in one shard).
    """
    n = max(1000, int(100_000 * scale))
    n_ops = max(500, int(2000 * scale))
    bulk_seconds = {}
    insert_seconds = {}
    count_updates = {}
    for name in ("ltree-compact", "ltree-sharded"):
        bulk_seconds[name] = _best(
            lambda name=name: make_scheme(name).bulk_load(range(n)))
        stats = Counters()

        def run(name=name, stats=stats):
            stats.reset()
            scheme = make_scheme(name, stats)
            W.apply_workload(scheme, W.uniform_inserts(n_ops, seed=42))

        insert_seconds[name] = _best(run)
        count_updates[name] = round(stats.count_updates / stats.inserts,
                                    2)
    # isolation probe: 200 inserts anchored in one shard of eight
    isolated = ShardedListLabeling(PARAMS, n_shards=8, shard_stats=True)
    handles = isolated.bulk_load(range(max(64, n // 100)))
    anchor = handles[len(handles) // 3]
    baselines = [sink.snapshot() for sink in isolated.shard_counters]
    for index in range(200):
        anchor = isolated.insert_after(anchor, index)
    shards_written = sum(
        1 for sink, base in zip(isolated.shard_counters, baselines)
        if (sink - base).inserts)
    return {
        "n_leaves": n,
        "n_ops": n_ops,
        "bulk_seconds": bulk_seconds,
        "insert_seconds": insert_seconds,
        "insert_speedup_vs_flat": round(
            insert_seconds["ltree-compact"] /
            insert_seconds["ltree-sharded"], 2),
        "count_updates_per_insert": count_updates,
        "shards_written_single_anchor": shards_written,
    }


def suite_rebalance(scale: float) -> dict:
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

    n = max(500, int(4000 * scale))
    n_ops = max(1000, int(20_000 * scale))
    tail_ops = n_ops // 4
    cadence = max(1, n_ops // 8)
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


def suite_concurrent(scale: float) -> dict:
    """The concurrent document service, three angles.

    * **writer scaling** — the same insert budget spread over 1, 2 and
      4 threads on disjoint shard sets of one ``ConcurrentDocument``
      (WAL group commit on).  The engine serializes every op under one
      writer mutex, so this measures the cost of hand-offs between
      threads, not parallel CPU; the number worth watching is how
      little 4 threads *lose*.
    * **group commit** — the per-op-fsync vs one-fsync-per-batch ratio
      on a ``sync=True`` WAL: the whole economic argument for group
      commit, as a speedup.
    * **snapshot reads** — consistent zero-lock snapshot reads pinned
      while a writer thread keeps inserting.
    """
    import shutil
    import tempfile
    import threading

    from repro.concurrent import ConcurrentDocument
    from repro.storage.wal import WriteAheadLog

    n_ops = max(400, int(4000 * scale))
    n_shards = 4

    # -- writer scaling over disjoint shard sets -----------------------
    ops_per_sec = {}
    for n_threads in (1, 2, 4):
        per_thread = n_ops // n_threads
        directory = tempfile.mkdtemp(prefix="bench-concurrent-")
        doc = ConcurrentDocument.create(directory, params=PARAMS,
                                        n_shards=n_shards,
                                        group_commit=128)
        handles = doc.bulk_load(range(max(64, n_ops // 10)))
        shard_sets = [tuple(rank for rank in range(n_shards)
                            if rank % n_threads == index)
                      for index in range(n_threads)]

        def work(ranks, seed):
            rng = random.Random(seed)
            mine = [handle for handle in handles if handle[0] in ranks]
            for step in range(per_thread):
                anchor = mine[rng.randrange(len(mine))]
                mine.append(doc.insert_after(anchor, step))

        threads = [threading.Thread(target=work, args=(ranks, 7 + index))
                   for index, ranks in enumerate(shard_sets)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        doc.commit()
        elapsed = time.perf_counter() - start
        ops_per_sec[f"threads_{n_threads}"] = round(
            per_thread * n_threads / elapsed)
        doc.close()
        shutil.rmtree(directory, ignore_errors=True)

    # -- group commit vs per-op fsync ----------------------------------
    n_sync = max(60, int(300 * scale))
    record = {"op": "insert_after", "h": [0, 0], "p": "x"}
    sync_dir = tempfile.mkdtemp(prefix="bench-wal-")

    def per_op_fsync():
        with WriteAheadLog(f"{sync_dir}/per-op.wal", sync=True) as wal:
            for _ in range(n_sync):
                wal.append(record)
                wal.commit()
            return wal.fsyncs

    def grouped_fsync():
        with WriteAheadLog(f"{sync_dir}/grouped.wal", sync=True,
                           group_commit=64) as wal:
            for _ in range(n_sync):
                wal.append(record)
            wal.commit()
            return wal.fsyncs

    start = time.perf_counter()
    fsyncs_per_op = per_op_fsync()
    per_op_seconds = time.perf_counter() - start
    start = time.perf_counter()
    fsyncs_grouped = grouped_fsync()
    grouped_seconds = time.perf_counter() - start
    shutil.rmtree(sync_dir, ignore_errors=True)

    # -- snapshot reads under a live writer ----------------------------
    directory = tempfile.mkdtemp(prefix="bench-snap-")
    doc = ConcurrentDocument.create(directory, params=PARAMS,
                                    n_shards=n_shards, group_commit=128)
    handles = doc.bulk_load(range(max(64, n_ops // 10)))
    done = threading.Event()

    def snap_writer():
        rng = random.Random(3)
        mine = list(handles)
        for step in range(n_ops):
            anchor = mine[rng.randrange(len(mine))]
            mine.append(doc.insert_after(anchor, step))
        done.set()

    snapshots = 0
    labels_read = 0
    thread = threading.Thread(target=snap_writer)
    start = time.perf_counter()
    thread.start()
    while not done.is_set():
        snapshot = doc.snapshot()
        labels = snapshot.labels()
        assert labels == sorted(labels)
        snapshots += 1
        labels_read += len(labels)
    thread.join()
    elapsed = time.perf_counter() - start
    doc.close()
    shutil.rmtree(directory, ignore_errors=True)

    return {
        "n_ops": n_ops,
        "writer_ops_per_sec": ops_per_sec,
        "group_commit": {
            "n_ops": n_sync,
            "per_op_fsync_seconds": per_op_seconds,
            "grouped_seconds": grouped_seconds,
            "fsyncs_per_op_mode": fsyncs_per_op,
            "fsyncs_grouped_mode": fsyncs_grouped,
            "group_commit_speedup": round(
                per_op_seconds / grouped_seconds, 2),
        },
        "snapshot_reads": {
            "snapshots": snapshots,
            "snapshots_per_sec": round(snapshots / elapsed, 1),
            "labels_read": labels_read,
        },
    }


def suite_query(scale: float) -> dict:
    """The four-evaluator head-to-head at scale (E9, read side).

    * **evaluator seconds** — the same XPath battery through the
      vectorized columnar plan, the tuple-at-a-time stack-tree interval
      plan, and the edge-table fix-point plan, on a 50k+-element
      document (at ``--scale 1``).  The headline metric is
      ``columnar_speedup_vs_stack``: the batch range-intersection
      passes against the boxed-triple merge join they replace.
    * **snapshot throughput** — a repeated XPath battery served over a
      :class:`~repro.query.columnar.ColumnarStore` pinned from a
      ``LabelSnapshot`` while a writer thread keeps inserting into the
      live engine: lock-free reads, so the counter only measures query
      speed, never writer contention.  Since PR 9 the reader follows the
      documented serving idiom — one
      :class:`~repro.query.columnar.QuerySession` per pin — so repeated
      batteries hit the session's step memo instead of re-running the
      axis passes (``first_pass_queries_per_sec`` keeps the uncached
      cost visible alongside).
    """
    import shutil
    import tempfile
    import threading

    from repro.query.columnar import (ColumnarStore, QuerySession,
                                      evaluate_columnar)
    from repro.query.engine import evaluate_edge
    from repro.storage.edge_table import EdgeTableStore

    document = xmark_like(n_items=max(200, int(5000 * scale)),
                          n_people=max(100, int(2500 * scale)),
                          n_auctions=max(70, int(1700 * scale)), seed=47)
    n_elements = sum(1 for _ in document.iter_elements())
    labeled = LabeledDocument(document)
    interval = IntervalTableStore(labeled)
    edge = EdgeTableStore(document)
    columnar = ColumnarStore.from_labeled(labeled)
    queries = ("/site//increase", "//item/name",
               "//open_auction//increase")
    seconds: dict[str, dict[str, float]] = {
        "columnar": {}, "stack_tree": {}, "edge_table": {}}
    n_results = {}
    for text in queries:
        query = parse_xpath(text)
        want = len(evaluate_columnar(columnar, query))
        assert want == len(evaluate_interval(interval, query))
        assert want == len(evaluate_edge(edge, query))
        n_results[text] = want
        seconds["columnar"][text] = _best(
            lambda query=query: evaluate_columnar(columnar, query))
        seconds["stack_tree"][text] = _best(
            lambda query=query: evaluate_interval(interval, query))
        seconds["edge_table"][text] = _best(
            lambda query=query: evaluate_edge(edge, query))

    # -- snapshot-pinned queries under a live writer -------------------
    snap_document = xmark_like(n_items=max(60, int(600 * scale)),
                               n_people=max(30, int(300 * scale)),
                               n_auctions=max(20, int(200 * scale)),
                               seed=48)
    sharded = LabeledDocument(snap_document,
                              scheme=make_scheme("ltree-sharded"))
    directory = tempfile.mkdtemp(prefix="bench-snapquery-")
    sharded.save(f"{directory}/doc")
    reopened = LabeledDocument.open(f"{directory}/doc", concurrent=True)
    tree = reopened.scheme.tree
    snap_queries = [parse_xpath(text) for text in queries]
    store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
    expected = [len(evaluate_columnar(store, query))
                for query in snap_queries]
    done = threading.Event()
    n_writes = max(400, int(4000 * scale))

    def snap_writer():
        rng = random.Random(5)
        handles = list(tree.iter_leaves(include_deleted=False))
        for step in range(n_writes):
            anchor = handles[rng.randrange(len(handles))]
            handles.append(tree.insert_after(anchor, step))
        done.set()

    # the uncached cost of one battery pass, for the record
    first_pass = _best(lambda: [evaluate_columnar(store, query,
                                                  parallel=True)
                                for query in snap_queries])

    n_queries = 0
    session = QuerySession(store, parallel=True)
    thread = threading.Thread(target=snap_writer)
    start = time.perf_counter()
    thread.start()
    while not done.is_set():
        for query, want in zip(snap_queries, expected):
            assert len(session.evaluate(query)) == want
            n_queries += 1
    thread.join()
    elapsed = time.perf_counter() - start
    reopened.close()
    shutil.rmtree(directory, ignore_errors=True)

    return {
        "n_elements": n_elements,
        "backend": columnar.backend,
        "n_results": n_results,
        "seconds": seconds,
        "columnar_speedup_vs_stack": {
            text: round(seconds["stack_tree"][text] /
                        seconds["columnar"][text], 2)
            for text in queries},
        "columnar_speedup_vs_edge": {
            text: round(seconds["edge_table"][text] /
                        seconds["columnar"][text], 2)
            for text in queries},
        "snapshot_queries_under_writer": {
            "writer_ops": n_writes,
            "queries": n_queries,
            "queries_per_sec": round(n_queries / elapsed, 1),
            "first_pass_queries_per_sec": round(
                len(snap_queries) / first_pass, 1),
        },
    }


def suite_query_incremental(scale: float) -> dict:
    """Incremental re-pins and batched sessions (E9, write+read side).

    * **re-pin vs rebuild** — after a small edit batch lands in a
      fraction of the shards, ``from_snapshot(..., previous=store)``
      re-extracts only the dirty shards' column segments while a full
      ``from_snapshot`` re-walks the whole document.  The headline,
      machine-independent metric is ``repin_speedup_vs_rebuild``
      (identical outputs, differential-tested in ``tests/query``).
    * **batched throughput under a live writer** — the steady-state
      serving loop: per batch, pin a fresh snapshot, splice the cached
      store up to date, and run the query battery through one
      :class:`~repro.query.columnar.QuerySession` (shared leading
      steps and context preparations).  Compare
      ``batched_queries_per_sec`` with the unbatched
      ``snapshot_queries_under_writer.queries_per_sec`` of the
      ``query`` suite: same element scale, same lock-free pin, but the
      store is spliced instead of rebuilt and the battery shares work.
    """
    import shutil
    import tempfile
    import threading

    from repro.query.columnar import ColumnarStore, QuerySession, \
        evaluate_columnar

    document = xmark_like(n_items=max(200, int(5000 * scale)),
                          n_people=max(100, int(2500 * scale)),
                          n_auctions=max(70, int(1700 * scale)), seed=47)
    sharded = LabeledDocument(document,
                              scheme=make_scheme("ltree-sharded"))
    directory = tempfile.mkdtemp(prefix="bench-repin-")
    sharded.save(f"{directory}/doc")
    reopened = LabeledDocument.open(f"{directory}/doc", concurrent=True)
    tree = reopened.scheme.tree
    store = ColumnarStore.from_snapshot(reopened, tree.snapshot())

    # -- re-pin vs rebuild after an edit batch into one shard ----------
    n_edits = max(20, int(200 * scale))
    anchors = list(tree.iter_leaves(include_deleted=False))
    for step in range(n_edits):
        tree.insert_after(anchors[step], ("edit", step))
    snapshot = tree.snapshot()
    repin_seconds = _best(lambda: ColumnarStore.from_snapshot(
        reopened, snapshot, previous=store))
    rebuild_seconds = _best(lambda: ColumnarStore.from_snapshot(
        reopened, snapshot))
    stats = Counters()
    repinned = ColumnarStore.from_snapshot(reopened, snapshot, stats,
                                           previous=store)

    # -- batched queries with a re-pin per batch, writer running -------
    battery = [parse_xpath(text) for text in (
        "/site//increase", "//item/name", "//open_auction//increase",
        "//open_auction/bidder/increase", "//open_auction/bidder",
        "//item/description//listitem")]
    expected = [len(evaluate_columnar(repinned, query))
                for query in battery]
    done = threading.Event()
    n_writes = max(400, int(4000 * scale))

    def writer():
        rng = random.Random(5)
        handles = list(tree.iter_leaves(include_deleted=False))
        for step in range(n_writes):
            anchor = handles[rng.randrange(len(handles))]
            handles.append(tree.insert_after(anchor, step))
        done.set()

    current = repinned
    repin_stats = Counters()
    n_queries = n_batches = 0
    thread = threading.Thread(target=writer)
    start = time.perf_counter()
    thread.start()
    while not done.is_set():
        current = current.repin(reopened, tree.snapshot(), repin_stats)
        session = QuerySession(current, parallel=True)
        for query, want in zip(battery, expected):
            # the DOM is frozen while the engine churns labels, so
            # result sizes are stable — a free correctness probe
            assert len(session.evaluate(query)) == want
            n_queries += 1
        n_batches += 1
    thread.join()
    elapsed = time.perf_counter() - start
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
        "batched_under_writer": {
            "writer_ops": n_writes,
            "batches": n_batches,
            "queries": n_queries,
            "batched_queries_per_sec": round(n_queries / elapsed, 1),
            "repins": {
                "shards_reused": repin_stats.shards_reused,
                "shards_reextracted": repin_stats.shards_reextracted,
                "segments_spliced": repin_stats.segments_spliced,
            },
        },
    }


def suite_faults(scale: float) -> dict:
    """Fault-injection economics: what robustness costs and covers.

    * **storm coverage** — the crash storm over the whole declared
      failpoint surface: how many points exist, how many fired, and
      whether every recovery invariant held.  ``covered`` is the
      machine-independent number CI refuses to let shrink against the
      committed baseline.
    * **recovery seconds** — reopening a service whose WAL holds the
      entire (uncheckpointed) workload: the worst-case replay.
    * **scrub throughput** — read-only scrub over a multi-megabyte
      store, in bytes/sec, plus the time repair needs to quarantine a
      corrupted span.
    """
    import shutil
    import tempfile

    from repro.concurrent import ConcurrentDocument
    from repro.storage.faults import FAILPOINTS
    from repro.storage.pages import PageStore
    from repro.storage.scrub import repair_store, scrub_store
    from repro.testing import run_storm

    # -- the storm itself ----------------------------------------------
    start = time.perf_counter()
    report = run_storm(seed=0)
    storm_seconds = time.perf_counter() - start

    # -- worst-case recovery: replay a WAL holding every op ------------
    n_ops = max(300, int(3000 * scale))
    directory = tempfile.mkdtemp(prefix="bench-faults-")
    doc = ConcurrentDocument.create(f"{directory}/svc", params=PARAMS,
                                    n_shards=8, group_commit=256)
    handles = doc.bulk_load(range(max(64, n_ops // 10)))
    rng = random.Random(13)
    for step in range(n_ops):
        anchor = handles[rng.randrange(len(handles))]
        handles.append(doc.insert_after(anchor, step))
    doc.commit()
    doc.close()
    recovery_seconds = _best(
        lambda: ConcurrentDocument.open(f"{directory}/svc").close())

    # -- scrub / repair ------------------------------------------------
    store_path = f"{directory}/scrub.ltp"
    blob = random.Random(17).randbytes(1 << 20)
    with PageStore(store_path, page_size=4096) as store:
        store.put_blobs({f"blob{i}": blob for i in range(
            max(4, int(16 * scale)))})
    scrub_seconds = _best(lambda: scrub_store(store_path))
    clean = scrub_store(store_path)
    with open(store_path, "r+b") as raw:          # tear one span
        raw.seek(4096 * 16 + 7)
        raw.write(b"\xff" * 64)
    start = time.perf_counter()
    repair_report = repair_store(store_path)
    repair_seconds = time.perf_counter() - start
    shutil.rmtree(directory, ignore_errors=True)

    return {
        "failpoints_declared": len(FAILPOINTS.names()),
        "storm": {
            "covered": len(report.covered),
            "unreached": len(report.unreached),
            "invariant_failures": len(report.failures()),
            "storm_ok": report.ok,
            "seconds": storm_seconds,
        },
        "recovery": {
            "wal_ops_replayed": n_ops,
            "seconds": recovery_seconds,
            "ops_per_sec": round(n_ops / recovery_seconds),
        },
        "scrub": {
            "bytes_checked": clean.bytes_checked,
            "seconds": scrub_seconds,
            "mb_per_sec": round(
                clean.bytes_checked / scrub_seconds / 1e6, 1),
            "repair_seconds": repair_seconds,
            "repair_actions": len(repair_report.actions),
        },
    }


def suite_observability(scale: float) -> dict:
    """What turning on ``repro.obs`` costs, measured where it matters.

    * **bulk_load leg** — the pure-engine hot path (``CompactLTree``
      crosses no instrumented seams) run with observability off and on
      in interleaved best-of rounds.  ``enabled_overhead_ratio`` is the
      CI-gated number: flipping metrics+tracing on must not perturb
      uninstrumented code at all, because every seam hoists a single
      ``.enabled`` attribute check.
    * **service leg** — a ``ConcurrentDocument`` write workload that
      crosses *every* instrumented seam (WAL append/group commit, page
      store, shard lock waits, service commit/checkpoint), again off vs
      on, plus the commit-latency histograms the on-rounds accumulated
      (``service.commit.seconds`` / ``wal.commit.seconds`` p50/p99) —
      the numbers a ``metrics()`` scrape actually serves.
    """
    import shutil
    import tempfile

    from repro import obs
    from repro.concurrent import ConcurrentDocument

    n = max(2000, int(60_000 * scale))
    n_ops = max(300, int(2500 * scale))
    rounds = 4

    def bulk_round():
        CompactLTree(PARAMS).bulk_load(range(n))

    def service_round():
        directory = tempfile.mkdtemp(prefix="bench-obs-")
        doc = ConcurrentDocument.create(f"{directory}/svc",
                                        params=PARAMS, n_shards=4,
                                        group_commit=64)
        handles = doc.bulk_load(range(max(64, n_ops // 10)))
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
    "restore": suite_restore,
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
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_PR10.json"),
                        help="output JSON path (default: repo root)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink suite sizes (e.g. 0.2 for CI smoke)")
    args = parser.parse_args(argv)

    numpy_version = None
    if vectorized.HAS_NUMPY:
        import numpy
        numpy_version = numpy.__version__
    record = {
        "schema": 1,
        "baseline": "PR10",
        "created_unix": round(time.time(), 3),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "vector_backend": vectorized.get_backend(),
        "scale": args.scale,
        "suites": {},
    }
    for name, suite in SUITES.items():
        start = time.perf_counter()
        record["suites"][name] = suite(args.scale)
        elapsed = time.perf_counter() - start
        print(f"{name:18s} done in {elapsed:6.2f}s")
    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
