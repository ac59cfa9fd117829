"""The write-path workloads: ``service_edits`` and ``two_writers``.

Both drive one durable ``ConcurrentDocument`` (a 100k-token bulk load
over 8 shards, ``sync=True``, ``group_commit=None`` so every commit is
explicit) through its public methods.  Each client is a closed loop:
it issues an edit batch, waits for ``commit()`` -- the durable
acknowledgement -- then asks the order query the paper's labels exist
for (is every token the batch inserted labeled after its anchor?), and
only then issues its next batch.

The timed phase is a sequence of identical *episodes*, started until
``--seconds`` are spent.  An episode creates and bulk loads a fresh
service (one ``setup_s`` sample), runs :data:`ROUNDS` rounds of
:data:`ROUND_OPS` ops of the seed's op stream with a checkpoint after
every round but the last, closes the service and reopens it
:data:`REOPENS` times, each reopen replaying the last round's WAL tail.
Every episode starts from the same state and does the same work, so
the samples a run takes do not depend on how many ops fit into it.
Every timing is kept as its wall interval and reported scaled to the
reference host speed (:class:`common.HostSpeed`).
"""

from __future__ import annotations

import gc
import os
import random
import threading
from typing import Any

from repro import obs
from repro.concurrent.service import (PAGES_FILE, WAL_FILE,
                                      ConcurrentDocument)
from repro.core.sharded import RebalancePolicy
from repro.core.stats import NULL_COUNTERS, Counters

from common import (DELETE, INSERT, RUN, HostSpeed, Oracle, Spans,
                    WorkDir, clock, edit_stream, label_bits_over_optimum,
                    median, percentile, settle)

N_BULK = 100_000
N_SHARDS = 8
#: ops per round, summed over clients
ROUND_OPS = 4096
#: rounds per episode; a checkpoint follows each but the last, whose
#: WAL records every recovery replays
ROUNDS = 3
#: recoveries timed per episode
REOPENS = 2

#: workload -> (clients, ops per commit, anchors skewed, rebalance)
WORKLOADS = {
    "service_edits": (1, 32, True, True),
    "two_writers": (2, 4, False, False),
}


def first_new(client: int) -> int:
    return N_BULK + client * 10 ** 9


def build_streams(name: str, seed: int) -> list[list]:
    """One episode's op stream per client; two_writers' clients own the
    even and the odd shards of the bulk load respectively."""
    clients, _batch, skewed, _rebalance = WORKLOADS[name]
    n_ops = ROUNDS * ROUND_OPS // clients
    chunk = N_BULK // N_SHARDS
    if clients == 1:
        rng = random.Random(seed)
        # the hot window is centred on a boundary between two bulk
        # shards, so both see the same share of writes whatever the
        # seed; anywhere else, the seed chose how much rebalancing and
        # checkpointing an episode did
        middle = chunk * rng.randrange(1, N_SHARDS)
        hot = range(middle - N_BULK // 20, middle + N_BULK // 20)
        return [edit_stream(rng, n_ops, range(N_BULK), N_BULK,
                            hot=hot if skewed else None)]
    return [edit_stream(random.Random(f"{seed}:{client}"), n_ops,
                        [token for token in range(N_BULK)
                         if token // chunk % clients == client],
                        first_new(client))
            for client in range(clients)]


def in_order(doc: ConcurrentDocument, pairs: list[tuple]) -> bool:
    """The batch's order query: each new token labels after its anchor."""
    label = doc.label
    return all(label(anchor) < label(new) for anchor, new in pairs)


class Client:
    """One closed-loop writer over its own op stream."""

    def __init__(self, ops: list[tuple], first: int, batch: int) -> None:
        self.ops = ops
        self.first = first
        self.batch = batch
        self.bulk: list = []
        #: handles of this client's inserted tokens, by ``id - first``
        self.fresh: list = []
        self.pos = 0
        #: per batch: issued, applied, acknowledged, answered
        self.marks: list[tuple[float, float, float, float]] = []
        self.answers: list[bool] = []
        self.busy = 0.0
        self.error: Any = None

    def start(self, bulk: list) -> None:
        """Begin an episode on a freshly loaded service."""
        self.bulk = bulk
        self.fresh = []
        self.pos = 0

    def run(self, doc: ConcurrentDocument, spans: Spans, end: int,
            speed: HostSpeed | None) -> None:
        ops, bulk, fresh, first = self.ops, self.bulk, self.fresh, \
            self.first
        n_bulk = len(bulk)
        call = spans.call
        while self.pos < end:
            if speed is not None:
                speed.probe()
            lo = self.pos
            hi = min(lo + self.batch, end)
            pairs = []
            with spans.span("bench.loop", lo):
                issued = clock()
                for kind, anchor, arg in ops[lo:hi]:
                    handle = bulk[anchor] if anchor < n_bulk \
                        else fresh[anchor - first]
                    if kind == INSERT:
                        new = call("concurrent.apply", lo,
                                   doc.insert_after, handle, arg)
                        fresh.append(new)
                        pairs.append((handle, new))
                    elif kind == RUN:
                        run = call("concurrent.apply", lo,
                                   doc.insert_run_after, handle, arg)
                        fresh.extend(run)
                        pairs.append((handle, run[0]))
                    elif kind == DELETE:
                        call("concurrent.apply", lo, doc.delete, handle)
                    else:
                        call("concurrent.apply", lo, doc.set_payload,
                             handle, arg)
                applied = clock()
                call("storage.wal.commit", lo, doc.commit)
                acked = clock()
                answer = call("concurrent.read", lo, in_order, doc, pairs)
                answered = clock()
            self.marks.append((issued, applied, acked, answered))
            self.answers.append(answer)
            self.pos = hi


def run_clients(clients: list[Client], doc: ConcurrentDocument,
                spans: Spans, ends: list[int], speed: HostSpeed) -> float:
    """Run every client to its end position; client 0 runs on the
    calling thread and probes the host's speed.  Returns the caller's
    join wait."""
    def work(client: Client, end: int) -> None:
        start = clock()
        try:
            client.run(doc, spans, end,
                       speed if client is clients[0] else None)
        except BaseException as exc:     # re-raised below, on the caller
            client.error = exc
        client.busy += clock() - start

    threads = [threading.Thread(target=work, args=(client, end))
               for client, end in zip(clients[1:], ends[1:])]
    for thread in threads:
        thread.start()
    work(clients[0], ends[0])
    joined = clock()
    for thread in threads:
        thread.join()
    waited = clock() - joined
    for client in clients:
        if client.error is not None:
            raise client.error
    return waited


def setup(work: WorkDir, spans: Spans, stats: Counters
          ) -> tuple[str, ConcurrentDocument, list, tuple[float, float]]:
    """Create, bulk load and checkpoint a fresh service."""
    directory = work.fresh("svc-")
    start = clock()
    doc = spans.call("service.lifecycle", 0, ConcurrentDocument.create,
                     directory, n_shards=N_SHARDS, sync=True,
                     group_commit=None, stats=stats)
    bulk = spans.call("core.bulk_load", 0, doc.bulk_load,
                      list(range(N_BULK)),
                      [N_BULK // N_SHARDS] * N_SHARDS)
    spans.call("storage.wal.commit", 0, doc.commit)
    spans.call("storage.pages.checkpoint_save", 0, doc.checkpoint)
    return directory, doc, bulk, (start, clock())


def maintain(doc: ConcurrentDocument, spans: Spans, policy: Any,
             batch: int) -> tuple[tuple[float, float], int]:
    """Checkpoint, then rebalance when the workload has a policy --
    what ``checkpoint()`` does with a ``rebalance_policy`` installed,
    split in two calls so the trace can tell them apart."""
    start = clock()
    spans.call("storage.pages.checkpoint_save", batch, doc.checkpoint)
    actions = spans.call("concurrent.rebalance", batch, doc.rebalance,
                         policy) if policy is not None else []
    return (start, clock()), len(actions)


class Episodes:
    """What the episodes of one pass measured: one row per episode,
    plus totals the traced pass reports."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self.images: list[int] = []
        self.waited = 0.0
        self.actions = 0
        self.fsyncs = 0
        self.wal_bytes = 0
        self.replayed = 0
        self.failed = 0
        self.core = Counters()
        self.store_bytes = 0
        self.hit_rate = 0.0
        self.labels: list = []


def episode(clients: list[Client], work: WorkDir, spans: Spans,
            stats: Counters, policy: Any, expected: list,
            speed: HostSpeed, into: Episodes) -> None:
    """One episode, from a fresh service to its checked recovery."""
    traced = spans.enabled
    gc.collect()
    speed.probe()
    directory, doc, bulk, setup_span = setup(work, spans, stats)
    wal_path = os.path.join(directory, WAL_FILE)
    pages_path = os.path.join(directory, PAGES_FILE)
    for client in clients:
        client.start(bulk)
    per_round = ROUND_OPS // len(clients)
    first_batch = [len(client.marks) for client in clients]
    base = stats.snapshot()
    fsyncs = doc.wal.fsyncs
    pauses = []

    started = clock()
    for round_ in range(ROUNDS):
        header = os.path.getsize(wal_path)
        into.waited += run_clients(
            clients, doc, spans,
            [client.pos + per_round for client in clients], speed)
        into.wal_bytes += os.path.getsize(wal_path) - header
        if round_ < ROUNDS - 1:
            pause, actions = maintain(doc, spans, policy, clients[0].pos)
            pauses.append(pause)
            into.actions += actions
            if traced:
                into.images.append(sum(doc.store.blob_length(blob)
                                       for blob in doc.store.blobs()))
    phase = (started, clock())
    into.fsyncs += doc.wal.fsyncs - fsyncs
    into.core = into.core + (stats - base)

    into.replayed += doc.health()["wal_backlog"]
    spans.call("service.lifecycle", -1, doc.close)
    into.store_bytes = os.path.getsize(pages_path) + \
        os.path.getsize(wal_path)
    recoveries = []
    for attempt in range(REOPENS):
        speed.probe()
        start = clock()
        reopened = spans.call("service.recovery", -1,
                              ConcurrentDocument.open, directory,
                              sync=True, group_commit=None)
        recoveries.append((start, clock()))
        if attempt < REOPENS - 1:
            reopened.close()
    # correctness, outside every timed region
    into.failed += reopened.payloads() != expected
    if traced:
        into.labels = reopened.labels()
    into.hit_rate = reopened.store.cache_stats()["hit_rate"]
    reopened.close()
    work.discard(directory)
    into.rows.append({
        "setup": setup_span, "phase": phase,
        "ops": ROUNDS * per_round * len(clients),
        "pauses": pauses, "recoveries": recoveries,
        "marks": [mark for client, first in zip(clients, first_batch)
                  for mark in client.marks[first:]],
    })


def run_pass(name: str, seed: int, seconds: float, work: WorkDir,
             mode: str) -> dict:
    """One pass of a write workload; ``mode`` is ``plain`` (no
    instrumentation), ``obs`` (the ``repro.obs`` registry on) or
    ``traced`` (spans, live ``Counters`` and the registry)."""
    _n_clients, batch, _skewed, rebalance = WORKLOADS[name]
    traced = mode == "traced"
    spans = Spans(traced)
    started = clock()
    streams = build_streams(name, seed)
    oracle = Oracle(N_BULK)
    for ops in streams:
        oracle.apply(ops)
    expected = oracle.payloads()
    generator_s = clock() - started
    clients = [Client(ops, first_new(index), batch)
               for index, ops in enumerate(streams)]
    settle()
    stats = Counters() if traced else NULL_COUNTERS
    # each hot shard sees ~3.4x the mean write count, under the default
    # 4x trigger; once split, each half sees ~2.1x.  A trigger between
    # the two splits the same shards for every seed, where one at 2.0
    # split the halves again for some seeds and not others.  Past ~60
    # shards the page store's one-page catalog overflows.
    policy = RebalancePolicy(hot_write_ratio=2.5, max_shards=24) \
        if rebalance else None
    done = Episodes()
    speed = HostSpeed()
    if mode != "plain":
        obs.reset()
        obs.enable()
    try:
        started = clock()
        deadline = started + seconds
        while not done.rows or clock() < deadline:
            episode(clients, work, spans, stats, policy, expected, speed,
                    done)
        # thread-seconds: the caller's wall without its join waits,
        # plus the worker clients' busy time
        wall = clock() - started - done.waited + sum(
            client.busy for client in clients[1:])
        histograms = {metric: (obs.METRICS.histogram(metric) or
                               {}).get("sum", 0.0)
                      for metric in ("engine.lock_wait.seconds",
                                     "wal.commit.seconds",
                                     "query.step.seconds")}
    finally:
        if mode != "plain":
            obs.disable()
            obs.reset()

    rows = done.rows
    answers = [answer for client in clients for answer in client.answers]
    failed = done.failed + answers.count(False)
    scaled = speed.scaled
    ops = sum(row["ops"] for row in rows)
    elapsed = sum(scaled(*row["phase"]) for row in rows)
    marks = [mark for row in rows for mark in row["marks"]]
    acks = [scaled(issued, acked) for issued, _, acked, _ in marks]
    reads = [scaled(acked, answered) for _, _, acked, answered in marks]
    stale = [scaled(applied, answered)
             for _, applied, _, answered in marks]
    pauses = [[scaled(*span) for span in row["pauses"]] for row in rows]
    recoveries = [[scaled(*span) for span in row["recoveries"]]
                  for row in rows]
    metrics = {
        "setup_s": median([scaled(*row["setup"]) for row in rows]),
        "edit_ops_per_s": ops / elapsed,
        "ack_p50_ms": 1e3 * percentile(acks, 0.50),
        "ack_p95_ms": 1e3 * percentile(acks, 0.95),
        # an episode's checkpoints (and reopens) differ in cost by
        # their place in it, so a median over all of them would fall
        # between two clusters; the median episode's mean does not
        "checkpoint_pause_ms": 1e3 * median(
            [sum(each) / len(each) for each in pauses]),
        "recovery_s": median([sum(each) / REOPENS for each in recoveries]),
        "store_bytes_per_token": done.store_bytes / len(expected),
        "queries_per_s": len(reads) / elapsed,
        "query_p50_ms": 1e3 * percentile(reads, 0.50),
        "query_p95_ms": 1e3 * percentile(reads, 0.95),
        "fresh_p50_ms": 1e3 * percentile(stale, 0.50),
        "fresh_p95_ms": 1e3 * percentile(stale, 0.95),
    }
    result = {
        "metrics": metrics, "speed": speed,
        "samples": {"ack": len(acks), "query": len(reads),
                    "fresh": len(stale),
                    "checkpoint": sum(map(len, pauses)),
                    "recovery": sum(map(len, recoveries)),
                    "setup": len(rows)},
        "work": ops, "elapsed": elapsed,
        "attempted": ops + len(answers),
        "failed": failed, "spans": spans,
    }
    if traced:
        core = done.core
        bits = max(done.labels).bit_length()
        replayed = done.replayed / len(rows)
        self_times = spans.self_times()
        layers = {span + "_s": seconds_
                  for span, seconds_ in self_times.items()}
        layers.update({
            "core.count_updates_per_insert":
                core.count_updates / core.inserts,
            "core.relabels_per_insert": core.relabels / core.inserts,
            "core.splits_per_1k_inserts": 1e3 * core.splits / core.inserts,
            "core.label_bits": bits,
            "core.label_bits_over_optimum":
                label_bits_over_optimum(bits, len(done.labels)),
            "concurrent.rebalance_actions": done.actions,
            "concurrent.lock_wait_s":
                histograms["engine.lock_wait.seconds"],
            "storage.wal.fsyncs_per_1k_ops": 1e3 * done.fsyncs / ops,
            "storage.wal.bytes_per_op": done.wal_bytes / ops,
            "storage.pages.bytes_per_checkpoint":
                sum(done.images) / len(done.images) if done.images
                else 0.0,
            "storage.pages.pool_hit_rate": done.hit_rate,
            "service.recovery.ops_replayed": replayed,
            "service.recovery.replay_ops_per_s":
                replayed / metrics["recovery_s"],
            "obs.wal_commit_s": histograms["wal.commit.seconds"],
            "obs.query_step_s": histograms["query.step.seconds"],
            "bench.generator_s": generator_s,
            "bench.unattributed_s": wall - sum(self_times.values()),
        })
        result["layers"] = layers
    return result
