"""The threaded differential harness — the subsystem's acceptance test.

N writer threads edit disjoint shard sets of one ``ConcurrentDocument``
while snapshot readers query it, and afterwards:

* the final labels are **bit-identical** to a *serial* replay of the
  merged WAL tape into a fresh single-threaded engine (determinism:
  the journal preserves per-shard op order, and ops on different
  shards commute);
* every snapshot a reader pinned mid-flight was internally consistent
  (strictly increasing labels, order agreeing with document order);
* per-shard :class:`~repro.core.stats.Counters` prove write isolation:
  each arena's insert/delete counts equal exactly what its owning
  writer issued — no cross-shard writes, ever;
* closing and reopening the service recovers the same state.

Everything is seeded; the whole file runs across ``SEEDS`` to cover
different interleaving pressure (the OS schedule still varies — the
point is that the *result* must not).
"""

import os
import random
import signal
import sys
import threading
import time

import pytest

from repro.concurrent.engine import _FifoLock
from repro.concurrent.service import ConcurrentDocument, apply_logged_op
from repro.core.params import LTreeParams
from repro.core.sharded import ShardedCompactLTree

PARAMS = LTreeParams(f=8, s=2)
#: override with REPRO_CONCURRENT_SEEDS="41,53,67" — how CI's stress
#: job fans the same harness across disjoint seed sets
SEEDS = [int(seed) for seed in
         os.environ.get("REPRO_CONCURRENT_SEEDS", "3,17,29").split(",")]

#: counters that prove an arena was (not) written
WRITE_FIELDS = ("count_updates", "relabels", "splits", "inserts",
                "deletes")


class WriterTape:
    """One writer's seeded op stream over its own shard set.

    Tracks what it issued per shard so the isolation check can demand
    the per-shard counters account for *exactly* these ops and nothing
    else.
    """

    def __init__(self, doc, ranks, handles, seed, n_ops):
        self.doc = doc
        self.ranks = ranks
        self.rng = random.Random(seed)
        self.n_ops = n_ops
        self.mine = [h for h in handles if h[0] in ranks]
        self.issued_inserts = {rank: 0 for rank in ranks}
        self.issued_deletes = {rank: 0 for rank in ranks}
        self.error = None

    def run(self):
        try:
            deleted = set()
            for step in range(self.n_ops):
                anchor = self.mine[self.rng.randrange(len(self.mine))]
                rank = anchor[0]
                roll = self.rng.random()
                if roll < 0.5:
                    self.mine.append(self.doc.insert_after(
                        anchor, ["a", rank, step]))
                    self.issued_inserts[rank] += 1
                elif roll < 0.7:
                    self.mine.append(self.doc.insert_before(
                        anchor, ["b", rank, step]))
                    self.issued_inserts[rank] += 1
                elif roll < 0.85:
                    run = [["r", rank, step, k]
                           for k in range(self.rng.randint(1, 6))]
                    self.mine.extend(
                        self.doc.insert_run_after(anchor, run))
                    self.issued_inserts[rank] += len(run)
                elif roll < 0.95 and anchor not in deleted:
                    self.doc.delete(anchor)
                    deleted.add(anchor)
                    self.issued_deletes[rank] += 1
                else:
                    self.doc.set_payload(anchor, ["sp", rank, step])
        except BaseException as exc:       # surfaced by the main thread
            self.error = exc


class SnapshotReader:
    """Loops zero-lock snapshot reads until told to stop."""

    def __init__(self, doc, stop):
        self.doc = doc
        self.stop = stop
        self.snapshots = 0
        self.error = None

    def run(self):
        try:
            while not self.stop.is_set():
                snap = self.doc.snapshot()
                labels = snap.labels()
                assert labels == sorted(set(labels)), \
                    "snapshot labels not strictly increasing"
                mapping = snap.label_map()
                assert len(mapping) == len(labels)
                handles = list(snap.handles())
                if len(handles) >= 2:
                    assert snap.precedes(handles[0], handles[-1])
                self.snapshots += 1
        except BaseException as exc:
            self.error = exc


def _run_concurrently(doc, handles, seed, writer_ranks, n_ops=150,
                      n_readers=2):
    """Drive the writers + readers; returns the tapes and reader stats."""
    tapes = [WriterTape(doc, ranks, handles, seed * 1000 + i, n_ops)
             for i, ranks in enumerate(writer_ranks)]
    stop = threading.Event()
    readers = [SnapshotReader(doc, stop) for _ in range(n_readers)]
    threads = [threading.Thread(target=tape.run) for tape in tapes] + \
              [threading.Thread(target=reader.run) for reader in readers]
    for thread in threads:
        thread.start()
    for thread in threads[:len(tapes)]:
        thread.join()
    stop.set()
    for thread in threads[len(tapes):]:
        thread.join()
    for worker in tapes + readers:
        if worker.error is not None:
            raise worker.error
    return tapes, readers


@pytest.mark.parametrize("seed", SEEDS)
class TestThreadedDifferential:
    def test_one_writer_per_shard_matches_serial_replay(self, tmp_path,
                                                        seed):
        doc = ConcurrentDocument.create(str(tmp_path / "svc"),
                                        params=PARAMS, n_shards=4,
                                        shard_stats=True)
        handles = doc.bulk_load([f"p{i}" for i in range(64)])
        baselines = [sink.snapshot() for sink in doc.tree.shard_counters]
        tapes, readers = _run_concurrently(
            doc, handles, seed, writer_ranks=[(0,), (1,), (2,), (3,)])
        doc.commit()

        # ---- write isolation, proven by per-shard counters ----------
        owner_of = {rank: tape for tape in tapes for rank in tape.ranks}
        for rank, (sink, base) in enumerate(
                zip(doc.tree.shard_counters, baselines)):
            delta = sink - base
            tape = owner_of[rank]
            assert delta.inserts == tape.issued_inserts[rank], rank
            assert delta.deletes == tape.issued_deletes[rank], rank

        # ---- bit-identical to a serial replay of the merged tape ----
        final_labels = doc.labels()
        final_all = doc.tree.labels(include_deleted=True)
        final_handles = list(doc.handles())
        final_payloads = doc.payloads()
        replayed = ShardedCompactLTree(PARAMS, n_shards=4)
        for _seq, op in doc.wal.replay():
            apply_logged_op(replayed, op)
        assert replayed.labels(include_deleted=False) == final_labels
        assert replayed.labels(include_deleted=True) == final_all
        assert list(replayed.iter_leaves(include_deleted=False)) == \
            final_handles
        assert replayed.payloads(include_deleted=False) == final_payloads
        assert replayed.stride == doc.tree.stride
        replayed.validate()
        doc.tree.validate()

        # ---- the readers actually read ------------------------------
        assert sum(reader.snapshots for reader in readers) > 0

        # ---- and the whole thing recovers ---------------------------
        doc.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.labels() == final_labels
            assert back.payloads() == final_payloads

    def test_two_writers_two_shards_each(self, tmp_path, seed):
        """Disjoint shard *sets* (not one-to-one): same determinism."""
        doc = ConcurrentDocument.create(str(tmp_path / "svc"),
                                        params=PARAMS, n_shards=4)
        handles = doc.bulk_load([f"q{i}" for i in range(48)])
        _run_concurrently(doc, handles, seed,
                          writer_ranks=[(0, 1), (2, 3)], n_ops=120)
        doc.commit()
        final = doc.labels()
        replayed = ShardedCompactLTree(PARAMS, n_shards=4)
        for _seq, op in doc.wal.replay():
            apply_logged_op(replayed, op)
        assert replayed.labels(include_deleted=False) == final
        replayed.validate()
        doc.close()

    def test_checkpoints_during_concurrent_writes(self, tmp_path, seed):
        """A stop-the-world checkpoint in the middle of the melee must
        neither corrupt nor lose anything: the reopened service equals
        the in-memory final state."""
        doc = ConcurrentDocument.create(str(tmp_path / "svc"),
                                        params=PARAMS, n_shards=4)
        handles = doc.bulk_load([f"c{i}" for i in range(64)])
        tapes = [WriterTape(doc, (rank,), handles, seed * 77 + rank, 120)
                 for rank in range(4)]
        threads = [threading.Thread(target=tape.run) for tape in tapes]
        for thread in threads:
            thread.start()
        watermarks = [doc.checkpoint(), doc.checkpoint()]
        for thread in threads:
            thread.join()
        for tape in tapes:
            if tape.error is not None:
                raise tape.error
        assert watermarks[1] >= watermarks[0]
        doc.commit()
        final_labels = doc.labels()
        final_payloads = doc.payloads()
        doc.tree.validate()
        doc.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.labels() == final_labels
            assert back.payloads() == final_payloads
            back.tree.validate()


class TestOnlineRebalance:
    """Split/merge under live writers: each action holds the writer
    mutex while it runs, then writers route through forwarding."""

    def test_parked_split_blocks_every_writer(self, tmp_path):
        """Deterministic, not statistical: the split is *parked* on an
        event while holding the mutex.  Writers on shard 3 and on the
        split shard 1 both wait until it commits; afterwards the one
        whose handle named shard 1 lands in a new shard via
        forwarding."""
        doc = ConcurrentDocument.create(str(tmp_path / "svc"),
                                        params=PARAMS, n_shards=4)
        handles = doc.bulk_load([f"p{i}" for i in range(64)])
        tree = doc.tree
        parked, release = threading.Event(), threading.Event()

        def hook(stage, *args):
            if stage == "split:locked":
                parked.set()
                assert release.wait(10), "split never released"

        tree.rebalance_hook = hook
        split_new = []
        splitter = threading.Thread(
            target=lambda: split_new.extend(tree.split_shard(1, 8)))
        splitter.start()
        assert parked.wait(10), "split never reached its lock"

        written = {}

        def writer(anchor, payload):
            written[payload] = doc.insert_after(anchor, payload)

        writers = [threading.Thread(target=writer,
                                    args=(handles[60], "other")),
                   threading.Thread(target=writer,
                                    args=(handles[20], "blocked"))]
        for thread in writers:
            thread.start()
        # a writer on *any* shard waits on the parked split
        writers[0].join(0.3)
        assert all(thread.is_alive() for thread in writers), \
            "a writer got past the parked split"
        assert written == {}
        release.set()
        for thread in [splitter] + writers:
            thread.join(10)
            assert not thread.is_alive()
        tree.rebalance_hook = None
        assert written["other"][0] == 3
        assert written["blocked"][0] in split_new  # routed via forwarding
        payloads = doc.tree.payloads()
        assert payloads[21] == "blocked"
        labels = doc.tree.labels()
        assert labels == sorted(labels)
        doc.tree.validate()
        doc.commit()
        doc.close()

    def test_parked_merge_blocks_every_writer(self, tmp_path):
        doc = ConcurrentDocument.create(str(tmp_path / "svc"),
                                        params=PARAMS, n_shards=4)
        handles = doc.bulk_load([f"m{i}" for i in range(64)])
        tree = doc.tree
        parked, release = threading.Event(), threading.Event()

        def hook(stage, *args):
            if stage == "merge:locked":
                parked.set()
                assert release.wait(10)

        tree.rebalance_hook = hook
        merged = []
        merger = threading.Thread(
            target=lambda: merged.append(tree.merge_shards(1, 2)))
        merger.start()
        assert parked.wait(10)
        written = []
        writer = threading.Thread(
            target=lambda: written.append(
                doc.insert_after(handles[5], "other")))   # shard 0
        writer.start()
        writer.join(0.3)
        assert writer.is_alive(), "a writer got past the parked merge"
        release.set()
        for thread in (merger, writer):
            thread.join(10)
            assert not thread.is_alive()
        tree.rebalance_hook = None
        assert written[0][0] == 0
        assert tree.shard_ids == (0, merged[0], 3)
        labels = doc.tree.labels()
        assert labels == sorted(labels)
        doc.tree.validate()
        doc.commit()
        doc.close()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_melee_with_rebalancer_matches_serial_replay(self, tmp_path,
                                                         seed):
        """Writers + snapshot readers + a policy-driven rebalancer all
        at once; afterwards the merged WAL tape — rebalance records
        included — replays serially into a fresh engine bit-identically."""
        doc = ConcurrentDocument.create(str(tmp_path / "svc"),
                                        params=PARAMS, n_shards=4)
        handles = doc.bulk_load([f"r{i}" for i in range(96)])
        # pre-skew shard 1 so the policy has real work
        anchor = handles[30]
        for step in range(200):
            anchor = doc.insert_after(anchor, ["skew", step])

        errors = []

        def writer(slice_start, seed_offset):
            try:
                rng = random.Random(seed * 31 + seed_offset)
                mine = handles[slice_start:slice_start + 20]
                deleted = set()
                for step in range(120):
                    index = rng.randrange(len(mine))
                    roll = rng.random()
                    if roll < 0.7:
                        mine.append(doc.insert_after(
                            mine[index], [seed_offset, step]))
                    elif roll < 0.9 and index not in deleted:
                        doc.delete(mine[index])
                        deleted.add(index)
                    else:
                        doc.set_payload(mine[index],
                                        ["sp", seed_offset, step])
            except BaseException as exc:
                errors.append(exc)

        performed = []

        def rebalancer():
            try:
                from repro.core.sharded import RebalancePolicy
                policy = RebalancePolicy(max_ratio=2.0,
                                         min_split_leaves=16,
                                         max_shards=12)
                for _ in range(3):
                    performed.extend(doc.rebalance(policy))
            except BaseException as exc:
                errors.append(exc)

        stop = threading.Event()
        readers = [SnapshotReader(doc, stop) for _ in range(2)]
        threads = [threading.Thread(target=writer, args=(start, k))
                   for k, start in enumerate((0, 24, 48, 72))]
        threads.append(threading.Thread(target=rebalancer))
        reader_threads = [threading.Thread(target=reader.run)
                          for reader in readers]
        for thread in threads + reader_threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        for thread in reader_threads:
            thread.join()
        for reader in readers:
            if reader.error is not None:
                raise reader.error
        if errors:
            raise errors[0]
        assert performed, "the rebalancer never found work"
        doc.commit()

        final_live = doc.labels()
        final_all = doc.tree.labels(include_deleted=True)
        final_payloads = doc.payloads()
        replayed = ShardedCompactLTree(PARAMS, n_shards=4)
        for _seq, op in doc.wal.replay():
            apply_logged_op(replayed, op)
        assert replayed.labels(include_deleted=False) == final_live
        assert replayed.labels(include_deleted=True) == final_all
        assert replayed.payloads(include_deleted=False) == final_payloads
        assert replayed.shard_ids == doc.tree.shard_ids
        assert replayed.epoch == doc.tree.epoch
        replayed.validate()
        doc.tree.validate()
        doc.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.labels() == final_live
            assert back.tree.shard_ids == replayed.shard_ids

    def test_pinned_snapshot_unmoved_by_rebalance(self, tmp_path):
        """A LabelSnapshot pinned before a split/merge keeps serving the
        pinned epoch: identical labels, identical resolution, while the
        live tree moves on."""
        doc = ConcurrentDocument.create(str(tmp_path / "svc"),
                                        params=PARAMS, n_shards=4)
        handles = doc.bulk_load([f"s{i}" for i in range(64)])
        snap = doc.snapshot()
        frozen = snap.labels()
        frozen_map = snap.label_map()
        old = handles[20]                         # shard 1
        left, right = doc.tree.split_shard(1, 8)
        doc.tree.merge_shards(2, 3)
        doc.insert_after(handles[60], "after-rebalance")
        # the pinned view: byte-for-byte where it was
        assert snap.labels() == frozen
        assert snap.label_map() == frozen_map
        assert snap.resolve(old) == old           # pinned membership
        assert snap.shard_count == 4
        # a fresh snapshot sees the new epoch
        after = doc.snapshot()
        assert after.epoch != snap.epoch
        assert after.resolve(old)[0] in (left, right)
        labels = after.labels()
        assert labels == sorted(labels)
        assert len(labels) == len(frozen) + 1
        doc.commit()
        doc.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_snapshot_epochs_are_stable(tmp_path, seed):
    """A snapshot pinned before a write never moves; one pinned after
    sees exactly the write.  (Single-threaded by construction — the
    property the readers above rely on.)"""
    doc = ConcurrentDocument.create(str(tmp_path / "svc"),
                                    params=PARAMS, n_shards=4)
    handles = doc.bulk_load(list(range(32)))
    rng = random.Random(seed)
    before = doc.snapshot()
    frozen = before.labels()
    for step in range(40):
        anchor = handles[rng.randrange(len(handles))]
        handles.append(doc.insert_after(anchor, step))
        assert before.labels() == frozen        # pinned, immutable
    after = doc.snapshot()
    assert after.labels() == doc.labels()
    assert after.epoch != before.epoch
    # unchanged shards reuse their pinned image: a third snapshot with
    # no writes in between is bit-identical and epoch-equal
    again = doc.snapshot()
    assert again.epoch == after.epoch
    assert again.labels() == after.labels()
    doc.close()


class TestWriterMutex:
    """The engine's one mutex: exclusive under preemption, handed over
    in arrival order, and intact after an interrupted wait."""

    def test_exclusive_under_preemption(self):
        lock = _FifoLock()
        counter = [0]

        def bump():
            for _ in range(500):
                with lock:
                    value = counter[0]
                    counter[0] = value + 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counter[0] == 8 * 500

    def test_waiters_served_in_arrival_order(self):
        """A release goes to the longest waiter: the releasing thread
        asking again at once queues behind every parked thread (a plain
        ``threading.Lock`` lets it barge back in)."""
        lock = _FifoLock()
        order = []

        def waiter(name):
            with lock:
                order.append(name)

        threads = []
        with lock:
            for name in ("a", "b", "c"):
                thread = threading.Thread(target=waiter, args=(name,))
                thread.start()
                threads.append(thread)
                deadline = time.monotonic() + 10
                while len(lock._gates) < len(threads):   # parked
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
        with lock:
            order.append("releaser")
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert order == ["a", "b", "c", "releaser"]

    @pytest.mark.skipif(not hasattr(signal, "setitimer"),
                        reason="needs POSIX interval timers")
    def test_interrupted_wait_leaves_the_lock_usable(self):
        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        lock = _FifoLock()
        held, release = threading.Event(), threading.Event()

        def holder():
            with lock:
                held.set()
                release.wait(10)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(10)
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            with pytest.raises(Interrupted):
                with lock:
                    pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert not lock._gates          # the abandoned gate left the queue
        release.set()
        thread.join(10)
        assert not thread.is_alive()
        assert not lock._held           # released, not handed to a ghost
        with lock:
            pass
