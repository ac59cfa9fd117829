"""ConcurrentDocument: durability, checkpointing, crash recovery.

The acceptance property: recovery = open last checkpoint, replay the
WAL tail, and the result is bit-identical to the pre-crash state —
whatever the crash tore (a trailing WAL record, the window between a
checkpoint's save and its truncate) is either dropped by CRC or made
idempotent by the watermark that travels inside the checkpoint's
atomic catalog flip.
"""

import os
import random

import pytest

from repro.concurrent.service import (PAGES_FILE, WAL_FILE,
                                      ConcurrentDocument, apply_logged_op)
from repro.core.params import LTreeParams
from repro.core.sharded import ShardedCompactLTree
from repro.core.stats import Counters
from repro.errors import StorageError
from repro.storage.faults import FAILPOINTS, SimulatedCrash

PARAMS = LTreeParams(f=8, s=2)


def _service(tmp_path, name="svc", **kwargs):
    kwargs.setdefault("params", PARAMS)
    kwargs.setdefault("n_shards", 4)
    return ConcurrentDocument.create(str(tmp_path / name), **kwargs)


def _grow(doc, n_ops=120, seed=7):
    """A seeded mixed workload; returns the live handle list."""
    handles = doc.bulk_load([f"p{i}" for i in range(32)])
    rng = random.Random(seed)
    live = list(handles)
    for step in range(n_ops):
        index = rng.randrange(len(live))
        roll = rng.random()
        if roll < 0.6:
            live.insert(index + 1,
                        doc.insert_after(live[index], ["a", step]))
        elif roll < 0.8:
            run = [["r", step, k] for k in range(rng.randint(1, 5))]
            live[index + 1:index + 1] = \
                doc.insert_run_after(live[index], run)
        elif roll < 0.9 and len(live) > 4:
            doc.delete(live.pop(index))
        else:
            doc.set_payload(live[index], ["sp", step])
    return live


class TestLifecycle:
    def test_create_open_round_trip(self, tmp_path):
        doc = _service(tmp_path)
        _grow(doc)
        doc.commit()
        labels, payloads = doc.labels(), doc.payloads()
        doc.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.labels() == labels
            assert back.payloads() == payloads
            back.tree.validate()

    def test_create_refuses_existing_service(self, tmp_path):
        doc = _service(tmp_path)
        doc.commit()
        doc.close()
        with pytest.raises(StorageError, match="open"):
            ConcurrentDocument.create(str(tmp_path / "svc"))

    def test_open_refuses_missing_service(self, tmp_path):
        with pytest.raises(StorageError, match="create"):
            ConcurrentDocument.open(str(tmp_path / "nothing"))

    def test_close_commits_the_buffered_tail(self, tmp_path):
        doc = _service(tmp_path, group_commit=None)
        handles = doc.bulk_load(["a", "b"])
        doc.insert_after(handles[0], "a2")
        assert doc.wal.pending_records > 0
        doc.close()                              # no explicit commit
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.payloads() == ["a", "a2", "b"]

    def test_recovery_without_any_checkpoint(self, tmp_path):
        """Before the first checkpoint everything lives in the WAL."""
        doc = _service(tmp_path)
        _grow(doc, n_ops=60)
        doc.commit()
        expected = doc.labels()
        doc.close()
        store_path = str(tmp_path / "svc" / PAGES_FILE)
        assert os.path.getsize(store_path) > 0
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.checkpoint_seq == 0
            assert back.labels() == expected


class TestCheckpoint:
    def test_checkpoint_truncates_and_recovers(self, tmp_path):
        doc = _service(tmp_path)
        live = _grow(doc)
        watermark = doc.checkpoint()
        assert doc.wal.last_seq == watermark
        assert list(doc.wal.replay()) == []
        # post-checkpoint tail
        doc.insert_after(live[3], "tail-op")
        doc.commit()
        expected = doc.labels()
        payloads = doc.payloads()
        doc.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.checkpoint_seq == watermark
            assert back.labels() == expected
            assert back.payloads() == payloads

    def test_checkpoint_is_one_catalog_flip(self, tmp_path):
        """Engine state and watermark must become visible together."""
        doc = _service(tmp_path)
        _grow(doc, n_ops=40)
        seq_before = doc.store._seq
        doc.checkpoint()
        assert doc.store._seq == seq_before + 1

    def test_repeated_checkpoints(self, tmp_path):
        doc = _service(tmp_path)
        live = _grow(doc, n_ops=40)
        first = doc.checkpoint()
        doc.insert_after(live[0], "x")
        second = doc.checkpoint()
        assert second > first
        doc.insert_after(live[1], "y")
        doc.commit()
        expected = doc.labels()
        doc.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.labels() == expected
            # only the two post-checkpoint records remain in the log
            assert len(list(back.wal.replay(back.checkpoint_seq))) == 1

    def test_lazy_checkpointed_shards_stay_lazy_on_open(self, tmp_path):
        doc = _service(tmp_path)
        handles = doc.bulk_load([f"p{i}" for i in range(32)])
        doc.checkpoint(include_payloads=False)
        doc.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.tree.materialized_shards == []
            back.insert_after(handles[0], "wake")   # shard 0 only
            assert back.tree.materialized_shards == [0]


class TestCrashRecovery:
    def test_torn_wal_append_drops_only_the_tail(self, tmp_path):
        doc = _service(tmp_path)
        live = _grow(doc, n_ops=50)
        doc.commit()
        expected = doc.labels()
        # one more op whose committed record we then tear in half —
        # the crash-mid-append window
        doc.insert_after(live[5], "torn-away")
        doc.commit()
        doc.close()
        wal_path = str(tmp_path / "svc" / WAL_FILE)
        with open(wal_path, "r+b") as handle:
            handle.truncate(os.path.getsize(wal_path) - 9)
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.wal.dropped_bytes > 0
            assert back.labels() == expected
            back.tree.validate()

    def test_crash_between_save_and_truncate_never_double_applies(
            self, tmp_path):
        """The mid-checkpoint crash window: state saved + watermark
        recorded, WAL not yet truncated.  Replaying the stale records
        would corrupt the arenas (slots double-allocated); the
        watermark must mask them."""
        doc = _service(tmp_path)
        _grow(doc, n_ops=80)
        expected = doc.labels()
        n_live = len(expected)

        with FAILPOINTS.scoped():
            FAILPOINTS.arm("service:checkpoint:post-save", "crash")
            with pytest.raises(SimulatedCrash):
                doc.checkpoint()
        # process dies: release the files without tidy-up
        doc.wal._file.close()
        doc.store.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.checkpoint_seq > 0
            # the stale records are still in the log ...
            assert len(list(back.wal.replay())) > 0
            # ... but recovery skipped every one of them
            assert back.labels() == expected
            assert len(back.labels()) == n_live
            back.tree.validate()

    def test_crash_during_wal_truncate_keeps_old_log(self, tmp_path):
        doc = _service(tmp_path)
        _grow(doc, n_ops=40)
        expected = doc.labels()

        with FAILPOINTS.scoped():
            FAILPOINTS.arm("wal:truncate:pre-replace", "crash")
            with pytest.raises(SimulatedCrash):
                doc.checkpoint()
        doc.wal._file.close()
        doc.store.close()
        assert os.path.exists(
            str(tmp_path / "svc" / WAL_FILE) + ".truncate")
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.labels() == expected
            back.tree.validate()

    def test_recovered_future_edits_match_never_crashed_twin(
            self, tmp_path):
        """Recovery must restore the *engine*, not only the labels:
        subsequent edits on the recovered service behave exactly like
        on a twin that never crashed."""
        doc = _service(tmp_path)
        _grow(doc, n_ops=60, seed=13)
        doc.commit()
        doc.close()
        back = ConcurrentDocument.open(str(tmp_path / "svc"))
        twin = ShardedCompactLTree(PARAMS, n_shards=4)
        for _seq, op in back.wal.replay():
            apply_logged_op(twin, op)
        back_handles = list(back.handles())
        twin_handles = list(twin.iter_leaves(include_deleted=False))
        assert back_handles == twin_handles
        rng_a, rng_b = random.Random(99), random.Random(99)
        for rng, engine, handles in ((rng_a, back, back_handles),
                                     (rng_b, twin, twin_handles)):
            for step in range(80):
                anchor = handles[rng.randrange(len(handles))]
                handles.append(engine.insert_after(anchor, ["post", step]))
        assert back.labels() == twin.labels(include_deleted=False)
        back.close()


class TestRebalanceDurability:
    """Crash points at the rebalance WAL-record boundaries: a logical
    split/merge is atomic — wholly replayed or wholly skipped."""

    def _skewed(self, tmp_path, **kwargs):
        doc = _service(tmp_path, group_commit=None, **kwargs)
        handles = doc.bulk_load([f"p{i}" for i in range(32)])
        anchor = handles[10]                      # fatten shard 1
        for step in range(150):
            anchor = doc.insert_after(anchor, ["skew", step])
        doc.commit()
        return doc, handles

    def test_uncommitted_rebalance_record_recovers_pre_rebalance(
            self, tmp_path):
        """The record was journaled but the group-commit buffer never
        reached disk: the crash erases the rebalance wholesale."""
        doc, handles = self._skewed(tmp_path)
        expected = doc.labels()
        doc.tree.split_shard(1, 20)               # buffered, not durable
        assert doc.wal.pending_records > 0
        doc.wal._file.close()                     # die without commit
        doc.store.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.tree.shard_count == 4
            assert back.tree.shard_splits == 0
            assert back.labels() == expected
            back.tree.validate()

    def test_committed_rebalance_record_recovers_post_rebalance(
            self, tmp_path):
        """Once the split record (and an op routed into the new shard
        behind it) is committed, recovery replays both — the op can
        never precede the split that created its shard."""
        doc, handles = self._skewed(tmp_path)
        left, right = doc.tree.split_shard(1, 20)
        routed = doc.insert_after(handles[10], "into-new-shard")
        assert routed[0] in (left, right)
        doc.commit()
        expected = doc.labels()
        ids = doc.tree.shard_ids
        doc.wal._file.close()
        doc.store.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.tree.shard_ids == ids
            assert back.tree.shard_splits == 1
            assert back.labels() == expected
            assert "into-new-shard" in back.payloads()
            back.tree.validate()

    def test_torn_rebalance_record_dropped_by_crc(self, tmp_path):
        """Tearing the committed split record's tail bytes must drop the
        whole logical rebalance, not replay half of it."""
        doc, handles = self._skewed(tmp_path)
        expected = doc.labels()
        doc.tree.split_shard(1, 20)
        doc.commit()
        doc.close()
        wal_path = str(tmp_path / "svc" / WAL_FILE)
        with open(wal_path, "r+b") as handle:
            handle.truncate(os.path.getsize(wal_path) - 5)
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.wal.dropped_bytes > 0
            assert back.tree.shard_count == 4
            assert back.labels() == expected
            back.tree.validate()

    def test_merge_records_replay_like_split_records(self, tmp_path):
        doc, handles = self._skewed(tmp_path)
        merged = doc.tree.merge_shards(2, 3)
        doc.delete(handles[20])                   # chunk 2, now merged
        doc.commit()
        expected = doc.labels()
        ids = doc.tree.shard_ids
        doc.wal._file.close()
        doc.store.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.tree.shard_ids == ids
            assert back.tree.shard_merges == 1
            assert back.labels() == expected
            assert back.tree.is_deleted(handles[20])
            back.tree.validate()

    def test_crash_at_checkpoint_flip_discards_rebalance(self, tmp_path):
        """A checkpoint save that dies before its catalog flip leaves
        the store on the previous epoch; the WAL still holds the
        rebalance records, so recovery replays them — one epoch, never
        half of one."""
        doc, handles = self._skewed(tmp_path)
        doc.checkpoint()                          # durable pre-rebalance
        doc.tree.split_shard(1, 20)
        doc.commit()
        expected = doc.labels()
        ids = doc.tree.shard_ids

        with FAILPOINTS.scoped():
            FAILPOINTS.arm("service:checkpoint:post-save", "crash")
            with pytest.raises(SimulatedCrash):
                doc.checkpoint()
        doc.wal._file.close()
        doc.store.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.tree.shard_ids == ids
            assert back.labels() == expected
            back.tree.validate()

    def test_policy_rebalances_between_checkpoints_and_recovers(
            self, tmp_path):
        """A service created with a rebalance_policy runs it at every
        checkpoint; the actions land in the fresh WAL above the
        watermark and survive reopen."""
        from repro.core.sharded import RebalancePolicy

        policy = RebalancePolicy(max_ratio=2.0, min_split_leaves=16,
                                 max_shards=12)
        doc, handles = self._skewed(tmp_path, rebalance_policy=policy)
        assert doc.tree.shard_splits == 0
        doc.checkpoint()
        assert doc.tree.shard_splits > 0          # policy ran
        # the rebalance records sit in the post-checkpoint tail
        tail = [op for _seq, op in doc.wal.replay(doc.checkpoint_seq)]
        assert any(op.get("op") in ("split", "merge") for op in tail)
        doc.insert_after(handles[0], "after-policy")
        doc.commit()
        expected = doc.labels()
        ids = doc.tree.shard_ids
        doc.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.tree.shard_ids == ids
            assert back.labels() == expected
            back.tree.validate()

    def test_manual_rebalance_commits_its_records(self, tmp_path):
        from repro.core.sharded import RebalancePolicy

        doc, handles = self._skewed(tmp_path)
        performed = doc.rebalance(RebalancePolicy(max_ratio=2.0,
                                                  min_split_leaves=16))
        assert performed
        assert doc.wal.pending_records == 0       # rebalance() commits
        expected = doc.labels()
        ids = doc.tree.shard_ids
        doc.wal._file.close()
        doc.store.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.tree.shard_ids == ids
            assert back.labels() == expected

    def test_default_policy_shard_cap_fits_one_catalog_page(self,
                                                            tmp_path):
        """A directory at the default policy's ``max_shards`` — with
        3-digit shard ids, the widest catalog names a long-running
        service mints — checkpoints, reopens with identical labels, and
        keeps a CRC on every catalog span."""
        from repro.core.sharded import RebalancePolicy
        from repro.storage.pages import PageStore

        cap = RebalancePolicy().max_shards
        doc = _service(tmp_path, n_shards=1)
        doc.bulk_load([f"p{i}" for i in range(16 * cap)])
        next_id = 100
        while doc.tree.shard_count < cap:
            fat = max(doc.shard_report(), key=lambda row: row["leaves"])
            doc.tree.split_shard(fat["id"], fat["leaves"] // 2,
                                 new_ids=(next_id, next_id + 1))
            next_id += 2
        doc.checkpoint()
        expected = doc.labels()
        doc.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.tree.shard_count == cap
            assert back.labels() == expected
            back.tree.validate()
        with PageStore(str(tmp_path / "svc" / PAGES_FILE)) as store:
            assert store._catalog
            assert all(len(span) == 4 for span in store._catalog.values())

    def test_shard_report_surfaced_on_the_service(self, tmp_path):
        doc, handles = self._skewed(tmp_path)
        report = doc.shard_report()
        assert [row["id"] for row in report] == [0, 1, 2, 3]
        assert max(row["live"] for row in report) == \
            report[1]["live"]                     # the skewed shard
        doc.close()


class TestCounters:
    def test_shared_stats_sink(self, tmp_path):
        stats = Counters()
        doc = _service(tmp_path, stats=stats)
        handles = doc.bulk_load(list(range(16)))
        stats.reset()
        doc.insert_after(handles[2], "x")
        doc.insert_after(handles[12], "y")
        assert stats.inserts == 2
        doc.close()


class TestStaleHandlesAcrossBulkLoad:
    def test_stale_shard_rank_fails_like_engine_routing(self, tmp_path):
        """A handle minted before a bulk_load that shrank the shard set
        must raise ValueError from the engine's handle resolution —
        not IndexError off a stale shard list."""
        doc = _service(tmp_path)
        handles = doc.bulk_load(list(range(16)))
        stale = handles[-1]                     # shard 3
        doc.bulk_load(list(range(4)), boundaries=[2, 2])
        assert doc.tree.shard_count == 2
        with pytest.raises(ValueError, match="shard"):
            doc.insert_after(stale, "x")
        with pytest.raises(ValueError, match="shard"):
            doc.label(stale)
        # the tail append routes under the mutex: lands in the
        # *current* last shard
        leaf = doc.append("tail")
        assert leaf[0] == doc.tree.shard_count - 1
        doc.close()


class TestSnapshotPinSurvivesCheckpoint:
    def test_pinned_snapshot_immune_to_freed_span_reuse(self, tmp_path):
        """A snapshot pinned from a lazily opened service aliases
        nothing: the first checkpoint after the pin frees the pinned
        arena's span, the second writes a same-size image into those
        freed pages, and neither may change the pinned view."""
        doc = _service(tmp_path)
        handles = doc.bulk_load([f"p{i}" for i in range(32)])
        doc.checkpoint(include_payloads=False)
        doc.close()
        back = ConcurrentDocument.open(str(tmp_path / "svc"))
        assert back.tree.materialized_shards == []   # mmap-backed images
        snap = back.snapshot()
        frozen_labels = snap.labels()
        victims = handles[5], handles[6]
        assert not any(snap.is_deleted(victim) for victim in victims)
        for victim in victims:
            back.delete(victim)            # same-size arena image
            back.checkpoint(include_payloads=False)
        assert not any(snap.is_deleted(victim) for victim in victims)
        assert snap.labels() == frozen_labels
        assert snap.label(victims[0]) == frozen_labels[5]
        fresh = back.snapshot()
        assert all(fresh.is_deleted(victim) for victim in victims)
        back.close()


class TestWalWatermarkConsistency:
    def test_vanished_wal_resumes_sequence_after_watermark(self,
                                                           tmp_path):
        """A recreated WAL must continue at watermark+1 — restarting at
        sequence 1 would let the *next* recovery silently skip every
        new committed op."""
        doc = _service(tmp_path)
        handles = doc.bulk_load([f"p{i}" for i in range(16)])
        watermark = doc.checkpoint()
        doc.close()
        os.unlink(str(tmp_path / "svc" / WAL_FILE))  # partial restore
        doc2 = ConcurrentDocument.open(str(tmp_path / "svc"))
        assert doc2.wal.base_seq == watermark + 1
        doc2.insert_after(handles[0], "after-restore")
        doc2.commit()
        expected = doc2.payloads()
        doc2.close()
        with ConcurrentDocument.open(str(tmp_path / "svc")) as back:
            assert back.payloads() == expected       # op not skipped

    def test_wal_with_sequence_gap_refused(self, tmp_path):
        """A log whose first sequence number leaves a gap after the
        watermark does not belong to this checkpoint; recovering would
        silently lose the gap."""
        from repro.storage.wal import WriteAheadLog

        doc = _service(tmp_path)
        doc.bulk_load(list(range(16)))
        watermark = doc.checkpoint()
        doc.close()
        wal_path = str(tmp_path / "svc" / WAL_FILE)
        os.unlink(wal_path)
        with WriteAheadLog(wal_path) as foreign:
            foreign.truncate(watermark + 5)          # gap of 4 records
        with pytest.raises(StorageError, match="missing"):
            ConcurrentDocument.open(str(tmp_path / "svc"))
