"""Snapshot pins: what ``ConcurrentLTree.snapshot()`` copies and defers.

A pin of a shard written since the last pin carries only copies of the
shard's label, height and tombstone columns: its live-leaf list is
derived from them on the first read that needs it, outside the writer
mutex.  A still-lazy shard is pinned with the same three columns copied
out of its stored image, plus the live list a reader of the engine
already derived from it, if any.  The tests hold every
deferred view — ``handles()``, ``labels()``,
``label_map()``, ``n_live`` — equal to the engine's at pin time, for
both kinds of shard, and unchanged by writes, a split and a merge that
land on the live engine afterwards.  Snapshot epochs are built from the
engine's own per-shard write versions, which ``compact()`` bumps.
"""

import sys
import threading
from array import array

import pytest

from repro.concurrent.engine import ConcurrentLTree
from repro.core import vectorized
from repro.core.compact import CompactLTree
from repro.core.params import LTreeParams
from repro.core.sharded import ShardedCompactLTree
from repro.labeling.scheme import LabeledDocument
from repro.order.sharded_list import ShardedListLabeling
from repro.query.columnar import ColumnarStore, evaluate_columnar
from repro.query.engine import evaluate_dom
from repro.storage.pages import PageStore
from repro.workloads.queries import xpath_battery
from repro.xml.generator import xmark_like

PARAMS = LTreeParams(f=8, s=2)


@pytest.fixture
def lazy_tree(tmp_path):
    """A ConcurrentLTree over a lazily reopened four-shard engine with a
    few tombstones in every shard."""
    engine = ShardedCompactLTree(PARAMS, n_shards=4)
    handles = engine.bulk_load([f"p{i}" for i in range(96)])
    for handle in handles[5::11]:
        engine.mark_deleted(handle)
    path = str(tmp_path / "pins.ltp")
    with PageStore(path) as store:
        engine.save(store)
    with PageStore(path) as store:
        yield ConcurrentLTree(ShardedCompactLTree.load(store))


def _engine_view(tree):
    handles = list(tree.iter_leaves(include_deleted=False))
    return (handles, tree.labels(include_deleted=False), tree.label_map(),
            len(handles))


def _pinned_view(snapshot):
    return (list(snapshot.handles()), snapshot.labels(),
            snapshot.label_map(), snapshot.n_live)


def _pinned_shards(snapshot):
    return dict(zip(snapshot.ids, snapshot._shards))


def _write_into(tree, shard_id, n_inserts=20):
    """Inserts (and one delete) anchored inside ``shard_id``."""
    anchor = next(handle for handle in
                  tree.iter_leaves(include_deleted=False)
                  if handle[0] == shard_id)
    for step in range(n_inserts):
        anchor = tree.insert_after(anchor, ("w", shard_id, step))
    tree.mark_deleted(anchor)


class TestDeferredLiveLists:
    def test_views_equal_engine_at_pin_time(self, lazy_tree):
        tree = lazy_tree
        ids = tree.shard_ids
        tree.snapshot()
        written = ids[1]
        _write_into(tree, written)
        assert tree.materialized_shards == [written]
        expected = _engine_view(tree)
        snapshot = tree.snapshot()
        pinned = _pinned_shards(snapshot)
        # no pin carries a live list yet: the written shard was pinned
        # without a leaf pass, the unchanged lazy ones reuse the pins
        # taken before any reader derived theirs
        assert all(pinned[sid].live is None for sid in ids)
        # more writes, a split and a merge land before the first read
        _write_into(tree, written)
        _write_into(tree, ids[0])
        left, right = tree.split_shard(written, 10)
        tree.merge_shards(ids[2], ids[3])
        tree.append("tail")
        assert _engine_view(tree) != expected
        assert _pinned_view(snapshot) == expected
        # derived on demand
        assert all(pinned[sid].live is not None for sid in ids)
        # and the pin never moves once derived
        tree.merge_shards(left, right)
        assert _pinned_view(snapshot) == expected

    def test_every_shard_written(self, lazy_tree):
        """A pin whose shards are all materialized (none lazy)."""
        tree = lazy_tree
        for sid in tree.shard_ids:
            _write_into(tree, sid, n_inserts=5)
        assert tree.materialized_shards == list(tree.shard_ids)
        expected = _engine_view(tree)
        snapshot = tree.snapshot()
        assert all(shard.live is None for shard in snapshot._shards)
        for sid in tree.shard_ids:
            _write_into(tree, sid, n_inserts=3)
        assert _pinned_view(snapshot) == expected
        for handle, label in expected[2].items():
            assert snapshot.label(handle) == label

    def test_label_column_matches_engine_labels(self, lazy_tree):
        """``prefix + label_column[slot]`` is the pinned global label."""
        tree = lazy_tree
        _write_into(tree, tree.shard_ids[2])
        expected = tree.label_map()
        snapshot = tree.snapshot()
        _write_into(tree, tree.shard_ids[2])
        for (sid, slot), label in expected.items():
            column = snapshot.label_column(sid)
            assert snapshot.shard_prefix(sid) + column[slot] == label
        with pytest.raises(ValueError, match="no shard"):
            snapshot.label_column(99)

    def test_concurrent_first_reads_agree(self):
        """Readers racing to derive one pinned shard's live list (more
        threads than cores, a short switch interval) all see the
        engine's view at pin time while a writer keeps going."""
        engine = ShardedCompactLTree(PARAMS, n_shards=2)
        engine.bulk_load(range(3000))
        tree = ConcurrentLTree(engine)
        _write_into(tree, tree.shard_ids[0])
        expected = _engine_view(tree)
        snapshot = tree.snapshot()
        assert all(shard.live is None for shard in snapshot._shards)
        results = []

        def read():
            results.append(_pinned_view(snapshot))

        readers = [threading.Thread(target=read) for _ in range(8)]
        writer = threading.Thread(
            target=_write_into, args=(tree, tree.shard_ids[0], 200))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers + [writer]:
                thread.start()
            for thread in readers + [writer]:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers + [writer])
        assert results == [expected] * len(readers)


class TestPinnedShardCache:
    def test_snapshots_of_one_version_share_the_pinned_shard(
            self, lazy_tree):
        tree = lazy_tree
        first = tree.snapshot()
        second = tree.snapshot()
        assert first.epoch == second.epoch
        assert all(a is b for a, b in zip(first._shards, second._shards))
        sid = tree.shard_ids[1]
        assert first.label_column(sid) is second.label_column(sid)
        _write_into(tree, sid)
        third = tree.snapshot()
        shared = [a is b for a, b in zip(first._shards, third._shards)]
        assert shared == [other != sid for other in tree.shard_ids]

    def test_epoch_is_built_from_engine_versions(self, lazy_tree):
        tree = lazy_tree
        _write_into(tree, tree.shard_ids[0])
        snapshot = tree.snapshot()
        assert snapshot.shard_versions() == tree.shard_versions() == \
            tree.engine.shard_versions()
        assert snapshot.epoch[0] == tree.epoch

    def test_compact_invalidates_every_pinned_shard(self, lazy_tree):
        """compact() rewrites every slot: the next pin must serve the
        compacted shards, not the pre-compact ones cached at the same
        shard ids."""
        tree = lazy_tree
        before = tree.snapshot()
        live_before = before.n_live
        versions = tree.shard_versions()
        tree.compact()
        after = tree.snapshot()
        assert all(after.shard_versions()[sid] > versions[sid]
                   for sid in versions)
        assert not any(a is b for a, b in zip(before._shards,
                                              after._shards))
        assert _pinned_view(after) == _engine_view(tree)
        assert after.n_live == live_before
        assert tree.tombstone_count() == 0


@pytest.fixture(params=["array", "list"])
def written_tree(request, tmp_path):
    """A ConcurrentLTree over a two-shard engine whose arenas hold
    ``array('q')`` columns (reopened) or plain lists (bulk loaded)."""
    engine = ShardedCompactLTree(PARAMS, n_shards=2)
    engine.bulk_load([f"p{i}" for i in range(400)])
    if request.param == "array":
        path = str(tmp_path / "columns.ltp")
        with PageStore(path) as store:
            engine.save(store)
            engine = ShardedCompactLTree.load(store, lazy=False)
    column_type = array if request.param == "array" else list
    for sid in engine.shard_ids:
        tree = engine._dir.shards[sid].tree
        assert type(tree._num) is column_type
        assert type(tree._height) is column_type
    return ConcurrentLTree(engine)


class TestPinOwnsItsColumns:
    """Each pinned column is a copy: a write that changes that column
    in the engine after the pin leaves the pinned view unchanged."""

    def test_relabel_leaves_pinned_labels(self, written_tree):
        tree = written_tree
        sid = tree.shard_ids[0]
        snapshot = tree.snapshot()
        column = list(snapshot.label_column(sid))
        live = list(snapshot._shards[0].live_slots())
        labels = snapshot.labels()
        anchor = (sid, live[len(live) // 2])
        for step in range(60):
            tree.insert_after(anchor, ("dense", step))
        engine_column = tree.engine._dir.shards[sid].tree._num
        assert any(engine_column[slot] != column[slot] for slot in live)
        assert list(snapshot.label_column(sid)) == column
        assert snapshot.labels() == labels

    def test_new_leaves_leave_pinned_leaf_order(self, written_tree):
        tree = written_tree
        sid = tree.shard_ids[0]
        expected = _engine_view(tree)
        leaves = tree.n_leaves
        snapshot = tree.snapshot()
        assert all(shard.live is None for shard in snapshot._shards)
        _write_into(tree, sid, n_inserts=40)
        assert tree.n_leaves == leaves + 40
        assert _pinned_view(snapshot) == expected

    def test_mark_deleted_leaves_pinned_tombstones(self, written_tree):
        tree = written_tree
        expected = _engine_view(tree)
        snapshot = tree.snapshot()
        victims = expected[0][::37]
        for victim in victims:
            tree.mark_deleted(victim)
        assert all(tree.is_deleted(victim) for victim in victims)
        assert not any(snapshot.is_deleted(victim) for victim in victims)
        assert [snapshot.label(victim) for victim in victims] == \
            [expected[2][victim] for victim in victims]
        assert _pinned_view(snapshot) == expected

    def test_pin_copies_three_columns_and_never_packs(self, written_tree,
                                                      monkeypatch):
        """A written shard is pinned as copies of its label, height and
        tombstone columns, each in the form the engine holds it, with
        no ``to_bytes`` image, link column or free list."""
        tree = written_tree
        for sid in tree.shard_ids:
            _write_into(tree, sid, n_inserts=5)
        calls = []
        original = CompactLTree.to_bytes

        def counting(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CompactLTree, "to_bytes", counting)
        snapshot = tree.snapshot()
        assert calls == []
        for sid, pinned in zip(snapshot.ids, snapshot._shards):
            engine = tree.engine._dir.shards[sid].tree
            assert pinned.tree is None and pinned.image is None
            for copy, source in ((pinned._num, engine._num),
                                 (pinned._height, engine._height)):
                assert type(copy) is type(source) and copy is not source
                assert list(copy) == list(source)
            assert type(pinned._deleted) is bytes
            assert pinned._deleted == bytes(engine._deleted)


class TestPinPastInt64:
    """The engine holds labels past int64 as exact ints; a pin copies
    them as they are."""

    WIDE = LTreeParams(f=4, s=2, label_base=2 ** 40)

    def test_pinned_labels_equal_engine(self):
        engine = ShardedCompactLTree(self.WIDE, n_shards=2)
        engine.bulk_load(range(500))
        tree = ConcurrentLTree(engine)
        snapshot = tree.snapshot()
        labels = snapshot.labels()
        assert max(labels).bit_length() > 64
        assert labels == tree.labels(include_deleted=False)
        assert snapshot.label_map() == tree.label_map()

    @pytest.mark.parametrize(
        "backend", ["array"] + (["numpy"] if vectorized.HAS_NUMPY else []))
    def test_columnar_pin_answers_like_the_dom(self, backend):
        labeled = LabeledDocument(
            xmark_like(25, 12, 9, seed=31),
            scheme=ShardedListLabeling(self.WIDE, n_shards=2))
        labeled.scheme.tree = ConcurrentLTree(labeled.scheme.tree)
        snapshot = labeled.scheme.tree.snapshot()
        assert max(snapshot.labels()).bit_length() > 64
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(labeled, snapshot)
            for query in xpath_battery(labeled.document, 8, seed=32):
                assert [id(e) for e in evaluate_columnar(store, query)] == \
                    [id(e) for e in evaluate_dom(labeled.document, query)]
