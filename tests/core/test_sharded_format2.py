"""Stores written in the format-2 layout still open.

Format 2 stored a live-leaf sidecar blob (``{name}.s{id}.leaves``) next
to every arena image and the forwarding table as a JSON list of
``[old id, old slot, new id, new slot]`` moves in the manifest.
:func:`_save_format2` writes that layout the way ``save()`` wrote it, for
a tree that went through splits, a merge and tombstones.  The current
reader must open it — lazily or not, under ``ShardedCompactLTree.load``,
a ``ConcurrentDocument`` replaying a WAL tail and a
``LabeledDocument(concurrent=True)`` — with identical labels, live
order and payloads, resolve every pre-rebalance handle to the same
``(id, slot)`` and label, and drop the sidecars on the first save
after.
"""

import json
import random
import zlib

from repro.concurrent.service import SCHEME_BLOB, ConcurrentDocument
from repro.core.compact import _pack_int64
from repro.core.params import LTreeParams
from repro.core.sharded import MANIFEST_KIND, ShardedCompactLTree
from repro.labeling.scheme import LabeledDocument
from repro.order.sharded_list import ShardedListLabeling
from repro.storage.pages import PageStore
from repro.xml.generator import xmark_like
from repro.xml.serializer import serialize

PARAMS = LTreeParams(f=8, s=2)


def _save_format2(engine, store, moves, name="scheme",
                  include_payloads=True, extra_blobs=None):
    """Write ``engine`` as a format-2 save did: per shard the arena
    image plus a sidecar of live leaf slots walked in document order,
    a CRC of each in the manifest, and ``moves`` (the split/merge
    leaf moves, in the order they happened) as the JSON forwarding
    list — all in one catalog flip."""
    d = engine._dir
    entries = []
    puts = {}
    for sid in d.ids:
        tree = d.shards[sid].materialize()
        raw = tree.to_bytes(include_payloads=include_payloads)
        raw_leaves = _pack_int64(list(tree.iter_leaves(
            include_deleted=False)))
        puts[f"{name}.s{sid}"] = raw
        puts[f"{name}.s{sid}.leaves"] = raw_leaves
        entries.append({
            "id": sid,
            "blob": f"{name}.s{sid}",
            "leaves": f"{name}.s{sid}.leaves",
            "height": tree.height,
            "n_leaves": tree.n_leaves,
            "tombstones": tree.tombstone_count(),
            "live": len(raw_leaves) // 8,
            "checksum": zlib.crc32(raw),
            "leaves_checksum": zlib.crc32(raw_leaves),
        })
    manifest = {
        "format": 2,
        "kind": MANIFEST_KIND,
        "f": engine.params.f,
        "s": engine.params.s,
        "label_base": engine.params.base,
        "violator_policy": engine.violator_policy,
        "n_shards": engine.n_shards,
        "epoch": d.epoch,
        "next_shard_id": engine._next_shard_id,
        "directory_height": d.height,
        "directory_rebuilds": engine.directory_rebuilds,
        "shard_splits": engine.shard_splits,
        "shard_merges": engine.shard_merges,
        "forwarding": [[old_id, old_slot, new_id, new_slot]
                       for (old_id, old_slot), (new_id, new_slot)
                       in moves.items()],
        "shards": entries,
    }
    puts.update(extra_blobs or {})
    puts[name] = json.dumps(manifest).encode("utf-8")
    stale = [blob for blob in store.blobs()
             if blob.startswith(f"{name}.") and blob not in puts]
    store.put_blobs(puts, delete=stale)


def _walk(engine, sid):
    return list(engine._dir.shards[sid].materialize().iter_leaves())


def _split(owner, engine, sid, at, moves):
    """Split through ``owner`` (engine, wrapper or scheme), recording
    each moved leaf the way format 2 did."""
    walked = _walk(engine, sid)
    left, right = owner.split_shard(sid, at)
    for k, slot in enumerate(walked):
        moves[(sid, slot)] = (left, k) if k < at else (right, k - at)
    return left, right


def _merge(owner, engine, left, right, moves):
    walked_left, walked_right = _walk(engine, left), _walk(engine, right)
    merged = owner.merge_shards(left, right)
    for k, slot in enumerate(walked_left):
        moves[(left, slot)] = (merged, k)
    for k, slot in enumerate(walked_right):
        moves[(right, slot)] = (merged, len(walked_left) + k)
    return merged


def _edit(owner, handles, rng, steps, tag):
    for step in range(steps):
        anchor = rng.choice(handles)
        if rng.random() < 0.8:
            handles.append(owner.insert_after(anchor, [tag, step]))
        elif not owner.is_deleted(anchor):
            owner.mark_deleted(anchor)


def _rebalanced(seed=3):
    """An engine after edits, a split, a merge and a split of the merge
    product (a two-hop chain), with tombstones on both sides."""
    engine = ShardedCompactLTree(PARAMS, n_shards=4)
    handles = engine.bulk_load([f"p{i}" for i in range(96)])
    rng = random.Random(seed)
    moves = {}
    _edit(engine, handles, rng, 120, "a")
    _split(engine, engine, 1, 11, moves)
    merged = _merge(engine, engine, 2, 3, moves)
    _edit(engine, handles, rng, 80, "b")
    _split(engine, engine, merged, 9, moves)
    _edit(engine, handles, rng, 40, "c")
    return engine, handles, moves


def _same_tree(back, engine, handles):
    assert back.shard_ids == engine.shard_ids
    assert back.labels() == engine.labels()
    assert list(back.iter_leaves(include_deleted=False)) == \
        list(engine.iter_leaves(include_deleted=False))
    assert back.payloads() == engine.payloads()
    for handle in handles:
        assert back.resolve_handle(handle) == engine.resolve_handle(handle)
        assert back.num(handle) == engine.num(handle)


class TestShardedLoad:
    def test_format2_store_loads_lazy_and_materialized(self, tmp_path):
        engine, handles, moves = _rebalanced()
        assert any(sid not in engine.shard_ids for sid, _ in handles)
        path = str(tmp_path / "v2.ltp")
        with PageStore(path) as store:
            _save_format2(engine, store, moves)
        for lazy in (True, False):
            with PageStore(path) as store:
                back = ShardedCompactLTree.load(store, lazy=lazy)
                assert back.materialized_shards == \
                    ([] if lazy else list(engine.shard_ids))
                _same_tree(back, engine, handles)
                # the moves say where each old leaf went
                for (sid, slot), target in moves.items():
                    if target[0] in back.shard_ids:
                        assert back.resolve_handle((sid, slot)) == target
                back.validate()

    def test_first_save_drops_sidecars_and_stays_bounded(self, tmp_path):
        engine, handles, moves = _rebalanced()
        path = str(tmp_path / "v2save.ltp")
        with PageStore(path) as store:
            _save_format2(engine, store, moves)
            baseline = store.page_count
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store)
            back.save(store)
            names = list(store.blobs())
            assert not [name for name in names if name.endswith(".leaves")]
            assert "scheme.forwarding" in names
            assert json.loads(bytes(store.get_blob("scheme")))["format"] == 3
            for cycle in range(6):
                left, right = back.split_shard(back.shard_ids[1], 4)
                back.merge_shards(left, right)
                back.save(store)
            assert store.page_count <= baseline + 6
        with PageStore(path) as store:
            again = ShardedCompactLTree.load(store)
            _same_tree(again, back, handles)
            again.validate()


def test_service_replays_wal_tail_over_format2_checkpoint(tmp_path):
    directory = str(tmp_path / "svc")
    doc = ConcurrentDocument.create(directory, params=PARAMS, n_shards=4,
                                    group_commit=None)
    engine = doc.tree.engine
    handles = doc.bulk_load([f"p{i}" for i in range(96)])
    rng = random.Random(5)
    moves = {}
    _edit(doc.tree, handles, rng, 100, "a")
    _split(doc.tree, engine, 2, 7, moves)
    _merge(doc.tree, engine, 0, 1, moves)
    doc.checkpoint()
    # the same checkpoint, rewritten in the format-2 layout
    _save_format2(engine, doc.store, moves, name=SCHEME_BLOB)
    assert doc.store.has_blob("scheme.s4.leaves")
    # the WAL tail: edits and one more split above the watermark
    _edit(doc.tree, handles, rng, 60, "b")
    doc.tree.split_shard(doc.tree.shard_ids[-1], 5)
    _edit(doc.tree, handles, rng, 30, "c")
    doc.commit()
    expected = (doc.labels(), doc.payloads(),
                [doc.tree.resolve_handle(handle) for handle in handles])
    doc.close()

    reopened = ConcurrentDocument.open(directory)
    try:
        assert reopened.health()["wal_backlog"] > 0
        assert (reopened.labels(), reopened.payloads(),
                [reopened.tree.resolve_handle(handle)
                 for handle in handles]) == expected
        reopened.checkpoint()
        assert not [name for name in reopened.store.blobs()
                    if name.endswith(".leaves")]
        reopened.tree.validate()
    finally:
        reopened.close()
    again = ConcurrentDocument.open(directory)
    try:
        assert again.labels() == expected[0]
        assert again.payloads() == expected[1]
    finally:
        again.close()


def test_labeled_document_reopens_concurrent(tmp_path):
    document = xmark_like(n_items=12, n_people=6, n_auctions=5, seed=11)
    scheme = ShardedListLabeling(LTreeParams(f=16, s=4), n_shards=4)
    labeled = LabeledDocument(document, scheme=scheme)
    engine = scheme.tree
    rng = random.Random(11)
    for _ in range(4):
        victims = [element for element in document.iter_elements()
                   if element.parent is not None and
                   element.parent.parent is not None]
        labeled.delete_subtree(rng.choice(victims))
    moves = {}
    fat = max(engine.shard_report(), key=lambda row: row["leaves"])
    _split(scheme, engine, fat["id"], fat["leaves"] // 2, moves)
    path = str(tmp_path / "doc.ltp")
    labels = labeled.labels_in_order()
    text = serialize(document)
    with PageStore(path) as store:
        labeled.save(store)
        # the same save, with the scheme in the format-2 layout
        _save_format2(engine, store, moves, include_payloads=False)
        assert store.has_blob(f"scheme.s{engine.shard_ids[0]}.leaves")
    with PageStore(path) as store:
        reopened = LabeledDocument.open(store, concurrent=True)
        assert reopened.labels_in_order() == labels
        assert serialize(reopened.document) == text
        reopened.validate()
