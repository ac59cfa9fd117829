"""Column passes against the per-leaf code they replaced.

A shard's leaf order is derived from its label columns
(``CompactLTree.leaf_slots``, a lazy shard's ``live_leaves``), a split
or merge product is built with one payload gather and one tombstone
gather, and each retired shard forwards through one rank column.  A
randomized stream of inserts, §4.1 runs, deletes, splits at random
points, merges, ``compact()`` and save/load (lazy and materialized)
holds each of them, on both vector backends, against what it replaced:

* the derived order — all leaves and live leaves only — equals the
  tree walk, on materialized shards and on lazily reopened images;
* every split/merge product equals a per-leaf clone built here
  (``bulk_load`` plus one ``mark_deleted`` per tombstone): the same
  byte image (labels, links, tombstones, payloads) and the same
  ``Counters``;
* every handle ever minted resolves — through the engine and through
  every ``LabelSnapshot`` pinned before later rebalances — exactly as a
  dict-based forwarding map kept here says.
"""

import random

import pytest

from repro.concurrent.engine import ConcurrentLTree
from repro.core.compact import CompactLTree
from repro.core.params import LTreeParams
from repro.core.sharded import ShardedCompactLTree
from repro.core.stats import Counters
from repro.core.vectorized import HAS_NUMPY, use_backend
from repro.storage.pages import PageStore

PARAMS = LTreeParams(f=8, s=2)

BACKENDS = ["array"] + (["numpy"] if HAS_NUMPY else [])


def _resolve(moves, members, handle):
    """The dict-based forwarding the engine used to keep: chase
    ``(id, slot) -> (id, slot)`` moves until the id is a member;
    ``None`` when the chain dead-ends."""
    sid, slot = handle
    while sid not in members:
        step = moves.get((sid, slot))
        if step is None:
            return None
        sid, slot = step
    return (sid, slot)


def _per_leaf_clone(runs):
    """The product the per-leaf code built from walked leaf runs: one
    bulk load, then one ``mark_deleted`` call per tombstone."""
    stats = Counters()
    clone = CompactLTree(PARAMS, stats)
    payloads, dead = [], []
    for tree, slots in runs:
        payloads.extend(tree.payload(slot) for slot in slots)
        dead.extend(tree.is_deleted(slot) for slot in slots)
    for slot, is_dead in zip(clone.bulk_load(payloads), dead):
        if is_dead:
            clone.mark_deleted(slot)
    return clone, stats


class _Model:
    """A ``ConcurrentLTree`` plus the oracle state the checks need."""

    def __init__(self, seed, path):
        self.rng = random.Random(seed)
        self.path = path
        engine = ShardedCompactLTree(PARAMS, n_shards=4, shard_stats=True)
        self.tree = ConcurrentLTree(engine)
        self.minted = list(self.tree.bulk_load(
            [f"p{i}" for i in range(120)]))
        #: (old id, old slot) -> (new id, new slot), one row per leaf a
        #: split or merge moved
        self.moves = {}
        #: (snapshot, {handle: (pinned (id, slot), label, deleted)},
        #: live handles and labels at pin time)
        self.pins = []
        self.step = 0

    @property
    def engine(self):
        return self.tree.engine

    def _walk(self, sid):
        return list(self.engine._dir.shards[sid].materialize()
                    .iter_leaves(include_deleted=True))

    def _anchor(self):
        return self.rng.choice(self.minted)

    # -- operations --------------------------------------------------
    def insert(self):
        anchor = self._anchor()
        if self.rng.random() < 0.5:
            self.minted.append(self.tree.insert_after(anchor,
                                                      ("i", self.step)))
        else:
            self.minted.append(self.tree.insert_before(anchor,
                                                       ("i", self.step)))

    def run(self):
        anchor = self._anchor()
        items = [("r", self.step, k) for k in range(self.rng.randint(2, 9))]
        insert = self.tree.insert_run_after if self.rng.random() < 0.5 \
            else self.tree.insert_run_before
        self.minted.extend(insert(anchor, items))

    def delete(self):
        live = [h for h in self.minted[-80:] + self.rng.sample(
            self.minted, min(20, len(self.minted)))
            if self._live(h)]
        if live:
            self.tree.mark_deleted(self.rng.choice(live))

    def _live(self, handle):
        return _resolve(self.moves, self.engine._dir.shards,
                        handle) is not None and \
            not self.tree.is_deleted(handle)

    def split(self):
        rows = [row for row in self.tree.shard_report()
                if row["leaves"] >= 2]
        if not rows:
            return
        row = self.rng.choice(rows)
        at = self.rng.randint(1, row["leaves"] - 1)
        walked = self._walk(row["id"])
        source = self.engine._dir.shards[row["id"]].tree
        clones = [_per_leaf_clone([(source, walked[:at])]),
                  _per_leaf_clone([(source, walked[at:])])]
        left, right = self.tree.split_shard(row["id"], at)
        for k, slot in enumerate(walked):
            self.moves[(row["id"], slot)] = \
                (left, k) if k < at else (right, k - at)
        for sid, clone in zip((left, right), clones):
            self._check_product(sid, *clone)

    def merge(self):
        ids = self.tree.shard_ids
        if len(ids) < 2:
            return
        position = self.rng.randrange(len(ids) - 1)
        left, right = ids[position], ids[position + 1]
        walked_left, walked_right = self._walk(left), self._walk(right)
        shards = self.engine._dir.shards
        clone = _per_leaf_clone([(shards[left].tree, walked_left),
                                 (shards[right].tree, walked_right)])
        # either argument order merges left-to-right
        pair = (left, right) if self.rng.random() < 0.5 else (right, left)
        merged = self.tree.merge_shards(*pair)
        assert self.engine.shard_ids.index(merged) == position
        for k, slot in enumerate(walked_left):
            self.moves[(left, slot)] = (merged, k)
        for k, slot in enumerate(walked_right):
            self.moves[(right, slot)] = (merged, len(walked_left) + k)
        self._check_product(merged, *clone)

    def compact(self):
        mapping = self.tree.compact()
        self.minted = list(mapping.values())
        self.moves = {}

    def reopen(self):
        lazy = self.rng.random() < 0.6
        with PageStore(self.path) as store:
            self.tree.save(store)
            engine = ShardedCompactLTree.load(store, lazy=lazy,
                                              shard_stats=True)
        self.tree = ConcurrentLTree(engine)

    def pin(self):
        snapshot = self.tree.snapshot()
        members = set(snapshot.ids)
        expect = {}
        for handle in self.minted:
            expect[handle] = (_resolve(self.moves, members, handle),
                              self.tree.num(handle),
                              self.tree.is_deleted(handle))
        view = (list(self.tree.iter_leaves(include_deleted=False)),
                self.tree.labels(include_deleted=False))
        self.pins.append((snapshot, expect, view))
        if len(self.pins) > 4:
            self.pins.pop(0)

    # -- checks ------------------------------------------------------
    def _check_product(self, sid, clone, clone_stats):
        product = self.engine._dir.shards[sid].tree
        assert product.to_bytes() == clone.to_bytes()
        assert product.stats.as_dict() == clone_stats.as_dict()

    def check_orders(self):
        for sid in self.engine.shard_ids:
            shard = self.engine._dir.shards[sid]
            if shard.is_lazy:
                walked = CompactLTree.from_bytes(shard.image)
                assert list(shard.live_slots()) == \
                    list(walked.iter_leaves(include_deleted=False))
            else:
                tree = shard.tree
                for include_deleted in (True, False):
                    assert list(tree.leaf_slots(include_deleted)) == \
                        list(tree.iter_leaves(include_deleted))
                    assert list(shard.live_slots()) == \
                        list(tree.iter_leaves(include_deleted=False))

    def check_handles(self):
        members = self.engine._dir.shards
        for handle in self.minted:
            expected = _resolve(self.moves, members, handle)
            assert expected is not None, handle
            assert self.tree.resolve_handle(handle) == expected
            assert self.tree.num(handle) == self.tree.num(expected)
        for snapshot, expect, (handles, labels) in self.pins:
            for handle, (resolved, label, deleted) in expect.items():
                assert snapshot.resolve(handle) == resolved
                assert snapshot.is_deleted(handle) == deleted
                if not deleted:
                    assert snapshot.label(handle) == label
            assert list(snapshot.handles()) == handles
            assert snapshot.labels() == labels


OPERATIONS = (("insert", 30), ("run", 8), ("delete", 12), ("split", 5),
              ("merge", 3), ("pin", 4), ("reopen", 3), ("compact", 1))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(6))
def test_column_passes_match_per_leaf_code(backend, seed, tmp_path):
    names = [name for name, _ in OPERATIONS]
    weights = [weight for _, weight in OPERATIONS]
    with use_backend(backend):
        model = _Model(seed, str(tmp_path / "columns.ltp"))
        model.pin()
        for model.step in range(160):
            name = model.rng.choices(names, weights)[0]
            if name == "merge" and model.tree.shard_count <= 2:
                name = "split"
            if name == "split" and model.tree.shard_count >= 10:
                name = "merge"
            getattr(model, name)()
            if model.step % 8 == 0 or name in ("split", "merge",
                                               "reopen", "compact"):
                model.check_orders()
                model.check_handles()
        model.check_orders()
        model.check_handles()
        model.tree.validate()
        assert model.engine.shard_splits + model.engine.shard_merges > 0
