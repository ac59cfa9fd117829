"""CompactLTree persistence: byte images, cross-restore, page stores.

Three layers:

* the struct-of-arrays byte format (``to_bytes``/``from_bytes``) must
  round-trip the *entire* engine state — labels, payloads, tombstones,
  free-list order, violator policy — so a restored engine is
  operationally indistinguishable from the original;
* the label-only snapshot must cross-restore between the node-object and
  array engines in both directions (paper §4.2: structure is implicit in
  the labels);
* the PR 1 differential harness must still hold when one side is a
  restored engine: identical future labels *and* identical future
  counters against the never-persisted reference tree.
"""

import json
import random

import pytest

from repro.core.compact import (ARRAY_FORMAT_VERSION, ARRAY_MAGIC,
                                CompactLTree)
from repro.core.ltree import LTree
from repro.core.params import FIGURE2_PARAMS, LTreeParams
from repro.core.persistence import (compact_from_labels, restore,
                                    restore_compact, snapshot)
from repro.core.stats import Counters
from repro.errors import ParameterError
from repro.storage.pages import PageStore

COUNTER_FIELDS = ("count_updates", "relabels", "splits", "inserts",
                  "deletes")


def _grown_compact(params, n_ops, seed=0, delete_every=11):
    tree = CompactLTree(params)
    leaves = list(tree.bulk_load([f"p{i}" for i in range(5)]))
    rng = random.Random(seed)
    for index in range(n_ops):
        position = rng.randrange(len(leaves))
        if delete_every and index % delete_every == delete_every - 1:
            victim = leaves[position]
            if not tree.is_deleted(victim):
                tree.mark_deleted(victim)
            continue
        leaf = tree.insert_after(leaves[position], f"x{index}")
        leaves.insert(position + 1, leaf)
    return tree


class TestByteRoundTrip:
    def test_full_state_identity(self, params):
        tree = _grown_compact(params, 400)
        back = CompactLTree.from_bytes(tree.to_bytes())
        assert back.labels() == tree.labels()
        assert back.payloads() == tree.payloads()
        assert back.labels(include_deleted=False) == \
            tree.labels(include_deleted=False)
        assert back.root == tree.root
        assert list(back._free) == list(tree._free)
        assert back.params == tree.params
        assert back.violator_policy == tree.violator_policy
        back.validate()

    def test_restored_engine_behaves_identically(self, params):
        """Same future ops -> same labels AND same maintenance costs."""
        tree = _grown_compact(params, 250, seed=3)
        back = CompactLTree.from_bytes(tree.to_bytes())
        tree_stats, back_stats = Counters(), Counters()
        tree.stats, back.stats = tree_stats, back_stats
        rng_a, rng_b = random.Random(99), random.Random(99)
        for rng, engine in ((rng_a, tree), (rng_b, back)):
            leaves = list(engine.iter_leaves())
            for index in range(300):
                position = rng.randrange(len(leaves))
                leaf = engine.insert_after(leaves[position], index)
                leaves.insert(position + 1, leaf)
        assert tree.labels() == back.labels()
        assert tree_stats.as_dict() == back_stats.as_dict()

    def test_violator_policy_survives(self):
        tree = CompactLTree(LTreeParams(f=6, s=3),
                            violator_policy="lowest")
        tree.bulk_load(range(40))
        back = CompactLTree.from_bytes(tree.to_bytes())
        assert back.violator_policy == "lowest"

    def test_free_list_order_survives(self):
        tree = _grown_compact(LTreeParams(f=8, s=2), 300, seed=5)
        # splits drain the free-list eagerly, so park recycled slots on
        # it through the engine's own allocate/release path — as
        # internal nodes, the only slots the engine ever releases
        parked = [tree._new_node(1) for _ in range(3)]
        for slot in parked:
            tree._release(slot)
        assert tree.free_slots == 3
        back = CompactLTree.from_bytes(tree.to_bytes())
        assert list(back._free) == list(tree._free)
        back.validate()  # free slots must not be reachable
        # allocating next must pop the same recycled slots in order
        a = tree.insert_after(tree.last_leaf(), "probe")
        b = back.insert_after(back.last_leaf(), "probe")
        assert a == b
        assert tree.num(a) == back.num(b)

    def test_without_payloads(self, params):
        tree = _grown_compact(params, 100)
        back = CompactLTree.from_bytes(
            tree.to_bytes(include_payloads=False))
        assert back.labels() == tree.labels()
        assert all(payload is None for payload in back.payloads())
        leaf = back.first_leaf()
        back.set_payload(leaf, ("kind", "reattached"))
        assert back.payload(leaf) == ("kind", "reattached")

    def test_labels_beyond_int64_raise_parameter_error(self):
        """Regression: huge label bases overflow the int64 columns; the
        byte format must refuse with ParameterError, not OverflowError,
        and point at the JSON snapshot that handles bignums."""
        tree = CompactLTree(LTreeParams(f=4, s=2, label_base=2 ** 40))
        tree.bulk_load(range(8))
        tree.insert_after(tree.last_leaf(), "grow")  # labels ~ base**h
        with pytest.raises(ParameterError, match="int64"):
            tree.to_bytes()
        # the JSON snapshot path still round-trips the same tree
        assert restore_compact(snapshot(tree)).labels() == tree.labels()
        tree = CompactLTree(LTreeParams(f=4, s=2))
        tree.bulk_load([object()])
        with pytest.raises(ParameterError):
            tree.to_bytes()
        # but the opt-out path still serializes
        assert isinstance(tree.to_bytes(include_payloads=False), bytes)

    def test_empty_tree(self, params):
        tree = CompactLTree(params)
        tree.bulk_load([])
        back = CompactLTree.from_bytes(tree.to_bytes())
        assert back.n_leaves == 0
        assert back.labels() == []

    def test_set_payload_rejects_internal_nodes(self):
        tree = CompactLTree(LTreeParams(f=4, s=2))
        tree.bulk_load(range(8))
        with pytest.raises(ValueError):
            tree.set_payload(tree.root, "nope")


class TestColumnAdoption:
    """from_bytes adopts array('q') columns instead of boxing to lists."""

    def test_restored_columns_are_arrays(self):
        from array import array

        tree = _grown_compact(LTreeParams(f=8, s=2), 200, seed=9)
        back = CompactLTree.from_bytes(tree.to_bytes())
        for column in (back._num, back._height, back._leaf_count,
                       back._parent, back._first_child,
                       back._next_sibling):
            assert isinstance(column, array) and column.typecode == "q"
        # adopted storage serializes back to the identical image
        assert back.to_bytes() == tree.to_bytes()

    def test_adopted_storage_supports_every_mutation(self):
        """Insert/run-insert/delete/compact on adopted array columns."""
        tree = _grown_compact(LTreeParams(f=6, s=3), 150, seed=4)
        back = CompactLTree.from_bytes(tree.to_bytes())
        for engine in (tree, back):
            leaves = list(engine.iter_leaves())
            engine.insert_run_after(leaves[3], ["r1", "r2", "r3"])
            engine.insert_before(leaves[0], "front")
            engine.mark_deleted(leaves[5])
            engine.compact()
            engine.append("tail")
        assert back.labels() == tree.labels()
        assert back.payloads() == tree.payloads()
        back.validate()

    def test_promotion_mid_relabel_loses_no_writes(self):
        """Regression: the promotion hook fires *inside* a relabel (the
        root split that first memoizes a step past the limit).  Writes
        must land in the promoted list, not a stale array alias — the
        restored tree must track a never-restored twin label-for-label
        at every step, not just after a later repairing relabel."""
        params = LTreeParams(f=4, s=2, label_base=2 ** 16)
        twin = CompactLTree(params)
        twin.bulk_load(range(4))
        back = CompactLTree.from_bytes(twin.to_bytes())
        twin_anchor = twin.last_leaf()
        back_anchor = back.last_leaf()
        for index in range(40):
            twin_anchor = twin.insert_after(twin_anchor, index)
            back_anchor = back.insert_after(back_anchor, index)
            assert back.labels() == twin.labels(), index
            back.validate()

    def test_label_column_promotes_before_int64_overflow(self):
        """Growing a restored tree past the int64 rim boxes the label
        column back to a list instead of raising OverflowError."""
        from array import array

        params = LTreeParams(f=4, s=2, label_base=2 ** 16)
        tree = CompactLTree(params)
        tree.bulk_load(range(4))
        back = CompactLTree.from_bytes(tree.to_bytes())
        assert isinstance(back._num, array)
        anchor = back.last_leaf()
        # height 4 at base 2**16 means labels beyond 2**62: storage
        # must promote mid-growth, labels must stay exact
        for index in range(80):
            anchor = back.insert_after(anchor, index)
        assert isinstance(back._num, list)
        back.validate()
        labels = back.labels()
        assert labels == sorted(labels)


class TestByteFormatValidation:
    def test_bad_magic(self):
        with pytest.raises(ParameterError):
            CompactLTree.from_bytes(b"WRONGMAG" + b"\x00" * 100)

    def test_truncated_header(self):
        with pytest.raises(ParameterError):
            CompactLTree.from_bytes(ARRAY_MAGIC)

    def test_bad_version(self):
        tree = CompactLTree(LTreeParams(f=4, s=2))
        tree.bulk_load(range(4))
        blob = bytearray(tree.to_bytes())
        blob[8:12] = (ARRAY_FORMAT_VERSION + 7).to_bytes(4, "little")
        with pytest.raises(ParameterError):
            CompactLTree.from_bytes(bytes(blob))

    def test_truncated_body(self):
        tree = CompactLTree(LTreeParams(f=4, s=2))
        tree.bulk_load(range(4))
        blob = tree.to_bytes()
        with pytest.raises(ParameterError):
            CompactLTree.from_bytes(blob[:-3])

    def test_corrupt_free_list_rejected(self):
        """Regression: a free slot outside the arena (or negative) would
        silently overwrite live nodes on the next insert."""
        import struct

        tree = CompactLTree(LTreeParams(f=4, s=2))
        tree.bulk_load(range(4))
        parked = tree._new_node(1)     # the engine only frees internals
        tree._release(parked)
        from repro.core.compact import _HEADER

        blob = bytearray(tree.to_bytes())
        n_slots = len(tree._num)
        free_offset = _HEADER.size + 8 * 6 * n_slots  # after 6 columns
        for bogus in (-2, n_slots, tree.root):
            patched = bytearray(blob)
            patched[free_offset:free_offset + 8] = struct.pack(
                "<q", bogus)
            with pytest.raises(ParameterError, match="free-list"):
                CompactLTree.from_bytes(bytes(patched))
        # the unpatched image still restores
        CompactLTree.from_bytes(bytes(blob)).validate()

    def test_empty_arena_rejected(self):
        """Regression: n_slots=0 with root=0 must fail *here*, not with
        an IndexError on first use — a real image always has a root."""
        import struct

        header = struct.pack("<8sIIqqqqqqq", ARRAY_MAGIC,
                             ARRAY_FORMAT_VERSION, 0, 4, 2, 5, 0, 0, 0, 0)
        with pytest.raises(ParameterError, match="n_slots"):
            CompactLTree.from_bytes(header)


class TestCrossRestore:
    """§4.2: one snapshot dict, two engines, identical trees."""

    def test_compact_snapshot_restores_to_both(self, params):
        tree = _grown_compact(params, 300, seed=2)
        data = snapshot(tree)
        as_node = restore(data)
        as_compact = restore_compact(data)
        assert as_node.labels() == tree.labels() == as_compact.labels()
        assert as_node.tombstone_count() == tree.tombstone_count() == \
            as_compact.tombstone_count()
        as_node.validate()
        as_compact.validate()

    def test_node_snapshot_restores_to_compact(self, params):
        tree = LTree(params)
        leaves = list(tree.bulk_load(range(6)))
        rng = random.Random(4)
        for index in range(250):
            position = rng.randrange(len(leaves))
            leaves.insert(position + 1,
                          tree.insert_after(leaves[position], index))
        as_compact = restore_compact(snapshot(tree))
        assert as_compact.labels() == tree.labels()
        as_compact.validate()

    def test_restored_engines_stay_in_lockstep(self, params):
        """After cross-restore, both engines keep producing identical
        labels and costs — structure (leaf counts) matched, not just nums."""
        source = _grown_compact(params, 200, seed=6, delete_every=0)
        data = snapshot(source)
        node_stats, compact_stats = Counters(), Counters()
        as_node = restore(data, stats=node_stats)
        as_compact = restore_compact(data, stats=compact_stats)
        node_stats.reset()
        compact_stats.reset()
        node_leaves = list(as_node.iter_leaves())
        compact_leaves = list(as_compact.iter_leaves())
        rng_a, rng_b = random.Random(13), random.Random(13)
        for index in range(200):
            pos = rng_a.randrange(len(node_leaves))
            node_leaves.insert(
                pos + 1, as_node.insert_after(node_leaves[pos], index))
            pos = rng_b.randrange(len(compact_leaves))
            compact_leaves.insert(
                pos + 1,
                as_compact.insert_after(compact_leaves[pos], index))
        assert as_node.labels() == as_compact.labels()
        assert {field: getattr(node_stats, field)
                for field in COUNTER_FIELDS} == \
            {field: getattr(compact_stats, field)
             for field in COUNTER_FIELDS}

    def test_figure2(self):
        tree = CompactLTree(FIGURE2_PARAMS)
        tree.bulk_load("A B C /C /B D /D /A".split())
        assert restore_compact(snapshot(tree)).labels() == \
            [0, 1, 3, 4, 9, 10, 12, 13]

    @pytest.mark.parametrize("policy", ["highest", "lowest"])
    def test_violator_policy_round_trips(self, policy):
        """Regression: the snapshot format must carry the policy — a
        'lowest' tree restored as 'highest' diverges on future edits."""
        params = LTreeParams(f=4, s=2)
        tree = CompactLTree(params, violator_policy=policy)
        leaves = list(tree.bulk_load(range(30)))
        data = snapshot(tree)
        assert data["violator_policy"] == policy
        as_compact = restore_compact(data)
        as_node = restore(data)
        assert as_compact.violator_policy == policy
        assert as_node.violator_policy == policy
        rngs = [random.Random(42) for _ in range(3)]
        trees = [(tree, leaves),
                 (as_compact, list(as_compact.iter_leaves())),
                 (as_node, list(as_node.iter_leaves()))]
        for rng, (engine, handles) in zip(rngs, trees):
            for index in range(60):
                position = rng.randrange(len(handles))
                handles.insert(position + 1, engine.insert_after(
                    handles[position], index))
        assert tree.labels() == as_compact.labels() == as_node.labels()

    def test_policy_validated(self):
        data = snapshot(_grown_compact(LTreeParams(f=4, s=2), 10))
        data["violator_policy"] = "middle"
        with pytest.raises(ParameterError, match="violator_policy"):
            restore_compact(data)

    def test_snapshot_json_roundtrip(self, params):
        tree = _grown_compact(params, 150)
        wire = json.dumps(snapshot(tree))
        assert restore_compact(json.loads(wire)).labels() == tree.labels()

    def test_compact_from_labels_rejects_foreign_labels(self):
        params = LTreeParams(f=4, s=2, label_base=3)
        with pytest.raises(ParameterError):
            compact_from_labels(params, 1, [(0, "a"), (2, "b")])  # gap
        with pytest.raises(ParameterError):
            compact_from_labels(params, 2, [(1, "a"), (1, "b")])  # dup
        with pytest.raises(ParameterError):
            compact_from_labels(params, 2, [(3, "a"), (1, "b")])  # order


class TestPageStoreIntegration:
    def test_save_load_through_store(self, tmp_path, params):
        tree = _grown_compact(params, 350, seed=8)
        path = str(tmp_path / "tree.ltp")
        with PageStore(path) as store:
            tree.save(store)
        for prefer_mmap in (False, True):
            with PageStore(path) as store:
                back = CompactLTree.load(store, prefer_mmap=prefer_mmap)
                assert back.labels() == tree.labels()
                assert back.payloads() == tree.payloads()
                back.validate()

    def test_resave_after_edits(self, tmp_path):
        path = str(tmp_path / "tree.ltp")
        tree = _grown_compact(LTreeParams(f=16, s=4), 100)
        with PageStore(path) as store:
            tree.save(store)
        with PageStore(path) as store:
            back = CompactLTree.load(store)
            back.insert_after(back.last_leaf(), "late edit")
            back.save(store)
        with PageStore(path) as store:
            final = CompactLTree.load(store)
            assert final.labels() == back.labels()
            assert final.payloads()[-1] == "late edit"
