"""ShardedCompactLTree: routing, isolation, directory, persistence.

The contract under test, in order of importance:

* **write isolation** — an insert anchored in one shard never writes
  another shard's arena, proven through per-shard ``Counters``
  (``shard_stats=True`` gives every arena its own sink);
* **global order** — shard-prefix ⊕ local-label composition keeps the
  concatenated label sequence strictly increasing across shard
  boundaries, before and after directory (stride) growth;
* **shard-lazy persistence** — save/load round-trips bit-identical
  labels with one ``LTREEARR`` blob span per shard, and a lazy reopen
  materializes only the shards that are actually written.
"""

import json
import random

import pytest

from repro.core.compact import CompactLTree
from repro.core.params import LTreeParams
from repro.core.sharded import RebalancePolicy, ShardedCompactLTree
from repro.core.stats import Counters
from repro.errors import InvariantViolation, ParameterError
from repro.storage.pages import PageStore

PARAMS = LTreeParams(f=8, s=2)

#: counters that prove an arena was (not) written
WRITE_FIELDS = ("count_updates", "relabels", "splits", "inserts",
                "deletes")


def _sharded(n_items=64, n_shards=4, params=PARAMS, **kwargs):
    tree = ShardedCompactLTree(params, n_shards=n_shards, **kwargs)
    handles = tree.bulk_load([f"p{i}" for i in range(n_items)])
    return tree, handles


class TestRoutingAndOrder:
    def test_bulk_load_splits_into_contiguous_shards(self):
        tree, handles = _sharded(64, 4)
        assert tree.shard_count == 4
        ranks = [rank for rank, _ in handles]
        assert ranks == sorted(ranks)            # contiguous chunks
        assert {rank: ranks.count(rank) for rank in set(ranks)} == \
            {0: 16, 1: 16, 2: 16, 3: 16}
        assert tree.payloads() == [f"p{i}" for i in range(64)]

    def test_fewer_items_than_shards(self):
        tree, handles = _sharded(3, 8)
        assert tree.shard_count == 3
        assert len(handles) == 3

    def test_empty_bulk_load(self):
        tree, handles = _sharded(0, 4)
        assert handles == []
        assert tree.shard_count == 1
        assert tree.n_leaves == 0
        leaf = tree.append("first")
        assert tree.payload(leaf) == "first"

    def test_labels_strictly_increasing_across_boundaries(self):
        tree, handles = _sharded(100, 8)
        labels = [tree.num(handle) for handle in handles]
        assert labels == sorted(set(labels))
        tree.validate()

    def test_inserts_route_to_anchor_shard(self):
        tree, handles = _sharded(40, 4)
        anchor = handles[25]                      # shard 2
        leaf = tree.insert_after(anchor, "new")
        assert leaf[0] == anchor[0] == 2
        before = tree.insert_before(handles[0], "front")
        assert before[0] == 0
        assert tree.num(before) < tree.num(handles[0])

    def test_append_prepend_route_to_edge_shards(self):
        tree, handles = _sharded(40, 4)
        tail = tree.append("tail")
        head = tree.prepend("head")
        assert tail[0] == 3 and head[0] == 0
        labels = tree.labels()
        assert labels == sorted(labels)
        assert tree.payloads()[0] == "head"
        assert tree.payloads()[-1] == "tail"

    def test_run_insert_stays_in_one_shard(self):
        tree, handles = _sharded(40, 4)
        run = tree.insert_run_after(handles[12], [f"r{i}"
                                                  for i in range(30)])
        assert {rank for rank, _ in run} == {handles[12][0]}
        tree.validate()

    def test_mixed_ops_match_list_oracle(self):
        tree, handles = _sharded(16, 4)
        oracle = [f"p{i}" for i in range(16)]
        rng = random.Random(7)
        for step in range(800):
            index = rng.randrange(len(handles))
            roll = rng.random()
            if roll < 0.45:
                handles.insert(index, tree.insert_before(
                    handles[index], ("b", step)))
                oracle.insert(index, ("b", step))
            elif roll < 0.9:
                handles.insert(index + 1, tree.insert_after(
                    handles[index], ("a", step)))
                oracle.insert(index + 1, ("a", step))
            else:
                run = [("r", step, k) for k in range(rng.randint(1, 9))]
                handles[index + 1:index + 1] = \
                    tree.insert_run_after(handles[index], run)
                oracle[index + 1:index + 1] = run
        assert tree.payloads() == oracle
        labels = [tree.num(handle) for handle in handles]
        assert labels == sorted(labels)
        tree.validate()

    def test_find_leaf_by_global_label(self):
        tree, handles = _sharded(50, 4)
        for handle in handles[::7]:
            assert tree.find_leaf(tree.num(handle)) == handle
        assert tree.find_leaf(tree.label_space + 5) is None
        assert tree.find_leaf(-1) is None

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ParameterError):
            ShardedCompactLTree(PARAMS, n_shards=0)


class TestWriteIsolation:
    """The acceptance property: one insert, one arena written."""

    def test_insert_writes_exactly_one_arena(self):
        tree, handles = _sharded(64, 4, shard_stats=True)
        counters = tree.shard_counters
        baselines = [sink.snapshot() for sink in counters]
        anchor = handles[40]                      # shard 2
        for index in range(50):
            anchor = tree.insert_after(anchor, ("x", index))
        assert anchor[0] == 2
        for rank, (sink, baseline) in enumerate(zip(counters,
                                                    baselines)):
            delta = sink - baseline
            touched = any(getattr(delta, field) for field in
                          WRITE_FIELDS)
            assert touched == (rank == 2), (rank, delta.as_dict())

    def test_runs_and_deletes_stay_shard_local(self):
        tree, handles = _sharded(64, 4, shard_stats=True)
        counters = tree.shard_counters
        baselines = [sink.snapshot() for sink in counters]
        tree.insert_run_after(handles[5], list(range(40)))   # shard 0
        tree.mark_deleted(handles[7])                        # shard 0
        for rank in (1, 2, 3):
            delta = counters[rank] - baselines[rank]
            assert all(getattr(delta, field) == 0
                       for field in WRITE_FIELDS), rank

    def test_shared_sink_aggregates_like_flat_engine(self):
        """Without shard_stats, one Counters sees every shard's work."""
        stats = Counters()
        tree = ShardedCompactLTree(PARAMS, stats, n_shards=4)
        handles = tree.bulk_load(range(32))
        stats.reset()
        tree.insert_after(handles[3], "a")
        tree.insert_after(handles[20], "b")
        assert stats.inserts == 2
        assert stats.count_updates > 0


class TestDirectory:
    def test_stride_grows_with_tallest_shard(self):
        tree, handles = _sharded(8, 4, params=LTreeParams(f=4, s=2))
        stride_before = tree.stride
        anchor = handles[3]                       # grow shard 1 only
        for index in range(200):
            anchor = tree.insert_after(anchor, index)
        assert tree.stride > stride_before
        assert tree.directory_rebuilds > 0
        assert tree.stride == \
            tree.params.base ** tree.directory_height
        labels = tree.labels()
        assert labels == sorted(labels)
        tree.validate()

    def test_compact_shrinks_directory(self):
        tree, handles = _sharded(8, 4, params=LTreeParams(f=4, s=2))
        anchor = handles[3]
        extra = [tree.insert_after(anchor, index) for index in range(100)]
        grown_stride = tree.stride
        for handle in extra:
            tree.mark_deleted(handle)
        mapping = tree.compact()
        assert tree.stride <= grown_stride
        assert tree.tombstone_count() == 0
        assert tree.n_leaves == 8
        assert set(mapping) >= set()              # old -> new handles
        tree.validate()

    def test_compact_remaps_handles_per_shard(self):
        tree, handles = _sharded(24, 3)
        tree.mark_deleted(handles[5])
        tree.mark_deleted(handles[15])
        live_before = [tree.payload(h) for h in
                       tree.iter_leaves(include_deleted=False)]
        mapping = tree.compact()
        assert all(old[0] == new[0] for old, new in mapping.items())
        live_after = [tree.payload(h) for h in
                      tree.iter_leaves(include_deleted=False)]
        assert live_after == live_before


class TestPersistence:
    def _grown(self, tmp_path, n_shards=4, seed=11):
        tree, handles = _sharded(48, n_shards, shard_stats=False)
        rng = random.Random(seed)
        for step in range(300):
            index = rng.randrange(len(handles))
            if rng.random() < 0.9:
                handles.insert(index + 1, tree.insert_after(
                    handles[index], ("s", step)))
            elif not tree.is_deleted(handles[index]):
                tree.mark_deleted(handles[index])
        path = str(tmp_path / "sharded.ltp")
        return tree, handles, path

    def test_save_load_bit_identical(self, tmp_path):
        tree, handles, path = self._grown(tmp_path)
        with PageStore(path) as store:
            tree.save(store)
            names = list(store.blobs())
        # one LTREEARR blob span per shard plus the manifest: no
        # live-leaf sidecars, and no forwarding blob before a rebalance
        assert sorted(names) == ["scheme"] + [
            f"scheme.s{rank}" for rank in range(tree.shard_count)]
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store, lazy=False)
            assert back.labels() == tree.labels()
            assert back.labels(include_deleted=False) == \
                tree.labels(include_deleted=False)
            assert list(back.iter_leaves()) == list(tree.iter_leaves())
            assert back.stride == tree.stride
            back.validate()

    def test_lazy_load_materializes_only_written_shards(self, tmp_path):
        tree, handles, path = self._grown(tmp_path)
        labels_before = tree.labels(include_deleted=False)
        with PageStore(path) as store:
            tree.save(store)
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store)   # lazy default
            assert back.materialized_shards == []
            # pure label reads never deserialize an arena
            assert back.labels(include_deleted=False) == labels_before
            assert back.label_map() is not None
            live = list(back.iter_leaves(include_deleted=False))
            assert back.materialized_shards == []
            # one write -> exactly that arena materializes
            anchor = next(handle for handle in live if handle[0] == 2)
            back.insert_after(anchor, "wake shard 2")
            assert back.materialized_shards == [2]
            back.validate()                          # wakes the rest

    def test_lazy_reopen_then_save_copies_untouched_images(self,
                                                           tmp_path):
        tree, handles, path = self._grown(tmp_path)
        with PageStore(path) as store:
            tree.save(store)
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store)
            live = list(back.iter_leaves(include_deleted=False))
            anchor = next(handle for handle in live if handle[0] == 1)
            back.insert_after(anchor, "gen 2")
            back.save(store)                         # 3 shards still lazy
            assert back.materialized_shards == [1]
        with PageStore(path) as store:
            third = ShardedCompactLTree.load(store, lazy=False)
            assert third.labels() == back.labels()
            third.validate()

    def test_lazy_label_reads_match_materialized(self, tmp_path):
        tree, handles, path = self._grown(tmp_path)
        with PageStore(path) as store:
            tree.save(store)
        with PageStore(path) as store:
            lazy = ShardedCompactLTree.load(store)
            eager = ShardedCompactLTree.load(store, lazy=False)
            assert lazy.label_map() == eager.label_map()
            sample = list(eager.iter_leaves(include_deleted=False))[::5]
            for handle in sample:
                assert lazy.num(handle) == eager.num(handle)
                assert lazy.is_deleted(handle) == \
                    eager.is_deleted(handle)
            assert lazy.materialized_shards == []

    def test_restored_future_edits_match_never_saved_twin(self,
                                                          tmp_path):
        tree, handles, path = self._grown(tmp_path, seed=29)
        with PageStore(path) as store:
            tree.save(store)
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store)
        twin_handles = list(tree.iter_leaves())
        back_handles = list(back.iter_leaves())
        assert twin_handles == back_handles
        rng_a, rng_b = random.Random(41), random.Random(41)
        for rng, engine, hs in ((rng_a, tree, twin_handles),
                                (rng_b, back, back_handles)):
            for step in range(200):
                index = rng.randrange(len(hs))
                hs.insert(index + 1, engine.insert_after(
                    hs[index], ("post", step)))
        assert back.labels() == tree.labels()
        back.validate()

    def test_resave_with_fewer_shards_drops_stale_blobs(self, tmp_path):
        """A re-bulk_load can shrink the shard count; re-saving must not
        leave the dead arenas' blobs catalog-live (they would survive
        every vacuum)."""
        tree, _ = _sharded(48, 6)
        path = str(tmp_path / "shrink.ltp")
        with PageStore(path) as store:
            tree.save(store)
            assert store.has_blob("scheme.s5")
            tree.n_shards = 2
            tree.bulk_load(range(9))
            assert tree.shard_count == 2
            tree.save(store)
            names = [name for name in store.blobs()
                     if name.startswith("scheme.s")]
            assert names == ["scheme.s0", "scheme.s1"]
            store.vacuum()
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store, lazy=False)
            assert back.labels() == tree.labels()

    def test_resave_cleanup_survives_crashed_earlier_cleanup(
            self, tmp_path):
        """A cleanup interrupted mid-way leaves gaps in the stale rank
        sequence; the next save must still drop every stale blob
        instead of stopping at the first gap."""
        tree, _ = _sharded(48, 6)
        path = str(tmp_path / "gap.ltp")
        with PageStore(path) as store:
            tree.save(store)
            tree.n_shards = 2
            tree.bulk_load(range(9))
            # simulate the crash window: ranks 3 and 4 dropped, ranks 2
            # and 5 left behind
            store.delete_blob("scheme.s3")
            store.delete_blob("scheme.s4")
            tree.save(store)
            names = [blob for blob in store.blobs()
                     if blob.startswith("scheme.s")]
            assert names == ["scheme.s0", "scheme.s1"]
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store, lazy=False)
            assert back.labels() == tree.labels()

    def test_save_is_one_catalog_flip_on_page_store(self, tmp_path):
        """The whole save batch — arenas, forwarding, manifest —
        becomes visible under a single catalog flip."""
        tree, _ = _sharded(24, 3)
        path = str(tmp_path / "flip.ltp")
        with PageStore(path) as store:
            seq_before = store._seq
            tree.save(store)
            assert store._seq == seq_before + 1

    def test_manifest_kind_checked(self, tmp_path):
        path = str(tmp_path / "bad.ltp")
        with PageStore(path) as store:
            store.put_blob("scheme", b'{"kind": "something-else"}')
            with pytest.raises(ParameterError, match="manifest"):
                ShardedCompactLTree.load(store)

    @pytest.mark.parametrize("record, key", [
        *(("manifest", key) for key in (
            "f", "s", "label_base", "violator_policy", "n_shards",
            "epoch", "next_shard_id", "directory_height",
            "directory_rebuilds", "shard_splits", "shard_merges",
            "forwarding", "shards")),
        *(("shard", key) for key in (
            "id", "blob", "checksum", "height", "n_leaves", "tombstones",
            "live")),
        *(("forwarding", key) for key in ("blob", "checksum", "entries")),
    ])
    def test_manifest_missing_key_checked(self, tmp_path, record, key):
        """A manifest that lacks a key load reads — at the top level, in
        a shard entry or in the forwarding spec — raises a typed error
        naming the blob and the key, not a bare KeyError."""
        tree, _ = _sharded(24, 3)
        tree.split_shard(1, 4)
        path = str(tmp_path / "keys.ltp")
        with PageStore(path) as store:
            tree.save(store)
            manifest = json.loads(bytes(store.get_blob("scheme")))
            target = {"manifest": manifest,
                      "shard": manifest["shards"][1],
                      "forwarding": manifest["forwarding"]}[record]
            del target[key]
            store.put_blob("scheme", json.dumps(manifest).encode())
            with pytest.raises(ParameterError,
                               match=f"'scheme'.* lacks the key '{key}'"):
                ShardedCompactLTree.load(store)

    @pytest.mark.parametrize("opener", ["labeled", "service"])
    def test_manifest_missing_key_checked_on_document_open(self, tmp_path,
                                                           opener):
        from repro.concurrent.service import PAGES_FILE, ConcurrentDocument
        from repro.labeling.scheme import LabeledDocument
        from repro.order.registry import make_scheme
        from repro.xml.parser import parse

        if opener == "labeled":
            path = str(tmp_path / "doc.ltp")
            LabeledDocument(parse("<a><b/><c><d/></c></a>"),
                            scheme=make_scheme("ltree-sharded")).save(path)
            reopen = lambda: LabeledDocument.open(path)     # noqa: E731
        else:
            directory = str(tmp_path / "svc")
            path = str(tmp_path / "svc" / PAGES_FILE)
            with ConcurrentDocument.create(directory, n_shards=2) as doc:
                doc.bulk_load([f"p{i}" for i in range(16)])
                doc.checkpoint()
            reopen = lambda: ConcurrentDocument.open(directory)  # noqa
        with PageStore(path) as store:
            manifest = json.loads(bytes(store.get_blob("scheme")))
            del manifest["epoch"]
            store.put_blob("scheme", json.dumps(manifest).encode())
        with pytest.raises(ParameterError, match="lacks the key 'epoch'"):
            reopen()

    def test_manifest_format_checked(self, tmp_path):
        """Formats 1 and 2 (rank-ordered shards, live-leaf sidecars, a
        JSON forwarding list) are no longer read: a manifest that names
        one is refused, not reinterpreted."""
        tree, _ = _sharded(24, 3)
        path = str(tmp_path / "old.ltp")
        with PageStore(path) as store:
            tree.save(store)
            manifest = json.loads(bytes(store.get_blob("scheme")))
            for version in (1, 2):
                manifest["format"] = version
                store.put_blob("scheme", json.dumps(manifest).encode())
                with pytest.raises(ParameterError,
                                   match=f"format {version}"):
                    ShardedCompactLTree.load(store)

    def test_live_count_checked_on_first_derivation(self, tmp_path):
        """No sidecar is stored, so the manifest's live count is the
        check: an image whose live leaves disagree with it raises when
        the lazy shard first derives its live list, and a torn arena
        still fails its manifest CRC at load, before any lazy read."""
        tree, handles = _sharded(24, 3)
        tree.mark_deleted(handles[9])
        path = str(tmp_path / "live.ltp")
        with PageStore(path) as store:
            tree.save(store)
            good = bytes(store.get_blob("scheme"))
            manifest = json.loads(good)
            manifest["shards"][1]["live"] += 1
            store.put_blob("scheme", json.dumps(manifest).encode())
            back = ShardedCompactLTree.load(store)
            # point reads never derive a live list
            assert back.num(handles[9]) == tree.num(handles[9])
            with pytest.raises(ParameterError, match="live leaves"):
                back.labels(include_deleted=False)
            store.put_blob("scheme", good)
            arena = bytes(store.get_blob("scheme.s1"))
            torn = bytearray(arena)
            torn[len(torn) // 2] ^= 0xFF
            store.put_blob("scheme.s1", bytes(torn))
            with pytest.raises(ParameterError, match="checksum"):
                ShardedCompactLTree.load(store)
            store.put_blob("scheme.s1", arena)
            back = ShardedCompactLTree.load(store)
            assert back.labels(include_deleted=False) == \
                tree.labels(include_deleted=False)

    def test_flat_and_sharded_coexist_in_one_store(self, tmp_path):
        """Blob namespacing: a flat engine and a sharded one share a
        PageStore without clobbering each other."""
        flat = CompactLTree(PARAMS)
        flat.bulk_load(range(20))
        sharded, _ = _sharded(20, 3)
        path = str(tmp_path / "both.ltp")
        with PageStore(path) as store:
            flat.save(store, name="flat")
            sharded.save(store, name="shardy")
        with PageStore(path) as store:
            assert CompactLTree.load(store, name="flat").labels() == \
                flat.labels()
            back = ShardedCompactLTree.load(store, name="shardy",
                                            lazy=False)
            assert back.labels() == sharded.labels()


class TestLazySaveFidelity:
    """save() must never copy a lazy image whose bytes would lie."""

    def _saved(self, tmp_path, include_payloads=True):
        tree, handles = _sharded(24, 3)
        path = str(tmp_path / "lazy.ltp")
        with PageStore(path) as store:
            tree.save(store, include_payloads=include_payloads)
        return tree, handles, path

    def test_pending_payload_survives_lazy_save(self, tmp_path):
        """The reviewed data-loss bug: lazy load -> set_payload ->
        save(include_payloads=True) must persist the new payload, not
        silently re-save the stale image."""
        tree, handles, path = self._saved(tmp_path)
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store)
            target = handles[0]
            assert back.materialized_shards == []
            back.set_payload(target, "rewritten while lazy")
            assert back.materialized_shards == []    # still buffered
            back.save(store)
            # only the shard with pending payloads had to wake up
            assert back.materialized_shards == [target[0]]
        with PageStore(path) as store:
            third = ShardedCompactLTree.load(store, lazy=False)
            assert third.payload(target) == "rewritten while lazy"

    def test_lazy_save_honors_include_payloads(self, tmp_path):
        """Dropping payloads from a payload-carrying lazy image must
        re-serialize the arena, not copy the image flag and all."""
        tree, handles, path = self._saved(tmp_path)
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store)
            back.save(store, include_payloads=False)
        with PageStore(path) as store:
            third = ShardedCompactLTree.load(store, lazy=False)
            assert third.labels() == tree.labels()
            assert all(third.payload(handle) is None
                       for handle in third.iter_leaves())

    def test_payload_free_save_stays_lazy_despite_pending(self, tmp_path):
        """The document layer reattaches payloads to every live handle
        on open() and saves with include_payloads=False; that cycle
        must keep untouched shards unmaterialized."""
        tree, handles, path = self._saved(tmp_path,
                                          include_payloads=False)
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store)
            for handle in back.iter_leaves(include_deleted=False):
                back.set_payload(handle, ("reattached", handle))
            back.save(store, include_payloads=False)
            assert back.materialized_shards == []
            # the buffered payloads are still live in memory
            assert back.payload(handles[0]) == ("reattached", handles[0])

    def test_lazy_reads_bound_check_like_materialized(self, tmp_path):
        tree, handles, path = self._saved(tmp_path)
        with PageStore(path) as store:
            lazy = ShardedCompactLTree.load(store)
            eager = ShardedCompactLTree.load(store, lazy=False)
            for bogus in ((0, 10 ** 6), (1, -1)):
                with pytest.raises(IndexError):
                    lazy.num(bogus)
                with pytest.raises(IndexError):
                    lazy.is_deleted(bogus)
                with pytest.raises(IndexError):
                    eager.num((0, 10 ** 6))
            assert lazy.materialized_shards == []

    def test_torn_arena_image_detected_on_load(self, tmp_path):
        """A same-length corruption of an arena image (a disk that
        flips bits) must fail the manifest CRC, not deserialize garbage
        labels."""
        tree, handles, path = self._saved(tmp_path)
        with PageStore(path) as store:
            good = bytes(store.get_blob("scheme.s1"))
            torn = bytearray(good)
            # flip bytes inside the label column, keeping the header
            # (and therefore read_array_header) perfectly happy
            middle = len(torn) // 2
            torn[middle] ^= 0xFF
            store.put_blob("scheme.s1", bytes(torn))
            with pytest.raises(ParameterError, match="checksum"):
                ShardedCompactLTree.load(store)
            store.put_blob("scheme.s1", good)
            back = ShardedCompactLTree.load(store, lazy=False)
            assert back.labels() == tree.labels()


class TestBoundaryBulkLoad:
    """bulk_load(boundaries=...): caller-aligned shard chunks."""

    def test_explicit_chunks_decide_shard_count_and_routing(self):
        tree = ShardedCompactLTree(PARAMS, n_shards=8)
        handles = tree.bulk_load(range(20), boundaries=[3, 12, 5])
        assert tree.shard_count == 3
        ranks = [rank for rank, _ in handles]
        assert ranks == [0] * 3 + [1] * 12 + [2] * 5
        assert tree.payloads() == list(range(20))
        labels = [tree.num(handle) for handle in handles]
        assert labels == sorted(labels)
        tree.validate()

    def test_boundary_count_may_exceed_n_shards_default(self):
        """boundaries overrides the n_shards target entirely."""
        tree = ShardedCompactLTree(PARAMS, n_shards=2)
        handles = tree.bulk_load(range(12), boundaries=[2, 2, 2, 2, 2, 2])
        assert tree.shard_count == 6
        assert [rank for rank, _ in handles] == \
            [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_uneven_chunks_keep_global_order(self):
        tree = ShardedCompactLTree(PARAMS, n_shards=4)
        handles = tree.bulk_load(range(30), boundaries=[1, 27, 2])
        labels = [tree.num(handle) for handle in handles]
        assert labels == sorted(labels)
        # the big chunk dictates the stride
        assert tree.directory_height >= 1
        tree.validate()

    def test_inserts_after_boundary_load_stay_in_their_chunk(self):
        tree = ShardedCompactLTree(PARAMS, n_shards=4,
                                   shard_stats=True)
        handles = tree.bulk_load(range(16), boundaries=[4, 8, 4])
        baselines = [sink.snapshot() for sink in tree.shard_counters]
        anchor = handles[6]                       # chunk 1
        for step in range(30):
            anchor = tree.insert_after(anchor, step)
        for rank, (sink, base) in enumerate(zip(tree.shard_counters,
                                                baselines)):
            delta = sink - base
            touched = any(getattr(delta, field) for field in
                          WRITE_FIELDS)
            assert touched == (rank == 1), (rank, delta.as_dict())

    def test_bad_boundaries_rejected(self):
        tree = ShardedCompactLTree(PARAMS, n_shards=4)
        with pytest.raises(ParameterError, match="at least one"):
            tree.bulk_load(range(4), boundaries=[])
        with pytest.raises(ParameterError, match=">= 1"):
            tree.bulk_load(range(4), boundaries=[4, 0])
        with pytest.raises(ParameterError, match="cover"):
            tree.bulk_load(range(4), boundaries=[2, 3])

    def test_non_integer_boundaries_rejected_loudly(self):
        """Floats and bools used to slide through list slicing as
        truthy chunk sizes; the validation must name the offender."""
        tree = ShardedCompactLTree(PARAMS, n_shards=4)
        with pytest.raises(ParameterError, match="integers.*float"):
            tree.bulk_load(range(4), boundaries=[2, 2.0])
        with pytest.raises(ParameterError, match="bool"):
            tree.bulk_load(range(4), boundaries=[True, 3])
        with pytest.raises(ParameterError, match="integers"):
            tree.bulk_load(range(4), boundaries=["2", "2"])
        # a failed validation leaves the tree loadable
        handles = tree.bulk_load(range(4), boundaries=[2, 2])
        assert len(handles) == 4

    def test_boundary_load_persists_like_default_load(self, tmp_path):
        tree = ShardedCompactLTree(PARAMS, n_shards=4)
        handles = tree.bulk_load(range(25), boundaries=[5, 15, 5])
        anchor = handles[10]
        for step in range(60):
            anchor = tree.insert_after(anchor, step)
        path = str(tmp_path / "bounds.ltp")
        with PageStore(path) as store:
            tree.save(store)
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store, lazy=False)
            assert back.shard_count == 3
            assert back.labels() == tree.labels()
            back.validate()


class TestSaveExtraBlobs:
    """save(extra_blobs=...): caller metadata inside the same flip."""

    def test_extra_blob_rides_in_one_catalog_flip(self, tmp_path):
        tree, _ = _sharded(24, 3)
        path = str(tmp_path / "extra.ltp")
        with PageStore(path) as store:
            seq_before = store._seq
            tree.save(store, extra_blobs={"watermark": b"seq=41"})
            assert store._seq == seq_before + 1
            assert bytes(store.get_blob("watermark")) == b"seq=41"
        with PageStore(path) as store:
            assert bytes(store.get_blob("watermark")) == b"seq=41"
            back = ShardedCompactLTree.load(store, lazy=False)
            assert back.labels() == tree.labels()

    def test_extra_blob_collision_rejected(self, tmp_path):
        tree, _ = _sharded(12, 2)
        path = str(tmp_path / "collide.ltp")
        with PageStore(path) as store:
            with pytest.raises(ParameterError, match="collide"):
                tree.save(store, extra_blobs={"scheme.s0": b"boom"})
            with pytest.raises(ParameterError, match="collide"):
                tree.save(store, extra_blobs={"scheme": b"boom"})


class TestSplitMerge:
    """Online split/merge: stable ids, forwarding, untouched arenas."""

    def test_split_preserves_order_and_liveness(self):
        tree, handles = _sharded(64, 4)
        tree.mark_deleted(handles[20])           # inside shard 1
        left, right = tree.split_shard(1, 8)
        assert tree.shard_ids == (0, left, right, 2, 3)
        assert (left, right) == (4, 5)
        assert tree.payloads() == [f"p{i}" for i in range(64)]
        assert tree.is_deleted(handles[20])      # via forwarding
        labels = [tree.num(handle) for handle in handles]
        assert labels == sorted(set(labels))
        assert tree.shard_splits == 1
        tree.validate()

    def test_old_handles_resolve_through_forwarding(self):
        tree, handles = _sharded(64, 4)
        old = handles[20]                        # shard 1, pre-split
        payload = tree.payload(old)
        left, right = tree.split_shard(1, 8)
        sid, slot = tree.resolve_handle(old)
        assert sid in (left, right)
        assert tree.payload(old) == payload
        assert tree.num(old) == tree.num((sid, slot))
        new = tree.insert_after(old, "routed")   # routes to new arena
        assert new[0] in (left, right)
        assert tree.payloads()[21] == "routed"

    def test_split_leaves_other_arenas_untouched(self):
        """The whole point of id-stable splits: only the split shard's
        arena is rebuilt — the others keep their very objects."""
        tree, handles = _sharded(64, 4)
        before = {sid: tree._dir.shards[sid] for sid in (0, 2, 3)}
        tree.split_shard(1, 8)
        for sid, shard in before.items():
            assert tree._dir.shards[sid] is shard

    def test_split_point_validated(self):
        tree, handles = _sharded(64, 4)
        with pytest.raises(ParameterError, match="split point"):
            tree.split_shard(1, 0)
        with pytest.raises(ParameterError, match="split point"):
            tree.split_shard(1, 16)
        with pytest.raises(ValueError, match="no shard"):
            tree.split_shard(99, 1)

    def test_merge_requires_adjacency(self):
        tree, handles = _sharded(64, 4)
        with pytest.raises(ParameterError, match="not adjacent"):
            tree.merge_shards(0, 2)
        with pytest.raises(ValueError, match="no shard"):
            tree.merge_shards(0, 99)

    def test_merge_preserves_order_both_argument_orders(self):
        tree, handles = _sharded(64, 4)
        tree.mark_deleted(handles[40])
        merged = tree.merge_shards(3, 2)         # order normalized
        assert tree.shard_ids == (0, 1, merged)
        assert tree.payloads() == [f"p{i}" for i in range(64)]
        assert tree.is_deleted(handles[40])
        labels = [tree.num(handle) for handle in handles]
        assert labels == sorted(set(labels))
        assert tree.shard_merges == 1
        tree.validate()

    def test_ids_never_reused(self):
        tree, handles = _sharded(64, 4)
        left, right = tree.split_shard(1, 8)     # 4, 5
        merged = tree.merge_shards(left, right)  # 6
        assert merged == 6
        again = tree.split_shard(merged, 8)      # 7, 8
        assert again == (7, 8)
        assert tree.epoch >= 4                   # bumped every commit
        assert tree.payloads() == [f"p{i}" for i in range(64)]
        tree.validate()

    def test_chained_forwarding_resolves_to_final_arena(self):
        """split -> merge -> split: a pre-rebalance handle chases the
        whole chain and still reads/writes the right leaf."""
        tree, handles = _sharded(64, 4)
        old = handles[20]
        left, right = tree.split_shard(1, 8)
        merged = tree.merge_shards(left, right)
        final = tree.split_shard(merged, 8)
        sid, slot = tree.resolve_handle(old)
        assert sid in final
        assert tree.payload(old) == "p20"
        tree.mark_deleted(old)
        assert tree.is_deleted((sid, slot))
        tree.validate()

    def test_stride_tracks_tallest_shard_through_rebalance(self):
        """Splitting the tall shard lets the stride shrink back — the
        h-term discount a split buys."""
        tree, handles = _sharded(8, 4, params=LTreeParams(f=4, s=2))
        anchor = handles[3]                      # fatten shard 1
        for index in range(300):
            anchor = tree.insert_after(anchor, index)
        tall = tree.directory_height
        report = tree.shard_report()
        fat = max(report, key=lambda row: row["live"])
        tree.split_shard(fat["id"], fat["leaves"] // 2)
        assert tree.directory_height <= tall
        assert tree.stride == tree.params.base ** tree.directory_height
        labels = tree.labels()
        assert labels == sorted(labels)
        tree.validate()

    def test_split_of_lazy_shard_leaves_others_lazy(self, tmp_path):
        tree, handles = _sharded(48, 4)
        path = str(tmp_path / "lazysplit.ltp")
        with PageStore(path) as store:
            tree.save(store)
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store)
            back.split_shard(1, 6)
            report = back.shard_report()
            lazy = [row["id"] for row in report
                    if not row["materialized"]]
            assert sorted(lazy) == [0, 2, 3]
            assert back.payloads() == tree.payloads()
            back.validate()


class TestRebalancePolicy:
    @staticmethod
    def _row(sid, pos, live, tomb=0, leaves=None):
        leaves = live + tomb if leaves is None else leaves
        return {"id": sid, "position": pos, "height": 1,
                "leaves": leaves, "live": live, "tombstones": tomb,
                "arena_bytes": 0, "materialized": True,
                "counters": None}

    def test_balanced_report_plans_nothing(self):
        report = [self._row(i, i, 100) for i in range(4)]
        assert RebalancePolicy().plan(report) == []
        assert RebalancePolicy().plan([]) == []

    def test_skewed_shard_is_split_at_midpoint(self):
        policy = RebalancePolicy(max_ratio=2.0, min_split_leaves=16)
        report = [self._row(0, 0, 1000), self._row(1, 1, 10),
                  self._row(2, 2, 10), self._row(3, 3, 10)]
        plan = policy.plan(report)
        assert ("split", 0, 500) in plan

    def test_small_shard_never_split(self):
        policy = RebalancePolicy(max_ratio=2.0, min_split_leaves=64)
        report = [self._row(0, 0, 40), self._row(1, 1, 1)]
        assert all(a[0] != "split" for a in policy.plan(report))

    def test_adjacent_undersized_pair_merges(self):
        policy = RebalancePolicy(max_ratio=4.0)
        report = [self._row(0, 0, 10), self._row(1, 1, 10),
                  self._row(2, 2, 400), self._row(3, 3, 400)]
        assert ("merge", 0, 1) in policy.plan(report)

    def test_tombstone_heavy_shard_merges(self):
        policy = RebalancePolicy(tombstone_ratio=0.5)
        report = [self._row(0, 0, 40, tomb=140),
                  self._row(1, 1, 30, tomb=100),
                  self._row(2, 2, 400), self._row(3, 3, 400)]
        assert ("merge", 0, 1) in policy.plan(report)

    def test_actions_never_overlap(self):
        policy = RebalancePolicy(max_ratio=2.0, min_split_leaves=8)
        report = [self._row(0, 0, 1000), self._row(1, 1, 5),
                  self._row(2, 2, 5), self._row(3, 3, 5)]
        plan = policy.plan(report)
        touched = [sid for action in plan for sid in action[1:]]
        assert len(touched) == len(set(touched))

    def test_max_shards_caps_splits(self):
        policy = RebalancePolicy(max_ratio=2.0, min_split_leaves=8,
                                 max_shards=4)
        report = [self._row(0, 0, 1000), self._row(1, 1, 10),
                  self._row(2, 2, 10), self._row(3, 3, 10)]
        assert all(a[0] != "split" for a in policy.plan(report))

    def test_min_shards_caps_merges(self):
        policy = RebalancePolicy(min_shards=2)
        report = [self._row(0, 0, 1), self._row(1, 1, 1)]
        assert all(a[0] != "merge" for a in policy.plan(report))

    def test_plan_is_deterministic(self):
        policy = RebalancePolicy(max_ratio=2.0, min_split_leaves=8)
        report = [self._row(0, 0, 500), self._row(1, 1, 4),
                  self._row(2, 2, 4), self._row(3, 3, 90)]
        assert policy.plan(report) == policy.plan(report)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ParameterError, match="max_ratio"):
            RebalancePolicy(max_ratio=1.0)
        with pytest.raises(ParameterError, match="min_split_leaves"):
            RebalancePolicy(min_split_leaves=1)
        with pytest.raises(ParameterError, match="tombstone_ratio"):
            RebalancePolicy(tombstone_ratio=0.0)

    def test_rebalance_flattens_a_skewed_tree(self):
        tree, handles = _sharded(32, 4)
        anchor = handles[10]                     # fatten shard 1
        for step in range(400):
            anchor = tree.insert_after(anchor, ("fat", step))
        def skew(report):
            lives = [row["live"] for row in report]
            return max(lives) / (sum(lives) / len(lives))
        before = skew(tree.shard_report())
        payloads = tree.payloads()
        performed = tree.rebalance(RebalancePolicy(max_ratio=2.0,
                                                   min_split_leaves=16))
        assert performed                          # it did something
        assert any(a["action"] == "split" for a in performed)
        assert skew(tree.shard_report()) < before
        assert tree.payloads() == payloads        # order untouched
        labels = tree.labels()
        assert labels == sorted(labels)
        tree.validate()

    def test_rebalance_converges_to_quiet_plan(self):
        tree, handles = _sharded(32, 4)
        anchor = handles[10]
        for step in range(400):
            anchor = tree.insert_after(anchor, step)
        policy = RebalancePolicy(max_ratio=2.0, min_split_leaves=16)
        tree.rebalance(policy, max_rounds=8)
        assert policy.plan(tree.shard_report()) == []


class TestShardReport:
    def test_rows_describe_every_shard_in_order(self):
        tree, handles = _sharded(48, 4, shard_stats=True)
        tree.mark_deleted(handles[3])
        report = tree.shard_report()
        assert [row["id"] for row in report] == [0, 1, 2, 3]
        assert [row["position"] for row in report] == [0, 1, 2, 3]
        assert sum(row["live"] for row in report) == 47
        assert sum(row["tombstones"] for row in report) == 1
        assert all(row["arena_bytes"] > 0 for row in report)
        assert all(row["counters"] is not None for row in report)

    def test_counters_absent_without_shard_stats(self):
        tree, _ = _sharded(16, 2)
        assert all(row["counters"] is None
                   for row in tree.shard_report())

    def test_report_never_materializes_lazy_shards(self, tmp_path):
        tree, _ = _sharded(48, 4)
        path = str(tmp_path / "report.ltp")
        with PageStore(path) as store:
            tree.save(store)
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store)
            report = back.shard_report()
            assert all(not row["materialized"] for row in report)
            assert back.materialized_shards == []
            assert [row["live"] for row in report] == \
                [row["live"] for row in tree.shard_report()]


class TestWriteVersions:
    """``write_version`` is the dirty-shard signal snapshot epochs and
    columnar caches key on, so every label-rewriting path must bump it."""

    def test_compact_bumps_every_shard_version(self):
        tree, handles = _sharded(40, 2)
        for handle in handles[::4]:              # 10 deletes
            tree.mark_deleted(handle)
        before = tree.shard_versions()
        tree.compact()
        after = tree.shard_versions()
        assert set(after) == set(before) == set(tree.shard_ids)
        assert all(after[sid] > before[sid] for sid in before)
        assert tree.tombstone_count() == 0

    def test_shard_image_after_compact(self):
        """A materialized shard's pin comes without a leaf walk (no
        live list), and its O(1) meta is the compacted shape."""
        tree, handles = _sharded(40, 2)
        for handle in handles[::4]:
            tree.mark_deleted(handle)
        tree.compact()
        for sid in tree.shard_ids:
            pinned = tree.pin_shard(sid)
            assert pinned.live is None           # materialized: no walk
            assert pinned.tombstone_count() == 0
            assert pinned.n_leaves == 15


class TestRebalancePersistence:
    """Directory + forwarding survive the save/load round-trip, and a
    crash at the rebalance catalog flip reopens on the old epoch."""

    def _rebalanced(self):
        tree, handles = _sharded(64, 4)
        tree.mark_deleted(handles[18])
        left, right = tree.split_shard(1, 8)
        merged = tree.merge_shards(2, 3)
        return tree, handles

    def test_round_trip_keeps_ids_epoch_and_forwarding(self, tmp_path):
        tree, handles = self._rebalanced()
        path = str(tmp_path / "dir.ltp")
        with PageStore(path) as store:
            tree.save(store)
            names = list(store.blobs())
            for sid in tree.shard_ids:
                assert f"scheme.s{sid}" in names
            assert "scheme.s1" not in names       # retired arena gone
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store, lazy=False)
            assert back.shard_ids == tree.shard_ids
            assert back.epoch == tree.epoch
            assert back.shard_splits == tree.shard_splits
            assert back.shard_merges == tree.shard_merges
            assert back.labels() == tree.labels()
            # pre-rebalance handles resolve identically after reopen
            for handle in handles[::5]:
                assert back.resolve_handle(handle) == \
                    tree.resolve_handle(handle)
                assert back.num(handle) == tree.num(handle)
            assert back.is_deleted(handles[18])
            back.validate()

    def test_forwarding_blob_is_checked_on_load(self, tmp_path):
        """The forwarding columns ride in their own blob: a torn one
        fails its manifest CRC instead of forwarding old handles to
        wrong leaves, and a compact (which resets the table) drops the
        blob on the next save."""
        tree, handles = self._rebalanced()
        path = str(tmp_path / "fwd.ltp")
        with PageStore(path) as store:
            tree.save(store)
            good = bytes(store.get_blob("scheme.forwarding"))
            torn = bytearray(good)
            torn[8] ^= 0x01
            store.put_blob("scheme.forwarding", bytes(torn))
            with pytest.raises(ParameterError, match="checksum"):
                ShardedCompactLTree.load(store)
            store.put_blob("scheme.forwarding", good)
            back = ShardedCompactLTree.load(store)
            assert back.resolve_handle(handles[20]) == \
                tree.resolve_handle(handles[20])
            back.compact()
            back.save(store)
            assert not store.has_blob("scheme.forwarding")
            assert ShardedCompactLTree.load(store).labels() == \
                back.labels()

    def test_validate_rejects_broken_forwarding(self):
        tree, handles = self._rebalanced()
        tree.validate()
        ranks, cut, low, high = tree._forwarding[1]
        # a chain that loops back through a retired id
        tree._forwarding[1] = (ranks, cut, 2, 2)
        tree._forwarding[2] = (tree._forwarding[2][0], cut, 1, 1)
        with pytest.raises(InvariantViolation, match="cycle"):
            tree.validate()
        # a rank past the successor's leaves
        tree, handles = self._rebalanced()
        ranks, cut, low, high = tree._forwarding[1]
        bogus = ranks[:]
        bogus[handles[20][1]] = 10 ** 6
        tree._forwarding[1] = (bogus, cut, low, high)
        with pytest.raises(InvariantViolation, match="not a leaf"):
            tree.validate()

    def test_reloaded_tree_continues_id_sequence(self, tmp_path):
        tree, _ = self._rebalanced()
        path = str(tmp_path / "seq.ltp")
        with PageStore(path) as store:
            tree.save(store)
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store, lazy=False)
            report = back.shard_report()
            fat = max(report, key=lambda row: row["live"])
            new_ids = back.split_shard(fat["id"], fat["leaves"] // 2)
            assert min(new_ids) > max(tree.shard_ids)
            back.validate()

    def test_crash_at_rebalance_flip_reopens_old_epoch(self, tmp_path):
        """Tear the catalog slot the rebalance save flipped: the store
        must reopen bit-identically on the pre-rebalance epoch — the
        flip's data pages never overwrote the old epoch's spans."""
        tree, handles = _sharded(64, 4)
        path = str(tmp_path / "tornflip.ltp")
        with PageStore(path) as store:
            tree.save(store)                      # epoch A durable
            labels_a = tree.labels()
            ids_a = tree.shard_ids
            tree.split_shard(1, 8)
            tree.merge_shards(2, 3)
            tree.save(store)                      # epoch B flip
            active = 1 + (store._seq % 2)
            page_size = store.page_size
        with PageStore(path) as store:            # B is durable intact
            assert ShardedCompactLTree.load(store).shard_ids == \
                tree.shard_ids
        with open(path, "r+b") as handle:         # tear the B flip
            handle.seek(active * page_size)
            kept = handle.read(12)
            handle.seek(active * page_size)
            handle.write(kept + b"\x00" * (page_size - 12))
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store, lazy=False)
            assert back.shard_ids == ids_a
            assert back.labels() == labels_a
            assert back.shard_splits == 0
            assert back.payloads() == [f"p{i}" for i in range(64)]
            back.validate()

    def test_superseded_spans_reclaimed_across_rebalance_saves(
            self, tmp_path):
        """Repeated rebalance+save cycles must not leak a span per
        retired arena: the batched flip reuses the gaps the previous
        epoch's blobs left behind."""
        tree, handles = _sharded(64, 4)
        path = str(tmp_path / "bounded.ltp")
        with PageStore(path) as store:
            tree.save(store)
            baseline = store.page_count
            for cycle in range(6):
                left, right = tree.split_shard(tree.shard_ids[1], 4)
                tree.merge_shards(left, right)
                tree.save(store)
            # each cycle retires 3 arenas; without reclamation the file
            # would grow by >= 3 spans x 6 cycles.  Allow slack only
            # for the growing manifest/forwarding table.
            assert store.page_count <= baseline + 6
            back = ShardedCompactLTree.load(store, lazy=False)
            assert back.labels() == tree.labels()
            back.validate()
