"""End-to-end crash-restart: a LabeledDocument survives save -> reopen.

The scenario the persistence subsystem exists for: build a document,
edit it (inserts *and* mark-only deletes, so tombstones are in play),
save to a page file, drop every in-memory object, reopen from a fresh
:class:`PageStore` in the same process — then assert the labels are
bit-identical, the containment predicates still answer, and future edits
behave exactly as they would have without the restart (identical labels
and identical maintenance counters against a never-persisted twin).
"""

import random

import pytest

from repro.core.params import LTreeParams
from repro.core.stats import Counters
from repro.labeling.scheme import LabeledDocument
from repro.order.compact_list import CompactListLabeling
from repro.order.ltree_list import LTreeListLabeling
from repro.order.naive import NaiveLabeling
from repro.order.sharded_list import ShardedListLabeling
from repro.storage.faults import FAILPOINTS, SimulatedCrash, torn_write
from repro.storage.pages import PageStore
from repro.testing.crashstorm import _sever_store
from repro.xml.generator import xmark_like
from repro.xml.parser import parse
from repro.xml.serializer import serialize

PARAMS = LTreeParams(f=16, s=4)


def _make(factory, stats=None):
    return factory(PARAMS, stats=stats) if stats else factory(PARAMS)


SCHEMES = {
    "ltree-compact": lambda stats=None: _make(CompactListLabeling, stats),
    "ltree": lambda stats=None: _make(LTreeListLabeling, stats),
    "ltree-sharded": lambda stats=None: _make(ShardedListLabeling, stats),
}


def _edited_document(scheme, seed=17):
    document = xmark_like(n_items=15, n_people=8, n_auctions=6, seed=seed)
    labeled = LabeledDocument(document, scheme=scheme)
    rng = random.Random(seed)
    elements = [element for element in document.iter_elements()
                if element.parent is not None]
    # grow: subtree + text insertions
    for index in range(8):
        target = rng.choice(elements)
        sub = parse(f"<extra n=\"{index}\"><v>{index}</v>tail</extra>").root
        labeled.append_subtree(target, sub)
    # shrink: mark-only deletions leave tombstones in the label space
    for _ in range(3):
        victims = [element for element in document.iter_elements()
                   if element.parent is not None and
                   element.parent.parent is not None]
        labeled.delete_subtree(rng.choice(victims))
    return labeled


@pytest.mark.parametrize("name", sorted(SCHEMES))
class TestCrashRestart:
    def test_bit_identical_labels(self, tmp_path, name):
        labeled = _edited_document(SCHEMES[name]())
        labels_before = labeled.labels_in_order()
        xml_before = serialize(labeled.document)
        path = str(tmp_path / "doc.ltp")
        with PageStore(path) as store:
            labeled.save(store)
        del labeled
        with PageStore(path) as store:       # fresh store object
            reopened = LabeledDocument.open(store)
        assert reopened.labels_in_order() == labels_before
        assert serialize(reopened.document) == xml_before
        reopened.validate()

    def test_predicates_after_reopen(self, tmp_path, name):
        labeled = _edited_document(SCHEMES[name]())
        path = str(tmp_path / "doc.ltp")
        with PageStore(path) as store:
            labeled.save(store)
        with PageStore(path) as store:
            reopened = LabeledDocument.open(store)
        document = reopened.document
        root = document.root
        for element in document.iter_elements():
            if element.parent is not None:
                assert reopened.is_ancestor(root, element)
                assert not reopened.is_ancestor(element, root)
        children = [child for child in root.children
                    if getattr(child, "tag", None) is not None]
        for left, right in zip(children, children[1:]):
            assert reopened.precedes(left, right)

    def test_counter_semantics_identical_after_restart(self, tmp_path,
                                                       name):
        """A restored document and its never-persisted twin must charge
        the same maintenance cost for the same future edits."""
        twin_stats, restored_stats = Counters(), Counters()
        twin = _edited_document(SCHEMES[name](twin_stats), seed=23)
        original = _edited_document(SCHEMES[name](restored_stats), seed=23)
        path = str(tmp_path / "doc.ltp")
        with PageStore(path) as store:
            original.save(store)
        with PageStore(path) as store:
            restored = LabeledDocument.open(store, stats=restored_stats)
        twin_stats.reset()
        restored_stats.reset()
        for labeled in (twin, restored):
            rng = random.Random(5)
            for index in range(6):
                elements = [element for element in
                            labeled.document.iter_elements()
                            if element.parent is not None]
                target = rng.choice(elements)
                labeled.insert_text(target, 0, f"post-restart {index}")
        assert twin.labels_in_order() == restored.labels_in_order()
        assert twin_stats.as_dict() == restored_stats.as_dict()

    def test_reopened_document_can_be_saved_again(self, tmp_path, name):
        labeled = _edited_document(SCHEMES[name]())
        path = str(tmp_path / "doc.ltp")
        with PageStore(path) as store:
            labeled.save(store)
        with PageStore(path) as store:
            reopened = LabeledDocument.open(store)
            reopened.insert_text(reopened.document.root, 0, "generation 2")
            reopened.save(store)
        with PageStore(path) as store:
            third = LabeledDocument.open(store)
        assert third.labels_in_order() == reopened.labels_in_order()
        third.validate()


@pytest.mark.parametrize("nth", [1, 2, 3])
@pytest.mark.parametrize("point", ["pagestore:catalog:pre-write",
                                   "pagestore:put:torn-span"])
@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_crash_during_resave_reopens_old_or_new(tmp_path, name, point,
                                                nth):
    """Save, edit, re-save onto the same store with a crash armed: the
    store must reopen as exactly the old document (labels and
    serialized XML) when the re-save crashed before its catalog flip,
    as exactly the new one when it completed, never as a mix."""
    labeled = _edited_document(SCHEMES[name]())
    path = str(tmp_path / "doc.ltp")
    store = PageStore(path)
    labeled.save(store)
    old = (labeled.labels_in_order(), serialize(labeled.document))
    labeled.append_subtree(labeled.document.root, parse("<late/>").root)
    new = (labeled.labels_in_order(), serialize(labeled.document))
    action = torn_write(0.3) if ":torn-" in point else "crash"
    crashed = False
    with FAILPOINTS.scoped():
        FAILPOINTS.arm(point, action, nth=nth)
        try:
            labeled.save(store)
        except SimulatedCrash:
            crashed = True
            _sever_store(store)
        else:
            store.close()
    with PageStore(path) as store:
        reopened = LabeledDocument.open(store)
        state = (reopened.labels_in_order(), serialize(reopened.document))
        reopened.validate()
    assert state == (old if crashed else new)
    if nth == 1:
        assert crashed       # both points fire on every save


def test_restored_compact_differential_against_reference(tmp_path):
    """The PR 1 differential harness with one side restored from disk:
    reference LTree vs a CompactLTree that went through save/reopen."""
    from repro.core.compact import CompactLTree
    from repro.core.ltree import LTree

    params = LTreeParams(f=8, s=2)
    ref_stats, compact_stats = Counters(), Counters()
    ref = LTree(params, ref_stats)
    compact = CompactLTree(params, compact_stats)
    ref_handles = list(ref.bulk_load(range(6)))
    compact_handles = list(compact.bulk_load(range(6)))

    def drive(rng, tree, handles, n_ops):
        for index in range(n_ops):
            roll = rng.random()
            position = rng.randrange(len(handles))
            if roll < 0.45:
                handles.insert(position, tree.insert_before(
                    handles[position], f"b{index}"))
            elif roll < 0.9:
                handles.insert(position + 1, tree.insert_after(
                    handles[position], f"a{index}"))
            elif roll < 0.95:
                run = tree.insert_run_after(
                    handles[position], [f"r{index}.{j}" for j in range(5)])
                handles[position + 1:position + 1] = run
            else:
                victim = handles[position]
                deleted = victim.deleted if hasattr(victim, "deleted") \
                    else tree.is_deleted(victim)
                if not deleted:
                    tree.mark_deleted(victim)

    drive(random.Random(31), ref, ref_handles, 600)
    drive(random.Random(31), compact, compact_handles, 600)
    assert ref.labels() == compact.labels()
    assert ref_stats.as_dict() == compact_stats.as_dict()

    # crash-restart the compact side only
    path = str(tmp_path / "tree.ltp")
    with PageStore(path) as store:
        compact.save(store)
    with PageStore(path) as store:
        restored_stats = Counters()
        restored = CompactLTree.load(store, stats=restored_stats)
    restored_handles = list(restored.iter_leaves())
    assert restored_handles == compact_handles

    ref_stats.reset()
    drive(random.Random(77), ref, ref_handles, 600)
    drive(random.Random(77), restored, restored_handles, 600)
    assert ref.labels() == restored.labels()
    assert ref_stats.as_dict() == restored_stats.as_dict()
    restored.validate()


def test_save_rejects_tokens_that_cannot_round_trip(tmp_path):
    """Regression: adjacent text nodes merge under serialize->parse, so
    save() must fail fast instead of writing a permanently unopenable
    document."""
    from repro.errors import ParameterError

    document = parse("<r><a>hello</a></r>")
    labeled = LabeledDocument(
        document, scheme=CompactListLabeling(PARAMS))
    target = document.root.children[0]
    labeled.insert_text(target, 1, "world")  # now two adjacent texts
    path = str(tmp_path / "doc.ltp")
    with PageStore(path) as store:
        with pytest.raises(ParameterError, match="round trip"):
            labeled.save(store)
        # nothing was written: the store holds no partial document
        assert list(store.blobs()) == []


class TestShardedDocumentRoundTrip:
    """Sharded-specific guarantees on top of the shared crash-restart
    suite: per-shard blob spans on disk, and a shard-lazy reopen that
    deserializes only the arenas edits actually touch."""

    def _saved(self, tmp_path, seed=17):
        labeled = _edited_document(ShardedListLabeling(PARAMS), seed=seed)
        path = str(tmp_path / "doc.ltp")
        with PageStore(path) as store:
            labeled.save(store)
        return labeled, path

    def test_per_shard_blob_spans(self, tmp_path):
        labeled, path = self._saved(tmp_path)
        shard_count = labeled.scheme.tree.shard_count
        with PageStore(path) as store:
            names = set(store.blobs())
            for rank in range(shard_count):
                assert f"scheme.s{rank}" in names
                assert store.blob_length(f"scheme.s{rank}") > 0

    def test_reopen_is_shard_lazy(self, tmp_path):
        labeled, path = self._saved(tmp_path)
        labels_before = labeled.labels_in_order()
        with PageStore(path) as store:
            reopened = LabeledDocument.open(store)
            tree = reopened.scheme.tree
            # open() attached every handle, yet no arena was
            # deserialized
            assert tree.materialized_shards == []
            # label reads (predicates included) stay lazy
            assert reopened.labels_in_order() == labels_before
            root = reopened.document.root
            for element in reopened.document.iter_elements():
                if element.parent is not None:
                    assert reopened.is_ancestor(root, element)
                    break
            assert tree.materialized_shards == []
            # an edit wakes exactly the shard owning its anchor
            target = next(e for e in reopened.document.iter_elements()
                          if e.parent is not None)
            reopened.insert_text(target, 0, "lazy wake")
            assert len(tree.materialized_shards) == 1
        reopened.validate()


def test_save_rejects_non_ltree_schemes(tmp_path):
    document = xmark_like(n_items=3, n_people=2, n_auctions=1, seed=1)
    labeled = LabeledDocument(document, scheme=NaiveLabeling())
    with PageStore(str(tmp_path / "doc.ltp")) as store:
        with pytest.raises(TypeError):
            labeled.save(store)


class TestSyncThreading:
    """The sync knob travels save() -> scheme -> PageStore."""

    def test_sync_save_counts_fsyncs(self, tmp_path, monkeypatch):
        import os as os_module

        fsyncs = []
        real_fsync = os_module.fsync
        monkeypatch.setattr("os.fsync",
                            lambda fd: (fsyncs.append(fd),
                                        real_fsync(fd))[1])
        labeled = _edited_document(SCHEMES["ltree-sharded"]())
        path = str(tmp_path / "sync.ltp")
        with PageStore(path) as store:
            assert store.sync is False
            labeled.save(store, sync=True)
            # the override is scoped to the save
            assert store.sync is False
        assert len(fsyncs) > 0

    def test_sync_default_changes_nothing(self, tmp_path, monkeypatch):
        fsyncs = []
        monkeypatch.setattr("os.fsync", lambda fd: fsyncs.append(fd))
        labeled = _edited_document(SCHEMES["ltree-compact"]())
        with PageStore(str(tmp_path / "nosync.ltp")) as store:
            labeled.save(store)
        assert fsyncs == []

    def test_scheme_save_sync_parameter(self, tmp_path, monkeypatch):
        import os as os_module

        fsyncs = []
        real_fsync = os_module.fsync
        monkeypatch.setattr("os.fsync",
                            lambda fd: (fsyncs.append(fd),
                                        real_fsync(fd))[1])
        scheme = SCHEMES["ltree-compact"]()
        scheme.bulk_load(range(32))
        with PageStore(str(tmp_path / "scheme.ltp")) as store:
            scheme.save(store, sync=True)
            assert len(fsyncs) > 0
            assert store.sync is False

    def test_sync_true_requires_a_capable_store(self):
        from repro.errors import StorageError

        class Plain:
            def put_blob(self, name, data):
                pass

        scheme = SCHEMES["ltree-compact"]()
        scheme.bulk_load(range(8))
        with pytest.raises(StorageError, match="sync"):
            scheme.save(Plain(), sync=True)
        scheme.save(Plain())                    # default still works


class TestPathConvenience:
    """save/open accept a file path and thread sync to the PageStore."""

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_path_round_trip(self, tmp_path, name):
        labeled = _edited_document(SCHEMES[name]())
        labels = labeled.labels_in_order()
        path = str(tmp_path / "bypath.ltp")
        labeled.save(path, sync=True)
        reopened = LabeledDocument.open(path)
        try:
            assert reopened.labels_in_order() == labels
            assert reopened.store is not None      # owned store
            # a bare save() goes back to the owned store
            reopened.save()
        finally:
            reopened.close()
        assert reopened.store is None
        third = LabeledDocument.open(path)
        assert third.labels_in_order() == labels
        third.close()

    def test_save_without_store_or_path_raises(self):
        labeled = _edited_document(SCHEMES["ltree-compact"]())
        with pytest.raises(ValueError, match="store"):
            labeled.save()

    def test_store_object_is_not_adopted(self, tmp_path):
        labeled = _edited_document(SCHEMES["ltree-compact"]())
        with PageStore(str(tmp_path / "caller.ltp")) as store:
            labeled.save(store)
            reopened = LabeledDocument.open(store)
            assert reopened.store is None
            reopened.close()                       # no-op
            # the caller's store is still usable
            assert store.has_blob("meta")


class TestConcurrentOpen:
    """open(..., concurrent=True): the restored sharded engine becomes
    thread-safe (one writer mutex + zero-lock snapshots) while the
    document API keeps answering identically."""

    def test_concurrent_open_round_trip(self, tmp_path):
        from repro.concurrent.engine import ConcurrentLTree

        labeled = _edited_document(SCHEMES["ltree-sharded"]())
        labels = labeled.labels_in_order()
        path = str(tmp_path / "conc.ltp")
        labeled.save(path)
        reopened = LabeledDocument.open(path, concurrent=True)
        try:
            assert isinstance(reopened.scheme.tree, ConcurrentLTree)
            assert reopened.labels_in_order() == labels
            root = reopened.document.root
            child = next(iter(root.child_elements()))
            assert reopened.is_ancestor(root, child)
            # edits still work through the scheme adapter
            reopened.append_subtree(child, parse("<post/>").root)
            reopened.validate()
        finally:
            reopened.close()

    def test_concurrent_snapshot_reads_match_document_labels(
            self, tmp_path):
        labeled = _edited_document(SCHEMES["ltree-sharded"]())
        path = str(tmp_path / "snap.ltp")
        labeled.save(path)
        reopened = LabeledDocument.open(path, concurrent=True)
        try:
            snap = reopened.scheme.tree.snapshot()
            assert snap.labels() == reopened.labels_in_order()
            # region containment answered off the pinned columns
            root = reopened.document.root
            child = next(iter(root.child_elements()))
            assert snap.contains((root.begin, root.end),
                                 (child.begin, child.end))
        finally:
            reopened.close()

    def test_concurrent_scheme_reports_shard_versions(self, tmp_path):
        """The scheme's dirty-shard report works on a concurrent reopen
        and agrees with the snapshot epochs built from it."""
        labeled = _edited_document(SCHEMES["ltree-sharded"]())
        path = str(tmp_path / "versions.ltp")
        labeled.save(path)
        reopened = LabeledDocument.open(path, concurrent=True)
        try:
            tree = reopened.scheme.tree
            before = reopened.scheme.shard_versions()
            assert before == tree.snapshot().shard_versions()
            child = next(iter(reopened.document.root.child_elements()))
            reopened.append_subtree(child, parse("<post/>").root)
            after = reopened.scheme.shard_versions()
            assert after == tree.snapshot().shard_versions()
            bumped = [sid for sid in after if after[sid] != before[sid]]
            assert bumped == [child.begin[0]]
        finally:
            reopened.close()

    def test_concurrent_parallel_writers_on_reopened_document(
            self, tmp_path):
        """Two threads editing under different top-level children of a
        reopened document: the engine-level guarantee, exercised
        through the scheme the document restored."""
        import threading

        labeled = _edited_document(SCHEMES["ltree-sharded"]())
        path = str(tmp_path / "two.ltp")
        labeled.save(path)
        reopened = LabeledDocument.open(path, concurrent=True)
        try:
            tree = reopened.scheme.tree
            children = [child for child in
                        reopened.document.root.children
                        if getattr(child, "children", None) is not None]
            first, last = children[0], children[-1]
            assert first.begin[0] != last.begin[0]
            errors = []

            def hammer(anchor_handle, tag):
                try:
                    anchor = anchor_handle
                    for step in range(150):
                        anchor = tree.insert_after(anchor, (tag, step))
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer,
                                 args=(first.begin, "f")),
                threading.Thread(target=hammer,
                                 args=(last.begin, "l"))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            tree.validate()
        finally:
            reopened.close()

    def test_concurrent_requires_sharded_encoding(self, tmp_path):
        from repro.errors import ParameterError

        labeled = _edited_document(SCHEMES["ltree-compact"]())
        path = str(tmp_path / "flat.ltp")
        labeled.save(path)
        with pytest.raises(ParameterError, match="sharded"):
            LabeledDocument.open(path, concurrent=True)


def test_open_path_closes_store_on_validation_error(tmp_path, monkeypatch):
    """open(path) must not leak the PageStore it created when the
    document fails validation after the store is already open: here a
    format it does not read, format 1 (XML text, no longer opened) or
    one no save ever wrote."""
    import json

    from repro.errors import ParameterError
    import repro.storage.pages as pages_module

    labeled = _edited_document(SCHEMES["ltree-compact"]())
    path = str(tmp_path / "bad.ltp")
    labeled.save(path)
    created = []
    real_store = pages_module.PageStore

    class SpyStore(real_store):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(pages_module, "PageStore", SpyStore)
    for version in (1, 999):
        with real_store(path) as store:
            meta = json.loads(bytes(store.get_blob("meta")))
            meta["format"] = version
            store.put_blob("meta", json.dumps(meta).encode())
        created.clear()
        with pytest.raises(ParameterError, match=f"format {version}"):
            LabeledDocument.open(path)
        assert created
        assert all(spy._file.closed for spy in created)
