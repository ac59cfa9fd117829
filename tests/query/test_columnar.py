"""The columnar evaluator: agreement, backends, counters, snapshots."""

import threading

import pytest

from repro.core import vectorized
from repro.core.stats import Counters
from repro.labeling.scheme import LabeledDocument
from repro.order.registry import make_scheme
from repro.query.columnar import ColumnarStore, evaluate_columnar
from repro.query.engine import evaluate_dom
from repro.query.xpath import parse_xpath
from repro.storage.interval_table import IntervalTableStore
from repro.workloads.queries import xpath_battery
from repro.xml.generator import (book_document, deep_document,
                                 random_document, wide_document, xmark_like)
from repro.xml.parser import parse

# same matrix as test_engine.py, kept in sync by the differential tests
DOCUMENTS = {
    "book": lambda: book_document(4, 3, seed=1),
    "xmark": lambda: xmark_like(25, 12, 8, seed=2),
    "random": lambda: random_document(150, seed=3),
    "deep": lambda: deep_document(12),
    "wide": lambda: wide_document(30),
    "tiny": lambda: parse("<a><b><c/></b></a>"),
}

QUERIES = {
    "book": ["/book//title", "//section/para", "/book/chapter/title",
             "//chapter//title", "/*/chapter", "//*", "/nothing",
             "//absent//also"],
    "xmark": ["//item/name", "/site//increase", "/site/regions//item",
              "//open_auction/bidder/increase", "//regions/*",
              "//person//city", "//*/name"],
    "random": ["//a//b", "/a", "//c/d", "//e//*"],
    "deep": ["/level0//level11", "//level5/level6", "//level11"],
    "wide": ["/table/row", "//row", "/table//row"],
    "tiny": ["/a/b/c", "/a//c", "//c", "//b/c", "/c"],
}


def _ids(elements):
    return [id(element) for element in elements]


BACKENDS = ["array"] + (["numpy"] if vectorized.HAS_NUMPY else [])


@pytest.mark.parametrize("doc_name", sorted(DOCUMENTS))
@pytest.mark.parametrize("backend", BACKENDS)
class TestAgreement:
    def test_matches_dom_both_backends(self, doc_name, backend):
        document = DOCUMENTS[doc_name]()
        labeled = LabeledDocument(document)
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_labeled(labeled)
            for text in QUERIES[doc_name]:
                query = parse_xpath(text)
                truth = _ids(evaluate_dom(document, query))
                assert _ids(evaluate_columnar(store, query)) == truth, text


class TestBackends:
    def test_numpy_backend_selected_when_available(self):
        document = parse("<a><b/><b/></a>")
        store = ColumnarStore.from_labeled(LabeledDocument(document))
        try:
            import numpy  # noqa: F401
            assert store.backend == "numpy"
        except ImportError:  # pragma: no cover
            assert store.backend == "array"

    def test_array_backend_forced(self):
        document = parse("<a><b/><b/></a>")
        with vectorized.use_backend("array"):
            store = ColumnarStore.from_labeled(LabeledDocument(document))
            assert store.backend == "array"
            assert _ids(evaluate_columnar(store, parse_xpath("//b"))) == \
                _ids(evaluate_dom(document, parse_xpath("//b")))


class TestShardedInputs:
    def test_sharded_scheme_matches_dom(self):
        document = xmark_like(40, 20, 14, seed=5)
        labeled = LabeledDocument(document,
                                  scheme=make_scheme("ltree-sharded"))
        store = ColumnarStore.from_labeled(labeled)
        for query in xpath_battery(document, 12, seed=6):
            truth = _ids(evaluate_dom(document, query))
            assert _ids(evaluate_columnar(store, query)) == truth


class TestIntervalStorePlumbing:
    def test_interval_store_accepted_directly(self):
        document = DOCUMENTS["book"]()
        interval = IntervalTableStore(LabeledDocument(document))
        for text in QUERIES["book"]:
            query = parse_xpath(text)
            assert _ids(evaluate_columnar(interval, query)) == \
                _ids(evaluate_dom(document, query)), text

    def test_columnar_view_is_cached(self):
        document = parse("<a><b/></a>")
        interval = IntervalTableStore(LabeledDocument(document))
        assert interval.columnar() is interval.columnar()


class TestCounters:
    def test_scans_charge_the_callers_counters(self):
        document = DOCUMENTS["xmark"]()
        store = ColumnarStore.from_labeled(LabeledDocument(document))
        mine = Counters()
        evaluate_columnar(store, parse_xpath("//item/name"), mine)
        assert mine.tuple_reads > 0
        assert mine.comparisons > 0
        # the store's own sink stays clean when the caller supplies one
        assert store.stats.enabled is False or \
            store.stats.tuple_reads == 0

    def test_attribute_filter_charges_row_fetches(self):
        document = parse('<a><b id="x"/><b id="y"/></a>')
        store = ColumnarStore.from_labeled(LabeledDocument(document))
        stats = Counters()
        result = evaluate_columnar(
            store, parse_xpath("/a/b[@id='y']"), stats)
        assert [element.attributes["id"] for element in result] == ["y"]
        assert stats.tuple_reads >= 2  # one fetch per b candidate


class TestFirstStepSemantics:
    def test_absolute_child_matches_root_only(self):
        document = parse("<a><a/></a>")
        store = ColumnarStore.from_labeled(LabeledDocument(document))
        results = evaluate_columnar(store, parse_xpath("/a"))
        assert len(results) == 1
        assert results[0] is document.root

    def test_descendant_first_step_includes_root(self):
        document = parse("<a><a/></a>")
        store = ColumnarStore.from_labeled(LabeledDocument(document))
        assert len(evaluate_columnar(store, parse_xpath("//a"))) == 2


class TestSnapshotPinned:
    def _open_concurrent(self, tmp_path, document):
        labeled = LabeledDocument(document,
                                  scheme=make_scheme("ltree-sharded"))
        labeled.save(str(tmp_path / "doc"))
        return LabeledDocument.open(str(tmp_path / "doc"),
                                    concurrent=True)

    def test_snapshot_store_matches_dom(self, tmp_path):
        document = xmark_like(30, 15, 11, seed=7)
        reopened = self._open_concurrent(tmp_path, document)
        snapshot = reopened.scheme.tree.snapshot()
        store = ColumnarStore.from_snapshot(reopened, snapshot)
        for query in xpath_battery(reopened.document, 10, seed=8):
            assert _ids(evaluate_columnar(store, query)) == \
                _ids(evaluate_dom(reopened.document, query))
        reopened.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pinned_labels_equal_the_schemes_reads(self, tmp_path,
                                                   backend):
        """A pin's columns hold the labels the scheme itself reads for
        the same quiescent document: fresh, after a split and after a
        merge."""
        document = xmark_like(25, 12, 9, seed=19)
        reopened = self._open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree

        def assert_pin_equals_reads():
            pinned = ColumnarStore.from_snapshot(reopened, tree.snapshot())
            read = ColumnarStore.from_labeled(reopened)
            assert pinned.backend == read.backend == backend
            assert _ids(pinned.elements) == _ids(read.elements)
            assert list(pinned._begin) == list(read._begin)
            assert list(pinned._end) == list(read._end)
            assert list(pinned._level) == list(read._level)

        with vectorized.use_backend(backend):
            assert_pin_equals_reads()
            fat = max(tree.shard_report(), key=lambda row: row["live"])
            left, right = tree.split_shard(fat["id"], fat["live"] // 2)
            assert_pin_equals_reads()
            assert tree.merge_shards(left, right) is not None
            assert_pin_equals_reads()
        reopened.close()

    def test_pinned_store_immune_to_engine_writes(self, tmp_path):
        """Engine-level writes after the pin never change results."""
        document = xmark_like(25, 12, 9, seed=9)
        reopened = self._open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        queries = xpath_battery(reopened.document, 8, seed=10)
        expected = [_ids(evaluate_dom(reopened.document, query))
                    for query in queries]
        snapshot = tree.snapshot()
        store = ColumnarStore.from_snapshot(reopened, snapshot)
        anchors = list(tree.iter_leaves(include_deleted=False))
        for step, anchor in enumerate(anchors[: len(anchors) // 2]):
            tree.insert_after(anchor, ("noise", step))
        for query, truth in zip(queries, expected):
            assert _ids(evaluate_columnar(store, query)) == truth
        reopened.close()

    def test_pinned_store_immune_to_rebalance(self, tmp_path):
        """Split/merge under a pinned store is unobservable: identical
        results before, during (parked mid-split) and after, and a
        store pinned *afterwards* still agrees with the DOM."""
        document = xmark_like(25, 12, 9, seed=13)
        reopened = self._open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        queries = xpath_battery(reopened.document, 8, seed=14)
        expected = [_ids(evaluate_dom(reopened.document, query))
                    for query in queries]
        store = ColumnarStore.from_snapshot(reopened, tree.snapshot())

        parked, release = threading.Event(), threading.Event()

        def hook(stage, *args):
            if stage == "split:locked":
                parked.set()
                assert release.wait(10)

        report = tree.shard_report()
        fat = max(report, key=lambda row: row["live"])
        tree.rebalance_hook = hook
        splitter = threading.Thread(
            target=tree.split_shard, args=(fat["id"],
                                           fat["leaves"] // 2))
        splitter.start()
        assert parked.wait(10)
        try:
            # mid-split: the pinned store answers, identically
            for query, truth in zip(queries, expected):
                assert _ids(evaluate_columnar(store, query)) == truth
        finally:
            release.set()
            splitter.join(10)
        tree.rebalance_hook = None
        ids = tree.shard_ids
        pair = min(zip(ids, ids[1:]), key=lambda p: p[0] + p[1])
        tree.merge_shards(pair[0], pair[1])
        # after the rebalance: pinned store still identical ...
        for query, truth in zip(queries, expected):
            assert _ids(evaluate_columnar(store, query)) == truth
        # ... and a freshly pinned store on the new epoch also agrees
        fresh = ColumnarStore.from_snapshot(reopened, tree.snapshot())
        for query, truth in zip(queries, expected):
            assert _ids(evaluate_columnar(fresh, query)) == truth
        reopened.close()

    def test_rebalancer_thread_under_live_queries(self, tmp_path):
        """A policy rebalancer mutating the directory while queries run
        against a pinned store: no blocking, no divergence."""
        from repro.core.sharded import RebalancePolicy

        document = xmark_like(25, 12, 9, seed=15)
        reopened = self._open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        queries = xpath_battery(reopened.document, 6, seed=16)
        expected = [_ids(evaluate_dom(reopened.document, query))
                    for query in queries]
        store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
        errors = []

        def rebalancer():
            try:
                report = tree.shard_report()
                fat = max(report, key=lambda row: row["live"])
                if fat["leaves"] >= 2:
                    tree.split_shard(fat["id"], fat["leaves"] // 2)
                tree.rebalance(RebalancePolicy(max_ratio=2.0,
                                               min_split_leaves=8))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        thread = threading.Thread(target=rebalancer)
        thread.start()
        try:
            for _ in range(4):
                for query, truth in zip(queries, expected):
                    assert _ids(evaluate_columnar(store, query)) == truth
        finally:
            thread.join()
        assert not errors, errors
        assert tree.shard_splits > 0
        reopened.close()

    def test_old_epoch_handles_resolve_in_fresh_snapshot(self, tmp_path):
        """Handles minted before a rebalance feed from_snapshot's
        resolution path in a post-rebalance snapshot."""
        document = xmark_like(20, 10, 8, seed=17)
        reopened = self._open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        old_handles = list(tree.iter_leaves(include_deleted=False))
        report = tree.shard_report()
        fat = max(report, key=lambda row: row["live"])
        tree.split_shard(fat["id"], fat["leaves"] // 2)
        snapshot = tree.snapshot()
        for handle in old_handles[::7]:
            resolved = snapshot.resolve(handle)
            assert snapshot.label(resolved) == snapshot.label(handle)
        store = ColumnarStore.from_snapshot(reopened, snapshot)
        for query in xpath_battery(reopened.document, 6, seed=18):
            assert _ids(evaluate_columnar(store, query)) == \
                _ids(evaluate_dom(reopened.document, query))
        reopened.close()

    def test_queries_run_under_live_writer_threads(self, tmp_path):
        """Lock-free reads: concurrent writers never block or corrupt
        queries against the pinned store."""
        document = xmark_like(25, 12, 9, seed=11)
        reopened = self._open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        queries = xpath_battery(reopened.document, 6, seed=12)
        expected = [_ids(evaluate_dom(reopened.document, query))
                    for query in queries]
        store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
        stop = threading.Event()
        errors = []

        def writer(seed):
            import random
            rng = random.Random(seed)
            handles = list(tree.iter_leaves(include_deleted=False))
            try:
                while not stop.is_set():
                    anchor = handles[rng.randrange(len(handles))]
                    handles.append(
                        tree.insert_after(anchor, ("w", seed)))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(seed,))
                   for seed in (1, 2)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(4):
                for query, truth in zip(queries, expected):
                    assert _ids(evaluate_columnar(store, query)) == truth
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors
        reopened.close()
