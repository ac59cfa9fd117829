"""Incremental re-pins, predicate pushdown, and query sessions.

The contract under test: ``from_snapshot(..., previous=store)`` must be
*indistinguishable* from a full rebuild — byte-identical columns
across backends, engine writes, and rebalance epochs — while the
counters prove it did less work; pushdown and session caching must be
pure plan changes (same results, fewer probes).
"""

import pytest

from repro import obs
from repro.core import vectorized
from repro.core.stats import Counters
from repro.errors import ParameterError
from repro.labeling.scheme import LabeledDocument
from repro.order.registry import make_scheme
from repro.query.columnar import (ColumnarStore, QuerySession,
                                  evaluate_batch, evaluate_columnar)
from repro.query.engine import evaluate_dom
from repro.query.xpath import parse_xpath
from repro.workloads.queries import xpath_battery
from repro.xml.generator import xmark_like
from repro.xml.parser import parse

BACKENDS = ["array"] + (["numpy"] if vectorized.HAS_NUMPY else [])


def _ids(elements):
    return [id(element) for element in elements]


def _open_concurrent(tmp_path, document):
    labeled = LabeledDocument(document,
                              scheme=make_scheme("ltree-sharded"))
    labeled.save(str(tmp_path / "doc"))
    return LabeledDocument.open(str(tmp_path / "doc"), concurrent=True)


def _assert_identical(spliced, rebuilt):
    """The incremental store is byte-identical to a fresh rebuild."""
    assert list(spliced._begin) == list(rebuilt._begin)
    assert list(spliced._end) == list(rebuilt._end)
    assert list(spliced._level) == list(rebuilt._level)
    assert spliced.pinned_epoch == rebuilt.pinned_epoch


class _ShiftedSnapshot:
    """A pinned snapshot with one shard's prefix moved up by ``shift``:
    a stand-in for a label space that has grown past int64."""

    def __init__(self, snapshot, shard_id, shift):
        self._snapshot = snapshot
        self._shard_id = shard_id
        self._shift = shift
        self.epoch = snapshot.epoch
        self.resolve = snapshot.resolve
        self.label_column = snapshot.label_column

    def shard_prefix(self, shard_id):
        prefix = self._snapshot.shard_prefix(shard_id)
        return prefix + self._shift if shard_id == self._shard_id \
            else prefix


@pytest.mark.parametrize("backend", BACKENDS)
class TestIncrementalRepin:
    def test_same_epoch_returns_previous_store(self, tmp_path, backend):
        document = xmark_like(25, 12, 9, seed=21)
        reopened = _open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
            stats = Counters()
            again = ColumnarStore.from_snapshot(
                reopened, tree.snapshot(), stats, previous=store)
        assert again is store
        assert stats.shards_reused > 0
        assert stats.shards_reextracted == 0
        reopened.close()

    def test_splice_matches_rebuild_after_writes(self, tmp_path, backend):
        """Dirty-shard splice == full rebuild, and only the written
        shards are re-extracted."""
        document = xmark_like(30, 15, 11, seed=22)
        reopened = _open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
            anchors = list(tree.iter_leaves(include_deleted=False))
            for step in range(25):
                tree.insert_after(anchors[step], ("noise", step))
            snapshot = tree.snapshot()
            stats = Counters()
            spliced = ColumnarStore.from_snapshot(
                reopened, snapshot, stats, previous=store)
            rebuilt = ColumnarStore.from_snapshot(reopened, snapshot)
            _assert_identical(spliced, rebuilt)
            # DOM-stable structures are shared, not copied
            assert spliced.elements is store.elements
            assert spliced._by_tag is store._by_tag
            assert stats.shards_reextracted >= 1
            assert stats.segments_spliced >= 1
            assert stats.shards_reextracted + stats.shards_reused <= \
                tree.shard_count + 1
            for query in xpath_battery(reopened.document, 10, seed=23):
                assert _ids(evaluate_columnar(spliced, query)) == \
                    _ids(evaluate_dom(reopened.document, query))
        reopened.close()

    def test_chain_of_repins(self, tmp_path, backend):
        """Repeated edit → re-pin rounds stay identical to rebuilds."""
        document = xmark_like(20, 10, 7, seed=24)
        reopened = _open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
            for round_number in range(4):
                anchors = list(tree.iter_leaves(include_deleted=False))
                stride = max(1, len(anchors) // 10)
                for i in range(0, len(anchors), stride * (round_number + 1)):
                    tree.insert_after(anchors[i], ("r", round_number, i))
                snapshot = tree.snapshot()
                store = ColumnarStore.from_snapshot(
                    reopened, snapshot, previous=store)
                rebuilt = ColumnarStore.from_snapshot(reopened, snapshot)
                _assert_identical(store, rebuilt)
        reopened.close()

    def test_splice_across_split_and_merge(self, tmp_path, backend):
        """Re-pin across rebalance epochs: vanished shards re-resolve
        through the snapshot's forwarding view."""
        document = xmark_like(30, 15, 11, seed=25)
        reopened = _open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
            report = tree.shard_report()
            fat = max(report, key=lambda row: row["live"])
            left, right = tree.split_shard(fat["id"], fat["live"] // 2)
            snapshot = tree.snapshot()
            spliced = ColumnarStore.from_snapshot(
                reopened, snapshot, previous=store)
            _assert_identical(
                spliced, ColumnarStore.from_snapshot(reopened, snapshot))
            # now merge the halves back and re-pin the spliced store
            merged = tree.merge_shards(left, right)
            assert merged is not None
            snapshot = tree.snapshot()
            again = ColumnarStore.from_snapshot(
                reopened, snapshot, previous=spliced)
            _assert_identical(
                again, ColumnarStore.from_snapshot(reopened, snapshot))
            for query in xpath_battery(reopened.document, 8, seed=26):
                assert _ids(evaluate_columnar(again, query)) == \
                    _ids(evaluate_dom(reopened.document, query))
        reopened.close()

    def test_split_repin_then_edit_only_repins(self, tmp_path, backend):
        """A chain whose first re-pin crosses a split (the vanished
        shard's gather entries move to its two halves) and whose next
        re-pins are edit-only (splicing through those moved entries):
        every splice equals a full rebuild, and the edit-only re-pins
        re-extract exactly the two written halves."""
        document = xmark_like(30, 15, 11, seed=31)
        reopened = _open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
            fat = max(tree.shard_report(), key=lambda row: row["live"])
            anchors = [handle for handle in
                       tree.iter_leaves(include_deleted=False)
                       if handle[0] == fat["id"]]
            for step in range(5):
                tree.insert_after(anchors[3 * step], ("pre-split", step))
            halves = tree.split_shard(fat["id"], fat["leaves"] // 2)
            snapshot = tree.snapshot()
            stats = Counters()
            store = ColumnarStore.from_snapshot(
                reopened, snapshot, stats, previous=store)
            assert stats.segments_spliced >= 2
            _assert_identical(
                store, ColumnarStore.from_snapshot(reopened, snapshot))
            for round_number in range(2):
                live = list(tree.iter_leaves(include_deleted=False))
                for sid in halves:
                    anchor = next(handle for handle in live
                                  if handle[0] == sid)
                    tree.insert_after(anchor, ("post-split",
                                               round_number, sid))
                snapshot = tree.snapshot()
                stats = Counters()
                store = ColumnarStore.from_snapshot(
                    reopened, snapshot, stats, previous=store)
                assert stats.shards_reextracted == 2
                _assert_identical(
                    store, ColumnarStore.from_snapshot(reopened, snapshot))
            for query in xpath_battery(reopened.document, 8, seed=32):
                assert _ids(evaluate_columnar(store, query)) == \
                    _ids(evaluate_dom(reopened.document, query))
        reopened.close()

    def test_repinned_answers_are_a_fresh_pins_elements(self, tmp_path,
                                                        backend):
        """Answers gathered from a re-pinned store are the very element
        objects a fresh pin answers with, in the same order."""
        document = xmark_like(30, 15, 11, seed=37)
        reopened = _open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        texts = ["/site//increase", "//open_auction/bidder/increase",
                 "//item/description//listitem",
                 "//people/person[@id='person3']/name", "//nothing"]
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
            anchors = list(tree.iter_leaves(include_deleted=False))
            for step in range(0, len(anchors), 9):
                tree.insert_after(anchors[step], ("noise", step))
            snapshot = tree.snapshot()
            repinned = store.repin(reopened, snapshot)
            fresh = ColumnarStore.from_snapshot(reopened, snapshot)
            assert repinned is not store
            assert repinned.elements is store.elements
            queries = [parse_xpath(text) for text in texts] + \
                xpath_battery(reopened.document, 8, seed=38)
            session = QuerySession(repinned)
            for query in queries:
                answer = session.evaluate(query)
                assert _ids(answer) == \
                    _ids(QuerySession(fresh).evaluate(query))
                assert _ids(answer) == \
                    _ids(evaluate_columnar(fresh, query))
                assert _ids(answer) == \
                    _ids(evaluate_dom(reopened.document, query))
        reopened.close()

    def test_labels_past_int64_rebuild_exactly(self, tmp_path, backend):
        """A re-pin whose spliced labels would leave int64 (where numpy
        wraps silently) must not splice: it rebuilds on the exact path
        and composes the same labels as plain Python ints."""
        document = xmark_like(15, 8, 6, seed=33)
        reopened = _open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        first = tree.shard_ids[0]
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
            tree.insert_after(next(tree.iter_leaves()), ("x",))
            shifted = _ShiftedSnapshot(tree.snapshot(), first,
                                       2 ** 63 - 1)
            stats = Counters()
            repinned = ColumnarStore.from_snapshot(
                reopened, shifted, stats, previous=store)
        assert stats.segments_spliced == 0
        assert repinned.backend == "array"

        def label(handle):
            sid, slot = shifted.resolve(handle)
            return shifted.shard_prefix(sid) + \
                shifted.label_column(sid)[slot]

        rows = list(reopened.element_handles())
        assert repinned._begin == [label(row[1]) for row in rows]
        assert repinned._end == [label(row[2]) for row in rows]
        assert max(repinned._end) >= 2 ** 63
        reopened.close()

    def test_compact_epoch_jump_forces_rebuild(self, tmp_path, backend):
        """Compaction keeps shard ids but rewrites slot maps: the
        membership-preserving epoch jump must fall back to a full
        rebuild instead of splicing through stale handles."""
        document = xmark_like(20, 10, 7, seed=27)
        reopened = _open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
            anchors = list(tree.iter_leaves(include_deleted=False))
            for step in range(10):
                tree.insert_after(anchors[step], ("pre-compact", step))
            tree.compact()
            snapshot = tree.snapshot()
            stats = Counters()
            repinned = ColumnarStore.from_snapshot(
                reopened, snapshot, stats, previous=store)
            assert stats.segments_spliced == 0  # rebuilt, not spliced
            _assert_identical(
                repinned, ColumnarStore.from_snapshot(reopened, snapshot))
            for query in xpath_battery(reopened.document, 8, seed=28):
                assert _ids(evaluate_columnar(repinned, query)) == \
                    _ids(evaluate_dom(reopened.document, query))
        reopened.close()

    @pytest.mark.parametrize("edit", ["insert", "delete", "move"])
    def test_dom_edit_forces_rebuild(self, tmp_path, backend, edit):
        """A subtree insert, delete or move through the document moves
        element positions: the re-pin must rebuild, not splice fresh
        labels into the pre-edit element list."""
        document = xmark_like(16, 8, 6, seed=41)
        reopened = _open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        query = parse_xpath("//item/name")
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
            items = list(reopened.document.find_all("item"))
            if edit == "insert":
                reopened.insert_subtree(
                    items[3].parent, 0,
                    parse("<item><name>new</name></item>").root)
            elif edit == "delete":
                reopened.delete_subtree(items[3])
            else:
                target = items[-1].parent
                reopened.move_subtree(items[0], target,
                                      len(target.children))
            snapshot = tree.snapshot()
            stats = Counters()
            repinned = store.repin(reopened, snapshot, stats)
            rebuilt = ColumnarStore.from_snapshot(reopened, snapshot)
            assert _ids(evaluate_columnar(repinned, query)) == \
                _ids(evaluate_dom(reopened.document, query))
            assert _ids(repinned.elements) == _ids(rebuilt.elements)
            _assert_identical(repinned, rebuilt)
            assert stats.segments_spliced == 0
        reopened.close()

    def test_repin_against_another_document_rebuilds(self, tmp_path,
                                                     backend):
        """A store pinned from one document re-pinned against another
        (here: a second copy at the same epoch) holds the second
        document's elements."""
        document = xmark_like(10, 5, 4, seed=43)
        (tmp_path / "first").mkdir()
        (tmp_path / "second").mkdir()
        first = _open_concurrent(tmp_path / "first", document)
        second = _open_concurrent(tmp_path / "second", document)
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(
                first, first.scheme.tree.snapshot())
            snapshot = second.scheme.tree.snapshot()
            repinned = store.repin(second, snapshot)
            assert repinned.elements[0] is second.document.root
            _assert_identical(
                repinned, ColumnarStore.from_snapshot(second, snapshot))
        first.close()
        second.close()

    def test_repin_method_is_from_snapshot_sugar(self, tmp_path, backend):
        document = xmark_like(15, 8, 6, seed=29)
        reopened = _open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
            tree.insert_after(next(tree.iter_leaves()), ("x",))
            snapshot = tree.snapshot()
            _assert_identical(
                store.repin(reopened, snapshot),
                ColumnarStore.from_snapshot(reopened, snapshot))
        reopened.close()


def test_pin_and_repin_record_one_span_and_metric_each(tmp_path):
    reopened = _open_concurrent(tmp_path, xmark_like(10, 5, 4, seed=45))
    tree = reopened.scheme.tree
    obs.reset()
    obs.enable()
    try:
        store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
        again = store.repin(reopened, tree.snapshot())
        counters = obs.METRICS.counters()
        pin_seconds = obs.METRICS.histogram("query.pin.seconds")
        spans = [event for event in obs.TRACER.events()
                 if event["type"] == "span" and
                 event["name"].startswith("query.")]
    finally:
        obs.disable()
        obs.reset()
    assert again is store
    assert counters["query.pins"] == 1
    assert counters["query.repins"] == 1
    assert pin_seconds["count"] == 1
    assert [(span["name"], span["attrs"]) for span in spans] == [
        ("query.pin", {"elements": len(store), "unchanged": False}),
        ("query.repin", {"elements": len(store), "unchanged": True})]
    reopened.close()


class TestBackendFlipFallback:
    @pytest.mark.skipif(not vectorized.HAS_NUMPY, reason="needs numpy")
    def test_backend_flip_forces_rebuild(self, tmp_path):
        document = xmark_like(15, 8, 6, seed=30)
        reopened = _open_concurrent(tmp_path, document)
        tree = reopened.scheme.tree
        with vectorized.use_backend("numpy"):
            store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
        tree.insert_after(next(tree.iter_leaves()), ("x",))
        snapshot = tree.snapshot()
        with vectorized.use_backend("array"):
            stats = Counters()
            repinned = ColumnarStore.from_snapshot(
                reopened, snapshot, stats, previous=store)
            assert repinned.backend == "array"
            assert stats.segments_spliced == 0
            _assert_identical(
                repinned, ColumnarStore.from_snapshot(reopened, snapshot))
        reopened.close()


class TestPushdown:
    DOCUMENT = ('<site><items>'
                '<item featured="yes"><name>a</name></item>'
                '<item featured="no"><name>b</name></item>'
                '<item featured="yes"><name>c</name></item>'
                '<item><name>d</name></item>'
                '</items><extra featured="yes"/></site>')

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("text", [
        "//item[@featured='yes']",
        "//item[@featured='yes']/name",
        "/site/items/item[@featured='no']",
        "//items/item[@featured='yes']",
        "//item[@featured='absent']",
    ])
    def test_pushdown_matches_dom(self, backend, text):
        document = parse(self.DOCUMENT)
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_labeled(LabeledDocument(document))
            query = parse_xpath(text)
            assert _ids(evaluate_columnar(store, query)) == \
                _ids(evaluate_dom(document, query)), text

    def test_pruned_candidates_are_counted(self):
        document = parse(self.DOCUMENT)
        store = ColumnarStore.from_labeled(LabeledDocument(document))
        stats = Counters()
        evaluate_columnar(store, parse_xpath("//item[@featured='yes']"),
                          stats)
        # 4 item candidates, 2 survive the predicate
        assert stats.pushdown_pruned == 2

    def test_predicate_memo_shared_across_queries(self):
        document = parse(self.DOCUMENT)
        store = ColumnarStore.from_labeled(LabeledDocument(document))
        first = Counters()
        evaluate_columnar(store,
                          parse_xpath("//item[@featured='yes']/name"),
                          first)
        second = Counters()
        evaluate_columnar(store,
                          parse_xpath("//item[@featured='yes']/name"),
                          second)
        # the memo hit scans 2 filtered positions instead of 4 candidates
        assert second.tuple_reads < first.tuple_reads

    def test_pushdown_equals_post_filter_plan(self, tmp_path):
        """Filtering before the join returns exactly the elements the
        unfiltered plan would keep after a manual post-filter."""
        document = xmark_like(20, 10, 7, seed=31)
        reopened = _open_concurrent(tmp_path, document)
        store = ColumnarStore.from_snapshot(reopened,
                                            reopened.scheme.tree.snapshot())
        for text, plain in (("//item[@id='item3']", "//item"),
                            ("//item[@id='item3']/name", None)):
            pushed = evaluate_columnar(store, parse_xpath(text))
            if plain is not None:
                unfiltered = evaluate_columnar(store, parse_xpath(plain))
                manual = [element for element in unfiltered
                          if element.attributes.get("id") == "item3"]
                assert _ids(pushed) == _ids(manual)
            assert _ids(pushed) == \
                _ids(evaluate_dom(reopened.document, parse_xpath(text)))
        reopened.close()


class TestQuerySession:
    QUERIES = ["//item/name", "//item/description", "/site//increase",
               "/site/regions//item", "//item", "//open_auction/bidder",
               "//open_auction/bidder/increase", "//person//city"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_matches_individual_evaluation(self, backend):
        document = xmark_like(25, 12, 9, seed=32)
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_labeled(LabeledDocument(document))
            queries = [parse_xpath(text) for text in self.QUERIES]
            batched = evaluate_batch(store, queries)
            for query, result in zip(queries, batched):
                assert _ids(result) == \
                    _ids(evaluate_columnar(store, query))
                assert _ids(result) == \
                    _ids(evaluate_dom(document, query))

    def test_shared_prefix_is_computed_once(self):
        document = xmark_like(25, 12, 9, seed=33)
        store = ColumnarStore.from_labeled(LabeledDocument(document))
        solo = Counters()
        for text in ("//open_auction/bidder/increase",
                     "//open_auction/bidder/date"):
            evaluate_columnar(store, parse_xpath(text), solo)
        shared = Counters()
        session = QuerySession(store, shared)
        for text in ("//open_auction/bidder/increase",
                     "//open_auction/bidder/date"):
            session.evaluate(parse_xpath(text))
        # the //open_auction/bidder prefix ran once, not twice
        assert shared.comparisons < solo.comparisons
        assert shared.tuple_reads < solo.tuple_reads

    def test_repeated_query_served_from_cache(self):
        document = xmark_like(15, 8, 6, seed=34)
        store = ColumnarStore.from_labeled(LabeledDocument(document))
        stats = Counters()
        session = QuerySession(store, stats)
        first = session.evaluate(parse_xpath("//item/name"))
        cost_once = stats.snapshot()
        second = session.evaluate(parse_xpath("//item/name"))
        assert _ids(first) == _ids(second)
        assert stats.comparisons == cost_once.comparisons

    def test_parallel_fan_out_is_rejected(self):
        store = ColumnarStore.from_labeled(
            LabeledDocument(parse("<a><b/><b/></a>")))
        with pytest.raises(ParameterError):
            QuerySession(store, parallel=True)
        session = QuerySession(store, Counters(), parallel=False)
        assert len(session.evaluate(parse_xpath("//b"))) == 2

    def test_evaluate_columnar_is_a_one_query_session(self):
        """Its steps go through the session loop: each one is a memo
        miss and one ``query.step.seconds`` sample."""
        store = ColumnarStore.from_labeled(
            LabeledDocument(xmark_like(10, 5, 4, seed=39)))
        obs.reset()
        obs.enable(trace=False)
        try:
            evaluate_columnar(store,
                              parse_xpath("//open_auction/bidder/increase"))
            counters = obs.METRICS.counters()
            steps = obs.METRICS.histogram("query.step.seconds")
        finally:
            obs.disable()
            obs.reset()
        assert counters["query.session.step_misses"] == 3
        assert counters.get("query.session.step_hits", 0) == 0
        assert steps["count"] == 3

    def test_session_over_interval_store(self):
        from repro.storage.interval_table import IntervalTableStore

        document = xmark_like(10, 5, 4, seed=35)
        interval = IntervalTableStore(LabeledDocument(document))
        session = QuerySession(interval)
        for text in self.QUERIES[:4]:
            query = parse_xpath(text)
            assert _ids(session.evaluate(query)) == \
                _ids(evaluate_dom(document, query))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_session_with_attribute_queries(self, backend):
        document = xmark_like(20, 10, 7, seed=36)
        with vectorized.use_backend(backend):
            store = ColumnarStore.from_labeled(LabeledDocument(document))
            texts = ["//item[@id='item2']", "//item",
                     "//item[@id='item2']/name", "//item/name",
                     "//person[@id='person1']//city"]
            queries = [parse_xpath(text) for text in texts]
            for query, result in zip(queries,
                                     evaluate_batch(store, queries)):
                assert _ids(result) == _ids(evaluate_dom(document, query))
