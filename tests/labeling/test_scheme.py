"""LabeledDocument: label maintenance across DOM edits."""

import random

import pytest

from repro.core.params import LTreeParams
from repro.core.stats import Counters
from repro.labeling.scheme import LabeledDocument
from repro.order.compact_list import CompactListLabeling
from repro.order.ltree_list import LTreeListLabeling
from repro.order.registry import DEFAULT_SCHEME, SCHEMES, make_scheme
from repro.xml.generator import xmark_like
from repro.xml.model import XMLElement, XMLTextNode
from repro.xml.parser import parse


@pytest.fixture()
def small():
    document = parse("<r><a>one</a><b><c/></b></r>")
    return document, LabeledDocument(document)


class TestBulkLabeling:
    def test_labels_in_document_order(self, small):
        _, labeled = small
        labels = labeled.labels_in_order()
        assert labels == sorted(labels)

    def test_regions_nest_like_structure(self, small):
        document, labeled = small
        labeled.validate()

    def test_begin_end_for_elements(self, small):
        document, labeled = small
        r = labeled.region(document.root)
        b = labeled.region(next(document.find_all("b")))
        assert r.contains(b)

    def test_point_nodes_have_single_label(self, small):
        document, labeled = small
        text = next(node for node in document.iter_nodes()
                    if isinstance(node, XMLTextNode))
        assert labeled.begin_label(text) == labeled.end_label(text)

    def test_region_rejects_text_nodes(self, small):
        document, labeled = small
        text = next(node for node in document.iter_nodes()
                    if isinstance(node, XMLTextNode))
        with pytest.raises(ValueError):
            labeled.region(text)

    def test_unlabeled_node_rejected(self, small):
        _, labeled = small
        stranger = XMLElement("stranger")
        with pytest.raises(ValueError):
            labeled.begin_label(stranger)

    def test_scheme_and_params_mutually_exclusive(self):
        document = parse("<a/>")
        with pytest.raises(ValueError):
            LabeledDocument(document, scheme=make_scheme("naive"),
                            params=LTreeParams(f=4, s=2))


class TestDefaultEngineAndLabelCache:
    """The compact engine is the default; every label read is one
    counted scheme lookup and stays current across edits."""

    def test_default_scheme_is_compact(self):
        document = parse("<r><a/><b/></r>")
        labeled = LabeledDocument(document)
        assert DEFAULT_SCHEME == "ltree-compact"
        assert isinstance(labeled.scheme, CompactListLabeling)

    def test_params_route_to_compact_engine(self):
        document = parse("<r><a/><b/></r>")
        labeled = LabeledDocument(document, params=LTreeParams(f=4, s=2))
        assert isinstance(labeled.scheme, CompactListLabeling)
        assert labeled.scheme.params.f == 4

    def test_opt_back_into_node_engine(self):
        document = parse("<r><a/><b/></r>")
        labeled = LabeledDocument(document, scheme=make_scheme("ltree"))
        assert isinstance(labeled.scheme, LTreeListLabeling)
        labeled.validate()

    def test_engines_label_documents_identically(self):
        xml = "<r><a>one</a><b><c/><c/></b><d/></r>"
        compact = LabeledDocument(parse(xml))
        reference = LabeledDocument(parse(xml),
                                    scheme=make_scheme("ltree"))
        assert compact.labels_in_order() == reference.labels_in_order()

    def test_disabled_cache_counts_every_lookup(self):
        stats = Counters()
        document = parse("<r><a/><b/></r>")
        labeled = LabeledDocument(document, stats=stats)
        a = next(document.find_all("a"))
        labeled.is_ancestor(document.root, a)  # 4 label reads
        assert stats.label_lookups == 4

    def test_label_reads_track_edits(self):
        """Label reads always match the scheme, across every edit."""
        document = parse("<r><a/><b/><c/></r>")
        labeled = LabeledDocument(document)

        def ground_truth_agrees():
            for element in document.iter_elements():
                assert labeled.begin_label(element) == \
                    labeled.scheme.label(element.begin)
                assert labeled.end_label(element) == \
                    labeled.scheme.label(element.end)

        ground_truth_agrees()
        b = next(document.find_all("b"))
        before = labeled.begin_label(b)
        # splitting inserts relabel b's begin token eventually
        for index in range(40):
            labeled.insert_subtree(document.root, 0,
                                   XMLElement(f"n{index}"))
        ground_truth_agrees()
        assert labeled.begin_label(b) != before
        labeled.delete_subtree(next(document.find_all("a")))
        ground_truth_agrees()
        labeled.compact()
        ground_truth_agrees()
        labeled.validate()


class TestPredicates:
    def test_is_ancestor_matches_structure(self):
        document = xmark_like(15, 8, 5, seed=2)
        labeled = LabeledDocument(document)
        elements = list(document.iter_elements())
        rng = random.Random(1)
        for _ in range(400):
            first, second = rng.choice(elements), rng.choice(elements)
            if first is second:
                continue
            assert labeled.is_ancestor(first, second) == \
                first.is_ancestor_of(second)

    def test_precedes_matches_document_order(self, small):
        document, labeled = small
        nodes = list(document.iter_elements())
        for i, first in enumerate(nodes):
            for second in nodes[i + 1:]:
                assert labeled.precedes(first, second)
                assert not labeled.precedes(second, first)

    def test_following_axis(self, small):
        document, labeled = small
        a = next(document.find_all("a"))
        b = next(document.find_all("b"))
        assert labeled.is_following(b, a)
        assert not labeled.is_following(a, b)


class TestSubtreeInsertion:
    def test_insert_at_every_position(self):
        for index in range(3):
            document = parse("<r><a/><b/></r>")
            labeled = LabeledDocument(document)
            new = XMLElement("new")
            labeled.insert_subtree(document.root, index, new)
            tags = [e.tag for e in document.root.child_elements()]
            expected = ["a", "b"]
            expected.insert(index, "new")
            assert tags == expected
            labeled.validate()

    def test_insert_nested_subtree(self, small):
        document, labeled = small
        subtree = XMLElement("outer")
        inner = XMLElement("inner")
        inner.append_child(XMLTextNode("payload"))
        subtree.append_child(inner)
        b = next(document.find_all("b"))
        labeled.insert_subtree(b, 0, subtree)
        labeled.validate()
        assert labeled.is_ancestor(b, inner)
        assert labeled.is_ancestor(subtree, inner)

    def test_append_subtree(self, small):
        document, labeled = small
        labeled.append_subtree(document.root, XMLElement("tail"))
        assert document.root.children[-1].tag == "tail"
        labeled.validate()

    def test_insert_text(self, small):
        document, labeled = small
        node = labeled.insert_text(document.root, 1, "hello")
        assert document.root.children[1] is node
        labeled.validate()

    def test_index_out_of_range(self, small):
        document, labeled = small
        with pytest.raises(IndexError):
            labeled.insert_subtree(document.root, 99, XMLElement("x"))

    def test_batched_labels_for_subtree(self):
        """The whole subtree arrives through one run insertion."""
        stats = Counters()
        document = parse("<r><a/></r>")
        labeled = LabeledDocument(document, stats=stats)
        stats.reset()
        subtree = XMLElement("s")
        for _ in range(5):
            subtree.append_child(XMLElement("c"))
        labeled.append_subtree(document.root, subtree)
        # 12 tokens in one batch: one ancestor walk, not twelve
        tree_height = labeled.scheme.tree.height
        assert stats.count_updates <= 2 * tree_height


class TestSubtreeDeletion:
    def test_delete_detaches_and_unlabels(self, small):
        document, labeled = small
        b = next(document.find_all("b"))
        labeled.delete_subtree(b)
        assert b.parent is None
        assert all(e.tag != "b" for e in document.iter_elements())
        labeled.validate()

    def test_delete_root_rejected(self, small):
        document, labeled = small
        with pytest.raises(ValueError):
            labeled.delete_subtree(document.root)

    def test_deleted_nodes_lose_labels(self, small):
        document, labeled = small
        b = next(document.find_all("b"))
        labeled.delete_subtree(b)
        with pytest.raises(ValueError):
            labeled.begin_label(b)

    def test_ltree_deletion_is_mark_only(self):
        stats = Counters()
        document = parse("<r><a/><b><c/><c/></b></r>")
        labeled = LabeledDocument(document, stats=stats)
        b = next(document.find_all("b"))
        stats.reset()
        labeled.delete_subtree(b)
        assert stats.relabels == 0


class TestDocumentCompaction:
    def test_compact_rewires_handles(self):
        document = parse("<r><a/><b><c/><c/></b><d/></r>")
        labeled = LabeledDocument(document)
        b = next(document.find_all("b"))
        labeled.delete_subtree(b)
        reclaimed = labeled.compact()
        assert reclaimed == 6  # <b>, two <c/> pairs... b+2c = 3 elements
        labeled.validate()
        # predicates still correct after relabeling
        a = next(document.find_all("a"))
        d = next(document.find_all("d"))
        assert labeled.precedes(a, d)
        assert labeled.is_ancestor(document.root, d)

    def test_compact_shrinks_tombstones_to_zero(self):
        document = parse("<r><a/><b/><c/><d/><e/></r>")
        labeled = LabeledDocument(document)
        for tag in ("b", "d"):
            labeled.delete_subtree(next(document.find_all(tag)))
        assert labeled.scheme.tree.tombstone_count() == 4
        labeled.compact()
        assert labeled.scheme.tree.tombstone_count() == 0
        labeled.validate()

    def test_compact_requires_ltree_scheme(self):
        document = parse("<r><a/></r>")
        labeled = LabeledDocument(document, scheme=make_scheme("naive"))
        with pytest.raises(TypeError):
            labeled.compact()

    def test_edits_after_compaction(self):
        import random
        document = parse("<r><a/><b/></r>")
        labeled = LabeledDocument(document)
        rng = random.Random(9)
        for round_number in range(3):
            for edit in range(30):
                elements = list(document.iter_elements())
                parent = rng.choice(elements)
                labeled.insert_subtree(
                    parent, rng.randint(0, len(parent.children)),
                    XMLElement(f"r{round_number}e{edit}"))
            victims = []
            for element in document.iter_elements():
                if element.parent is None:
                    continue
                if any(chosen.is_ancestor_of(element) or chosen is element
                       for chosen in victims):
                    continue
                victims.append(element)
                if len(victims) == 5:
                    break
            for victim in victims:
                labeled.delete_subtree(victim)
            labeled.compact()
            labeled.validate()


class TestAcrossSchemes:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_any_scheme_labels_consistently(self, name):
        document = xmark_like(8, 4, 3, seed=5)
        labeled = LabeledDocument(document, scheme=make_scheme(name))
        labeled.validate()
        elements = list(document.iter_elements())
        rng = random.Random(2)
        for _ in range(150):
            first, second = rng.choice(elements), rng.choice(elements)
            if first is second:
                continue
            assert labeled.is_ancestor(first, second) == \
                first.is_ancestor_of(second)

    @pytest.mark.parametrize("name", ["ltree", "gap", "bender",
                                      "ltree-sharded"])
    def test_edits_under_any_scheme(self, name):
        document = parse("<r><a/><b/></r>")
        labeled = LabeledDocument(document, scheme=make_scheme(name))
        rng = random.Random(4)
        for edit in range(60):
            elements = list(document.iter_elements())
            parent = rng.choice(elements)
            child = XMLElement(f"e{edit}")
            labeled.insert_subtree(
                parent, rng.randint(0, len(parent.children)), child)
        labeled.validate()


class TestShardedDocumentIsolation:
    """Acceptance: a subtree insert under one top-level child of the
    document writes exactly one shard arena (per-shard Counters)."""

    WRITE_FIELDS = ("count_updates", "relabels", "splits", "inserts",
                    "deletes")

    def test_subtree_insert_touches_one_arena(self):
        from repro.order.sharded_list import ShardedListLabeling

        document = xmark_like(n_items=20, n_people=12, n_auctions=8,
                              seed=6)
        scheme = ShardedListLabeling(LTreeParams(f=16, s=4),
                                     n_shards=6, shard_stats=True)
        labeled = LabeledDocument(document, scheme=scheme)
        counters = scheme.shard_counters
        baselines = [sink.snapshot() for sink in counters]
        # pick a subtree whose whole token run lives inside one shard
        # (the root's direct children straddle several arenas on this
        # generator; any single-arena subtree proves the same property
        # — the anchor alone decides which arena an insert writes)
        target = next(
            element for element in document.iter_elements()
            if element.parent is not None and
            element.begin[0] == element.end[0])
        expected = target.begin[0]
        labeled.append_subtree(target, parse("<x><y>z</y></x>").root)
        written = [rank for rank, (sink, base) in
                   enumerate(zip(counters, baselines))
                   if any(getattr(sink - base, field)
                          for field in self.WRITE_FIELDS)]
        assert written == [expected]
        labeled.validate()


class TestShardAlignedBulkLoad:
    """The ltree-sharded document default: shards align with runs of
    top-level children, so *every* top-level subtree lives wholly in
    one arena (PR 4's test above had to hunt for a single-arena
    subtree; now the root's children are single-arena by construction).
    """

    WRITE_FIELDS = ("count_updates", "relabels", "splits", "inserts",
                    "deletes")

    def _labeled(self, n_shards=4, seed=11, **scheme_kwargs):
        from repro.order.sharded_list import ShardedListLabeling

        document = xmark_like(n_items=18, n_people=10, n_auctions=8,
                              seed=seed)
        scheme = ShardedListLabeling(LTreeParams(f=16, s=4),
                                     n_shards=n_shards, **scheme_kwargs)
        return document, LabeledDocument(document, scheme=scheme)

    def test_every_toplevel_child_is_single_arena(self):
        document, labeled = self._labeled()
        for child in document.root.children:
            if isinstance(child, XMLElement):
                assert child.begin[0] == child.end[0], child.tag

    def test_toplevel_runs_are_contiguous_and_cover_all_shards(self):
        document, labeled = self._labeled(n_shards=4)
        ranks = [child.begin[0] for child in document.root.children]
        assert ranks == sorted(ranks)             # contiguous runs
        assert set(ranks) == set(range(labeled.scheme.tree.shard_count))
        labeled.validate()

    def test_edits_under_two_toplevel_children_write_two_arenas(self):
        document, labeled = self._labeled(shard_stats=True)
        counters = labeled.scheme.shard_counters
        children = [child for child in document.root.children
                    if isinstance(child, XMLElement)]
        first, last = children[0], children[-1]
        assert first.begin[0] != last.begin[0]
        for target in (first, last):
            baselines = [sink.snapshot() for sink in counters]
            labeled.append_subtree(target, parse("<w>edit</w>").root)
            written = [rank for rank, (sink, base) in
                       enumerate(zip(counters, baselines))
                       if any(getattr(sink - base, field)
                              for field in self.WRITE_FIELDS)]
            assert written == [target.begin[0]]
        labeled.validate()

    def test_shard_boundaries_helper_balances_token_weight(self):
        from repro.labeling.scheme import _tokens, shard_boundaries

        document = xmark_like(n_items=20, n_people=12, n_auctions=8,
                              seed=3)
        total = len(_tokens(document.root)[1])
        sizes = shard_boundaries(document.root, 4)
        assert sum(sizes) == total
        assert all(size >= 1 for size in sizes)
        assert len(sizes) <= 4
        # roughly balanced: no chunk more than twice the even share
        assert max(sizes) <= 2 * (total / len(sizes)) + 2

    def test_single_child_document_degenerates_to_one_shard(self):
        from repro.order.sharded_list import ShardedListLabeling

        document = parse("<r><only><a/><b/><c/></only></r>")
        scheme = ShardedListLabeling(LTreeParams(f=4, s=2), n_shards=4)
        labeled = LabeledDocument(document, scheme=scheme)
        assert scheme.tree.shard_count == 1
        labeled.validate()
