"""Cross-module integration scenarios: the library as a user drives it.

Each test chains several subsystems end-to-end, the way the examples do,
so regressions at module seams surface even when per-module tests pass.
"""

import random

import pytest

from repro.core import tuning
from repro.core.params import LTreeParams
from repro.core.persistence import restore, snapshot
from repro.core.stats import Counters
from repro.labeling import DeweyDocument, LabeledDocument
from repro.query import (evaluate_dom, evaluate_edge, evaluate_interval,
                         parse_xpath)
from repro.storage import EdgeTableStore, IntervalTableStore
from repro.workloads import apply_workload, mixed_workload, xpath_battery
from repro.xml import (XMLElement, XMLTextNode, parse, serialize,
                       xmark_like)


class TestParseLabelQueryPipeline:
    def test_full_pipeline(self):
        text = serialize(xmark_like(15, 8, 5, seed=51))
        document = parse(text)
        labeled = LabeledDocument(document)
        interval = IntervalTableStore(labeled)
        edge = EdgeTableStore(document)
        for query_text in ("//item/name", "/site//increase",
                           "//person[@id='person1']"):
            query = parse_xpath(query_text)
            truth = [id(e) for e in evaluate_dom(document, query)]
            assert truth == [id(e) for e in
                             evaluate_interval(interval, query)]
            assert truth == [id(e) for e in evaluate_edge(edge, query)]

    def test_edit_persist_requery(self):
        document = xmark_like(10, 5, 4, seed=52)
        labeled = LabeledDocument(document,
                                  params=LTreeParams(f=8, s=2))
        regions = next(document.find_all("regions"))
        for edit in range(20):
            item = XMLElement("item", [("id", f"late{edit}")])
            item.append_child(XMLTextNode(f"content {edit}"))
            labeled.insert_subtree(regions, 0, item)
        labeled.validate()
        # persist the raw labels, restore, and verify order agreement
        # (payloads are live XMLNode tuples — not JSON-able, and a
        # snapshot guarantees JSON-safety — so they stay out of it)
        data = snapshot(labeled.scheme.tree, include_payloads=False)
        rebuilt = restore(data)
        assert rebuilt.labels() == labeled.scheme.tree.labels()

    @pytest.mark.skipif(not tuning.HAS_SCIPY_STACK,
                        reason="continuous tuning needs numpy + scipy")
    def test_tuned_parameters_flow_through(self):
        document = xmark_like(8, 4, 3, seed=53)
        recommendation = tuning.minimize_update_cost(10_000)
        labeled = LabeledDocument(document,
                                  params=recommendation.params)
        labeled.validate()
        interval = IntervalTableStore(labeled)
        query = parse_xpath("//item")
        assert len(evaluate_interval(interval, query)) == 8


class TestWorkloadsAcrossSchemes:
    def test_mixed_workload_then_bits_accounting(self):
        from repro.order import make_scheme
        stats = Counters()
        scheme = make_scheme("two-level", stats)
        result = apply_workload(scheme, mixed_workload(800, seed=54))
        assert result.final_size == len(scheme)
        assert result.label_bits == scheme.label_bits()
        scheme.validate()

    def test_battery_on_edited_document(self):
        document = xmark_like(12, 6, 4, seed=55)
        labeled = LabeledDocument(document)
        rng = random.Random(56)
        for edit in range(30):
            elements = list(document.iter_elements())
            parent = rng.choice(elements)
            labeled.insert_subtree(
                parent, rng.randint(0, len(parent.children)),
                XMLElement(f"patch{edit}"))
        labeled.validate()
        interval = IntervalTableStore(labeled)
        edge = EdgeTableStore(document)
        for query in xpath_battery(document, 15, seed=57):
            truth = [id(e) for e in evaluate_dom(document, query)]
            assert truth == [id(e) for e in
                             evaluate_interval(interval, query)]
            assert truth == [id(e) for e in evaluate_edge(edge, query)]


class TestLabelingFamiliesAgree:
    def test_region_and_dewey_agree_on_axes(self):
        document = xmark_like(8, 4, 3, seed=58)
        region = LabeledDocument(document)
        # the Dewey labeling gets a re-parsed twin of the document
        twin = parse(serialize(document))
        dewey = DeweyDocument(twin)
        region_elements = list(document.iter_elements())
        dewey_elements = list(twin.iter_elements())
        rng = random.Random(59)
        for _ in range(300):
            index_a = rng.randrange(len(region_elements))
            index_b = rng.randrange(len(region_elements))
            if index_a == index_b:
                continue
            assert region.is_ancestor(
                region_elements[index_a], region_elements[index_b]) == \
                dewey.is_ancestor(
                    dewey_elements[index_a], dewey_elements[index_b])
            assert region.precedes(
                region_elements[index_a], region_elements[index_b]) == \
                dewey.precedes(
                    dewey_elements[index_a], dewey_elements[index_b])


class TestDocumentLifecycle:
    def test_grow_delete_compact_requery(self):
        document = parse("<store><shelf/></store>")
        labeled = LabeledDocument(document,
                                  params=LTreeParams(f=4, s=2))
        shelf = next(document.find_all("shelf"))
        rng = random.Random(60)
        created = []
        for edit in range(120):
            book = XMLElement("bk", [("n", str(edit))])
            labeled.insert_subtree(shelf, rng.randint(
                0, len(shelf.children)), book)
            created.append(book)
        for victim in created[::3]:
            labeled.delete_subtree(victim)
        tombstones = labeled.scheme.tree.tombstone_count()
        assert tombstones > 0
        reclaimed = labeled.compact()
        assert reclaimed == tombstones
        labeled.validate()
        interval = IntervalTableStore(labeled)
        remaining = evaluate_interval(interval, parse_xpath("//bk"))
        assert len(remaining) == 80
