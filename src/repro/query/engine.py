"""Interchangeable XPath evaluators (experiment E9).

* :func:`evaluate_dom` — pointer-chasing navigation over the DOM; the
  ground truth the others are checked against;
* :func:`evaluate_interval` — the paper's plan: per step, **one**
  stack-based merge self-join over region labels (child steps add a level
  check);
* :func:`evaluate_edge` — the edge-table plan (§1 ref [11]): one
  index self-join per child step, an *iterated* self-join fix-point per
  descendant step;
* :func:`repro.query.columnar.evaluate_columnar` — the same interval
  plan executed as batch range-intersection passes over flat label
  columns (vectorized; optionally against a pinned, lock-free
  :class:`~repro.concurrent.engine.LabelSnapshot`).

All return elements in document order; their tuple-access counters
quantify the paper's "as efficient as child-axis" claim.

The interval plan's (begin, end) inputs come from
:class:`repro.storage.interval_table.IntervalTableStore`, which shreds
the document once through
:meth:`~repro.labeling.scheme.LabeledDocument.region` — two O(1) label
reads per element, counted in ``label_lookups``.
"""

from __future__ import annotations

from typing import Any

from repro.core.stats import NULL_COUNTERS, Counters
from repro.query.xpath import CHILD, DESCENDANT, Step, XPathQuery
from repro.storage.edge_table import EdgeTableStore
from repro.storage.interval_table import IntervalTableStore
from repro.storage.relational import merge_interval_join
from repro.xml.model import XMLDocument, XMLElement


# ---------------------------------------------------------------------------
# ground truth: DOM navigation
# ---------------------------------------------------------------------------
def evaluate_dom(document: XMLDocument, query: XPathQuery
                 ) -> list[XMLElement]:
    """Navigate the tree directly (no labels, no joins)."""
    context: list[XMLElement] = _first_step_dom(document, query.steps[0])
    for step in query.steps[1:]:
        next_context: list[XMLElement] = []
        seen: set[int] = set()
        for element in context:
            candidates = (element.child_elements() if step.axis == CHILD
                          else _proper_descendants(element))
            for candidate in candidates:
                if step.matches_element(candidate) and \
                        id(candidate) not in seen:
                    seen.add(id(candidate))
                    next_context.append(candidate)
        context = _document_order(document, next_context)
    return context


def _first_step_dom(document: XMLDocument, step: Step
                    ) -> list[XMLElement]:
    if step.axis == CHILD:
        root = document.root
        return [root] if step.matches_element(root) else []
    return [element for element in document.iter_elements()
            if step.matches_element(element)]


def _proper_descendants(element: XMLElement):
    for descendant in element.iter_elements():
        if descendant is not element:
            yield descendant


def _document_order(document: XMLDocument,
                    elements: list[XMLElement]) -> list[XMLElement]:
    order = {id(element): position
             for position, element in enumerate(document.iter_elements())}
    return sorted(elements, key=lambda element: order[id(element)])


# ---------------------------------------------------------------------------
# the paper's plan: interval containment joins
# ---------------------------------------------------------------------------
def evaluate_interval(store: IntervalTableStore, query: XPathQuery,
                      stats: Counters = NULL_COUNTERS
                      ) -> list[XMLElement]:
    """One structural self-join per step over (begin, end) labels."""
    context = _first_step_interval(store, query.steps[0], stats)
    for step in query.steps[1:]:
        candidates = _tag_triples(store, step, stats)
        pairs = merge_interval_join(sorted(context), candidates, stats)
        if step.axis == CHILD:
            matched = {
                descendant_id
                for ancestor_id, descendant_id in (
                    (a, d) for a, d in pairs)
                if store.level_of(descendant_id) ==
                store.level_of(ancestor_id) + 1
            }
        else:
            matched = {descendant_id for _, descendant_id in pairs}
        context = [triple for triple in candidates
                   if triple[2] in matched]
        context = _attribute_filter_interval(store, step, context, stats)
    return [store.element(element_id) for _, _, element_id in
            sorted(context)]


def _first_step_interval(store: IntervalTableStore, step: Step,
                         stats: Counters) -> list[tuple[Any, Any, int]]:
    triples = _tag_triples(store, step, stats)
    if step.axis == CHILD:
        triples = [triple for triple in triples
                   if store.level_of(triple[2]) == 0]
    else:
        triples = list(triples)
    return _attribute_filter_interval(store, step, triples, stats)


def _attribute_filter_interval(store: IntervalTableStore, step: Step,
                               triples: list[tuple[Any, Any, int]],
                               stats: Counters
                               ) -> list[tuple[Any, Any, int]]:
    """Apply a step's attribute predicate (one row fetch per candidate)."""
    if step.attribute is None:
        return triples
    key, value = step.attribute
    kept = []
    for triple in triples:
        stats.tuple_reads += 1
        if store.element(triple[2]).attributes.get(key) == value:
            kept.append(triple)
    return kept


def _tag_triples(store: IntervalTableStore, step: Step,
                 stats: Counters) -> list[tuple[Any, Any, int]]:
    # public index API only; the scan charge lands on the same stats
    # object the join and attribute filters use
    if step.test == "*":
        return store.all_regions(stats)
    return store.region_list(step.test, stats)


# ---------------------------------------------------------------------------
# the baseline: edge-table self-joins
# ---------------------------------------------------------------------------
def evaluate_edge(store: EdgeTableStore, query: XPathQuery
                  ) -> list[XMLElement]:
    """Per-step self-joins on (id, parent_id); '//' iterates per level."""
    first = query.steps[0]
    if first.axis == CHILD:
        context = [element_id for element_id in store.root_ids()
                   if first.matches(store.element(element_id).tag)]
    else:
        context = (store.ids_by_tag(first.test) if first.test != "*"
                   else [row[0] for row in store.iter_rows()])
    context = _attribute_filter_edge(store, first, context)
    for step in query.steps[1:]:
        tag = None if step.test == "*" else step.test
        unique = list(dict.fromkeys(context))
        if step.axis == CHILD:
            context = store.children_of(unique, tag)
        else:
            context = store.descendants_of(unique, tag)
        context = _attribute_filter_edge(store, step, context)
    ordered = sorted(set(context))
    return [store.element(element_id) for element_id in ordered]


def _attribute_filter_edge(store: EdgeTableStore, step: Step,
                           ids: list[int]) -> list[int]:
    """Apply a step's attribute predicate (one row fetch per candidate)."""
    if step.attribute is None:
        return ids
    key, value = step.attribute
    kept = []
    for element_id in ids:
        store.stats.tuple_reads += 1
        if store.element(element_id).attributes.get(key) == value:
            kept.append(element_id)
    return kept
