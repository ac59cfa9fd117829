"""Interval (region-label) XML storage (Zhang et al., paper §1 ref [17]).

One tuple per element: ``(id, tag, begin, end, level)``, with labels taken
from a :class:`repro.labeling.scheme.LabeledDocument`.  The
ancestor-descendant axis becomes **one** self-join with label-comparison
predicates — evaluated here with the stack-based merge join, using sorted
per-tag indexes, exactly the plan the paper's §1 advertises.
"""

from __future__ import annotations

from typing import Any

from repro.core.stats import NULL_COUNTERS, Counters
from repro.labeling.scheme import LabeledDocument
from repro.storage.relational import (SortedIndex, Table,
                                      merge_interval_join)
from repro.xml.model import XMLElement

#: interval table columns
INTERVAL_COLUMNS = ("id", "tag", "begin", "end", "level")


class IntervalTableStore:
    """An XML document shredded into a region-labeled element table."""

    def __init__(self, labeled: LabeledDocument,
                 stats: Counters = NULL_COUNTERS):
        self.stats = stats
        self.labeled = labeled
        self.table = Table("interval", INTERVAL_COLUMNS, stats)
        self._ids: dict[int, XMLElement] = {}
        self._by_tag: dict[str, list[tuple[Any, Any, int]]] = {}
        self._load()
        self.begin_index = SortedIndex(self.table, "begin")

    def _load(self) -> None:
        next_id = 0
        for element in self.labeled.document.iter_elements():
            region = self.labeled.region(element)
            element_id = next_id
            next_id += 1
            self._ids[element_id] = element
            level = element.depth()
            self.table.insert((element_id, element.tag, region.begin,
                               region.end, level))
            self._by_tag.setdefault(element.tag, []).append(
                (region.begin, region.end, element_id))
        for triples in self._by_tag.values():
            triples.sort()

    def element(self, element_id: int) -> XMLElement:
        """The DOM element carrying ``element_id``."""
        return self._ids[element_id]

    def region_list(self, tag: str,
                    stats: Counters | None = None
                    ) -> list[tuple[Any, Any, int]]:
        """(begin, end, id) triples for ``tag``, sorted by begin.

        Reading the per-tag list charges one tuple read per entry,
        mirroring an index scan.  The charge lands on ``stats`` when
        given, else on the store's own counters — callers running a
        query against their own :class:`Counters` pass them here so
        index scans and joins are billed to one object.
        """
        triples = self._by_tag.get(tag, [])
        (self.stats if stats is None else stats).tuple_reads += \
            len(triples)
        return triples

    def tags(self) -> list[str]:
        """All distinct element tags, sorted (no accounting charge)."""
        return sorted(self._by_tag)

    def all_regions(self, stats: Counters | None = None
                    ) -> list[tuple[Any, Any, int]]:
        """(begin, end, id) triples for *every* element, sorted by begin.

        The wildcard-step scan: charges one tuple read per entry, to
        ``stats`` when given (see :meth:`region_list`).
        """
        triples: list[tuple[Any, Any, int]] = []
        for tag in self.tags():
            triples.extend(self.region_list(tag, stats))
        triples.sort()
        return triples

    def columnar(self) -> Any:
        """This store's document as a vectorized-query column store.

        Built lazily (and cached) from the same labeled document, so
        :func:`repro.query.columnar.evaluate_columnar` accepts an
        ``IntervalTableStore`` directly.  Imported in-method to keep
        ``storage`` free of a static dependency on ``query``.
        """
        store = getattr(self, "_columnar", None)
        if store is None:
            from repro.query.columnar import ColumnarStore
            store = self._columnar = ColumnarStore.from_labeled(
                self.labeled, self.stats)
        return store

    def level_of(self, element_id: int) -> int:
        """Stored level of an element (for parent-axis filtering)."""
        return self.table.rows[element_id][4]

    # ------------------------------------------------------------------
    # the §1 "exactly one self-join" plans
    # ------------------------------------------------------------------
    def descendants_join(self, ancestor_tag: str, descendant_tag: str
                         ) -> list[tuple[int, int]]:
        """All (ancestor_id, descendant_id) pairs for ``a//d``.

        One stack-based merge self-join over the two sorted tag lists.
        """
        ancestors = self.region_list(ancestor_tag)
        descendants = self.region_list(descendant_tag)
        return list(merge_interval_join(ancestors, descendants,
                                        self.stats))

    def children_join(self, parent_tag: str, child_tag: str
                      ) -> list[tuple[int, int]]:
        """All (parent_id, child_id) pairs for ``p/c``.

        The same single join plus a level check (containment + adjacent
        levels ≡ parenthood; see
        :func:`repro.labeling.containment.is_parent`).
        """
        pairs = self.descendants_join(parent_tag, child_tag)
        result = []
        for ancestor_id, descendant_id in pairs:
            self.stats.comparisons += 1
            if self.level_of(descendant_id) == \
                    self.level_of(ancestor_id) + 1:
                result.append((ancestor_id, descendant_id))
        return result

    def ids_by_tag(self, tag: str) -> list[int]:
        """Ids of all elements with ``tag`` in document order."""
        return [element_id for _, _, element_id in self.region_list(tag)]
