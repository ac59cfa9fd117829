"""The ordered list-labeling problem (paper §1 and §5).

The paper frames XML label maintenance as *maintenance of an ordered
list*: assign every list item a label from an ordered domain so that list
order equals label order, and keep that true under adjacent insertions.
This module defines the scheme-independent interface plus a linked-list
base class shared by the array-flavored baselines; the L-Tree plugs in
through :class:`repro.order.ltree_list.LTreeListLabeling`.

Handles returned by the insert methods stay valid across relabelings —
``label(handle)`` always returns the *current* label.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, Optional, Sequence

from repro.core.stats import NULL_COUNTERS, Counters
from repro.errors import InvariantViolation


class OrderedLabeling(abc.ABC):
    """Interface of an order-preserving labeling scheme.

    Labels may be integers or any mutually comparable values (the prefix
    scheme uses dyadic rationals); within one scheme instance all labels
    are comparable and strictly increase in list order.
    """

    #: short machine-readable scheme name (registry key, report column)
    name: str = "abstract"

    def __init__(self, stats: Counters = NULL_COUNTERS):
        self.stats = stats

    # -- construction ---------------------------------------------------
    @abc.abstractmethod
    def bulk_load(self, payloads: Sequence[Any]) -> list[Any]:
        """Replace contents with ``payloads``; return their handles."""

    # -- updates ----------------------------------------------------------
    @abc.abstractmethod
    def insert_after(self, handle: Any, payload: Any) -> Any:
        """Insert a new item right after ``handle``; return its handle."""

    @abc.abstractmethod
    def insert_before(self, handle: Any, payload: Any) -> Any:
        """Insert a new item right before ``handle``; return its handle."""

    @abc.abstractmethod
    def append(self, payload: Any) -> Any:
        """Insert at the end of the list."""

    @abc.abstractmethod
    def prepend(self, payload: Any) -> Any:
        """Insert at the start of the list."""

    @abc.abstractmethod
    def delete(self, handle: Any) -> None:
        """Delete an item.  Never relabels (paper §2.3)."""

    def insert_run_after(self, handle: Any,
                         payloads: Sequence[Any]) -> list[Any]:
        """Insert a run of items right after ``handle``.

        Default: sequential single inserts (no cost sharing).  Schemes with
        native batch support — the L-Tree, §4.1 — override this.
        """
        handles = []
        anchor = handle
        for payload in payloads:
            anchor = self.insert_after(anchor, payload)
            handles.append(anchor)
        return handles

    def insert_run_before(self, handle: Any,
                          payloads: Sequence[Any]) -> list[Any]:
        """Insert a run of items right before ``handle``; see above."""
        if not payloads:
            return []
        first = self.insert_before(handle, payloads[0])
        return [first] + self.insert_run_after(first, payloads[1:])

    # -- inspection -------------------------------------------------------
    @abc.abstractmethod
    def label(self, handle: Any) -> Any:
        """Current label of a live handle."""

    @abc.abstractmethod
    def payload(self, handle: Any) -> Any:
        """Payload carried by a handle."""

    @abc.abstractmethod
    def handles(self) -> Iterator[Any]:
        """All live handles in list order."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of live items."""

    # -- shared behaviour ---------------------------------------------------
    def labels(self) -> list[Any]:
        """Current labels in list order (strictly increasing)."""
        return [self.label(handle) for handle in self.handles()]

    def payloads(self) -> list[Any]:
        """Payloads in list order."""
        return [self.payload(handle) for handle in self.handles()]

    def compare(self, first: Any, second: Any) -> int:
        """-1/0/+1 ordering of two handles **by label only**.

        This is the query-side operation the labels exist for; it must not
        inspect the list structure.
        """
        self.stats.comparisons += 1
        left, right = self.label(first), self.label(second)
        if left < right:
            return -1
        if left > right:
            return 1
        return 0

    def label_bits(self) -> int:
        """Bits needed to store the widest current label.

        Integer labels count their bit length; schemes with structured
        labels override this.
        """
        widest = 0
        for handle in self.handles():
            label = self.label(handle)
            widest = max(widest, int(label).bit_length())
        return widest

    def validate(self) -> None:
        """Assert labels strictly increase along the list."""
        previous = None
        for handle in self.handles():
            current = self.label(handle)
            if previous is not None and not previous < current:
                raise InvariantViolation(
                    f"{self.name}: labels out of order "
                    f"({previous!r} then {current!r})")
            previous = current


class LinkedItem:
    """Doubly-linked list node used by the array-flavored schemes."""

    __slots__ = ("label", "payload", "prev", "next", "alive")

    def __init__(self, payload: Any):
        self.label: Any = None
        self.payload = payload
        self.prev: Optional["LinkedItem"] = None
        self.next: Optional["LinkedItem"] = None
        self.alive = True


class LinkedListScheme(OrderedLabeling):
    """Base for schemes that keep items in a doubly-linked list.

    Subclasses implement :meth:`_assign_bulk` (initial labeling) and
    :meth:`_assign_between` (label a new item given its live neighbors,
    relabeling as needed and accounting every relabel in
    ``stats.relabels``).
    """

    def __init__(self, stats: Counters = NULL_COUNTERS):
        super().__init__(stats)
        self._head: Optional[LinkedItem] = None
        self._tail: Optional[LinkedItem] = None
        self._count = 0

    # -- linked-list plumbing ------------------------------------------------
    def _link_after(self, anchor: Optional[LinkedItem],
                    item: LinkedItem) -> None:
        """Insert ``item`` after ``anchor`` (or at the head when None)."""
        if anchor is None:
            item.next = self._head
            if self._head is not None:
                self._head.prev = item
            self._head = item
            if self._tail is None:
                self._tail = item
        else:
            item.prev = anchor
            item.next = anchor.next
            if anchor.next is not None:
                anchor.next.prev = item
            anchor.next = item
            if self._tail is anchor:
                self._tail = item
        self._count += 1

    def _unlink(self, item: LinkedItem) -> None:
        if item.prev is not None:
            item.prev.next = item.next
        else:
            self._head = item.next
        if item.next is not None:
            item.next.prev = item.prev
        else:
            self._tail = item.prev
        item.alive = False
        self._count -= 1

    # -- OrderedLabeling interface ---------------------------------------
    def bulk_load(self, payloads: Sequence[Any]) -> list[LinkedItem]:
        self._head = None
        self._tail = None
        self._count = 0
        items = [LinkedItem(payload) for payload in payloads]
        previous: Optional[LinkedItem] = None
        for item in items:
            self._link_after(previous, item)
            previous = item
        self._assign_bulk(items)
        return items

    def insert_after(self, handle: LinkedItem, payload: Any) -> LinkedItem:
        self._require_alive(handle)
        item = LinkedItem(payload)
        self._link_after(handle, item)
        self._assign_between(item)
        self.stats.inserts += 1
        return item

    def insert_before(self, handle: LinkedItem, payload: Any) -> LinkedItem:
        self._require_alive(handle)
        item = LinkedItem(payload)
        self._link_after(handle.prev, item)
        self._assign_between(item)
        self.stats.inserts += 1
        return item

    def append(self, payload: Any) -> LinkedItem:
        item = LinkedItem(payload)
        self._link_after(self._tail, item)
        self._assign_between(item)
        self.stats.inserts += 1
        return item

    def prepend(self, payload: Any) -> LinkedItem:
        item = LinkedItem(payload)
        self._link_after(None, item)
        self._assign_between(item)
        self.stats.inserts += 1
        return item

    def delete(self, handle: LinkedItem) -> None:
        self._require_alive(handle)
        self._unlink(handle)
        self.stats.deletes += 1

    def label(self, handle: LinkedItem) -> Any:
        self._require_alive(handle)
        return handle.label

    def payload(self, handle: LinkedItem) -> Any:
        return handle.payload

    def handles(self) -> Iterator[LinkedItem]:
        item = self._head
        while item is not None:
            yield item
            item = item.next

    def __len__(self) -> int:
        return self._count

    @staticmethod
    def _require_alive(handle: LinkedItem) -> None:
        if not handle.alive:
            raise ValueError("handle refers to a deleted item")

    # -- scheme-specific hooks ---------------------------------------------
    @abc.abstractmethod
    def _assign_bulk(self, items: list[LinkedItem]) -> None:
        """Label freshly bulk-loaded items (account stats.relabels)."""

    @abc.abstractmethod
    def _assign_between(self, item: LinkedItem) -> None:
        """Label ``item`` given its linked neighbors, relabeling others
        as the scheme requires (account stats.relabels)."""
