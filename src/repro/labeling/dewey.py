"""Dewey order: the path-based alternative to region labels.

The paper's related work (§5) contrasts region labeling with other
XML labeling families.  Dewey order — element label = the tuple of
sibling ordinals on its root path, as in ORDPATH's ancestry — is the
canonical *path-based* scheme of the same era, so experiment E13 compares
it head-to-head with the L-Tree's region labels:

* ancestor test: label prefix test (vs interval containment);
* document order: lexicographic tuple order;
* updates: inserting a subtree at child position ``i`` renumbers every
  following sibling **and its whole subtree** (each descendant's label
  embeds the ancestor's ordinal) — the well-known Dewey weakness;
* label width: one ordinal per level, so bits grow with depth × fanout
  rather than the L-Tree's log n.

Deletion leaves ordinal gaps, which Dewey tolerates for free (order and
prefixes survive), matching the paper's mark-only deletions.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.stats import NULL_COUNTERS, Counters
from repro.xml.model import XMLDocument, XMLElement, XMLNode


class _DeweyLabel:
    """Label attachment for ``node.extra``."""

    __slots__ = ("path",)

    def __init__(self, path: tuple[int, ...]):
        self.path = path


class DeweyDocument:
    """An XML document labeled with Dewey paths.

    Mirrors the update/query surface of
    :class:`repro.labeling.scheme.LabeledDocument` closely enough for the
    comparison experiments; labels are tuples, not (begin, end) pairs.
    """

    def __init__(self, document: XMLDocument,
                 stats: Counters = NULL_COUNTERS):
        self.document = document
        self.stats = stats
        self._label_subtree(document.root, ())

    def _label_subtree(self, node: XMLNode, path: tuple[int, ...]) -> None:
        # an explicit stack, so nesting depth is not bounded by Python's
        # recursion limit
        stack = [(node, path)]
        while stack:
            node, path = stack.pop()
            node.extra = _DeweyLabel(path)
            self.stats.relabels += 1
            if isinstance(node, XMLElement):
                stack.extend((child, path + (ordinal,))
                             for ordinal, child in enumerate(node.children))

    # ------------------------------------------------------------------
    # label access and predicates
    # ------------------------------------------------------------------
    def label(self, node: XMLNode) -> tuple[int, ...]:
        """The node's Dewey path."""
        attached = node.extra
        if not isinstance(attached, _DeweyLabel):
            raise ValueError(f"{node!r} is not labeled by this document")
        return attached.path

    def label_bits(self) -> int:
        """Widest label: one length-prefixed ordinal per level."""
        widest = 0
        for node in self.document.iter_nodes():
            path = self.label(node)
            bits = sum(max(1, ordinal.bit_length()) + 1
                       for ordinal in path)
            widest = max(widest, bits)
        return widest

    def is_ancestor(self, ancestor: XMLNode, node: XMLNode) -> bool:
        """Strict prefix test on Dewey paths (labels only)."""
        self.stats.comparisons += 1
        a_path = self.label(ancestor)
        n_path = self.label(node)
        return len(a_path) < len(n_path) and \
            n_path[:len(a_path)] == a_path

    def precedes(self, first: XMLNode, second: XMLNode) -> bool:
        """Document order = lexicographic path order."""
        self.stats.comparisons += 1
        return self.label(first) < self.label(second)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert_subtree(self, parent: XMLElement, index: int,
                       subtree: XMLNode) -> XMLNode:
        """Insert and label; renumbers following siblings' subtrees."""
        if not 0 <= index <= len(parent.children):
            raise IndexError(
                f"index {index} out of range 0..{len(parent.children)}")
        parent.insert_child(index, subtree)
        base = self.label(parent)
        # Every child from the insertion point on changes its ordinal,
        # and the ordinal is embedded in every descendant's label.
        for ordinal in range(index, len(parent.children)):
            self._label_subtree(parent.children[ordinal],
                                base + (ordinal,))
        self.stats.inserts += sum(
            1 for _ in _count_nodes(subtree))
        return subtree

    def append_subtree(self, parent: XMLElement,
                       subtree: XMLNode) -> XMLNode:
        """Insert as the last child (the cheap case for Dewey)."""
        return self.insert_subtree(parent, len(parent.children), subtree)

    def delete_subtree(self, node: XMLNode) -> None:
        """Detach; no renumbering (ordinal gaps are harmless)."""
        if node.parent is None:
            raise ValueError("cannot delete the document root")
        parent = node.parent
        parent.remove_child(node)
        for member in _iter_nodes(node):
            member.extra = None
        self.stats.deletes += 1

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Labels must spell each node's actual root path.

        Ordinal gaps from deletions are allowed; ordering and prefixing
        must match the structure exactly.
        """
        for element in self.document.iter_elements():
            base = self.label(element)
            previous: Optional[tuple[int, ...]] = None
            for child in element.children:
                path = self.label(child)
                if path[:len(base)] != base or len(path) != len(base) + 1:
                    raise AssertionError(
                        f"label {path} is not a child path of {base}")
                if previous is not None and not previous < path:
                    raise AssertionError(
                        f"sibling labels out of order: {previous} then "
                        f"{path}")
                previous = path


def _iter_nodes(node: XMLNode) -> Iterator[XMLNode]:
    if isinstance(node, XMLElement):
        return node.iter_nodes()
    return iter((node,))


def _count_nodes(node: XMLNode) -> Iterator[XMLNode]:
    return _iter_nodes(node)
