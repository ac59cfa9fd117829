"""Region labeling of XML documents over any order scheme.

This is the glue the paper describes in §2.1: every begin tag, end tag and
text section of the document becomes one item of an ordered list; an
element's label is the **pair** of its two tag labels; ancestor/descendant
queries become interval containment over those pairs (Figure 1).

:class:`LabeledDocument` owns an :class:`repro.xml.model.XMLDocument` and
an :class:`repro.order.base.OrderedLabeling` (the **compact** array-backed
L-Tree by default) and keeps the two consistent across subtree insertions
and deletions:

* insertions label the new tokens through the scheme — using its native
  *batch* insertion, so an L-Tree pays the §4.1 shared cost;
* deletions only unlabel (the L-Tree marks; no relabeling — §2.3);
* every predicate (:meth:`is_ancestor`, :meth:`precedes`, ...) consults
  labels only, never the tree structure.

**Engine default.**  The default scheme is ``ltree-compact``
(:data:`repro.order.registry.DEFAULT_SCHEME`): the struct-of-arrays
engine proven label- and counter-identical to the node-object reference
by ``tests/core/test_compact_differential.py``.  Its bulk paths are
vectorized through :mod:`repro.core.vectorized` — numpy when
importable, pure-Python batch passes otherwise.  To opt back into the
node-object engine pass ``scheme=make_scheme("ltree")`` or an explicit
:class:`~repro.order.ltree_list.LTreeListLabeling`.

**Label reads.**  Every begin/end label read is one ``scheme.label``
call, O(1) on every L-Tree engine, counted in
``Counters.label_lookups``.  Bulk consumers that want every label at
once pair :meth:`LabeledDocument.element_handles` with a pinned
snapshot's label columns.

**Persistence.**  :meth:`LabeledDocument.save` stores the token list
itself as columns in list order (:mod:`repro.labeling.codec`) next to
the scheme's label state, and :meth:`LabeledDocument.open` rebuilds
the DOM in one pass over those columns zipped with the restored
scheme's handles: no XML is rendered on save or parsed on open.  XML
text is an export (:func:`repro.xml.serializer.serialize`), and a save
refuses every document that export would not carry.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterator, Optional

from repro.core.params import LTreeParams
from repro.core.persistence import restore, snapshot
from repro.core.stats import NULL_COUNTERS, Counters
from repro.errors import ParameterError
from repro.labeling import codec
from repro.labeling.containment import Region
from repro.order.base import OrderedLabeling
from repro.order.compact_list import (CompactEngineLabeling,
                                      CompactListLabeling,
                                      sync_override)
from repro.order.ltree_list import LTreeListLabeling
from repro.order.registry import default_scheme
from repro.order.sharded_list import ShardedListLabeling
from repro.xml.model import XMLDocument, XMLElement, XMLNode, XMLTextNode

#: on-store format version of a saved LabeledDocument (see ``save``),
#: the only one ``open`` reads
DOCUMENT_FORMAT_VERSION = 2

#: blob names a saved document occupies inside a page store
META_BLOB = "meta"
COLUMNS_BLOB = "document.columns"
SCHEME_BLOB = "scheme"


#: closes an element in the token walk's stack
_CLOSE = object()


def _tokens(node: XMLNode) -> tuple[str, list[XMLNode]]:
    """A subtree's tokens in document-list order.

    Returns one kind per token — ``(`` a begin tag, ``)`` an end tag,
    ``.`` a text, comment or PI — and the node each token belongs to
    (an element once per tag).  The walk keeps its own stack, so
    nesting depth is not bounded by Python's recursion limit.
    """
    kinds: list[str] = []
    nodes: list[XMLNode] = []
    open_elements: list[XMLElement] = []
    stack: list[Any] = [node]
    while stack:
        node = stack.pop()
        if node is _CLOSE:
            kinds.append(")")
            nodes.append(open_elements.pop())
        elif isinstance(node, XMLElement):
            kinds.append("(")
            nodes.append(node)
            open_elements.append(node)
            stack.append(_CLOSE)
            stack.extend(reversed(node.children))
        else:
            kinds.append(".")
            nodes.append(node)
    return "".join(kinds), nodes


def _attach(kinds: str, nodes: list[XMLNode], handles: list[Any]) -> None:
    """Store each token's handle on its node: an end tag's in
    ``node.end``, every other token's in ``node.begin``."""
    for kind, node, handle in zip(kinds, nodes, handles):
        if kind == ")":
            node.end = handle
        else:
            node.begin = handle


def _subtree_token_count(node: XMLNode) -> int:
    """Tokens a subtree contributes to the document list."""
    if isinstance(node, XMLElement):
        return sum(2 if isinstance(member, XMLElement) else 1
                   for member in node.iter_nodes())
    return 1


def shard_boundaries(root: XMLElement, n_shards: int) -> Optional[list[int]]:
    """Token-chunk sizes aligning shard arenas with top-level children.

    Groups the root's children into at most ``n_shards`` *contiguous*
    runs of roughly equal token weight and returns one chunk size per
    run (the root's begin tag rides with the first run, its end tag
    with the last), shaped for the sharded engine's ``boundaries=``.
    Every top-level subtree then lives wholly inside one arena, so an
    edit under one top-level child provably writes one shard — the
    alignment that keeps an edit's relabeling inside one arena on real
    documents.  Returns ``None`` when there is nothing to partition
    (no children, or one shard asked for).
    """
    children = root.children
    if n_shards < 2 or not children:
        return None
    weights = [_subtree_token_count(child) for child in children]
    sizes: list[int] = []
    remaining = sum(weights)
    groups_left = min(n_shards, len(children))
    current = 0
    for index, weight in enumerate(weights):
        current += weight
        remaining -= weight
        children_left = len(children) - index - 1
        # close the run once it carries its fair share of what is left,
        # as long as every later run can still get >= 1 child
        if groups_left > 1 and children_left >= groups_left - 1 and \
                current * groups_left >= current + remaining:
            sizes.append(current)
            current = 0
            groups_left -= 1
    if current:
        sizes.append(current)
    sizes[0] += 1       # the root's begin tag
    sizes[-1] += 1      # the root's end tag
    return sizes


class LabeledDocument:
    """An XML document with maintained order-preserving labels.

    Parameters
    ----------
    document:
        The document to label.  A node may belong to at most one
        ``LabeledDocument`` at a time: its scheme handles live in the
        node's ``begin`` and ``end`` slots.
    scheme:
        Any order-labeling scheme; defaults to the compact L-Tree with
        ``params`` (:func:`repro.order.registry.default_scheme`).
    params:
        L-Tree parameters for the default scheme.
    stats:
        Counter sink (shared with the default scheme).

    Examples
    --------
    >>> from repro.xml import parse
    >>> doc = parse("<book><chapter><title/></chapter><title/></book>")
    >>> labeled = LabeledDocument(doc)
    >>> chapter = next(doc.find_all("chapter"))
    >>> all(labeled.is_ancestor(doc.root, t) for t in doc.find_all("title"))
    True
    >>> labeled.is_ancestor(chapter, doc.root)
    False
    """

    def __init__(self, document: XMLDocument,
                 scheme: Optional[OrderedLabeling] = None,
                 params: Optional[LTreeParams] = None,
                 stats: Counters = NULL_COUNTERS):
        if scheme is None:
            scheme = default_scheme(params, stats)
        elif params is not None:
            raise ValueError("pass either a scheme or params, not both")
        self.document = document
        self.scheme = scheme
        self.stats = stats
        #: page store this document owns (set by ``open`` from a path)
        self.store: Optional[Any] = None
        self._owns_store = False
        #: subtree inserts plus subtree deletes so far; a pinned
        #: columnar store re-pins by splicing only while this is
        #: unchanged, because a DOM edit moves element positions
        self.structural_edits = 0
        self._bulk_label()

    def _bulk_label(self) -> None:
        # the scheme carries no payloads: the nodes hold the handles
        kinds, nodes = _tokens(self.document.root)
        payloads = [None] * len(nodes)
        if getattr(self.scheme, "supports_partitioned_bulk", False):
            # shard-aligned bulk load: one contiguous run of top-level
            # children per arena, so a subtree edit writes one shard
            boundaries = shard_boundaries(self.document.root,
                                          self.scheme.tree.n_shards)
            handles = self.scheme.bulk_load(payloads,
                                            boundaries=boundaries)
        else:
            handles = self.scheme.bulk_load(payloads)
        _attach(kinds, nodes, handles)

    # ------------------------------------------------------------------
    # label access
    # ------------------------------------------------------------------
    @staticmethod
    def _begin(node: XMLNode) -> Any:
        """The handle of a node's begin tag (or single position)."""
        if node.begin is None:
            raise ValueError(f"{node!r} is not labeled by this document")
        return node.begin

    def _label_of(self, handle: Any) -> Any:
        """Label of one scheme handle: one counted scheme lookup."""
        self.stats.label_lookups += 1
        return self.scheme.label(handle)

    def begin_label(self, node: XMLNode) -> Any:
        """Label of the node's begin tag (or of its single position)."""
        return self._label_of(self._begin(node))

    def end_label(self, node: XMLNode) -> Any:
        """Label of an element's end tag; point nodes reuse their label."""
        begin = self._begin(node)
        if node.end is None:
            return self._label_of(begin)
        return self._label_of(node.end)

    def region(self, element: XMLElement) -> Region:
        """(begin, end) region of an element (paper Figure 1)."""
        begin = self._begin(element)
        if element.end is None:
            raise ValueError(f"{element!r} has no end tag (not an element)")
        return Region(self._label_of(begin), self._label_of(element.end))

    def labels_in_order(self) -> list[Any]:
        """All current token labels in document order."""
        return self.scheme.labels()

    def element_handles(self) -> Iterator[tuple[XMLElement, Any, Any, int]]:
        """``(element, begin_handle, end_handle, level)`` in document order.

        One structural DOM pass with **zero** label reads — the walk
        columnar consumers (:mod:`repro.query.columnar`) pair with a
        bulk label extraction (one ``label_column`` per shard of a
        pinned :class:`~repro.concurrent.engine.LabelSnapshot`, which
        never walks the shard's leaves) so shredding a document into
        query columns never issues a per-node scheme lookup.
        """
        stack: list[tuple[XMLElement, int]] = [(self.document.root, 0)]
        while stack:
            element, level = stack.pop()
            yield element, self._begin(element), element.end, level
            for child in reversed(list(element.child_elements())):
                stack.append((child, level + 1))

    # ------------------------------------------------------------------
    # label-only predicates (the queries labels exist for)
    # ------------------------------------------------------------------
    def is_ancestor(self, ancestor: XMLElement, node: XMLNode) -> bool:
        """Interval containment: strict ancestor test, labels only."""
        self.stats.comparisons += 2
        begin = self.begin_label(node)
        return self.begin_label(ancestor) < begin and \
            self.end_label(node) < self.end_label(ancestor)

    def precedes(self, first: XMLNode, second: XMLNode) -> bool:
        """Document order of two nodes by their (begin) labels."""
        self.stats.comparisons += 1
        return self.begin_label(first) < self.begin_label(second)

    def is_following(self, first: XMLNode, second: XMLNode) -> bool:
        """XPath ``following``: starts after ``second`` entirely ends."""
        self.stats.comparisons += 1
        return self.begin_label(first) > self.end_label(second)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert_subtree(self, parent: XMLElement, index: int,
                       subtree: XMLNode) -> XMLNode:
        """Insert ``subtree`` as ``parent.children[index]`` and label it.

        Labels arrive through one batch insertion (paper §4.1) anchored at
        the token immediately preceding the insertion point: the parent's
        begin tag for position 0, else the preceding sibling's last token.
        """
        if not 0 <= index <= len(parent.children):
            raise IndexError(
                f"index {index} out of range 0..{len(parent.children)}")
        anchor = self._anchor_before(parent, index)
        parent.insert_child(index, subtree)
        self.structural_edits += 1
        kinds, nodes = _tokens(subtree)
        handles = self.scheme.insert_run_after(anchor, [None] * len(nodes))
        _attach(kinds, nodes, handles)
        return subtree

    def append_subtree(self, parent: XMLElement,
                       subtree: XMLNode) -> XMLNode:
        """Insert ``subtree`` as the last child of ``parent``."""
        return self.insert_subtree(parent, len(parent.children), subtree)

    def insert_text(self, parent: XMLElement, index: int,
                    content: str) -> XMLTextNode:
        """Insert a text node at ``parent.children[index]``."""
        node = XMLTextNode(content)
        self.insert_subtree(parent, index, node)
        return node

    def _anchor_before(self, parent: XMLElement, index: int) -> Any:
        if index == 0:
            return self._begin(parent)
        previous = parent.children[index - 1]
        begin = self._begin(previous)
        return previous.end if previous.end is not None else begin

    def move_subtree(self, node: XMLNode, new_parent: XMLElement,
                     index: int) -> XMLNode:
        """Relocate ``node`` under ``new_parent`` at child ``index``.

        Implemented as unlabel + detach + relabeled reinsert, so the
        subtree's DOM nodes survive but receive fresh labels (an order
        labeling cannot move a region in place).  ``index`` addresses
        ``new_parent.children`` *after* the detach — relevant when moving
        within the same parent.  Moving a node under its own descendant
        (or itself) is rejected.
        """
        if node is new_parent or (isinstance(node, XMLElement) and
                                  node.is_ancestor_of(new_parent)):
            raise ValueError("cannot move a node beneath itself")
        self.delete_subtree(node)
        return self.insert_subtree(new_parent, index, node)

    def delete_subtree(self, node: XMLNode) -> None:
        """Detach ``node`` from the document and unlabel its tokens.

        Mark-only on the L-Tree — zero relabelings (paper §2.3).
        """
        if node.parent is None:
            raise ValueError("cannot delete the document root")
        self.structural_edits += 1
        kinds, nodes = _tokens(node)
        for kind, member in zip(kinds, nodes):
            self.scheme.delete(member.end if kind == ")"
                               else self._begin(member))
        for member in nodes:
            member.begin = member.end = None
        node.parent.remove_child(node)

    def compact(self) -> int:
        """Vacuum tombstoned label slots (L-Tree scheme only).

        Rebuilds the underlying L-Tree without deleted slots and rewires
        every node's handles, so the document stays fully queryable with
        fresh (narrower) labels.  Returns the number of reclaimed slots.
        """
        if not isinstance(self.scheme,
                          (LTreeListLabeling, CompactEngineLabeling)):
            raise TypeError(
                "compact() requires an L-Tree-backed scheme, got "
                f"{self.scheme.name!r}")
        reclaimed = self.scheme.tree.tombstone_count()
        mapping = self.scheme.tree.compact()
        for node in self.document.root.iter_nodes():
            node.begin = mapping[self._begin(node)]
            if node.end is not None:
                node.end = mapping[node.end]
        return reclaimed

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, store: Any = None,
             sync: Optional[bool] = None) -> None:
        """Persist the document and its labels to a page store.

        ``store`` is a :class:`repro.storage.pages.PageStore`, a file
        *path* (a store is opened — and closed — around the save), or
        ``None`` to reuse the store this document was opened from
        (:meth:`open` with a path).  ``sync=True`` applies the
        fsync-barrier durability discipline to the catalog flip of this
        save — threaded down to ``PageStore`` whichever way the store
        was obtained — so the saved document survives power loss, not
        only process crashes; the default keeps the store's own setting.

        Three blobs land in the store under one catalog flip that
        never overwrites the previous save's pages, so a crash at any
        point of a save leaves the previous document reopenable: the
        document as token columns (:mod:`repro.labeling.codec`, built
        in one walk of the DOM), the scheme state, and a small JSON
        ``meta`` record.  The scheme goes as the struct-of-arrays byte
        image for ``ltree-compact`` (tombstones and free-list preserved
        exactly), as one such image *per shard* plus a manifest for
        ``ltree-sharded`` (reopened shard-lazily), or as the §4.2
        label-only snapshot for ``ltree``.  The scheme carries no
        payloads: :meth:`open` hands each token's handle back to its
        node, because the columns' tokens match the live labels
        one-to-one.

        No XML is rendered or parsed: the codec's export rule refuses,
        on the columns, every document whose XML export
        (:func:`repro.xml.serializer.serialize`) would not re-parse to
        the same document, raising :class:`ParameterError` before
        anything is written.
        """
        target = store if store is not None else self.store
        if target is None:
            raise ValueError(
                "no store to save to: pass a store or a path (only "
                "documents opened from a path remember their store)")
        if isinstance(target, (str, os.PathLike)):
            from repro.storage.pages import PageStore
            with PageStore(os.fspath(target), sync=bool(sync)) as opened:
                self._save_to(opened)
            return
        with sync_override(target, sync):
            self._save_to(target)

    def _save_to(self, store: Any) -> None:
        scheme = self.scheme
        blobs = {COLUMNS_BLOB: codec.encode(self.document)}
        if isinstance(scheme, ShardedListLabeling):
            encoding = "sharded-bytes"
        elif isinstance(scheme, CompactListLabeling):
            encoding = "compact-bytes"
            blobs[SCHEME_BLOB] = scheme.tree.to_bytes(
                include_payloads=False)
        elif isinstance(scheme, LTreeListLabeling):
            encoding = "label-snapshot"
            blobs[SCHEME_BLOB] = json.dumps(snapshot(
                scheme.tree, include_payloads=False)).encode("utf-8")
        else:
            raise TypeError(
                f"save() supports the L-Tree schemes, got "
                f"{scheme.name!r}")
        blobs[META_BLOB] = json.dumps({
            "format": DOCUMENT_FORMAT_VERSION,
            "scheme": scheme.name,
            "encoding": encoding,
        }).encode("utf-8")
        # every blob lands under one catalog flip, which never overwrites
        # a page the previous catalog references: a crash at any byte of
        # the save reopens the previously saved document
        if encoding == "sharded-bytes":
            # one LTREEARR blob span per shard plus a manifest, in the
            # engine's own batch; shards still lazy from an earlier
            # open() are copied image-for-image without deserializing
            scheme.tree.save(store, SCHEME_BLOB, include_payloads=False,
                             extra_blobs=blobs)
        else:
            store.put_blobs(blobs)

    @classmethod
    def open(cls, store: Any, stats: Counters = NULL_COUNTERS,
             sync: Optional[bool] = None,
             concurrent: bool = False) -> "LabeledDocument":
        """Reopen a document saved by :meth:`save` — without relabeling.

        One pass over the stored kind column, zipped with the restored
        scheme's live handles (same order by construction), builds each
        DOM node and stores its handles in the node's ``begin`` and
        ``end`` slots, so the node gets back the *exact* label it held
        at save time; nothing is re-bulk-loaded or parsed, and future
        edits behave as if the process had never stopped.

        What a reopen costs, on the 68,938-element, 178,295-token
        ``query_serving`` benchmark document (``open(concurrent=True)``
        on a 2-vCPU VM, CPython 3.11, collector off): decoding and
        checking the 1.6 MB column blob ~0.04 s; the scheme load
        (shard-lazy for ``ltree-sharded``: only the manifest is
        decoded, and each shard's live leaves are derived from its
        image's columns, one sort per shard) and ``handles()`` ~0.04 s;
        the rebuild pass ~0.18 s.  No label is computed.  With the
        collector on, in a heap that already holds a labeled copy of
        the document, the collector takes about 60% of the reopen
        (0.44-0.47 s of 0.72-0.78 s): the API keeps one tracked object
        per token (a node per text, and per element a node and its
        child list), and each time the heap grows by a quarter a full
        collection walks every live object.

        ``store`` may be a file *path*: the document then owns the
        opened :class:`~repro.storage.pages.PageStore` (kept on
        :attr:`store`, so a bare ``save()`` re-saves in place and
        :meth:`close` releases it), created with the ``sync``
        discipline asked for.  A store that holds no saved document, a
        damaged ``meta`` record, a document format other than
        :data:`DOCUMENT_FORMAT_VERSION` and a column blob that is
        truncated or inconsistent raise :class:`ParameterError`.

        ``concurrent=True`` (documents saved with the ``ltree-sharded``
        scheme only) wraps the restored engine in
        :class:`repro.concurrent.engine.ConcurrentLTree`: *engine-level*
        access through ``scheme.tree`` becomes thread-safe — writer
        threads take turns under one mutex, and
        ``scheme.tree.snapshot()`` serves zero-lock label snapshots
        that read alongside them.  The DOM, this wrapper object and the scheme
        adapter's own bookkeeping (``len(scheme)``, its
        deleted-handle pre-checks) stay single-threaded — multi-thread
        the engine, not the document; for WAL-backed durability use
        :class:`repro.concurrent.service.ConcurrentDocument`.
        """
        owns_store = isinstance(store, (str, os.PathLike))
        if owns_store:
            from repro.storage.pages import PageStore
            store = PageStore(os.fspath(store), sync=bool(sync))
        try:
            meta = _read_meta(store)
            version = meta.get("format")
            if version != DOCUMENT_FORMAT_VERSION:
                raise ParameterError(
                    f"unsupported document format {version!r} "
                    f"(supported: {DOCUMENT_FORMAT_VERSION})")
            columns = codec.decode(store.get_blob(COLUMNS_BLOB))
            encoding = meta.get("encoding")
            if encoding == "compact-bytes":
                scheme: OrderedLabeling = CompactListLabeling.load(
                    store, SCHEME_BLOB, stats=stats)
            elif encoding == "sharded-bytes":
                # shard-lazy: only the manifest is decoded here, and the
                # handles below come off each image's columns; an arena
                # is deserialized the first time an edit touches it
                scheme = ShardedListLabeling.load(store, SCHEME_BLOB,
                                                  stats=stats)
            elif encoding == "label-snapshot":
                data = json.loads(
                    bytes(store.get_blob(SCHEME_BLOB)).decode("utf-8"))
                scheme = LTreeListLabeling._wrap(restore(data, stats=stats),
                                                 stats)
            else:
                raise ParameterError(
                    f"unknown scheme encoding {encoding!r} in saved document")
            if concurrent and encoding != "sharded-bytes":
                raise ParameterError(
                    f"concurrent=True needs a document saved with the "
                    f"ltree-sharded scheme, this one used {encoding!r}")
            document = codec.build(columns, list(scheme.handles()))
            labeled = cls.__new__(cls)
            labeled.document = document
            labeled.scheme = scheme
            labeled.stats = stats
            labeled.store = store if owns_store else None
            labeled._owns_store = owns_store
            labeled.structural_edits = 0
            if concurrent:
                from repro.concurrent.engine import ConcurrentLTree
                scheme.tree = ConcurrentLTree(scheme.tree)
            return labeled
        except BaseException:
            # a half-validated open must not leak the store it
            # created from the path (fd + mmap would outlive the
            # exception); a caller-owned store stays the caller's
            if owns_store:
                store.close()
            raise

    def close(self) -> None:
        """Release the page store this document opened from a path.

        A no-op for documents built in memory or opened from a caller's
        store (the caller owns that one).
        """
        if self._owns_store and self.store is not None:
            self.store.close()
        self.store = None
        self._owns_store = False

    # ------------------------------------------------------------------
    # validation (tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check order preservation and containment consistency.

        * token labels strictly increase in document order (Prop. 1);
        * for every element, begin < end;
        * label containment agrees with structural ancestorship for every
          parent/child edge.
        """
        self.scheme.validate()
        previous: Any = None
        kinds, nodes = _tokens(self.document.root)
        for kind, node in zip(kinds, nodes):
            label = self.scheme.label(node.end if kind == ")"
                                      else self._begin(node))
            if previous is not None and not previous < label:
                raise AssertionError(
                    f"labels out of document order: {previous!r} then "
                    f"{label!r} at {node!r}")
            previous = label
        for element in self.document.iter_elements():
            region = self.region(element)
            for child in element.children:
                if isinstance(child, XMLElement):
                    if not region.contains(self.region(child)):
                        raise AssertionError(
                            f"containment broken: {element.tag} !> "
                            f"{child.tag}")


def _read_meta(store: Any) -> dict:
    """The ``meta`` record of a saved document; :class:`ParameterError`
    names the store when it holds none or a damaged one."""
    where = getattr(store, "path", None) or repr(store)
    try:
        raw = store.get_blob(META_BLOB)
    except KeyError:
        raise ParameterError(
            f"{where} holds no saved document (no {META_BLOB!r} blob)") \
            from None
    try:
        meta = json.loads(bytes(raw))
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise ParameterError(
            f"the {META_BLOB!r} blob of {where} is not a JSON object")
    return meta
