"""Array-backed L-Tree engine (same algorithms as :mod:`repro.core.ltree`).

:class:`CompactLTree` is a struct-of-arrays reimplementation of the
materialized L-Tree.  Where :class:`repro.core.ltree.LTree` spends every
operation chasing ``LTreeNode`` objects and their attribute slots, this
engine keeps the whole tree in parallel Python lists of integers —

* ``_num``          — the label of each slot;
* ``_height``       — 0 for leaves, increasing toward the root;
* ``_leaf_count``   — cached leaves below each slot;
* ``_parent``       — parent slot (``NIL`` for the root);
* ``_first_child`` / ``_next_sibling`` — the child lists, encoded as
  first-child/next-sibling links so a node costs six ints, not a list;
* ``_payload`` / ``_deleted`` — leaf payloads and tombstone marks;

plus a free-list of recycled slots, so splits and rebuilds reuse storage
instead of allocating.  Handles are plain ``int`` slot ids.

Every algorithm — bulk load (§2.2), Algorithm-1 single insert, the §4.1
run insert, mark-delete (§2.3), compaction — is a fully iterative port of
the reference implementation and performs the *same* work in the *same*
order, reporting into the same :class:`repro.core.stats.Counters` cost
model.  ``tests/core/test_compact_differential.py`` holds the two engines
to byte-identical label sequences and identical counter totals under
randomized operation streams; that equivalence is the contract this
module maintains.

The payoff is a flat, cache-friendly layout that later PRs can shard,
persist, or hand to an accelerator without first untangling object
graphs — the interchangeable-engine seam behind the
``ltree-compact`` scheme in :mod:`repro.order.registry`.

The hot paths run as **batch array passes** through
:mod:`repro.core.vectorized`: bulk load materializes all six columns with
closed-form level arithmetic (numpy when available, C-level list/slice
passes otherwise), and every relabel — splits, root rebuilds, the §4.1
run-insert relabel — walks the tree one *level* at a time with stride
arithmetic instead of one slot at a time.  The reference ``LTree`` is the
oracle both paths are differential-tested against.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import (Any, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from repro.core import vectorized
from repro.core.params import LTreeParams
from repro.core.stats import NULL_COUNTERS, Counters
from repro.errors import ParameterError, InvariantViolation, LabelOverflow

#: sentinel slot id meaning "no node" (parent of the root, end of a
#: sibling chain, empty child list)
NIL = -1

#: magic prefix of the struct-of-arrays byte format (see ``to_bytes``)
ARRAY_MAGIC = b"LTREEARR"
#: version of the struct-of-arrays byte format (bump on layout changes)
ARRAY_FORMAT_VERSION = 1

#: header layout: magic, version, flags, f, s, label_base, root,
#: n_slots, n_free, payload byte length
_HEADER = struct.Struct("<8sIIqqqqqqq")
_FLAG_LOWEST_POLICY = 1
_FLAG_HAS_PAYLOADS = 2

#: labels stay below ``base * step`` for the largest memoized step, so
#: once that product could exceed this bound a restored tree's
#: ``array('q')`` label column is boxed back to a plain list (one power
#: of the base before int64 could actually overflow)
_PROMOTE_LIMIT = 2 ** 62


class ArrayImageHeader(NamedTuple):
    """Decoded ``LTREEARR`` header plus the derived column offsets.

    Lets readers address individual columns of a byte image *without*
    deserializing it — the sharded engine reads labels and tombstones
    of a still-lazy shard straight out of the mmapped image this way
    (see :mod:`repro.core.sharded`).
    """

    flags: int
    f: int
    s: int
    label_base: int
    root: int
    n_slots: int
    n_free: int
    payload_len: int

    @property
    def violator_policy(self) -> str:
        return "lowest" if self.flags & _FLAG_LOWEST_POLICY else "highest"

    @property
    def num_offset(self) -> int:
        """Byte offset of the label (``num``) column."""
        return _HEADER.size

    @property
    def deleted_offset(self) -> int:
        """Byte offset of the tombstone column."""
        return _HEADER.size + 8 * (6 * self.n_slots + self.n_free)

    @property
    def total_bytes(self) -> int:
        """Exact byte length a consistent image must have."""
        return self.deleted_offset + self.n_slots + self.payload_len


def read_array_header(data: bytes) -> ArrayImageHeader:
    """Validate and decode the header of a ``to_bytes`` image.

    Raises :class:`ParameterError` on a bad magic, an unsupported
    version, or a header inconsistent with the buffer length — the same
    checks :meth:`CompactLTree.from_bytes` performs before touching the
    columns.
    """
    view = memoryview(data)
    if len(view) < _HEADER.size:
        raise ParameterError(
            f"buffer of {len(view)} bytes is shorter than the "
            f"{_HEADER.size}-byte header")
    (magic, version, flags, f, s, label_base, root, n_slots, n_free,
     payload_len) = _HEADER.unpack_from(view, 0)
    if magic != ARRAY_MAGIC:
        raise ParameterError(
            f"bad magic {magic!r}; not a CompactLTree byte image")
    if version != ARRAY_FORMAT_VERSION:
        raise ParameterError(
            f"unsupported array-format version {version} "
            f"(supported: {ARRAY_FORMAT_VERSION})")
    if n_slots < 1 or n_free < 0 or payload_len < 0:
        # every real image holds at least the root slot
        raise ParameterError(
            f"inconsistent header: n_slots={n_slots}, "
            f"n_free={n_free}, payload_len={payload_len}")
    header = ArrayImageHeader(flags, f, s, label_base, root, n_slots,
                              n_free, payload_len)
    if len(view) != header.total_bytes:
        raise ParameterError(
            f"buffer is {len(view)} bytes, header describes "
            f"{header.total_bytes}")
    return header


class CompactLTree:
    """Dynamic order-preserving labeling structure on flat arrays.

    Drop-in algorithmic twin of :class:`repro.core.ltree.LTree`; the API
    differs only in that handles are ``int`` slot ids instead of
    ``LTreeNode`` objects, with accessor methods (:meth:`num`,
    :meth:`payload`, :meth:`is_deleted`) replacing attribute access.

    Parameters
    ----------
    params:
        The validated ``(f, s, label_base)`` parameter set.
    stats:
        Counter sink for maintenance cost accounting.  Defaults to a
        shared do-nothing instance.

    Examples
    --------
    >>> from repro.core.params import FIGURE2_PARAMS
    >>> tree = CompactLTree(FIGURE2_PARAMS)
    >>> leaves = tree.bulk_load("A B C /C /B D /D /A".split())
    >>> [tree.num(leaf) for leaf in leaves]    # paper Figure 2(a)
    [0, 1, 3, 4, 9, 10, 12, 13]
    """

    #: recognised violator-selection policies (see ``violator_policy``)
    POLICIES = ("highest", "lowest")

    def __init__(self, params: LTreeParams, stats: Counters = NULL_COUNTERS,
                 violator_policy: str = "highest"):
        if violator_policy not in self.POLICIES:
            raise ValueError(
                f"violator_policy must be one of {self.POLICIES}, got "
                f"{violator_policy!r}")
        self.params = params
        self.stats = stats
        #: which over-limit ancestor a single insert splits; "highest" is
        #: the paper's Algorithm 1, "lowest" the A1 ablation.
        self.violator_policy = violator_policy
        # struct-of-arrays node storage
        self._num: list[int] = []
        self._height: list[int] = []
        self._leaf_count: list[int] = []
        self._parent: list[int] = []
        self._first_child: list[int] = []
        self._next_sibling: list[int] = []
        self._payload: list[Any] = []
        self._deleted: bytearray = bytearray()
        self._free: list[int] = []
        #: cached powers of the label base, indexed by height
        self._steps: list[int] = [1]
        #: cached split thresholds ``l_max(h) = s * b**h``, indexed by height
        self._lmax: list[int] = [params.s]
        self.root = self._new_node(1)

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------
    def _new_node(self, height: int, payload: Any = None) -> int:
        """Allocate a slot (recycling the free-list first)."""
        leaf_count = 1 if height == 0 else 0
        if self._free:
            slot = self._free.pop()
            self._num[slot] = 0
            self._height[slot] = height
            self._leaf_count[slot] = leaf_count
            self._parent[slot] = NIL
            self._first_child[slot] = NIL
            self._next_sibling[slot] = NIL
            self._payload[slot] = payload
            self._deleted[slot] = 0
            return slot
        slot = len(self._num)
        self._num.append(0)
        self._height.append(height)
        self._leaf_count.append(leaf_count)
        self._parent.append(NIL)
        self._first_child.append(NIL)
        self._next_sibling.append(NIL)
        self._payload.append(payload)
        self._deleted.append(0)
        return slot

    def _release(self, slot: int) -> None:
        """Return a slot to the free-list."""
        self._parent[slot] = NIL
        self._first_child[slot] = NIL
        self._next_sibling[slot] = NIL
        self._payload[slot] = None
        self._free.append(slot)

    def _release_internal_subtree(self, top: int) -> None:
        """Free ``top`` and every internal node below it, keeping leaves.

        Used by the split/rebuild paths, which detach the leaves of a
        subtree and hang them under freshly built internal nodes; the old
        internal skeleton is recycled instead of leaking slots.
        """
        height = self._height
        next_sibling = self._next_sibling
        stack = [top]
        while stack:
            node = stack.pop()
            if height[node] == 0:
                continue
            child = self._first_child[node]
            while child != NIL:
                stack.append(child)
                child = next_sibling[child]
            self._release(node)

    def _clear(self) -> None:
        """Drop every slot (bulk load rebuilds from scratch).

        Columns are *reassigned*, not cleared in place: a restored tree
        stores them as ``array('q')`` (see :meth:`from_bytes`) and a
        bulk load returns it to plain-list storage.
        """
        self._num = []
        self._height = []
        self._leaf_count = []
        self._parent = []
        self._first_child = []
        self._next_sibling = []
        self._payload = []
        self._deleted = bytearray()
        self._free = []

    @property
    def allocated_slots(self) -> int:
        """Total slots ever allocated and not reclaimed by bulk load."""
        return len(self._num)

    @property
    def free_slots(self) -> int:
        """Slots currently parked on the free-list."""
        return len(self._free)

    def _step(self, height: int) -> int:
        """``base ** height`` from the memoized power table."""
        steps = self._steps
        base = self.params.base
        while len(steps) <= height:
            steps.append(steps[-1] * base)
            if steps[-1] > _PROMOTE_LIMIT // base and \
                    isinstance(self._num, array):
                # restored trees keep labels in an int64 array (see
                # from_bytes); labels stay below base * step, so box
                # back to a plain list *before* any label near the
                # int64 rim could be stored into fixed-width storage
                self._num = self._num.tolist()
        return steps[height]

    def _l_max(self, height: int) -> int:
        """``s * b**height`` from the memoized threshold table."""
        lmax = self._lmax
        while len(lmax) <= height:
            lmax.append(lmax[-1] * self.params.arity)
        return lmax[height]

    # ------------------------------------------------------------------
    # child-list helpers (first-child/next-sibling encoding)
    # ------------------------------------------------------------------
    def _children_of(self, slot: int) -> list[int]:
        """Materialize the ordered child list of ``slot`` (O(fanout))."""
        children: list[int] = []
        next_sibling = self._next_sibling
        child = self._first_child[slot]
        while child != NIL:
            children.append(child)
            child = next_sibling[child]
        return children

    def _set_children(self, parent: int, children: Sequence[int]) -> None:
        """Relink ``parent``'s child chain to ``children``, in order.

        Also repoints each child's parent link; ``leaf_count`` is left to
        the caller (the reference implementation updates it separately).
        """
        parent_arr = self._parent
        next_sibling = self._next_sibling
        previous = NIL
        for child in children:
            parent_arr[child] = parent
            if previous == NIL:
                self._first_child[parent] = child
            else:
                next_sibling[previous] = child
            previous = child
        if previous == NIL:
            self._first_child[parent] = NIL
        else:
            next_sibling[previous] = NIL

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Height of the tree (leaves are at height 0)."""
        return self._height[self.root]

    @property
    def n_leaves(self) -> int:
        """Number of leaves, including marked-deleted ones."""
        return self._leaf_count[self.root]

    @property
    def label_space(self) -> int:
        """Exclusive upper bound of the current label universe."""
        return self.params.label_space(self._height[self.root])

    def num(self, slot: int) -> int:
        """Current label of ``slot``."""
        return self._num[slot]

    def payload(self, slot: int) -> Any:
        """Payload carried by a leaf slot."""
        return self._payload[slot]

    def set_payload(self, slot: int, payload: Any) -> None:
        """Replace the payload of a leaf slot (labels untouched).

        Used when reattaching in-memory objects to a restored tree whose
        serialized form carried no payloads (see :meth:`to_bytes`).
        """
        if self._height[slot] != 0:
            raise ValueError("only leaves carry payloads")
        self._payload[slot] = payload

    def is_leaf(self, slot: int) -> bool:
        """True for token-carrying leaves (height 0)."""
        return self._height[slot] == 0

    def is_deleted(self, slot: int) -> bool:
        """Tombstone mark of a leaf slot."""
        return bool(self._deleted[slot])

    def parent_of(self, slot: int) -> Optional[int]:
        """Parent slot, or ``None`` for the root."""
        parent = self._parent[slot]
        return None if parent == NIL else parent

    def children_of(self, slot: int) -> list[int]:
        """Ordered child slots of an internal node (empty for leaves)."""
        return self._children_of(slot)

    def leaf_count_of(self, slot: int) -> int:
        """Cached number of leaves below ``slot``."""
        return self._leaf_count[slot]

    def height_of(self, slot: int) -> int:
        """Height of ``slot`` (0 for leaves)."""
        return self._height[slot]

    def first_leaf(self) -> Optional[int]:
        """Leftmost leaf, or ``None`` when the tree is empty."""
        return self._first_leaf_of(self.root)

    def last_leaf(self) -> Optional[int]:
        """Rightmost leaf, or ``None`` when the tree is empty."""
        height = self._height
        next_sibling = self._next_sibling
        node = self.root
        while height[node] != 0:
            child = self._first_child[node]
            if child == NIL:
                return None
            while next_sibling[child] != NIL:
                child = next_sibling[child]
            node = child
        return node

    def _first_leaf_of(self, slot: int) -> Optional[int]:
        height = self._height
        node = slot
        while height[node] != 0:
            child = self._first_child[node]
            if child == NIL:
                return None
            node = child
        return node

    def iter_leaves(self, include_deleted: bool = True) -> Iterator[int]:
        """All leaves in document order."""
        return self._iter_subtree_leaves(self.root, include_deleted)

    def _iter_subtree_leaves(self, top: int, include_deleted: bool = True
                             ) -> Iterator[int]:
        """Leaves of the subtree rooted at ``top``, in document order.

        Walks the first-child/next-sibling links directly (the encoding
        *is* a binary tree whose pre-order is document order), so no
        per-node child list is ever materialized.
        """
        height = self._height
        first_child = self._first_child
        next_sibling = self._next_sibling
        deleted = self._deleted
        if height[top] == 0:
            if include_deleted or not deleted[top]:
                yield top
            return
        # stack of pending right-sibling chains; top's own siblings are
        # never followed because the walk starts at its first child
        stack = [first_child[top]]
        push = stack.append
        while stack:
            node = stack.pop()
            while node != NIL:
                if height[node] == 0:
                    if include_deleted or not deleted[node]:
                        yield node
                    node = next_sibling[node]
                else:
                    sibling = next_sibling[node]
                    if sibling != NIL:
                        push(sibling)
                    node = first_child[node]

    def leaf_slots(self, include_deleted: bool = True) -> Sequence[int]:
        """Leaves in document order, derived from the label columns.

        The same sequence :meth:`iter_leaves` walks, computed as one
        sort of the leaf slots by label
        (:func:`repro.core.vectorized.leaf_order`) instead of a pointer
        walk; :meth:`validate` checks that the two agree.
        """
        return vectorized.leaf_order(
            self._num, self._height,
            None if include_deleted else self._deleted)

    def labels(self, include_deleted: bool = True) -> list[int]:
        """The current label sequence (strictly increasing)."""
        num = self._num
        return [num[leaf] for leaf in self.iter_leaves(include_deleted)]

    def label_map(self) -> dict[int, int]:
        """Live handle → label, one pass over the flat ``num`` column.

        No per-handle accessor calls, no tombstone re-checks
        (``iter_leaves(include_deleted=False)`` already filters).
        """
        num = self._num
        return {slot: num[slot]
                for slot in self.iter_leaves(include_deleted=False)}

    def payloads(self, include_deleted: bool = True) -> list[Any]:
        """Leaf payloads in document order."""
        payload = self._payload
        return [payload[leaf] for leaf in self.iter_leaves(include_deleted)]

    def leaf_at(self, index: int) -> int:
        """The ``index``-th leaf (0-based, counting deleted ones): O(h·f)."""
        if index < 0 or index >= self._leaf_count[self.root]:
            raise IndexError(
                f"leaf index {index} out of range "
                f"0..{self._leaf_count[self.root]}")
        height = self._height
        leaf_count = self._leaf_count
        next_sibling = self._next_sibling
        node = self.root
        accesses = 0
        while height[node] != 0:
            child = self._first_child[node]
            while child != NIL:
                accesses += 1
                if index < leaf_count[child]:
                    node = child
                    break
                index -= leaf_count[child]
                child = next_sibling[child]
        stats = self.stats
        if stats.enabled:
            stats.node_accesses += accesses
        return node

    def max_label(self) -> int:
        """Largest label currently assigned (-1 for an empty tree)."""
        last = self.last_leaf()
        return -1 if last is None else self._num[last]

    def find_leaf(self, num: int) -> Optional[int]:
        """The leaf labeled ``num``, or ``None``: O(height) descent.

        Labels spell their own path (paper §4.2): at a node numbered
        ``N`` with children ``N + i * B**h``, the target's child slot is
        ``(num - N) // B**h``; children occupy consecutive slots.
        """
        if num < 0:
            return None
        num_arr = self._num
        height = self._height
        next_sibling = self._next_sibling
        stats = self.stats
        track = stats.enabled
        node = self.root
        if num < num_arr[node]:
            return None
        while height[node] != 0:
            if track:
                stats.node_accesses += 1
            child = self._first_child[node]
            if child == NIL:
                return None
            step = self._step(height[node] - 1)
            index = (num - num_arr[node]) // step
            if index < 0:
                return None
            while index > 0 and child != NIL:
                child = next_sibling[child]
                index -= 1
            if child == NIL:
                return None
            node = child
        return node if num_arr[node] == num else None

    # ------------------------------------------------------------------
    # maintenance beyond the paper: compaction and re-parameterization
    # ------------------------------------------------------------------
    def compact(self, params: Optional[LTreeParams] = None
                ) -> dict[int, int]:
        """Rebuild the tree without tombstoned leaves (vacuum).

        Returns an old-handle -> new-handle mapping so callers can
        migrate.  All pre-compaction handles are invalid afterwards: the
        rebuild reclaims every slot.
        """
        live = list(self.iter_leaves(include_deleted=False))
        payloads = [self._payload[leaf] for leaf in live]
        if params is not None:
            self.params = params
            self._steps = [1]
            self._lmax = [params.s]
        new_leaves = self.bulk_load(payloads)
        return dict(zip(live, new_leaves))

    def tombstone_count(self) -> int:
        """Number of marked-deleted leaves still occupying label slots.

        One C-level count over the tombstone column: only leaves are
        ever marked (:meth:`mark_deleted` refuses internal nodes), leaf
        slots are never returned to the free-list, and a recycled slot
        is unmarked on reuse.  :meth:`validate` re-derives the count by
        walking the leaves and checks the two agree.
        """
        return self._deleted.count(1)

    # ------------------------------------------------------------------
    # bulk loading (paper §2.2)
    # ------------------------------------------------------------------
    def bulk_load(self, payloads: Iterable[Any]) -> list[int]:
        """Replace the tree contents with a fresh left-complete tree.

        Reclaims every existing slot, so handles from before the load are
        invalid.  Returns the created leaves in order.

        The whole struct-of-arrays image — labels, links, counts — is
        computed as closed-form column arithmetic
        (:func:`repro.core.vectorized.left_complete_columns`) with zero
        per-slot work; labels and counter totals equal the reference
        ``LTree.bulk_load``'s.
        """
        items = list(payloads)
        self._clear()
        if not items:
            self.root = self._new_node(1)
            self._assign_labels(self.root, 0)
            return []
        n = len(items)
        params = self.params
        columns = vectorized.left_complete_columns(
            n, params.arity, params.base, params.height_for(n))
        (self._num, self._height, self._leaf_count, self._parent,
         self._first_child, self._next_sibling) = columns[:6]
        self._payload = items + [None] * (columns.total - n)
        self._deleted = bytearray(columns.total)
        self.root = columns.root
        stats = self.stats
        if stats.enabled:
            stats.relabels += columns.total
        return list(range(n))

    def _build_left_complete(self, leaves: Sequence[int],
                             height: int) -> int:
        """Pack ``leaves`` into a left-complete ``b``-ary tree of ``height``.

        Nodes are filled left to right; only the rightmost spine may be
        under-full.  ``len(leaves)`` must be in ``(0, b**height]``.
        """
        arity = self.params.arity
        if not 0 < len(leaves) <= arity ** height:
            raise ValueError(
                f"{len(leaves)} leaves do not fit height {height} "
                f"(capacity {arity ** height})")
        level: list[int] = list(leaves)
        for level_height in range(1, height + 1):
            next_level: list[int] = []
            for start in range(0, len(level), arity):
                group = level[start:start + arity]
                parent = self._new_node(level_height)
                self._set_children(parent, group)
                leaf_count = self._leaf_count
                total = 0
                for child in group:
                    total += leaf_count[child]
                leaf_count[parent] = total
                next_level.append(parent)
            level = next_level
        root = level[0]
        self._parent[root] = NIL
        return root

    def _build_even(self, leaves: Sequence[int], height: int) -> int:
        """Pack ``leaves`` into a ``b``-ary tree with *even* occupancy.

        Iterative pre-order port of the reference ``_build_even``: leaves
        are spread evenly over ``ceil(n / b**(height-1))`` children, so
        every internal node holds at least half its capacity share.
        """
        arity = self.params.arity
        n = len(leaves)
        if not 0 < n <= arity ** height:
            raise ValueError(
                f"{n} leaves do not fit height {height} "
                f"(capacity {arity ** height})")
        if height == 0:
            return leaves[0]
        root = NIL
        # per-parent tail pointer so pre-order frames append in O(1)
        tail: dict[int, int] = {}
        stack: list[tuple[int, int, int, int]] = [(0, n, height, NIL)]
        while stack:
            start, end, level_height, parent = stack.pop()
            if level_height == 0:
                node = leaves[start]
            else:
                node = self._new_node(level_height)
                self._leaf_count[node] = end - start
            if parent == NIL:
                root = node
                self._parent[node] = NIL
            else:
                self._parent[node] = parent
                last = tail.get(parent, NIL)
                if last == NIL:
                    self._first_child[parent] = node
                else:
                    self._next_sibling[last] = node
                self._next_sibling[node] = NIL
                tail[parent] = node
            if level_height == 0:
                continue
            capacity = arity ** (level_height - 1)
            count = end - start
            pieces = min(arity, -(-count // capacity))
            ranges: list[tuple[int, int]] = []
            cursor = start
            for piece in range(pieces):
                size = (end - cursor) // (pieces - piece)
                ranges.append((cursor, cursor + size))
                cursor += size
            for child_start, child_end in reversed(ranges):
                stack.append((child_start, child_end, level_height - 1,
                              node))
        return root

    # ------------------------------------------------------------------
    # single insertion (paper Algorithm 1)
    # ------------------------------------------------------------------
    def insert_after(self, anchor: int, payload: Any) -> int:
        """Insert a new leaf right after ``anchor`` and label it."""
        return self._insert_adjacent(anchor, payload, before=False)

    def insert_before(self, anchor: int, payload: Any) -> int:
        """Insert a new leaf right before ``anchor`` and label it."""
        return self._insert_adjacent(anchor, payload, before=True)

    def append(self, payload: Any) -> int:
        """Insert a new leaf at the end of the sequence."""
        last = self.last_leaf()
        if last is None:
            return self._insert_first(payload)
        return self.insert_after(last, payload)

    def prepend(self, payload: Any) -> int:
        """Insert a new leaf at the beginning of the sequence."""
        first = self.first_leaf()
        if first is None:
            return self._insert_first(payload)
        return self.insert_before(first, payload)

    def _insert_first(self, payload: Any) -> int:
        """Insert into an empty tree."""
        if self._leaf_count[self.root] != 0:
            raise ValueError("_insert_first on a non-empty tree")
        if self._height[self.root] != 1:
            self._release(self.root)
            self.root = self._new_node(1)
        leaf = self._new_node(0, payload)
        parent = self.root
        self._first_child[parent] = leaf
        self._parent[leaf] = parent
        leaf_count = self._leaf_count
        parent_arr = self._parent
        depth = 0
        node = parent
        while node != NIL:
            leaf_count[node] += 1
            depth += 1
            node = parent_arr[node]
        self._num[leaf] = self._num[parent]
        stats = self.stats
        if stats.enabled:
            stats.count_updates += depth
            stats.relabels += 1
            stats.inserts += 1
        return leaf

    def _insert_adjacent(self, anchor: int, payload: Any,
                         before: bool) -> int:
        """Algorithm 1: structural insert, count update, split or relabel."""
        if self._height[anchor] != 0:
            raise ValueError("insertion anchor must be a leaf")
        parent = self._parent[anchor]
        if parent == NIL:
            raise ValueError("anchor leaf is detached from any tree")
        next_sibling = self._next_sibling
        # locate the anchor in its parent's chain (O(fanout))
        index = 0
        previous = NIL
        child = self._first_child[parent]
        while child != anchor:
            previous = child
            child = next_sibling[child]
            index += 1
        position = index if before else index + 1
        leaf = self._new_node(0, payload)
        if before:
            if previous == NIL:
                self._first_child[parent] = leaf
            else:
                next_sibling[previous] = leaf
            next_sibling[leaf] = anchor
        else:
            next_sibling[leaf] = next_sibling[anchor]
            next_sibling[anchor] = leaf
        self._parent[leaf] = parent

        # Walk up: maintain leaf counts and find the violating ancestor
        # (the paper's Algorithm 1 takes the HIGHEST; "lowest" is the A1
        # ablation).
        leaf_count = self._leaf_count
        height = self._height
        parent_arr = self._parent
        lmax = self._lmax
        if len(lmax) <= height[self.root]:
            self._l_max(height[self.root])
        highest_policy = self.violator_policy == "highest"
        violator = NIL
        depth = 0
        node = parent
        while node != NIL:
            leaf_count[node] += 1
            depth += 1
            if leaf_count[node] >= lmax[height[node]]:
                if highest_policy or violator == NIL:
                    violator = node
            node = parent_arr[node]
        stats = self.stats
        if stats.enabled:
            stats.count_updates += depth

        if violator == NIL:
            # Relabel the new leaf and its right siblings (cost <= f).
            self._relabel_children_from(parent, position)
        elif violator == self.root:
            if leaf_count[self.root] == lmax[height[self.root]]:
                self._split_root()
            else:
                # Only reachable under the "lowest" ablation policy.
                self._rebuild_root()
        elif leaf_count[violator] == lmax[height[violator]]:
            self._split(violator)
        else:
            self._split_uneven(violator)
        if stats.enabled:
            stats.inserts += 1
        return leaf

    # ------------------------------------------------------------------
    # splitting and relabeling
    # ------------------------------------------------------------------
    def _split(self, node: int) -> None:
        """Replace ``node`` with ``s`` complete ``b``-ary subtrees (§2.3)."""
        parent = self._parent[node]
        assert parent != NIL
        node_height = self._height[node]
        expected = self.params.l_max(node_height)
        if self._leaf_count[node] != expected:
            raise InvariantViolation(
                f"split of node with l={self._leaf_count[node]}, expected "
                f"{expected}; use insert_run_* for batch updates")
        leaves = list(self._iter_subtree_leaves(node))
        chunk = self.params.l_min(node_height)  # b**h leaves per subtree
        siblings = self._children_of(parent)
        index = siblings.index(node)
        self._release_internal_subtree(node)
        subtrees = [
            self._build_left_complete(leaves[start:start + chunk],
                                      node_height)
            for start in range(0, len(leaves), chunk)
        ]
        siblings[index:index + 1] = subtrees
        self._set_children(parent, siblings)
        self.stats.splits += 1
        # Splits landing next to thin batch/bulk-load children can push
        # the parent's fanout past the addressable limit — regroup first.
        if len(siblings) > min(self.params.f, self.params.base):
            top = self._fix_fanout_upward(parent)
            if self._parent[top] == NIL:
                self._assign_labels(top, 0)
            else:
                grand = self._parent[top]
                self._relabel_children_from(
                    grand, self._children_of(grand).index(top))
        else:
            self._relabel_children_from(parent, index)

    def _split_root(self) -> None:
        """Grow the tree: new root adopting ``s`` complete subtrees.

        Paper Algorithm 1, lines 18–20: the root's ``s * b**H`` leaves
        become ``s`` complete trees of height ``H`` under a new root of
        height ``H + 1``, relabeled from 0.
        """
        old_root = self.root
        old_height = self._height[old_root]
        leaves = list(self._iter_subtree_leaves(old_root))
        chunk = self.params.l_min(old_height)
        self._release_internal_subtree(old_root)
        subtrees = [
            self._build_left_complete(leaves[start:start + chunk],
                                      old_height)
            for start in range(0, len(leaves), chunk)
        ]
        new_root = self._new_node(old_height + 1)
        self._set_children(new_root, subtrees)
        leaf_count = self._leaf_count
        leaf_count[new_root] = sum(leaf_count[tree] for tree in subtrees)
        self.root = new_root
        self.stats.splits += 1
        self._assign_labels(new_root, 0)

    def _relabel_children_from(self, parent: int, start: int) -> None:
        """Relabel children ``start..`` of ``parent`` and their subtrees.

        This is the paper's ``Relabel(parent, num(parent), i)``.  The
        child chain is walked in place — no child list is materialized —
        and whole subtrees are relabeled per level by
        :meth:`_assign_labels_batch`.
        """
        parent_height = self._height[parent]
        step = self._step(parent_height - 1)
        base_num = self._num[parent]
        next_sibling = self._next_sibling
        # one chain pass: fanout check + the first child to relabel
        fanout = 0
        start_child = NIL
        child = self._first_child[parent]
        while child != NIL:
            if fanout == start:
                start_child = child
            fanout += 1
            child = next_sibling[child]
        if fanout > self.params.base:
            raise LabelOverflow(
                f"node has {fanout} children but the label "
                f"base addresses only {self.params.base} slots")
        if start_child == NIL:
            return
        if parent_height == 1:
            # children are all leaves — one stride pass over the chain
            num_arr = self._num
            value = base_num + start * step
            child = start_child
            while child != NIL:
                num_arr[child] = value
                value += step
                child = next_sibling[child]
            stats = self.stats
            if stats.enabled:
                stats.relabels += fanout - start
            return
        slots = []
        values = []
        child = start_child
        value = base_num + start * step
        while child != NIL:
            slots.append(child)
            values.append(value)
            value += step
            child = next_sibling[child]
        self._assign_labels_batch(slots, values, parent_height - 1)

    def _assign_labels(self, node: int, num: int) -> None:
        """Set ``num`` on ``node`` and on its whole subtree."""
        self._assign_labels_batch([node], [num], self._height[node])

    def _assign_labels_batch(self, slots: list[int], values: list[int],
                             height: int) -> None:
        """Label same-height subtree roots ``slots`` with ``values``.

        The vectorized form of the subtree relabel: instead of a per-node
        stack walk, the whole frontier advances one *level* at a time and
        each parent's child labels are a stride progression; counters are
        settled once per call.
        """
        if height > 0:
            # extend the step memo (and run its array->list promotion
            # hook) *before* aliasing the label column: _step may
            # reassign self._num, and writes into a stale alias would
            # be silently lost
            self._step(height - 1)
        num_arr = self._num
        first_child = self._first_child
        next_sibling = self._next_sibling
        base = self.params.base
        for slot, value in zip(slots, values):
            num_arr[slot] = value
        written = len(slots)
        level = height
        while level > 0 and slots:
            step = self._step(level - 1)
            descend = level > 1
            next_slots: list[int] = []
            next_values: list[int] = []
            push_slot = next_slots.append
            push_value = next_values.append
            for parent, value in zip(slots, values):
                child = first_child[parent]
                count = 0
                while child != NIL:
                    num_arr[child] = value
                    count += 1
                    if descend:
                        push_slot(child)
                        push_value(value)
                    value += step
                    child = next_sibling[child]
                if count > base:
                    raise LabelOverflow(
                        f"node has {count} children but the "
                        f"label base addresses only {base} slots")
                written += count
            slots, values = next_slots, next_values
            level -= 1
        stats = self.stats
        if stats.enabled:
            stats.relabels += written

    # ------------------------------------------------------------------
    # batch insertion (paper §4.1)
    # ------------------------------------------------------------------
    def insert_run_after(self, anchor: int,
                         payloads: Sequence[Any]) -> list[int]:
        """Insert a run of leaves right after ``anchor`` in one operation.

        The ``h`` (count update) and ``f`` (sibling relabel) cost terms
        are paid once for the whole run, matching paper §4.1.
        """
        return self._insert_run(anchor, payloads, before=False)

    def insert_run_before(self, anchor: int,
                          payloads: Sequence[Any]) -> list[int]:
        """Insert a run of leaves right before ``anchor``; see above."""
        return self._insert_run(anchor, payloads, before=True)

    def _insert_run(self, anchor: int, payloads: Sequence[Any],
                    before: bool) -> list[int]:
        if not payloads:
            return []
        if self._height[anchor] != 0:
            raise ValueError("insertion anchor must be a leaf")
        parent = self._parent[anchor]
        if parent == NIL:
            raise ValueError("anchor leaf is detached from any tree")
        next_sibling = self._next_sibling
        index = 0
        previous = NIL
        child = self._first_child[parent]
        while child != anchor:
            previous = child
            child = next_sibling[child]
            index += 1
        position = index if before else index + 1
        leaves = [self._new_node(0, payload) for payload in payloads]
        for left, right in zip(leaves, leaves[1:]):
            next_sibling[left] = right
        if before:
            if previous == NIL:
                self._first_child[parent] = leaves[0]
            else:
                next_sibling[previous] = leaves[0]
            next_sibling[leaves[-1]] = anchor
        else:
            next_sibling[leaves[-1]] = next_sibling[anchor]
            next_sibling[anchor] = leaves[0]
        parent_arr = self._parent
        for leaf in leaves:
            parent_arr[leaf] = parent

        count = len(leaves)
        leaf_count = self._leaf_count
        height = self._height
        lmax = self._lmax
        if len(lmax) <= height[self.root]:
            self._l_max(height[self.root])
        violator = NIL
        depth = 0
        node = parent
        while node != NIL:
            leaf_count[node] += count
            depth += 1
            if leaf_count[node] >= lmax[height[node]]:
                violator = node
            node = parent_arr[node]
        stats = self.stats
        if stats.enabled:
            stats.count_updates += depth

        if violator == NIL:
            self._relabel_children_from(parent, position)
        elif violator == self.root:
            self._rebuild_root()
        else:
            self._split_uneven(violator)
        if stats.enabled:
            stats.inserts += count
        return leaves

    def _split_uneven(self, node: int) -> None:
        """Generalized split for leaf counts above ``l_max`` (§4.1).

        The node is rebuilt into ``ceil(l / b**h)`` evenly-filled
        subtrees; any fanout overflow in the parent is repaired by
        :meth:`_fix_fanout_upward`.
        """
        parent = self._parent[node]
        assert parent != NIL
        node_height = self._height[node]
        leaves = list(self._iter_subtree_leaves(node))
        capacity = self.params.l_min(node_height)
        pieces = -(-len(leaves) // capacity)  # ceil division
        siblings = self._children_of(parent)
        index = siblings.index(node)
        self._release_internal_subtree(node)
        subtrees = []
        start = 0
        for piece in range(pieces):
            size = (len(leaves) - start) // (pieces - piece)
            subtrees.append(self._build_even(
                leaves[start:start + size], node_height))
            start += size
        siblings[index:index + 1] = subtrees
        self._set_children(parent, siblings)
        self.stats.splits += 1
        top = self._fix_fanout_upward(parent)
        if self._parent[top] == NIL:
            self._assign_labels(top, 0)
        else:
            grand = self._parent[top]
            self._relabel_children_from(
                grand, self._children_of(grand).index(top))

    def _fix_fanout_upward(self, node: int) -> int:
        """Regroup children wherever fanout exceeds the addressable limit.

        Iterative port of the reference: an over-full node is replaced
        (in *its* parent) by ``ceil(c / b)`` same-height nodes over
        consecutive child slices; the fix propagates upward, growing the
        tree at the root.  Returns the highest structurally modified
        node, where relabeling must start.
        """
        arity = self.params.arity
        limit = min(self.params.f, self.params.base)
        leaf_count = self._leaf_count
        highest = node
        current = node
        while current != NIL:
            children = self._children_of(current)
            if len(children) <= limit:
                current = self._parent[current]
                continue
            current_height = self._height[current]
            groups = -(-len(children) // arity)  # ceil division
            new_nodes: list[int] = []
            start = 0
            for group in range(groups):
                size = (len(children) - start) // (groups - group)
                packed = self._new_node(current_height)
                slice_ = children[start:start + size]
                self._set_children(packed, slice_)
                leaf_count[packed] = sum(leaf_count[c] for c in slice_)
                new_nodes.append(packed)
                start += size
            if self._parent[current] == NIL:
                new_root = self._new_node(current_height + 1)
                self._set_children(new_root, new_nodes)
                leaf_count[new_root] = sum(
                    leaf_count[packed] for packed in new_nodes)
                self._release(current)
                self.root = new_root
                return new_root
            parent = self._parent[current]
            siblings = self._children_of(parent)
            position = siblings.index(current)
            siblings[position:position + 1] = new_nodes
            self._set_children(parent, siblings)
            self._release(current)
            highest = parent
            current = parent
        return highest

    def _rebuild_root(self) -> None:
        """Batch analogue of the root split: rebuild at bulk-load height."""
        leaves = list(self._iter_subtree_leaves(self.root))
        height = self.params.height_for(len(leaves))
        if self.params.l_max(height) <= len(leaves):
            height += 1
        self._release_internal_subtree(self.root)
        self.root = self._build_even(leaves, height)
        self.stats.splits += 1
        self._assign_labels(self.root, 0)

    # ------------------------------------------------------------------
    # deletion (paper §2.3)
    # ------------------------------------------------------------------
    def mark_deleted(self, leaf: int) -> None:
        """Mark ``leaf`` deleted; no relabeling, no structural change."""
        if self._height[leaf] != 0:
            raise ValueError("only leaves can be marked deleted")
        self._deleted[leaf] = 1
        stats = self.stats
        if stats.enabled:
            stats.deletes += 1

    # ------------------------------------------------------------------
    # byte serialization (struct-of-arrays format)
    # ------------------------------------------------------------------
    def to_bytes(self, include_payloads: bool = True) -> bytes:
        """Serialize the whole engine state to a single buffer.

        Layout (all integers little-endian)::

            header   magic "LTREEARR", version, flags, f, s, label_base,
                     root slot, n_slots, n_free, payload byte length
            arrays   num, height, leaf_count, parent, first_child,
                     next_sibling — six int64 arrays of n_slots each
            free     int64 array of n_free recycled slot ids
            deleted  n_slots tombstone bytes
            payload  UTF-8 JSON list of n_slots entries (omitted when
                     ``include_payloads`` is false)

        Unlike the label-only snapshot of :mod:`repro.core.persistence`,
        this captures the *exact* slot layout — free-list order included —
        so :meth:`from_bytes` restores an engine that allocates, splits
        and counts identically to the original from the first operation
        on.  Payloads ride along as JSON (tuples come back as lists;
        non-JSON-able payloads raise :class:`ParameterError`); pass
        ``include_payloads=False`` when payloads are reattached from an
        external source, e.g. a document rebuilt from its stored token
        columns.
        """
        n_slots = len(self._num)
        flags = 0
        if self.violator_policy == "lowest":
            flags |= _FLAG_LOWEST_POLICY
        payload_blob = b""
        if include_payloads:
            flags |= _FLAG_HAS_PAYLOADS
            try:
                payload_blob = json.dumps(self._payload).encode("utf-8")
            except (TypeError, ValueError) as exc:
                raise ParameterError(
                    f"payloads are not JSON-serializable ({exc}); pass "
                    f"include_payloads=False and reattach them after "
                    f"from_bytes()") from None
        try:
            header = _HEADER.pack(
                ARRAY_MAGIC, ARRAY_FORMAT_VERSION, flags, self.params.f,
                self.params.s, self.params.base, self.root, n_slots,
                len(self._free), len(payload_blob))
        except struct.error:
            raise ParameterError(
                f"parameters exceed the int64 range of the byte format "
                f"(f={self.params.f}, s={self.params.s}, "
                f"base={self.params.base}); use the label-only JSON "
                f"snapshot instead") from None
        pieces = [header]
        try:
            for column in (self._num, self._height, self._leaf_count,
                           self._parent, self._first_child,
                           self._next_sibling):
                pieces.append(_pack_int64(column))
            pieces.append(_pack_int64(self._free))
        except OverflowError:
            # labels are arbitrary-precision in memory; the byte format
            # stores fixed 64-bit columns
            raise ParameterError(
                f"tree state exceeds the int64 range of the byte "
                f"format (base {self.params.base}, height "
                f"{self.height}); use the label-only JSON snapshot "
                f"instead") from None
        pieces.append(bytes(self._deleted))
        pieces.append(payload_blob)
        return b"".join(pieces)

    @classmethod
    def from_bytes(cls, data: bytes, stats: Counters = NULL_COUNTERS
                   ) -> "CompactLTree":
        """Rebuild an engine from a :meth:`to_bytes` buffer.

        Accepts any bytes-like object — including a ``memoryview`` over
        an mmapped page file — and copies each column in one bulk
        ``frombytes``, then *adopts* the resulting ``array('q')``
        objects as storage with no per-slot boxing (the ``tolist``
        floor the restore path used to pay).  Mutation paths treat the
        adopted arrays exactly like lists; the next :meth:`bulk_load`
        or an approach to the int64 rim (see :meth:`_step`) returns the
        affected columns to plain lists.  Raises
        :class:`ParameterError` on a bad magic, an unsupported version,
        or a truncated/inconsistent buffer.
        """
        view = memoryview(data)
        header = read_array_header(view)
        n_slots, n_free = header.n_slots, header.n_free
        root = header.root
        params = LTreeParams(f=header.f, s=header.s,
                             label_base=header.label_base)
        tree = cls(params, stats,
                   violator_policy=header.violator_policy)
        offset = _HEADER.size
        columns = []
        for _ in range(6):
            columns.append(_unpack_int64(view, offset, n_slots))
            offset += 8 * n_slots
        (tree._num, tree._height, tree._leaf_count, tree._parent,
         tree._first_child, tree._next_sibling) = columns
        tree._free = _unpack_int64(view, offset, n_free)
        offset += 8 * n_free
        seen_free = set(tree._free)
        if len(seen_free) != n_free or \
                any(not 0 <= slot < n_slots for slot in seen_free) or \
                root in seen_free:
            # a bogus free slot would silently corrupt live nodes on
            # the next allocation (negative ids index from the end)
            raise ParameterError(
                f"free-list holds invalid or duplicate slot ids for a "
                f"{n_slots}-slot arena")
        tree._deleted = bytearray(view[offset:offset + n_slots])
        offset += n_slots
        if header.flags & _FLAG_HAS_PAYLOADS:
            tree._payload = json.loads(
                view[offset:offset + header.payload_len].tobytes()
                .decode("utf-8"))
            if len(tree._payload) != n_slots:
                raise ParameterError(
                    f"payload column has {len(tree._payload)} entries, "
                    f"expected {n_slots}")
        else:
            tree._payload = [None] * n_slots
        if not 0 <= root < n_slots:
            raise ParameterError(
                f"root slot {root} outside the {n_slots}-slot arena")
        tree.root = root
        return tree

    def save(self, store: Any, name: str = "ltree",
             include_payloads: bool = True) -> None:
        """Persist this engine as blob ``name`` of a page store.

        ``store`` is any object with ``put_blob(name, data)`` —
        canonically :class:`repro.storage.pages.PageStore`.
        """
        store.put_blob(name, self.to_bytes(include_payloads))

    @classmethod
    def load(cls, store: Any, name: str = "ltree",
             stats: Counters = NULL_COUNTERS,
             prefer_mmap: bool = True) -> "CompactLTree":
        """Reopen an engine saved by :meth:`save`.

        With ``prefer_mmap`` (default) the blob is read through the
        store's mmap fast path when available, so the columns are copied
        straight out of the OS page cache.
        """
        return cls.from_bytes(store.get_blob(name, prefer_mmap=prefer_mmap),
                              stats=stats)

    # ------------------------------------------------------------------
    # validation (used by tests; never on production paths)
    # ------------------------------------------------------------------
    def validate(self, check_occupancy: bool = False) -> None:
        """Check every structural invariant; raise InvariantViolation.

        Same checks as :meth:`repro.core.ltree.LTree.validate`, performed
        iteratively, plus array-storage consistency (no free slot
        reachable from the root, the O(1) :meth:`tombstone_count`
        equal to the tombstoned leaves a walk finds, and the
        column-derived :meth:`leaf_slots` equal to the walk, with and
        without tombstones).
        """
        if self._num[self.root] != 0:
            raise InvariantViolation(
                f"root num is {self._num[self.root]}, not 0")
        if self._parent[self.root] != NIL:
            raise InvariantViolation("root has a parent")
        free = set(self._free)
        num = self._num
        height = self._height
        leaf_count = self._leaf_count
        parent_arr = self._parent
        stack: list[tuple[int, bool]] = [(self.root, True)]
        while stack:
            node, on_right_spine = stack.pop()
            if node in free:
                raise InvariantViolation(
                    f"free slot {node} is reachable from the root")
            if height[node] == 0:
                if leaf_count[node] != 1:
                    raise InvariantViolation("leaf with leaf_count != 1")
                continue
            children = self._children_of(node)
            if node != self.root and not children:
                raise InvariantViolation("non-root internal node is empty")
            if len(children) > self.params.f:
                raise InvariantViolation(
                    f"fanout {len(children)} exceeds f={self.params.f} "
                    f"at height {height[node]}")
            if len(children) > self.params.base:
                raise InvariantViolation("fanout exceeds label base")
            total = 0
            step = self._step(height[node] - 1)
            for index, child in enumerate(children):
                if parent_arr[child] != node:
                    raise InvariantViolation("broken parent link")
                if height[child] != height[node] - 1:
                    raise InvariantViolation(
                        f"child height {height[child]} under height "
                        f"{height[node]}")
                expected = num[node] + index * step
                if num[child] != expected:
                    raise InvariantViolation(
                        f"child num {num[child]}, expected {expected}")
                total += leaf_count[child]
                child_on_spine = (on_right_spine and
                                  index == len(children) - 1)
                stack.append((child, child_on_spine))
            if total != leaf_count[node]:
                raise InvariantViolation(
                    f"cached leaf_count {leaf_count[node]} != actual "
                    f"{total}")
            limit = self.params.l_max(height[node])
            if leaf_count[node] >= limit and \
                    self.violator_policy == "highest":
                raise InvariantViolation(
                    f"leaf count {leaf_count[node]} at height "
                    f"{height[node]} reached the split limit {limit} "
                    f"at rest")
            if check_occupancy and node != self.root and \
                    not on_right_spine:
                lower = self.params.l_min(height[node]) / 4
                if leaf_count[node] < lower:
                    raise InvariantViolation(
                        f"leaf count {leaf_count[node]} at height "
                        f"{height[node]} below the relaxed occupancy "
                        f"bound {lower}")
        labels = self.labels()
        for left, right in zip(labels, labels[1:]):
            if left >= right:
                raise InvariantViolation(
                    f"labels not strictly increasing: {left} >= {right}")
        deleted = self._deleted
        walked = sum(1 for leaf in self.iter_leaves() if deleted[leaf])
        if walked != self.tombstone_count():
            raise InvariantViolation(
                f"{walked} tombstoned leaves reachable, but the tombstone "
                f"column marks {self.tombstone_count()} slots")
        for include_deleted in (True, False):
            if list(self.leaf_slots(include_deleted)) != \
                    list(self.iter_leaves(include_deleted)):
                raise InvariantViolation(
                    f"leaf order derived from the columns disagrees "
                    f"with the tree walk (include_deleted="
                    f"{include_deleted})")


def _pack_int64(values: Sequence[int]) -> bytes:
    """One column as little-endian int64 bytes (single bulk copy).

    A column that already *is* an ``array('q')`` — the storage a
    restored tree keeps, see :func:`_unpack_int64` — is emitted with a
    single ``tobytes`` and no per-value conversion at all.
    """
    if isinstance(values, array) and values.typecode == "q":
        if sys.byteorder == "big":
            swapped = array("q", values)
            swapped.byteswap()
            return swapped.tobytes()
        return values.tobytes()
    column = array("q", values)
    if sys.byteorder == "big":
        column.byteswap()
    return column.tobytes()


def _unpack_int64(view: memoryview, offset: int,
                  count: int) -> array:
    """Read ``count`` little-endian int64 values starting at ``offset``.

    Returns the ``array('q')`` itself — **not** a boxed list.  The
    engine adopts it directly as column storage: ``array`` supports the
    same indexing/append/pop operations the mutation paths use, so the
    restore path skips the ``tolist`` boxing that used to dominate its
    profile.  The one place fixed-width storage could betray us —
    labels outgrowing int64 after further inserts — is guarded by the
    promotion hook in :meth:`CompactLTree._step`.
    """
    column = array("q")
    column.frombytes(view[offset:offset + 8 * count])
    if sys.byteorder == "big":
        column.byteswap()
    return column
