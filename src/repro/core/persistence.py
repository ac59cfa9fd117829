"""Persistence: L-Trees to and from plain label lists.

Paper §4.2's key observation — *"the base-(f+1) digits of num(v) provide
an encoding of all the ancestors of v ... all the structural information
of the L-Tree is implicit in the labels themselves"* — means a
materialized L-Tree can be serialized as nothing but its (label, payload)
pairs and rebuilt exactly:

* :func:`snapshot` captures a tree — node-object :class:`LTree` *or*
  array-backed :class:`repro.core.compact.CompactLTree` — as a JSON-able
  dict, validated eagerly so a snapshot that would later choke
  ``json.dumps`` (or fail parameter validation on restore) raises
  :class:`ParameterError` naming the offending field at snapshot time;
* :func:`restore` / :func:`ltree_from_labels` rebuild the identical
  node-object structure by decoding each label's digit path — **not** by
  re-running bulk load, so labels (and therefore any external references
  to them) are preserved bit-for-bit;
* :func:`restore_compact` / :func:`compact_from_labels` do the same
  decode onto the struct-of-arrays engine, so the two engines
  **cross-restore**: a snapshot taken from either engine reopens on
  either engine with identical labels.

Snapshot format versions
------------------------

``version: 1`` (current) — the label-only JSON dict produced here:
``{version, f, s, label_base, height, violator_policy,
entries:[{num, payload, deleted}]}`` (``violator_policy`` is optional
and defaults to ``"highest"``, the paper's Algorithm 1).  It stores no
structure and no slot layout; restore reconstructs both from the
labels.  The *other* on-disk format in this library is the
struct-of-arrays byte image (``LTREEARR``, version 1) written by
:meth:`repro.core.compact.CompactLTree.to_bytes`, which additionally
preserves the exact slot arena and free-list; see that module and
:mod:`repro.storage.pages` for the page-file framing (``LTPAGES``,
version 2).  The two formats are interchangeable for labels: a tree saved
in either reopens from the other with a byte-identical label sequence.

Round-trip identity is property-tested in
``tests/core/test_persistence.py`` and
``tests/core/test_compact_persistence.py``.
"""

from __future__ import annotations

import json
from typing import Any, Sequence, Union

from repro.core.compact import NIL, CompactLTree
from repro.core.ltree import LTree
from repro.core.node import LTreeNode
from repro.core.params import LTreeParams
from repro.core.stats import NULL_COUNTERS, Counters
from repro.errors import ParameterError

#: snapshot format version (bump on layout changes)
FORMAT_VERSION = 1

AnyLTree = Union[LTree, CompactLTree]


def snapshot(tree: AnyLTree, include_payloads: bool = True
             ) -> dict[str, Any]:
    """Serialize ``tree`` (either engine) to a JSON-able dict.

    Every entry is validated *now*: a payload ``json.dumps`` would choke
    on later raises :class:`ParameterError` immediately, naming the
    offending entry.  Pass ``include_payloads=False`` (payloads stored as
    ``None``) when payloads live elsewhere — e.g. a
    :class:`repro.labeling.scheme.LabeledDocument` re-derives them from
    its stored token columns on reopen.
    """
    entries = []
    if isinstance(tree, CompactLTree):
        for leaf in tree.iter_leaves():
            entries.append({
                "num": tree.num(leaf),
                "payload": tree.payload(leaf) if include_payloads
                else None,
                "deleted": tree.is_deleted(leaf),
            })
    else:
        for leaf in tree.iter_leaves():
            entries.append({
                "num": leaf.num,
                "payload": leaf.payload if include_payloads else None,
                "deleted": leaf.deleted,
            })
    data = {
        "version": FORMAT_VERSION,
        "f": tree.params.f,
        "s": tree.params.s,
        "label_base": tree.params.base,
        "height": tree.height,
        "violator_policy": tree.violator_policy,
        "entries": entries,
    }
    validate_snapshot(data)
    return data


def validate_snapshot(data: dict[str, Any],
                      check_payloads: bool = True) -> None:
    """Eagerly check a snapshot dict; raise ParameterError on the field.

    Checks what :func:`restore` would otherwise only trip over later —
    or what ``json.dumps`` would reject after the snapshot was already
    handed out: version, parameter consistency (including a
    ``label_base`` below the safe minimum its ``(f, s)`` derive), height,
    entry shape, and JSON-serializability of every payload.  The restore
    paths pass ``check_payloads=False``: a payload already parsed from
    (or about to stay in) memory needs no per-entry ``json.dumps``
    probe.
    """
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ParameterError(
            f"field 'version': unsupported snapshot version {version!r} "
            f"(supported: {FORMAT_VERSION})")
    for field in ("f", "s", "label_base", "height"):
        value = data.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterError(
                f"field {field!r}: expected an int, got {value!r}")
    try:
        params = LTreeParams(f=data["f"], s=data["s"],
                             label_base=data["label_base"])
    except ParameterError as exc:
        raise ParameterError(
            f"field 'label_base': {data['label_base']!r} is invalid for "
            f"f={data['f']}, s={data['s']} ({exc})") from None
    if data["height"] < 1:
        raise ParameterError(
            f"field 'height': must be >= 1, got {data['height']}")
    policy = data.get("violator_policy", "highest")
    if policy not in CompactLTree.POLICIES:
        raise ParameterError(
            f"field 'violator_policy': must be one of "
            f"{CompactLTree.POLICIES}, got {policy!r}")
    universe = params.label_space(data["height"])
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise ParameterError(
            f"field 'entries': expected a list, got {type(entries)}")
    previous = -1
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParameterError(
                f"field 'entries[{index}]': expected a dict, got "
                f"{type(entry)}")
        num = entry.get("num")
        if not isinstance(num, int) or isinstance(num, bool):
            raise ParameterError(
                f"field 'entries[{index}].num': expected an int, got "
                f"{num!r}")
        if num <= previous:
            raise ParameterError(
                f"field 'entries[{index}].num': labels must strictly "
                f"increase ({num} after {previous})")
        if num >= universe:
            raise ParameterError(
                f"field 'entries[{index}].num': label {num} outside the "
                f"universe of height {data['height']}")
        previous = num
        if not isinstance(entry.get("deleted"), bool):
            raise ParameterError(
                f"field 'entries[{index}].deleted': expected a bool, "
                f"got {entry.get('deleted')!r}")
    if check_payloads and entries:
        payloads = [entry.get("payload") for entry in entries]
        try:
            json.dumps(payloads)  # one bulk probe for the common case
        except (TypeError, ValueError):
            for index, payload in enumerate(payloads):
                try:
                    json.dumps(payload)
                except (TypeError, ValueError) as exc:
                    raise ParameterError(
                        f"field 'entries[{index}].payload': not "
                        f"JSON-serializable ({exc})") from None


def restore(data: dict[str, Any], stats: Counters = NULL_COUNTERS) -> LTree:
    """Rebuild the exact node-object tree captured by :func:`snapshot`."""
    validate_snapshot(data, check_payloads=False)
    params = LTreeParams(f=data["f"], s=data["s"],
                         label_base=data["label_base"])
    pairs = [(entry["num"], entry["payload"])
             for entry in data["entries"]]
    tree = ltree_from_labels(
        params, data["height"], pairs, stats=stats,
        violator_policy=data.get("violator_policy", "highest"))
    for entry, leaf in zip(data["entries"], tree.iter_leaves()):
        leaf.deleted = entry["deleted"]
    return tree


def restore_compact(data: dict[str, Any],
                    stats: Counters = NULL_COUNTERS) -> CompactLTree:
    """Rebuild a snapshot onto the array-backed engine.

    The cross-restore counterpart of :func:`restore`: the snapshot may
    come from either engine; the result carries byte-identical labels and
    the same structure (leaf counts included), so subsequent identical
    operations produce identical labels and costs on both engines.
    """
    validate_snapshot(data, check_payloads=False)
    params = LTreeParams(f=data["f"], s=data["s"],
                         label_base=data["label_base"])
    pairs = [(entry["num"], entry["payload"])
             for entry in data["entries"]]
    tree = compact_from_labels(
        params, data["height"], pairs, stats=stats,
        violator_policy=data.get("violator_policy", "highest"))
    for entry, leaf in zip(data["entries"], tree.iter_leaves()):
        if entry["deleted"]:
            tree._deleted[leaf] = 1
    return tree


def ltree_from_labels(params: LTreeParams, height: int,
                      pairs: Sequence[tuple[int, Any]],
                      stats: Counters = NULL_COUNTERS,
                      violator_policy: str = "highest") -> LTree:
    """Materialize the L-Tree whose leaves carry exactly ``pairs``.

    ``pairs`` must be sorted by label; each label is decoded into its
    digit path (child slot per level, most significant first) and the
    path's nodes are created on demand.  Because labels arrive sorted,
    construction is a single left-to-right sweep: at each level the next
    slot is either the current rightmost child (descend) or a brand-new
    sibling (extend).

    Raises :class:`ParameterError` on unsorted labels, labels outside
    the height's universe, or slot indices that no L-Tree could produce.
    """
    if height < 1:
        raise ParameterError(f"height must be >= 1, got {height}")
    tree = LTree(params, stats, violator_policy=violator_policy)
    root = LTreeNode(height=height)
    tree.root = root
    previous = -1
    for label, payload in pairs:
        if label <= previous:
            raise ParameterError(
                f"labels must be strictly increasing "
                f"({label} after {previous})")
        if label >= params.label_space(height):
            raise ParameterError(
                f"label {label} outside the universe of height {height}")
        previous = label
        _attach(tree, root, label, payload)
    _recount(root)
    return tree


def compact_from_labels(params: LTreeParams, height: int,
                        pairs: Sequence[tuple[int, Any]],
                        stats: Counters = NULL_COUNTERS,
                        violator_policy: str = "highest") -> CompactLTree:
    """:func:`ltree_from_labels` onto the struct-of-arrays engine.

    The same single left-to-right sweep over sorted labels, decoded via
    §4.2 digit paths, building parallel arrays instead of node objects.
    Rejects exactly the inputs the node-object decoder rejects.
    """
    if height < 1:
        raise ParameterError(f"height must be >= 1, got {height}")
    tree = CompactLTree(params, stats, violator_policy=violator_policy)
    tree._clear()
    root = tree._new_node(height)
    tree.root = root
    num = tree._num
    parent_arr = tree._parent
    first_child = tree._first_child
    next_sibling = tree._next_sibling
    #: per-node (last child slot id, last child index) — the sweep only
    #: ever touches the rightmost spine, so this stays height-sized hot
    tail: dict[int, tuple[int, int]] = {}
    previous = -1
    for label, payload in pairs:
        if label <= previous:
            raise ParameterError(
                f"labels must be strictly increasing "
                f"({label} after {previous})")
        if label >= params.label_space(height):
            raise ParameterError(
                f"label {label} outside the universe of height {height}")
        previous = label
        node = root
        offset = label
        created = False
        for level in range(height - 1, -1, -1):
            step = params.child_step(level)
            slot, offset = divmod(offset, step)
            if slot >= params.base:
                raise ParameterError(
                    f"label {label} uses child slot {slot} at height "
                    f"{level + 1}, beyond base {params.base}")
            last_child, last_index = tail.get(node, (NIL, -1))
            if slot < last_index:
                raise ParameterError(
                    f"label {label} revisits an earlier subtree (slot "
                    f"{slot} after {last_index}); labels are not from "
                    f"one L-Tree")
            if slot > last_index + 1:
                raise ParameterError(
                    f"label {label} skips child slots "
                    f"{last_index + 1}..{slot - 1} at height "
                    f"{level + 1}; labels are not from one L-Tree")
            if slot == last_index + 1:
                child = tree._new_node(level)
                parent_arr[child] = node
                num[child] = num[node] + slot * step
                if last_child == NIL:
                    first_child[node] = child
                else:
                    next_sibling[last_child] = child
                tail[node] = (child, slot)
                tree.stats.relabels += 1
                created = True
                node = child
            else:
                node = last_child
        if not created:
            raise ParameterError(f"duplicate label {label}")
        tree._payload[node] = payload
    _recount_compact(tree)
    return tree


def _attach(tree: LTree, root: LTreeNode, label: int, payload: Any) -> None:
    """Create the digit path of ``label`` under ``root``.

    Sorted labels sweep the tree left to right, so at every level the
    slot is either the current rightmost child (descend) or the next
    fresh slot (extend by one).  Anything else — a gap, a step backwards,
    a slot beyond the base — cannot come from one L-Tree and is rejected.
    """
    node = root
    offset = label
    created = False
    for level in range(root.height - 1, -1, -1):
        step = tree.params.child_step(level)
        slot, offset = divmod(offset, step)
        if slot >= tree.params.base:
            raise ParameterError(
                f"label {label} uses child slot {slot} at height "
                f"{level + 1}, beyond base {tree.params.base}")
        assert node.children is not None
        last = len(node.children) - 1
        if slot < last:
            raise ParameterError(
                f"label {label} revisits an earlier subtree (slot {slot} "
                f"after {last}); labels are not from one L-Tree")
        if slot > last + 1:
            raise ParameterError(
                f"label {label} skips child slots {last + 1}..{slot - 1} "
                f"at height {level + 1}; labels are not from one L-Tree")
        if slot == last + 1:
            child = LTreeNode(height=level)
            child.parent = node
            child.num = node.num + slot * step
            node.children.append(child)
            tree.stats.relabels += 1
            created = True
        node = node.children[slot]
    if not created:
        raise ParameterError(f"duplicate label {label}")
    node.payload = payload


def _recount(node: LTreeNode) -> int:
    """Recompute cached leaf counts bottom-up; returns the subtree's."""
    if node.is_leaf:
        node.leaf_count = 1
        return 1
    assert node.children is not None
    node.leaf_count = sum(_recount(child) for child in node.children)
    return node.leaf_count


def _recount_compact(tree: CompactLTree) -> None:
    """Recompute cached leaf counts bottom-up on the array engine."""
    height = tree._height
    first_child = tree._first_child
    next_sibling = tree._next_sibling
    leaf_count = tree._leaf_count
    order: list[int] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        order.append(node)
        child = first_child[node]
        while child != NIL:
            stack.append(child)
            child = next_sibling[child]
    for node in reversed(order):  # descendants before ancestors
        if height[node] == 0:
            leaf_count[node] = 1
        else:
            total = 0
            child = first_child[node]
            while child != NIL:
                total += leaf_count[child]
                child = next_sibling[child]
            leaf_count[node] = total
