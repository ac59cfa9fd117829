"""Batch label arithmetic for the compact engine (numpy-gated).

The struct-of-arrays layout of :class:`repro.core.compact.CompactLTree`
makes its hot paths — bulk load, subtree relabeling, the §4.1 run-insert
rebuild — pure arithmetic over flat integer columns: the leaf labels of a
complete ``b``-ary tree are ``spread_digits(i)`` for consecutive ``i``,
every internal level is a stride-``b`` slice of the level below, and the
parent / first-child / next-sibling links of a left-complete tree follow
closed-form index formulas.  This module computes those columns in bulk
instead of one slot at a time.

Two interchangeable backends implement the arithmetic:

``numpy``
    int64 ndarray passes — the fast path, selected automatically when
    numpy is importable.  Falls back to the pure-Python path for any
    single call whose labels could overflow int64 (deep trees with a
    large ``label_base``), so results are always exact.
``array``
    pure-Python batch passes: C-level list repetition, ``range`` strides
    and slice assignment over the same flat integer columns the engine
    serializes as ``array('q')``.  Always available; this is the
    guaranteed-correct fallback when numpy is absent.

The backend is numpy when importable, else array.  Tests and benchmarks
override it at runtime with :func:`set_backend` or the
:func:`use_backend` context manager; the engine re-reads the selection on
every bulk operation, so an override takes effect immediately.  The
per-node reference :class:`repro.core.ltree.LTree` is the oracle both
backends are tested against.

The same columns also answer the reverse question without a tree walk:
:func:`leaf_order` reads document order straight off the label and
height columns (labels spell the leaf order, paper §4.2), and
:func:`gather_bytes` / :func:`slot_ranks` are the gathers a shard split
or merge builds its successor arenas and forwarding entries from.
"""

from __future__ import annotations

import operator
from array import array
from contextlib import contextmanager
from itertools import compress
from typing import Iterator, NamedTuple, Optional, Sequence

from repro.errors import ParameterError

try:  # gated dependency: everything here must work without numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: True when the numpy backend can be selected in this interpreter.
HAS_NUMPY = _np is not None

#: recognised backend names (see module docstring)
BACKENDS = ("numpy", "array")

#: sentinel slot id meaning "no node" (mirrors repro.core.compact.NIL)
NIL = -1

#: largest label magnitude the numpy backend accepts; anything bigger is
#: routed to the exact pure-Python path (int64 would overflow silently)
_INT64_SAFE = 2 ** 62


def _resolve(name: str) -> str:
    """Validate a backend name, resolving ``auto``."""
    if name == "auto":
        return "numpy" if HAS_NUMPY else "array"
    if name not in BACKENDS:
        raise ParameterError(
            f"unknown vector backend {name!r}; known: "
            f"{', '.join(BACKENDS)} (or 'auto')")
    if name == "numpy" and not HAS_NUMPY:
        raise ParameterError(
            "vector backend 'numpy' requested but numpy is not "
            "importable; install numpy or use 'array'")
    return name


_active = _resolve("auto")


def get_backend() -> str:
    """The currently active backend name."""
    return _active


def set_backend(name: str) -> str:
    """Switch the active backend; returns the previous one.

    Accepts ``auto`` (numpy when importable, else array).  Raises
    :class:`ParameterError` for unknown names or ``numpy`` without numpy.
    """
    global _active
    previous = _active
    _active = _resolve(name)
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Context manager pinning the backend for a test or benchmark."""
    previous = set_backend(name)
    try:
        yield _active
    finally:
        set_backend(previous)


class BulkColumns(NamedTuple):
    """The complete struct-of-arrays image of a left-complete tree.

    Leaves occupy slots ``0..n-1`` in list order, internal nodes follow
    level by level bottom-up, the root is the last slot.  Every node's
    label, height, leaf count and children equal those of the same node
    in :meth:`repro.core.ltree.LTree.bulk_load`'s tree.
    """

    num: list[int]
    heights: list[int]
    leaf_counts: list[int]
    parents: list[int]
    first_children: list[int]
    next_siblings: list[int]
    root: int
    total: int


def complete_leaf_offsets(n: int, arity: int, base: int,
                          height: int) -> list[int]:
    """Label offsets of the first ``n`` leaves of a complete tree.

    Equals ``[spread_digits(i, arity, base, height) for i in range(n)]``
    (see :func:`repro.core.params.spread_digits`) computed as whole-level
    expansions: the offsets of ``b**(k+1)`` leaves are ``b`` shifted
    copies of the offsets of ``b**k`` leaves.  Total work is O(n).
    """
    if n <= 0:
        return []
    if _active == "numpy" and base ** height <= _INT64_SAFE:
        return _offsets_numpy(n, arity, base).tolist()
    return _offsets_py(n, arity, base)


def _offsets_py(n: int, arity: int, base: int) -> list[int]:
    offsets = [0]
    step = 1  # base**k: label distance between adjacent blocks
    size = 1  # arity**k: leaves covered by one block
    while size < n:
        blocks = min(arity, -(-n // size))  # only the top level is partial
        offsets = [shift + offset
                   for shift in range(0, blocks * step, step)
                   for offset in offsets]
        step *= base
        size *= blocks
    del offsets[n:]
    return offsets


def _offsets_numpy(n: int, arity: int, base: int):
    offsets = _np.zeros(1, dtype=_np.int64)
    step = 1
    size = 1
    while size < n:
        blocks = min(arity, -(-n // size))
        shifts = _np.arange(blocks, dtype=_np.int64) * step
        offsets = (shifts[:, None] + offsets[None, :]).ravel()
        step *= base
        size *= blocks
    return offsets[:n]


def left_complete_columns(n: int, arity: int, base: int,
                          height: int) -> BulkColumns:
    """All six node columns of a left-complete ``arity``-ary tree.

    ``n`` leaves, ``height`` internal levels (``height >= 1``; callers
    pass ``LTreeParams.height_for(n)``).  Labels are computed with radix
    ``base``.  Dispatches on the active backend.
    """
    if n < 1 or height < 1:
        raise ParameterError(
            f"left_complete_columns needs n >= 1 and height >= 1, got "
            f"n={n}, height={height}")
    if arity ** height < n:
        raise ParameterError(
            f"{n} leaves do not fit height {height} "
            f"(capacity {arity ** height})")
    if _active == "numpy" and base ** height <= _INT64_SAFE:
        return _columns_numpy(n, arity, base, height)
    return _columns_py(n, arity, base, height)


def _columns_py(n: int, arity: int, base: int, height: int) -> BulkColumns:
    # leaf level: slots 0..n-1
    num = _offsets_py(n, arity, base)
    heights = [0] * n
    leaf_counts = [1] * n
    first_children = [NIL] * n
    parents: list[int] = []
    next_siblings: list[int] = []

    level_num = num  # labels of the level under construction's children
    m_prev, off_prev = n, 0
    for level in range(1, height + 1):
        m = -(-m_prev // arity)
        off = off_prev + m_prev          # first slot of this level
        off_next = off + m               # first slot of the level above
        # links of the previous level now that this level's slots exist
        _extend_parents(parents, m_prev, arity, off)
        _extend_siblings(next_siblings, m_prev, arity, off_prev)
        # labels: each node inherits its first child's label
        level_num = level_num[::arity]
        num.extend(level_num)
        heights.extend([level] * m)
        cap = arity ** level
        full, rem = divmod(n, cap)
        leaf_counts.extend([cap] * full)
        if rem:
            leaf_counts.append(rem)
        first_children.extend(range(off_prev, off_prev + m * arity, arity))
        m_prev, off_prev = m, off
    assert m_prev == 1, "left-complete chain must end at a single root"
    parents.append(NIL)
    next_siblings.append(NIL)
    total = off_prev + 1
    return BulkColumns(num, heights, leaf_counts, parents, first_children,
                       next_siblings, root=total - 1, total=total)


def _extend_parents(parents: list[int], m: int, arity: int,
                    parent_off: int) -> None:
    """Append the parent links of an ``m``-node level (groups of
    ``arity`` consecutive children share one parent slot)."""
    extend = parents.extend
    full, rem = divmod(m, arity)
    slot = parent_off
    for _ in range(full):
        extend((slot,) * arity)
        slot += 1
    if rem:
        extend((slot,) * rem)


def _extend_siblings(next_siblings: list[int], m: int, arity: int,
                     off: int) -> None:
    """Append the sibling links of an ``m``-node level starting at slot
    ``off``: consecutive slots chain, breaking at every ``arity``
    boundary and at the end of the level."""
    links = list(range(off + 1, off + m))
    links.append(NIL)
    links[arity - 1::arity] = [NIL] * len(range(arity - 1, m, arity))
    next_siblings.extend(links)


def _columns_numpy(n: int, arity: int, base: int,
                   height: int) -> BulkColumns:
    np = _np
    num_parts = [_offsets_numpy(n, arity, base)]
    height_parts = [np.zeros(n, dtype=np.int64)]
    leaf_parts = [np.ones(n, dtype=np.int64)]
    parent_parts = []
    first_parts = [np.full(n, NIL, dtype=np.int64)]
    sibling_parts = []

    m_prev, off_prev = n, 0
    for level in range(1, height + 1):
        m = -(-m_prev // arity)
        off = off_prev + m_prev
        prev_idx = np.arange(m_prev, dtype=np.int64)
        parent_parts.append(off + prev_idx // arity)
        siblings = off_prev + prev_idx + 1
        siblings[arity - 1::arity] = NIL
        siblings[m_prev - 1] = NIL
        sibling_parts.append(siblings)

        idx = np.arange(m, dtype=np.int64)
        num_parts.append(num_parts[-1][::arity])
        height_parts.append(np.full(m, level, dtype=np.int64))
        cap = arity ** level
        counts = np.full(m, cap, dtype=np.int64)
        counts[m - 1] = n - (m - 1) * cap
        leaf_parts.append(counts)
        first_parts.append(off_prev + idx * arity)
        m_prev, off_prev = m, off
    assert m_prev == 1, "left-complete chain must end at a single root"
    root_link = np.full(1, NIL, dtype=np.int64)
    parent_parts.append(root_link)
    sibling_parts.append(root_link)
    total = off_prev + 1
    return BulkColumns(
        np.concatenate(num_parts).tolist(),
        np.concatenate(height_parts).tolist(),
        np.concatenate(leaf_parts).tolist(),
        np.concatenate(parent_parts).tolist(),
        np.concatenate(first_parts).tolist(),
        np.concatenate(sibling_parts).tolist(),
        root=total - 1, total=total)


def leaf_order(num: Sequence[int], height: Sequence[int],
               deleted: Optional[Sequence[int]] = None) -> Sequence[int]:
    """Leaf slots in document order, read off the columns alone.

    Leaves are the slots of height 0 — a freed slot is always internal
    and keeps its height — and leaf labels strictly increase in
    document order, so sorting the leaf slots by label *is* the order a
    tree walk yields.  ``num`` and ``height`` are slot-indexed int
    columns: a live engine's lists or ``array('q')`` columns decoded
    from an ``LTREEARR`` image.  With ``deleted`` (the tombstone byte
    column) only live leaves are returned.

    numpy: one ``argsort``, returned as an ``array('q')``; array: one
    C-level ``sorted`` over ``itertools.compress``, returned as a list.
    Labels beyond int64 take the exact array path.
    """
    if _active == "numpy":
        try:
            return _leaf_order_numpy(num, height, deleted)
        except OverflowError:
            pass
    if deleted is None:
        leaves = map(operator.not_, height)
    else:
        leaves = map(operator.not_, map(operator.or_, height, deleted))
    return sorted(compress(range(len(height)), leaves),
                  key=num.__getitem__)


def _int64(column: Sequence[int]):
    """``column`` as an int64 ndarray: a view of an ``array('q')``, a
    copy of a list (raises ``OverflowError`` past int64)."""
    if isinstance(column, array):
        return _np.frombuffer(column, dtype=_np.int64)
    return _np.fromiter(column, dtype=_np.int64, count=len(column))


def _leaf_order_numpy(num: Sequence[int], height: Sequence[int],
                      deleted: Optional[Sequence[int]]) -> array:
    np = _np
    mask = _int64(height) == 0
    if deleted is not None:
        mask &= np.frombuffer(deleted, dtype=np.uint8) == 0
    slots = np.flatnonzero(mask)
    order = slots[np.argsort(_int64(num)[slots])]
    return array("q", order.astype(np.int64).tobytes())


def gather_bytes(column: Sequence[int], order: Sequence[int]) -> bytes:
    """``bytes(column[slot] for slot in order)`` over a byte column
    (a run's tombstone marks)."""
    if _active == "numpy":
        return _np.frombuffer(column, dtype=_np.uint8)[
            _int64(order)].tobytes()
    return bytes(map(column.__getitem__, order))


def slot_ranks(order: Sequence[int], n_slots: int,
               start: int = 0) -> array:
    """The slot-indexed inverse of ``order``.

    ``ranks[order[k]] == start + k``; every slot ``order`` does not name
    holds -1.  An ``array('q')`` of ``n_slots`` entries on both
    backends.
    """
    if _active == "numpy":
        ranks = _np.full(n_slots, -1, dtype=_np.int64)
        ranks[_int64(order)] = _np.arange(start, start + len(order),
                                          dtype=_np.int64)
        return array("q", ranks.tobytes())
    ranks = array("q", [-1]) * n_slots
    for rank, slot in enumerate(order, start):
        ranks[slot] = rank
    return ranks
