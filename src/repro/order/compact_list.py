"""Compact (array-backed) L-Tree engines as ordered labeling schemes.

:class:`CompactEngineLabeling` is the shared adapter between the
:class:`repro.order.base.OrderedLabeling` interface and any engine with
the :class:`repro.core.compact.CompactLTree` surface — handles from the
engine, labels from its (dynamic) ``num`` values, mark-only deletion,
native §4.1 run inserts, byte-image persistence through a page store.
Two engines plug in today:

* :class:`CompactListLabeling` (``ltree-compact``) over the flat
  :class:`~repro.core.compact.CompactLTree` — label- and cost-equivalent
  to the node-object ``ltree`` scheme (see
  ``tests/core/test_compact_differential.py``), so benchmarks comparing
  the two measure the engine layout alone;
* :class:`repro.order.sharded_list.ShardedListLabeling`
  (``ltree-sharded``) over the per-subtree arenas of
  :class:`~repro.core.sharded.ShardedCompactLTree`.

The adapter methods (and the save/load/_wrap machinery) live here once;
the subclasses only choose the engine and forward its extra knobs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence, Type

from repro.core.compact import CompactLTree
from repro.core.params import DEFAULT_PARAMS, LTreeParams
from repro.core.stats import NULL_COUNTERS, Counters
from repro.errors import StorageError
from repro.order.base import OrderedLabeling


@contextmanager
def sync_override(store: Any, sync: Optional[bool]) -> Iterator[None]:
    """Temporarily force a store's fsync-barrier discipline.

    ``sync=None`` leaves the store as opened.  ``True``/``False``
    overrides the store's ``sync`` attribute (the knob
    :class:`repro.storage.pages.PageStore` exposes) for the duration —
    how a *caller of save()* opts into power-loss durability for one
    save without owning the store's construction.  Asking for
    ``sync=True`` on a store that has no such discipline raises
    :class:`~repro.errors.StorageError` instead of silently degrading
    the durability the caller requested.
    """
    if sync is None:
        yield
        return
    if not hasattr(store, "sync"):
        if sync:
            raise StorageError(
                f"{type(store).__name__} has no sync attribute; cannot "
                f"honor sync=True (use repro.storage.pages.PageStore)")
        yield
        return
    previous = store.sync
    store.sync = bool(sync)
    try:
        yield
    finally:
        store.sync = previous


class CompactEngineLabeling(OrderedLabeling):
    """Order maintenance over a compact (array-backed) L-Tree engine.

    Subclasses set :attr:`ENGINE` to the engine class and may forward
    engine-specific constructor keywords through ``engine_kwargs``.
    """

    #: engine class this adapter instantiates and restores
    ENGINE: Type = CompactLTree

    def __init__(self, params: LTreeParams = DEFAULT_PARAMS,
                 stats: Counters = NULL_COUNTERS, **engine_kwargs: Any):
        super().__init__(stats)
        self.params = params
        self.tree = self.ENGINE(params, stats, **engine_kwargs)
        self._live = 0

    def bulk_load(self, payloads: Sequence[Any],
                  **engine_kwargs: Any) -> list[Any]:
        """Engine bulk load; extra keywords go to engines that take
        them (the sharded engine's ``boundaries=``)."""
        handles = self.tree.bulk_load(payloads, **engine_kwargs)
        self._live = len(handles)
        return handles

    def insert_after(self, handle: Any, payload: Any) -> Any:
        self._live += 1
        return self.tree.insert_after(handle, payload)

    def insert_before(self, handle: Any, payload: Any) -> Any:
        self._live += 1
        return self.tree.insert_before(handle, payload)

    def append(self, payload: Any) -> Any:
        self._live += 1
        return self.tree.append(payload)

    def prepend(self, payload: Any) -> Any:
        self._live += 1
        return self.tree.prepend(payload)

    def insert_run_after(self, handle: Any,
                         payloads: Sequence[Any]) -> list[Any]:
        """Native batch insertion (paper §4.1): one rebalance per run."""
        handles = self.tree.insert_run_after(handle, payloads)
        self._live += len(handles)
        return handles

    def insert_run_before(self, handle: Any,
                          payloads: Sequence[Any]) -> list[Any]:
        """Native batch insertion before ``handle`` (paper §4.1)."""
        handles = self.tree.insert_run_before(handle, payloads)
        self._live += len(handles)
        return handles

    def delete(self, handle: Any) -> None:
        """Mark-only deletion (paper §2.3) — never relabels."""
        if self.tree.is_deleted(handle):
            raise ValueError("handle refers to a deleted item")
        self.tree.mark_deleted(handle)
        self._live -= 1

    def label(self, handle: Any) -> int:
        if self.tree.is_deleted(handle):
            raise ValueError("handle refers to a deleted item")
        return self.tree.num(handle)

    def payload(self, handle: Any) -> Any:
        if self.tree.is_deleted(handle):
            raise ValueError("handle refers to a deleted item")
        return self.tree.payload(handle)

    def handles(self) -> Iterator[Any]:
        return self.tree.iter_leaves(include_deleted=False)

    def __len__(self) -> int:
        return self._live

    # -- persistence -----------------------------------------------------
    def save(self, store: Any, name: str = "scheme",
             include_payloads: bool = True,
             sync: Optional[bool] = None) -> None:
        """Persist the engine state under blob ``name`` of a page store.

        The engine's byte image(s) — tombstones and free-list included —
        go to ``store`` (canonically a
        :class:`repro.storage.pages.PageStore`) so :meth:`load` reopens
        a scheme whose labels, counters and future splits are identical
        to this one's.

        ``sync=True`` brackets the store's catalog flips with fsync
        barriers for the duration of this save (see
        :func:`sync_override`), so the saved image is durable against
        power loss, not only process crashes, without reopening the
        store; ``None`` (default) keeps whatever discipline the store
        was opened with.
        """
        with sync_override(store, sync):
            self.tree.save(store, name, include_payloads=include_payloads)

    @classmethod
    def load(cls, store: Any, name: str = "scheme",
             stats: Counters = NULL_COUNTERS, prefer_mmap: bool = True,
             **engine_kwargs: Any) -> "CompactEngineLabeling":
        """Reopen a scheme saved by :meth:`save` from a page store."""
        tree = cls.ENGINE.load(store, name, stats=stats,
                               prefer_mmap=prefer_mmap, **engine_kwargs)
        return cls._wrap(tree, stats)

    @classmethod
    def _wrap(cls, tree: Any, stats: Counters) -> "CompactEngineLabeling":
        """Adopt an already-built engine (restore paths)."""
        scheme = cls.__new__(cls)
        OrderedLabeling.__init__(scheme, stats)
        scheme.params = tree.params
        scheme.tree = tree
        scheme._live = tree.n_leaves - tree.tombstone_count()
        return scheme


class CompactListLabeling(CompactEngineLabeling):
    """Order maintenance backed by the flat array-backed L-Tree engine."""

    name = "ltree-compact"

    ENGINE = CompactLTree
