"""Thread-safe wrapper over the sharded L-Tree engine.

:class:`ConcurrentLTree` exposes the same surface as
:class:`repro.core.sharded.ShardedCompactLTree` (so the
``ltree-sharded`` scheme adapter and the document layer run over it
unchanged) and makes it safe to share between threads:

* **one writer mutex** — every access to the live engine (routed
  updates and point reads, multi-shard reads, the snapshot pin,
  ``bulk_load`` / ``compact`` / ``save`` / ``validate``, each
  split/merge) holds one mutex, which serves waiting threads in
  arrival order (:class:`_FifoLock`).  Under the GIL, writers on
  different shards could only overlap in IO that releases it, and the
  WAL fsync of ``ConcurrentDocument.commit`` already runs outside the
  mutex.  An update and the stride bump it may cause share one hold,
  so the engine grows its directory inline, exactly as it does
  single-threaded;
* **lock-free snapshot reads** — :meth:`snapshot` pins, per shard,
  copies of the three columns a label read needs: labels, heights and
  tombstones (:meth:`~repro.core.sharded.ShardedCompactLTree.pin_shard`),
  17 bytes per slot for int64 columns.  A whole ``to_bytes`` image is
  49 bytes per slot plus 8 per free slot, and ``to_bytes`` copies it
  twice: once into pieces, then in the join.  The pinned shard is
  cached under the engine's per-shard write version, so an unchanged
  shard is pinned for free and a written one costs three column
  copies — no packing, no leaf walk, no tombstone scan.  Only the pin
  takes the mutex; the resulting :class:`LabelSnapshot` answers
  label / order / containment queries against live writers without
  taking any lock.

**Online rebalancing.**  :meth:`split_shard` / :meth:`merge_shards`
hold the mutex for the whole action and journal a logical
``split``/``merge`` record *before* the engine installs the new
directory epoch (so the WAL tape can never order an op on a new shard
ahead of its creation).  A writer whose handle names a retired shard
routes through the engine's forwarding table to its successor.  A
pinned :class:`LabelSnapshot` is entirely unaffected: it holds its own
directory cut (ids, positions, stride, pinned columns) plus the
grow-only forwarding table, so a rebalance committing under it changes
nothing it can observe.

An optional ``journal`` callable receives one dict per successful
mutation *while the mutex is still held*, so the journal's record order
equals the engine's apply order — the property that makes a serial
replay of the tape deterministic (see :mod:`repro.concurrent.service`,
which plugs the write-ahead log in here).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.obs import METRICS, TRACER
from repro.core.params import LTreeParams
from repro.core.sharded import (RebalancePolicy, _Shard,
                                ShardedCompactLTree, forward)
from repro.core.stats import NULL_COUNTERS, Counters
from repro.storage.faults import FAILPOINTS, failpoint

# the enumerable crash surface of this module (see repro.storage.faults)
FAILPOINTS.declare("concurrent:split:post-journal",
                   "split record journaled, new epoch not yet visible")
FAILPOINTS.declare("concurrent:merge:post-journal",
                   "merge record journaled, new epoch not yet visible")


class LabelSnapshot:
    """An immutable label view pinned from per-shard column copies.

    Holds one pinned :class:`~repro.core.sharded._Shard` per shard —
    the structure, and the read path, the shard-lazy reopen path uses —
    plus its own cut of the shard directory: the id order, positions
    and stride at pin time, and a reference to the engine's grow-only
    forwarding table.  Every query below runs against those frozen
    columns: no locks, no interaction with live writers, and two
    snapshots with equal :attr:`epoch` are guaranteed bit-identical.
    A rebalance committing *after* the pin is invisible — the snapshot
    keeps composing from its own directory cut — while handles minted
    *before* the pin keep resolving through the forwarding table even
    if their shard was rebalanced away pre-pin.

    **What a pin pays for.**  Labels alone give document order and
    region containment, so a pinned shard holds copies of three
    columns — labels, heights and tombstones, in the form the engine
    holds them (``array('q')`` or exact-int lists) — and no parent,
    child, sibling or leaf-count link and no free list.  Snapshots of
    one shard version share one pinned shard object and its live-leaf
    list.  A shard written since the previous pin carries only its
    column copies; its live list is derived from them (one sort of the
    live leaf slots by label, no tree walk) on the first
    :meth:`handles`, :meth:`labels` or :meth:`label_map` read — outside
    the writer mutex, and never on the columnar query path, which reads
    only label columns.  :attr:`n_live` comes from the pinned leaf and
    tombstone counts.
    """

    __slots__ = ("params", "stride", "epoch", "ids", "_positions",
                 "_shards", "_forwarding")

    def __init__(self, params: LTreeParams, stride: int,
                 ids: Sequence[int], shards: list[_Shard],
                 forwarding: dict[int, tuple], epoch: tuple):
        self.params = params
        self.stride = stride
        #: (directory epoch, (shard id, write version)...) at pin time
        #: (equal epochs ⇒ bit-identical snapshots)
        self.epoch = epoch
        #: shard ids in document order at pin time
        self.ids = tuple(ids)
        self._positions = {sid: pos for pos, sid in enumerate(self.ids)}
        self._shards = shards
        self._forwarding = forwarding

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_versions(self) -> dict[int, int]:
        """``shard id -> write version`` of the pinned membership.

        The per-shard half of :attr:`epoch`, as a mapping — the key the
        incremental :class:`~repro.query.columnar.ColumnarStore` re-pin
        caches each extracted column segment under.
        """
        return dict(self.epoch[1:])

    def resolve(self, handle: tuple[int, int]) -> tuple[int, int]:
        """The pin-time ``(shard_id, slot)`` a handle denotes.

        Chases the forwarding table (:func:`~repro.core.sharded.forward`)
        until the id lands in the pinned membership — entries added by
        rebalances *after* the pin are never followed, because
        resolution stops the moment the id is one of ours (the
        grow-only table of immutable entries is safely shared with the
        live engine for exactly this reason).
        """
        return forward(self._forwarding, self._positions, handle)

    def _shard_of(self, handle: tuple[int, int]
                  ) -> tuple[int, _Shard, int]:
        sid, slot = self.resolve(handle)
        return self._positions[sid], self._shards[self._positions[sid]], \
            slot

    def _position(self, shard_id: int) -> int:
        position = self._positions.get(shard_id)
        if position is None:
            raise ValueError(f"no shard with id {shard_id} in this "
                             f"snapshot")
        return position

    def shard_prefix(self, shard_id: int) -> int:
        """Global-label prefix of one pinned shard id."""
        return self._position(shard_id) * self.stride

    def label(self, handle: tuple[int, int]) -> int:
        """Global label of a live handle at pin time."""
        position, shard, slot = self._shard_of(handle)
        if shard.is_deleted(slot):
            raise ValueError("handle refers to a deleted item")
        return position * self.stride + shard.num(slot)

    def is_deleted(self, handle: tuple[int, int]) -> bool:
        _position, shard, slot = self._shard_of(handle)
        return shard.is_deleted(slot)

    def handles(self) -> Iterator[tuple[int, int]]:
        """Live handles in document order at pin time."""
        for sid, shard in zip(self.ids, self._shards):
            for slot in shard.live_slots():
                yield (sid, slot)

    def labels(self) -> list[int]:
        """Live labels in document order (strictly increasing)."""
        out: list[int] = []
        for position, shard in enumerate(self._shards):
            prefix = position * self.stride
            num = shard.num_column()
            out.extend(prefix + num[slot] for slot in shard.live_slots())
        return out

    def label_map(self) -> dict[tuple[int, int], int]:
        mapping: dict[tuple[int, int], int] = {}
        for position, (sid, shard) in enumerate(zip(self.ids,
                                                    self._shards)):
            prefix = position * self.stride
            num = shard.num_column()
            mapping.update(((sid, slot), prefix + num[slot])
                           for slot in shard.live_slots())
        return mapping

    def label_column(self, shard_id: int) -> Sequence[int]:
        """The slot-indexed local label column of one pinned shard.

        The columnar query engine's bulk-input hook: the pinned label
        column itself, returned without a copy or a decode and shared
        by every snapshot of the same shard version — so a query
        extracts every label it needs in one pass per shard instead of
        one :meth:`label` call per node.  It is an ``array('q')`` or,
        for a shard the engine holds as lists, a list of exact ints
        (labels past int64 included).  Compose the global label of
        ``slot`` as ``shard_prefix(shard_id) + column[slot]``.  Like
        every other read on this object, this takes no locks and never
        touches the live engine.
        """
        return self._shards[self._position(shard_id)].num_column()

    def precedes(self, first: tuple[int, int],
                 second: tuple[int, int]) -> bool:
        """Document order of two live handles, labels only."""
        return self.label(first) < self.label(second)

    def contains(self, outer: tuple[tuple[int, int], tuple[int, int]],
                 inner: tuple[tuple[int, int], tuple[int, int]]) -> bool:
        """Region containment of two (begin, end) handle pairs —
        the paper's ancestor test, answered entirely off the pinned
        label columns."""
        outer_begin, outer_end = outer
        inner_begin, inner_end = inner
        return self.label(outer_begin) < self.label(inner_begin) and \
            self.label(inner_end) < self.label(outer_end)

    @property
    def n_live(self) -> int:
        return sum(shard.n_leaves - shard.tombstone_count()
                   for shard in self._shards)

    def __repr__(self) -> str:
        return (f"LabelSnapshot(shards={len(self._shards)}, "
                f"stride={self.stride}, epoch={self.epoch})")


class _FifoLock:
    """The writer mutex: a lock that serves blocked threads in arrival
    order.

    A plain ``threading.Lock`` starves its waiters under the GIL: a
    thread blocked in ``acquire`` sleeps in the kernel, while the
    thread that just released the lock still holds the GIL and takes
    the lock back long before the sleeper runs — one busy writer keeps
    it for its whole burst while every other writer, and a rebalancer,
    waits.  Here an uncontended acquire costs one ``_guard`` round
    trip, and a release with threads waiting hands the lock straight to
    the longest waiter, each parked on its own gate.  Not reentrant.
    """

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._held = False
        self._gates: deque[threading.Lock] = deque()

    def __enter__(self) -> None:
        with self._guard:
            if not self._held:
                self._held = True
                return
            gate = threading.Lock()
            gate.acquire()
            self._gates.append(gate)
        try:
            gate.acquire()      # released by the owner handing over
        except BaseException:
            with self._guard:
                if gate in self._gates:
                    self._gates.remove(gate)
                    raise
            self.__exit__()     # handed over meanwhile: pass it on
            raise

    def __exit__(self, *exc_info: object) -> None:
        with self._guard:
            if self._gates:
                self._gates.popleft().release()
            else:
                self._held = False


@contextmanager
def _timed(lock: _FifoLock) -> Iterator[None]:
    """Hold ``lock``, recording the acquire's wait in
    ``engine.lock_wait.seconds``."""
    start = time.perf_counter()
    with lock:
        METRICS.observe("engine.lock_wait.seconds",
                        time.perf_counter() - start)
        yield


class ConcurrentLTree:
    """Mutex-guarded, snapshot-readable sharded engine (module doc).

    Parameters
    ----------
    engine:
        The sharded engine to guard.  It is adopted: direct use of the
        raw engine afterwards bypasses the mutex.
    journal:
        Optional callable receiving one op dict per successful
        mutation, invoked under the mutex.
    """

    def __init__(self, engine: ShardedCompactLTree,
                 journal: Optional[Callable[[dict], Any]] = None):
        self._engine = engine
        self._journal = journal
        #: the writer mutex every live-engine access holds (not
        #: reentrant — see :meth:`exclusive`)
        self._lock = _FifoLock()
        #: shard id -> labeled writes applied; always on (one dict
        #: increment under the already-held mutex) because
        #: workload-aware rebalancing reads it — see :meth:`write_counts`
        self._write_counts: dict[int, int] = dict.fromkeys(
            engine.shard_ids, 0)
        #: shard id -> (write version, pinned shard): every snapshot of
        #: one shard version shares the pinned shard and its live list
        self._pin_cache: dict[int, tuple[int, _Shard]] = {}
        #: test seam: called at named points inside split/merge while
        #: the mutex is held (e.g. ``("split:locked", shard_id)``) — the
        #: rebalance tests park an action here to freeze it mid-flight
        self.rebalance_hook: Optional[Callable[..., Any]] = None

    def _locked(self):
        """The mutex as a context manager; while metrics are on its
        acquire wait feeds ``engine.lock_wait.seconds``."""
        if METRICS.enabled:
            return _timed(self._lock)
        return self._lock

    # ------------------------------------------------------------------
    # engine passthrough metadata
    # ------------------------------------------------------------------
    @property
    def engine(self) -> ShardedCompactLTree:
        """The wrapped engine (unguarded access; callers beware)."""
        return self._engine

    @property
    def params(self) -> LTreeParams:
        return self._engine.params

    @property
    def stats(self) -> Counters:
        return self._engine.stats

    @property
    def violator_policy(self) -> str:
        return self._engine.violator_policy

    @property
    def n_shards(self) -> int:
        return self._engine.n_shards

    @property
    def shard_count(self) -> int:
        return self._engine.shard_count

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return self._engine.shard_ids

    @property
    def epoch(self) -> int:
        return self._engine.epoch

    @property
    def shard_counters(self) -> list[Counters]:
        return self._engine.shard_counters

    @property
    def materialized_shards(self) -> list[int]:
        return self._engine.materialized_shards

    @property
    def stride(self) -> int:
        return self._engine.stride

    @property
    def directory_height(self) -> int:
        return self._engine.directory_height

    @property
    def directory_rebuilds(self) -> int:
        return self._engine.directory_rebuilds

    @property
    def shard_splits(self) -> int:
        return self._engine.shard_splits

    @property
    def shard_merges(self) -> int:
        return self._engine.shard_merges

    @property
    def label_space(self) -> int:
        return self._engine.label_space

    @property
    def n_leaves(self) -> int:
        with self._locked():
            return self._engine.n_leaves

    def tombstone_count(self) -> int:
        with self._locked():
            return self._engine.tombstone_count()

    def has_shard(self, shard_id: int) -> bool:
        return self._engine.has_shard(shard_id)

    def resolve_handle(self, handle: tuple[int, int]) -> tuple[int, int]:
        """Current-epoch resolution of a possibly pre-rebalance handle."""
        return self._engine.resolve_handle(handle)

    def shard_report(self) -> list[dict]:
        """Per-shard occupancy rows under a consistent read cut."""
        with self._locked():
            return self._engine.shard_report()

    def shard_versions(self) -> dict[int, int]:
        """``shard id -> write version`` under a consistent read cut —
        the counters :meth:`snapshot` epochs are built from."""
        with self._locked():
            return self._engine.shard_versions()

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _after_write(self, shard_id: int, op: dict) -> None:
        """Write count and journal record of one update (the caller
        holds the mutex; the engine bumped the shard's version)."""
        self._write_counts[shard_id] += 1
        if self._journal is not None:
            self._journal(op)

    def insert_after(self, handle: tuple[int, int],
                     payload: Any) -> tuple[int, int]:
        with self._locked():
            resolved = self._engine.resolve_handle(handle)
            leaf = self._engine.insert_after(resolved, payload)
            self._after_write(resolved[0], {"op": "insert_after",
                                            "h": list(resolved),
                                            "p": payload})
            return leaf

    def insert_before(self, handle: tuple[int, int],
                      payload: Any) -> tuple[int, int]:
        with self._locked():
            resolved = self._engine.resolve_handle(handle)
            leaf = self._engine.insert_before(resolved, payload)
            self._after_write(resolved[0], {"op": "insert_before",
                                            "h": list(resolved),
                                            "p": payload})
            return leaf

    def append(self, payload: Any) -> tuple[int, int]:
        with self._locked():
            leaf = self._engine.append(payload)
            self._after_write(leaf[0], {"op": "append", "p": payload})
            return leaf

    def prepend(self, payload: Any) -> tuple[int, int]:
        with self._locked():
            leaf = self._engine.prepend(payload)
            self._after_write(leaf[0], {"op": "prepend", "p": payload})
            return leaf

    def insert_run_after(self, handle: tuple[int, int],
                         payloads: Sequence[Any]) -> list[tuple[int, int]]:
        items = list(payloads)
        with self._locked():
            resolved = self._engine.resolve_handle(handle)
            leaves = self._engine.insert_run_after(resolved, items)
            self._after_write(resolved[0], {"op": "insert_run_after",
                                            "h": list(resolved),
                                            "ps": items})
            return leaves

    def insert_run_before(self, handle: tuple[int, int],
                          payloads: Sequence[Any]
                          ) -> list[tuple[int, int]]:
        items = list(payloads)
        with self._locked():
            resolved = self._engine.resolve_handle(handle)
            leaves = self._engine.insert_run_before(resolved, items)
            self._after_write(resolved[0], {"op": "insert_run_before",
                                            "h": list(resolved),
                                            "ps": items})
            return leaves

    def mark_deleted(self, handle: tuple[int, int]) -> None:
        with self._locked():
            resolved = self._engine.resolve_handle(handle)
            self._engine.mark_deleted(resolved)
            self._after_write(resolved[0], {"op": "delete",
                                            "h": list(resolved)})

    def set_payload(self, handle: tuple[int, int], payload: Any) -> None:
        with self._locked():
            resolved = self._engine.resolve_handle(handle)
            self._engine.set_payload(resolved, payload)
            # payloads never touch labels: no version bump (snapshots
            # stay valid), but the op is journaled for recovery
            if self._journal is not None:
                self._journal({"op": "set_payload", "h": list(resolved),
                               "p": payload})

    def bulk_load(self, payloads: Sequence[Any],
                  boundaries: Optional[Sequence[int]] = None
                  ) -> list[tuple[int, int]]:
        """Rebuild the shard set; invalidates handles like the engine's."""
        items = list(payloads)
        with self._locked():
            handles = self._engine.bulk_load(items, boundaries=boundaries)
            self._write_counts = dict.fromkeys(self._engine.shard_ids, 0)
            # the new shards reuse ids 0..k-1 at version 1
            self._pin_cache.clear()
            if self._journal is not None:
                self._journal({
                    "op": "bulk_load", "ps": items,
                    "bounds": list(boundaries)
                    if boundaries is not None else None})
            return handles

    def compact(self, params: Optional[LTreeParams] = None):
        """Vacuum tombstones; invalidates handles like the engine's.

        Not journaled: callers checkpoint right after (the slot
        remapping cannot be replayed against pre-compact handles).
        """
        with self._locked():
            return self._engine.compact(params)

    # ------------------------------------------------------------------
    # online rebalancing
    # ------------------------------------------------------------------
    def _fire_hook(self, stage: str, *args: Any) -> None:
        hook = self.rebalance_hook
        if hook is not None:
            hook(stage, *args)

    def _replace_shards(self, old: Sequence[int],
                        new: Sequence[int]) -> None:
        """Retire a split/merge's input shards, start its outputs."""
        for sid in old:
            self._write_counts.pop(sid, None)
            self._pin_cache.pop(sid, None)
        for sid in new:
            self._write_counts[sid] = 0

    def split_shard(self, shard_id: int, at_leaf: int,
                    new_ids: Optional[Sequence[int]] = None
                    ) -> tuple[int, int]:
        """Split one shard online; returns the two new shard ids.

        Holds the mutex for the whole action, so every writer waits for
        it; one whose handle names ``shard_id`` then lands in a new
        shard through the engine's forwarding table.  The WAL record is
        journaled by ``on_commit`` *before* the new ids become visible,
        and a journal failure abandons the split with the directory
        untouched.
        """
        with self._locked():
            if not self._engine.has_shard(shard_id):
                raise ValueError(f"no shard with id {shard_id}")
            self._fire_hook("split:locked", shard_id)

            def on_commit(ids: tuple[int, ...]) -> None:
                if self._journal is not None:
                    self._journal({"op": "split", "id": shard_id,
                                   "at": at_leaf, "new": list(ids)})
                failpoint("concurrent:split:post-journal",
                          shard_id=shard_id, new_ids=ids)

            new_ids = self._engine.split_shard(shard_id, at_leaf,
                                               new_ids=new_ids,
                                               on_commit=on_commit)
            self._replace_shards((shard_id,), new_ids)
            self._fire_hook("split:committed", shard_id, new_ids)
            return new_ids

    def merge_shards(self, id_a: int, id_b: int,
                     new_id: Optional[int] = None) -> int:
        """Merge two adjacent shards online; returns the new shard id.

        Same contract as :meth:`split_shard`.
        """
        first, second = sorted((id_a, id_b))
        with self._locked():
            for sid in (first, second):
                if not self._engine.has_shard(sid):
                    raise ValueError(f"no shard with id {sid}")
            self._fire_hook("merge:locked", first, second)

            def on_commit(sid: int) -> None:
                if self._journal is not None:
                    self._journal({"op": "merge", "a": id_a, "b": id_b,
                                   "new": sid})
                failpoint("concurrent:merge:post-journal",
                          id_a=id_a, id_b=id_b, new_id=sid)

            new_id = self._engine.merge_shards(id_a, id_b, new_id=new_id,
                                               on_commit=on_commit)
            self._replace_shards((first, second), (new_id,))
            self._fire_hook("merge:committed", first, second, new_id)
            return new_id

    def write_counts(self) -> dict[int, int]:
        """Labeled writes applied per live shard since load/creation.

        The live workload signal :meth:`rebalance` hands to
        ``RebalancePolicy.plan(report, workload=...)`` and
        ``ConcurrentDocument.metrics()`` turns into per-shard write
        rates.  A shard's count resets when it is created (split/merge
        child, bulk_load) and is retired with the shard.
        """
        with self._locked():
            return dict(self._write_counts)

    def rebalance(self, policy: Optional[RebalancePolicy] = None,
                  max_rounds: int = 4) -> list[dict]:
        """Plan and apply rebalance actions online.

        Each action holds the mutex on its own, so writers proceed
        between actions; an action whose shard a concurrent rebalance
        already retired is skipped and the next round re-plans from a
        fresh report.  The policy is fed :meth:`write_counts`, so hot
        shards split on write pressure before occupancy alone would
        trigger.  Returns the actions performed.
        """
        policy = policy or RebalancePolicy()
        performed: list[dict] = []
        for _ in range(max_rounds):
            actions = policy.plan(self.shard_report(),
                                  workload=self.write_counts())
            if not actions:
                break
            applied = 0
            for action in actions:
                try:
                    if action[0] == "split":
                        with TRACER.span("engine.split", shard=action[1],
                                         at=action[2]) as span:
                            new_ids = self.split_shard(action[1],
                                                       action[2])
                            span.set(new=list(new_ids))
                        performed.append({"action": "split",
                                          "shard": action[1],
                                          "at": action[2],
                                          "new": list(new_ids)})
                    else:
                        with TRACER.span("engine.merge", a=action[1],
                                         b=action[2]) as span:
                            new_id = self.merge_shards(action[1],
                                                       action[2])
                            span.set(new=new_id)
                        performed.append({"action": "merge",
                                          "shards": [action[1],
                                                     action[2]],
                                          "new": new_id})
                    applied += 1
                except ValueError:
                    # the planned shard was rebalanced or rebuilt under
                    # us; the next round re-plans from a fresh report
                    continue
            if not applied:
                break
        return performed

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def num(self, handle: tuple[int, int]) -> int:
        """Point read of one global label.

        Each call is atomic against writers, but two calls are not a
        consistent cut: a write, split or stride bump may land between
        them.  For a mutually consistent label set use :meth:`labels`,
        :meth:`label_map` or :meth:`snapshot`.
        """
        with self._locked():
            return self._engine.num(handle)

    def is_deleted(self, handle: tuple[int, int]) -> bool:
        with self._locked():
            return self._engine.is_deleted(handle)

    def payload(self, handle: tuple[int, int]) -> Any:
        with self._locked():
            return self._engine.payload(handle)

    def is_leaf(self, handle: tuple[int, int]) -> bool:
        with self._locked():
            return self._engine.is_leaf(handle)

    def find_leaf(self, num: int) -> Optional[tuple[int, int]]:
        with self._locked():
            return self._engine.find_leaf(num)

    def labels(self, include_deleted: bool = True) -> list[int]:
        with self._locked():
            return self._engine.labels(include_deleted)

    def label_map(self) -> dict[tuple[int, int], int]:
        with self._locked():
            return self._engine.label_map()

    def iter_leaves(self, include_deleted: bool = True
                    ) -> Iterator[tuple[int, int]]:
        with self._locked():
            return iter(list(self._engine.iter_leaves(include_deleted)))

    def payloads(self, include_deleted: bool = True) -> list[Any]:
        with self._locked():
            return self._engine.payloads(include_deleted)

    # ------------------------------------------------------------------
    # snapshots (pinned under the mutex, read lock-free)
    # ------------------------------------------------------------------
    def snapshot(self) -> LabelSnapshot:
        """Pin a consistent, immutable label view of every shard.

        Holds the mutex only for the pin.  A shard unchanged since the
        last snapshot reuses its cached pinned shard, so a snapshot
        between writes costs a few dict lookups; a written shard costs
        copies of its label, height and tombstone columns (one memcpy
        each for ``array('q')`` columns, no int64 packing for list
        ones), never a ``to_bytes`` image (see :class:`LabelSnapshot`
        for what is deferred past the pin).  The epoch is the engine's
        directory epoch plus its per-shard write versions.  The returned
        object never touches this engine again — rebalances committing
        after the pin are invisible to it.
        """
        engine = self._engine
        with self._locked():
            ids = engine.shard_ids
            stride = engine.stride
            forwarding = engine._forwarding
            versions = engine.shard_versions()
            epoch = (engine.epoch,) + tuple(
                (sid, versions[sid]) for sid in ids)
            shards: list[_Shard] = []
            for sid in ids:
                cached = self._pin_cache.get(sid)
                if cached is None or cached[0] != versions[sid]:
                    cached = (versions[sid], engine.pin_shard(sid))
                    self._pin_cache[sid] = cached
                shards.append(cached[1])
        return LabelSnapshot(engine.params, stride, ids, shards,
                             forwarding, epoch)

    # ------------------------------------------------------------------
    # persistence and validation
    # ------------------------------------------------------------------
    def exclusive(self):
        """The mutex, for multi-step maintenance that must be atomic
        against writers *as a whole*.

        A ``ConcurrentDocument`` checkpoint holds this across watermark
        capture, engine save and WAL truncate, acting on :attr:`engine`
        directly (the mutex is not reentrant, so the wrapper's own
        methods cannot be used inside).
        """
        return self._locked()

    def save(self, store: Any, name: str = "scheme",
             include_payloads: bool = True,
             extra_blobs: Optional[dict[str, bytes]] = None) -> None:
        with self._locked():
            self._engine.save(store, name,
                              include_payloads=include_payloads,
                              extra_blobs=extra_blobs)

    @classmethod
    def load(cls, store: Any, name: str = "scheme",
             stats: Counters = NULL_COUNTERS,
             journal: Optional[Callable[[dict], Any]] = None,
             **engine_kwargs: Any) -> "ConcurrentLTree":
        """Reopen a saved engine (shard-lazily) and wrap it."""
        engine = ShardedCompactLTree.load(store, name, stats=stats,
                                          **engine_kwargs)
        return cls(engine, journal=journal)

    def validate(self, check_occupancy: bool = False) -> None:
        with self._locked():
            self._engine.validate(check_occupancy)

    def __repr__(self) -> str:
        return f"ConcurrentLTree({self._engine!r})"
