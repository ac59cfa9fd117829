"""`ConcurrentDocument`: the WAL-backed, thread-safe document service.

Composition of the three durability/concurrency pieces this package and
:mod:`repro.storage` provide:

* in memory, a :class:`repro.concurrent.engine.ConcurrentLTree` — the
  mutex-guarded sharded engine with lock-free snapshot reads;
* on disk, a :class:`repro.storage.pages.PageStore` holding the last
  **checkpoint** (one ``LTREEARR`` image per shard + manifest, exactly
  a ``ShardedCompactLTree.save``) and a
  :class:`repro.storage.wal.WriteAheadLog` holding every logical op
  since that checkpoint, under group commit.

**Determinism.**  Every mutation is journaled *under the engine's
writer mutex*, so the WAL's record order equals the order the engine
applied the ops in.  A serial replay of the tape therefore reproduces
the concurrent execution's final state bit-for-bit — labels, slot
layout, free lists, stride (which is recomputed from shard heights as
replay grows them).  This is the property the threaded differential
harness in ``tests/concurrent`` checks across seeds.

**Recovery** (:meth:`open`) = open the last checkpoint (shard-lazily),
replay the WAL tail (records with sequence number above the
checkpoint's watermark), done.  The watermark travels *inside* the
checkpoint's atomic catalog flip (``extra_blobs``), so a crash between
"state saved" and "log truncated" cannot double-apply: the stale
records are simply skipped.  A record torn by a crash mid-append fails
its CRC and is physically dropped, never deserialized.

**Payload contract.**  Ops are serialized as JSON, so payloads must be
JSON-serializable (the same constraint ``CompactLTree.to_bytes``
imposes); tuples come back as lists.  Passing a non-serializable
payload raises :class:`~repro.errors.StorageError` after the in-memory
apply — the log is then behind the memory state, so treat the service
as poisoned and reopen it.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterator, Optional, Sequence

from repro.concurrent.engine import ConcurrentLTree, LabelSnapshot
from repro.core.params import DEFAULT_PARAMS, LTreeParams
from repro.core.sharded import (DEFAULT_N_SHARDS, RebalancePolicy,
                                ShardedCompactLTree)
from repro.core.stats import NULL_COUNTERS, Counters
from repro.errors import ParameterError, RecoveryError, StorageError
from repro.obs import METRICS, TRACER
from repro.storage.faults import FAILPOINTS, failpoint
from repro.storage.pages import PageStore
from repro.storage.wal import WriteAheadLog

#: file names a service directory contains
PAGES_FILE = "pages.ltp"
WAL_FILE = "ops.wal"

#: blob names inside the page store
SCHEME_BLOB = "scheme"
SERVICE_META_BLOB = "service.meta"

#: on-store format version of the service meta blob
SERVICE_FORMAT_VERSION = 1


def _is_half_created(pages_path: str, wal_path: str) -> bool:
    """True when the directory is debris of a crashed ``create()``.

    The meta blob is the first thing a create stores; a page store
    without it — and without any WAL records — never acknowledged an
    operation, so re-creating over it loses nothing.  Anything that
    does not open cleanly is *not* classified as debris: a corrupt
    store deserves a loud error, not silent replacement.
    """
    if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
        return False
    try:
        with PageStore(pages_path) as probe:
            return not probe.has_blob(SERVICE_META_BLOB)
    except (StorageError, OSError):
        return False

# the enumerable crash surface of this module (see repro.storage.faults)
FAILPOINTS.declare("service:create:post-store",
                   "page store created, WAL not yet created")
FAILPOINTS.declare("service:open:pre-replay",
                   "checkpoint loaded, WAL tail not yet replayed")
FAILPOINTS.declare("service:checkpoint:pre-save",
                   "watermark captured, engine save not yet issued")
FAILPOINTS.declare("service:checkpoint:post-save",
                   "image + watermark flipped, WAL not yet truncated")
FAILPOINTS.declare("service:checkpoint:post-truncate",
                   "WAL truncated, writer mutex not yet released")
FAILPOINTS.declare("service:rebalance:post-actions",
                   "split/merge journaled, WAL batch not yet committed")


def _tuple(handle: Sequence[int]) -> tuple[int, int]:
    return (handle[0], handle[1])


def apply_logged_op(engine: Any, op: dict) -> None:
    """Apply one WAL record to a (raw or wrapped) sharded engine.

    The single decoder for the op vocabulary the journal hook in
    :class:`~repro.concurrent.engine.ConcurrentLTree` emits —
    ``insert_after``/``insert_before``, ``append``/``prepend``,
    ``insert_run_after``/``insert_run_before`` (the §4.1 batch),
    ``delete``, ``set_payload``, ``bulk_load`` — and the logical
    rebalance records ``split``/``merge``, which carry the new shard
    ids explicitly so replay re-mints exactly the ids the original run
    minted (the arenas they rebuild are deterministic functions of the
    shard contents at that point of the tape).  Used by recovery and by
    the test harness's serial replay oracle.
    """
    kind = op["op"]
    if kind == "insert_after":
        engine.insert_after(_tuple(op["h"]), op["p"])
    elif kind == "insert_before":
        engine.insert_before(_tuple(op["h"]), op["p"])
    elif kind == "append":
        engine.append(op["p"])
    elif kind == "prepend":
        engine.prepend(op["p"])
    elif kind == "insert_run_after":
        engine.insert_run_after(_tuple(op["h"]), op["ps"])
    elif kind == "insert_run_before":
        engine.insert_run_before(_tuple(op["h"]), op["ps"])
    elif kind == "delete":
        engine.mark_deleted(_tuple(op["h"]))
    elif kind == "set_payload":
        engine.set_payload(_tuple(op["h"]), op["p"])
    elif kind == "bulk_load":
        bounds = op.get("bounds")
        engine.bulk_load(op["ps"], boundaries=bounds)
    elif kind == "split":
        engine.split_shard(op["id"], op["at"], new_ids=tuple(op["new"]))
    elif kind == "merge":
        engine.merge_shards(op["a"], op["b"], new_id=op["new"])
    else:
        raise StorageError(f"unknown WAL op kind {kind!r}")


class ConcurrentDocument:
    """A durable, thread-safe ordered document over sharded arenas.

    Use the classmethods: :meth:`create` starts a fresh service in a
    directory, :meth:`open` recovers an existing one (checkpoint +
    WAL tail).  All mutating methods are thread-safe and may be called
    from many writer threads; the engine applies them one at a time
    under its writer mutex, while :meth:`commit`'s fsync runs outside
    it.  :meth:`snapshot` gives readers an immutable label view they
    can query with zero locks against the writers.

    Durability knobs: ``group_commit`` auto-commits the WAL every N
    ops; :meth:`commit` forces the batch out (one fsync under
    ``sync=True``); :meth:`checkpoint` folds the log into the page
    store and truncates it.

    Examples
    --------
    >>> import tempfile
    >>> directory = tempfile.mkdtemp()
    >>> with ConcurrentDocument.create(directory, n_shards=2) as doc:
    ...     handles = doc.bulk_load(["a", "b", "c", "d"])
    ...     _ = doc.insert_after(handles[1], "b2")
    ...     doc.commit()
    >>> with ConcurrentDocument.open(directory) as doc:
    ...     doc.payloads()
    ['a', 'b', 'b2', 'c', 'd']
    """

    def __init__(self, tree: ConcurrentLTree, store: PageStore,
                 wal: WriteAheadLog, checkpoint_seq: int,
                 meta: dict,
                 rebalance_policy: Optional[RebalancePolicy] = None
                 ) -> None:
        self.tree = tree
        self.store = store
        self.wal = wal
        #: sequence number of the last op folded into the page store
        self.checkpoint_seq = checkpoint_seq
        self._meta = meta
        #: when set, :meth:`checkpoint` runs this policy as a background
        #: maintenance step right after folding the log (see
        #: :meth:`rebalance`)
        self.rebalance_policy = rebalance_policy
        #: last checkpoint failure, if the most recent attempt failed
        #: (see :meth:`health`)
        self._last_checkpoint_error: Optional[dict] = None
        #: wall-clock stamp of the last successful checkpoint — carried
        #: in the meta blob, so it survives a reopen (see :meth:`health`)
        self._last_checkpoint_unix: Optional[float] = \
            meta.get("checkpoint_unix")
        #: (monotonic stamp, per-shard write counts) at the last
        #: :meth:`metrics` call — the write-rate baseline
        self._rate_mark: tuple[float, dict] = (time.monotonic(),
                                               tree.write_counts())

    # ------------------------------------------------------------------
    # construction and recovery
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, directory: str, params: LTreeParams = DEFAULT_PARAMS,
               n_shards: int = DEFAULT_N_SHARDS,
               violator_policy: str = "highest", sync: bool = False,
               group_commit: Optional[int] = 64,
               stats: Counters = NULL_COUNTERS,
               shard_stats: bool = False,
               rebalance_policy: Optional[RebalancePolicy] = None
               ) -> "ConcurrentDocument":
        """Start a fresh service in ``directory`` (created if missing).

        The engine parameters are recorded in the store's
        ``service.meta`` blob, so :meth:`open` needs only the
        directory.  ``sync=True`` applies the fsync-barrier discipline
        to *both* files: WAL commits and checkpoint catalog flips
        survive power loss, at one fsync per batch/flip.
        """
        os.makedirs(directory, exist_ok=True)
        pages_path = os.path.join(directory, PAGES_FILE)
        wal_path = os.path.join(directory, WAL_FILE)
        if (os.path.exists(pages_path) and
                os.path.getsize(pages_path) > 0) or \
                (os.path.exists(wal_path) and
                 os.path.getsize(wal_path) > 0):
            if _is_half_created(pages_path, wal_path):
                # a create() that crashed before the meta blob landed:
                # nothing was ever acknowledged, so the debris is safe
                # to clear and the create re-runs from scratch
                for stale in (pages_path, wal_path):
                    if os.path.exists(stale):
                        os.remove(stale)
            else:
                raise StorageError(
                    f"{directory!r} already holds a document service; "
                    f"use open()")
        store = PageStore(pages_path, sync=sync)
        try:
            failpoint("service:create:post-store", directory=directory)
            meta = {
                "format": SERVICE_FORMAT_VERSION,
                "f": params.f,
                "s": params.s,
                "label_base": params.base,
                "violator_policy": violator_policy,
                "n_shards": n_shards,
                "checkpoint_seq": 0,
            }
            store.put_blob(SERVICE_META_BLOB,
                           json.dumps(meta).encode("utf-8"))
            wal = WriteAheadLog(wal_path, sync=sync,
                                group_commit=group_commit)
        except BaseException:
            store.close()
            raise
        engine = ShardedCompactLTree(params, stats,
                                     violator_policy=violator_policy,
                                     n_shards=n_shards,
                                     shard_stats=shard_stats)
        tree = ConcurrentLTree(engine, journal=wal.append)
        return cls(tree, store, wal, checkpoint_seq=0, meta=meta,
                   rebalance_policy=rebalance_policy)

    @classmethod
    def open(cls, directory: str, sync: bool = False,
             group_commit: Optional[int] = 64,
             stats: Counters = NULL_COUNTERS,
             rebalance_policy: Optional[RebalancePolicy] = None
             ) -> "ConcurrentDocument":
        """Recover a service: last checkpoint + replayed WAL tail.

        The checkpoint reopens shard-lazily (only arenas the replayed
        tail writes are deserialized); records at or below the
        checkpoint watermark are skipped, a torn trailing record is
        dropped by CRC before anything deserializes it.
        """
        pages_path = os.path.join(directory, PAGES_FILE)
        if not os.path.exists(pages_path):
            raise StorageError(
                f"{directory!r} holds no document service; use create()")
        store = PageStore(pages_path, sync=sync)
        try:
            if not store.has_blob(SERVICE_META_BLOB):
                raise RecoveryError(
                    f"{directory!r} holds a half-created service (a "
                    f"create() died before its meta blob); re-run "
                    f"create()")
            meta = json.loads(
                bytes(store.get_blob(SERVICE_META_BLOB)).decode("utf-8"))
            if meta.get("format") != SERVICE_FORMAT_VERSION:
                raise ParameterError(
                    f"unsupported service format {meta.get('format')!r} "
                    f"(supported: {SERVICE_FORMAT_VERSION})")
            params = LTreeParams(f=meta["f"], s=meta["s"],
                                 label_base=meta["label_base"])
            checkpoint_seq = meta["checkpoint_seq"]
            wal_path = os.path.join(directory, WAL_FILE)
            wal_existed = os.path.exists(wal_path) and \
                os.path.getsize(wal_path) > 0
            wal = WriteAheadLog(wal_path, sync=sync,
                                group_commit=group_commit)
        except BaseException:
            store.close()
            raise
        try:
            if not wal_existed and checkpoint_seq > 0:
                # the log vanished (partial restore of the directory?).
                # Everything up to the watermark is in the checkpoint,
                # so the store itself is whole — but a fresh log MUST
                # continue the sequence at watermark+1: restarting at 1
                # would hand new commits sequence numbers the next
                # recovery's replay(after_seq=watermark) silently skips
                wal.truncate(checkpoint_seq + 1)
            elif wal.base_seq > checkpoint_seq + 1:
                # records between the watermark and the log's first
                # sequence number are unaccounted for — this log does
                # not belong to this checkpoint; recovering would
                # silently lose the gap
                raise RecoveryError(
                    f"WAL starts at sequence {wal.base_seq} but the "
                    f"checkpoint watermark is {checkpoint_seq}: "
                    f"records {checkpoint_seq + 1}..{wal.base_seq - 1} "
                    f"are missing")
            if store.has_blob(SCHEME_BLOB):
                engine = ShardedCompactLTree.load(store, SCHEME_BLOB,
                                                  stats=stats)
            else:
                # crashed (or never checkpointed) before the first
                # checkpoint: everything lives in the WAL
                engine = ShardedCompactLTree(
                    params, stats,
                    violator_policy=meta["violator_policy"],
                    n_shards=meta["n_shards"])
            failpoint("service:open:pre-replay", directory=directory)
            replay_start = time.perf_counter()
            replayed = 0
            with TRACER.span("service.recovery",
                             directory=directory) as span:
                for _seq, op in wal.replay(after_seq=checkpoint_seq):
                    apply_logged_op(engine, op)
                    replayed += 1
                span.set(replayed=replayed)
            if METRICS.enabled:
                METRICS.observe("service.recovery.seconds",
                                time.perf_counter() - replay_start)
                METRICS.inc("service.recoveries")
                METRICS.inc("service.ops_replayed", replayed)
        except BaseException:
            wal.close()
            store.close()
            raise
        tree = ConcurrentLTree(engine, journal=wal.append)
        return cls(tree, store, wal, checkpoint_seq=checkpoint_seq,
                   meta=meta, rebalance_policy=rebalance_policy)

    # ------------------------------------------------------------------
    # logical ops (thread-safe; journaled under the writer mutex)
    # ------------------------------------------------------------------
    def bulk_load(self, payloads: Sequence[Any],
                  boundaries: Optional[Sequence[int]] = None
                  ) -> list[tuple[int, int]]:
        return self.tree.bulk_load(payloads, boundaries=boundaries)

    def insert_after(self, handle: tuple[int, int],
                     payload: Any) -> tuple[int, int]:
        return self.tree.insert_after(handle, payload)

    def insert_before(self, handle: tuple[int, int],
                      payload: Any) -> tuple[int, int]:
        return self.tree.insert_before(handle, payload)

    def append(self, payload: Any) -> tuple[int, int]:
        return self.tree.append(payload)

    def prepend(self, payload: Any) -> tuple[int, int]:
        return self.tree.prepend(payload)

    def insert_run_after(self, handle: tuple[int, int],
                         payloads: Sequence[Any]) -> list[tuple[int, int]]:
        return self.tree.insert_run_after(handle, payloads)

    def insert_run_before(self, handle: tuple[int, int],
                          payloads: Sequence[Any]
                          ) -> list[tuple[int, int]]:
        return self.tree.insert_run_before(handle, payloads)

    def delete(self, handle: tuple[int, int]) -> None:
        self.tree.mark_deleted(handle)

    def set_payload(self, handle: tuple[int, int], payload: Any) -> None:
        self.tree.set_payload(handle, payload)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def label(self, handle: tuple[int, int]) -> int:
        return self.tree.num(handle)

    def labels(self, include_deleted: bool = False) -> list[int]:
        return self.tree.labels(include_deleted)

    def label_map(self) -> dict[tuple[int, int], int]:
        return self.tree.label_map()

    def payload(self, handle: tuple[int, int]) -> Any:
        return self.tree.payload(handle)

    def payloads(self) -> list[Any]:
        return self.tree.payloads(include_deleted=False)

    def handles(self) -> Iterator[tuple[int, int]]:
        return self.tree.iter_leaves(include_deleted=False)

    def snapshot(self) -> LabelSnapshot:
        """Zero-lock reader view; see :class:`LabelSnapshot`."""
        return self.tree.snapshot()

    def shard_report(self) -> list[dict]:
        """Per-shard occupancy rows (the rebalance policy's input)."""
        return self.tree.shard_report()

    # ------------------------------------------------------------------
    # online maintenance
    # ------------------------------------------------------------------
    def rebalance(self, policy: Optional[RebalancePolicy] = None
                  ) -> list[dict]:
        """Run the rebalance policy online; returns actions performed.

        Each split/merge holds the writer mutex on its own — writers
        proceed between actions — and journals a logical
        ``split``/``merge`` record *before* the new shards become
        visible, so recovery replays the rebalance deterministically
        (or skips it wholesale if the record never made it out: the
        pre-rebalance arenas are still what the checkpoint holds).  The
        WAL batch is committed afterwards so the records are durable
        under the same group-commit discipline as ordinary ops.
        """
        policy = policy or self.rebalance_policy
        if policy is None:
            return []
        with TRACER.span("service.rebalance") as span:
            performed = self.tree.rebalance(policy)
            span.set(actions=len(performed))
        if performed:
            failpoint("service:rebalance:post-actions",
                      performed=performed)
            self.wal.commit()
            if METRICS.enabled:
                METRICS.inc("service.rebalance_actions", len(performed))
        return performed

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Force the buffered WAL batch out (group commit boundary)."""
        if not METRICS.enabled:
            self.wal.commit()
            return
        t0 = time.perf_counter()
        self.wal.commit()
        METRICS.observe("service.commit.seconds",
                        time.perf_counter() - t0)
        METRICS.gauge("service.wal_backlog",
                      self.wal.last_seq - self.checkpoint_seq)

    def checkpoint(self, include_payloads: bool = True,
                   best_effort: bool = False) -> Optional[int]:
        """Fold the WAL into the page store; returns the watermark.

        Stop-the-world for its *whole* duration — watermark capture,
        engine save and WAL truncate all happen under one hold of the
        writer mutex, so no writer can journal an op between the
        watermark read and the truncate (which would silently erase a
        committed record the image does not contain), or sneak an op
        into the saved image with a sequence number above the
        watermark (which a crash would then double-apply).  The engine
        image and the ``checkpoint_seq`` watermark land under **one**
        atomic catalog flip (so recovery can never see one without the
        other), then the WAL is truncated.  A crash anywhere in
        between only leaves already-applied records in the log, which
        the watermark makes recovery skip.

        **Graceful degradation.**  A checkpoint that fails with a
        storage or OS error (full disk, injected fault) leaves the
        service *serving*: the save's atomic catalog flip means the
        store still holds the previous checkpoint whole, the WAL keeps
        accepting and committing ops, and recovery replays them from
        the old watermark.  The failure is recorded in :meth:`health`;
        with ``best_effort=True`` it is swallowed (``None`` returned)
        so a maintenance-loop checkpoint cannot take down the writers,
        otherwise it re-raises after recording.
        """
        try:
            with TRACER.span("service.checkpoint") as span:
                # the pause is the exclusive hold: the window no writer
                # can journal an op — the stall an operator feels
                pause_start = time.perf_counter()
                with self.tree.exclusive():
                    self.wal.commit()
                    watermark = self.wal.last_seq
                    meta = dict(self._meta)
                    meta["checkpoint_seq"] = watermark
                    meta["checkpoint_unix"] = round(time.time(), 3)
                    failpoint("service:checkpoint:pre-save",
                              watermark=watermark)
                    # the raw engine: the mutex is held (not reentrant)
                    self.tree.engine.save(
                        self.store, SCHEME_BLOB,
                        include_payloads=include_payloads,
                        extra_blobs={
                            SERVICE_META_BLOB:
                                json.dumps(meta).encode("utf-8")})
                    self._meta = meta
                    self.checkpoint_seq = watermark
                    failpoint("service:checkpoint:post-save",
                              watermark=watermark)
                    self.wal.truncate(watermark + 1)
                    failpoint("service:checkpoint:post-truncate",
                              watermark=watermark)
                pause = time.perf_counter() - pause_start
                span.set(watermark=watermark,
                         pause_seconds=round(pause, 6))
        except (StorageError, OSError) as exc:
            self._last_checkpoint_error = {
                "stage": "checkpoint",
                "type": type(exc).__name__,
                "message": str(exc),
                "unix_time": round(time.time(), 3),
                "wal_last_seq": self.wal.last_seq,
            }
            if best_effort:
                return None
            raise
        self._last_checkpoint_error = None
        self._last_checkpoint_unix = meta["checkpoint_unix"]
        if METRICS.enabled:
            METRICS.observe("service.checkpoint.seconds", pause)
            METRICS.inc("service.checkpoints")
            METRICS.gauge("service.checkpoint_pause_seconds",
                          round(pause, 6))
            METRICS.gauge("service.wal_backlog",
                          self.wal.last_seq - self.checkpoint_seq)
        # background maintenance between checkpoints: the rebalance
        # records land in the *fresh* WAL (sequence numbers above the
        # watermark), so a crash from here on replays them against the
        # exact image just checkpointed
        if self.rebalance_policy is not None:
            self.rebalance()
        return watermark

    def health(self) -> dict:
        """Structured durability health of this service.

        ``status`` is ``"ok"`` when the last checkpoint attempt (if
        any) succeeded, ``"degraded"`` when it failed — the service
        then keeps serving commits from the WAL alone, and
        ``wal_records_since_checkpoint`` measures how much replay a
        recovery would need (the figure that grows until a checkpoint
        succeeds again).  ``last_error`` carries the failure's stage,
        exception type, message and time.

        ``wal_backlog`` is the replay debt in records (``wal_last_seq``
        minus the checkpoint watermark — the same figure as
        ``wal_records_since_checkpoint``, named for operators watching
        it as a gauge), and ``seconds_since_checkpoint`` is the age of
        the last successful checkpoint (``None`` until one lands; the
        stamp rides in the meta blob, so the age survives a reopen).
        """
        degraded = self._last_checkpoint_error is not None
        last_unix = self._last_checkpoint_unix
        return {
            "status": "degraded" if degraded else "ok",
            "checkpoint_seq": self.checkpoint_seq,
            "wal_last_seq": self.wal.last_seq,
            "wal_pending_records": self.wal.pending_records,
            "wal_records_since_checkpoint":
                self.wal.last_seq - self.checkpoint_seq,
            "wal_backlog": self.wal.last_seq - self.checkpoint_seq,
            "last_checkpoint_unix": last_unix,
            "seconds_since_checkpoint":
                round(time.time() - last_unix, 3)
                if last_unix is not None else None,
            "last_error": self._last_checkpoint_error,
        }

    def metrics(self) -> dict:
        """Everything :meth:`health` says plus the live numbers.

        Always present (no instrumentation required): the ``health``
        dict, WAL counters off the log object, the page store's
        :meth:`~repro.storage.pages.PageStore.cache_stats`, and
        per-shard write counts/rates (rates are measured over the
        interval since the previous ``metrics()`` call).  When the
        :data:`repro.obs.METRICS` registry is enabled, its merged
        ``counters``/``gauges``/``histograms`` ride along — that is
        where the commit/checkpoint latency histograms (p50/p95/p99)
        live.  See ``docs/observability.md`` for the name catalog.
        """
        now = time.monotonic()
        counts = self.tree.write_counts()
        mark_time, mark_counts = self._rate_mark
        interval = max(now - mark_time, 1e-9)
        rates = {sid: round((count - mark_counts.get(sid, 0)) / interval,
                            3)
                 for sid, count in counts.items()}
        self._rate_mark = (now, counts)
        if METRICS.enabled:
            METRICS.gauge("service.wal_backlog",
                          self.wal.last_seq - self.checkpoint_seq)
        snapshot = METRICS.snapshot()
        return {
            "health": self.health(),
            "wal": {
                "last_seq": self.wal.last_seq,
                "backlog": self.wal.last_seq - self.checkpoint_seq,
                "pending_records": self.wal.pending_records,
                "commits": self.wal.commits,
                "fsyncs": self.wal.fsyncs,
                "records_appended": self.wal.records_appended,
                "dropped_bytes": self.wal.dropped_bytes,
            },
            "cache": self.store.cache_stats(),
            "shards": {
                "write_counts": counts,
                "write_rates_per_sec": rates,
                "interval_seconds": round(interval, 3),
            },
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
        }

    def close(self) -> None:
        """Commit the WAL tail and release both files (no checkpoint).

        The page store is released even when the WAL's final commit
        fails — an error path must not leak the store's fd and mmaps.
        """
        try:
            self.wal.close()
        finally:
            self.store.close()

    def __enter__(self) -> "ConcurrentDocument":
        return self

    def __exit__(self, *exc_info: object) -> Optional[bool]:
        self.close()
        return None

    def __repr__(self) -> str:
        return (f"ConcurrentDocument(shards={self.tree.shard_count}, "
                f"checkpoint_seq={self.checkpoint_seq}, "
                f"wal_last_seq={self.wal.last_seq})")
