"""Concurrent document service over the sharded L-Tree engine.

The L-Tree's defining property — an update relabels only within one
subtree — became mechanically checkable in the sharded engine
(:class:`repro.core.sharded.ShardedCompactLTree`: every op writes
exactly one arena).  This package makes that engine shareable between
threads and incrementally durable:

* :mod:`repro.concurrent.engine` — :class:`ConcurrentLTree`, the
  thread-safe engine wrapper: one writer mutex serializes every access
  to the live engine, and :class:`LabelSnapshot` reads, pinned from
  per-shard copies of the label, height and tombstone columns, take no
  lock at all;
* :mod:`repro.concurrent.service` — :class:`ConcurrentDocument`, the
  WAL-backed service: every logical op is appended to a
  :class:`repro.storage.wal.WriteAheadLog` under group commit,
  checkpoints fold the log into an atomic
  :class:`repro.storage.pages.PageStore` save, and :meth:`open`
  recovers as checkpoint + replayed WAL tail with bit-identical labels.
"""

from repro.concurrent.engine import ConcurrentLTree, LabelSnapshot
from repro.concurrent.service import ConcurrentDocument, apply_logged_op
from repro.core.sharded import RebalancePolicy

__all__ = [
    "ConcurrentLTree",
    "LabelSnapshot",
    "RebalancePolicy",
    "ConcurrentDocument",
    "apply_logged_op",
]
