"""Concurrent editing: two writers, a snapshot reader, crash + recover.

Run:  python examples/concurrent_editing.py

The sharded engine localizes every update to one arena; the
`repro.concurrent` service makes it a thread-safe document with
incremental durability:

1. **two writer threads** edit disjoint shards of one
   ``ConcurrentDocument`` (the engine applies their ops one at a time
   under its writer mutex, in arrival order) while every op is
   appended to a CRC'd write-ahead log under group commit;
2. **a snapshot reader** queries labels/order the whole time with zero
   locks, off pinned per-shard label and tombstone columns;
3. a **checkpoint** folds the log into the page store (one atomic
   catalog flip carries the arenas *and* the WAL watermark) and
   truncates it;
4. a simulated **crash** tears the last WAL record in half; recovery
   opens the checkpoint, drops the torn record by CRC, replays the
   intact tail, and the labels come back bit-identical.
"""

import os
import random
import tempfile
import threading

from repro.concurrent import ConcurrentDocument
from repro.core.params import LTreeParams
from repro.core.sharded import ShardedCompactLTree
from repro.concurrent.service import WAL_FILE, apply_logged_op

PARAMS = LTreeParams(f=16, s=4)


def writer(doc, handles, rank, n_ops, seed):
    """Seeded edits anchored only in shard ``rank``."""
    rng = random.Random(seed)
    mine = [handle for handle in handles if handle[0] == rank]
    for step in range(n_ops):
        anchor = mine[rng.randrange(len(mine))]
        if rng.random() < 0.8:
            mine.append(doc.insert_after(anchor, [rank, step]))
        else:
            mine.extend(doc.insert_run_after(
                anchor, [[rank, step, k] for k in range(3)]))


def reader(doc, stop, out):
    """Zero-lock snapshot reads while the writers hammer away."""
    while not stop.is_set():
        snap = doc.snapshot()
        labels = snap.labels()
        assert labels == sorted(labels), "snapshot must be ordered"
        out["snapshots"] += 1
        out["last_size"] = len(labels)


def main() -> None:
    directory = tempfile.mkdtemp()

    # -- 1 + 2: two writer threads, concurrent snapshot reader ---------
    doc = ConcurrentDocument.create(directory, params=PARAMS,
                                    n_shards=2, group_commit=32)
    handles = doc.bulk_load([f"token{i}" for i in range(64)])
    print("== two writers, one snapshot reader ==")
    stop = threading.Event()
    read_stats = {"snapshots": 0, "last_size": 0}
    threads = [
        threading.Thread(target=writer, args=(doc, handles, 0, 400, 1)),
        threading.Thread(target=writer, args=(doc, handles, 1, 400, 2)),
        threading.Thread(target=reader, args=(doc, stop, read_stats)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads[:2]:
        thread.join()
    stop.set()
    threads[2].join()
    doc.commit()
    print(f"  {len(doc.labels())} live tokens after 800 concurrent ops")
    print(f"  reader pinned {read_stats['snapshots']} consistent "
          f"snapshots (last saw {read_stats['last_size']} labels)")
    print(f"  WAL: {doc.wal.records_appended} records in "
          f"{doc.wal.commits} group commits")

    # determinism: serial replay of the merged tape == concurrent state
    replayed = ShardedCompactLTree(PARAMS, n_shards=2)
    for _seq, op in doc.wal.replay():
        apply_logged_op(replayed, op)
    print(f"  serial replay bit-identical: "
          f"{replayed.labels(include_deleted=False) == doc.labels()}")

    # -- 3: checkpoint -------------------------------------------------
    watermark = doc.checkpoint()
    print(f"\n== checkpoint ==\n  folded ops 1..{watermark} into the "
          f"page store; WAL truncated to {doc.wal.last_seq - watermark} "
          f"records")

    # a few post-checkpoint edits, one of which we will tear
    anchor = handles[10]
    for step in range(5):
        anchor = doc.insert_after(anchor, ["post-ckpt", step])
    doc.commit()
    survivor_labels = doc.labels()[:]
    doc.insert_after(anchor, "doomed: this op's record gets torn")
    doc.commit()
    doc.close()

    # -- 4: crash + recover --------------------------------------------
    wal_path = os.path.join(directory, WAL_FILE)
    with open(wal_path, "r+b") as handle:
        handle.truncate(os.path.getsize(wal_path) - 11)   # tear mid-record
    print("\n== crash: last WAL record torn mid-append ==")
    with ConcurrentDocument.open(directory) as recovered:
        print(f"  recovery dropped {recovered.wal.dropped_bytes} torn "
              f"bytes by CRC")
        print(f"  checkpoint + replayed tail bit-identical to the last "
              f"commit: {recovered.labels() == survivor_labels}")
        recovered.tree.validate()


if __name__ == "__main__":
    main()
