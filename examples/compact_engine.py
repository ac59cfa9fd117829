"""The array-backed engine: same labels, flat storage, batch arithmetic.

Run:  python examples/compact_engine.py

The L-Tree comes in two interchangeable engines: the node-object
reference (`repro.core.ltree.LTree`) and the struct-of-arrays
`repro.core.compact.CompactLTree`, which keeps the whole tree in parallel
integer arrays with a free-list for recycled slots.  Both implement the
paper's algorithms exactly — this script drives them in lockstep through
the same edit stream, shows the labels and maintenance cost stay
byte-identical, then times them head to head.

The compact engine is also the **default** under
`repro.labeling.scheme.LabeledDocument` (opt back into the node-object
engine with `scheme=make_scheme("ltree")`), and its bulk paths run as
batch column arithmetic through `repro.core.vectorized`:

* backend ``numpy`` — int64 ndarray passes, picked automatically when
  numpy is importable;
* backend ``array`` — pure-Python batch passes (C-level list/slice
  arithmetic), the guaranteed fallback.

The final section times the same bulk load under every backend
available in this interpreter against the node-object reference.
"""

import random
import time

from repro.core import vectorized
from repro.core.compact import CompactLTree
from repro.core.ltree import LTree
from repro.core.params import LTreeParams
from repro.core.stats import Counters

PARAMS = LTreeParams(f=16, s=4)
N_EDITS = 5_000
N_BULK = 100_000


def drive(tree, handles, operations):
    """Apply an (op, position, payload) stream through the engine API."""
    for kind, position, payload in operations:
        if kind == "before":
            handles.insert(position,
                           tree.insert_before(handles[position], payload))
        elif kind == "after":
            handles.insert(position + 1,
                           tree.insert_after(handles[position], payload))
        elif kind == "run":
            run = tree.insert_run_after(handles[position], payload)
            handles[position + 1:position + 1] = run
        else:
            tree.mark_deleted(handles[position])


def main() -> None:
    rng = random.Random(2026)
    operations = []
    size = 8
    for step in range(N_EDITS):
        roll, position = rng.random(), rng.randrange(size)
        if roll < 0.45:
            operations.append(("before", position, step))
            size += 1
        elif roll < 0.9:
            operations.append(("after", position, step))
            size += 1
        elif roll < 0.95:
            payload = [(step, index) for index in range(8)]
            operations.append(("run", position, payload))
            size += 8
        else:
            operations.append(("delete", position, None))

    node_stats, compact_stats = Counters(), Counters()
    node_tree = LTree(PARAMS, node_stats)
    compact_tree = CompactLTree(PARAMS, compact_stats)
    node_handles = list(node_tree.bulk_load(range(8)))
    compact_handles = list(compact_tree.bulk_load(range(8)))

    drive(node_tree, node_handles, operations)
    drive(compact_tree, compact_handles, operations)

    print(f"== {N_EDITS} identical edits on both engines ==")
    print(f"  labels identical:   "
          f"{node_tree.labels() == compact_tree.labels()}")
    print(f"  counters identical: "
          f"{node_stats.as_dict() == compact_stats.as_dict()}")
    print(f"  leaves={compact_tree.n_leaves}  "
          f"height={compact_tree.height}  "
          f"splits={compact_stats.splits}  "
          f"relabels={compact_stats.relabels}")
    print(f"  compact storage: {compact_tree.allocated_slots} slots "
          f"({compact_tree.free_slots} currently on the free-list)")

    print(f"\n== bulk_load({N_BULK:,}) head to head ==")
    reference = min(_time_bulk(LTree) for _ in range(3))
    print(f"  {'reference':9s} {reference * 1000:7.1f} ms  (node-object)")
    backends = ["array"] + (["numpy"] if vectorized.HAS_NUMPY else [])
    for backend in backends:
        with vectorized.use_backend(backend):
            best = min(_time_bulk(CompactLTree) for _ in range(3))
        print(f"  {backend:9s} {best * 1000:7.1f} ms  "
              f"({reference / best:.2f}x vs reference)")
    if not vectorized.HAS_NUMPY:
        print("  (numpy not importable: the array fallback is active)")


def _time_bulk(engine) -> float:
    tree = engine(PARAMS)
    start = time.perf_counter()
    tree.bulk_load(range(N_BULK))
    return time.perf_counter() - start


if __name__ == "__main__":
    main()
