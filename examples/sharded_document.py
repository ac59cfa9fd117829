"""Sharded label spaces: per-subtree arenas, lazy reopen, isolation.

Run:  python examples/sharded_document.py

The `ltree-sharded` scheme splits one document's label space across
per-subtree `CompactLTree` arenas: the global label of a token is
``shard_prefix ⊕ shard-local label``, so every split and relabel stays
inside one arena and concurrent writers editing disjoint subtrees never
touch each other's state.  This script shows the three things the
sharding layer buys:

1. **write isolation** — per-shard counters prove an edit in one
   subtree writes exactly one arena (and ``shard_report()`` shows the
   per-shard occupancy the rebalance policy reads);
2. **cheaper maintenance** — shard arenas are shorter than one flat
   tree, so the paper's ``h`` (count-update) cost term drops;
3. **shard-lazy persistence** — each arena is its own blob span in the
   page file; reopening a saved document deserializes *nothing* until
   an edit touches a shard, and re-saving copies untouched arenas
   image-for-image.
"""

import os
import tempfile

from repro.core.params import LTreeParams
from repro.core.stats import Counters
from repro.labeling.scheme import LabeledDocument
from repro.order.registry import make_scheme
from repro.order.sharded_list import ShardedListLabeling
from repro.storage.pages import PageStore
from repro.workloads import updates as W
from repro.xml.generator import xmark_like
from repro.xml.parser import parse

PARAMS = LTreeParams(f=16, s=4)


def main() -> None:
    # -- 1. write isolation, shard by shard ---------------------------
    document = xmark_like(n_items=30, n_people=16, n_auctions=12, seed=3)
    scheme = ShardedListLabeling(PARAMS, n_shards=6, shard_stats=True)
    labeled = LabeledDocument(document, scheme=scheme)
    print("== per-shard arenas ==")
    print(f"  {len(scheme)} tokens across "
          f"{scheme.tree.shard_count} shards, "
          f"stride {scheme.tree.stride:,}")

    target = next(element for element in document.iter_elements()
                  if element.parent is not None and
                  element.begin[0] == element.end[0])
    owner = target.begin[0]
    before = [sink.snapshot() for sink in scheme.shard_counters]
    labeled.append_subtree(target, parse("<memo>shard-local</memo>").root)
    written = [rank for rank, (sink, base) in
               enumerate(zip(scheme.shard_counters, before))
               if (sink - base).inserts]
    print(f"  inserted under <{target.tag}> (shard {owner}): "
          f"arenas written = {written}")

    print("\n== shard_report() ==")
    print(f"  {'id':>4s} {'pos':>4s} {'live':>6s} {'tomb':>6s} "
          f"{'leaves':>7s} {'inserts':>8s}")
    for row in scheme.shard_report():
        counters = row["counters"] or {}
        print(f"  {row['id']:4d} {row['position']:4d} "
              f"{row['live']:6d} {row['tombstones']:6d} "
              f"{row['leaves']:7d} "
              f"{counters.get('inserts', 0):8d}")

    # -- 2. the h-term discount ---------------------------------------
    print("\n== count updates per insert (2000 uniform inserts) ==")
    for name in ("ltree-compact", "ltree-sharded"):
        stats = Counters()
        W.apply_workload(make_scheme(name, stats),
                         W.uniform_inserts(2000, seed=42))
        print(f"  {name:14s} {stats.count_updates / stats.inserts:5.2f}")

    # -- 3. shard-lazy reopen -----------------------------------------
    path = os.path.join(tempfile.mkdtemp(), "sharded.ltp")
    labels_before = labeled.labels_in_order()
    with PageStore(path) as store:
        labeled.save(store)
        spans = [name for name in store.blobs()
                 if name.startswith("scheme.s")]
        print(f"\n== saved: {len(spans)} arena blob spans "
              f"({os.path.getsize(path):,} bytes) ==")

    del labeled, document, scheme                 # "crash"

    with PageStore(path) as store:
        reopened = LabeledDocument.open(store)
        tree = reopened.scheme.tree
        print("== reopened ==")
        print(f"  labels bit-identical: "
              f"{reopened.labels_in_order() == labels_before}")
        print(f"  arenas deserialized after open + queries: "
              f"{tree.materialized_shards}")
        victim = next(element for element in
                      reopened.document.iter_elements()
                      if element.parent is not None)
        reopened.insert_text(victim, 0, "wake one shard")
        print(f"  arenas deserialized after one edit:       "
              f"{tree.materialized_shards}")
        reopened.validate()
        reopened.save(store)
        print("  re-saved; untouched arenas copied image-for-image")


if __name__ == "__main__":
    main()
