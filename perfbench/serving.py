"""The read-path workload: ``query_serving``.

One thread serves an ``xmark_like`` document of ~69k elements, labeled
with ``ltree-sharded``, saved (``sync=True``) and reopened with
``concurrent=True``.  Each cycle is a closed loop: a cursor-style batch
of engine-level inserts inside one top-level region, ``snapshot()``,
``store.repin(...)``, a fresh ``QuerySession(parallel=False)`` and a
six-query battery.  The three top-level regions, one shard each and of
different sizes, take turns, so every run edits each equally often.
The DOM never changes, so every answer's size is known from one DOM
evaluation taken at setup.  Every timing is kept as its wall interval
and reported scaled to the reference host speed
(:class:`common.HostSpeed`).
"""

from __future__ import annotations

import gc
import os
import random

from repro import obs
from repro.core.stats import NULL_COUNTERS, Counters
from repro.labeling.scheme import LabeledDocument
from repro.order import make_scheme
from repro.query.columnar import ColumnarStore, QuerySession
from repro.query.engine import evaluate_dom
from repro.query.xpath import parse_xpath
from repro.xml.generator import xmark_like

from common import (HostSpeed, Spans, WorkDir, clock,
                    label_bits_over_optimum, median, percentile)

#: ~69k elements, the scale of the repo's earlier columnar suites
DOCUMENT = {"n_items": 5000, "n_people": 2500, "n_auctions": 1700}
#: engine-level inserts per cycle, typed one after another
EDITS_PER_CYCLE = 16
#: an upper bound on cycles per second; sizes the pre-built stream
CYCLES_CAP_PER_SECOND = 200


def battery(rng: random.Random) -> list:
    """Two shared-prefix pairs (the session memo) and one pushed-down
    ``[@id='...']`` predicate."""
    person = rng.randrange(DOCUMENT["n_people"])
    return [parse_xpath(text) for text in (
        "/site//increase",
        "//open_auction/bidder/increase",
        "//open_auction/bidder",
        "//item/name",
        "//item/description//listitem",
        f"//people/person[@id='person{person}']/name")]


def setup(work: WorkDir, spans: Spans, seed: int, stats: Counters,
          qstats: Counters) -> dict:
    """Generate, label, save, reopen and pin; returns the pieces."""
    path = os.path.join(work.fresh("doc-"), "doc.ltp")
    start = clock()
    document = spans.call("xml.generate", 0, xmark_like, seed=seed,
                          **DOCUMENT)
    labeled = spans.call("labeling.label", 0, LabeledDocument, document,
                         scheme=make_scheme("ltree-sharded"))
    spans.call("labeling.save", 0, labeled.save, path, sync=True)
    opening = clock()
    opened = spans.call("labeling.open", 0, LabeledDocument.open, path,
                        stats=stats, sync=True, concurrent=True)
    opened_at = clock()
    snapshot = spans.call("concurrent.snapshot", 0,
                          opened.scheme.tree.snapshot)
    store = spans.call("query.pin", 0, ColumnarStore.from_snapshot,
                       opened, snapshot, qstats)
    return {"path": path, "doc": opened, "store": store,
            "setup": (start, clock()), "open": (opening, opened_at)}


def cursor_stream(rng: random.Random, doc: LabeledDocument,
                  n_cycles: int) -> tuple[list, list[int]]:
    """Live leaf handles in document order, and one anchor position per
    cycle: the top-level regions in turn, a uniform token inside each."""
    tree = doc.scheme.tree
    leaves = list(tree.iter_leaves(include_deleted=False))
    position = {handle: index for index, handle in enumerate(leaves)}
    regions = [(position[begin], position[end])
               for _element, begin, end, level in doc.element_handles()
               if level == 1]
    # a reopened shard deserializes its arena on first access: do that
    # now rather than in the first timed cycle that writes to it
    for low, _high in regions:
        tree.payload(leaves[low])
    anchors = []
    for cycle in range(n_cycles):
        # a random region per cycle let each region's share of the
        # cycles, and with it every per-cycle median, vary by seed
        low, high = regions[cycle % len(regions)]
        anchors.append(low + int(rng.random() * (high - low)))
    return leaves, anchors


def columns(store: ColumnarStore) -> tuple[list, list, list]:
    # no public column accessor; the incremental re-pin tests compare
    # the same fields
    return list(store._begin), list(store._end), list(store._level)


def serve(served: dict, spans: Spans, queries: list, anchors: list[int],
          leaves: list, seconds: float, qstats: Counters, speed: HostSpeed,
          marks: list, counts: list) -> dict:
    """The timed edit -> re-pin -> battery loop over one set-up's
    document; appends each cycle's ``(issued, applied, pinned, asked,
    answered)`` to ``marks`` and returns the loop's state."""
    doc, store = served["doc"], served["store"]
    tree = doc.scheme.tree
    hits = misses = payload = cycle = 0
    snapshot = None
    gc.collect()
    phase_start = clock()
    deadline = phase_start + seconds
    while cycle < len(anchors) and clock() < deadline:
        speed.probe()
        with spans.span("bench.loop", cycle):
            issued = clock()
            handle = leaves[anchors[cycle]]
            for _ in range(EDITS_PER_CYCLE):
                handle = spans.call("concurrent.apply", cycle,
                                    tree.insert_after, handle, payload)
                payload += 1
            applied = clock()
            snapshot = spans.call("concurrent.snapshot", cycle,
                                  tree.snapshot)
            pinned = clock()
            store = spans.call("query.repin", cycle, store.repin, doc,
                               snapshot, qstats)
            session = QuerySession(store, qstats, parallel=False)
            asked = clock()
            for query in queries:
                answer = spans.call("query.evaluate", cycle,
                                    session.evaluate, query)
                counts.append(len(answer))
            answered = clock()
        marks.append((issued, applied, pinned, asked, answered))
        hits += session.step_hits
        misses += session.step_misses
        cycle += 1
    return {"phase": (phase_start, clock()), "cycles": cycle,
            "hits": hits, "misses": misses, "store": store,
            "snapshot": snapshot}


def run_pass(seed: int, seconds: float, work: WorkDir, mode: str,
             setups: int, expected: list) -> dict:
    """One pass of ``query_serving`` (``mode`` as in the write
    workloads).  Each set-up serves ``seconds / setups`` of the loop, so
    the samples spread over the whole run rather than one stretch of
    it.  ``expected`` caches the DOM answer sizes across the passes of
    one run (the seed fixes the document)."""
    traced = mode == "traced"
    spans = Spans(traced)
    stats = Counters() if traced else NULL_COUNTERS
    qstats = Counters() if traced else NULL_COUNTERS
    queries = battery(random.Random(seed))
    speed = HostSpeed()
    marks: list[tuple] = []
    counts: list[int] = []
    setup_spans, opens, phases = [], [], []
    generator_s = wall = 0.0
    cycles = hits = misses = failed = 0
    if mode != "plain":
        obs.reset()
        obs.enable()
    try:
        for _ in range(setups):
            gc.collect()
            speed.probe()
            served = setup(work, spans, seed, stats, qstats)
            setup_spans.append(served["setup"])
            opens.append(served["open"])
            doc = served["doc"]
            if not expected:
                expected.extend(len(evaluate_dom(doc.document, query))
                                for query in queries)
            started = clock()
            leaves, anchors = cursor_stream(
                random.Random(seed + 1), doc,
                int(CYCLES_CAP_PER_SECOND * seconds))
            generator_s += clock() - started
            base, qbase = stats.snapshot(), qstats.snapshot()
            loop = serve(served, spans, queries, anchors, leaves,
                         seconds / setups, qstats, speed, marks, counts)
            phases.append(loop["phase"])
            wall += served["setup"][1] - served["setup"][0] + \
                loop["phase"][1] - loop["phase"][0]
            cycles += loop["cycles"]
            hits += loop["hits"]
            misses += loop["misses"]
            core, query = stats - base, qstats - qbase
            # correctness of the spliced store, outside the timed loop
            rebuilt = ColumnarStore.from_snapshot(doc, loop["snapshot"])
            failed += columns(rebuilt) != columns(loop["store"])
            labels = doc.scheme.tree.labels(include_deleted=False)
            n_elements = len(loop["store"])
            store_path = served["path"]
            doc.close()
            del served, doc, loop, rebuilt
            # one more reopen per segment, untraced, so the recovery
            # samples spread over the run
            gc.collect()
            speed.probe()
            start = clock()
            reopened = LabeledDocument.open(store_path, sync=True,
                                            concurrent=True)
            opens.append((start, clock()))
            reopened.close()
            speed.probe()
        histograms = {metric: (obs.METRICS.histogram(metric) or
                               {}).get("sum", 0.0)
                      for metric in ("engine.lock_wait.seconds",
                                     "wal.commit.seconds",
                                     "query.step.seconds")}
    finally:
        if mode != "plain":
            obs.disable()
            obs.reset()

    failed += sum(count != expected[index % len(expected)]
                  for index, count in enumerate(counts))
    store_bytes = os.path.getsize(store_path)

    scaled = speed.scaled
    elapsed = sum(scaled(*phase) for phase in phases)
    edits = [scaled(issued, applied) for issued, applied, *_ in marks]
    pins = [scaled(applied, pinned) for _, applied, pinned, *_ in marks]
    # one sample per cycle: the battery's mean evaluate time (the six
    # query shapes differ ~30x in cost, so a per-query median would
    # jump between shapes from run to run)
    latencies = [scaled(asked, answered) / len(queries)
                 for *_, asked, answered in marks]
    staleness = [scaled(applied, answered)
                 for _, applied, _, _, answered in marks]
    metrics = {
        "setup_s": median([scaled(*span) for span in setup_spans]),
        "edit_ops_per_s": EDITS_PER_CYCLE * cycles / elapsed,
        "ack_p50_ms": 1e3 * percentile(edits, 0.50),
        "ack_p95_ms": 1e3 * percentile(edits, 0.95),
        "checkpoint_pause_ms": 1e3 * median(pins),
        "recovery_s": median([scaled(*span) for span in opens]),
        "store_bytes_per_token": store_bytes / len(leaves),
        "queries_per_s": len(counts) / elapsed,
        "query_p50_ms": 1e3 * percentile(latencies, 0.50),
        "query_p95_ms": 1e3 * percentile(latencies, 0.95),
        "fresh_p50_ms": 1e3 * percentile(staleness, 0.50),
        "fresh_p95_ms": 1e3 * percentile(staleness, 0.95),
    }
    result = {
        "metrics": metrics, "speed": speed,
        "samples": {"ack": len(edits), "query": len(latencies),
                    "fresh": len(staleness), "checkpoint": len(pins),
                    "recovery": len(opens), "setup": setups},
        "work": cycles, "elapsed": elapsed,
        "attempted": EDITS_PER_CYCLE * cycles + len(counts),
        "failed": failed, "spans": spans,
    }
    if traced:
        # an element's ancestry label is its (begin, end) label pair
        bits = 2 * max(labels).bit_length()
        shards = query.shards_reused + query.shards_reextracted
        self_times = spans.self_times()
        layers = {span + "_s": seconds_
                  for span, seconds_ in self_times.items()}
        layers.update({
            "core.count_updates_per_insert":
                core.count_updates / core.inserts,
            "core.relabels_per_insert": core.relabels / core.inserts,
            "core.splits_per_1k_inserts": 1e3 * core.splits / core.inserts,
            "core.label_bits": bits,
            "core.label_bits_over_optimum":
                label_bits_over_optimum(bits, n_elements),
            "concurrent.lock_wait_s":
                histograms["engine.lock_wait.seconds"],
            "query.shard_reuse_ratio":
                query.shards_reused / shards if shards else 0.0,
            "query.memo_hit_ratio": hits / (hits + misses),
            "query.pushdown_pruned": query.pushdown_pruned,
            "obs.wal_commit_s": histograms["wal.commit.seconds"],
            "obs.query_step_s": histograms["query.step.seconds"],
            "bench.generator_s": generator_s,
            "bench.unattributed_s": wall - sum(self_times.values()),
        })
        result["layers"] = layers
    return result
