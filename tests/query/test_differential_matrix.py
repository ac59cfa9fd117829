"""Seeded differential harness: every evaluator, every scheme.

Crosses :mod:`repro.workloads.documents` × :mod:`repro.workloads.queries`
over all four evaluators (dom / interval / edge / columnar) and both the
unsharded and sharded label schemes; the DOM evaluator is ground truth.
The snapshot leg pins a :class:`~repro.concurrent.engine.LabelSnapshot`,
lets writer threads mutate the live engine, and demands the pinned
columnar results equal the pre-pin serial evaluation.
"""

import random
import threading

import pytest

from repro.labeling.scheme import LabeledDocument
from repro.order.registry import make_scheme
from repro.query.columnar import ColumnarStore, evaluate_columnar
from repro.query.engine import (evaluate_dom, evaluate_edge,
                                evaluate_interval)
from repro.storage.edge_table import EdgeTableStore
from repro.storage.interval_table import IntervalTableStore
from repro.workloads.documents import sized_corpus
from repro.workloads.queries import xpath_battery

SIZES = (10, 60, 250)
SCHEMES = ("ltree-compact", "ltree-sharded")


def _ids(elements):
    return [id(element) for element in elements]


@pytest.mark.parametrize("seed", [3, 41])
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_four_evaluators_agree_across_corpus(seed, scheme_name):
    corpus = sized_corpus(sizes=SIZES, seed=seed)
    for size, document in corpus.items():
        labeled = LabeledDocument(document,
                                  scheme=make_scheme(scheme_name))
        interval = IntervalTableStore(labeled)
        edge = EdgeTableStore(document)
        columnar = ColumnarStore.from_labeled(labeled)
        for query in xpath_battery(document, 15, seed=seed + size):
            truth = _ids(evaluate_dom(document, query))
            context = (scheme_name, size, str(query))
            assert _ids(evaluate_interval(interval, query)) == truth, \
                context
            assert _ids(evaluate_edge(edge, query)) == truth, context
            assert _ids(evaluate_columnar(columnar, query)) == truth, \
                context


@pytest.mark.parametrize("seed", [7, 19])
def test_snapshot_columnar_under_writers_matches_pre_pin(tmp_path, seed):
    corpus = sized_corpus(sizes=(120,), seed=seed)
    (_, document), = corpus.items()
    labeled = LabeledDocument(document, scheme=make_scheme("ltree-sharded"))
    labeled.save(str(tmp_path / "doc"))
    reopened = LabeledDocument.open(str(tmp_path / "doc"),
                                    concurrent=True)
    tree = reopened.scheme.tree
    queries = xpath_battery(reopened.document, 10, seed=seed)
    # the pre-pin serial evaluation every pinned read must reproduce
    expected = [_ids(evaluate_dom(reopened.document, query))
                for query in queries]
    store = ColumnarStore.from_snapshot(reopened, tree.snapshot())
    tokens_at_pin = len(list(tree.iter_leaves(include_deleted=False)))
    stop = threading.Event()
    # set once each writer has inserted: the reader starts after both,
    # so a writer that starts late (a full collection in its thread)
    # cannot finish the test before the engine moved
    inserted = [threading.Event() for _ in range(2)]
    errors = []

    def writer(writer_seed, first_insert):
        rng = random.Random(writer_seed)
        handles = list(tree.iter_leaves(include_deleted=False))
        try:
            while not stop.is_set():
                anchor = handles[rng.randrange(len(handles))]
                handles.append(tree.insert_after(
                    anchor, ("writer", writer_seed)))
                first_insert.set()
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)
        finally:
            first_insert.set()

    threads = [threading.Thread(target=writer,
                                args=(seed * 10 + i, inserted[i]))
               for i in range(2)]
    for thread in threads:
        thread.start()
    try:
        for event in inserted:
            assert event.wait(60), "a writer never inserted"
        for _ in range(4):
            for query, truth in zip(queries, expected):
                assert _ids(evaluate_columnar(store, query)) == truth, \
                    str(query)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors, errors
    # the engine really moved while we read
    assert len(list(tree.iter_leaves(include_deleted=False))) > \
        tokens_at_pin
    reopened.close()
