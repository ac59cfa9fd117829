"""Persistence head-to-head: restore vs re-bulk_load, cold vs mmap.

The claim the persistence subsystem makes (and ROADMAP's disk-resident
open item needs): reopening a labeled tree from its struct-of-arrays
byte image must beat re-running the §2.2 bulk-load *algorithm* (the
per-node reference ``LTree.bulk_load``) — restore is six bulk int64
column copies — and the payload-free image that ``LabeledDocument.save``
writes must beat even the vectorized columnar rebuild.  The mmap fast path
must not lose to the page-by-page buffer-pool read.

The ordering itself is held by rows of the gate table in
``benchmarks/compare_baselines.py``, over ``run_all.py``'s ``bulk_load``
suite; the ``benchmark`` fixtures here record the magnitudes of each
path on its own.  ``test_document_save`` and ``test_document_open``
time a whole ``LabeledDocument`` on ``ltree-sharded``: its token
columns written in one DOM walk, and a concurrent reopen that rebuilds
the DOM in one pass over them.
"""

import pytest

from repro.core.compact import CompactLTree
from repro.core.params import LTreeParams
from repro.core.persistence import restore_compact, snapshot
from repro.labeling.scheme import LabeledDocument
from repro.order import make_scheme
from repro.storage.pages import PageStore
from repro.xml.generator import xmark_like
from repro.xml.serializer import serialize

PARAMS = LTreeParams(f=16, s=4)
N_LEAVES = 50_000


@pytest.fixture(scope="module")
def loaded_tree():
    tree = CompactLTree(PARAMS)
    tree.bulk_load(range(N_LEAVES))
    return tree


@pytest.fixture(scope="module")
def tree_bytes(loaded_tree):
    return loaded_tree.to_bytes()


@pytest.fixture(scope="module")
def store_path(loaded_tree, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("persist") / "tree.ltp")
    with PageStore(path) as store:
        loaded_tree.save(store)
    return path


def test_baseline_bulk_load(benchmark):
    def run():
        tree = CompactLTree(PARAMS)
        tree.bulk_load(range(N_LEAVES))
        return tree

    tree = benchmark.pedantic(run, rounds=3, iterations=1)
    assert tree.n_leaves == N_LEAVES


def test_restore_from_bytes(benchmark, tree_bytes, loaded_tree):
    tree = benchmark(CompactLTree.from_bytes, tree_bytes)
    assert tree.n_leaves == N_LEAVES
    assert tree.max_label() == loaded_tree.max_label()


def test_restore_cold_store(benchmark, store_path, loaded_tree):
    """Fresh store per round, page-by-page through the buffer pool."""

    def run():
        with PageStore(store_path) as store:
            return CompactLTree.load(store, prefer_mmap=False)

    tree = benchmark.pedantic(run, rounds=3, iterations=1)
    assert tree.labels() == loaded_tree.labels()


def test_restore_mmap(benchmark, store_path, loaded_tree):
    """Fresh store per round, columns copied straight from the mmap."""

    def run():
        with PageStore(store_path) as store:
            return CompactLTree.load(store, prefer_mmap=True)

    tree = benchmark.pedantic(run, rounds=3, iterations=1)
    assert tree.labels() == loaded_tree.labels()


def test_restore_label_decode(benchmark, loaded_tree):
    """The §4.2 label-decode path — correct but per-node work; the
    gap to ``from_bytes`` is the price of not storing the arrays."""
    data = snapshot(loaded_tree)
    tree = benchmark.pedantic(restore_compact, args=(data,), rounds=3,
                              iterations=1)
    assert tree.n_leaves == N_LEAVES


@pytest.fixture(scope="module")
def labeled_document():
    document = xmark_like(n_items=500, n_people=250, n_auctions=170,
                          seed=47)
    return LabeledDocument(document, scheme=make_scheme("ltree-sharded"))


@pytest.fixture(scope="module")
def document_path(labeled_document, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("document") / "doc.ltp")
    labeled_document.save(path)
    return path


def test_document_save(benchmark, labeled_document, tmp_path):
    """One save: the token columns, the shard images and ``meta``
    under one catalog flip; no XML is rendered."""
    path = str(tmp_path / "doc.ltp")
    benchmark.pedantic(labeled_document.save, args=(path,), rounds=3,
                       iterations=1)
    with PageStore(path) as store:
        assert store.has_blob("document.columns")
        assert not store.has_blob("document.xml")


def test_document_open(benchmark, labeled_document, document_path):
    """One ``open(concurrent=True)``: columns decoded, the DOM rebuilt
    on the scheme's live handles, no shard materialized."""
    opened = []

    def run():
        opened.append(LabeledDocument.open(document_path, concurrent=True))
        return opened[-1]

    reopened = benchmark.pedantic(run, rounds=3, iterations=1)
    try:
        assert reopened.scheme.tree.materialized_shards == []
        assert reopened.labels_in_order() == \
            labeled_document.labels_in_order()
        assert serialize(reopened.document) == \
            serialize(labeled_document.document)
    finally:
        for document in opened:
            document.close()
