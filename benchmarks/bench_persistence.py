"""Persistence head-to-head: restore vs re-bulk_load, cold vs mmap.

The claim the persistence subsystem makes (and ROADMAP's disk-resident
open item needs): reopening a labeled tree from its struct-of-arrays
byte image must beat re-running the §2.2 bulk-load *algorithm* (the
per-node reference ``LTree.bulk_load``) — restore is six bulk int64
column copies — and the payload-free image that ``LabeledDocument.save``
writes must beat even the vectorized columnar rebuild.  The mmap fast path
must not lose to the page-by-page buffer-pool read.

``test_restore_beats_bulk_load`` asserts the ordering outright (with a
wide margin so CI noise cannot flip it); the ``benchmark`` fixtures
record the actual magnitudes for the BENCH trajectory.
"""

import time

import pytest

from repro.core.compact import CompactLTree
from repro.core.ltree import LTree
from repro.core.params import LTreeParams
from repro.core.persistence import restore_compact, snapshot
from repro.storage.pages import PageStore

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


def _best_of(callable_, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_restore_beats_bulk_load(request, store_path, loaded_tree):
    """Acceptance gate: restoring must be measurably faster than
    re-running the §2.2 bulk-load *algorithm*, and the payload-free
    image (the configuration ``LabeledDocument.save`` actually writes —
    payloads are re-derived from the XML text on open) must beat even
    PR 3's vectorized columnar rebuild.

    ``from_bytes`` *adopts* its ``array('q')`` columns as storage
    instead of boxing every slot to a Python int — at 50k leaves the
    payload-free restore runs ~20x faster than the vectorized columnar
    rebuild, and the reference algorithm takes 179-227x the payload-free
    restore and 16-17x the mmap restore, so the gate margins are wide
    multiples.

    Skipped under ``--benchmark-disable``: the smoke runs exist to check
    collection and correctness, and a wall-clock assertion there would
    make the tier-1 matrix flaky; the persistence CI job runs this gate
    by explicit node id with timers live.
    """
    if request.config.getoption("benchmark_disable"):
        pytest.skip("wall-clock gate needs timers (smoke run)")

    document_bytes = loaded_tree.to_bytes(include_payloads=False)

    def bulk_vectorized():
        CompactLTree(PARAMS).bulk_load(range(N_LEAVES))

    def bulk_reference():
        LTree(PARAMS).bulk_load(range(N_LEAVES))

    def from_bytes():
        CompactLTree.from_bytes(document_bytes)

    def from_mmap():
        with PageStore(store_path) as store:
            CompactLTree.load(store, prefer_mmap=True)

    vector_time = _best_of(bulk_vectorized)
    reference_time = _best_of(bulk_reference)
    bytes_time = _best_of(from_bytes)
    mmap_time = _best_of(from_mmap)
    # margins carry slack below the locally observed gaps (~200x and
    # ~16x against the reference algorithm, ~20x against the columnar
    # rebuild) so scheduler noise on a shared CI runner cannot flip
    # the gate
    assert bytes_time * 6 < reference_time, \
        f"restore {bytes_time:.4f}s not faster than the §2.2 " \
        f"algorithm {reference_time:.4f}s"
    assert mmap_time * 3 < reference_time, \
        f"mmap restore {mmap_time:.4f}s slower than the §2.2 " \
        f"algorithm {reference_time:.4f}s"
    assert bytes_time * 4 < vector_time, \
        f"payload-free restore {bytes_time:.4f}s lost to the " \
        f"vectorized rebuild {vector_time:.4f}s"
