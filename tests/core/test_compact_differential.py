"""Differential harness: CompactLTree against the reference LTree.

Two layers of evidence that the array-backed engine is a faithful twin of
the node-object tree:

* a hypothesis rule-based machine (mirroring ``test_stateful.py``) drives
  both engines through identical randomized insert_after / insert_before /
  run-insert / delete / compact sequences and, after *every* step, checks
  identical label sequences, identical counter totals (count updates,
  relabels, splits, inserts, deletes) and both engines' structural
  invariants;
* a deterministic seeded sweep pushes >= 10k operations through every
  ``(f, s)`` parameter set under both violator policies, comparing labels
  periodically and counters at the end.

Any divergence — one label off, one relabel more — fails loudly, so the
compact engine cannot silently drift from the paper's algorithms.

Since PR 3 the compact engine's bulk/relabel arithmetic runs through
:mod:`repro.core.vectorized`, so the seeded sweep (which exercises
``insert_run_*`` batches and both violator policies) is parametrized
over the vectorized backends — the numpy fast path and the pure-Python
``array`` fallback — forced via the override, and a post-restore sweep
re-runs edits against the reference after a ``to_bytes``/``from_bytes``
round trip under each backend.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.core import vectorized
from repro.core.compact import CompactLTree
from repro.core.ltree import LTree
from repro.core.params import LTreeParams
from repro.core.sharded import RebalancePolicy, ShardedCompactLTree
from repro.core.stats import Counters
from repro.errors import InvariantViolation
from repro.storage.pages import PageStore

#: vectorized paths the differential sweeps must pass under
VECTOR_BACKENDS = ["array"] + (["numpy"] if vectorized.HAS_NUMPY else [])

PARAM_SETS = [(4, 2), (8, 2), (6, 3), (16, 4)]
POLICIES = ["highest", "lowest"]

#: counters that must stay pairwise identical between the two engines
COUNTER_FIELDS = ("count_updates", "relabels", "splits", "inserts",
                  "deletes")


class DifferentialMachine(RuleBasedStateMachine):
    """Drive both engines in lockstep; every divergence is a failure."""

    def __init__(self):
        super().__init__()
        self.counter = 0

    @initialize(f_s=st.sampled_from(PARAM_SETS),
                policy=st.sampled_from(POLICIES),
                initial=st.integers(1, 8))
    def setup(self, f_s, policy, initial):
        f, s = f_s
        params = LTreeParams(f=f, s=s)
        self.ref_stats = Counters()
        self.compact_stats = Counters()
        self.ref = LTree(params, self.ref_stats, violator_policy=policy)
        self.compact = CompactLTree(params, self.compact_stats,
                                    violator_policy=policy)
        self.ref_handles = list(self.ref.bulk_load(range(initial)))
        self.compact_handles = list(self.compact.bulk_load(range(initial)))

    def _fresh(self):
        self.counter += 1
        return f"item{self.counter}"

    @rule(position=st.integers(0, 10 ** 9), before=st.booleans())
    def insert(self, position, before):
        index = position % len(self.ref_handles)
        payload = self._fresh()
        if before:
            ref_leaf = self.ref.insert_before(self.ref_handles[index],
                                              payload)
            compact_leaf = self.compact.insert_before(
                self.compact_handles[index], payload)
            self.ref_handles.insert(index, ref_leaf)
            self.compact_handles.insert(index, compact_leaf)
        else:
            ref_leaf = self.ref.insert_after(self.ref_handles[index],
                                             payload)
            compact_leaf = self.compact.insert_after(
                self.compact_handles[index], payload)
            self.ref_handles.insert(index + 1, ref_leaf)
            self.compact_handles.insert(index + 1, compact_leaf)

    @rule(position=st.integers(0, 10 ** 9), length=st.integers(1, 20),
          before=st.booleans())
    def insert_run(self, position, length, before):
        index = position % len(self.ref_handles)
        payloads = [self._fresh() for _ in range(length)]
        if before:
            ref_new = self.ref.insert_run_before(self.ref_handles[index],
                                                 payloads)
            compact_new = self.compact.insert_run_before(
                self.compact_handles[index], payloads)
            self.ref_handles[index:index] = ref_new
            self.compact_handles[index:index] = compact_new
        else:
            ref_new = self.ref.insert_run_after(self.ref_handles[index],
                                                payloads)
            compact_new = self.compact.insert_run_after(
                self.compact_handles[index], payloads)
            self.ref_handles[index + 1:index + 1] = ref_new
            self.compact_handles[index + 1:index + 1] = compact_new

    @rule(position=st.integers(0, 10 ** 9))
    def delete(self, position):
        live = [index for index, leaf in enumerate(self.ref_handles)
                if not leaf.deleted]
        if len(live) <= 1:
            return
        index = live[position % len(live)]
        ref_leaf = self.ref_handles[index]
        compact_leaf = self.compact_handles[index]
        assert not self.compact.is_deleted(compact_leaf)
        self.ref.mark_deleted(ref_leaf)
        self.compact.mark_deleted(compact_leaf)

    @rule()
    def compact_vacuum(self):
        self.ref.compact()
        self.compact.compact()
        self.ref_handles = list(self.ref.iter_leaves())
        self.compact_handles = list(self.compact.iter_leaves())

    @invariant()
    def labels_identical(self):
        if not hasattr(self, "ref"):
            return
        assert self.ref.labels() == self.compact.labels()
        assert self.ref.labels(include_deleted=False) == \
            self.compact.labels(include_deleted=False)

    @invariant()
    def payloads_identical(self):
        if not hasattr(self, "ref"):
            return
        ref_payloads = [leaf.payload for leaf in self.ref.iter_leaves()]
        assert ref_payloads == self.compact.payloads()

    @invariant()
    def counters_identical(self):
        if not hasattr(self, "ref"):
            return
        ref_counts = self.ref_stats.as_dict()
        compact_counts = self.compact_stats.as_dict()
        for field in COUNTER_FIELDS:
            assert ref_counts[field] == compact_counts[field], field

    @invariant()
    def both_structurally_valid(self):
        if not hasattr(self, "ref"):
            return
        self.ref.validate()
        self.compact.validate()

    @invariant()
    def shapes_identical(self):
        if not hasattr(self, "ref"):
            return
        assert self.ref.height == self.compact.height
        assert self.ref.n_leaves == self.compact.n_leaves
        assert self.ref.tombstone_count() == self.compact.tombstone_count()


DifferentialStatefulTest = DifferentialMachine.TestCase
DifferentialStatefulTest.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


#: ops per (f, s, policy) cell of the seeded sweep; 6 cells x 2000 ops
#: exceeds the 10k-operation bar of the acceptance criteria
SWEEP_OPS = 2000


@pytest.fixture(params=VECTOR_BACKENDS)
def vector_backend(request):
    """Pin one vectorized backend for the duration of a test."""
    with vectorized.use_backend(request.param):
        yield request.param


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("f,s", [(4, 2), (6, 3), (16, 4)])
def test_seeded_differential_sweep(f, s, policy, vector_backend):
    """Thousands of mixed ops per parameter set, byte-identical labels,
    under each vectorized backend (forced via the override)."""
    params = LTreeParams(f=f, s=s)
    ref_stats, compact_stats = Counters(), Counters()
    ref = LTree(params, ref_stats, violator_policy=policy)
    compact = CompactLTree(params, compact_stats, violator_policy=policy)
    ref_handles = list(ref.bulk_load(range(3)))
    compact_handles = list(compact.bulk_load(range(3)))
    rng = random.Random(f * 1000 + s * 10 + (policy == "lowest"))
    for step in range(SWEEP_OPS):
        roll = rng.random()
        index = rng.randrange(len(ref_handles))
        if roll < 0.35:
            ref_handles.insert(
                index, ref.insert_before(ref_handles[index], step))
            compact_handles.insert(
                index, compact.insert_before(compact_handles[index], step))
        elif roll < 0.7:
            ref_handles.insert(
                index + 1, ref.insert_after(ref_handles[index], step))
            compact_handles.insert(
                index + 1,
                compact.insert_after(compact_handles[index], step))
        elif roll < 0.8:
            payloads = [(step, k) for k in range(rng.randint(1, 20))]
            ref_handles[index + 1:index + 1] = \
                ref.insert_run_after(ref_handles[index], payloads)
            compact_handles[index + 1:index + 1] = \
                compact.insert_run_after(compact_handles[index], payloads)
        elif roll < 0.9:
            payloads = [(step, k) for k in range(rng.randint(1, 20))]
            ref_handles[index:index] = \
                ref.insert_run_before(ref_handles[index], payloads)
            compact_handles[index:index] = \
                compact.insert_run_before(compact_handles[index], payloads)
        elif not ref_handles[index].deleted:
            ref.mark_deleted(ref_handles[index])
            compact.mark_deleted(compact_handles[index])
        if step % 250 == 0:
            assert ref.labels() == compact.labels(), (f, s, policy, step)
    assert ref.labels() == compact.labels()
    assert ref.labels(include_deleted=False) == \
        compact.labels(include_deleted=False)
    ref_counts, compact_counts = ref_stats.as_dict(), compact_stats.as_dict()
    for field in COUNTER_FIELDS:
        assert ref_counts[field] == compact_counts[field], (f, s, policy,
                                                            field)
    ref.validate()
    compact.validate()


@pytest.mark.parametrize("policy", POLICIES)
def test_bulk_load_labels_identical(policy):
    """Bulk loading alone yields identical label sequences at any size."""
    params = LTreeParams(f=8, s=2)
    ref = LTree(params, violator_policy=policy)
    compact = CompactLTree(params, violator_policy=policy)
    for size in (0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 500):
        ref.bulk_load(range(size))
        compact.bulk_load(range(size))
        assert ref.labels() == compact.labels(), size


def _drive_pair(rng_seed, ref, ref_handles, compact, compact_handles,
                n_ops):
    """One op stream applied to both engines (inserts, runs, deletes)."""
    for rng, tree, handles in ((random.Random(rng_seed), ref, ref_handles),
                               (random.Random(rng_seed), compact,
                                compact_handles)):
        for step in range(n_ops):
            roll = rng.random()
            index = rng.randrange(len(handles))
            if roll < 0.4:
                handles.insert(
                    index, tree.insert_before(handles[index], step))
            elif roll < 0.8:
                handles.insert(
                    index + 1, tree.insert_after(handles[index], step))
            elif roll < 0.95:
                payloads = [(step, k) for k in range(rng.randint(1, 12))]
                handles[index + 1:index + 1] = \
                    tree.insert_run_after(handles[index], payloads)
            else:
                victim = handles[index]
                deleted = victim.deleted if hasattr(victim, "deleted") \
                    else tree.is_deleted(victim)
                if not deleted:
                    tree.mark_deleted(victim)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("f,s", [(4, 2), (6, 3), (16, 4)])
def test_seeded_sharded_sweep(f, s, policy, tmp_path):
    """The 12k-op sweep, sharded vs flat: identical item order and
    liveness under the same op stream, labels strictly increasing
    across shard boundaries throughout — and, half-way through, the
    sharded side goes through a PageStore save → lazy reopen with
    bit-identical labels before the stream continues.

    Exact label *values* differ by design (the sharded space composes
    shard prefix ⊕ local label), so the contract is order-identity:
    both engines keep the same sequence in the same order, each under
    a strictly increasing label sequence.

    Every ~500 steps the sharded side also splits its fattest shard and
    merges its two smallest adjacent ones (the online-rebalance ops),
    then re-resolves every tracked handle through the forwarding table
    — the stream keeps running against the new epoch's directory.
    """
    params = LTreeParams(f=f, s=s)
    flat = CompactLTree(params, violator_policy=policy)
    sharded = ShardedCompactLTree(params, violator_policy=policy,
                                  n_shards=4)
    flat_handles = list(flat.bulk_load(range(12)))
    sharded_handles = list(sharded.bulk_load(range(12)))
    rng = random.Random(f * 1000 + s * 10 + (policy == "lowest"))
    store_path = str(tmp_path / "sweep.ltp")
    for step in range(SWEEP_OPS):
        roll = rng.random()
        index = rng.randrange(len(flat_handles))
        if roll < 0.35:
            flat_handles.insert(
                index, flat.insert_before(flat_handles[index], step))
            sharded_handles.insert(
                index, sharded.insert_before(sharded_handles[index],
                                             step))
        elif roll < 0.7:
            flat_handles.insert(
                index + 1, flat.insert_after(flat_handles[index], step))
            sharded_handles.insert(
                index + 1,
                sharded.insert_after(sharded_handles[index], step))
        elif roll < 0.8:
            # strings, not tuples: the mid-sweep byte image JSON-encodes
            # payloads, and JSON would hand tuples back as lists
            payloads = [f"{step}.{k}" for k in range(rng.randint(1, 20))]
            flat_handles[index + 1:index + 1] = \
                flat.insert_run_after(flat_handles[index], payloads)
            sharded_handles[index + 1:index + 1] = \
                sharded.insert_run_after(sharded_handles[index],
                                         payloads)
        elif roll < 0.9:
            payloads = [f"{step}~{k}" for k in range(rng.randint(1, 20))]
            flat_handles[index:index] = \
                flat.insert_run_before(flat_handles[index], payloads)
            sharded_handles[index:index] = \
                sharded.insert_run_before(sharded_handles[index],
                                          payloads)
        elif not flat.is_deleted(flat_handles[index]):
            flat.mark_deleted(flat_handles[index])
            sharded.mark_deleted(sharded_handles[index])
        if step % 250 == 0:
            labels = sharded.labels()
            assert labels == sorted(labels), (f, s, policy, step)
            assert sharded.payloads() == flat.payloads(), \
                (f, s, policy, step)
        if step % 500 == 250:
            report = sharded.shard_report()
            fat = max(report, key=lambda row: row["live"])
            if fat["leaves"] >= 2:
                sharded.split_shard(fat["id"], fat["leaves"] // 2)
            rows = sharded.shard_report()
            if len(rows) >= 3:
                left, right = min(
                    zip(rows, rows[1:]),
                    key=lambda pair: pair[0]["live"] + pair[1]["live"])
                sharded.merge_shards(left["id"], right["id"])
            sharded_handles = [sharded.resolve_handle(handle)
                               for handle in sharded_handles]
            assert sharded.payloads() == flat.payloads(), \
                (f, s, policy, step)
        if step == SWEEP_OPS // 2:
            # crash-restart the sharded side mid-stream: labels must
            # come back bit-identical, and the lazy reopen must keep
            # serving the same handles
            labels_before = sharded.labels()
            with PageStore(store_path) as store:
                sharded.save(store)
            with PageStore(store_path) as store:
                sharded = ShardedCompactLTree.load(
                    store, lazy=True)
            assert sharded.labels() == labels_before
            assert list(sharded.iter_leaves()) == sharded_handles
    assert sharded.payloads() == flat.payloads()
    assert sharded.payloads(include_deleted=False) == \
        flat.payloads(include_deleted=False)
    assert sharded.n_leaves == flat.n_leaves
    assert sharded.tombstone_count() == flat.tombstone_count()
    labels = sharded.labels()
    assert labels == sorted(labels)
    live = sharded.labels(include_deleted=False)
    assert live == sorted(live)
    flat.validate()
    sharded.validate()


@pytest.mark.parametrize("policy", POLICIES)
def test_post_restore_edits_differential(policy, vector_backend):
    """Vectorized relabels stay reference-identical across a byte-image
    round trip: edit, serialize, restore, edit again — labels and
    counters must match the never-serialized reference throughout."""
    params = LTreeParams(f=6, s=3)
    ref_stats, compact_stats = Counters(), Counters()
    ref = LTree(params, ref_stats, violator_policy=policy)
    compact = CompactLTree(params, compact_stats, violator_policy=policy)
    ref_handles = list(ref.bulk_load(range(5)))
    compact_handles = list(compact.bulk_load(range(5)))
    _drive_pair(101, ref, ref_handles, compact, compact_handles, 400)
    assert ref.labels() == compact.labels()

    restored_stats = Counters()
    restored = CompactLTree.from_bytes(compact.to_bytes(),
                                       stats=restored_stats)
    restored_handles = list(restored.iter_leaves())
    assert restored_handles == compact_handles
    ref_stats.reset()
    _drive_pair(202, ref, ref_handles, restored, restored_handles, 400)
    assert ref.labels() == restored.labels()
    assert ref.labels(include_deleted=False) == \
        restored.labels(include_deleted=False)
    ref_counts = ref_stats.as_dict()
    restored_counts = restored_stats.as_dict()
    for field in COUNTER_FIELDS:
        assert ref_counts[field] == restored_counts[field], field
    ref.validate()
    restored.validate()


def _walked_tombstones(tree):
    """Tombstoned leaves found by walking the tree (the old count)."""
    return sum(1 for leaf in tree.iter_leaves() if tree.is_deleted(leaf))


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_tombstone_count_matches_walk_and_reference(seed, vector_backend):
    """The O(1) tombstone count — one count over the tombstone column —
    equals the tombstoned leaves a walk finds and the reference tree's
    count: after seeded insert/run/delete streams, across a byte-image
    round trip (and further edits that recycle free slots), and after
    compaction."""
    params = LTreeParams(f=6, s=3)
    ref, compact = LTree(params), CompactLTree(params)
    ref_handles = list(ref.bulk_load(range(20)))
    compact_handles = list(compact.bulk_load(range(20)))
    for round_number in range(3):
        _drive_pair(seed * 10 + round_number, ref, ref_handles, compact,
                    compact_handles, 400)
        assert compact.tombstone_count() == \
            _walked_tombstones(compact) == ref.tombstone_count()
        compact.validate()
    assert compact.tombstone_count() > 0

    restored = CompactLTree.from_bytes(compact.to_bytes())
    assert restored.tombstone_count() == \
        _walked_tombstones(restored) == ref.tombstone_count()
    _drive_pair(seed * 10 + 7, ref, ref_handles, restored,
                compact_handles, 400)
    assert restored.tombstone_count() == \
        _walked_tombstones(restored) == ref.tombstone_count()
    restored.validate()

    restored.compact()
    ref.compact()
    assert restored.tombstone_count() == _walked_tombstones(restored) == \
        ref.tombstone_count() == 0
    restored.validate()


def test_validate_catches_tombstone_column_drift():
    """A tombstone mark on a slot no walk reaches as a deleted leaf makes
    the O(1) count lie, and ``validate`` must say so."""
    tree = CompactLTree(LTreeParams(f=4, s=2))
    leaves = tree.bulk_load(range(30))
    tree.mark_deleted(leaves[3])
    tree.validate()
    tree._deleted[tree.root] = 1         # behind mark_deleted's back
    with pytest.raises(InvariantViolation, match="tombstone"):
        tree.validate()


class ShardedRebalanceMachine(RuleBasedStateMachine):
    """Sharded engine with interleaved split/merge/rebalance against a
    flat-list oracle.

    The oracle is the plain Python list of ``(payload, deleted)`` the
    document order must always equal; handles recorded *before* a
    rebalance keep being used *after* it, so every rule exercises the
    forwarding table, and the invariants re-check payload order,
    liveness, sorted labels and the structural validator after every
    step."""

    def __init__(self):
        super().__init__()
        self.counter = 0

    @initialize(f_s=st.sampled_from([(4, 2), (8, 2)]),
                initial=st.integers(2, 24),
                n_shards=st.integers(1, 4))
    def setup(self, f_s, initial, n_shards):
        f, s = f_s
        self.tree = ShardedCompactLTree(LTreeParams(f=f, s=s),
                                        n_shards=n_shards)
        self.handles = list(self.tree.bulk_load(
            [f"seed{i}" for i in range(initial)]))
        self.oracle = [[f"seed{i}", False] for i in range(initial)]

    def _fresh(self):
        self.counter += 1
        return f"item{self.counter}"

    @rule(position=st.integers(0, 10 ** 9), before=st.booleans())
    def insert(self, position, before):
        index = position % len(self.handles)
        payload = self._fresh()
        if before:
            leaf = self.tree.insert_before(self.handles[index], payload)
            self.handles.insert(index, leaf)
            self.oracle.insert(index, [payload, False])
        else:
            leaf = self.tree.insert_after(self.handles[index], payload)
            self.handles.insert(index + 1, leaf)
            self.oracle.insert(index + 1, [payload, False])

    @rule(position=st.integers(0, 10 ** 9), length=st.integers(1, 12))
    def insert_run(self, position, length):
        index = position % len(self.handles)
        payloads = [self._fresh() for _ in range(length)]
        new = self.tree.insert_run_after(self.handles[index], payloads)
        self.handles[index + 1:index + 1] = new
        self.oracle[index + 1:index + 1] = [[p, False] for p in payloads]

    @rule(position=st.integers(0, 10 ** 9))
    def delete(self, position):
        live = [i for i, row in enumerate(self.oracle) if not row[1]]
        if len(live) <= 1:
            return
        index = live[position % len(live)]
        self.tree.mark_deleted(self.handles[index])
        self.oracle[index][1] = True

    @rule(pick=st.integers(0, 10 ** 9), cut=st.integers(0, 10 ** 9))
    def split(self, pick, cut):
        report = self.tree.shard_report()
        if len(report) >= 12:
            return
        row = report[pick % len(report)]
        if row["leaves"] < 2:
            return
        self.tree.split_shard(row["id"],
                              1 + cut % (row["leaves"] - 1))

    @rule(pick=st.integers(0, 10 ** 9))
    def merge(self, pick):
        ids = self.tree.shard_ids
        if len(ids) < 2:
            return
        position = pick % (len(ids) - 1)
        self.tree.merge_shards(ids[position], ids[position + 1])

    @rule()
    def policy_rebalance(self):
        self.tree.rebalance(RebalancePolicy(max_ratio=2.0,
                                            min_split_leaves=8,
                                            max_shards=12))

    @rule()
    def compact_vacuum(self):
        self.tree.compact()
        self.oracle = [row for row in self.oracle if not row[1]]
        self.handles = list(self.tree.iter_leaves())
        assert len(self.handles) == len(self.oracle)

    @invariant()
    def order_and_liveness_match_oracle(self):
        if not hasattr(self, "tree"):
            return
        assert self.tree.payloads() == [row[0] for row in self.oracle]
        assert self.tree.payloads(include_deleted=False) == \
            [row[0] for row in self.oracle if not row[1]]

    @invariant()
    def stale_handles_still_resolve(self):
        if not hasattr(self, "tree"):
            return
        for index in range(0, len(self.handles),
                           max(1, len(self.handles) // 8)):
            handle = self.handles[index]
            assert self.tree.payload(handle) == self.oracle[index][0]
            assert self.tree.is_deleted(handle) == self.oracle[index][1]

    @invariant()
    def labels_sorted_and_valid(self):
        if not hasattr(self, "tree"):
            return
        labels = self.tree.labels()
        assert labels == sorted(labels)
        self.tree.validate()


ShardedRebalanceStatefulTest = ShardedRebalanceMachine.TestCase
ShardedRebalanceStatefulTest.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
