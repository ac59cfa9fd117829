"""The vectorized column builders against the reference L-Tree.

Three layers of evidence that :mod:`repro.core.vectorized` builds
exactly the tree the reference :meth:`repro.core.ltree.LTree.bulk_load`
builds:

* offsets: :func:`complete_leaf_offsets` equals ``spread_digits`` applied
  index by index, across a parameter grid and at arbitrary precision;
* columns: a bulk load under every backend matches the reference tree
  node by node (label, height, leaf count, children) with the counter
  totals, lays its slots out as :class:`BulkColumns` promises, and the
  array and numpy backends produce *byte-identical* engine images;
* selection: the backend override machinery, including the silent
  fall-back of the numpy path to exact Python arithmetic whenever labels
  could overflow int64.
"""

import pytest

from repro.core import vectorized
from repro.core.compact import CompactLTree
from repro.core.ltree import LTree
from repro.core.params import LTreeParams, spread_digits
from repro.core.stats import Counters
from repro.errors import ParameterError

#: backends every parity test must pass under
BACKENDS_UNDER_TEST = ["array"] + (
    ["numpy"] if vectorized.HAS_NUMPY else [])


class TestLeafOffsets:
    @pytest.mark.parametrize("arity,base", [(2, 3), (2, 5), (4, 17),
                                            (3, 7), (8, 9)])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 63, 64, 65, 200])
    def test_matches_spread_digits(self, n, arity, base):
        height = 0
        while arity ** height < n:
            height += 1
        height = max(height, 1)
        expected = [spread_digits(i, arity, base, height)
                    for i in range(n)]
        for backend in BACKENDS_UNDER_TEST:
            with vectorized.use_backend(backend):
                assert vectorized.complete_leaf_offsets(
                    n, arity, base, height) == expected, backend

    def test_empty(self):
        assert vectorized.complete_leaf_offsets(0, 2, 3, 1) == []

    def test_arbitrary_precision_beyond_int64(self):
        """Labels past 2**63 silently route around numpy and stay exact."""
        base = 2 ** 40
        n, arity, height = 5, 2, 3
        expected = [spread_digits(i, arity, base, height)
                    for i in range(n)]
        for backend in ("array",) + (
                ("numpy",) if vectorized.HAS_NUMPY else ()):
            with vectorized.use_backend(backend):
                offsets = vectorized.complete_leaf_offsets(
                    n, arity, base, height)
            assert offsets == expected
            assert offsets[-1] > 2 ** 63


def _preorder(tree):
    """Slots of a compact tree in pre-order (each level left to right)."""
    stack = [tree.root]
    while stack:
        slot = stack.pop()
        yield slot
        stack.extend(reversed(tree.children_of(slot)))


#: the (n, f, s) grid every bulk-load test sweeps
SIZES = pytest.mark.parametrize("n", [1, 2, 5, 16, 17, 64, 500])
FANOUTS = pytest.mark.parametrize("f,s", [(4, 2), (6, 3), (16, 4)])


class TestColumns:
    @FANOUTS
    @SIZES
    def test_matches_reference_ltree(self, n, f, s):
        """Walk both trees together: same label, height, leaf count,
        payload and number of children at every node, same counter
        totals."""
        params = LTreeParams(f=f, s=s)
        ref_stats = Counters()
        reference = LTree(params, ref_stats)
        reference.bulk_load(range(n))
        for backend in BACKENDS_UNDER_TEST:
            stats = Counters()
            with vectorized.use_backend(backend):
                tree = CompactLTree(params, stats)
                tree.bulk_load(range(n))
            tree.validate()
            pairs = [(tree.root, reference.root)]
            visited = 0
            while pairs:
                slot, node = pairs.pop()
                visited += 1
                assert tree.num(slot) == node.num, backend
                assert tree.height_of(slot) == node.height, backend
                assert tree.leaf_count_of(slot) == node.leaf_count
                assert tree.payload(slot) == node.payload
                children = tree.children_of(slot)
                assert len(children) == len(node.children or ()), backend
                pairs.extend(zip(children, node.children or ()))
            assert visited == tree.allocated_slots, backend
            assert stats.as_dict() == ref_stats.as_dict(), backend

    @FANOUTS
    @SIZES
    def test_slot_layout(self, n, f, s):
        """Leaves at slots 0..n-1 in order, internal levels bottom-up,
        the root last (the :class:`BulkColumns` layout)."""
        for backend in BACKENDS_UNDER_TEST:
            tree = CompactLTree(LTreeParams(f=f, s=s))
            with vectorized.use_backend(backend):
                assert tree.bulk_load(range(n)) == list(range(n))
            assert [tree.payload(slot) for slot in range(n)] == \
                list(range(n))
            levels: dict[int, list[int]] = {}
            for slot in _preorder(tree):
                levels.setdefault(tree.height_of(slot), []).append(slot)
            first = 0
            for height in sorted(levels):
                slots = levels[height]
                assert slots == list(range(first, first + len(slots))), \
                    (backend, height)
                first += len(slots)
            assert len(levels[0]) == n
            assert tree.root == first - 1 == tree.allocated_slots - 1

    @FANOUTS
    @SIZES
    def test_byte_identical_images_across_backends(self, n, f, s):
        """The array and numpy backends build the same engine image."""
        params = LTreeParams(f=f, s=s)
        images = {}
        counters = {}
        for backend in BACKENDS_UNDER_TEST:
            stats = Counters()
            with vectorized.use_backend(backend):
                tree = CompactLTree(params, stats)
                tree.bulk_load(range(n))
            tree.validate()
            images[backend] = tree.to_bytes()
            counters[backend] = stats.as_dict()
        assert len(set(images.values())) == 1, (n, f, s)
        first = counters[BACKENDS_UNDER_TEST[0]]
        assert all(counts == first for counts in counters.values())

    def test_rejects_bad_shapes(self):
        with pytest.raises(ParameterError):
            vectorized.left_complete_columns(0, 2, 3, 1)
        with pytest.raises(ParameterError):
            vectorized.left_complete_columns(9, 2, 3, 3)  # 9 > 2**3

    def test_columns_shape(self):
        columns = vectorized.left_complete_columns(5, 2, 5, 3)
        # 5 leaves + levels of 3, 2, 1 internal nodes
        assert columns.total == 5 + 3 + 2 + 1
        assert columns.root == columns.total - 1
        assert columns.num[columns.root] == 0
        assert columns.parents[columns.root] == vectorized.NIL
        assert columns.leaf_counts[columns.root] == 5
        assert columns.heights[columns.root] == 3


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError):
            vectorized.set_backend("cuda")

    def test_auto_resolves(self):
        with vectorized.use_backend("auto"):
            expected = "numpy" if vectorized.HAS_NUMPY else "array"
            assert vectorized.get_backend() == expected

    def test_use_backend_restores_previous(self):
        before = vectorized.get_backend()
        with vectorized.use_backend("array"):
            assert vectorized.get_backend() == "array"
        assert vectorized.get_backend() == before

    def test_set_backend_returns_previous(self):
        before = vectorized.get_backend()
        previous = vectorized.set_backend("array")
        try:
            assert previous == before
        finally:
            vectorized.set_backend(before)

    @pytest.mark.skipif(vectorized.HAS_NUMPY, reason="numpy importable")
    def test_numpy_without_numpy_rejected(self):
        with pytest.raises(ParameterError):
            vectorized.set_backend("numpy")
