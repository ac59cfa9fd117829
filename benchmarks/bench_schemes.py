"""E8 — scheme comparison: L-Tree vs the baselines (paper §1/§5).

Benchmarks every registered scheme on the uniform and hotspot workloads
and asserts the paper's qualitative ordering inside the runs.  The
engine head-to-head section pits the array-backed ``ltree-compact``
engine against the node-object ``ltree`` on identical workloads, so the
compact engine's speedup (or any regression) is a tracked number in the
benchmark report, not a claim.  The vectorized column builders' speedup
over the per-node reference ``LTree.bulk_load`` is a row of the gate
table in ``benchmarks/compare_baselines.py``, over ``run_all.py``'s
``bulk_load`` suite.
"""

import pytest

from repro.core import vectorized
from repro.core.compact import CompactLTree
from repro.core.ltree import LTree
from repro.core.params import LTreeParams
from repro.core.stats import Counters
from repro.order.registry import SCHEMES, make_scheme
from repro.workloads import updates as W

N_OPS = 2000

WORKLOADS = {
    "uniform": lambda: W.uniform_inserts(N_OPS, seed=42),
    "hotspot": lambda: W.hotspot_inserts(N_OPS, seed=42),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_scheme_workload(benchmark, scheme_name, workload):
    def run():
        stats = Counters()
        scheme = make_scheme(scheme_name, stats)
        result = W.apply_workload(scheme, WORKLOADS[workload]())
        return result

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["relabels_per_insert"] = round(
        result.relabels_per_insert, 2)
    benchmark.extra_info["label_bits"] = result.label_bits


def test_paper_ordering_uniform(benchmark):
    """naive pays Θ(n) relabels; the L-Tree pays O(log n)."""
    def run():
        outcomes = {}
        for name in ("ltree", "naive"):
            stats = Counters()
            scheme = make_scheme(name, stats)
            outcomes[name] = W.apply_workload(
                scheme, W.uniform_inserts(N_OPS, seed=1))
        assert outcomes["ltree"].relabels_per_insert < \
            outcomes["naive"].relabels_per_insert / 10
        return outcomes

    benchmark.pedantic(run, rounds=1, iterations=1)


ENGINE_PARAMS = LTreeParams(f=16, s=4)
ENGINES = {"ltree": LTree, "ltree-compact": CompactLTree}
N_BULK = 100_000


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_bulk_load(benchmark, engine):
    """Head-to-head: bulk-loading N_BULK leaves on each engine."""
    cls = ENGINES[engine]

    def run():
        tree = cls(ENGINE_PARAMS)
        tree.bulk_load(range(N_BULK))
        return tree

    tree = benchmark.pedantic(run, rounds=3, iterations=1)
    assert tree.n_leaves == N_BULK


def test_vectorized_backends_label_identical(benchmark):
    """Both backends produce byte-identical engine images."""
    def run():
        images = {}
        for backend in ("array",) + (
                ("numpy",) if vectorized.HAS_NUMPY else ()):
            stats = Counters()
            with vectorized.use_backend(backend):
                scheme = make_scheme("ltree-compact", stats)
                W.apply_workload(scheme, W.mixed_workload(N_OPS, seed=7))
            images[backend] = (scheme.tree.to_bytes(), stats.as_dict())
        first = next(iter(images.values()))
        assert all(image == first for image in images.values())
        return sorted(images)

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_random_inserts(benchmark, engine):
    """Head-to-head: the uniform insert workload on each engine."""
    def run():
        stats = Counters()
        scheme = make_scheme(engine, stats)
        return W.apply_workload(scheme, W.uniform_inserts(N_OPS, seed=42))

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["relabels_per_insert"] = round(
        result.relabels_per_insert, 2)


def test_engines_label_equivalent(benchmark):
    """The two engines stay byte-identical on the benchmark workload.

    This is the inline guard that the head-to-head numbers above compare
    equal work: same labels, same counter totals, only the engine layout
    differs.  (The full harness is tests/core/test_compact_differential.)
    """
    def run():
        labels = {}
        counters = {}
        for name in ("ltree", "ltree-compact"):
            stats = Counters()
            scheme = make_scheme(name, stats)
            W.apply_workload(scheme, W.mixed_workload(N_OPS, seed=3))
            labels[name] = scheme.labels()
            counters[name] = stats.as_dict()
        assert labels["ltree"] == labels["ltree-compact"]
        assert counters["ltree"] == counters["ltree-compact"]
        return labels

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_paper_ordering_hotspot(benchmark):
    """gap collapses under skew; the L-Tree does not; prefix explodes
    in bits instead."""
    def run():
        outcomes = {}
        for name in ("ltree", "gap", "prefix"):
            stats = Counters()
            scheme = make_scheme(name, stats)
            outcomes[name] = W.apply_workload(
                scheme, W.hotspot_inserts(N_OPS, seed=1))
        assert outcomes["ltree"].relabels_per_insert < \
            outcomes["gap"].relabels_per_insert / 3
        assert outcomes["prefix"].label_bits > \
            10 * outcomes["ltree"].label_bits
        return outcomes

    benchmark.pedantic(run, rounds=1, iterations=1)
