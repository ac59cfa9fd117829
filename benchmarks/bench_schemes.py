"""E8 — scheme comparison: L-Tree vs the baselines (paper §1/§5).

Benchmarks every registered scheme on the uniform and hotspot workloads
and asserts the paper's qualitative ordering inside the runs.  The
engine head-to-head section pits the array-backed ``ltree-compact``
engine against the node-object ``ltree`` on identical workloads, so the
compact engine's speedup (or any regression) is a tracked number in the
benchmark report, not a claim.  The same applies to the vectorized
column builders: ``test_bulk_load_vectorized_speedup`` is the acceptance
gate holding the numpy and pure-Python batch paths to >= 6x and >= 2.6x
over the per-node reference ``LTree.bulk_load``.
"""

import time

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


def _best_bulk_seconds(engine, n, rounds=5):
    """Best-of-N wall time of bulk-loading ``n`` leaves on ``engine``."""
    best = float("inf")
    for _ in range(rounds):
        tree = engine(ENGINE_PARAMS)
        start = time.perf_counter()
        tree.bulk_load(range(n))
        best = min(best, time.perf_counter() - start)
    return best


def test_bulk_load_vectorized_speedup(benchmark, request):
    """Acceptance gate: the columnar bulk load beats the per-node
    reference ``LTree.bulk_load`` by >= 6x under numpy and >= 2.6x
    under the pure-Python batch path.

    The thresholds are double the old ones against the per-slot
    builder, which ran about 2x faster than the reference.  At 100k
    leaves on a 2-vCPU VM the numpy path lands at 6.4-10x and the pure
    path at 5.6-8.4x, so a pass certifies the vectorized column builders
    are actually engaged, not a lucky timer read.  Each side is the
    best of five loads, so one slow scheduler slice on a shared runner
    cannot fail the numpy leg's thinner margin.  Skipped under
    ``--benchmark-disable`` (like the persistence gate): a wall-clock
    ratio on a noisy smoke runner would flap; CI runs this gate by
    explicit node id with timers live.
    """
    if request.config.getoption("benchmark_disable"):
        pytest.skip("wall-clock gate needs timers (smoke run)")

    def compact_seconds(backend):
        with vectorized.use_backend(backend):
            return _best_bulk_seconds(CompactLTree, N_BULK)

    def run():
        reference = _best_bulk_seconds(LTree, N_BULK)
        ratios = {"array": reference / compact_seconds("array")}
        if vectorized.HAS_NUMPY:
            ratios["numpy"] = reference / compact_seconds("numpy")
        assert ratios["array"] >= 2.6, ratios
        if vectorized.HAS_NUMPY:
            assert ratios["numpy"] >= 6.0, ratios
        return ratios

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    for backend, ratio in ratios.items():
        benchmark.extra_info[f"speedup_{backend}"] = round(ratio, 2)


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
