"""E9 / F1 — query processing: one containment join vs edge self-joins.

Benchmarks the two RDBMS plans of the paper's §1 on XMark data and on a
deep chain, asserting the paper's claim: the label plan runs a single
self-join regardless of depth while the edge plan iterates per level.
"""

import pytest

from repro.core.stats import Counters
from repro.labeling.scheme import LabeledDocument
from repro.query.engine import evaluate_edge, evaluate_interval
from repro.query.xpath import parse_xpath
from repro.storage.edge_table import EdgeTableStore
from repro.storage.interval_table import IntervalTableStore

QUERY = "/site//increase"


@pytest.fixture(scope="module")
def stores(xmark_medium):
    labeled = LabeledDocument(xmark_medium)
    return (EdgeTableStore(xmark_medium),
            IntervalTableStore(labeled))


def test_interval_plan(benchmark, stores):
    _, interval = stores
    query = parse_xpath(QUERY)
    results = benchmark(evaluate_interval, interval, query)
    benchmark.extra_info["results"] = len(results)


def test_edge_plan(benchmark, stores):
    edge, _ = stores
    query = parse_xpath(QUERY)
    results = benchmark(evaluate_edge, edge, query)
    benchmark.extra_info["results"] = len(results)
    benchmark.extra_info["self_joins"] = edge.last_join_count


def test_plans_agree_and_interval_reads_less(benchmark, xmark_medium):
    def run():
        labeled = LabeledDocument(xmark_medium)
        interval_stats, edge_stats = Counters(), Counters()
        interval = IntervalTableStore(labeled, interval_stats)
        edge = EdgeTableStore(xmark_medium, edge_stats)
        query = parse_xpath(QUERY)
        interval_stats.reset()
        edge_stats.reset()
        a = evaluate_interval(interval, query)
        b = evaluate_edge(edge, query)
        assert [id(x) for x in a] == [id(x) for x in b]
        assert interval_stats.tuple_reads < edge_stats.tuple_reads
        return interval_stats.tuple_reads, edge_stats.tuple_reads

    reads = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["interval_reads"] = reads[0]
    benchmark.extra_info["edge_reads"] = reads[1]


def test_depth_independence(benchmark, chain_32):
    """Label plan cost is flat in depth; edge joins grow linearly."""
    def run():
        labeled = LabeledDocument(chain_32)
        interval = IntervalTableStore(labeled)
        edge = EdgeTableStore(chain_32)
        query = parse_xpath("/level0//level31")
        evaluate_interval(interval, query)
        evaluate_edge(edge, query)
        assert edge.last_join_count == 32
        return edge.last_join_count

    joins = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["edge_self_joins_at_depth_32"] = joins


def test_containment_probe(benchmark, labeled_small):
    """The primitive the paper optimizes: one ancestor test by labels."""
    document = labeled_small.document
    root = document.root
    target = list(document.find_all("increase"))[0]

    def probe():
        return labeled_small.is_ancestor(root, target)

    assert benchmark(probe) is True
