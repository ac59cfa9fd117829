"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one experiment from DESIGN.md's index
(`pytest benchmarks/ --benchmark-only`).  Wall-clock numbers come from
pytest-benchmark; the paper's own cost unit (nodes touched) is asserted
inside the benchmarked callables via Counters, so a passing run certifies
both speed and shape.
"""

from __future__ import annotations

import pytest

from repro.labeling.scheme import LabeledDocument
from repro.xml.generator import deep_document, xmark_like


@pytest.fixture(scope="session")
def xmark_small():
    return xmark_like(n_items=30, n_people=15, n_auctions=10, seed=42)


@pytest.fixture(scope="session")
def xmark_medium():
    return xmark_like(n_items=120, n_people=60, n_auctions=40, seed=43)


@pytest.fixture(scope="session")
def chain_32():
    return deep_document(32)


@pytest.fixture()
def labeled_small(xmark_small):
    # function-scoped: labeling writes the nodes' begin and end slots
    return LabeledDocument(xmark_small)
