"""Structural join algorithms over (begin, end) region labels.

The paper's §1 plan — "exactly one self-join with label comparisons as
predicates" — leaves the *join algorithm* to the database.  This module
implements the three classic choices so experiment E11 can compare them:

* :func:`nested_loop_containment` — the θ-join a naive optimizer would
  run: every ancestor against every descendant, O(|A| · |D|);
* :func:`stack_tree_join` — the stack-based sort-merge join of
  Al-Khalifa et al. (the algorithm behind
  :func:`repro.storage.relational.merge_interval_join`), O(|A| + |D| +
  output);
* :func:`index_skip_join` — for each ancestor, a counted-B-tree range
  probe over descendant begins, O(|A| · log |D| + output): wins when
  ancestors are few and selective.

All three return identical pair sets (property-tested).

Join inputs are (begin, end, payload) triples; when they originate from
a labeled document each label is one O(1) scheme read
(:meth:`repro.labeling.scheme.LabeledDocument.region`).
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.core.stats import NULL_COUNTERS, Counters
from repro.storage.btree import CountedBTree

#: join input: (begin, end, payload) triples sorted by begin
Triple = tuple[Any, Any, Any]


def nested_loop_containment(ancestors: Sequence[Triple],
                            descendants: Sequence[Triple],
                            stats: Counters = NULL_COUNTERS
                            ) -> Iterator[tuple[Any, Any]]:
    """Quadratic baseline: test every (ancestor, descendant) pair."""
    for a_begin, a_end, a_payload in ancestors:
        stats.tuple_reads += 1
        for d_begin, d_end, d_payload in descendants:
            stats.tuple_reads += 1
            stats.comparisons += 1
            if a_begin < d_begin and d_end < a_end:
                yield a_payload, d_payload


def stack_tree_join(ancestors: Sequence[Triple],
                    descendants: Sequence[Triple],
                    stats: Counters = NULL_COUNTERS
                    ) -> Iterator[tuple[Any, Any]]:
    """Stack-based merge join (Al-Khalifa et al. 2002), output order by
    descendant; inputs must be sorted by begin."""
    stack: list[Triple] = []
    position = 0
    for d_begin, d_end, d_payload in descendants:
        stats.tuple_reads += 1
        while position < len(ancestors) and \
                ancestors[position][0] < d_begin:
            candidate = ancestors[position]
            position += 1
            stats.tuple_reads += 1
            while stack and stack[-1][1] < candidate[0]:
                stack.pop()
            stack.append(candidate)
        while stack and stack[-1][1] < d_begin:
            stack.pop()
        for a_begin, a_end, a_payload in stack:
            stats.comparisons += 1
            if a_begin < d_begin and d_end < a_end:
                yield a_payload, d_payload


def index_skip_join(ancestors: Sequence[Triple],
                    descendants: Sequence[Triple],
                    stats: Counters = NULL_COUNTERS,
                    index: CountedBTree | None = None
                    ) -> Iterator[tuple[Any, Any]]:
    """Per-ancestor index range probe on descendant begin labels.

    ``index`` may be supplied pre-built (begin -> (end, payload)); it is
    built on the fly otherwise (cost counted).  Probe node accesses are
    always charged to ``stats`` — a pre-built index's own counters
    belong to whoever built it, not to this join.
    """
    if index is None:
        index = CountedBTree(order=32, stats=stats)
        index.bulk_load(
            (d_begin, (d_end, d_payload))
            for d_begin, d_end, d_payload in descendants)
    for a_begin, a_end, a_payload in ancestors:
        stats.tuple_reads += 1
        for d_begin, (d_end, d_payload) in index.iter_range(
                a_begin, a_end, stats=stats):
            stats.comparisons += 1
            if d_end < a_end:
                yield a_payload, d_payload


#: algorithm name -> callable, for experiments and benches
JOIN_ALGORITHMS = {
    "nested-loop": nested_loop_containment,
    "stack-tree": stack_tree_join,
    "index-skip": index_skip_join,
}
