"""Operation counters: the paper's cost model made executable.

Section 3.1 of the paper measures maintenance cost as *the number of nodes
accessed for searching or relabeling*, not wall-clock time.  Every structure
in this library therefore threads its work through a :class:`Counters`
instance so experiments can report exactly the quantity the paper analyzes.

The counter names mirror the three cost components of the paper's accounting
argument:

* ``count_updates`` — ancestor leaf-count increments (the ``h`` term);
* ``relabels``      — nodes whose ``num`` was (re)assigned (the ``f`` and
  ``2f/(s-1)`` terms);
* ``splits``        — node splits (never more than one per single insert,
  Proposition 3).

Additional counters (``node_accesses``, ``comparisons``, ``tuple_reads`` ...)
serve the storage and query substrates.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator


@dataclasses.dataclass
class Counters:
    """Mutable bundle of operation counters.

    Instances are cheap; create one per experiment run.  ``Counters`` support
    ``+``/``-`` (field-wise) so a window of activity can be measured by
    subtracting snapshots.
    """

    #: ancestor leaf-count increments performed by inserts
    count_updates: int = 0
    #: nodes whose label was written (first assignment or reassignment)
    relabels: int = 0
    #: number of node splits performed
    splits: int = 0
    #: generic structure-node touches (B-tree nodes, L-Tree nodes searched)
    node_accesses: int = 0
    #: label/key comparisons
    comparisons: int = 0
    #: tuples read by the relational substrate
    tuple_reads: int = 0
    #: tuples written by the relational substrate
    tuple_writes: int = 0
    #: completed insert operations (single leaves)
    inserts: int = 0
    #: completed delete (mark) operations
    deletes: int = 0
    #: per-node label fetches issued by the document layer (one per
    #: begin/end/region label read of a LabeledDocument)
    label_lookups: int = 0
    #: columnar re-pin: shard segments served unchanged from the cached
    #: store (version and prefix both matched the pinned epoch)
    shards_reused: int = 0
    #: columnar re-pin: shards whose label columns were re-extracted
    #: (dirty versions, or forwarding targets of rebalanced-away shards)
    shards_reextracted: int = 0
    #: columnar re-pin: per-shard column/index segments spliced into the
    #: cached store's position space
    segments_spliced: int = 0
    #: candidate positions eliminated by predicate pushdown *before* the
    #: containment join (vs the post-filter plan, which joins them all)
    pushdown_pruned: int = 0

    #: hot paths consult this flag and skip counter maintenance entirely
    #: when it is False (see NullCounters); a plain class attribute, not
    #: a dataclass field, so it never appears in as_dict()/arithmetic
    enabled = True

    def snapshot(self) -> "Counters":
        """Return an immutable-by-convention copy of the current values."""
        return dataclasses.replace(self)

    def reset(self) -> None:
        """Zero every counter in place."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)

    def total_maintenance_cost(self) -> int:
        """The paper's §3.1 cost: count updates plus relabeled nodes."""
        return self.count_updates + self.relabels

    def amortized_cost(self) -> float:
        """Maintenance cost per completed insert (0.0 when no inserts)."""
        if self.inserts == 0:
            return 0.0
        return self.total_maintenance_cost() / self.inserts

    def __add__(self, other: "Counters") -> "Counters":
        if not isinstance(other, Counters):
            return NotImplemented
        merged = Counters()
        for field in dataclasses.fields(self):
            value = getattr(self, field.name) + getattr(other, field.name)
            setattr(merged, field.name, value)
        return merged

    def __sub__(self, other: "Counters") -> "Counters":
        if not isinstance(other, Counters):
            return NotImplemented
        delta = Counters()
        for field in dataclasses.fields(self):
            value = getattr(self, field.name) - getattr(other, field.name)
            setattr(delta, field.name, value)
        return delta

    def as_dict(self) -> dict[str, int]:
        """Field-name → value mapping (for reports)."""
        return dataclasses.asdict(self)

    @contextmanager
    def window(self) -> Iterator["Counters"]:
        """Context manager yielding a delta populated on exit.

        >>> stats = Counters()
        >>> with stats.window() as delta:
        ...     stats.relabels += 3
        >>> delta.relabels
        3
        """
        before = self.snapshot()
        delta = Counters()
        try:
            yield delta
        finally:
            diff = self - before
            for field in dataclasses.fields(diff):
                setattr(delta, field.name, getattr(diff, field.name))


class NullCounters(Counters):
    """A counter sink whose increments instrumented code may skip.

    Behaves exactly like :class:`Counters` for any caller that does write
    to it, but advertises ``enabled = False`` so hot loops can hoist one
    flag check and drop per-touched-slot increments entirely — the
    non-instrumented engine then pays zero attribute-update cost instead
    of one dictionary write per ancestor/relabel/access.
    """

    enabled = False


#: Shared do-nothing sink for callers that do not care about statistics.
#: Using a real Counters keeps hot paths free of ``if stats is not None``;
#: its ``enabled = False`` flag additionally lets them skip increments.
NULL_COUNTERS = NullCounters()
