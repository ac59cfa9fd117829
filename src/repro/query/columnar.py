"""Vectorized, snapshot-pinned XPath evaluation over label columns.

The paper's §1 pitch is that region labels turn every XPath axis into
*one* self-join whose predicates are label comparisons — and those
comparisons are pure integer arithmetic, decidable from the label bits
alone (the property optimal ancestry-labeling schemes formalize:
Fraigniaud & Korman 2016; Dahlgaard, Knudsen & Rotbart 2014).  The
other evaluators in :mod:`repro.query.engine` execute that join
tuple-at-a-time over boxed Python triples; this module executes it as
**batch range-intersection passes over flat integer columns**:

* a :class:`ColumnarStore` shreds a labeled document once into
  per-element ``(begin, end, level)`` columns plus a per-tag position
  index.  Inputs come from the document's label reads, or, for
  lock-free reads under live writers, the pinned per-shard label
  columns of a :class:`repro.concurrent.engine.LabelSnapshot` via its
  ``label_column(shard_id)`` hook — one column per shard, read
  without a copy;
* :func:`evaluate_columnar` runs each axis step as one vectorized
  containment pass: context intervals sorted by ``begin``, a running
  ``maximum.accumulate`` over their ``end``s, and one ``searchsorted``
  probe per candidate.  Because all regions come from one document
  they form a laminar family, so *"some context interval starting
  before me ends after me"* is exactly *"some context interval
  contains me"* — an existence test, no pair materialization.  Child
  steps add the paper's level-adjacency check by running the same pass
  per candidate level against the context subset one level up.  It is
  a one-query :class:`QuerySession`.

Three batching layers keep a *stream* of queries cheap, not just one:

* **incremental pins** — ``from_snapshot(..., previous=store)`` (or
  :meth:`ColumnarStore.repin`) keys every per-shard column segment on
  the ``(shard id, write version)`` pairs the snapshot's ``epoch``
  already carries, re-extracts only the dirty shards' segments and
  splices them into a copy of the cached columns through per-shard
  gather indices kept from the first pin.  The DOM-stable structures
  (element list and its object array, levels, the per-tag index, the
  predicate memo, the gather indices) are shared outright, because
  engine-level writes move labels, never element positions or a live
  shard's slots.  A DOM edit through the
  :class:`~repro.labeling.scheme.LabeledDocument` does move element
  positions, so a re-pin after one (or against another document)
  rebuilds.  Shards rebalanced away since the previous pin are handled
  forwarding-table-aware (their cached handles are re-resolved through
  the snapshot's forwarding view); a directory epoch jump that keeps
  the membership (compact, bulk reload — slot maps may have been
  rewritten) falls back to a full rebuild;
* **multi-query batching** — a :class:`QuerySession` evaluates a batch
  against one pin, deduplicating common leading steps (a step-prefix
  trie over the batch) and sharing each context's sorted
  ``maximum.accumulate`` preparation across queries that branch off
  it, on both backends;
* **predicate pushdown** — ``[@name='value']`` filters are applied to
  the candidate positions *before* the containment join (memoized per
  store), instead of post-filtering joined results one row fetch at a
  time.

Backend discipline mirrors :mod:`repro.core.vectorized`: the numpy
int64 path is used when the active backend is ``numpy`` and every
label fits int64; otherwise a pure-Python ``array('q')``/``bisect``
path computes the same passes (plain lists above int64, so results are
always exact).  A store pinned from a snapshot holds columns no writer
can touch, so queries over it run lock-free under live
:class:`~repro.concurrent.engine.ConcurrentLTree` /
:class:`~repro.concurrent.service.ConcurrentDocument` writers.

Differential-tested against :func:`repro.query.engine.evaluate_dom`
over the seeded workload matrix (``tests/query``); the incremental
path is additionally held byte-identical to a full rebuild across
backends and rebalance epochs.
"""

from __future__ import annotations

import bisect
import time
from array import array
from typing import Any, Iterable, Optional, Sequence

from repro.core import vectorized
from repro.obs import METRICS, TRACER
from repro.core.stats import NULL_COUNTERS, Counters
from repro.errors import ParameterError
from repro.query.xpath import CHILD, Step, XPathQuery
from repro.xml.model import XMLElement

try:  # gated dependency, exactly like repro.core.vectorized
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: labels at or above this magnitude leave int64 — force the exact path
_INT64_SAFE = 2 ** 62


def _use_numpy(max_label: int) -> bool:
    return (_np is not None and vectorized.get_backend() == "numpy"
            and max_label < _INT64_SAFE)


class _PinState:
    """What an incremental re-pin needs to splice instead of rebuild.

    Captured by ``from_snapshot``: the labeled document pinned and its
    structural edit count, the pinned epoch's per-shard write versions
    and prefixes, and per shard the ``(positions, slots)`` gather
    indices of the ``begin`` and of the ``end`` column — which element
    positions the shard's labels feed, read from which of its slots
    (the two columns are indexed separately: an element spanning
    shards, like the root, draws its two labels from two different
    arenas).  Positions hold while the document and its edit count do,
    and a shard keeps its slots for as long as its id lives, so the
    indices carry over from re-pin to re-pin; only shards that receive
    a vanished shard's positions get new ones.
    """

    __slots__ = ("labeled", "structural_edits", "versions", "prefixes",
                 "begin_gathers", "end_gathers")

    def __init__(self, labeled: Any, structural_edits: int,
                 versions: dict[int, int],
                 prefixes: dict[int, int],
                 begin_gathers: dict[int, tuple[Any, Any]],
                 end_gathers: dict[int, tuple[Any, Any]]):
        self.labeled = labeled
        self.structural_edits = structural_edits
        self.versions = versions
        self.prefixes = prefixes
        self.begin_gathers = begin_gathers
        self.end_gathers = end_gathers


class ColumnarStore:
    """A document shredded into flat per-element label columns.

    Build through :meth:`from_labeled` (any scheme, labels read through
    the document) or :meth:`from_snapshot` (labels off a pinned
    :class:`~repro.concurrent.engine.LabelSnapshot`'s frozen byte
    images — the lock-free path).  Elements are stored in document
    order, so the ``begin`` column is strictly increasing and
    positions double as document-order ranks.
    """

    def __init__(self, elements: list[XMLElement],
                 begins: list[int], ends: list[int], levels: list[int],
                 stats: Counters = NULL_COUNTERS):
        self.stats = stats
        self.elements = elements
        max_label = max(ends, default=0)
        self.backend = "numpy" if _use_numpy(max_label) else "array"
        #: ``elements`` as an object array on the numpy backend, so an
        #: answer is one fancy-index gather (:meth:`elements_at`).  The
        #: cycle collector does not look inside numpy object arrays, so
        #: nothing the elements reach may refer back to this store: a
        #: cycle through the array would never be freed
        self._element_array = None
        if self.backend == "numpy":
            self._begin = _np.asarray(begins, dtype=_np.int64)
            self._end = _np.asarray(ends, dtype=_np.int64)
            self._level = _np.asarray(levels, dtype=_np.int64)
            self._element_array = _np.empty(len(elements), dtype=object)
            self._element_array[:] = elements
        else:
            kind = array if max_label < _INT64_SAFE else list
            self._begin = kind("q", begins) if kind is array else begins
            self._end = kind("q", ends) if kind is array else ends
            self._level = array("q", levels) if kind is array else levels
        by_tag: dict[str, list[int]] = {}
        for position, element in enumerate(elements):
            by_tag.setdefault(element.tag, []).append(position)
        self._by_tag = {tag: self._positions(positions)
                        for tag, positions in by_tag.items()}
        self._all = self._positions(range(len(elements)))
        #: snapshot epoch this store was pinned against (None for
        #: from_labeled stores) — equal epochs mean identical columns
        self.pinned_epoch: Optional[tuple] = None
        self._pin: Optional[_PinState] = None
        #: (test, key, value) -> pre-filtered positions; DOM-stable, so
        #: shared unchanged across incremental re-pins
        self._predicate_cache: dict[tuple, Any] = {}

    def _positions(self, values: Iterable[int]):
        return _index(self.backend, values)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_labeled(cls, labeled: Any,
                     stats: Counters = NULL_COUNTERS) -> "ColumnarStore":
        """Shred a :class:`~repro.labeling.scheme.LabeledDocument`.

        Labels come off ``labeled.region`` — two O(1) scheme reads per
        element — so this is the in-process construction path (queries
        see live labels; pair with :meth:`from_snapshot` to pin them
        against writers).
        """
        elements: list[XMLElement] = []
        begins: list[int] = []
        ends: list[int] = []
        levels: list[int] = []
        for element, _begin, _end, level in labeled.element_handles():
            region = labeled.region(element)
            elements.append(element)
            begins.append(region.begin)
            ends.append(region.end)
            levels.append(level)
        return cls(elements, begins, ends, levels, stats)

    @classmethod
    def from_snapshot(cls, labeled: Any, snapshot: Any,
                      stats: Counters = NULL_COUNTERS,
                      previous: Optional["ColumnarStore"] = None
                      ) -> "ColumnarStore":
        """Shred against a pinned label snapshot (lock-free inputs).

        One structural DOM pass collects each element's ``(shard_id,
        slot)`` handles; labels are then gathered off the snapshot's
        pinned per-shard label columns through
        :meth:`~repro.concurrent.engine.LabelSnapshot.label_column` —
        one column per shard, composed with the pinned stride.
        No locks are taken and the live engine is never consulted, so
        the resulting store (and every query over it) is immune to
        concurrent writers — including online shard rebalancing: the
        snapshot is pinned against a directory epoch, document handles
        minted before a pre-pin split/merge are resolved through the
        snapshot's forwarding view, and a rebalance committing *after*
        the pin changes nothing this store reads.  The *DOM* must be
        stable while queries run; engine-level writers (extra tokens,
        relabels, rebalances) are fine because the pin freezes every
        label this store reads.

        ``previous`` enables the **incremental** path: pass the store
        from an earlier pin of the same document and only the shards
        written (or rebalanced) since that pin are re-extracted — the
        clean shards' column segments, the element list, the per-tag
        index and the predicate memo are spliced/shared from the cache
        (see the module docstring for the exact fallback rules; the
        result is byte-identical to a full rebuild either way).  When
        nothing changed at all, ``previous`` itself is returned.  Each
        call is one ``query.pin`` or ``query.repin`` span and metric.
        """
        kind = "query.repin" if previous is not None else "query.pin"
        t0 = time.perf_counter()
        with TRACER.span(kind) as span:
            store = None
            if previous is not None:
                store = cls._splice_from(previous, labeled, snapshot,
                                         stats)
            if store is None:
                elements: list[XMLElement] = []
                begin_handles: list[tuple[int, int]] = []
                end_handles: list[tuple[int, int]] = []
                levels: list[int] = []
                resolve = getattr(snapshot, "resolve", lambda handle: handle)
                for element, begin_handle, end_handle, level in \
                        labeled.element_handles():
                    elements.append(element)
                    begin_handles.append(resolve(begin_handle))
                    end_handles.append(resolve(end_handle))
                    levels.append(level)
                columns: dict[int, Sequence[int]] = {}

                def column(shard_id: int) -> Sequence[int]:
                    cached = columns.get(shard_id)
                    if cached is None:
                        cached = columns[shard_id] = \
                            snapshot.label_column(shard_id)
                    return cached

                store = cls(elements,
                            _compose_labels(begin_handles, column,
                                            snapshot.shard_prefix),
                            _compose_labels(end_handles, column,
                                            snapshot.shard_prefix),
                            levels, stats)
                store._remember_pin(labeled, snapshot, begin_handles,
                                    end_handles)
                stats.shards_reextracted += len(columns)
            span.set(elements=len(store.elements),
                     unchanged=store is previous)
        if METRICS.enabled:
            METRICS.observe(kind + ".seconds", time.perf_counter() - t0)
            METRICS.inc(kind + "s")
        return store

    def _remember_pin(self, labeled: Any, snapshot: Any,
                      begin_handles: list[tuple[int, int]],
                      end_handles: list[tuple[int, int]]) -> None:
        """Capture the :class:`_PinState` a future re-pin splices from
        (skipped for snapshot-likes without a versioned epoch)."""
        epoch = getattr(snapshot, "epoch", None)
        if not isinstance(epoch, tuple) or not epoch:
            return
        begin_gathers = _gathers(begin_handles, self.backend)
        end_gathers = _gathers(end_handles, self.backend)
        prefixes = {sid: snapshot.shard_prefix(sid)
                    for sid in set(begin_gathers) | set(end_gathers)}
        self.pinned_epoch = epoch
        self._pin = _PinState(labeled, labeled.structural_edits,
                              dict(epoch[1:]), prefixes,
                              begin_gathers, end_gathers)

    @classmethod
    def _splice_from(cls, previous: "ColumnarStore", labeled: Any,
                     snapshot: Any, stats: Counters
                     ) -> Optional["ColumnarStore"]:
        """The incremental re-pin: patch only dirty shards' labels.

        Returns ``None`` whenever splicing cannot be *proven* identical
        to a full rebuild — no pin state, another document or a DOM
        edit since the pin (element positions moved), a backend flip,
        beyond-int64 columns, a membership-preserving directory-epoch
        jump (compact / bulk reload may have remapped slots behind
        unchanged ids), a broken forwarding chain, or labels leaving
        int64 — and the caller rebuilds from scratch.
        """
        pin = previous._pin
        epoch = getattr(snapshot, "epoch", None)
        if pin is None or not isinstance(epoch, tuple) or not epoch:
            return None
        if pin.labeled is not labeled or \
                pin.structural_edits != labeled.structural_edits:
            return None
        if epoch == previous.pinned_epoch:
            stats.shards_reused += len(pin.versions)
            return previous
        new_versions = dict(epoch[1:])
        if epoch[0] != previous.pinned_epoch[0] and \
                set(new_versions) == set(pin.versions):
            return None
        backend = "numpy" if (_np is not None and
                              vectorized.get_backend() == "numpy") \
            else "array"
        if previous.backend != backend or \
                isinstance(previous._begin, list):
            return None

        touched = set(pin.begin_gathers) | set(pin.end_gathers)
        dirty: list[int] = []
        vanished: list[int] = []
        reused = 0
        prefixes: dict[int, int] = {}
        for sid in sorted(touched):
            version = new_versions.get(sid)
            if version is None:
                vanished.append(sid)
                continue
            prefix = snapshot.shard_prefix(sid)
            prefixes[sid] = prefix
            if version == pin.versions.get(sid) and \
                    prefix == pin.prefixes.get(sid):
                reused += 1
            else:
                dirty.append(sid)
        begin_gathers, end_gathers = pin.begin_gathers, pin.end_gathers
        if vanished:
            try:
                begin_gathers, end_gathers, retargeted = _retarget(
                    begin_gathers, end_gathers, vanished,
                    snapshot.resolve, backend)
            except ValueError:
                return None
            for tid in retargeted:
                if tid not in prefixes:
                    prefixes[tid] = snapshot.shard_prefix(tid)
            dirty = sorted(set(dirty) | retargeted)

        if backend == "numpy":
            begins, ends = previous._begin.copy(), previous._end.copy()
        else:
            begins = array("q", previous._begin)
            ends = array("q", previous._end)
        spliced = 0
        try:
            for sid in dirty:
                prefix = prefixes[sid]
                local = snapshot.label_column(sid)
                if backend == "numpy":
                    local = _np.asarray(local, dtype=_np.int64)
                for gathers, out in ((begin_gathers, begins),
                                     (end_gathers, ends)):
                    gather = gathers.get(sid)
                    if gather is None:
                        continue
                    positions, slots = gather
                    if backend == "numpy":
                        values = local[slots]
                        # numpy would *wrap* on int64 overflow instead
                        # of raising, so guard the sum explicitly and
                        # let the full rebuild pick the exact
                        # representation
                        if prefix + int(values.max()) >= _INT64_SAFE:
                            return None
                        out[positions] = values + prefix
                    else:
                        for position, slot in zip(positions, slots):
                            out[position] = prefix + local[slot]
                    spliced += 1
        except OverflowError:
            return None

        store = cls.__new__(cls)
        store.stats = stats
        store.elements = previous.elements
        store._element_array = previous._element_array
        store.backend = backend
        store._begin = begins
        store._end = ends
        store._level = previous._level
        store._by_tag = previous._by_tag
        store._all = previous._all
        store._predicate_cache = previous._predicate_cache
        store.pinned_epoch = epoch
        store._pin = _PinState(labeled, pin.structural_edits,
                               new_versions, prefixes,
                               begin_gathers, end_gathers)
        stats.shards_reused += reused
        stats.shards_reextracted += len(dirty)
        stats.segments_spliced += spliced
        return store

    def repin(self, labeled: Any, snapshot: Any,
              stats: Optional[Counters] = None) -> "ColumnarStore":
        """``from_snapshot(labeled, snapshot, previous=self)`` sugar —
        the per-batch refresh loop's one-liner."""
        return ColumnarStore.from_snapshot(
            labeled, snapshot,
            self.stats if stats is None else stats, previous=self)

    # ------------------------------------------------------------------
    # column access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.elements)

    def tag_positions(self, test: str,
                      stats: Counters = NULL_COUNTERS):
        """Document-order positions matching a name test.

        Reading the per-tag index charges one ``tuple_read`` per entry
        — the same index-scan accounting
        :meth:`repro.storage.interval_table.IntervalTableStore
        .region_list` applies — against the *caller's* counters.
        """
        if test == "*":
            positions = self._all
        else:
            positions = self._by_tag.get(test)
            if positions is None:
                positions = self._positions(())
        stats.tuple_reads += len(positions)
        return positions

    def predicate_positions(self, test: str,
                            attribute: Optional[tuple[str, str]],
                            stats: Counters = NULL_COUNTERS):
        """Positions matching a name test *and* attribute predicate.

        The pushdown entry point: the ``[@key='value']`` filter runs
        over the per-tag index **before** any containment join sees the
        candidates, and the filtered list is memoized per store (the
        DOM is stable, so it never goes stale — re-pins share it).
        First computation charges one ``tuple_read`` per tag candidate
        examined; memo hits charge an index scan of the filtered list.
        ``pushdown_pruned`` counts the candidates the join never had to
        probe, either way.
        """
        if attribute is None:
            return self.tag_positions(test, stats)
        cache_key = (test,) + attribute
        positions = self._predicate_cache.get(cache_key)
        if positions is None:
            base = self.tag_positions(test, NULL_COUNTERS)
            key, value = attribute
            elements = self.elements
            stats.tuple_reads += len(base)
            positions = self._positions(
                position for position in base
                if elements[position].attributes.get(key) == value)
            self._predicate_cache[cache_key] = positions
            base_count = len(base)
        else:
            stats.tuple_reads += len(positions)
            base_count = len(self.tag_positions(test, NULL_COUNTERS))
        stats.pushdown_pruned += base_count - len(positions)
        return positions

    def element(self, position: int) -> XMLElement:
        return self.elements[position]

    def elements_at(self, positions) -> list[XMLElement]:
        """The elements at ``positions``, in the order given.

        On the numpy backend this is one gather over the object array
        kept beside :attr:`elements`, not one boxed int per answer.
        """
        if self._element_array is not None:
            return self._element_array[positions].tolist()
        elements = self.elements
        return [elements[position] for position in positions]


def _index(backend: str, values: Iterable[int]):
    """An int64 index column in the backend's representation."""
    if backend == "numpy":
        return _np.fromiter(values, dtype=_np.int64)
    return array("q", values)


def _gathers(handles: Sequence[tuple[int, int]], backend: str
             ) -> dict[int, tuple[Any, Any]]:
    """``shard id -> (positions, slots)`` gather indices of one label
    column's ``(shard_id, slot)`` handles."""
    grouped: dict[int, tuple[list[int], list[int]]] = {}
    for position, handle in enumerate(handles):
        positions, slots = grouped.setdefault(handle[0], ([], []))
        positions.append(position)
        slots.append(handle[1])
    return {sid: (_index(backend, positions), _index(backend, slots))
            for sid, (positions, slots) in grouped.items()}


def _retarget(begin_gathers: dict, end_gathers: dict,
              vanished: Sequence[int], resolve, backend: str
              ) -> tuple[dict, dict, set[int]]:
    """Move rebalanced-away shards' gather entries to the shards their
    slots now forward to.

    Each vanished ``(shard_id, slot)`` is chased through ``resolve``
    (the snapshot's forwarding view, which raises ``ValueError`` on a
    broken chain); only the shards that receive entries get new
    indices, holding any entries they had plus the moved ones.  Returns
    the new begin and end gather maps and the receiving ids.
    """
    retargeted: set[int] = set()
    result = []
    for gathers in (begin_gathers, end_gathers):
        gathers = dict(gathers)
        moved: dict[int, tuple[list[int], list[int]]] = {}
        for sid in vanished:
            gather = gathers.pop(sid, None)
            if gather is None:
                continue
            for position, slot in zip(gather[0].tolist(),
                                      gather[1].tolist()):
                tid, target = resolve((sid, slot))
                positions, slots = moved.setdefault(tid, ([], []))
                positions.append(position)
                slots.append(target)
        for tid, (positions, slots) in moved.items():
            if tid in gathers:
                positions += gathers[tid][0].tolist()
                slots += gathers[tid][1].tolist()
            gathers[tid] = (_index(backend, positions),
                            _index(backend, slots))
            retargeted.add(tid)
        result.append(gathers)
    return result[0], result[1], retargeted


def _compose_labels(handles: list[tuple[int, int]], column, prefix_of
                    ) -> list[int]:
    """Global labels of ``(shard_id, slot)`` handles via per-shard
    columns; ``prefix_of(shard_id)`` supplies each shard's directory
    prefix (position × stride), so composition works across rebalanced
    directories where ids are not positions."""
    if _np is not None and vectorized.get_backend() == "numpy" and handles:
        ids = _np.asarray([handle[0] for handle in handles],
                          dtype=_np.int64)
        slots = _np.asarray([handle[1] for handle in handles],
                            dtype=_np.int64)
        out = _np.empty(len(handles), dtype=object)
        exact = False
        for sid in sorted(set(int(value) for value in _np.unique(ids))):
            mask = ids == sid
            prefix = prefix_of(sid)
            try:
                gathered = _np.asarray(column(sid),
                                       dtype=_np.int64)[slots[mask]]
            except OverflowError:   # a column beyond int64
                exact = True
                break
            if prefix + int(gathered.max()) >= _INT64_SAFE:
                exact = True
                break
            out[mask] = gathered + prefix
        if not exact:
            return out.tolist()
    return [prefix_of(handle[0]) + column(handle[0])[handle[1]]
            for handle in handles]


# ---------------------------------------------------------------------------
# the vectorized axis-step passes
# ---------------------------------------------------------------------------
def _prepare_context(store: ColumnarStore, context, child_axis: bool):
    """Sorted-context structures of one containment pass, hoisted.

    Descendant axis: the context's begin column plus the running
    prefix-maximum over its ends.  Child axis: the same pair per
    distinct context level (the level-adjacency predicate restricts
    each candidate level to the context subset one level up).  Built
    once per context and cached by the :class:`QuerySession`, which
    reuses it across batched queries whose next step starts from the
    same context.
    """
    begin, end, level = store._begin, store._end, store._level
    if store.backend == "numpy":
        np = _np
        if child_axis:
            ctx_levels = level[context]
            by_parent_level: dict[int, tuple] = {}
            # levels are small non-negative ints: a bincount is the
            # cheap sorted distinct-values pass
            for parent_level in \
                    np.flatnonzero(np.bincount(ctx_levels)).tolist():
                anc = context[ctx_levels == parent_level]
                by_parent_level[parent_level] = (
                    begin[anc], np.maximum.accumulate(end[anc]))
            return by_parent_level
        return (begin[context], np.maximum.accumulate(end[context]))
    if child_axis:
        by_level: dict[int, tuple[list[int], list[int]]] = {}
        for position in context:
            entry = by_level.setdefault(level[position], ([], []))
            entry[0].append(begin[position])
            running = entry[1][-1] if entry[1] else end[position]
            entry[1].append(max(running, end[position]))
        return by_level
    ctx_begin = [begin[position] for position in context]
    ctx_maxend: list[int] = []
    running = None
    for position in context:
        value = end[position]
        running = value if running is None else max(running, value)
        ctx_maxend.append(running)
    return (ctx_begin, ctx_maxend)


def _match_step(store: ColumnarStore, cand, child_axis: bool,
                stats: Counters, prepared):
    """Candidate positions with a (suitably-leveled) context ancestor.

    One batch pass: context intervals sorted by begin, prefix-maximum
    over their ends, one binary probe + two label comparisons per
    candidate.  Laminarity makes the existence test containment (see
    module docstring); the child axis adds the level-adjacency
    predicate by restricting the context to ``level - 1`` per distinct
    candidate level.  ``prepared`` is the context's
    :func:`_prepare_context` result, ``None`` for an empty context.
    """
    if prepared is None or len(cand) == 0:
        return cand[:0]
    stats.comparisons += 2 * len(cand)
    if store.backend == "numpy":
        return _match_numpy(store, prepared, cand, child_axis)
    return _match_python(store, prepared, cand, child_axis)


def _match_numpy(store: ColumnarStore, prepared, cand, child_axis: bool):
    np = _np
    begin, end, level = store._begin, store._end, store._level
    if not child_axis:
        ctx_begin, ctx_maxend = prepared
        return cand[_exists_containing(ctx_begin, ctx_maxend,
                                       begin[cand], end[cand])]
    mask = np.zeros(len(cand), dtype=bool)
    cand_levels = level[cand]
    for child_level in np.flatnonzero(np.bincount(cand_levels)).tolist():
        pair = prepared.get(child_level - 1)
        if pair is None:
            continue
        sub = cand_levels == child_level
        mask[sub] = _exists_containing(pair[0], pair[1],
                                       begin[cand[sub]], end[cand[sub]])
    return cand[mask]


def _exists_containing(ctx_begin, ctx_maxend, d_begin, d_end):
    """True where some context interval contains the candidate.

    ``searchsorted(..., 'left') - 1`` is the last context begin
    strictly below the candidate's; the prefix maximum over ends then
    answers "does any of those reach past my end" — which, for a
    laminar family, is containment.
    """
    np = _np
    idx = np.searchsorted(ctx_begin, d_begin, side="left") - 1
    ok = idx >= 0
    np.maximum(idx, 0, out=idx)
    ok &= ctx_maxend[idx] > d_end
    return ok


def _match_python(store: ColumnarStore, prepared, cand, child_axis: bool):
    begin, end, level = store._begin, store._end, store._level
    if child_axis:
        def contains(position: int) -> bool:
            pair = prepared.get(level[position] - 1)
            if pair is None:
                return False
            idx = bisect.bisect_left(pair[0], begin[position]) - 1
            return idx >= 0 and pair[1][idx] > end[position]
    else:
        ctx_begin, ctx_maxend = prepared

        def contains(position: int) -> bool:
            idx = bisect.bisect_left(ctx_begin, begin[position]) - 1
            return idx >= 0 and ctx_maxend[idx] > end[position]

    return store._positions([position for position in cand
                             if contains(position)])


# ---------------------------------------------------------------------------
# the fourth evaluator
# ---------------------------------------------------------------------------
def _first_step_positions(store: ColumnarStore, step: Step,
                          stats: Counters):
    """Candidates of an absolute first step: pushdown-filtered tag
    positions, restricted to the root level for the child axis."""
    positions = store.predicate_positions(step.test, step.attribute,
                                          stats)
    if step.axis == CHILD:
        level = store._level
        positions = store._positions(
            position for position in positions if level[position] == 0)
    return positions


def evaluate_columnar(store: Any, query: XPathQuery,
                      stats: Counters = NULL_COUNTERS) -> list[XMLElement]:
    """Batch range-intersection XPath evaluation (module docstring).

    ``store`` is a :class:`ColumnarStore` — or an
    :class:`~repro.storage.interval_table.IntervalTableStore`, whose
    :meth:`~repro.storage.interval_table.IntervalTableStore.columnar`
    view is used.  Same front end and results as the other three
    evaluators (elements in document order); all index scans,
    comparisons and attribute row fetches are charged to ``stats``.
    Attribute predicates are pushed down into candidate generation
    (filtered before the containment join — commutative with the
    post-filter plan, because the predicate reads only the element).
    This is a one-query :class:`QuerySession`; for a *batch* of
    queries against one store, keep the session, which shares work
    between them.
    """
    return QuerySession(store, stats).evaluate(query)


class QuerySession:
    """Evaluates a batch of XPath queries against one pinned store.

    Work shared across the batch, on both backends:

    * **leading-step dedup** — step results are memoized under the
      tuple of ``(axis, test, attribute)`` step keys evaluated so far,
      so ``//a/b/c`` and ``//a/b/d`` compute ``//a/b`` once (a prefix
      trie over the batch, flattened into a dict);
    * **shared context preparation** — when two queries' next steps
      branch off the same memoized context, the sorted-context
      ``maximum.accumulate`` structures (:func:`_prepare_context`) are
      built once and reused for every sibling step;
    * the store-level per-tag index and pushdown predicate memos.

    Counters reflect work actually performed: a step served from the
    session cache charges nothing, which is exactly the saving the
    session exists to make observable.  Sessions are cheap — make one
    per (re-)pin; the caches die with it, the store's own memos
    survive into the next pin.

    Every step runs as one serial vectorized pass; ``parallel`` must
    be ``False``.
    """

    def __init__(self, store: Any, stats: Counters = NULL_COUNTERS,
                 parallel: bool = False):
        if parallel:
            raise ParameterError(
                "QuerySession(parallel=True) is not supported: each "
                "step runs as one serial vectorized pass")
        if not isinstance(store, ColumnarStore):
            store = store.columnar()
        self.store = store
        self.stats = stats
        #: session memo traffic — hits are steps served from the cache,
        #: misses computed ones; :meth:`memo_hit_ratio` is the headline
        self.step_hits = 0
        self.step_misses = 0
        self._steps: dict[tuple, Any] = {}
        self._prepared: dict[tuple[int, bool], Any] = {}
        # cached step results keep every context object alive, so the
        # id()-keyed prepared-context cache can never alias a recycled
        # address; belt-and-braces for contexts cached transiently
        self._keepalive: list[Any] = []

    def positions(self, query: XPathQuery):
        """Matching document-order positions (the element-free core)."""
        store, stats = self.store, self.stats
        key: tuple = ()
        positions = None
        for index, step in enumerate(query.steps):
            key += ((step.axis, step.test, step.attribute),)
            cached = self._steps.get(key)
            obs = METRICS.enabled
            if cached is not None:
                positions = cached
                self.step_hits += 1
                if obs:
                    METRICS.inc("query.session.step_hits")
                continue
            self.step_misses += 1
            if obs:
                METRICS.inc("query.session.step_misses")
            t0 = time.perf_counter() if obs else 0.0
            if index == 0:
                positions = _first_step_positions(store, step, stats)
            else:
                cand = store.predicate_positions(
                    step.test, step.attribute, stats)
                positions = _match_step(
                    store, cand, step.axis == CHILD, stats,
                    self._prepare(positions, step.axis == CHILD))
            if obs:
                METRICS.observe("query.step.seconds",
                                time.perf_counter() - t0)
            self._steps[key] = positions
        return positions

    def memo_hit_ratio(self) -> float:
        """Fraction of steps served from the session memo so far."""
        total = self.step_hits + self.step_misses
        return self.step_hits / total if total else 0.0

    def _prepare(self, context, child_axis: bool):
        if len(context) == 0:
            return None
        cache_key = (id(context), child_axis)
        prepared = self._prepared.get(cache_key)
        if prepared is None:
            prepared = _prepare_context(self.store, context, child_axis)
            self._prepared[cache_key] = prepared
            self._keepalive.append(context)
        return prepared

    def evaluate(self, query: XPathQuery) -> list[XMLElement]:
        """One query's elements, sharing the session's caches."""
        return self.store.elements_at(self.positions(query))

    def evaluate_batch(self, queries: Sequence[XPathQuery]
                       ) -> list[list[XMLElement]]:
        """All queries' results, in order, with cross-query sharing."""
        return [self.evaluate(query) for query in queries]


def evaluate_batch(store: Any, queries: Sequence[XPathQuery],
                   stats: Counters = NULL_COUNTERS
                   ) -> list[list[XMLElement]]:
    """One-shot :class:`QuerySession` over ``queries`` (result order
    matches input order; each result list is in document order)."""
    return QuerySession(store, stats).evaluate_batch(queries)
