"""Sharded label spaces: per-subtree compact arenas behind a directory.

A :class:`ShardedCompactLTree` splits one logical ordered list across
*contiguous* :class:`repro.core.compact.CompactLTree` arenas.  Every
operation routes to exactly one shard — the one owning the anchor
handle — so writers touching disjoint regions (in the document
workload: disjoint top-level subtrees) never contend on, or relabel
across, each other's arenas.  Splits, §4.1 run inserts, and relabels
are shard-local by construction.

**The shard directory.**  Shards are named by stable integer **ids**,
not positions.  An immutable :class:`_Directory` object maps the id
set to document order: ``ids`` (the order), ``positions`` (id →
position), ``shards`` (id → arena) and the stride, stamped with an
**epoch** that increments on every membership change (bulk load,
:meth:`split_shard`, :meth:`merge_shards`, :meth:`compact`).  The
directory is never mutated in place — every change installs a fresh
object in one reference assignment — so a concurrent reader that grabs
the directory once composes labels from one consistent (order, stride)
cut even while a rebalance swaps the membership under it.

**Label composition.**  The paper's own structure invites this: an
L-Tree label is a root prefix plus a subtree-local suffix, the same
composition that lets optimal ancestry schemes label subtrees
independently (Fraigniaud & Korman 2016; Dahlgaard et al. 2014).  Here
the global label of handle ``(shard_id, slot)`` is::

    position(shard_id) * stride + local_label
    stride = base ** directory_height

where ``directory_height`` is the tallest shard's height.  Local labels
are always below ``base ** height <= stride``, so shard-local label
sequences concatenate into a globally strictly increasing sequence with
**zero** cross-shard relabeling.  When one shard grows past the
directory height — the only way the shard directory can overflow — the
stride is bumped one power of the base.  That is the root-level
rebuild, and because global labels are *composed on read* rather than
stored, it costs O(1) and relabels nothing (``directory_rebuilds``
counts the bumps).

**Online rebalancing.**  :meth:`split_shard` cuts one arena in two and
:meth:`merge_shards` folds two adjacent arenas into one, each rewriting
*only* the affected arenas (fresh bulk loads of their leaf runs,
tombstones preserved) and re-deriving every global label through the
stride machinery — untouched shards keep their bytes, their handles
and their counters.  A :class:`RebalancePolicy` plans such actions from
:meth:`shard_report` occupancy stats (size-ratio and tombstone
thresholds), and :meth:`rebalance` applies them until the directory is
balanced.

**Handle stability.**  Handles are ``(shard_id, local_slot)`` pairs.
``bulk_load`` and :meth:`compact` invalidate them (same contract as the
flat engine), but a split or merge does **not**: each rebalance records
one immutable entry per retired id in a grow-only **forwarding table**,
and every routing path resolves a handle through it (:func:`forward`)
— chasing chains across multiple epochs — before touching an arena.
Split and merge products are bulk loads, so leaf *k* of a run lands at
slot *k*; an entry is therefore just the retired arena's slot-indexed
leaf ranks plus where the run was cut and which ids took each side.
An old handle held across any number of splits keeps resolving, the
way tombstones outlive deletes.

**Cost accounting.**  By default every shard reports into the one
``stats`` sink the tree was built with, so aggregate counters mean what
they do on the flat engine.  Pass ``shard_stats=True`` to give each
shard its own :class:`~repro.core.stats.Counters` — the instrument
behind the isolation guarantee: an insert into one shard provably
leaves every other shard's counters untouched
(``tests/core/test_sharded.py``).

**Persistence** (:meth:`save` / :meth:`load`) writes one ``LTREEARR``
byte image per shard — each its own blob span in a
:class:`repro.storage.pages.PageStore` — plus a JSON manifest (with a
CRC32 per image, checked on load) and, once a rebalance has retired a
shard, one binary blob of forwarding columns.  The manifest carries the
directory itself — id order, epoch, forwarding entries, next unused id
— so a reopened tree resolves pre-crash handles identically.  Loading
is **shard-lazy** by default: only the manifest and the forwarding blob
are decoded; a shard's arena is deserialized the first time an
operation *writes* it (or needs its structure).  Pure label reads —
``num``, ``is_deleted``, ``labels``, ``label_map`` — are served from
three columns of the byte image, found through the column offsets of
:func:`repro.core.compact.read_array_header`: the label column (decoded
once), the tombstones (read in place) and, for a lazy shard's live
leaves, the heights (:func:`repro.core.vectorized.leaf_order` on first
use).  So a reopen followed by queries and single-subtree edits
touches one arena, not all of them.  A snapshot pin
(:meth:`ShardedCompactLTree.pin_shard`) copies the same three columns
and nothing else.
"""

from __future__ import annotations

import json
import operator
import re
import zlib
from array import array
from typing import Any, Iterator, Optional, Sequence

from repro.core import vectorized
from repro.core.compact import (_FLAG_HAS_PAYLOADS, _HEADER, CompactLTree,
                                _pack_int64, _unpack_int64,
                                read_array_header)
from repro.core.params import LTreeParams
from repro.core.stats import NULL_COUNTERS, Counters
from repro.errors import InvariantViolation, ParameterError

#: shard count the registry's ``ltree-sharded`` scheme uses
DEFAULT_N_SHARDS = 8

#: on-store format version of the sharded manifest blob, the only one
#: :meth:`ShardedCompactLTree.load` reads: an id-based directory (per-
#: entry shard ids and image CRCs, the epoch, the next unused id) and
#: the forwarding table as one binary blob of per-retired-id columns
MANIFEST_FORMAT_VERSION = 3

#: ``kind`` tag of the manifest (a JSON blob, not an LTREEARR image)
MANIFEST_KIND = "sharded-ltree"


class _Shard:
    """One arena: a materialized engine, or the columns label reads need.

    A shard that is not materialized answers *label* questions
    (``num``, tombstone bits, live-leaf enumeration) from three
    slot-indexed columns, never a link column: the labels, the heights
    (read only to find the leaves) and the tombstone bytes.  A shard
    reopened by :meth:`ShardedCompactLTree.load` reads them off its
    stored ``LTREEARR`` image — the label column is decoded once on
    first use and kept, the heights are decoded when leaf order is
    first needed, and the tombstones are read in place — and its first
    mutation or structural question materializes it through
    :meth:`CompactLTree.from_bytes`.  A *pinned* shard
    (:meth:`ShardedCompactLTree.pin_shard`) holds owned copies of the
    three columns and no image, so it is never materialized.
    """

    __slots__ = ("tree", "stats", "image", "header", "live", "pending",
                 "meta_height", "meta_n_leaves", "meta_tombstones",
                 "meta_live", "_num", "_height", "_deleted",
                 "write_version")

    def __init__(self, tree: Optional[CompactLTree], stats: Counters):
        self.tree = tree
        self.stats = stats
        self.image: Any = None
        self.header = None
        #: live leaf slots in document order (unmaterialized shards
        #: only; ``None`` until first derived — see :meth:`live_leaves`)
        self.live: Optional[Sequence[int]] = None
        #: payloads reattached while lazy, applied on materialization
        self.pending: dict[int, Any] = {}
        #: the label, height and tombstone columns of an unmaterialized
        #: shard; a reopened shard decodes its labels and heights on
        #: first use (the image is immutable, so they never go stale)
        #: and views its tombstones in place
        self._num: Optional[Sequence[int]] = None
        self._height: Optional[Sequence[int]] = None
        self._deleted: Any = None
        #: bumped by the engine on every label-affecting mutation of
        #: this arena (inserts, runs, tombstones, compaction) — the
        #: dirty-shard signal snapshot epochs and incremental columnar
        #: consumers key their caches on.  Fresh arenas (bulk load,
        #: split/merge products) restart at 1.
        self.write_version = 1
        self.meta_height = 0
        self.meta_n_leaves = 0
        self.meta_tombstones = 0
        self.meta_live = 0

    def _set_meta(self, meta: dict) -> None:
        self.meta_height = meta["height"]
        self.meta_n_leaves = meta["n_leaves"]
        self.meta_tombstones = meta["tombstones"]
        self.meta_live = meta["live"]

    @classmethod
    def lazy(cls, image: Any, meta: dict, stats: Counters) -> "_Shard":
        """A shard reopened from its stored image."""
        shard = cls(None, stats)
        shard.image = image
        shard.header = header = read_array_header(image)
        shard._deleted = memoryview(image)[
            header.deleted_offset:header.deleted_offset + header.n_slots]
        shard._set_meta(meta)
        return shard

    @classmethod
    def pinned(cls, num: Sequence[int], height: Sequence[int],
               deleted: bytes, live: Optional[Sequence[int]],
               meta: dict) -> "_Shard":
        """A shard of owned column copies (see
        :meth:`ShardedCompactLTree.pin_shard`)."""
        shard = cls(None, NULL_COUNTERS)
        shard._num = num
        shard._height = height
        shard._deleted = deleted
        shard.live = live
        shard._set_meta(meta)
        return shard

    @property
    def is_lazy(self) -> bool:
        return self.tree is None

    def materialize(self) -> CompactLTree:
        """Deserialize the arena (idempotent); applies pending payloads."""
        if self.tree is None:
            self.tree = CompactLTree.from_bytes(self.image,
                                                stats=self.stats)
            for slot, payload in self.pending.items():
                self.tree.set_payload(slot, payload)
            self.image = None
            self.header = None
            self.live = None
            self.pending = {}
            self._num = self._height = self._deleted = None
        return self.tree

    # -- label reads that never materialize ---------------------------
    def _check_slot(self, slot: int) -> None:
        """Bound an unmaterialized read: a stale or invalid slot must
        raise like the materialized column access would, not index from
        the end."""
        n_slots = len(self._deleted)
        if not 0 <= slot < n_slots:
            raise IndexError(
                f"slot {slot} outside the {n_slots}-slot arena")

    def num(self, slot: int) -> int:
        if self.tree is not None:
            return self.tree.num(slot)
        self._check_slot(slot)
        return self.num_column()[slot]

    def is_deleted(self, slot: int) -> bool:
        if self.tree is not None:
            return self.tree.is_deleted(slot)
        self._check_slot(slot)
        return bool(self._deleted[slot])

    def live_leaves(self) -> Sequence[int]:
        """Live leaf slots of an unmaterialized shard, in document order.

        Derived on the first read that needs them from the label,
        height and tombstone columns
        (:func:`repro.core.vectorized.leaf_order`) and kept — the
        columns never change.  The count is checked against the live
        count the manifest (or the pin) recorded, so an image that
        disagrees with its manifest fails loudly here.
        """
        live = self.live
        if live is None:
            live = vectorized.leaf_order(self.num_column(),
                                         self._height_column(),
                                         self._deleted)
            if len(live) != self.meta_live:
                raise ParameterError(
                    f"shard image holds {len(live)} live leaves, its "
                    f"manifest says {self.meta_live}")
            self.live = live
        return live

    def live_slots(self) -> Sequence[int]:
        """Live leaf slots in document order (no materialization)."""
        if self.tree is not None:
            return self.tree.leaf_slots(include_deleted=False)
        return self.live_leaves()

    def num_column(self) -> Sequence[int]:
        """The full slot-indexed local label column.

        A materialized shard returns the engine's own column and a
        pinned one its copy, neither copied again; a reopened shard
        decodes one ``array('q')`` off its image on first use and keeps
        it.  Entry ``column[slot]`` is the *local* label of ``slot``;
        callers compose ``position * stride + column[slot]``.
        """
        if self.tree is not None:
            return self.tree._num
        column = self._num
        if column is None:
            header = self.header
            column = self._num = _unpack_int64(
                memoryview(self.image), header.num_offset, header.n_slots)
        return column

    def _height_column(self) -> Sequence[int]:
        """The slot-indexed height column of an unmaterialized shard: a
        pinned shard's copy, or a fresh decode off a reopened shard's
        image (needed once, for leaf order, so not kept)."""
        height = self._height
        if height is None:
            header = self.header
            height = _unpack_int64(memoryview(self.image),
                                   header.num_offset + 8 * header.n_slots,
                                   header.n_slots)
        return height

    def arena_bytes(self) -> int:
        """Byte size of this arena's payload-free ``LTREEARR`` image.

        Exact for reopened shards (the image is on hand); computed from
        the slot counts for materialized ones (six int64 columns, the
        free-list, one tombstone byte per slot) without serializing.
        """
        if self.tree is None:
            return len(self.image)
        n_slots = len(self.tree._num)
        return _HEADER.size + 48 * n_slots + \
            8 * len(self.tree._free) + n_slots

    # -- shape metadata ------------------------------------------------
    @property
    def height(self) -> int:
        return self.meta_height if self.tree is None else self.tree.height

    @property
    def n_leaves(self) -> int:
        return self.meta_n_leaves if self.tree is None \
            else self.tree.n_leaves

    def tombstone_count(self) -> int:
        return self.meta_tombstones if self.tree is None \
            else self.tree.tombstone_count()


class _Directory:
    """One immutable epoch of the shard directory.

    Bundles everything a reader needs to compose global labels — the
    id order, the id → position map, the id → arena map and the stride
    — so grabbing ``tree._dir`` once yields a torn-free view no matter
    what membership changes or stride bumps install afterwards.  Never
    mutated after construction; ``shards`` and ``positions`` may be
    *shared* with successor directories (they are copied on change).
    """

    __slots__ = ("epoch", "ids", "positions", "shards", "height",
                 "stride")

    def __init__(self, epoch: int, ids: Sequence[int],
                 shards: dict[int, _Shard], base: int,
                 height: Optional[int] = None,
                 positions: Optional[dict[int, int]] = None):
        self.epoch = epoch
        self.ids = tuple(ids)
        if positions is None:
            positions = {sid: pos for pos, sid in enumerate(self.ids)}
        self.positions = positions
        self.shards = shards
        if height is None:
            height = max((shard.height for shard in shards.values()),
                         default=1)
        self.height = max(height, 1)
        self.stride = base ** self.height


def forward(forwarding: dict, members: Any,
            handle: Sequence[int]) -> tuple[int, int]:
    """The ``(shard_id, slot)`` a handle denotes among ``members``.

    ``forwarding`` maps each retired shard id to one immutable entry
    ``(ranks, cut, low, high)``: ``ranks[slot]`` is the leaf's index in
    the run its successors were bulk loaded from (-1 for a slot that
    held no leaf).  Ranks below ``cut`` went to shard ``low`` at slot
    ``rank``, the rest to ``high`` at ``rank - cut`` — a split cuts at
    its split point, a merge never cuts.  Hops are chased until the id
    is one of ``members`` (anything supporting ``in``: a directory's
    shard map, a snapshot's pinned positions), so entries added after a
    pin are never followed.  Raises ``ValueError`` when the chain
    dead-ends (the handle predates a bulk load or compact, which reset
    the table, or names no leaf).
    """
    sid, slot = handle[0], handle[1]
    while sid not in members:
        entry = forwarding.get(sid)
        rank = -1
        if entry is not None and 0 <= slot < len(entry[0]):
            rank = entry[0][slot]
        if rank < 0:
            raise ValueError(
                f"handle {(handle[0], handle[1])!r} names unknown "
                f"shard {sid}")
        _ranks, cut, low, high = entry
        sid, slot = (low, rank) if rank < cut else (high, rank - cut)
    return (sid, slot)


#: keys :meth:`ShardedCompactLTree.load` reads from a manifest, from
#: each of its shard entries and from its forwarding spec
_MANIFEST_KEYS = ("f", "s", "label_base", "violator_policy", "n_shards",
                  "epoch", "next_shard_id", "directory_height",
                  "directory_rebuilds", "shard_splits", "shard_merges",
                  "forwarding", "shards")
_SHARD_ENTRY_KEYS = ("id", "blob", "checksum", "height", "n_leaves",
                     "tombstones", "live")
_FORWARDING_KEYS = ("blob", "checksum", "entries")


def _require(record: Any, keys: Sequence[str], where: str) -> None:
    """Raise :class:`ParameterError` naming the first of ``keys`` that
    the manifest ``record`` lacks (``where`` names the record)."""
    if not isinstance(record, dict):
        raise ParameterError(f"{where} is not a JSON object")
    for key in keys:
        if key not in record:
            raise ParameterError(f"{where} lacks the key {key!r}")


def _load_forwarding(store: Any, spec: Optional[dict], name: str) -> dict:
    """The forwarding table of a format-3 manifest: one CRC-checked
    blob of int64 rank columns, sliced per manifest entry."""
    if spec is None:
        return {}
    _require(spec, _FORWARDING_KEYS,
             f"forwarding spec of manifest {name!r}")
    raw = bytes(store.get_blob(spec["blob"]))
    if zlib.crc32(raw) != spec["checksum"]:
        raise ParameterError(
            f"forwarding blob {spec['blob']!r} fails its manifest "
            f"checksum (torn by a crash mid-save?)")
    view = memoryview(raw)
    table = {}
    offset = 0
    for old_id, n_slots, cut, low, high in spec["entries"]:
        table[old_id] = (_unpack_int64(view, offset, n_slots), cut, low,
                         high)
        offset += 8 * n_slots
    if offset != len(raw):
        raise ParameterError(
            f"forwarding blob {spec['blob']!r} holds {len(raw)} bytes, "
            f"its manifest entries describe {offset}")
    return table


class RebalancePolicy:
    """Plans split/merge actions from :meth:`~ShardedCompactLTree
    .shard_report` occupancy rows.

    The triggers are the two ways a directory degrades:

    * **size skew** — one arena holding far more live leaves than the
      mean loses the h-term update discount sharding buys (its local
      relabels pay the tall shard's height).  A shard whose live count
      exceeds ``max_ratio`` × the mean (and ``min_split_leaves``) is
      split at its physical midpoint;
    * **tombstone load** — an arena that is mostly tombstones scans and
      serializes dead slots.  A shard past ``tombstone_ratio`` that is
      also undersized becomes a merge candidate, folding it into an
      adjacent small neighbor so the directory stops charging a whole
      stride of label space to a near-empty arena.

    A third trigger activates only when the caller has live workload
    stats to offer (``plan(report, workload=...)``, a shard id → write
    count mapping such as ``ConcurrentLTree.write_counts()``):

    * **write heat** — a shard absorbing more than ``hot_write_ratio``
      × the mean write count is where the next inserts land, so it is
      the arena that will grow tall *before* it is an occupancy
      problem, and every insert routed there pays its height in the
      h-term.  It is split at its midpoint even though its live count
      alone would not trigger, spreading the hot key range over two
      short arenas.

    ``plan`` returns non-overlapping actions (each shard appears in at
    most one), so an applier can perform them all and re-plan.
    ``max_shards`` caps the directory: a checkpoint lists one blob per
    shard in the page store's one-page catalog, and at the default 32
    that catalog fits with a CRC per span and room to spare.
    Deterministic: equal reports (and equal workloads) yield equal
    plans — and the applier journals the resulting split/merge records,
    so a WAL replay reproduces a workload-driven rebalance exactly
    without re-running the policy.
    """

    def __init__(self, max_ratio: float = 4.0,
                 min_split_leaves: int = 32,
                 tombstone_ratio: float = 0.5,
                 max_shards: int = 32,
                 min_shards: int = 1,
                 hot_write_ratio: float = 4.0):
        if max_ratio <= 1.0:
            raise ParameterError(
                f"max_ratio must be > 1, got {max_ratio}")
        if min_split_leaves < 2:
            raise ParameterError(
                f"min_split_leaves must be >= 2, got {min_split_leaves}")
        if not 0.0 < tombstone_ratio <= 1.0:
            raise ParameterError(
                f"tombstone_ratio must be in (0, 1], got "
                f"{tombstone_ratio}")
        if hot_write_ratio <= 1.0:
            raise ParameterError(
                f"hot_write_ratio must be > 1, got {hot_write_ratio}")
        self.max_ratio = float(max_ratio)
        self.min_split_leaves = int(min_split_leaves)
        self.tombstone_ratio = float(tombstone_ratio)
        self.max_shards = int(max_shards)
        self.min_shards = max(1, int(min_shards))
        self.hot_write_ratio = float(hot_write_ratio)

    def plan(self, report: Sequence[dict],
             workload: Optional[dict] = None) -> list[tuple]:
        """``[("split", id, at_leaf), ("merge", id_a, id_b), ...]``."""
        if not report:
            return []
        mean_live = sum(row["live"] for row in report) / len(report)
        actions: list[tuple] = []
        claimed: set[int] = set()
        n_shards = len(report)
        for row in report:
            if n_shards + len(actions) >= self.max_shards:
                break
            if row["leaves"] < self.min_split_leaves:
                continue
            if row["live"] > self.max_ratio * max(mean_live, 1.0):
                actions.append(("split", row["id"], row["leaves"] // 2))
                claimed.add(row["id"])

        if workload:
            mean_writes = (sum(workload.get(row["id"], 0)
                               for row in report) / len(report))
            for row in report:
                if n_shards + len(actions) >= self.max_shards:
                    break
                if row["id"] in claimed:
                    continue
                if row["leaves"] < self.min_split_leaves:
                    continue
                if workload.get(row["id"], 0) > \
                        self.hot_write_ratio * max(mean_writes, 1.0):
                    actions.append(("split", row["id"],
                                    row["leaves"] // 2))
                    claimed.add(row["id"])

        def undersized(row: dict) -> bool:
            if row["live"] < mean_live / self.max_ratio:
                return True
            return (row["leaves"] > 0 and
                    row["tombstones"] > self.tombstone_ratio *
                    row["leaves"] and row["live"] < mean_live)

        merges_left = n_shards - self.min_shards
        for left, right in zip(report, report[1:]):
            if merges_left <= 0:
                break
            if left["id"] in claimed or right["id"] in claimed:
                continue
            if undersized(left) and undersized(right):
                actions.append(("merge", left["id"], right["id"]))
                claimed.add(left["id"])
                claimed.add(right["id"])
                merges_left -= 1
        return actions


class ShardedCompactLTree:
    """Ordered labeling over per-shard compact arenas (see module doc).

    Parameters
    ----------
    params:
        The ``(f, s, label_base)`` set every shard arena uses.
    stats:
        Counter sink shared by all shards (aggregate semantics match
        the flat engine).
    violator_policy:
        Passed through to every shard arena.
    n_shards:
        Number of contiguous arenas :meth:`bulk_load` splits into (the
        actual count is capped by the item count; at least one shard
        always exists).
    shard_stats:
        ``True`` gives every shard its *own* ``Counters`` (exposed as
        :attr:`shard_counters`) instead of the shared sink — the probe
        for the write-isolation guarantee.

    Examples
    --------
    >>> from repro.core.params import LTreeParams
    >>> tree = ShardedCompactLTree(LTreeParams(f=4, s=2), n_shards=2)
    >>> leaves = tree.bulk_load("abcdef")
    >>> [tree.num(leaf) for leaf in leaves]    # stride = 5**2 = 25
    [0, 1, 5, 25, 26, 30]
    >>> leaves[3]                      # handles are (shard_id, slot)
    (1, 0)
    """

    def __init__(self, params: LTreeParams, stats: Counters = NULL_COUNTERS,
                 violator_policy: str = "highest",
                 n_shards: int = DEFAULT_N_SHARDS,
                 shard_stats: bool = False):
        if n_shards < 1:
            raise ParameterError(
                f"n_shards must be >= 1, got {n_shards}")
        self.params = params
        self.stats = stats
        self.violator_policy = violator_policy
        self.n_shards = n_shards
        self._track_shards = bool(shard_stats)
        #: stride bumps performed because one shard outgrew the
        #: directory height (the only root-level "rebuild"; O(1) each)
        self.directory_rebuilds = 0
        #: online rebalance actions performed
        self.shard_splits = 0
        self.shard_merges = 0
        #: retired shard id → ``(ranks, cut, low, high)`` (see
        #: :func:`forward`) across every surviving epoch.  Grow-only
        #: between bulk loads/compactions (readers holding an old
        #: directory resolve through it lock-free); replaced wholesale
        #: when handles are invalidated anyway.
        self._forwarding: dict[int, tuple[array, int, int, int]] = {}
        self._next_shard_id = 1
        self._dir = _Directory(0, (0,), {0: self._fresh_shard()},
                               params.base)

    # ------------------------------------------------------------------
    # shard plumbing
    # ------------------------------------------------------------------
    def _fresh_shard(self) -> _Shard:
        sink = Counters() if self._track_shards else self.stats
        return _Shard(CompactLTree(self.params, sink,
                                   violator_policy=self.violator_policy),
                      sink)

    @property
    def epoch(self) -> int:
        """Directory membership version; bumps on bulk load, split,
        merge, and compact (not on stride growth)."""
        return self._dir.epoch

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """Stable shard ids in document order."""
        return self._dir.ids

    @property
    def shard_counters(self) -> list[Counters]:
        """Per-shard counter sinks in document order (the shared sink
        repeated unless the tree was built with ``shard_stats=True``)."""
        d = self._dir
        return [d.shards[sid].stats for sid in d.ids]

    @property
    def shard_count(self) -> int:
        """Number of arenas currently in the directory."""
        return len(self._dir.ids)

    @property
    def materialized_shards(self) -> list[int]:
        """Ids whose arena is deserialized (all, unless lazily loaded)."""
        d = self._dir
        return [sid for sid in d.ids if not d.shards[sid].is_lazy]

    @property
    def directory_height(self) -> int:
        """Height of the tallest shard — the stride exponent."""
        return self._dir.height

    @property
    def stride(self) -> int:
        """Label-space width reserved per shard: ``base ** dir_height``."""
        return self._dir.stride

    @property
    def label_space(self) -> int:
        """Exclusive upper bound of the global label universe."""
        d = self._dir
        return len(d.ids) * d.stride

    def has_shard(self, shard_id: int) -> bool:
        """Whether ``shard_id`` names a current-epoch shard."""
        return shard_id in self._dir.shards

    def _shard_by_id(self, shard_id: int) -> _Shard:
        shard = self._dir.shards.get(shard_id)
        if shard is None:
            raise ValueError(f"no shard with id {shard_id}")
        return shard

    def _refresh_directory(self) -> None:
        """Rebuild the directory with a recomputed stride and a +1
        epoch (bulk load, compact, load)."""
        d = self._dir
        self._dir = _Directory(d.epoch + 1, d.ids, d.shards,
                               self.params.base)

    def _fit_stride(self, shard: _Shard) -> None:
        """Bump the stride when ``shard`` outgrew the directory height."""
        d = self._dir
        if shard.height > d.height:
            self._dir = _Directory(d.epoch, d.ids, d.shards,
                                   self.params.base, height=shard.height,
                                   positions=d.positions)
            self.directory_rebuilds += 1

    # ------------------------------------------------------------------
    # handle resolution (forwarding across epochs)
    # ------------------------------------------------------------------
    def resolve_handle(self, handle: Sequence[int]) -> tuple[int, int]:
        """The current-epoch ``(shard_id, slot)`` a handle denotes.

        A handle minted before any number of splits/merges resolves by
        chasing the forwarding chain until it lands in a live shard;
        a current handle resolves to itself.  Raises ``ValueError``
        when the chain dead-ends (the handle predates a bulk load or
        compact, which invalidate handles outright).
        """
        return forward(self._forwarding, self._dir.shards, handle)

    def _locate(self, handle: Sequence[int]
                ) -> tuple[_Directory, int, _Shard, int]:
        """Resolve + fetch: ``(directory, shard_id, shard, slot)``.

        The directory is captured *once* so the caller's position and
        stride reads agree with the shard it touches.
        """
        d = self._dir
        sid, slot = handle[0], handle[1]
        shard = d.shards.get(sid)
        if shard is None:
            sid, slot = forward(self._forwarding, d.shards, handle)
            shard = d.shards[sid]
        return d, sid, shard, slot

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, payloads: Sequence[Any],
                  boundaries: Optional[Sequence[int]] = None
                  ) -> list[tuple[int, int]]:
        """Split ``payloads`` into contiguous chunks, one arena each.

        Existing handles are invalidated (same contract as the flat
        engine's bulk load — the forwarding table is reset, old handles
        stop resolving).  Returns the new handles in order; shard ids
        restart at ``0..k-1`` in document order, so until the first
        split or merge an id equals its position.

        By default the items are split into ``n_shards`` balanced
        chunks.  ``boundaries`` overrides the split with explicit chunk
        *sizes* (each an integer >= 1, summing to ``len(payloads)``):
        chunk ``k`` becomes shard ``k``'s arena.  Invalid boundaries —
        wrong types, empty, non-positive, or not covering the item
        count — raise :class:`~repro.errors.ParameterError` loudly
        instead of building silently misaligned arenas.  This is how
        the document layer aligns shards with top-level document
        children — every subtree's tokens land in one arena, so a
        subtree edit provably writes one shard (see
        ``LabeledDocument``).  The number of boundaries decides the
        shard count, ``n_shards`` is only the default split's target.
        """
        items = list(payloads)
        if boundaries is not None:
            sizes = []
            for size in boundaries:
                # bool is an int subclass, but a True/False "size" is a
                # caller bug; floats and the like would silently
                # truncate into misaligned arenas
                if isinstance(size, bool):
                    raise ParameterError(
                        f"boundary sizes must be integers, got {size!r} "
                        f"(bool)")
                try:
                    sizes.append(operator.index(size))
                except TypeError:
                    raise ParameterError(
                        f"boundary sizes must be integers, got "
                        f"{size!r} ({type(size).__name__})") from None
            if not sizes:
                raise ParameterError("boundaries must name at least one "
                                     "chunk")
            if any(size < 1 for size in sizes):
                raise ParameterError(
                    f"every boundary chunk needs >= 1 item, got {sizes}")
            if sum(sizes) != len(items):
                raise ParameterError(
                    f"boundaries cover {sum(sizes)} items, bulk load has "
                    f"{len(items)}")
        else:
            shard_count = min(self.n_shards, len(items)) or 1
            sizes = []
            start = 0
            for rank in range(shard_count):
                size = (len(items) - start) // (shard_count - rank)
                sizes.append(size)
                start += size
        d = self._dir
        shards = {sid: self._fresh_shard() for sid in range(len(sizes))}
        handles: list[tuple[int, int]] = []
        start = 0
        for sid, size in enumerate(sizes):
            slots = shards[sid].tree.bulk_load(items[start:start + size])
            handles.extend((sid, slot) for slot in slots)
            start += size
        self._forwarding = {}
        self._next_shard_id = len(sizes)
        self._dir = _Directory(d.epoch + 1, range(len(sizes)), shards,
                               self.params.base)
        return handles

    # ------------------------------------------------------------------
    # routed updates (all shard-local)
    # ------------------------------------------------------------------
    def insert_after(self, handle: Sequence[int],
                     payload: Any) -> tuple[int, int]:
        _d, sid, shard, slot = self._locate(handle)
        leaf = shard.materialize().insert_after(slot, payload)
        shard.write_version += 1
        self._fit_stride(shard)
        return (sid, leaf)

    def insert_before(self, handle: Sequence[int],
                      payload: Any) -> tuple[int, int]:
        _d, sid, shard, slot = self._locate(handle)
        leaf = shard.materialize().insert_before(slot, payload)
        shard.write_version += 1
        self._fit_stride(shard)
        return (sid, leaf)

    def append(self, payload: Any) -> tuple[int, int]:
        d = self._dir
        sid = d.ids[-1]
        shard = d.shards[sid]
        leaf = shard.materialize().append(payload)
        shard.write_version += 1
        self._fit_stride(shard)
        return (sid, leaf)

    def prepend(self, payload: Any) -> tuple[int, int]:
        d = self._dir
        sid = d.ids[0]
        shard = d.shards[sid]
        leaf = shard.materialize().prepend(payload)
        shard.write_version += 1
        self._fit_stride(shard)
        return (sid, leaf)

    def insert_run_after(self, handle: Sequence[int],
                         payloads: Sequence[Any]) -> list[tuple[int, int]]:
        """§4.1 batch insert — the whole run lands in the anchor's shard."""
        _d, sid, shard, slot = self._locate(handle)
        leaves = shard.materialize().insert_run_after(slot, payloads)
        shard.write_version += 1
        self._fit_stride(shard)
        return [(sid, leaf) for leaf in leaves]

    def insert_run_before(self, handle: Sequence[int],
                          payloads: Sequence[Any]) -> list[tuple[int, int]]:
        _d, sid, shard, slot = self._locate(handle)
        leaves = shard.materialize().insert_run_before(slot, payloads)
        shard.write_version += 1
        self._fit_stride(shard)
        return [(sid, leaf) for leaf in leaves]

    def mark_deleted(self, handle: Sequence[int]) -> None:
        """Tombstone a leaf (paper §2.3) — no relabeling anywhere."""
        _d, _sid, shard, slot = self._locate(handle)
        shard.materialize().mark_deleted(slot)
        shard.write_version += 1

    def set_payload(self, handle: Sequence[int], payload: Any) -> None:
        """Reattach a payload; buffered (not materializing) on lazy shards."""
        _d, _sid, shard, slot = self._locate(handle)
        if shard.is_lazy:
            shard.pending[slot] = payload
        else:
            shard.tree.set_payload(slot, payload)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def num(self, handle: Sequence[int]) -> int:
        """Global label: shard prefix ⊕ shard-local label."""
        d, sid, shard, slot = self._locate(handle)
        return d.positions[sid] * d.stride + shard.num(slot)

    def payload(self, handle: Sequence[int]) -> Any:
        _d, _sid, shard, slot = self._locate(handle)
        if shard.is_lazy and slot in shard.pending:
            return shard.pending[slot]
        return shard.materialize().payload(slot)

    def is_leaf(self, handle: Sequence[int]) -> bool:
        _d, _sid, shard, slot = self._locate(handle)
        return shard.materialize().is_leaf(slot)

    def is_deleted(self, handle: Sequence[int]) -> bool:
        _d, _sid, shard, slot = self._locate(handle)
        return shard.is_deleted(slot)

    def iter_leaves(self, include_deleted: bool = True
                    ) -> Iterator[tuple[int, int]]:
        """All leaves in document order, shard by shard.

        With ``include_deleted=False`` (the wrapper's ``handles()``
        path) lazy shards serve the live leaves derived from their
        image's columns and stay unmaterialized; including tombstones
        materializes.  Either way the order comes from one sort of the
        leaf slots by label, not a tree walk.
        """
        d = self._dir
        for sid in d.ids:
            shard = d.shards[sid]
            if include_deleted:
                slots = shard.materialize().leaf_slots()
            else:
                slots = shard.live_slots()
            for slot in slots:
                yield (sid, slot)

    def labels(self, include_deleted: bool = True) -> list[int]:
        """The global label sequence (strictly increasing)."""
        d = self._dir
        stride = d.stride
        out: list[int] = []
        for position, sid in enumerate(d.ids):
            shard = d.shards[sid]
            prefix = position * stride
            if include_deleted:
                slots = shard.materialize().leaf_slots()
            else:
                slots = shard.live_slots()
            num = shard.num_column()
            out.extend(prefix + num[slot] for slot in slots)
        return out

    def payloads(self, include_deleted: bool = True) -> list[Any]:
        return [self.payload(handle)
                for handle in self.iter_leaves(include_deleted)]

    def shard_versions(self) -> dict[int, int]:
        """``shard id -> write version`` for the whole directory — the
        engine-level dirty-shard report incremental columnar consumers
        diff between extractions (the concurrent wrapper builds its
        snapshot epochs from the same counters)."""
        d = self._dir
        return {sid: d.shards[sid].write_version for sid in d.ids}

    def shard_prefix(self, shard_id: int) -> int:
        """Global-label prefix of one shard: ``position * stride``."""
        d = self._dir
        position = d.positions.get(shard_id)
        if position is None:
            raise ValueError(f"no shard with id {shard_id}")
        return position * d.stride

    def label_map(self) -> dict[tuple[int, int], int]:
        """Live handle → global label, composed across every shard.

        One bulk column decode per shard — lazy shards stay lazy — so
        a bulk read costs the same flat extraction it does on the
        unsharded engine.
        """
        d = self._dir
        stride = d.stride
        mapping: dict[tuple[int, int], int] = {}
        for position, sid in enumerate(d.ids):
            shard = d.shards[sid]
            prefix = position * stride
            num = shard.num_column()
            mapping.update(((sid, slot), prefix + num[slot])
                           for slot in shard.live_slots())
        return mapping

    def find_leaf(self, num: int) -> Optional[tuple[int, int]]:
        """The leaf holding global label ``num``: the shard position is
        ``num // stride``, the rest an O(height) in-shard descent."""
        if num < 0:
            return None
        d = self._dir
        position, local = divmod(num, d.stride)
        if position >= len(d.ids):
            return None
        sid = d.ids[position]
        slot = d.shards[sid].materialize().find_leaf(local)
        return None if slot is None else (sid, slot)

    @property
    def n_leaves(self) -> int:
        """Leaves across all shards, tombstones included."""
        d = self._dir
        return sum(d.shards[sid].n_leaves for sid in d.ids)

    def tombstone_count(self) -> int:
        d = self._dir
        return sum(d.shards[sid].tombstone_count() for sid in d.ids)

    def shard_report(self) -> list[dict]:
        """Per-shard occupancy stats in document order.

        One row per shard: ``id``, ``position``, ``height``, ``leaves``
        (tombstones included), ``live``, ``tombstones``,
        ``arena_bytes`` (payload-free image size), ``materialized``,
        ``version`` (the dirty-shard write counter),
        and — when the tree was built with ``shard_stats=True`` — that
        shard's full ``counters`` dict (relabels, count updates, …).
        Never materializes a lazy shard.  This is the input
        :class:`RebalancePolicy` plans from.
        """
        d = self._dir
        rows = []
        for position, sid in enumerate(d.ids):
            shard = d.shards[sid]
            leaves = shard.n_leaves
            tombstones = shard.tombstone_count()
            rows.append({
                "id": sid,
                "position": position,
                "height": shard.height,
                "leaves": leaves,
                "live": leaves - tombstones,
                "tombstones": tombstones,
                "arena_bytes": shard.arena_bytes(),
                "materialized": not shard.is_lazy,
                "version": shard.write_version,
                "counters": shard.stats.as_dict()
                if self._track_shards else None,
            })
        return rows

    # ------------------------------------------------------------------
    # online rebalancing (split / merge / policy)
    # ------------------------------------------------------------------
    def _claim_ids(self, explicit: Optional[Sequence[int]],
                   count: int, shards: dict[int, _Shard]) -> list[int]:
        """Allocate ``count`` fresh shard ids (or adopt explicit ones —
        the WAL replay path, which must mint the ids the original run
        minted)."""
        if explicit is None:
            ids = list(range(self._next_shard_id,
                             self._next_shard_id + count))
        else:
            ids = [int(sid) for sid in explicit]
            if len(ids) != count or len(set(ids)) != count:
                raise ParameterError(
                    f"need {count} distinct new shard ids, got "
                    f"{explicit!r}")
            clashes = [sid for sid in ids if sid in shards]
            if clashes:
                raise ParameterError(
                    f"new shard ids {clashes} are already in the "
                    f"directory")
        self._next_shard_id = max(self._next_shard_id, max(ids) + 1)
        return ids

    def _clone_leaf_run(self, runs: Sequence[tuple[CompactLTree,
                                                   Sequence[int]]]
                        ) -> _Shard:
        """A fresh arena holding the concatenated leaf ``runs``.

        Each run is ``(tree, leaf slots in document order)``.  Payloads
        and tombstones are preserved with one gather each: the bulk load
        puts leaf *k* at slot *k*, so the gathered tombstone marks land
        on the new arena's first slots as one column write, and its
        counters see one ``deletes`` per tombstone — what marking each
        leaf on its own would have counted.
        """
        shard = self._fresh_shard()
        tree = shard.tree
        payloads: list[Any] = []
        marks = []
        for source, slots in runs:
            payloads.extend(map(source._payload.__getitem__, slots))
            marks.append(vectorized.gather_bytes(source._deleted, slots))
        tree.bulk_load(payloads)
        tombstones = b"".join(marks)
        tree._deleted[:len(tombstones)] = tombstones
        dead = tombstones.count(1)
        if dead and tree.stats.enabled:
            tree.stats.deletes += dead
        return shard

    def split_shard(self, shard_id: int, at_leaf: int,
                    new_ids: Optional[Sequence[int]] = None,
                    on_commit: Optional[Any] = None
                    ) -> tuple[int, int]:
        """Cut shard ``shard_id`` into two arenas at leaf ``at_leaf``.

        ``at_leaf`` indexes the shard's leaf sequence in document order
        *including tombstones* (``1 <= at_leaf < leaves``): the first
        ``at_leaf`` leaves become the left arena, the rest the right.
        Both new arenas are fresh bulk loads of their runs — short
        again, so the stride can shrink back and updates regain the
        h-term discount — while every other shard keeps its arena,
        bytes and counters untouched.  Handles into the old shard keep
        resolving through the forwarding table.  Returns the two new
        shard ids (``new_ids`` fixes them explicitly — the WAL replay
        path).

        ``on_commit(new_ids)``, when given, runs after the ids are
        claimed and *before* the new directory becomes visible — where
        the concurrent wrapper journals the WAL record, so no op on a
        new shard can ever be journaled ahead of the split that created
        it.  If it raises, the split is abandoned: the directory is
        untouched (the claimed ids are simply consumed).
        """
        d = self._dir
        shard = self._shard_by_id(shard_id)
        tree = shard.materialize()
        slots = tree.leaf_slots()
        if not 1 <= at_leaf < len(slots):
            raise ParameterError(
                f"split point {at_leaf} outside 1..{len(slots) - 1} "
                f"(shard {shard_id} holds {len(slots)} leaves)")
        builds = [self._clone_leaf_run([(tree, slots[:at_leaf])]),
                  self._clone_leaf_run([(tree, slots[at_leaf:])])]
        ids = self._claim_ids(new_ids, 2, d.shards)
        if on_commit is not None:
            on_commit(tuple(ids))
        self._forwarding[shard_id] = (
            vectorized.slot_ranks(slots, len(tree._num)), at_leaf,
            ids[0], ids[1])
        position = d.positions[shard_id]
        order = d.ids[:position] + tuple(ids) + d.ids[position + 1:]
        shards = dict(d.shards)
        del shards[shard_id]
        for new_shard, sid in zip(builds, ids):
            shards[sid] = new_shard
        self.shard_splits += 1
        self._dir = _Directory(d.epoch + 1, order, shards,
                               self.params.base)
        return (ids[0], ids[1])

    def merge_shards(self, id_a: int, id_b: int,
                     new_id: Optional[int] = None,
                     on_commit: Optional[Any] = None) -> int:
        """Fold two *adjacent* shards into one fresh arena.

        ``id_a`` and ``id_b`` must occupy neighboring document-order
        positions (either order); their leaf runs — tombstones included
        — concatenate into one new arena and both old ids forward to
        it, so handles into either keep resolving.  Returns the new
        shard id (``new_id`` fixes it — the WAL replay path).  The same
        pre-visibility ``on_commit(new_id)`` hook as :meth:`split_shard`.
        """
        d = self._dir
        for sid in (id_a, id_b):
            if sid not in d.shards:
                raise ValueError(f"no shard with id {sid}")
        if d.positions[id_a] > d.positions[id_b]:
            id_a, id_b = id_b, id_a
        if d.positions[id_b] != d.positions[id_a] + 1:
            raise ParameterError(
                f"shards {id_a} and {id_b} are not adjacent (positions "
                f"{d.positions[id_a]} and {d.positions[id_b]})")
        tree_a = d.shards[id_a].materialize()
        tree_b = d.shards[id_b].materialize()
        slots_a = tree_a.leaf_slots()
        slots_b = tree_b.leaf_slots()
        merged = self._clone_leaf_run([(tree_a, slots_a),
                                       (tree_b, slots_b)])
        sid = self._claim_ids(None if new_id is None else [new_id], 1,
                              d.shards)[0]
        if on_commit is not None:
            on_commit(sid)
        total = len(slots_a) + len(slots_b)
        self._forwarding[id_a] = (
            vectorized.slot_ranks(slots_a, len(tree_a._num)), total,
            sid, sid)
        self._forwarding[id_b] = (
            vectorized.slot_ranks(slots_b, len(tree_b._num),
                                  start=len(slots_a)), total, sid, sid)
        position = d.positions[id_a]
        order = d.ids[:position] + (sid,) + d.ids[position + 2:]
        shards = dict(d.shards)
        del shards[id_a]
        del shards[id_b]
        shards[sid] = merged
        self.shard_merges += 1
        self._dir = _Directory(d.epoch + 1, order, shards,
                               self.params.base)
        return sid

    def rebalance(self, policy: Optional[RebalancePolicy] = None,
                  max_rounds: int = 4) -> list[dict]:
        """Apply a :class:`RebalancePolicy` until its plan is empty.

        Plans from :meth:`shard_report`, applies every action, re-plans
        — at most ``max_rounds`` times (a freshly split giant can still
        be oversized).  Returns the actions performed, each as a dict
        recording the ids involved (the shape the concurrent service
        journals).  Single-threaded convenience; under concurrency use
        :meth:`repro.concurrent.engine.ConcurrentLTree.rebalance`,
        which holds its mutex per action and feeds the policy live
        write counts.
        """
        policy = policy or RebalancePolicy()
        performed: list[dict] = []
        for _ in range(max_rounds):
            actions = policy.plan(self.shard_report())
            if not actions:
                break
            for action in actions:
                if action[0] == "split":
                    new_ids = self.split_shard(action[1], action[2])
                    performed.append({"action": "split",
                                      "shard": action[1],
                                      "at": action[2],
                                      "new": list(new_ids)})
                else:
                    new_id = self.merge_shards(action[1], action[2])
                    performed.append({"action": "merge",
                                      "shards": [action[1], action[2]],
                                      "new": new_id})
        return performed

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def compact(self, params: Optional[LTreeParams] = None
                ) -> dict[tuple[int, int], tuple[int, int]]:
        """Vacuum tombstones shard by shard; old→new handle mapping.

        Shards are rebuilt independently (ids never change), then the
        directory stride is recomputed — it can shrink, which is the
        one relabel-like event compaction implies, and it is still
        O(1) because global labels are composed on read.  Like the flat
        engine's compact, this invalidates outstanding handles (the
        returned mapping is the bridge); the forwarding table is reset
        with them.  Every shard's write version is bumped: each slot
        was rewritten.
        """
        if params is not None:
            self.params = params
        d = self._dir
        mapping: dict[tuple[int, int], tuple[int, int]] = {}
        for sid in d.ids:
            shard = d.shards[sid]
            local = shard.materialize().compact(params)
            shard.write_version += 1
            mapping.update(((sid, old), (sid, new))
                           for old, new in local.items())
        self._forwarding = {}
        self._refresh_directory()
        return mapping

    def pin_shard(self, shard_id: int) -> _Shard:
        """A read-only :class:`_Shard` holding copies of one shard's
        label, height and tombstone columns — the pinning hook of
        :meth:`repro.concurrent.engine.ConcurrentLTree.snapshot`.

        Labels alone give document order and containment, so no link
        column or free list is copied: 17 bytes per slot for int64
        columns.  Each column keeps the form it is held in — an
        ``array('q')`` (a reopened arena) is copied in one memcpy, a
        list (a bulk load, or a column promoted near the int64 rim) as
        a list of the same exact ints — so nothing is packed.  A
        still-lazy shard's three column ranges are copied out of its
        possibly mmapped image, because a later save may hand the freed
        span to a new image; the label column and live list a reader
        already decoded or derived are shared, both immutable.  A
        materialized shard's live list is left ``None`` and derived on
        first read (:meth:`_Shard.live_leaves`), outside the writer
        mutex.  The meta is O(1).  Later writes never reach the pinned
        shard, so readers answer label, order and containment queries
        off it with no locks.
        """
        shard = self._shard_by_id(shard_id)
        meta = {"height": shard.height, "n_leaves": shard.n_leaves,
                "tombstones": shard.tombstone_count()}
        meta["live"] = meta["n_leaves"] - meta["tombstones"]
        tree = shard.tree
        if tree is not None:
            return _Shard.pinned(tree._num[:], tree._height[:],
                                 bytes(tree._deleted), None, meta)
        return _Shard.pinned(shard.num_column(), shard._height_column(),
                             bytes(shard._deleted), shard.live, meta)

    # ------------------------------------------------------------------
    # persistence (one LTREEARR blob span per shard + manifest)
    # ------------------------------------------------------------------
    def save(self, store: Any, name: str = "scheme",
             include_payloads: bool = True,
             extra_blobs: Optional[dict[str, bytes]] = None) -> None:
        """Persist every arena as its own blob span plus a manifest.

        Blob layout under ``name``: ``{name}.s{id}`` holds shard
        ``id``'s ``LTREEARR`` image, ``{name}.forwarding`` the
        forwarding columns (only once a split or merge retired a shard),
        and ``{name}`` the JSON manifest — which also carries the
        directory (id order, epoch, forwarding entries, next unused id),
        so a reopen resolves old-epoch handles exactly as this tree
        would.  Nothing is walked: live leaves are not stored at all
        (a reopen derives them from each image's columns), and each
        forwarding entry's rank column is written as it is held.  The
        whole save — arenas, forwarding, manifest, stale-blob cleanup —
        lands under one :meth:`PageStore.put_blobs` catalog flip, which
        never overwrites a page the *previous* catalog references, so a
        crash at any byte of the save — including mid-rebalance —
        reopens bit-identically on the old epoch.  The manifest carries
        a CRC32 of every image and of the forwarding blob, and
        :meth:`load` fails loudly on a mismatch instead of
        deserializing damaged bytes.

        A still-lazy shard is copied image-for-image without
        deserializing — an open → edit-one-subtree → save cycle reads
        and parses exactly one arena — but only when the copy would be
        faithful: a lazy shard is materialized first when its image's
        payload flag disagrees with ``include_payloads``, or when
        payloads were reattached via :meth:`set_payload` while lazy and
        ``include_payloads`` asks for them (buffered payloads are
        irrelevant when payloads are not persisted, so the document
        layer's ``include_payloads=False`` saves stay fully lazy).

        ``extra_blobs`` ride along inside the *same* atomic catalog
        flip (a ``ConcurrentDocument`` checkpoint stores its WAL
        watermark this way, so "engine state saved" and "checkpoint
        sequence recorded" can never be observed apart).
        """
        d = self._dir
        entries = []
        puts: dict[str, bytes] = {}
        for sid in d.ids:
            shard = d.shards[sid]
            arena_name = f"{name}.s{sid}"
            if shard.is_lazy:
                has_payloads = bool(shard.header.flags &
                                    _FLAG_HAS_PAYLOADS)
                if has_payloads != include_payloads or \
                        (include_payloads and shard.pending):
                    shard.materialize()
            if shard.is_lazy:
                raw = bytes(shard.image)
            else:
                raw = shard.tree.to_bytes(
                    include_payloads=include_payloads)
            puts[arena_name] = raw
            tombstones = shard.tombstone_count()
            entries.append({
                "id": sid,
                "blob": arena_name,
                "height": shard.height,
                "n_leaves": shard.n_leaves,
                "tombstones": tombstones,
                "live": shard.n_leaves - tombstones,
                "checksum": zlib.crc32(raw),
            })
        forwarding = None
        if self._forwarding:
            forwarding_name = f"{name}.forwarding"
            raw = b"".join(_pack_int64(ranks) for ranks, *_rest
                           in self._forwarding.values())
            puts[forwarding_name] = raw
            forwarding = {
                "blob": forwarding_name,
                "checksum": zlib.crc32(raw),
                # [retired id, slots, cut, low id, high id] per entry,
                # in blob order
                "entries": [[old_id, len(ranks), cut, low, high]
                            for old_id, (ranks, cut, low, high)
                            in self._forwarding.items()],
            }
        manifest = {
            "format": MANIFEST_FORMAT_VERSION,
            "kind": MANIFEST_KIND,
            "f": self.params.f,
            "s": self.params.s,
            "label_base": self.params.base,
            "violator_policy": self.violator_policy,
            "n_shards": self.n_shards,
            "epoch": d.epoch,
            "next_shard_id": self._next_shard_id,
            "directory_height": d.height,
            "directory_rebuilds": self.directory_rebuilds,
            "shard_splits": self.shard_splits,
            "shard_merges": self.shard_merges,
            "forwarding": forwarding,
            "shards": entries,
        }
        manifest_raw = json.dumps(manifest).encode("utf-8")
        # every blob of this layout the save does not write is stale —
        # arenas of retired ids (a split/merge, or a re-bulk_load that
        # shrinks the shard count), an emptied forwarding table — and
        # left cataloged its span would leak past every vacuum.  The
        # catalog is scanned rather than probed id by id: retired ids
        # leave *gaps* in the id sequence
        owned = re.compile(re.escape(name) + r"\.(s[0-9]+|forwarding)")
        stale = [blob_name for blob_name in store.blobs()
                 if blob_name not in puts and owned.fullmatch(blob_name)]
        if extra_blobs:
            overlap = set(extra_blobs) & (set(puts) | {name})
            if overlap:
                raise ParameterError(
                    f"extra_blobs collide with the scheme's own blob "
                    f"names: {sorted(overlap)}")
            puts.update(extra_blobs)
        failpoint("sharded:save:pre-put", blob=name)
        # one catalog flip: arenas, forwarding, manifest and stale-blob
        # drops become visible atomically (and under sync=True the
        # whole save costs one fsync pair, not one per blob)
        puts[name] = manifest_raw
        store.put_blobs(puts, delete=stale)

    @classmethod
    def load(cls, store: Any, name: str = "scheme",
             stats: Counters = NULL_COUNTERS, lazy: bool = True,
             prefer_mmap: bool = True,
             shard_stats: bool = False) -> "ShardedCompactLTree":
        """Reopen a tree saved by :meth:`save`.

        With ``lazy`` (default) only the manifest and the forwarding
        blob are decoded; each arena is fetched as a byte view (mmap
        fast path when the store offers it), checked against its
        manifest CRC, and deserialized on first write — see the module
        docstring.  ``lazy=False`` materializes everything immediately.
        A manifest of any format but :data:`MANIFEST_FORMAT_VERSION`
        raises :class:`ParameterError` naming its format, and one that
        lacks a key (at the top level, in a shard entry or in the
        forwarding spec) raises it naming the blob and the key.
        """
        manifest = json.loads(bytes(store.get_blob(name)).decode("utf-8"))
        if manifest.get("kind") != MANIFEST_KIND:
            raise ParameterError(
                f"blob {name!r} is not a sharded-ltree manifest "
                f"(kind={manifest.get('kind')!r})")
        version = manifest.get("format")
        if version != MANIFEST_FORMAT_VERSION:
            raise ParameterError(
                f"unsupported sharded manifest format {version!r} "
                f"(supported: {MANIFEST_FORMAT_VERSION})")
        _require(manifest, _MANIFEST_KEYS, f"manifest {name!r}")
        params = LTreeParams(f=manifest["f"], s=manifest["s"],
                             label_base=manifest["label_base"])
        tree = cls.__new__(cls)
        tree.params = params
        tree.stats = stats
        tree.violator_policy = manifest["violator_policy"]
        tree.n_shards = manifest["n_shards"]
        tree._track_shards = bool(shard_stats)
        tree.directory_rebuilds = manifest["directory_rebuilds"]
        tree.shard_splits = manifest["shard_splits"]
        tree.shard_merges = manifest["shard_merges"]
        ids: list[int] = []
        shards: dict[int, _Shard] = {}
        for rank, entry in enumerate(manifest["shards"]):
            _require(entry, _SHARD_ENTRY_KEYS,
                     f"shard entry {rank} of manifest {name!r}")
            sid = entry["id"]
            sink = Counters() if shard_stats else stats
            image = store.get_blob(entry["blob"],
                                   prefer_mmap=prefer_mmap)
            # LTREEARR images carry no checksum of their own, and a
            # disk can flip bits in one or lose its pages to a power
            # loss; the manifest's CRC makes that a loud load failure
            # instead of a quietly corrupt arena
            if zlib.crc32(image) != entry["checksum"]:
                raise ParameterError(
                    f"shard image {entry['blob']!r} fails its manifest "
                    f"checksum (torn by a crash mid-save?)")
            header = read_array_header(image)
            if (header.f, header.s, header.label_base,
                    header.violator_policy) != \
                    (params.f, params.s, params.base,
                     tree.violator_policy):
                raise ParameterError(
                    f"shard image {entry['blob']!r} disagrees with the "
                    f"manifest parameters")
            shard = _Shard.lazy(image, entry, sink)
            if not lazy:
                shard.materialize()
            ids.append(sid)
            shards[sid] = shard
        if not shards:
            raise ParameterError(
                f"manifest {name!r} describes zero shards")
        if len(shards) != len(ids):
            raise ParameterError(
                f"manifest {name!r} repeats shard ids")
        tree._forwarding = _load_forwarding(store, manifest["forwarding"],
                                            name)
        tree._next_shard_id = manifest["next_shard_id"]
        tree._dir = _Directory(manifest["epoch"], ids, shards, params.base,
                               height=manifest["directory_height"])
        return tree

    # ------------------------------------------------------------------
    # validation (tests)
    # ------------------------------------------------------------------
    def validate(self, check_occupancy: bool = False) -> None:
        """Per-shard structural invariants plus the directory's own.

        Materializes every shard (tests only).  Checks each arena with
        :meth:`CompactLTree.validate`, that the stride covers the
        tallest shard, that global labels strictly increase across
        shard boundaries, that the directory's position map matches its
        id order, that every forwarding chain reaches a live shard
        without cycling, and that every forwarded leaf lands (through
        :func:`forward`) on a leaf of that shard.
        """
        d = self._dir
        height = max((d.shards[sid].height for sid in d.ids), default=1)
        if self.params.base ** max(height, 1) != d.stride:
            raise InvariantViolation(
                f"stride {d.stride} does not match the tallest "
                f"shard (height {height})")
        for position, sid in enumerate(d.ids):
            if d.positions.get(sid) != position:
                raise InvariantViolation(
                    f"directory position map disagrees with id order "
                    f"at {sid}")
            d.shards[sid].materialize().validate(check_occupancy)
        if len(set(d.ids)) != len(d.ids):
            raise InvariantViolation("directory repeats shard ids")
        if d.ids and self._next_shard_id <= max(d.ids):
            raise InvariantViolation(
                f"next_shard_id {self._next_shard_id} collides with "
                f"live ids")
        labels = self.labels()
        for left, right in zip(labels, labels[1:]):
            if left >= right:
                raise InvariantViolation(
                    f"global labels not strictly increasing: "
                    f"{left} >= {right}")
        forwarding = self._forwarding
        # chains follow retired ids: settle the ids whose successors are
        # live or settled until none is left, so no forward() below can
        # cycle
        settled, pending = set(d.shards), dict(forwarding)
        while pending:
            ready = [sid for sid, entry in pending.items()
                     if entry[2] in settled and entry[3] in settled]
            if not ready:
                raise InvariantViolation(
                    f"forwarding chains from shards {sorted(pending)} "
                    f"cycle or dead-end")
            settled.update(ready)
            for sid in ready:
                del pending[sid]
        for old_id, (ranks, _cut, _low, _high) in forwarding.items():
            for slot, rank in enumerate(ranks):
                if rank < 0:
                    continue
                try:
                    sid, leaf = forward(forwarding, d.shards,
                                        (old_id, slot))
                except ValueError:
                    raise InvariantViolation(
                        f"forwarding chain from {(old_id, slot)} "
                        f"dead-ends") from None
                tree = d.shards[sid].tree
                if not (0 <= leaf < len(tree._num) and
                        tree.is_leaf(leaf)):
                    raise InvariantViolation(
                        f"forwarding chain from {(old_id, slot)} lands "
                        f"on ({sid}, {leaf}), not a leaf of that arena")

    def __repr__(self) -> str:
        d = self._dir
        return (f"ShardedCompactLTree(shards={len(d.ids)}, "
                f"epoch={d.epoch}, stride={d.stride}, "
                f"n_leaves={self.n_leaves}, "
                f"params={self.params.describe()})")


# Imported at the bottom: repro.storage's package __init__ reaches back into
# this module (via labeling -> order -> sharded_list), so the import must run
# after every name that chain needs is defined.
from repro.storage.faults import FAILPOINTS, failpoint  # noqa: E402

FAILPOINTS.declare("sharded:save:pre-put",
                   "arenas/manifest serialized, store put not yet issued")
