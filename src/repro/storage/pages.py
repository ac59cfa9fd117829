"""Page-backed store: a fixed-size-page file with a buffer pool.

This is the *actual disk substrate* the cost model of
:mod:`repro.storage.pager` only prices.  A :class:`PageStore` is one file
of fixed-size pages:

* page 0 is the immutable **superblock** — magic, format version, page
  size — written once at creation and never rewritten, so no later crash
  can tear it;
* pages 1 and 2 are the two alternating **catalog slots**.  Every
  catalog update (page count plus the JSON catalog mapping blob names to
  (first page, byte length, allocated pages) spans) is written whole to
  the slot the *previous* update did not use, stamped with a sequence
  number and a CRC.  Opening reads both slots and adopts the valid one
  with the highest sequence number, so a write torn by a crash (or a
  truncated file) simply falls back to the previous catalog — the flip
  is atomic at the granularity of "which slot validates".  By default
  writes are only flushed to the OS, so this guarantee covers *process*
  crashes; against power loss the OS may reorder the flip ahead of its
  data pages.  Open with ``sync=True`` to put an ``fsync`` barrier on
  each side of the slot write, extending the ordering (data pages
  durable before the catalog points at them) to whole-machine crashes
  at the usual fsync cost per catalog flip;
* every other page is raw data, reached either through a tiny LRU
  buffer pool (:meth:`read_page`) or through an mmap fast path that
  copies straight out of the OS page cache (:meth:`get_blob` with
  ``prefer_mmap=True``).

On top of the page layer sits a minimal named-blob interface
(:meth:`put_blob` / :meth:`get_blob`): a blob occupies a contiguous run
of pages, which is exactly the shape :meth:`repro.core.compact.CompactLTree.to_bytes`
wants — the engine's int64 columns land page-aligned on disk and come
back with one bulk copy per column.  Every write is copy-on-write: a
changed blob lands on pages the current catalog does not reference
(first fit into the gaps between live spans, else past the last one),
an unchanged blob keeps its span, and one catalog flip makes the batch
visible.  No put ever writes a page the pre-flip catalog points at, so
a crash at any byte of a put reopens bit-identically on the previous
catalog.  The space cost: until :meth:`vacuum` slides every live span
down and truncates the file, the file also holds the pages the
previous flip freed (later puts reuse them as gaps).

The pool counts hits and misses (:attr:`pool_hits` / :attr:`pool_misses`)
so experiments can check the :class:`repro.storage.pager.PageModel`
``cache_hit_rate`` they assume against what a real pool delivers.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import time
import zlib
from collections import OrderedDict
from typing import Iterable, Iterator, Optional

from repro.errors import CorruptionError, StorageError
from repro.obs import METRICS, TRACER
from repro.storage.faults import FAILPOINTS, failpoint, fsync_file

#: magic prefix of a page file (page 0, bytes 0..8)
PAGE_MAGIC = b"LTPAGES\x00"
#: page-file format version (bump on layout changes); version 2 is the
#: crash-consistent superblock + double-slot catalog layout, and the
#: only one :class:`PageStore` opens — any other version is refused
PAGE_FORMAT_VERSION = 2

#: the immutable superblock (page 0): magic, version, page_size
_SUPERBLOCK = struct.Struct("<8sII")

#: fixed part of a catalog slot (pages 1 and 2): page_count, sequence
#: number, catalog byte length, CRC32 of the slot minus this field
_CATALOG_HEADER = struct.Struct("<QQII")

#: pages reserved at the front of the file (superblock + two slots)
RESERVED_PAGES = 3


def _serialize_catalog(catalog: dict, page_size: int) -> bytes:
    """Serialize ``catalog`` so it fits one header page.

    Spans carry a per-span CRC32 as their fourth element.  On stores
    with tiny pages that element can push the catalog past the single
    header page, so before giving up the CRCs are dropped (restoring
    the pre-CRC 3-element span layout).  Integrity checking is a layer
    on top of the format, never the reason a store refuses a write
    that used to fit.
    """
    raw = json.dumps(catalog, separators=(",", ":")).encode("utf-8")
    if _CATALOG_HEADER.size + len(raw) <= page_size:
        return raw
    bare = {name: list(span[:3]) for name, span in catalog.items()}
    raw = json.dumps(bare, separators=(",", ":")).encode("utf-8")
    if _CATALOG_HEADER.size + len(raw) <= page_size:
        return raw
    raise StorageError(
        f"catalog of {len(catalog)} blobs overflows the "
        f"{page_size}-byte header page")

DEFAULT_PAGE_SIZE = 4096
DEFAULT_POOL_PAGES = 16

#: sibling temp-file suffixes this store's temp+rename recipes use; a
#: leftover (from a crash between temp write and rename) is removed on
#: open — the original file is always the authoritative one
TEMP_SUFFIXES = (".vacuum",)

# the enumerable crash surface of this module (see repro.storage.faults)
FAILPOINTS.declare("pagestore:create:post-superblock",
                   "superblock written, no catalog slot yet")
FAILPOINTS.declare("pagestore:catalog:pre-write",
                   "data flushed, shadow catalog slot not yet written")
FAILPOINTS.declare("pagestore:catalog:torn-write",
                   "tearable write of the shadow catalog slot")
FAILPOINTS.declare("pagestore:catalog:post-write",
                   "shadow slot written, sequence not yet adopted")
FAILPOINTS.declare("pagestore:put:pre-data",
                   "batch planned, no span bytes written")
FAILPOINTS.declare("pagestore:put:mid-data",
                   "between two span writes of one batch")
FAILPOINTS.declare("pagestore:put:torn-span",
                   "tearable write of one blob span")
FAILPOINTS.declare("pagestore:put:post-data",
                   "all spans written, catalog flip not yet issued")
FAILPOINTS.declare("pagestore:delete:pre-flip",
                   "delete decided, catalog flip not yet issued")
FAILPOINTS.declare("pagestore:vacuum:pre-build",
                   "live blobs read, replacement file not yet built")
FAILPOINTS.declare("pagestore:vacuum:pre-replace",
                   "replacement complete, rename not yet issued")
FAILPOINTS.declare("pagestore:vacuum:post-replace",
                   "rename done, store not yet reopened")


class PageStore:
    """A file of fixed-size pages with an LRU buffer pool.

    Parameters
    ----------
    path:
        File to open; created (with a fresh header) when missing or
        empty.
    page_size:
        Page size in bytes for a *new* file (``None`` means
        ``DEFAULT_PAGE_SIZE``).  An existing file is always read with
        its header's page size; passing an explicit value that
        disagrees with the header raises :class:`StorageError`.
    pool_pages:
        Capacity of the LRU buffer pool, in pages.
    sync:
        ``True`` brackets every catalog flip with ``os.fsync`` barriers
        so the crash-consistency ordering holds across power loss, not
        just process crashes (see the module docstring).  Off by
        default: the save/reopen workload this library benchmarks is
        process-crash-consistent without paying an fsync per flip.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "doc.ltp")
    >>> with PageStore(path) as store:
    ...     store.put_blob("greeting", b"hello pages")
    >>> with PageStore(path) as store:
    ...     bytes(store.get_blob("greeting"))
    b'hello pages'
    """

    def __init__(self, path: str, page_size: Optional[int] = None,
                 pool_pages: int = DEFAULT_POOL_PAGES,
                 sync: bool = False):
        if page_size is not None and \
                page_size < _CATALOG_HEADER.size + 2:
            raise StorageError(
                f"page_size {page_size} cannot hold the file header")
        if pool_pages < 1:
            raise StorageError("pool_pages must be >= 1")
        self.path = os.fspath(path)
        self.pool_pages = pool_pages
        self.sync = bool(sync)
        self._pool: OrderedDict[int, bytes] = OrderedDict()
        self.pool_hits = 0
        self.pool_misses = 0
        self._map: Optional[mmap.mmap] = None
        self._map_length = 0
        #: superseded maps still pinned by exported memoryviews
        self._retired_maps: list[mmap.mmap] = []
        for suffix in TEMP_SUFFIXES:
            # leftover of a temp+rename recipe that crashed before its
            # rename: this file is authoritative, the temp is garbage a
            # retry would recreate anyway — drop it so no later scan,
            # scrub or human trips over it
            leftover = self.path + suffix
            if os.path.exists(leftover):
                os.unlink(leftover)
        exists = os.path.exists(self.path) and \
            os.path.getsize(self.path) > 0
        self._file = open(self.path, "r+b" if exists else "w+b")
        try:
            if exists:
                (self.page_size, self.page_count, self._seq,
                 self._catalog) = self._read_header()
                if page_size is not None and \
                        page_size != self.page_size:
                    raise StorageError(
                        f"file {self.path!r} has {self.page_size}-byte "
                        f"pages; cannot reopen with page_size="
                        f"{page_size}")
            else:
                self.page_size = page_size if page_size is not None \
                    else DEFAULT_PAGE_SIZE
                self.page_count = RESERVED_PAGES
                self._seq = 0
                self._catalog: dict[str, list[int]] = {}
                superblock = _SUPERBLOCK.pack(
                    PAGE_MAGIC, PAGE_FORMAT_VERSION, self.page_size)
                self._file.write(
                    superblock +
                    b"\x00" * (RESERVED_PAGES * self.page_size -
                               len(superblock)))
                failpoint("pagestore:create:post-superblock",
                          store=self)
                self._write_header()
        except BaseException:
            # a fault action may already have severed the descriptor
            # (torn-write kills the raw fd); close-for-cleanup must not
            # mask the original exception with EBADF
            try:
                self._file.close()
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # header pages (superblock + alternating catalog slots)
    # ------------------------------------------------------------------
    def _read_header(self) -> tuple[int, int, int, dict[str, list[int]]]:
        self._file.seek(0)
        raw = self._file.read(_SUPERBLOCK.size)
        if len(raw) < _SUPERBLOCK.size:
            raise CorruptionError(f"{self.path!r}: truncated superblock")
        magic, version, page_size = _SUPERBLOCK.unpack(raw)
        if magic != PAGE_MAGIC:
            raise CorruptionError(
                f"{self.path!r}: bad magic {magic!r}; not a page file")
        if version != PAGE_FORMAT_VERSION:
            raise StorageError(
                f"{self.path!r}: unsupported page-file version {version} "
                f"(supported: {PAGE_FORMAT_VERSION})")
        best: Optional[tuple[int, int, bytes]] = None
        for slot_page in (1, 2):
            state = self._read_catalog_slot(slot_page, page_size)
            if state is not None and (best is None or state[0] > best[0]):
                best = state
        if best is None:
            if self._is_crashed_create(page_size):
                # a create that died after its superblock but before
                # the first catalog flip: both slots still all-zero, no
                # data pages.  There is nothing to lose — adopt the
                # empty catalog the flip would have written
                return page_size, RESERVED_PAGES, 0, {}
            raise CorruptionError(
                f"{self.path!r}: neither catalog slot validates "
                f"(both torn or truncated)")
        seq, page_count, catalog_raw = best
        catalog = json.loads(catalog_raw.decode("utf-8")) \
            if catalog_raw else {}
        return page_size, page_count, seq, catalog

    def _is_crashed_create(self, page_size: int) -> bool:
        """Whether this file is a create() that crashed pre-first-flip.

        True exactly when no byte past the superblock is nonzero and
        the file holds no data pages — the state
        ``pagestore:create:post-superblock`` leaves behind.  Any
        nonzero byte in a slot means a catalog *was* written and is now
        torn: that is corruption, not a benign half-create.
        """
        if os.fstat(self._file.fileno()).st_size > \
                RESERVED_PAGES * page_size:
            return False
        self._file.seek(_SUPERBLOCK.size)
        rest = self._file.read(RESERVED_PAGES * page_size -
                               _SUPERBLOCK.size)
        return rest.count(0) == len(rest)

    def _read_catalog_slot(self, slot_page: int, page_size: int
                           ) -> Optional[tuple[int, int, bytes]]:
        """(seq, page_count, catalog bytes) of one slot, None if invalid.

        A slot is invalid — zeroed, torn by a crashed write, or cut off
        by a truncated file — exactly when its CRC does not match; the
        opener then falls back to the other slot.
        """
        self._file.seek(slot_page * page_size)
        page = self._file.read(page_size)
        if len(page) < _CATALOG_HEADER.size:
            return None
        page_count, seq, catalog_len, crc = _CATALOG_HEADER.unpack_from(
            page, 0)
        body_end = _CATALOG_HEADER.size + catalog_len
        if catalog_len < 0 or body_end > len(page):
            return None
        checked = page[:_CATALOG_HEADER.size - 4] + \
            page[_CATALOG_HEADER.size:body_end]
        if zlib.crc32(checked) != crc:
            return None
        return seq, page_count, page[_CATALOG_HEADER.size:body_end]

    def _write_header(self, catalog_raw: Optional[bytes] = None) -> None:
        """Write the catalog to the shadow slot and flip to it.

        The slot the last update used is left untouched, so a *process*
        crash at any byte of this write leaves a store that reopens with
        the previous catalog (the torn slot fails its CRC).  Data writes
        are flushed first so the new catalog never points at pages the
        OS has not seen; only with ``sync=True`` is that ordering also
        forced to the disk (fsync before and after the slot write), so
        the guarantee extends to power loss — without it the OS may
        persist the flip ahead of its data pages.
        """
        if catalog_raw is None:
            catalog_raw = _serialize_catalog(self._catalog, self.page_size)
        seq = self._seq + 1
        header = _CATALOG_HEADER.pack(self.page_count, seq,
                                      len(catalog_raw), 0)
        crc = zlib.crc32(header[:-4] + catalog_raw)
        page = header[:-4] + struct.pack("<I", crc) + catalog_raw
        slot_page = 1 + (seq % 2)
        self._file.flush()
        if self.sync:
            fsync_file(self._file)          # data durable before the flip
        failpoint("pagestore:catalog:pre-write", store=self)
        self._file.seek(slot_page * self.page_size)
        slot_bytes = page + b"\x00" * (self.page_size - len(page))
        failpoint("pagestore:catalog:torn-write", store=self,
                  file=self._file, data=slot_bytes)
        self._file.write(slot_bytes)
        failpoint("pagestore:catalog:post-write", store=self)
        self._file.flush()
        if self.sync:
            fsync_file(self._file)          # the flip itself durable
        self._seq = seq
        self._pool.pop(slot_page, None)

    # ------------------------------------------------------------------
    # page layer
    # ------------------------------------------------------------------
    def read_page(self, page_id: int) -> bytes:
        """One page through the buffer pool (LRU, counted)."""
        self._check_page(page_id)
        cached = self._pool.get(page_id)
        if cached is not None:
            self._pool.move_to_end(page_id)
            self.pool_hits += 1
            return cached
        self.pool_misses += 1
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        if len(data) < self.page_size:
            data = data + b"\x00" * (self.page_size - len(data))
        self._pool[page_id] = data
        while len(self._pool) > self.pool_pages:
            self._pool.popitem(last=False)
        return data

    def cache_stats(self) -> dict:
        """Buffer-pool effectiveness, as a structured dict.

        ``hit_rate`` is lifetime hits over lifetime lookups (0.0 before
        the first read); ``cached_pages``/``pool_pages`` show how full
        the LRU is against its cap.  This is the public face of the
        :attr:`pool_hits`/:attr:`pool_misses` counters the pool has
        always kept.
        """
        hits, misses = self.pool_hits, self.pool_misses
        total = hits + misses
        return {
            "pool_hits": hits,
            "pool_misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
            "cached_pages": len(self._pool),
            "pool_pages": self.pool_pages,
        }

    def _publish_pool_gauges(self) -> None:
        """Mirror the pool counters into the metrics registry (enabled
        callers only — blob reads/writes refresh these)."""
        stats = self.cache_stats()
        METRICS.gauge("pages.pool_hits", stats["pool_hits"])
        METRICS.gauge("pages.pool_misses", stats["pool_misses"])
        METRICS.gauge("pages.pool_hit_rate", stats["hit_rate"])

    def _check_page(self, page_id: int) -> None:
        if not 0 <= page_id < self.page_count:
            raise StorageError(
                f"page {page_id} outside file of {self.page_count} pages")

    def _pages_for(self, length: int) -> int:
        return max(1, -(-length // self.page_size))

    def _span_bytes(self, span: list[int]) -> bytes:
        """The live bytes of one catalog span, read straight through."""
        self._file.seek(span[0] * self.page_size)
        return self._file.read(span[1])

    @staticmethod
    def _first_fit(busy: list[tuple[int, int]], needed: int) -> int:
        """First page of a ``needed``-page hole between busy intervals.

        ``busy`` must be sorted by start (intervals may touch or
        overlap); the hole may extend past the last interval — the
        caller grows ``page_count`` to cover it.
        """
        cursor = RESERVED_PAGES
        for start, end in busy:
            if start - cursor >= needed:
                return cursor
            cursor = max(cursor, end)
        return cursor

    # ------------------------------------------------------------------
    # blob layer
    # ------------------------------------------------------------------
    def put_blob(self, name: str, data: bytes) -> None:
        """Store ``data`` under ``name`` across a contiguous page span.

        A one-blob :meth:`put_blobs`: the bytes land on pages the
        current catalog does not reference and one flip repoints the
        name.  A catalog that would overflow the header page is rejected
        *before* anything is written, so a failed put leaves the store
        exactly as it was.
        """
        self.put_blobs({name: data})

    def put_blobs(self, items: dict[str, bytes],
                  delete: Iterable[str] = ()) -> None:
        """Write every blob in ``items`` and drop every name in
        ``delete`` under a **single** catalog flip.

        (Instrumented wrapper — semantics live in the impl below.)
        """
        if not METRICS.enabled:
            return self._put_blobs_impl(items, delete)
        t0 = time.perf_counter()
        result = self._put_blobs_impl(items, delete)
        METRICS.observe("pages.put_blobs.seconds", time.perf_counter() - t0)
        METRICS.inc("pages.blob_writes", len(items))
        self._publish_pool_gauges()
        return result

    def _put_blobs_impl(self, items: dict[str, bytes],
                        delete: Iterable[str] = ()) -> None:
        """Write every blob in ``items`` and drop every name in
        ``delete`` under a **single** catalog flip, copy-on-write.

        No page the *current* catalog references is written.  Each
        changed blob is first-fit into the gaps between the pre-flip
        spans (or past the last one), a blob whose bytes are unchanged
        keeps its span without a write, and only then does one header
        update make the whole batch visible: a reader, or a reopen
        after a crash at **any** byte of the batch, sees the previous
        catalog bit-identically or the new one, and a multi-blob save
        pays one flip — one fsync pair under ``sync=True`` — instead of
        one per blob.  The batch's ``page_count`` is the end of the
        last live span, so pages it frees are reused by later puts; the
        file itself is never truncated here (exported mmap views stay
        valid) — :meth:`vacuum` gives the bytes back.  An unchanged
        blob costs one whole-span read (the equality probe).  Names in
        ``delete`` that are not cataloged are ignored (a crashed earlier
        cleanup must not fail the retry).
        """
        candidate = dict(self._catalog)
        for name in delete:
            candidate.pop(name, None)
        # every interval the *pre-flip* catalog references is
        # untouchable until the flip lands: a crash anywhere in this
        # batch must fall back to it bit-identically
        busy = sorted((span[0], span[0] + span[2])
                      for span in self._catalog.values())
        writes: list[tuple[int, bytes, int]] = []
        for name, data in items.items():
            data = bytes(data)
            needed = self._pages_for(len(data))
            span = candidate.get(name)
            if span is not None and span[1] == len(data) and \
                    self._span_bytes(span) == data:
                if span[2] != needed:
                    # give back over-allocation from a fatter past
                    candidate[name] = [span[0], len(data), needed,
                                       zlib.crc32(data)]
                continue
            first = self._first_fit(busy, needed)
            busy.append((first, first + needed))
            busy.sort()
            candidate[name] = [first, len(data), needed, zlib.crc32(data)]
            writes.append((first, data, needed))
        if candidate == self._catalog and not writes:
            return
        page_count = max([RESERVED_PAGES] +
                         [span[0] + span[2] for span in candidate.values()])
        catalog_raw = _serialize_catalog(candidate, self.page_size)
        # data + tail padding covers each whole span, so a span is
        # written once, directly — no zero-fill first
        failpoint("pagestore:put:pre-data", store=self)
        for index, (first, data, needed) in enumerate(writes):
            if index:
                failpoint("pagestore:put:mid-data", store=self,
                          index=index)
            self._file.seek(first * self.page_size)
            padding = needed * self.page_size - len(data)
            span_bytes = data + b"\x00" * padding
            failpoint("pagestore:put:torn-span", store=self,
                      file=self._file, data=span_bytes)
            self._file.write(span_bytes)
            for page_id in range(first, first + needed):
                self._pool.pop(page_id, None)
        failpoint("pagestore:put:post-data", store=self)
        self.page_count = page_count
        self._catalog = candidate
        self._write_header(catalog_raw)
        self.flush()

    def get_blob(self, name: str, prefer_mmap: bool = False,
                 verify: bool = False) -> bytes:
        """Fetch blob ``name`` (instrumented wrapper — see impl below)."""
        if not METRICS.enabled:
            return self._get_blob_impl(name, prefer_mmap, verify)
        t0 = time.perf_counter()
        data = self._get_blob_impl(name, prefer_mmap, verify)
        METRICS.observe("pages.get_blob.seconds", time.perf_counter() - t0)
        METRICS.inc("pages.blob_reads")
        self._publish_pool_gauges()
        return data

    def _get_blob_impl(self, name: str, prefer_mmap: bool = False,
                       verify: bool = False) -> bytes:
        """Fetch blob ``name``.

        ``prefer_mmap=True`` returns a read-only ``memoryview`` over an
        mmap of the file — zero intermediate copies.  The view stays
        *readable* until :meth:`close`, but it aliases the file: once a
        put or delete has freed the span, a later put may reuse its
        pages, and the new bytes show through the view.  Consume (parse
        or copy) the view before writing the blob again; the default
        path returns an independent ``bytes`` assembled page by page
        through the buffer pool.

        ``verify=True`` checks the bytes against the CRC the catalog
        recorded at write time and raises
        :class:`~repro.errors.CorruptionError` on mismatch — the
        detector for span bytes that changed, or never reached the
        disk, after their flip: a bit flip, or a power loss without
        ``sync=True`` that persisted the flip ahead of its data pages.
        A span without a CRC — written before catalogs carried them, or
        by a catalog that had to drop them to fit its slot (see
        :func:`_serialize_catalog`) — is passed through unchecked.
        """
        span = self._catalog.get(name)
        if span is None:
            raise KeyError(f"no blob named {name!r} in {self.path!r}")
        first, length = span[0], span[1]
        if prefer_mmap and length > 0 and not verify:
            start = first * self.page_size
            return memoryview(self._mmap_file())[start:start + length]
        pieces = []
        remaining = length
        for page_id in range(first, first + self._pages_for(length)):
            page = self.read_page(page_id)
            pieces.append(page[:remaining] if remaining < self.page_size
                          else page)
            remaining -= self.page_size
        data = b"".join(pieces)
        if verify and len(span) > 3:
            actual = zlib.crc32(data)
            if actual != span[3]:
                raise CorruptionError(
                    f"{self.path!r}: blob bytes do not match their "
                    f"catalog CRC", blob=name,
                    offset=first * self.page_size,
                    expected_crc=span[3], actual_crc=actual)
        return data

    def _mmap_file(self) -> mmap.mmap:
        """The shared read-only mmap, remapped when the file has grown.

        One mapping serves every ``prefer_mmap`` read; a superseded
        mapping whose memoryviews are still exported is parked until
        :meth:`close` rather than leaked per call.
        """
        self.flush()
        size = os.fstat(self._file.fileno()).st_size
        # mmap.size() is the *file* size, not the mapped length, so the
        # length at map time is tracked separately; a mismatch in either
        # direction remaps (vacuum shrinks the file — touching pages of
        # a stale over-long mapping would fault)
        if self._map is None or self._map_length != size:
            old = self._map
            self._map = mmap.mmap(self._file.fileno(), 0,
                                  access=mmap.ACCESS_READ)
            self._map_length = size
            if old is not None:
                try:
                    old.close()
                except BufferError:  # a view of it is still exported
                    self._retired_maps.append(old)
        return self._map

    def delete_blob(self, name: str) -> None:
        """Drop ``name`` from the catalog in one copy-on-write flip.

        Later puts reuse the span's pages; the file keeps them until
        :meth:`vacuum` truncates it.
        """
        if name not in self._catalog:
            raise KeyError(f"no blob named {name!r} in {self.path!r}")
        failpoint("pagestore:delete:pre-flip", store=self, blob=name)
        self._put_blobs_impl({}, (name,))

    def has_blob(self, name: str) -> bool:
        """Whether the catalog holds ``name``."""
        return name in self._catalog

    def blobs(self) -> Iterator[str]:
        """Names in the catalog, in insertion order."""
        return iter(self._catalog)

    def blob_length(self, name: str) -> int:
        """Byte length of blob ``name``."""
        span = self._catalog.get(name)
        if span is None:
            raise KeyError(f"no blob named {name!r} in {self.path!r}")
        return span[1]

    @property
    def allocated_pages(self) -> int:
        """Data pages reachable through the catalog (reserved excluded).

        The file's other data pages are free: spans that earlier flips
        released when a blob was rewritten or deleted.  Later puts
        reuse them, and :meth:`vacuum` gives them back.
        """
        return sum(span[2] for span in self._catalog.values())

    def vacuum(self) -> int:
        """Give back the file's free pages; returns how many.

        (Instrumented wrapper — semantics live in the impl below.)
        """
        if not (METRICS.enabled or TRACER.enabled):
            return self._vacuum_impl()
        t0 = time.perf_counter()
        with TRACER.span("pages.vacuum", path=self.path) as span:
            reclaimed = self._vacuum_impl()
            span.set(reclaimed_pages=reclaimed)
        if METRICS.enabled:
            METRICS.observe("pages.vacuum.seconds",
                            time.perf_counter() - t0)
            METRICS.inc("pages.vacuums")
            METRICS.inc("pages.reclaimed_pages", reclaimed)
        return reclaimed

    def _vacuum_impl(self) -> int:
        """Give back the file's free pages; returns how many.

        The compacted layout is written to a **sibling temp file** and
        atomically renamed over this one (``os.replace``), so a crash
        at any point leaves either the old file or the complete
        compacted file — never a live span half-overwritten by its own
        relocation.  Every blob keeps its byte content; free spans,
        over-allocation from earlier larger sizes and the dead tail past
        ``page_count`` are dropped.  The pages given back are counted
        from the file's size, because a put trims ``page_count`` to the
        last live page but never truncates the file.  All buffer-pool
        entries and the shared mmap are invalidated; ``memoryview``
        exports from earlier ``prefer_mmap`` reads alias the *old* file
        and must not be trusted afterwards.
        """
        compact_pages = RESERVED_PAGES + sum(
            self._pages_for(span[1]) for span in self._catalog.values())
        self.flush()
        file_pages = self._pages_for(
            os.fstat(self._file.fileno()).st_size)
        reclaimed = file_pages - compact_pages
        if reclaimed <= 0:
            return 0
        # read everything through the current layout first
        live = {name: bytes(self.get_blob(name))
                for name in self._catalog}
        failpoint("pagestore:vacuum:pre-build", store=self)
        temp_path = self.path + ".vacuum"
        if os.path.exists(temp_path):
            # leftover from a vacuum that crashed before its rename;
            # the original file is authoritative, start over
            os.unlink(temp_path)
        replacement = PageStore(temp_path, page_size=self.page_size,
                                pool_pages=self.pool_pages)
        try:
            replacement.put_blobs(live)
            fsync_file(replacement._file)
        except BaseException:
            replacement.close()
            os.unlink(temp_path)
            raise
        replacement.close()
        # adopt the compacted file: drop this store's handle, rename
        # the replacement into place, reopen
        for mapped in ([self._map] if self._map is not None else []):
            try:
                mapped.close()
            except BufferError:  # an exported view still pins it
                self._retired_maps.append(mapped)
        self._map = None
        self._map_length = 0
        self._pool.clear()
        self._file.close()
        failpoint("pagestore:vacuum:pre-replace", store=self)
        os.replace(temp_path, self.path)
        failpoint("pagestore:vacuum:post-replace", store=self)
        self._file = open(self.path, "r+b")
        (self.page_size, self.page_count, self._seq,
         self._catalog) = self._read_header()
        return reclaimed

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Push buffered writes to the OS."""
        self._file.flush()

    def close(self) -> None:
        """Flush and release the file and any mmaps.

        Exported memoryviews from :meth:`get_blob` must be released by
        then; live exports keep their mmap open (never the file lock).
        """
        if self._file.closed:
            return
        self.flush()
        for mapped in self._retired_maps + \
                ([self._map] if self._map is not None else []):
            try:
                mapped.close()
            except BufferError:  # a memoryview is still exported
                pass
        self._retired_maps.clear()
        self._map = None
        self._pool.clear()
        self._file.close()

    def __enter__(self) -> "PageStore":
        return self

    def __exit__(self, *exc_info: object) -> Optional[bool]:
        self.close()
        return None

    def __repr__(self) -> str:
        return (f"PageStore({self.path!r}, pages={self.page_count}, "
                f"page_size={self.page_size}, "
                f"blobs={len(self._catalog)})")
