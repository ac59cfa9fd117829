"""Page-backed store: fixed-size pages, buffer pool, mmap fast path,
crash-consistent catalog flips, vacuum."""

import os
import struct

import pytest

from repro.errors import StorageError
from repro.storage.pages import (DEFAULT_PAGE_SIZE, PAGE_FORMAT_VERSION,
                                 PAGE_MAGIC, RESERVED_PAGES, PageStore)


@pytest.fixture()
def path(tmp_path):
    return str(tmp_path / "store.ltp")


class TestPageLayer:
    def test_new_file_has_reserved_pages(self, path):
        """Superblock + the two catalog slots precede all data pages."""
        with PageStore(path) as store:
            assert store.page_count == RESERVED_PAGES
        assert os.path.getsize(path) == RESERVED_PAGES * DEFAULT_PAGE_SIZE
        with open(path, "rb") as handle:
            assert handle.read(8) == PAGE_MAGIC

    def test_page_bounds_checked(self, path):
        with PageStore(path, page_size=128) as store:
            with pytest.raises(StorageError):
                store.read_page(5)
            store.put_blob("a", b"a" * 300)
            store.put_blob("b", b"b" * 100)
            store.delete_blob("a")
            store.put_blob("c", b"c" * 200)     # first fit from the front
            # no span ever covers the superblock or a catalog slot
            assert min(span[0] for span in store._catalog.values()) == \
                RESERVED_PAGES
            assert store.read_page(RESERVED_PAGES)[:3] == b"ccc"
            with pytest.raises(StorageError):
                store.read_page(store.page_count)

    def test_pool_caps_and_counts(self, path):
        with PageStore(path, page_size=128, pool_pages=2) as store:
            store.put_blob("x", b"x" * 3 * 128)     # three data pages
            first = store._catalog["x"][0]
            store.read_page(first)        # miss
            store.read_page(first)        # hit
            store.read_page(first + 1)    # miss
            store.read_page(first + 2)    # miss, evicts `first`
            store.read_page(first)        # miss again
            assert store.pool_hits == 1
            assert store.pool_misses == 4

    def test_bad_magic_rejected(self, path):
        with open(path, "wb") as handle:
            handle.write(b"NOTPAGES" + b"\x00" * 120)
        with pytest.raises(StorageError):
            PageStore(path)

    def test_failed_open_releases_the_file(self, path):
        """Regression: a rejected open must not leak the descriptor."""
        with open(path, "wb") as handle:
            handle.write(b"NOTPAGES" + b"\x00" * 120)
        for _ in range(5):
            with pytest.raises(StorageError):
                PageStore(path)
        # the file is free to reopen exclusively (fd was closed)
        os.rename(path, path + ".moved")
        os.rename(path + ".moved", path)

    def test_grown_span_written_once(self, path):
        """Regression: growing a blob must not zero-fill then rewrite."""

        class CountingFile:
            def __init__(self, inner):
                self.inner = inner
                self.writes = []

            def write(self, data):
                self.writes.append(len(data))
                return self.inner.write(data)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        with PageStore(path, page_size=256) as store:
            counting = CountingFile(store._file)
            store._file = counting
            store.put_blob("tree", b"z" * 1000)
            # one data+padding write plus one header rewrite — no
            # extra span-sized zero-fill
            span_writes = [size for size in counting.writes
                           if size >= 1000]
            assert len(span_writes) == 1
            store._file = counting.inner
        with PageStore(path) as store:
            assert store.get_blob("tree") == b"z" * 1000

    def test_bad_version_rejected(self, path):
        with PageStore(path) as store:
            store.put_blob("x", b"payload")
        with open(path, "r+b") as handle:
            handle.seek(8)
            handle.write((PAGE_FORMAT_VERSION + 1).to_bytes(4, "little"))
        with pytest.raises(StorageError):
            PageStore(path)

    def test_page_size_mismatch_rejected(self, path):
        with PageStore(path, page_size=512):
            pass
        with pytest.raises(StorageError):
            PageStore(path, page_size=1024)

    def test_existing_page_size_wins_over_default(self, path):
        with PageStore(path, page_size=512) as store:
            store.put_blob("x", b"abc")
        with PageStore(path) as store:   # page_size omitted
            assert store.page_size == 512
            assert bytes(store.get_blob("x")) == b"abc"

    def test_explicit_default_sized_mismatch_still_rejected(self, path):
        """Regression: an explicit page_size that happens to equal the
        default must still be checked against the file header."""
        with PageStore(path, page_size=8192):
            pass
        with pytest.raises(StorageError):
            PageStore(path, page_size=DEFAULT_PAGE_SIZE)
        with PageStore(path, page_size=8192) as store:  # matching: fine
            assert store.page_size == 8192


class TestBlobLayer:
    def test_roundtrip_across_reopen(self, path):
        blob = os.urandom(3 * DEFAULT_PAGE_SIZE + 17)
        with PageStore(path) as store:
            store.put_blob("tree", blob)
        with PageStore(path) as store:
            assert store.get_blob("tree") == blob
            assert store.blob_length("tree") == len(blob)

    def test_mmap_path_matches_pool_path(self, path):
        blob = os.urandom(2 * DEFAULT_PAGE_SIZE + 5)
        with PageStore(path) as store:
            store.put_blob("tree", blob)
        with PageStore(path) as store:
            view = store.get_blob("tree", prefer_mmap=True)
            assert isinstance(view, memoryview)
            assert bytes(view) == blob == store.get_blob("tree")
            view.release()

    def test_shrink_then_regrow_reuses_the_span(self, path):
        """Regression: shrink-then-regrow must not leak a fresh span per
        cycle — each copy-on-write put first-fits into the span the
        previous one freed."""
        with PageStore(path, page_size=128) as store:
            store.put_blob("x", b"a" * 300)   # 3 pages allocated
            pages = store.page_count
            for cycle in range(5):
                store.put_blob("x", b"tiny")
                store.put_blob("x", bytes([cycle]) * 300)
            assert store.page_count == pages
            assert store.get_blob("x") == bytes([4]) * 300

    def test_overwrite_appends_when_grown(self, path):
        with PageStore(path, page_size=128) as store:
            store.put_blob("tree", b"a" * 100)
            pages = store.page_count
            store.put_blob("tree", b"b" * 1000)
            assert store.page_count > pages
            assert store.get_blob("tree") == b"b" * 1000

    def test_many_blobs(self, path):
        blobs = {f"blob{i}": os.urandom(50 * i + 1) for i in range(20)}
        with PageStore(path, page_size=1024) as store:
            for name, data in blobs.items():
                store.put_blob(name, data)
        with PageStore(path) as store:
            assert sorted(store.blobs()) == sorted(blobs)
            for name, data in blobs.items():
                assert store.get_blob(name) == data

    def test_empty_blob(self, path):
        with PageStore(path) as store:
            store.put_blob("empty", b"")
        with PageStore(path) as store:
            assert store.get_blob("empty") == b""

    def test_delete_blob_orphans_span_until_vacuum(self, path):
        with PageStore(path, page_size=128) as store:
            store.put_blob("keep", b"k" * 200)     # pages 3-4
            store.put_blob("drop", b"d" * 500)     # pages 5-8
            size = os.path.getsize(path)
            store.delete_blob("drop")
            assert not store.has_blob("drop")
            # the flip trims page_count to the last live page, but the
            # file keeps the freed span...
            assert store.page_count == RESERVED_PAGES + 2
            assert os.path.getsize(path) == size
            with pytest.raises(KeyError):
                store.delete_blob("drop")
            assert store.vacuum() == 4             # ...until vacuumed
            assert os.path.getsize(path) == 128 * (RESERVED_PAGES + 2)
            assert store.get_blob("keep") == b"k" * 200
        with PageStore(path) as store:
            assert not store.has_blob("drop")
            assert store.get_blob("keep") == b"k" * 200

    def test_missing_blob_raises_keyerror(self, path):
        with PageStore(path) as store:
            with pytest.raises(KeyError):
                store.get_blob("ghost")
            with pytest.raises(KeyError):
                store.blob_length("ghost")
            assert not store.has_blob("ghost")

    def test_catalog_survives_partial_update(self, path):
        with PageStore(path) as store:
            store.put_blob("a", b"first")
        with PageStore(path) as store:
            store.put_blob("b", b"second")
        with PageStore(path) as store:
            assert store.get_blob("a") == b"first"
            assert store.get_blob("b") == b"second"

    def test_close_is_idempotent(self, path):
        store = PageStore(path)
        store.put_blob("x", b"data")
        store.close()
        store.close()

    def test_catalog_overflow_leaves_store_untouched(self, path):
        """A rejected put must not leave a blob the reopen will lose."""
        with PageStore(path, page_size=256) as store:
            store.put_blob("keeper", b"safe")
            pages_before = store.page_count
            with pytest.raises(StorageError):
                for index in range(500):
                    store.put_blob(f"blob-with-a-long-name-{index:04d}",
                                   b"x")
            overflow_names = [name for name in store.blobs()
                              if name.startswith("blob-with")]
            # the put that failed left no catalog entry behind
            failed = f"blob-with-a-long-name-{len(overflow_names):04d}"
            assert not store.has_blob(failed)
            assert store.page_count >= pages_before
            for name in overflow_names:
                assert store.get_blob(name) == b"x"
        with PageStore(path) as store:
            assert store.get_blob("keeper") == b"safe"
            for name in overflow_names:
                assert store.get_blob(name) == b"x"

    def test_mmap_reads_share_one_mapping(self, path):
        """Repeated mmap reads must not accumulate mappings."""
        with PageStore(path) as store:
            store.put_blob("tree", b"z" * 10_000)
            views = [store.get_blob("tree", prefer_mmap=True)
                     for _ in range(8)]
            assert store._map is not None
            assert store._retired_maps == []
            for view in views:
                view.release()

    def test_mmap_sees_blob_written_after_first_map(self, path):
        with PageStore(path) as store:
            store.put_blob("a", b"first")
            assert bytes(store.get_blob("a", prefer_mmap=True)) == \
                b"first"
            store.put_blob("b", b"second, beyond the old mapping" * 200)
            assert bytes(store.get_blob("b", prefer_mmap=True)) == \
                b"second, beyond the old mapping" * 200


class TestCrashConsistency:
    """The catalog flip must survive torn header writes and truncation."""

    def test_torn_catalog_write_falls_back_to_previous(self, path):
        """Corrupting the *active* slot mid-write loses only the last
        update: the opener adopts the other slot's older catalog."""
        with PageStore(path, page_size=256) as store:
            store.put_blob("a", b"alpha")
            store.put_blob("b", b"bravo")
            active = 1 + (store._seq % 2)
            page_size = store.page_size
        # simulate a write torn half-way through the active slot: keep
        # the first 12 bytes of the header, zero the rest of the page
        with open(path, "r+b") as handle:
            handle.seek(active * page_size)
            kept = handle.read(12)
            handle.seek(active * page_size)
            handle.write(kept + b"\x00" * (page_size - 12))
        with PageStore(path) as store:
            # the put of "b" flipped the catalog; tearing that flip
            # rewinds to the state where only "a" exists
            assert store.get_blob("a") == b"alpha"
            assert not store.has_blob("b")
            # and the store keeps working: the torn slot is rewritten
            store.put_blob("c", b"charlie")
        with PageStore(path) as store:
            assert store.get_blob("a") == b"alpha"
            assert store.get_blob("c") == b"charlie"

    def test_truncated_mid_put_reopens_with_old_catalog(self, path):
        """Truncating the file mid-``put_blob`` (data appended, catalog
        not yet flipped) reopens cleanly with the pre-put catalog."""
        with PageStore(path, page_size=256) as store:
            store.put_blob("keep", b"k" * 300)
            size_before = os.path.getsize(path)
            store.put_blob("grow", b"g" * 2000)
        # crash re-enactment: the grow's data pages were appended but
        # the process died inside the catalog write — cut the file just
        # after a partial stretch of the new data
        with open(path, "r+b") as handle:
            handle.truncate(size_before + 100)
        with PageStore(path) as store:
            assert store.get_blob("keep") == b"k" * 300
            # reopened from the older slot if the newer one was cut
            if store.has_blob("grow"):
                # the flip itself survived the truncation point; the
                # catalog must then still read back consistently
                assert store.blob_length("grow") == 2000
            store.put_blob("after", b"ok")
        with PageStore(path) as store:
            assert store.get_blob("keep") == b"k" * 300
            assert store.get_blob("after") == b"ok"

    def test_both_slots_invalid_is_rejected(self, path):
        with PageStore(path, page_size=256) as store:
            store.put_blob("a", b"alpha")
            page_size = store.page_size
        with open(path, "r+b") as handle:
            for slot in (1, 2):
                handle.seek(slot * page_size)
                handle.write(b"\xff" * page_size)
        with pytest.raises(StorageError, match="catalog slot"):
            PageStore(path)

    def test_updates_alternate_slots(self, path):
        """Consecutive catalog writes never land on the same slot."""
        with PageStore(path, page_size=256) as store:
            slots = []
            for index in range(4):
                store.put_blob(f"b{index}", bytes([index]) * 10)
                slots.append(1 + (store._seq % 2))
        assert slots[0] != slots[1]
        assert slots == [slots[0], slots[1]] * 2


class TestVacuum:
    def test_vacuum_reclaims_orphaned_spans(self, path):
        """Blob growth strands the old span; vacuum gives it back."""
        with PageStore(path, page_size=128) as store:
            store.put_blob("a", b"a" * 300)     # 3 pages
            store.put_blob("b", b"b" * 200)     # 2 pages
            store.put_blob("a", b"A" * 2000)    # grows: old 3 orphaned
            store.put_blob("b", b"B" * 1500)    # grows: old 2 orphaned
            orphans = store.page_count - RESERVED_PAGES - \
                store.allocated_pages
            assert orphans == 5
            before = store.allocated_pages
            reclaimed = store.vacuum()
            assert reclaimed == 5
            assert store.allocated_pages == before
            assert store.page_count == RESERVED_PAGES + \
                store.allocated_pages
            assert store.get_blob("a") == b"A" * 2000
            assert store.get_blob("b") == b"B" * 1500
        assert os.path.getsize(path) == 128 * (RESERVED_PAGES + 28)
        with PageStore(path) as store:   # compacted layout reopens
            assert store.get_blob("a") == b"A" * 2000
            assert store.get_blob("b") == b"B" * 1500

    def test_vacuum_trims_over_allocation(self, path):
        """A shrunk blob relocates to a right-sized span; vacuum gives
        back the fat span it left behind."""
        with PageStore(path, page_size=128) as store:
            store.put_blob("x", b"x" * 1000)    # 8 pages allocated
            store.put_blob("x", b"y" * 100)     # relocated, 1 page
            assert store.allocated_pages == 1
            reclaimed = store.vacuum()
            assert reclaimed == 8
            assert store.allocated_pages == 1
            assert store.get_blob("x") == b"y" * 100

    def test_vacuum_truncates_a_trimmed_tail(self, path):
        """A put trims page_count below the file's end; vacuum counts
        the dead tail from the file size and cuts it."""
        with PageStore(path, page_size=128) as store:
            store.put_blob("keep", b"k" * 200)     # pages 3-4
            store.put_blob("big", b"b" * 1000)     # pages 5-12
            store.put_blob("big", b"1" * 100)      # relocated: page 13
            store.put_blob("big", b"2" * 100)      # first fit: page 5
            assert store.page_count == RESERVED_PAGES + 3
            assert os.path.getsize(path) == 128 * 14
            assert store.vacuum() == 8
            assert os.path.getsize(path) == 128 * (RESERVED_PAGES + 3)
            assert store.get_blob("keep") == b"k" * 200
            assert store.get_blob("big") == b"2" * 100
        with PageStore(path) as store:
            assert store.get_blob("big") == b"2" * 100

    def test_vacuum_noop_when_compact(self, path):
        with PageStore(path, page_size=128) as store:
            store.put_blob("a", b"a" * 300)
            store.put_blob("b", b"b" * 100)
            pages = store.page_count
            assert store.vacuum() == 0
            assert store.page_count == pages
            assert store.get_blob("a") == b"a" * 300

    def test_vacuum_then_mmap_reads(self, path):
        """The shared mapping is rebuilt for the shrunk file."""
        with PageStore(path, page_size=128) as store:
            store.put_blob("a", b"a" * 500)
            view = store.get_blob("a", prefer_mmap=True)
            assert bytes(view) == b"a" * 500
            view.release()
            store.put_blob("a", b"A" * 900)     # orphan the old span
            store.vacuum()
            assert bytes(store.get_blob("a", prefer_mmap=True)) == \
                b"A" * 900

    def test_vacuum_empty_store(self, path):
        with PageStore(path) as store:
            assert store.vacuum() == 0
            assert store.allocated_pages == 0

    def test_vacuum_is_crash_safe(self, path):
        """Vacuum rewrites into a temp file and renames atomically: a
        crash before the rename leaves the original untouched, and the
        stale temp is discarded by the next vacuum."""
        with PageStore(path, page_size=128) as store:
            store.put_blob("a", b"a" * 300)
            store.put_blob("a", b"A" * 900)      # orphan the old span
            store.put_blob("b", b"b" * 100)
        # a leftover temp from a vacuum that died pre-rename must not
        # poison the real one (it would otherwise be *opened* as an
        # existing page store and its stale catalog inherited)
        with PageStore(path + ".vacuum", page_size=128) as stale:
            stale.put_blob("ghost", b"boo")
        with PageStore(path) as store:
            assert store.vacuum() > 0
            assert not store.has_blob("ghost")
            assert store.get_blob("a") == b"A" * 900
            assert store.get_blob("b") == b"b" * 100
            assert not os.path.exists(path + ".vacuum")
        with PageStore(path) as store:
            assert store.get_blob("a") == b"A" * 900


class TestBatchedPuts:
    """put_blobs: many writes (and deletes) under one catalog flip."""

    def test_batch_is_one_flip_and_atomic_on_reopen(self, path):
        with PageStore(path, page_size=256) as store:
            store.put_blob("old", b"x" * 100)
            store.put_blob("dead", b"y" * 100)
            seq = store._seq
            store.put_blobs({"a": b"a" * 300, "b": b"b" * 10,
                             "old": b"X" * 50},
                            delete=["dead", "never-existed"])
            assert store._seq == seq + 1            # one flip
        with PageStore(path) as store:
            assert bytes(store.get_blob("a")) == b"a" * 300
            assert bytes(store.get_blob("b")) == b"b" * 10
            assert bytes(store.get_blob("old")) == b"X" * 50
            assert not store.has_blob("dead")

    def test_batch_overflow_leaves_store_untouched(self, path):
        with PageStore(path, page_size=128) as store:
            store.put_blob("keep", b"k")
            seq = store._seq
            pages = store.page_count
            huge = {f"blob-with-a-long-name-{i}": b"z" for i in range(40)}
            with pytest.raises(StorageError, match="overflows"):
                store.put_blobs(huge)
            assert store._seq == seq
            assert store.page_count == pages
            assert list(store.blobs()) == ["keep"]

    def test_empty_batch_is_noop(self, path):
        with PageStore(path) as store:
            seq = store._seq
            store.put_blobs({}, delete=["ghost"])
            assert store._seq == seq

    def test_batch_reuses_spans_like_put_blob(self, path):
        """put_blobs and put_blob share one copy-on-write path: each
        relocates a changed blob and the next one reuses the freed
        span."""
        with PageStore(path, page_size=128) as store:
            store.put_blob("a", b"a" * 300)      # pages 3-5
            store.put_blobs({"a": b"A" * 200})   # relocated: pages 6-7
            store.put_blob("a", b"b" * 300)      # back into pages 3-5
            assert store._catalog["a"][0] == RESERVED_PAGES
            store.put_blobs({"a": b"B" * 200})   # back into pages 6-7
            assert store.page_count == RESERVED_PAGES + 5
            assert bytes(store.get_blob("a")) == b"B" * 200


class TestReclaimingPuts:
    """Copy-on-write puts: recycle dead space, never touch a page the
    pre-flip catalog references."""

    def test_changed_blob_relocates_and_old_span_survives(self, path):
        """The old span's bytes must remain readable raw off the file
        after the batch — that is what makes a torn flip rewind
        bit-identical."""
        with PageStore(path, page_size=128) as store:
            store.put_blob("x", b"a" * 300)
            span = list(store._catalog["x"])
            store.put_blobs({"x": b"B" * 300})
            assert store._catalog["x"][0] != span[0]   # relocated
            assert bytes(store.get_blob("x")) == b"B" * 300
        with open(path, "rb") as handle:
            handle.seek(span[0] * 128)
            assert handle.read(300) == b"a" * 300      # untouched

    def test_unchanged_blob_keeps_its_span_without_a_write(self, path):
        with PageStore(path, page_size=128) as store:
            store.put_blob("same", b"s" * 200)
            store.put_blob("move", b"m" * 200)
            span = list(store._catalog["same"])
            store.put_blobs({"same": b"s" * 200, "move": b"M" * 200})
            assert store._catalog["same"][:2] == span[:2]
            assert bytes(store.get_blob("same")) == b"s" * 200
            assert bytes(store.get_blob("move")) == b"M" * 200

    def test_first_fit_reuses_gaps_and_bounds_growth(self, path):
        """Alternating rewrites must ping-pong between two span sets
        instead of appending a fresh span per cycle."""
        with PageStore(path, page_size=128) as store:
            store.put_blobs({"x": b"0" * 600})
            store.put_blobs({"x": b"1" * 600})
            high_water = store.page_count
            for cycle in range(2, 10):
                store.put_blobs({"x": bytes([cycle]) * 600})
                assert store.page_count <= high_water
            assert bytes(store.get_blob("x")) == bytes([9]) * 600
        with PageStore(path) as store:
            assert bytes(store.get_blob("x")) == bytes([9]) * 600

    def test_shrunk_blob_gives_back_over_allocation(self, path):
        with PageStore(path, page_size=128) as store:
            store.put_blob("x", b"x" * 1000)     # 8 pages allocated
            assert store.allocated_pages == 8
            store.put_blobs({"x": b"y" * 100})
            assert store.allocated_pages == 1
            assert bytes(store.get_blob("x")) == b"y" * 100

    def test_deleted_blobs_span_reused_by_the_next_batch(self, path):
        """Within one batch a deleted blob's span stays busy (a crash
        falls back to the catalog that still references it); the *next*
        batch reuses the gap."""
        with PageStore(path, page_size=128) as store:
            store.put_blob("keep", b"k" * 200)
            store.put_blob("dead", b"d" * 900)   # 8-page tail span
            pages = store.page_count
            store.put_blobs({}, delete=["dead"])
            store.put_blobs({"new": b"n" * 600})
            # the new 5-page span fits where "dead"'s 8 pages were
            assert store.page_count <= pages
            assert bytes(store.get_blob("keep")) == b"k" * 200
            assert bytes(store.get_blob("new")) == b"n" * 600
            assert not store.has_blob("dead")

    def test_torn_flip_of_reclaiming_batch_rewinds_bit_identical(
            self, path):
        """Tear the catalog slot the batch flipped: every pre-flip blob
        must read back byte-for-byte — no span of the old catalog was
        overwritten by the batch."""
        blobs = {f"b{i}": bytes([i]) * (100 + 37 * i) for i in range(5)}
        with PageStore(path, page_size=512) as store:
            for name, data in blobs.items():
                store.put_blob(name, data)
            store.put_blobs({name: b"\xee" * len(data)
                             for name, data in blobs.items()})
            active = 1 + (store._seq % 2)
            page_size = store.page_size
        with open(path, "r+b") as handle:
            handle.seek(active * page_size)
            kept = handle.read(12)
            handle.seek(active * page_size)
            handle.write(kept + b"\x00" * (page_size - 12))
        with PageStore(path) as store:
            for name, data in blobs.items():
                assert bytes(store.get_blob(name)) == data, name
            store.put_blob("after", b"still writable")
        with PageStore(path) as store:
            assert bytes(store.get_blob("after")) == b"still writable"

    def test_reclaim_batch_is_one_flip_and_page_count_persists(
            self, path):
        with PageStore(path, page_size=128) as store:
            store.put_blob("x", b"x" * 900)
            seq = store._seq
            store.put_blobs({"x": b"y" * 100})
            assert store._seq == seq + 1
            shrunk = store.page_count
            # freed tail pages really are reused by the next put
            store.put_blob("z", b"z" * 200)
            assert store.page_count <= shrunk + 2
        with PageStore(path) as store:   # page_count round-trips
            assert bytes(store.get_blob("x")) == b"y" * 100
            assert bytes(store.get_blob("z")) == b"z" * 200

    def test_reclaim_never_shrinks_the_file_itself(self, path):
        """Relocation can extend the file (the old span stays busy
        until the flip) but never shrinks it — mmap views stay valid;
        vacuum trims for real."""
        with PageStore(path, page_size=128) as store:
            store.put_blob("x", b"x" * 2000)
            size_before = os.path.getsize(path)
            store.put_blobs({"x": b"y" * 50})
            assert os.path.getsize(path) >= size_before
            store.vacuum()
            assert os.path.getsize(path) < size_before
            assert bytes(store.get_blob("x")) == b"y" * 50


class TestFormatCompat:
    """Version 2 is the only page-file layout a store opens: any other
    version, the retired version-1 layout (one mutable header page,
    data from page 1) included, is refused with an error naming it."""

    @pytest.mark.parametrize("version", [1, 9])
    def test_unknown_version_rejected(self, path, version):
        with open(path, "wb") as handle:
            handle.write(struct.pack("<8sII", PAGE_MAGIC, version, 128))
            handle.write(b"\x00" * 1024)
        with pytest.raises(StorageError, match=f"version {version}"):
            PageStore(path)


class TestSyncMode:
    """sync=True brackets every catalog flip with fsync barriers; the
    store must behave identically apart from durability."""

    def test_sync_roundtrip(self, path):
        with PageStore(path, page_size=128, sync=True) as store:
            store.put_blob("a", b"a" * 300)
            store.put_blob("a", b"A" * 130)     # relocated overwrite
        with PageStore(path, sync=True) as store:
            assert bytes(store.get_blob("a")) == b"A" * 130
            assert store.vacuum() >= 0
            assert bytes(store.get_blob("a")) == b"A" * 130


class TestVacuumUnderShardedSaveCycles:
    """PageStore.vacuum() interleaved with repeated sharded saves.

    Each sharded re-save relocates every changed arena and leaves its
    old span free; vacuum must give back exactly the file's free pages,
    keep ``allocated_pages`` equal to the live span total afterwards,
    and never disturb the labels a reopen sees.
    """

    def _edit(self, tree, handles, seed):
        import random
        rng = random.Random(seed)
        for step in range(120):
            anchor = handles[rng.randrange(len(handles))]
            handles.append(tree.insert_after(anchor, None))

    def test_interleaved_save_vacuum_cycles(self, path):
        from repro.core.params import LTreeParams
        from repro.core.sharded import ShardedCompactLTree

        tree = ShardedCompactLTree(LTreeParams(f=8, s=2), n_shards=4)
        handles = tree.bulk_load(range(32))
        reclaimed_total = 0
        with PageStore(path) as store:
            for cycle in range(4):
                self._edit(tree, handles, seed=cycle)
                tree.save(store, include_payloads=False)
                span_pages = sum(
                    store._pages_for(store.blob_length(name))
                    for name in store.blobs())
                file_pages = os.path.getsize(path) // store.page_size
                orphans = file_pages - RESERVED_PAGES - span_pages
                reclaimed = store.vacuum()
                reclaimed_total += reclaimed
                # vacuum reclaims exactly the unreachable spans plus
                # over-allocation, and afterwards the file is tight:
                # every allocated page is a live span page
                assert reclaimed == orphans
                assert store.allocated_pages == span_pages
                assert store.page_count == RESERVED_PAGES + span_pages
                # labels identical through the compaction, every cycle
                back = ShardedCompactLTree.load(store, lazy=False)
                assert back.labels() == tree.labels()
        # growth across cycles must actually have produced garbage for
        # vacuum to take back, or this test shows nothing
        assert reclaimed_total > 0
        with PageStore(path) as store:
            back = ShardedCompactLTree.load(store, lazy=False)
            assert back.labels() == tree.labels()
            back.validate()

    def test_allocated_pages_monotone_after_vacuum(self, path):
        """Between vacuums allocated_pages only moves with live spans;
        a post-vacuum save of unchanged blobs must not grow it."""
        from repro.core.params import LTreeParams
        from repro.core.sharded import ShardedCompactLTree

        tree = ShardedCompactLTree(LTreeParams(f=8, s=2), n_shards=2)
        handles = tree.bulk_load(range(24))
        with PageStore(path) as store:
            tree.save(store, include_payloads=False)
            store.vacuum()
            baseline = store.allocated_pages
            # an identical re-save keeps every span without a write
            tree.save(store, include_payloads=False)
            assert store.allocated_pages == baseline
            assert store.page_count == RESERVED_PAGES + baseline
            # growth appends; vacuum returns to the tight layout
            self._edit(tree, handles, seed=9)
            tree.save(store, include_payloads=False)
            grown = store.allocated_pages
            assert grown >= baseline
            store.vacuum()
            assert store.allocated_pages == grown
            assert store.page_count == RESERVED_PAGES + grown
            back = ShardedCompactLTree.load(store, lazy=False)
            assert back.labels() == tree.labels()


class TestCacheStats:
    def test_cache_stats_tracks_pool_traffic(self, path):
        blob = os.urandom(2 * DEFAULT_PAGE_SIZE + 5)
        with PageStore(path) as store:
            store.put_blob("tree", blob)
        with PageStore(path) as store:
            stats = store.cache_stats()
            assert stats == {"pool_hits": 0, "pool_misses": 0,
                             "hit_rate": 0.0, "cached_pages": 0,
                             "pool_pages": store.pool_pages}
            store.get_blob("tree")      # cold: every page misses
            stats = store.cache_stats()
            assert stats["pool_misses"] == 3
            assert stats["pool_hits"] == 0
            assert stats["cached_pages"] == 3
            store.get_blob("tree")      # warm: every page hits
            stats = store.cache_stats()
            assert stats["pool_hits"] == 3
            assert stats["pool_misses"] == 3
            assert stats["hit_rate"] == 0.5

    def test_cache_stats_mirrors_public_counters(self, path):
        with PageStore(path) as store:
            store.put_blob("b", b"x")
            store.get_blob("b")
            stats = store.cache_stats()
            assert stats["pool_hits"] == store.pool_hits
            assert stats["pool_misses"] == store.pool_misses
