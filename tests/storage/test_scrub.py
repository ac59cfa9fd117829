"""Scrub/repair: detection of every damage class, repair to an
openable store with intact blobs preserved, and the property that a
healthy store always scrubs clean."""

import json
import os
import zlib

import pytest

from repro.concurrent.service import ConcurrentDocument
from repro.core.params import LTreeParams
from repro.errors import RecoveryError
from repro.storage.pages import PageStore
from repro.storage.scrub import (StoreScrubber, repair_store, scrub_service,
                                 scrub_store)

PARAMS = LTreeParams(f=8, s=2)


def _store_with(path, blobs, page_size=256):
    with PageStore(path, page_size=page_size) as store:
        store.put_blobs(dict(blobs))


def _corrupt_span(path, blob, page_size=256):
    """Flip bytes inside ``blob``'s span, leaving the catalog intact."""
    with PageStore(path) as store:
        span = store._catalog[blob]
        offset = span[0] * page_size
    with open(path, "r+b") as raw:
        raw.seek(offset)
        original = raw.read(4)
        raw.seek(offset)
        raw.write(bytes(b ^ 0xFF for b in original))


class TestScrubClean:
    def test_healthy_store_zero_findings(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        _store_with(path, {"a": b"x" * 300, "b": b"y" * 10})
        report = scrub_store(path)
        assert report.ok
        assert report.blobs_checked == 2
        assert report.bytes_checked == 310

    @pytest.mark.parametrize("blobs", [
        {},                                          # empty store
        {"one": b""},                                # zero-length blob
        {"a": b"z" * 5000},                          # multi-page span
        {f"doc.{i}": bytes([i]) * (i * 37 + 1) for i in range(12)},
    ])
    def test_document_matrix_scrubs_clean(self, tmp_path, blobs):
        """The satellite property: scrub on an *uncorrupted* store is
        zero findings across a matrix of shapes."""
        path = str(tmp_path / "store.ltp")
        _store_with(path, blobs, page_size=512)
        report = scrub_store(path)
        assert report.ok, [f.to_dict() for f in report.findings]

    def test_scrub_after_vacuum_and_delete(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        with PageStore(path, page_size=256) as store:
            store.put_blob("keep", b"k" * 700)
            store.put_blob("drop", b"d" * 900)
            store.delete_blob("drop")
            store.vacuum()
        assert scrub_store(path).ok

    def test_report_round_trips_to_dict(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        _store_with(path, {"a": b"x"})
        payload = scrub_store(path).to_dict()
        assert payload["ok"] is True
        assert json.loads(json.dumps(payload)) == payload


class TestScrubDetects:
    def test_crc_mismatch_found_and_located(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        _store_with(path, {"good": b"g" * 100, "bad": b"b" * 100})
        _corrupt_span(path, "bad")
        report = scrub_store(path)
        findings = report.errors()
        assert [f.blob for f in findings] == ["bad"]
        assert findings[0].kind == "crc"

    def test_bounds_violation_found(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        _store_with(path, {"a": b"x" * 100})
        with PageStore(path) as store:
            span = list(store._catalog["a"])
            span[0] = 9999                        # points past the file
            store._catalog["a"] = span
            store._write_header()
        report = scrub_store(path)
        assert any(f.kind == "bounds" and f.blob == "a"
                   for f in report.errors())

    def test_overlap_found(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        _store_with(path, {"a": b"x" * 600, "b": b"y" * 600})
        with PageStore(path) as store:
            span_a = store._catalog["a"]
            span_b = list(store._catalog["b"])
            span_b[0] = span_a[0] + 1             # lands inside a's span
            store._catalog["b"] = span_b
            store._write_header()
        report = scrub_store(path)
        assert any(f.kind == "overlap" for f in report.errors())

    def test_leftover_temp_file_is_a_warning(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        _store_with(path, {"a": b"x"})
        open(path + ".vacuum", "wb").close()
        report = scrub_store(path)
        assert [f.kind for f in report.findings] == ["temp-file"]
        assert report.ok is False
        assert report.errors() == []

    def test_both_slots_dead_is_fatal(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        _store_with(path, {"a": b"x" * 600})
        with open(path, "r+b") as raw:            # kill both catalog slots
            raw.seek(256)
            raw.write(b"\xff" * 512)
        report = scrub_store(path)
        assert any(f.kind == "unopenable" and f.severity == "fatal"
                   for f in report.findings)


class TestRepair:
    @pytest.mark.parametrize("victim", ["a", "b", "c"])
    def test_single_span_corruption_any_blob(self, tmp_path, victim):
        """The acceptance criterion: corrupt any single span, repair,
        and every *other* blob survives byte-identical in an openable
        store."""
        blobs = {"a": b"alpha" * 40, "b": b"beta" * 99, "c": b"gamma" * 7}
        path = str(tmp_path / "store.ltp")
        _store_with(path, blobs)
        _corrupt_span(path, victim)
        report = repair_store(path)
        assert any(victim in action for action in report.actions)
        with PageStore(path) as back:
            survivors = sorted(set(blobs) - {victim})
            assert sorted(back.blobs()) == survivors
            for name in survivors:
                assert back.get_blob(name, verify=True) == blobs[name]
        # corrupt bytes preserved for forensics
        qfile = os.path.join(path + ".quarantine", victim)
        assert os.path.exists(qfile)
        assert os.path.getsize(qfile) == len(blobs[victim])
        # and the repaired store now scrubs clean
        assert scrub_store(path).ok

    def test_repair_is_idempotent(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        _store_with(path, {"a": b"x" * 100, "b": b"y" * 100})
        _corrupt_span(path, "a")
        repair_store(path)
        second = repair_store(path)
        assert not second.errors()
        assert not any("quarantined" in a for a in second.actions)

    def test_repair_on_healthy_store_changes_nothing(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        _store_with(path, {"a": b"x" * 100})
        before = open(path, "rb").read()
        report = repair_store(path)
        assert report.actions == []
        assert open(path, "rb").read() == before

    def test_repair_removes_leftover_temp_files(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        _store_with(path, {"a": b"x"})
        open(path + ".vacuum", "wb").close()
        report = repair_store(path)
        assert any("removed" in a for a in report.actions)
        assert not os.path.exists(path + ".vacuum")

    def test_both_slots_dead_raises_recovery_error(self, tmp_path):
        """The documented unrepairable state: no catalog survives, so
        nothing maps names to spans."""
        path = str(tmp_path / "store.ltp")
        _store_with(path, {"a": b"x" * 600})
        with open(path, "r+b") as raw:
            raw.seek(256)
            raw.write(b"\xff" * 512)
        with pytest.raises(RecoveryError):
            repair_store(path)


class TestScrubService:
    def _service(self, tmp_path, n_ops=30):
        doc = ConcurrentDocument.create(str(tmp_path / "svc"),
                                        params=PARAMS, n_shards=4)
        handles = doc.bulk_load([f"p{i}" for i in range(8)])
        handle = handles[-1]
        for step in range(n_ops):
            handle = doc.insert_after(handle, ["n", step])
        doc.commit()
        return doc

    def test_healthy_service_scrubs_clean(self, tmp_path):
        doc = self._service(tmp_path)
        doc.checkpoint()
        doc.close()
        report = scrub_service(str(tmp_path / "svc"))
        assert report.ok, [f.to_dict() for f in report.findings]

    def test_uncheckpointed_tail_is_not_a_finding(self, tmp_path):
        doc = self._service(tmp_path)
        doc.close()                               # WAL full, store empty-ish
        assert scrub_service(str(tmp_path / "svc")).ok

    def test_missing_wal_found(self, tmp_path):
        doc = self._service(tmp_path)
        doc.checkpoint()
        doc.close()
        os.remove(str(tmp_path / "svc" / "ops.wal"))
        report = scrub_service(str(tmp_path / "svc"))
        assert any(f.kind == "wal" for f in report.errors())

    def test_watermark_gap_found(self, tmp_path):
        """A watermark *below* the WAL's first record means the log
        was truncated past ops the image does not contain — committed
        work is unrecoverable, and scrub must say so.  (The converse
        forgery — watermark above records still in the log — is
        indistinguishable from a legit crash between checkpoint save
        and truncate, and is deliberately not a finding.)"""
        doc = self._service(tmp_path)
        doc.checkpoint()
        handle = next(iter(doc.handles()))
        for step in range(5):
            handle = doc.insert_after(handle, ["x", step])
        doc.commit()
        doc.close()
        pages = str(tmp_path / "svc" / "pages.ltp")
        with PageStore(pages) as store:
            meta = json.loads(store.get_blob("service.meta"))
            meta["checkpoint_seq"] -= 2           # claims un-held records
            store.put_blob("service.meta",
                           json.dumps(meta).encode("utf-8"))
        report = scrub_service(str(tmp_path / "svc"))
        assert any(f.kind == "watermark" for f in report.errors())

    def test_corrupt_scheme_blob_found(self, tmp_path):
        doc = self._service(tmp_path)
        doc.checkpoint()
        doc.close()
        pages = str(tmp_path / "svc" / "pages.ltp")
        _corrupt_span(pages, "scheme", page_size=4096)
        report = scrub_service(str(tmp_path / "svc"))
        assert any(f.kind == "crc" and f.blob == "scheme"
                   for f in report.errors())
