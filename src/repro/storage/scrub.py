"""Offline scrub and repair for :class:`~repro.storage.pages.PageStore`.

A store that survived a crash — or a disk that flipped a bit — can be
in one of three states: **clean** (every invariant holds), **damaged
but consistent** (one catalog slot torn, a leftover temp file, an
orphaned span: the normal debris crash recovery is designed around),
or **corrupt** (a span's bytes no longer match the CRC the catalog
recorded, spans overlap, a span points past the file).  The scrubber
draws that line explicitly:

* :meth:`StoreScrubber.scrub` walks every check read-only and returns
  a :class:`ScrubReport` of :class:`Finding` records — it never
  modifies the file, never raises on damage it can describe.
* :meth:`StoreScrubber.repair` applies the *safe* subset of fixes:
  quarantine blobs whose bytes fail their CRC (the raw bytes are
  preserved next to the store for forensics, then the catalog entry is
  dropped in one atomic flip), refresh a torn catalog slot, remove
  leftover temp files.  Every intact blob keeps its exact bytes.

What repair can **not** fix — and deliberately refuses to guess at —
is a store whose *both* catalog slots are dead while data pages exist:
the catalog is the only map from names to spans, so nothing can
reconstruct which bytes belong to which blob.  That raises
:class:`~repro.errors.RecoveryError` (restore from the WAL or a
backup; see ``docs/durability.md``).

:func:`scrub_service` extends the same sweep over a
:class:`~repro.concurrent.service.ConcurrentDocument` directory: the
page store, the WAL's record chain, and the watermark/WAL seam
recovery depends on.
"""

from __future__ import annotations

import json
import os
import urllib.parse
import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CorruptionError, RecoveryError, StorageError
from repro.storage.pages import RESERVED_PAGES, TEMP_SUFFIXES, PageStore

#: sibling directory corrupt blob bytes are preserved in before their
#: catalog entries are dropped
QUARANTINE_SUFFIX = ".quarantine"


@dataclass
class Finding:
    """One scrub observation.

    ``kind`` is the check that tripped (``crc``, ``bounds``,
    ``overlap``, ``temp-file``, ``catalog-slot``, ``unopenable``,
    ``wal``, ``watermark``); ``severity`` is ``"error"`` for damage
    repair must act on, ``"warning"`` for debris recovery already
    tolerates, ``"fatal"`` for damage repair cannot fix.
    """

    kind: str
    severity: str
    detail: str
    blob: Optional[str] = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "severity": self.severity,
                "detail": self.detail, "blob": self.blob}


@dataclass
class ScrubReport:
    path: str
    findings: list[Finding] = field(default_factory=list)
    blobs_checked: int = 0
    bytes_checked: int = 0
    #: repair() only: what was done, one human-readable line per action
    actions: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity != "warning"]

    def add(self, kind: str, severity: str, detail: str,
            blob: Optional[str] = None) -> None:
        self.findings.append(Finding(kind, severity, detail, blob))

    def to_dict(self) -> dict:
        return {"path": self.path, "ok": self.ok,
                "blobs_checked": self.blobs_checked,
                "bytes_checked": self.bytes_checked,
                "findings": [f.to_dict() for f in self.findings],
                "actions": list(self.actions)}


class StoreScrubber:
    """Scrub/repair one ``.ltp`` page-store file."""

    def __init__(self, path: str):
        self.path = path

    # -- read-only sweep ----------------------------------------------
    def scrub(self) -> ScrubReport:
        """Every check; damage becomes findings, not raises.

        Blob bytes and catalog slots are never written.  Opening the
        store does perform the same open-time hygiene any open would
        (leftover temp files recorded here are removed by the open) —
        scrub on an already-clean store leaves it bit-identical.
        """
        report = ScrubReport(self.path)
        self._check_temp_files(report)
        try:
            store = PageStore(self.path)
        except CorruptionError as exc:
            report.add("unopenable", "fatal", str(exc))
            return report
        except StorageError as exc:
            report.add("unopenable", "error", str(exc))
            return report
        try:
            self._check_slots(store, report)
            self._check_spans(store, report)
        finally:
            store.close()
        return report

    # -- repair --------------------------------------------------------
    def repair(self) -> ScrubReport:
        """Apply the safe fixes; raise :class:`RecoveryError` when the
        store is past them.

        Order matters: quarantine before any catalog write, so a crash
        mid-repair loses no bytes — re-running repair is idempotent.
        """
        report = ScrubReport(self.path)
        self._check_temp_files(report)
        for finding in list(report.findings):
            if finding.kind == "temp-file":
                os.remove(finding.detail.split(": ", 1)[-1])
                report.actions.append(f"removed {finding.detail}")
        try:
            store = PageStore(self.path)
        except CorruptionError as exc:
            raise RecoveryError(
                f"{self.path!r} is unrepairable: both catalog slots are "
                f"dead, nothing maps names to spans — restore from the "
                f"WAL or a backup ({exc})") from exc
        try:
            self._check_slots(store, report)
            self._check_spans(store, report)
            corrupt = [f.blob for f in report.findings
                       if f.severity == "error" and f.blob is not None]
            if corrupt:
                self._quarantine(store, sorted(set(corrupt)), report)
            if any(f.kind == "catalog-slot" for f in report.findings):
                # two flips rewrite both slots from the good catalog
                store._write_header()
                store._write_header()
                report.actions.append("refreshed both catalog slots")
            store.flush()
        finally:
            store.close()
        return report

    # -- individual checks --------------------------------------------
    def _check_temp_files(self, report: ScrubReport) -> None:
        for suffix in TEMP_SUFFIXES + (".truncate",):
            leftover = self.path + suffix
            if os.path.exists(leftover):
                report.add("temp-file", "warning",
                           f"leftover temp file: {leftover}")

    def _check_slots(self, store: PageStore, report: ScrubReport) -> None:
        """Both catalog slots should decode; one torn slot is survivable
        (the store opened from the other) but leaves no shadow copy."""
        dead = 0
        for slot_page in (1, 2):
            if store._read_catalog_slot(slot_page, store.page_size) is None:
                dead += 1
        # _seq == 1 means only one header write ever happened (a young
        # store): the shadow slot is *expectedly* unused, not torn
        if dead == 1 and store._seq > 1:
            report.add("catalog-slot", "warning",
                       "one catalog slot is torn or stale-garbage; the "
                       "store runs without a fallback copy")

    def _check_spans(self, store: PageStore, report: ScrubReport) -> None:
        file_pages = os.path.getsize(store.path) // store.page_size
        busy: list[tuple[int, int, str]] = []
        for name in sorted(store._catalog):
            span = store._catalog[name]
            first, length, allocated = span[0], span[1], span[2]
            report.blobs_checked += 1
            if first < RESERVED_PAGES or first + allocated > file_pages \
                    or length > allocated * store.page_size:
                report.add("bounds", "error",
                           f"span [{first}, +{allocated}p, {length}B] "
                           f"escapes the {file_pages}-page file",
                           blob=name)
                continue
            busy.append((first, first + allocated, name))
            data = store._span_bytes(span)
            report.bytes_checked += len(data)
            if len(data) < length:
                report.add("bounds", "error",
                           f"short read: {len(data)} of {length} bytes",
                           blob=name)
            elif len(span) > 3 and zlib.crc32(data) != span[3]:
                report.add("crc", "error",
                           f"bytes do not match catalog CRC "
                           f"(expected 0x{span[3]:08x}, actual "
                           f"0x{zlib.crc32(data):08x})", blob=name)
        busy.sort()
        for (_, prev_end, prev_name), (start, _, name) in zip(busy,
                                                              busy[1:]):
            if start < prev_end:
                report.add("overlap", "error",
                           f"span of {name!r} overlaps span of "
                           f"{prev_name!r}", blob=name)

    def _quarantine(self, store: PageStore, names: list[str],
                    report: ScrubReport) -> None:
        qdir = self.path + QUARANTINE_SUFFIX
        os.makedirs(qdir, exist_ok=True)
        for name in names:
            span = store._catalog.get(name)
            if span is None:
                continue
            fname = urllib.parse.quote(name, safe="")
            target = os.path.join(qdir, fname)
            try:
                raw = store._span_bytes(span)
            except OSError:
                raw = b""
            with open(target, "wb") as handle:
                handle.write(raw)
            store.delete_blob(name)
            report.actions.append(
                f"quarantined {name!r} ({len(raw)} bytes) to {target}")


def scrub_store(path: str) -> ScrubReport:
    return StoreScrubber(path).scrub()


def repair_store(path: str) -> ScrubReport:
    return StoreScrubber(path).repair()


def scrub_service(directory: str) -> ScrubReport:
    """Scrub a service directory: page store + WAL + the seam between.

    Adds to the store sweep:

    * ``wal`` findings — the record chain must scan (magic, per-record
      checksum); a torn tail is a warning (recovery truncates it), a
      corrupt *interior* is fatal for replay.
    * ``watermark`` findings — the ``checkpoint_seq`` the meta blob
      records must not exceed the WAL's last sequence *when stale
      records remain*, and the first replayable record above it must
      be exactly ``checkpoint_seq + 1`` (a gap means lost committed
      ops — the condition :meth:`ConcurrentDocument.open` refuses).
    """
    from repro.concurrent.service import (PAGES_FILE, SERVICE_META_BLOB,
                                          WAL_FILE)
    from repro.storage.wal import WriteAheadLog

    pages_path = os.path.join(directory, PAGES_FILE)
    wal_path = os.path.join(directory, WAL_FILE)
    report = StoreScrubber(pages_path).scrub()
    report.path = directory

    checkpoint_seq = None
    if not any(f.kind == "unopenable" for f in report.findings):
        with PageStore(pages_path) as store:
            if store.has_blob(SERVICE_META_BLOB):
                try:
                    meta = json.loads(
                        store.get_blob(SERVICE_META_BLOB, verify=True))
                    checkpoint_seq = int(meta["checkpoint_seq"])
                except (CorruptionError, ValueError, KeyError) as exc:
                    report.add("watermark", "error",
                               f"service meta blob unreadable: {exc}",
                               blob=SERVICE_META_BLOB)
            else:
                report.add("watermark", "error",
                           f"store has no {SERVICE_META_BLOB!r} blob")

    if not os.path.exists(wal_path):
        report.add("wal", "error", f"missing WAL file: {wal_path}")
        return report
    try:
        wal = WriteAheadLog(wal_path, sync=False)
    except (CorruptionError, StorageError) as exc:
        report.add("wal", "fatal", f"WAL does not scan: {exc}")
        return report
    try:
        seqs = [seq for seq, _ in wal.replay()]
        if checkpoint_seq is not None:
            stale = [s for s in seqs if s <= checkpoint_seq]
            fresh = [s for s in seqs if s > checkpoint_seq]
            if stale and not fresh and stale[-1] < checkpoint_seq:
                report.add("watermark", "error",
                           f"watermark {checkpoint_seq} is above every "
                           f"WAL record (last {stale[-1]}) — the log "
                           f"was truncated past its checkpoint")
            if fresh and fresh[0] != checkpoint_seq + 1:
                report.add("watermark", "fatal",
                           f"gap above the watermark: first replayable "
                           f"record is {fresh[0]}, expected "
                           f"{checkpoint_seq + 1} — committed ops lost")
    finally:
        wal.close()
    return report
