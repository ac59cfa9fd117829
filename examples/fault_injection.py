"""Fault injection end to end: failpoints, a crash storm, scrub/repair.

Run:  python examples/fault_injection.py

Four acts, each printing what the durability machinery actually did:

1. **one armed failpoint** — crash a ``PageStore`` in the middle of a
   batched put and reopen on the previous catalog, the atomic-flip
   guarantee at its smallest;
2. **a hostile disk** — a ``FaultyStore`` whose fsync lies (reports
   success, keeps nothing) loses power; the acknowledged overwrite
   vanishes, but the copy-on-write put never touched the old span, so
   the store reopens on the old bytes;
3. **the crash storm** — enumerate the *entire* declared failpoint
   surface, crash at every point under a seeded workload, and verify
   recovery against a serial oracle;
4. **scrub and repair** — flip bytes inside one blob's span, watch
   scrub convict it by CRC, and let repair quarantine it while every
   intact blob survives byte-identical.

See ``docs/durability.md`` for the guarantee each step demonstrates.
"""

import os
import tempfile

from repro.errors import CorruptionError
from repro.storage.faults import (FAILPOINTS, FaultPolicy, FaultyStore,
                                  SimulatedCrash)
from repro.storage.pages import PageStore
from repro.storage.scrub import repair_store, scrub_store
from repro.testing import run_storm


def act_one_failpoint(root: str) -> None:
    print("=== 1. one armed failpoint ===")
    path = os.path.join(root, "flip.ltp")
    with PageStore(path, page_size=256) as store:
        store.put_blob("committed", b"safe" * 30)
    with FAILPOINTS.scoped():
        FAILPOINTS.arm("pagestore:catalog:pre-write", "crash")
        store = PageStore(path, page_size=256)
        try:
            store.put_blobs({"doomed-1": b"x" * 300,
                             "doomed-2": b"y" * 300})
        except SimulatedCrash as crash:
            print(f"  crashed at {crash.failpoint_name!r} — data pages "
                  f"written, catalog flip never landed")
        finally:
            store._file.close()
    with PageStore(path) as back:
        names = sorted(back.blobs())
        print(f"  reopened on the previous catalog: blobs={names}")
        assert names == ["committed"]


def act_lying_disk(root: str) -> None:
    print("=== 2. a disk that lies about fsync ===")
    path = os.path.join(root, "liar.ltp")
    with PageStore(path, page_size=256, sync=True) as store:
        store.put_blob("doc", b"version-1" * 10)
    with FaultyStore(path, FaultPolicy(lying_fsync=True),
                     sync=True) as hostile:
        hostile.store.put_blob("doc", b"version-2" * 10)
        print(f"  overwrote 'doc' (disk acknowledged "
              f"{hostile.file.fsyncs} fsyncs, kept none)")
        lost = hostile.file.power_loss()
        print(f"  power loss: {lost} acknowledged-but-unsynced bytes "
              f"zeroed")
    with PageStore(path) as back:
        data = bytes(back.get_blob("doc", verify=True))
        print(f"  reopened: 'doc' is {data[:9].decode()}... — the "
              f"copy-on-write put never touched the old span")
        assert data == b"version-1" * 10


def act_storm() -> None:
    print("=== 3. the crash storm ===")
    report = run_storm(seed=0)
    fired = sum(1 for result in report.results if result.fired)
    print(f"  {len(FAILPOINTS.names())} failpoints declared, "
          f"{fired} crashed at, {len(report.unreached)} unreached, "
          f"{len(report.failures())} invariant violations")
    assert report.ok, [r.to_dict() for r in report.failures()]


def act_scrub_repair(root: str) -> None:
    print("=== 4. scrub and repair ===")
    path = os.path.join(root, "scrub.ltp")
    blobs = {"intact-a": b"alpha" * 50, "victim": b"beta" * 80,
             "intact-b": b"gamma" * 20}
    with PageStore(path, page_size=256) as store:
        store.put_blobs(blobs)
        offset = store._catalog["victim"][0] * 256
    with open(path, "r+b") as raw:                # a disk bit-flip
        raw.seek(offset + 5)
        raw.write(b"\xff\xff\xff")
    try:
        with PageStore(path) as store:
            store.get_blob("victim", verify=True)
    except CorruptionError as exc:
        print(f"  verified read convicts the span: {exc}")
    report = scrub_store(path)
    print(f"  scrub: {len(report.errors())} finding(s) over "
          f"{report.blobs_checked} blobs / {report.bytes_checked} bytes")
    repaired = repair_store(path)
    for action in repaired.actions:
        print(f"  repair: {action}")
    with PageStore(path) as back:
        assert sorted(back.blobs()) == ["intact-a", "intact-b"]
        for name in ("intact-a", "intact-b"):
            assert bytes(back.get_blob(name, verify=True)) == blobs[name]
    print(f"  survivors byte-identical; corrupt bytes preserved under "
          f"{os.path.basename(path)}.quarantine/")
    assert scrub_store(path).ok


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="fault-demo-") as root:
        act_one_failpoint(root)
        act_lying_disk(root)
        act_storm()
        act_scrub_repair(root)
    print("all four acts held their guarantees")


if __name__ == "__main__":
    main()
