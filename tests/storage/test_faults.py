"""The fault-injection toolkit itself: registry policies, hostile
files, bounded retry.  The crash-storm harness builds on these pieces;
this file proves each one in isolation."""

import errno
import os

import pytest

from repro.errors import StorageError
from repro.storage import faults
from repro.storage.faults import (FAILPOINTS, FailpointRegistry,
                                  FaultPolicy, FaultyFile, FaultyStore,
                                  SimulatedCrash, failpoint, fsync_file,
                                  write_with_retry)
from repro.storage.pages import PageStore


class TestRegistryPolicies:
    def test_unarmed_failpoint_is_free(self):
        reg = FailpointRegistry()
        reg.fire("x", {})
        assert reg.hits["x"] == 1
        assert reg.fired.get("x", 0) == 0

    def test_nth_fires_exactly_once(self):
        reg = FailpointRegistry()
        reg.arm("x", nth=3)
        reg.fire("x", {})
        reg.fire("x", {})
        with pytest.raises(SimulatedCrash) as exc_info:
            reg.fire("x", {})
        assert exc_info.value.failpoint_name == "x"
        # the nth hit passed: never fires again
        reg.fire("x", {})
        assert reg.fired["x"] == 1

    def test_every_n_with_unlimited_times(self):
        reg = FailpointRegistry()
        fired = []
        reg.arm("x", lambda name, ctx: fired.append(name),
                every=2, times=None)
        for _ in range(6):
            reg.fire("x", {})
        assert len(fired) == 3                    # hits 2, 4, 6

    def test_times_budget_bounds_every(self):
        reg = FailpointRegistry()
        fired = []
        reg.arm("x", lambda name, ctx: fired.append(name),
                every=1, times=2)
        for _ in range(5):
            reg.fire("x", {})
        assert len(fired) == 2

    def test_probability_deterministic_under_seed(self):
        def run():
            reg = FailpointRegistry()
            fired = []
            reg.arm("x", lambda name, ctx: fired.append(reg.hits["x"]),
                    probability=0.5, seed=42, times=None)
            for _ in range(40):
                reg.fire("x", {})
            return fired

        first, second = run(), run()
        assert first == second
        assert 5 < len(first) < 35                # actually probabilistic

    def test_every_and_probability_conflict(self):
        reg = FailpointRegistry()
        with pytest.raises(StorageError):
            reg.arm("x", every=2, probability=0.5)

    def test_unknown_named_action(self):
        reg = FailpointRegistry()
        with pytest.raises(StorageError):
            reg.arm("x", "segfault")

    def test_scoped_restores_arms(self):
        reg = FailpointRegistry()
        reg.arm("outer")
        with reg.scoped():
            reg.arm("inner")
            reg.disarm("outer")
            assert reg.armed() == ["inner"]
        assert reg.armed() == ["outer"]

    def test_declare_is_idempotent_and_enumerable(self):
        reg = FailpointRegistry()
        reg.declare("b", "second")
        reg.declare("a", "first")
        reg.declare("a", "overwritten? no")
        assert reg.names() == ["a", "b"]
        assert reg.describe()["a"] == "first"

    def test_ctx_reaches_the_action(self):
        reg = FailpointRegistry()
        seen = {}
        reg.arm("x", lambda name, ctx: seen.update(ctx))
        reg.fire("x", {"blob": "doc", "index": 3})
        assert seen == {"blob": "doc", "index": 3}

    def test_errno_actions(self):
        reg = FailpointRegistry()
        reg.arm("x", "enospc")
        with pytest.raises(OSError) as exc_info:
            reg.fire("x", {})
        assert exc_info.value.errno == errno.ENOSPC

    def test_simulated_crash_skips_except_exception(self):
        """The property every recovery path in the tree relies on: an
        injected crash unwinds like SIGKILL, not like an error."""
        assert not issubclass(SimulatedCrash, Exception)
        with pytest.raises(SimulatedCrash):
            try:
                raise SimulatedCrash("x")
            except Exception:                     # noqa: BLE001
                pytest.fail("a crash must not be catchable as Exception")

    def test_env_arms_exit_failpoint(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAILPOINT_EXIT", "wal:commit:pre-write:3")
        with FAILPOINTS.scoped():
            faults._arm_from_env()
            assert "wal:commit:pre-write" in FAILPOINTS.armed()


class TestGlobalSurface:
    def test_import_time_surface_is_large_enough(self):
        """The declared surface must cover every durability layer and
        never shrink below the storm's contract (see ISSUE: >= 25)."""
        import repro.concurrent.service      # noqa: F401
        import repro.core.sharded            # noqa: F401

        names = FAILPOINTS.names()
        assert len(names) >= 25
        for prefix in ("pagestore:", "wal:", "service:", "concurrent:",
                       "sharded:"):
            assert any(n.startswith(prefix) for n in names), prefix

    def test_name_is_a_legal_ctx_key(self):
        """The helper's own parameter is positional-only, so call sites
        may pass ``name=`` in the context without a collision."""
        with FAILPOINTS.scoped():
            seen = {}
            FAILPOINTS.arm("x", lambda fp, ctx: seen.update(ctx))
            failpoint("x", name="a-blob")
            assert seen == {"name": "a-blob"}


class TestFaultyFile:
    def _wrapped(self, tmp_path, policy=None):
        path = str(tmp_path / "f.bin")
        with open(path, "wb") as handle:
            handle.write(b"\x00" * 64)
        return path, FaultyFile(open(path, "r+b"), policy)

    def test_write_errno_fires_once_then_clears(self, tmp_path):
        _, f = self._wrapped(
            tmp_path, FaultPolicy(write_errno_at={1: errno.ENOSPC}))
        with pytest.raises(OSError):
            f.write(b"abc")
        assert f.write(b"abc") == 3               # the retry succeeds
        f.close()

    def test_torn_write_persists_prefix_and_severs(self, tmp_path):
        path, f = self._wrapped(
            tmp_path, FaultPolicy(torn_write_at=1, torn_keep_fraction=0.5))
        f.seek(0)
        with pytest.raises(SimulatedCrash):
            f.write(b"ABCDEFGH")
        with open(path, "rb") as back:
            assert back.read(8) == b"ABCD\x00\x00\x00\x00"

    def test_short_read(self, tmp_path):
        path, f = self._wrapped(tmp_path, FaultPolicy(short_read_at=1))
        f.seek(0)
        assert len(f.read(8)) == 4
        f.seek(0)
        assert len(f.read(8)) == 8                # knob cleared
        f.close()

    def test_power_loss_zeroes_unsynced_only(self, tmp_path):
        path, f = self._wrapped(tmp_path)
        f.seek(0)
        f.write(b"AAAA")
        f.fsync()                                 # durable barrier
        f.write(b"BBBB")
        lost = f.power_loss()
        assert lost == 4
        with open(path, "rb") as back:
            assert back.read(8) == b"AAAA\x00\x00\x00\x00"

    def test_lying_fsync_drops_through_the_barrier(self, tmp_path):
        path, f = self._wrapped(tmp_path, FaultPolicy(lying_fsync=True))
        f.seek(0)
        f.write(b"AAAA")
        f.fsync()                                 # reports success, lies
        f.write(b"BBBB")
        assert f.power_loss() == 8                # both writes gone
        with open(path, "rb") as back:
            assert back.read(8) == b"\x00" * 8

    def test_fsync_errno(self, tmp_path):
        _, f = self._wrapped(
            tmp_path, FaultPolicy(fsync_errno_at={1: errno.EIO}))
        f.write(b"x")
        with pytest.raises(OSError):
            f.fsync()
        f.close()

    def test_fsync_file_routes_through_wrapper(self, tmp_path):
        _, f = self._wrapped(tmp_path)
        fsync_file(f)
        assert f.fsyncs == 1
        with open(str(tmp_path / "plain.bin"), "wb") as plain:
            fsync_file(plain)                     # plain file: real syscall


class _FlakyHandle:
    """write() that fails/short-writes per a script of outcomes."""

    def __init__(self, script):
        self.script = list(script)
        self.received = b""

    def write(self, data):
        step = self.script.pop(0) if self.script else None
        if isinstance(step, int) and step < 0:
            raise OSError(-step, os.strerror(-step))
        n = len(data) if step is None else min(step, len(data))
        self.received += bytes(data[:n])
        return n


class TestWriteWithRetry:
    def test_resumes_partial_writes(self):
        handle = _FlakyHandle([3, 3, None])
        assert write_with_retry(handle, b"ABCDEFGH") == 8
        assert handle.received == b"ABCDEFGH"

    def test_retries_transient_with_backoff(self):
        handle = _FlakyHandle([-errno.EINTR, -errno.ENOSPC, None])
        naps = []
        assert write_with_retry(handle, b"xyz", sleep=naps.append) == 3
        assert handle.received == b"xyz"
        assert naps == [0.001, 0.002]             # exponential

    def test_exhaustion_raises_storage_error(self):
        handle = _FlakyHandle([-errno.ENOSPC] * 10)
        with pytest.raises(StorageError):
            write_with_retry(handle, b"xyz", retries=3,
                             sleep=lambda _t: None)

    def test_non_transient_errno_propagates(self):
        handle = _FlakyHandle([-errno.EIO])
        with pytest.raises(OSError):
            write_with_retry(handle, b"xyz", sleep=lambda _t: None)


class TestStoreIntegration:
    """One end-to-end proof per injected failure class."""

    def test_torn_catalog_write_reopens_previous_catalog(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        store = PageStore(path, page_size=256)
        store.put_blob("a", b"first" * 10)
        with FAILPOINTS.scoped():
            # tear *inside* the slot's meaningful bytes: a half-page
            # tear can leave a complete valid slot (padding is not
            # CRC-covered), which the store rightly accepts
            FAILPOINTS.arm("pagestore:catalog:torn-write",
                           faults.torn_write(0.05))
            with pytest.raises(SimulatedCrash):
                store.put_blob("b", b"second" * 10)
        with PageStore(path) as back:
            assert sorted(back.blobs()) == ["a"]
            assert back.get_blob("a", verify=True) == b"first" * 10

    def test_enospc_mid_put_leaves_store_usable(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        with PageStore(path, page_size=256) as store:
            store.put_blob("a", b"keep")
            with FAILPOINTS.scoped():
                FAILPOINTS.arm("pagestore:put:pre-data", "enospc")
                with pytest.raises(OSError):
                    store.put_blob("b", b"lost")
            assert sorted(store.blobs()) == ["a"]
            store.put_blob("b", b"second try")    # the store still serves
            assert store.get_blob("b") == b"second try"


class TestFaultyStore:
    """The store-level wrapper: a whole PageStore over a hostile disk."""

    def test_torn_write_through_store_reopens_old_state(self, tmp_path):
        path = str(tmp_path / "store.ltp")
        with PageStore(path, page_size=256) as store:
            store.put_blob("a", b"committed" * 8)
        with FaultyStore(path, FaultPolicy(torn_write_at=1,
                                           torn_keep_fraction=0.3)
                         ) as hostile:
            with pytest.raises(SimulatedCrash):
                hostile.store.put_blob("b", b"doomed" * 30)
            assert hostile.file.writes == 1
        with PageStore(path) as back:
            assert sorted(back.blobs()) == ["a"]
            assert back.get_blob("a", verify=True) == b"committed" * 8

    def test_lying_fsync_power_loss_rewinds_reclaiming_put(self,
                                                           tmp_path):
        """The disk acknowledges every fsync but keeps nothing: after
        power loss the acknowledged overwrite is gone, yet the store
        reopens cleanly on the previous catalog with the old bytes
        intact — the copy-on-write guarantee from docs/durability.md,
        held even against a lying disk, because a put never writes a
        page the pre-flip catalog references."""
        path = str(tmp_path / "store.ltp")
        with PageStore(path, page_size=256, sync=True) as store:
            store.put_blob("a", b"old" * 20)
        with FaultyStore(path, FaultPolicy(lying_fsync=True),
                         sync=True) as hostile:
            hostile.store.put_blob("a", b"NEW" * 20)
            assert hostile.store.get_blob("a") == b"NEW" * 20
            lost = hostile.file.power_loss()
            assert lost > 0
        with PageStore(path) as back:
            assert back.get_blob("a", verify=True) == b"old" * 20
