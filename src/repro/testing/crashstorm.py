"""Crash storms: kill the engine at every declared failpoint, reopen,
prove recovery.

The storm is the systematic version of the handwritten crash tests:
instead of one author-imagined crash window per test, it enumerates
the **entire declared failpoint surface** (:data:`FAILPOINTS`) and, for
each point, runs a seeded workload with that point armed, lets the
injected crash unwind, reopens the store/service, and checks the
recovery invariants:

* **prefix consistency** — the recovered logical state equals the
  oracle state after ``completed`` steps or after ``completed + 1``
  (the step the crash interrupted either happened whole or not at
  all); anything else is a lost or double-applied operation;
* **recovery idempotence** — observing the recovered state twice
  (open, fingerprint, close, repeat) yields bit-identical
  fingerprints: recovery must not mutate what it recovers beyond the
  documented open-time hygiene;
* **no debris** — no leftover ``.vacuum``/``.truncate``
  temp files survive a reopen, and the storm itself leaks no file
  descriptors across an arm-crash-recover cycle;
* **structural health** — the recovered tree passes ``validate()`` and
  its labels are strictly increasing.

**The oracle** is position-based: a workload step is ("insert", 0.62,
payload), not a handle — resolved against the live-handle list at
apply time.  The same abstract script therefore drives both the real
system and a throwaway in-memory twin, and (crucially) a *subprocess*
storm worker can regenerate the oracle from the seed alone after the
parent killed it with ``os._exit`` (see :mod:`repro.testing.storm_worker`).

Three scenarios cover the surface; each declared failpoint is assigned
to the first scenario whose unarmed probe run hits it:

* ``store`` — raw :class:`PageStore` churn: puts (single and batched),
  deletes, vacuums, reopens;
* ``service`` — a :class:`ConcurrentDocument` under ``sync=True,
  group_commit=1``: inserts, run-inserts, deletes, payload updates,
  checkpoints, an online split, merge, and a policy rebalance;
* ``recovery`` — crash *during recovery*: a service directory with a
  torn WAL tail, killed again at the recovery-time failpoints, then
  recovered cleanly.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.params import LTreeParams
from repro.core.sharded import RebalancePolicy, ShardedCompactLTree
from repro.errors import RecoveryError, StorageError
from repro.storage.faults import FAILPOINTS, SimulatedCrash, torn_write
from repro.storage.pages import PageStore

#: deterministic workload RNG (kept private to the module so a seed
#: means the same script everywhere, including inside a storm worker)
import random

PARAMS = LTreeParams(f=8, s=2)

SCENARIOS = ("store", "service", "recovery")

#: temp-file suffixes no recovered directory may retain
DEBRIS_SUFFIXES = (".vacuum", ".truncate")


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class StormResult:
    failpoint: str
    scenario: str
    fired: bool
    completed: int
    crashed: bool
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        return {"failpoint": self.failpoint, "scenario": self.scenario,
                "fired": self.fired, "completed": self.completed,
                "crashed": self.crashed, "ok": self.ok,
                "error": self.error}


@dataclass
class StormReport:
    seed: int
    results: list[StormResult] = field(default_factory=list)
    #: declared failpoints no scenario's workload reaches
    unreached: list[str] = field(default_factory=list)

    @property
    def covered(self) -> list[str]:
        return sorted({r.failpoint for r in self.results if r.fired})

    def failures(self) -> list[StormResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures() and not self.unreached

    def to_dict(self) -> dict:
        return {"seed": self.seed, "ok": self.ok,
                "covered": self.covered, "unreached": self.unreached,
                "results": [r.to_dict() for r in self.results]}


# ----------------------------------------------------------------------
# severing (simulated process death)
# ----------------------------------------------------------------------
def _sever_store(store: PageStore) -> None:
    """Release a crashed store's resources without tidy shutdown.

    The crash already happened at the failpoint; whatever sits in the
    OS below this point is what a restarted process finds.  Closing
    the Python objects only prevents fd leaks in the *storm* process —
    a flush that still succeeds is at most extra durability, which the
    prefix invariant tolerates.
    """
    for mapped in list(getattr(store, "_retired_maps", ())) + \
            ([store._map] if getattr(store, "_map", None) else []):
        try:
            mapped.close()
        except BufferError:
            pass
    store._retired_maps.clear()
    store._map = None
    try:
        store._file.close()
    except (OSError, ValueError):
        pass


def _sever_service(doc: Any) -> None:
    try:
        doc.wal._file.close()
    except (OSError, ValueError):
        pass
    _sever_store(doc.store)


def _check_debris(root: str) -> Optional[str]:
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(DEBRIS_SUFFIXES):
                return f"leftover temp file: {os.path.join(dirpath, name)}"
    return None


def _open_fds() -> Optional[int]:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
class _StoreScenario:
    """Raw PageStore churn; the oracle is a plain dict.

    Every batch, fresh names and overwrites alike, is one copy-on-write
    ``put_blobs`` flip that never writes a page the pre-flip catalog
    references, so a crash at any byte of it must reopen on the state
    before the batch or after it: the strict prefix oracle holds for
    every put, delete and vacuum.
    """

    name = "store"
    PAGE_SIZE = 256

    def build_steps(self, seed: int) -> list[tuple]:
        rng = random.Random(seed * 7919 + 1)
        steps: list[tuple] = [("create",)]
        names = [f"blob{i}" for i in range(6)]
        for index in range(18):
            roll = rng.random()
            if index in (6, 13):
                steps.append(("vacuum",))
            elif index == 9:
                steps.append(("reopen",))
            elif roll < 0.55:
                count = 1 + (index % 3)           # batched puts hit
                batch = {}                        # mid-data failpoints
                for _ in range(count):
                    name = names[rng.randrange(len(names))]
                    size = rng.randrange(1, 700)
                    batch[name] = bytes([rng.randrange(256)]) * size
                steps.append(("put", batch))
            elif roll < 0.8:
                steps.append(("delete", rng.random()))
            else:
                steps.append(("put", {names[rng.randrange(len(names))]:
                                      b""}))
        return steps

    def oracle(self, steps: list[tuple]) -> list[str]:
        state: dict[str, bytes] = {}
        states = [self._fingerprint_dict(state)]
        for step in steps:
            if step[0] == "put":
                state.update(step[1])
            elif step[0] == "delete" and state:
                victim = sorted(state)[int(step[1] * (len(state) - 1))]
                del state[victim]
            states.append(self._fingerprint_dict(state))
        return states

    @staticmethod
    def _fingerprint_dict(state: dict[str, bytes]) -> str:
        return json.dumps(sorted(
            (name, len(data), zlib.crc32(data))
            for name, data in state.items()))

    def _path(self, workdir: str) -> str:
        return os.path.join(workdir, "store.ltp")

    def run(self, workdir: str, steps: list[tuple],
            on_step: Optional[Callable[[int], None]] = None) -> int:
        completed = 0
        store: Optional[PageStore] = None
        try:
            for step in steps:
                if step[0] == "create":
                    store = PageStore(self._path(workdir),
                                      page_size=self.PAGE_SIZE, sync=True)
                elif step[0] == "put":
                    store.put_blobs(step[1])
                elif step[0] == "delete":
                    live = sorted(store.blobs())
                    if live:
                        store.delete_blob(
                            live[int(step[1] * (len(live) - 1))])
                elif step[0] == "vacuum":
                    store.vacuum()
                elif step[0] == "reopen":
                    store.close()
                    store = PageStore(self._path(workdir), sync=True)
                completed += 1
                if on_step is not None:
                    on_step(completed)
            store.close()
        except BaseException:
            if store is not None:
                _sever_store(store)
            raise
        return completed

    def observe(self, workdir: str) -> str:
        with PageStore(self._path(workdir)) as store:
            state = {name: bytes(store.get_blob(name, verify=True))
                     for name in store.blobs()}
        return self._fingerprint_dict(state)

    def recover_failed(self, workdir: str, completed: int,
                       exc: BaseException) -> Optional[str]:
        return f"reopen failed after {completed} steps: {exc!r}"


class _ServiceScenario:
    """A ConcurrentDocument under the strictest durability settings."""

    name = "service"
    REBALANCE = RebalancePolicy(max_ratio=1.5, min_split_leaves=8,
                                max_shards=16)

    def build_steps(self, seed: int) -> list[tuple]:
        rng = random.Random(seed * 104729 + 3)
        steps: list[tuple] = [("create",), ("bulk", 8)]
        for index in range(24):
            if index in (5, 12, 19):
                steps.append(("checkpoint",))
            elif index == 8:
                steps.append(("split",))
            elif index == 15:
                steps.append(("merge",))
            elif index == 10:
                # a skewed run into one anchor, so the rebalance step
                # below has something to act on
                steps.append(("run", 0.95,
                              [["skew", k] for k in range(18)]))
            elif index == 11:
                steps.append(("rebalance",))
            else:
                roll = rng.random()
                if roll < 0.5:
                    steps.append(("insert", rng.random(),
                                  ["pay", index, rng.randrange(999)]))
                elif roll < 0.7:
                    steps.append(("run", rng.random(),
                                  [["r", index, k]
                                   for k in range(rng.randrange(2, 5))]))
                elif roll < 0.85:
                    steps.append(("delete", rng.random()))
                else:
                    steps.append(("set", rng.random(),
                                  ["upd", index]))
        return steps

    # -- the one positional applier both real doc and twin share -------
    @staticmethod
    def _apply_logical(target: Any, live: list, step: tuple) -> bool:
        """Apply a logical step; returns False for non-logical steps."""
        kind = step[0]
        if kind == "bulk":
            live[:] = target.bulk_load(
                [["base", i] for i in range(step[1])])
        elif kind == "insert":
            index = int(step[1] * (len(live) - 1))
            live.insert(index + 1,
                        target.insert_after(live[index], step[2]))
        elif kind == "run":
            index = int(step[1] * (len(live) - 1))
            handles = target.insert_run_after(live[index], step[2])
            live[index + 1:index + 1] = handles
        elif kind == "delete":
            if len(live) > 6:
                index = int(step[1] * (len(live) - 1))
                target.delete(live.pop(index))
        elif kind == "set":
            index = int(step[1] * (len(live) - 1))
            target.set_payload(live[index], step[2])
        else:
            return False
        return True

    def oracle(self, steps: list[tuple]) -> list[str]:
        twin = ShardedCompactLTree(PARAMS, n_shards=4)

        class _Twin:                              # same verbs as the doc
            bulk_load = twin.bulk_load
            insert_after = twin.insert_after
            insert_run_after = twin.insert_run_after
            delete = twin.mark_deleted
            set_payload = twin.set_payload

        live: list = []
        states = [json.dumps([])]
        for step in steps:
            self._apply_logical(_Twin, live, step)
            states.append(
                json.dumps(twin.payloads(include_deleted=False)))
        return states

    def _dir(self, workdir: str) -> str:
        return os.path.join(workdir, "svc")

    def run(self, workdir: str, steps: list[tuple],
            on_step: Optional[Callable[[int], None]] = None) -> int:
        from repro.concurrent.service import ConcurrentDocument

        completed = 0
        doc = None
        live: list = []
        try:
            for step in steps:
                if self._apply_logical(doc, live, step):
                    pass
                elif step[0] == "create":
                    doc = ConcurrentDocument.create(
                        self._dir(workdir), params=PARAMS, n_shards=4,
                        sync=True, group_commit=1)
                elif step[0] == "checkpoint":
                    doc.checkpoint()
                elif step[0] == "split":
                    rows = [r for r in doc.shard_report()
                            if r["leaves"] >= 4]
                    if rows:
                        row = max(rows, key=lambda r: (r["leaves"],
                                                       -r["id"]))
                        doc.tree.split_shard(row["id"],
                                             row["leaves"] // 2)
                elif step[0] == "merge":
                    rows = doc.shard_report()
                    if len(rows) >= 3:
                        pairs = [(rows[p]["leaves"] + rows[p + 1]["leaves"],
                                  rows[p]["id"], rows[p + 1]["id"])
                                 for p in range(len(rows) - 1)]
                        _, id_a, id_b = min(pairs)
                        doc.tree.merge_shards(id_a, id_b)
                elif step[0] == "rebalance":
                    doc.rebalance(self.REBALANCE)
                completed += 1
                if on_step is not None:
                    on_step(completed)
            doc.close()
        except BaseException:
            if doc is not None:
                _sever_service(doc)
            raise
        return completed

    def observe(self, workdir: str) -> str:
        from repro.concurrent.service import ConcurrentDocument

        with ConcurrentDocument.open(self._dir(workdir)) as doc:
            labels = doc.labels()
            if labels != sorted(set(labels)):
                raise AssertionError(
                    "recovered labels are not strictly increasing")
            doc.tree.validate()
            return json.dumps(doc.payloads())

    def recover_failed(self, workdir: str, completed: int,
                       exc: BaseException) -> Optional[str]:
        """A typed open failure is legal only for a half-created
        service — and then create() must succeed over the debris."""
        from repro.concurrent.service import ConcurrentDocument

        if completed <= 1 and isinstance(exc, (StorageError,
                                               RecoveryError)):
            doc = ConcurrentDocument.create(
                self._dir(workdir), params=PARAMS, n_shards=4)
            doc.close()
            return None                           # re-creatable: fine
        return f"reopen failed after {completed} steps: {exc!r}"


class _RecoveryScenario:
    """Crash during recovery itself, on a directory with a torn tail."""

    name = "recovery"

    def __init__(self) -> None:
        self._base = _ServiceScenario()

    def build_steps(self, seed: int) -> list[tuple]:
        # base workload, one appended insert whose WAL commit is torn
        # mid-write (so recovery has a real tail to truncate), then an
        # explicit recovery open — the step recovery-time failpoints
        # (``service:open:pre-replay``, ``wal:open:pre-truncate-tail``)
        # fire in while the storm's arm is still in scope
        return self._base.build_steps(seed) + [("torn-append",),
                                               ("recover-open",)]

    def oracle(self, steps: list[tuple]) -> list[str]:
        states = self._base.oracle(steps[:-2])
        # neither tail step changes acknowledged logical state: the
        # torn append is never acknowledged, the recovery open is read-
        # repair only
        return states + [states[-1], states[-1]]

    def run(self, workdir: str, steps: list[tuple],
            on_step: Optional[Callable[[int], None]] = None) -> int:
        from repro.concurrent.service import ConcurrentDocument

        completed = self._base.run(workdir, steps[:-2],
                                   on_step=on_step)
        doc = ConcurrentDocument.open(self._base._dir(workdir),
                                      sync=True, group_commit=1)
        try:
            with FAILPOINTS.scoped():
                FAILPOINTS.arm("wal:commit:torn-write", torn_write(0.3))
                anchor = next(iter(doc.handles()))
                try:
                    doc.insert_after(anchor, ["torn"])
                except SimulatedCrash:
                    pass
        finally:
            _sever_service(doc)
        completed += 1
        if on_step is not None:
            on_step(completed)
        recovered = ConcurrentDocument.open(self._base._dir(workdir))
        recovered.close()
        completed += 1
        if on_step is not None:
            on_step(completed)
        return completed

    def observe(self, workdir: str) -> str:
        return self._base.observe(workdir)

    def recover_failed(self, workdir: str, completed: int,
                       exc: BaseException) -> Optional[str]:
        return f"reopen failed after {completed} steps: {exc!r}"


def make_scenario(name: str):
    try:
        cls = {"store": _StoreScenario, "service": _ServiceScenario,
               "recovery": _RecoveryScenario}[name]
    except KeyError:
        raise StorageError(f"unknown storm scenario {name!r} "
                           f"(known: {list(SCENARIOS)})") from None
    return cls()


# ----------------------------------------------------------------------
# the storm driver
# ----------------------------------------------------------------------
def _probe(scenario, seed: int, base_dir: str) -> set[str]:
    """Run the scenario unarmed; returns the failpoint names it hit.

    Only ``run()`` counts — ``observe()`` also walks instrumented code
    (an open), but an armed scenario exits its arm scope before
    observing, so a failpoint only observe reaches could never fire.
    Recovery-time failpoints (``service:open:pre-replay``,
    ``wal:open:pre-truncate-tail``) are instead reached by the
    ``recovery`` scenario's explicit ``recover-open`` step.
    """
    before = dict(FAILPOINTS.hits)
    workdir = os.path.join(base_dir, f"probe-{scenario.name}")
    os.makedirs(workdir, exist_ok=True)
    scenario.run(workdir, scenario.build_steps(seed))
    after = FAILPOINTS.hits
    return {name for name, count in after.items()
            if count > before.get(name, 0)}


def _storm_one(scenario, failpoint_name: str, seed: int,
               workdir: str) -> StormResult:
    """Arm one failpoint, run, crash, recover, check invariants."""
    states = scenario.oracle(scenario.build_steps(seed))
    action = torn_write(0.3) if ":torn-" in failpoint_name else "crash"
    fired_before = FAILPOINTS.fired.get(failpoint_name, 0)
    completed = 0
    crashed = False
    holder = {"completed": 0}
    try:
        with FAILPOINTS.scoped():
            FAILPOINTS.arm(failpoint_name, action)
            completed = scenario.run(
                workdir, scenario.build_steps(seed),
                on_step=lambda k: holder.__setitem__("completed", k))
    except SimulatedCrash:
        crashed = True
        completed = holder["completed"]
    fired = FAILPOINTS.fired.get(failpoint_name, 0) > fired_before
    result = StormResult(failpoint_name, scenario.name, fired,
                         completed, crashed)

    allowed = {states[completed]}
    if completed + 1 < len(states):
        allowed.add(states[completed + 1])
    try:
        first = scenario.observe(workdir)
        second = scenario.observe(workdir)
    except (StorageError, RecoveryError, OSError, KeyError,
            AssertionError) as exc:
        result.error = scenario.recover_failed(workdir, completed, exc)
        return result
    if first != second:
        result.error = (f"recovery not idempotent: first open gave "
                        f"{first[:80]!r}..., second {second[:80]!r}...")
    elif first not in allowed:
        result.error = (f"recovered state matches no valid prefix "
                        f"(completed={completed}): {first[:120]!r}")
    else:
        result.error = _check_debris(workdir)
    return result


def run_storm(seed: int = 0, scenarios: Optional[list[str]] = None,
              failpoints: Optional[list[str]] = None,
              base_dir: Optional[str] = None) -> StormReport:
    """Enumerate the declared surface and crash at every point.

    ``scenarios`` restricts which workloads run (default: all);
    ``failpoints`` restricts which names are stormed (default: every
    declared name reachable by some scenario).  Unreached declared
    names are reported in :attr:`StormReport.unreached` — the coverage
    gate CI refuses to let shrink.
    """
    # the full surface only exists once every instrumented module has
    # imported; these imports are the declaration side effects
    import repro.concurrent.service      # noqa: F401
    import repro.core.sharded            # noqa: F401
    import repro.storage.wal             # noqa: F401

    chosen = [make_scenario(name)
              for name in (scenarios or SCENARIOS)]
    report = StormReport(seed=seed)
    with tempfile.TemporaryDirectory(dir=base_dir) as tmp:
        reachable: dict[str, Any] = {}
        for scenario in chosen:
            for name in sorted(_probe(scenario, seed, tmp)):
                reachable.setdefault(name, scenario)
        targets = failpoints if failpoints is not None \
            else FAILPOINTS.names()
        fd_baseline = _open_fds()
        for index, name in enumerate(sorted(targets)):
            scenario = reachable.get(name)
            if scenario is None:
                report.unreached.append(name)
                continue
            workdir = os.path.join(tmp, f"{index:03d}")
            os.makedirs(workdir)
            result = _storm_one(scenario, name, seed, workdir)
            fd_now = _open_fds()
            if result.ok and fd_baseline is not None and \
                    fd_now is not None and fd_now > fd_baseline + 2:
                result.error = (f"fd leak: {fd_baseline} open before "
                                f"the cycle, {fd_now} after")
            report.results.append(result)
    return report


def main(argv: Optional[list[str]] = None) -> int:
    """CLI for the CI storm job: ``python -m repro.testing.crashstorm``.

    Seeds come from ``--seed`` (repeatable) or the ``REPRO_STORM_SEED``
    env var (comma-separated); scenarios likewise from ``--scenario``
    or ``REPRO_STORM_SCENARIOS``.  Exit 0 only when every seed's storm
    covers the whole declared surface with every invariant holding.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="crash at every declared failpoint and prove "
                    "recovery")
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed (repeatable)")
    parser.add_argument("--scenario", action="append",
                        choices=SCENARIOS, help="restrict scenarios")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the merged reports to PATH")
    args = parser.parse_args(argv)
    seeds = args.seed or [
        int(s) for s in os.environ.get("REPRO_STORM_SEED", "0").split(",")]
    scenarios = args.scenario or (
        os.environ["REPRO_STORM_SCENARIOS"].split(",")
        if "REPRO_STORM_SCENARIOS" in os.environ else None)

    reports = []
    failed = False
    for seed in seeds:
        report = run_storm(seed=seed, scenarios=scenarios)
        reports.append(report.to_dict())
        fired = sum(1 for r in report.results if r.fired)
        print(f"seed {seed}: {fired}/{len(report.results)} failpoints "
              f"fired, {len(report.unreached)} unreached, "
              f"{len(report.failures())} invariant failures")
        for result in report.failures():
            print(f"  FAIL {result.failpoint} [{result.scenario}]: "
                  f"{result.error}")
            failed = True
        if report.unreached:
            print(f"  unreached: {', '.join(report.unreached)}")
            failed = True
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(reports, handle, indent=2, sort_keys=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
