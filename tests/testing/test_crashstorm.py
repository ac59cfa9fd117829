"""The crash storm itself: every declared failpoint is reachable,
crashes at each leave a recoverable store, and the subprocess worker
survives a true ``os._exit`` kill."""

import json
import os
import subprocess
import sys

import pytest

from repro.errors import StorageError
from repro.storage.faults import FAILPOINTS
from repro.testing import SCENARIOS, run_storm
from repro.testing.crashstorm import make_scenario


class TestFullStorm:
    def test_every_declared_failpoint_crashes_and_recovers(self):
        """The acceptance criterion: the storm enumerates the whole
        declared surface (>= 25 points), fires a crash at every one,
        and every recovery invariant holds."""
        report = run_storm(seed=0)
        assert report.unreached == []
        assert len(report.covered) >= 25
        assert all(r.fired for r in report.results)
        assert report.failures() == [], \
            [r.to_dict() for r in report.failures()]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_invariants_hold_across_seeds(self, seed):
        report = run_storm(seed=seed)
        assert report.ok, [r.to_dict() for r in report.failures()]

    def test_surface_matches_registry(self):
        """Coverage accounting is against the registry, so a newly
        declared failpoint no scenario reaches turns the report
        not-ok instead of silently shrinking coverage."""
        report = run_storm(seed=0)
        stormed = {r.failpoint for r in report.results}
        assert stormed | set(report.unreached) == set(FAILPOINTS.names())

    def test_report_round_trips_to_json(self):
        report = run_storm(seed=0, scenarios=["store"],
                           failpoints=["pagestore:vacuum:pre-replace"])
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["ok"] is True

    def test_restricted_failpoint_list(self):
        report = run_storm(
            seed=2, scenarios=["store"],
            failpoints=["pagestore:catalog:post-write",
                        "pagestore:put:mid-data"])
        assert len(report.results) == 2
        assert report.ok
        assert all(r.crashed for r in report.results)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(StorageError):
            make_scenario("voltage-spike")


class TestScenarioOracles:
    """The oracle and the real system agree step-for-step when nothing
    crashes — the precondition for blaming any divergence on the
    crash."""

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_unarmed_run_lands_on_final_oracle_state(self, name,
                                                     tmp_path):
        scenario = make_scenario(name)
        steps = scenario.build_steps(7)
        states = scenario.oracle(steps)
        assert len(states) == len(steps) + 1
        completed = scenario.run(str(tmp_path), steps)
        assert completed == len(steps)
        assert scenario.observe(str(tmp_path)) == states[-1]

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_recovery_is_idempotent_property(self, name, tmp_path):
        """Observing a recovered directory twice yields identical
        fingerprints — recovery must not keep rewriting state."""
        scenario = make_scenario(name)
        scenario.run(str(tmp_path), scenario.build_steps(9))
        assert scenario.observe(str(tmp_path)) == \
            scenario.observe(str(tmp_path))

    def test_service_workload_rebalances(self, tmp_path):
        """The service script's skew step must actually trigger
        rebalance actions, or ``service:rebalance:post-actions``
        silently drops out of the storm's reach."""
        before = FAILPOINTS.hits.get("service:rebalance:post-actions", 0)
        scenario = make_scenario("service")
        scenario.run(str(tmp_path), scenario.build_steps(0))
        after = FAILPOINTS.hits.get("service:rebalance:post-actions", 0)
        assert after > before


class TestSubprocessKill:
    """True process death: ``os._exit(137)`` mid-write, no Python
    unwinding, progress read back from the worker's stdout tail."""

    WORKER = ["-m", "repro.testing.storm_worker"]

    def _spawn(self, workdir, scenario, seed, failpoint_spec=None):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        if failpoint_spec is not None:
            env["REPRO_FAILPOINT_EXIT"] = failpoint_spec
        else:
            env.pop("REPRO_FAILPOINT_EXIT", None)
        return subprocess.run(
            [sys.executable, *self.WORKER, str(workdir), scenario,
             str(seed)],
            env=env, capture_output=True, text=True, timeout=120)

    def test_unarmed_worker_completes(self, tmp_path):
        proc = self._spawn(tmp_path, "store", 5)
        assert proc.returncode == 0, proc.stderr
        scenario = make_scenario("store")
        lines = proc.stdout.splitlines()
        assert int(lines[-1]) == len(scenario.build_steps(5))

    @pytest.mark.parametrize("scenario_name,spec", [
        ("store", "pagestore:catalog:post-write:3"),
        ("store", "pagestore:put:mid-data"),
        ("service", "wal:commit:post-write:5"),
    ])
    def test_killed_worker_recovers_to_oracle_prefix(self, tmp_path,
                                                     scenario_name,
                                                     spec):
        proc = self._spawn(tmp_path, scenario_name, 5,
                           failpoint_spec=spec)
        assert proc.returncode == 137, (proc.returncode, proc.stderr)
        # the stdout tail is the worker's progress WAL: the last
        # *complete* line is the last step known to have finished
        complete = [line for line in proc.stdout.split("\n")[:-1]
                    if line.isdigit()]
        completed = int(complete[-1]) if complete else 0
        scenario = make_scenario(scenario_name)
        states = scenario.oracle(scenario.build_steps(5))
        allowed = {states[completed]}
        if completed + 1 < len(states):
            allowed.add(states[completed + 1])
        assert scenario.observe(str(tmp_path)) in allowed
        assert scenario.observe(str(tmp_path)) in allowed  # idempotent
