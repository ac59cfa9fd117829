"""Service-level benchmark of the L-Tree document service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload service_edits --seed 1 \
        --seconds 30 --trace 0

Workloads: ``service_edits``, ``query_serving``, ``two_writers`` (see
``perfbench/NOTES.md`` for what each one stresses and bypasses).
``--trace 0`` is one untraced run of ``--seconds`` that prints every
end-to-end metric of ``BENCHMARK.json``.  ``--trace 1`` runs the
workload three times for a third of ``--seconds`` each -- untraced,
with the ``repro.obs`` registry on, and traced (spans around every call
into the program, live ``Counters``, the registry) -- and prints every
per-layer metric; the spans land in
``.perfbench/trace-<workload>-<seed>.jsonl``.  The last line of
standard output is the JSON result; the exit code is 1 when a
correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("service_edits", "query_serving", "two_writers")
#: query_serving's set-ups per untraced run; the median is ``setup_s``
SETUPS = 3


def run_workload(name: str, seed: int, seconds: float, work, mode: str,
                 setups: int, expected: list) -> dict:
    if name == "query_serving":
        import serving
        return serving.run_pass(seed, seconds, work, mode, setups,
                                expected)
    import service
    return service.run_pass(name, seed, seconds, work, mode)


def per_unit(result: dict) -> float:
    """Timed-phase seconds per unit of work (an op or a cycle)."""
    return result["elapsed"] / result["work"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run it from a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro import obs
    from common import WorkDir, beyond, median

    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    # instrumentation stays off unless a pass turns it on
    obs.disable()
    obs.reset()
    work = WorkDir(ROOT)
    expected: list = []
    try:
        if args.trace:
            runs = [run_workload(args.workload, args.seed,
                                 args.seconds / 3, work, mode, 1, expected)
                    for mode in ("plain", "obs", "traced")]
            plain, with_obs, traced = runs
            values = dict(traced["layers"])
            values["bench.trace_overhead_ratio"] = \
                per_unit(traced) / per_unit(plain)
            values["bench.obs_overhead_ratio"] = \
                per_unit(with_obs) / per_unit(plain)
            declared = spec["per_layer"]
            trace_path = os.path.join(
                work.path, f"trace-{args.workload}-{args.seed}.jsonl")
            traced["spans"].export(trace_path)
            print(f"spans: {trace_path}")
        else:
            runs = [run_workload(args.workload, args.seed, args.seconds,
                                 work, "plain", SETUPS, expected)]
            values = runs[0]["metrics"]
            declared = spec["end_to_end"]
    finally:
        work.cleanup()

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    metrics = {}
    for entry in declared:
        # a layer a workload never calls did no work: zero
        value = values.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload:14s} {entry['name']:38s} "
              f"{value:16.6f} {entry['unit']}")
    speed = runs[-1]["speed"]
    print(f"host speed: {len(speed.readings)} probes; times above are "
          f"wall times x {median(speed.factors()):.4f} (median scale)")
    samples = runs[-1]["samples"]
    print("samples: " + ", ".join(
        f"{kind}={count}" + (f" ({beyond(count, 0.95)} beyond p95)"
                             if kind in ("ack", "query", "fresh")
                             else "")
        for kind, count in samples.items()))
    print(f"ops_failed_ratio: {failed / attempted:.6f} "
          f"({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
