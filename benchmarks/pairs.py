"""Alternating parent/change pairs of the end-to-end benchmark.

Runs ``perfbench/run.py --trace 0`` once per side, workload and seed,
each run a subprocess in its own checkout: the parent's and the
change's.  The side that runs first alternates by seed (the parent on
odd seeds, the change on even ones), so slow drift of a shared host
lands on both sides alike.  Each run records its wall time and its
child CPU time (``resource.getrusage(RUSAGE_CHILDREN)``): a run whose
CPU share drops was waiting for the CPU.

The output JSON holds ``runs`` (one record per run) and ``summary``
(per workload and ``BENCHMARK.json`` end-to-end metric: each side's
median, quartiles and run count, the pairs the change won, how much
worse its median reads than the parent's, whether that is within the
metric's bound, whether the medians differ by more than the parent's
interquartile range, and whether the wider side's spread is too large
for the bound to be resolved).  It is rewritten after every pair, so
an interrupted session keeps what it measured.

Run from the change checkout's root::

    python benchmarks/pairs.py --parent ../parent --change . \\
        --workloads query_serving service_edits --seeds 1-10 \\
        --out BENCH_PRn.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Optional

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def order_for(seed: int) -> tuple[str, str]:
    """The sides of one pair in run order: the parent first on odd
    seeds, the change first on even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``checkout``.

    Returns the run's record without its ``side``: workload, seed, op
    counts, correctness, wall and child CPU seconds, and the metric
    values of the JSON line the run prints last.  A run that prints no
    such line is recorded as incorrect, with its exit code and the end
    of its standard error.
    """
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    cpu_before = _child_cpu_s()
    start = time.perf_counter()
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, check=False)
    wall = time.perf_counter() - start
    cpu = _child_cpu_s() - cpu_before
    record = {"workload": workload, "seed": seed,
              "wall_s": round(wall, 2), "cpu_s": round(cpu, 2)}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: entry["value"]
                   for name, entry in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        record.update(attempted=0, failed=0, correct=False, metrics={},
                      error=f"exit {done.returncode}: "
                            f"{done.stderr.strip()[-400:]}")
        return record
    record.update(attempted=result["attempted"], failed=result["failed"],
                  correct=bool(result["correct"]), metrics=metrics)
    return record


def quartiles(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and count of ``values``."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "n": len(values)}


def compare(parent: dict[int, float], change: dict[int, float],
            better: str, bound: float) -> dict:
    """One metric's summary from its per-seed values on each side.

    ``change_worse_by`` is the change median's shortfall relative to
    the parent median (negative when it reads better);
    ``beyond_parent_iqr`` says the medians differ by more than the
    parent's interquartile range; ``unresolved`` says the wider side's
    interquartile range, over the parent median, exceeds the bound, so
    the pairs cannot tell a regression of that size from noise.
    """
    sides = {"parent": quartiles(list(parent.values())),
             "change": quartiles(list(change.values()))}
    paired = sorted(set(parent) & set(change))
    if better == "lower":
        wins = sum(change[seed] < parent[seed] for seed in paired)
    else:
        wins = sum(change[seed] > parent[seed] for seed in paired)
    base, moved = sides["parent"]["median"], sides["change"]["median"]
    iqrs = [side["q3"] - side["q1"] for side in sides.values()]
    if base:
        worse = (moved - base) / base if better == "lower" \
            else (base - moved) / base
        worse, spread = round(worse, 4), round(max(iqrs) / base, 3)
    else:
        worse = 0.0 if moved == base else None
        spread = 0.0 if not max(iqrs) else None
    return dict(
        sides,
        change_wins=f"{wins}/{len(paired)}",
        change_worse_by=worse,
        bound=bound,
        within_bound=worse is not None and worse <= bound,
        beyond_parent_iqr=abs(moved - base) > iqrs[0],
        wider_iqr_over_parent_median=spread,
        unresolved=spread is None or spread > bound)


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The ``summary`` block: per workload, its seeds, op counts and
    one :func:`compare` entry per declared end-to-end metric."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_side = {side: [run for run in mine if run["side"] == side]
                   for side in SIDES}
        metrics = {}
        for entry in end_to_end:
            name = entry["name"]
            values = {side: {run["seed"]: run["metrics"][name]
                             for run in by_side[side]
                             if name in run["metrics"]}
                      for side in SIDES}
            if not all(values.values()):
                continue
            metrics[name] = compare(values["parent"], values["change"],
                                    entry["better"], entry["bound"])
        summary[workload] = {
            "seeds": sorted({run["seed"] for run in mine}),
            "failed_ops": {side: sum(run["failed"] for run in by_side[side])
                           for side in SIDES},
            "attempted_ops": {side: sum(run["attempted"]
                                        for run in by_side[side])
                              for side in SIDES},
            "correct": all(run["correct"] for run in mine),
            "metrics": metrics,
        }
    return summary


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", required=True, help='e.g. "1-10,15"')
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    seconds = args.seconds or spec["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    runs: list[dict] = []
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            sides = order_for(seed)
            for side in sides:
                record = run_once(checkouts[side], workload, seed, seconds)
                record["side"] = side
                record["ran_first"] = sides[0]
                runs.append(record)
                print(f"{workload} seed {seed} {side}: wall "
                      f"{record['wall_s']} s, cpu {record['cpu_s']} s, "
                      f"correct {record['correct']}", file=sys.stderr)
            output = {
                "command": f"python3 perfbench/run.py --workload <w> "
                           f"--seed <s> --seconds {seconds:g} --trace 0 "
                           f"in each checkout, parent first on odd seeds, "
                           f"change first on even seeds",
                "summary": summarize(runs, spec["end_to_end"]),
                "runs": runs,
            }
            with open(args.out, "w", encoding="utf-8") as out:
                json.dump(output, out, indent=1)
                out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
