"""Run every workload once and print its end-to-end metrics as a table.

    python3 perfbench/all.py [--seed 1] [--seconds 40] [--check]

Each metric prints by name with its unit, plus ``failed_frac`` (failed
operations / attempted, from the result's ``attempted`` and ``failed``)
and the run's correctness verdict.  ``--check`` adds the harness
self-checks, per workload:

* both result modes carry every metric BENCHMARK.json names, each with
  its declared unit;
* two traced runs with the same seed report identical per-layer counts;
* a second seed gives different inputs and still no failed operation.

Exits non-zero when a run fails, a verdict is false, or a check fails.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, ROOT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int):
    """One run.py invocation -> (result dict, inputs digest)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: "
                           f"exit code {proc.returncode}")
    found = re.search(r"perfbench: inputs (\w+)", proc.stderr)
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            found.group(1) if found else None)


def table(workload: str, result: dict) -> list[str]:
    rows = [f"{workload}  correct={result['correct']}  "
            f"attempted={result['attempted']}  failed={result['failed']}"]
    metrics = dict(result["metrics"])
    metrics["failed_frac"] = {
        "value": result["failed"] / result["attempted"], "unit": "ratio"
    }
    for name, entry in metrics.items():
        rows.append(f"  {name:<24} {entry['value']:>14.6g}  {entry['unit']}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="only these workloads (repeatable; default: "
                        "the workloads of BENCHMARK.json)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        result, inputs = run(workload, args.seed, seconds, 0)
        print("\n".join(table(workload, result)), flush=True)
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload}: {result['failed']} failed")
        if not args.check:
            continue
        traced = [run(workload, args.seed, seconds, 1)[0] for _ in range(2)]
        for mode, results in ((0, [result]), (1, traced)):
            for res in results:
                units = {k: v["unit"] for k, v in res["metrics"].items()}
                if units != declared[mode]:
                    problems.append(f"{workload}: trace {mode} metrics or "
                                    "units differ from BENCHMARK.json")
        counts = [
            {k: v["value"] for k, v in res["metrics"].items()
             if v["unit"] == "count"}
            for res in traced
        ]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                    if counts[0][k] != counts[1][k]}
            problems.append(f"{workload}: per-layer counts differ {diff}")
        other, other_inputs = run(workload, args.seed + 1, seconds, 0)
        if other_inputs is None or other_inputs == inputs:
            problems.append(f"{workload}: seed {args.seed + 1} did not "
                            "change the inputs")
        if other["failed"] or not other["correct"]:
            problems.append(f"{workload}: seed {args.seed + 1} had "
                            f"{other['failed']} failed operations")
        print(f"  self-check: traced counts {counts[0]}; "
              f"inputs {inputs} vs {other_inputs}", flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("all workloads ok" if not problems else
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
