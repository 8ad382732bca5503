"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper-search --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source checkout.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
(from a separate traced run).  Set-up is measured several times per run
in fresh processes over empty artifact stores, and the median reported.
Every store, queue and server lives under ``.perfbench_tmp/`` in the
checkout and is removed before exit.  README.md describes the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    ROOT,
    SetupError,
    child_env,
    fresh_dir,
    log,
    metric,
    remove_dir,
    require_sources,
)
from workloads import IN_PROCESS, SERVE_MIXED, WORKLOADS  # noqa: E402

#: Set-up samples per run (fresh process, empty store each).
SETUP_REPEATS = 3
#: A run that takes longer than this is stopped and fails.
RUN_TIMEOUT_S = 170


def _spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _worker(args, setup_only: bool) -> tuple[float, str]:
    """Run ``worker.py`` over a fresh, empty store.

    Returns the seconds from process start until it printed ``READY``
    (one set-up sample) and everything it printed after that.
    """
    store = fresh_dir("store-")
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--store", str(store),
    ] + (["--setup-only"] if setup_only else [])
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            env=child_env(store), cwd=ROOT)
    try:
        for raw in proc.stdout:
            if raw.strip() == b"READY":
                ready = time.perf_counter() - started
                break
        else:
            raise RuntimeError(f"worker exited with code {proc.wait()} "
                               "before it was ready")
        out = proc.stdout.read().decode()
        if proc.wait() != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        return ready, out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        remove_dir(store)


def run_in_process(args) -> dict:
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = [_worker(args, setup_only=True)[0] for _ in range(repeats - 1)]
    ready, out = _worker(args, setup_only=False)
    setups.append(ready)
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = metric(statistics.median(setups), "s")
    return result


def run_serve(args) -> dict:
    import serve_load

    workload = SERVE_MIXED
    setups = []
    stores = []
    server = None
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        for attempt in range(repeats):
            stores.append(fresh_dir("serve-"))
            server, seconds = serve_load.boot(workload, stores[-1])
            setups.append(seconds)
            if attempt < repeats - 1:
                server.stop()
                server = None
        attempted, failed, end_to_end, per_layer = serve_load.run(
            workload, args, stores[-1], server
        )
    finally:
        if server is not None:
            server.stop()
        for store in stores:
            remove_dir(store)
    if args.trace:
        # Job timestamps and /stats come from the same run as the
        # end-to-end figures: nothing extra is switched on.
        per_layer["trace.overhead_ratio"] = metric(1.0, "ratio")
        metrics = per_layer
    else:
        metrics = dict(end_to_end)
        metrics["setup_s"] = metric(statistics.median(setups), "s")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _conform(result: dict, names: dict[str, str]) -> dict:
    """Exactly the declared metrics with their declared units.  A layer
    the workload does not reach reads 0."""
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        raise RuntimeError(f"undeclared metrics {unknown}")
    for name, unit in names.items():
        if name not in metrics:
            metrics[name] = metric(0.0, unit)
        elif metrics[name]["unit"] != unit:
            raise RuntimeError(
                f"{name}: unit {metrics[name]['unit']!r} != {unit!r}"
            )
    result["metrics"] = {name: metrics[name] for name in names}
    return result


class RunTimeout(Exception):
    """Raised in the main thread when the run outlives RUN_TIMEOUT_S (not
    an OSError, so no handler for connection errors swallows it)."""


def _timed_out(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_TIMEOUT_S}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
        names = _spec()[args.trace]
    except (SetupError, OSError, ValueError, KeyError) as exc:
        log(f"cannot run: {exc}")
        return 2
    signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        if args.workload in IN_PROCESS:
            result = run_in_process(args)
        else:
            result = run_serve(args)
        result = _conform(result, names)
    except Exception as exc:  # noqa: BLE001 -- reported, exit non-zero
        log(f"{args.workload} failed: {type(exc).__name__}: {exc}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
