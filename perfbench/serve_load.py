"""``serve-mixed``: a ``repro serve`` process under open-loop traffic.

The server runs as its own process group (``python3 -m repro serve``,
smoke preset, two worker processes) over a private artifact store and
queue directory.  One client process sends the seeded arrival schedule
and watches each accepted job on its websocket stream.  A job's latency
runs from its *scheduled* send time to the moment the client receives
its terminal frame, so a late sender or a slow accept counts against
it.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    child_env,
    digest_of,
    graph_digest,
    log,
    metric,
    quality_means,
    quantile,
)

#: Give up on the jobs this long after the last send.
JOB_TIMEOUT_S = 60.0


def _call(port: int, method: str, path: str, payload=None, timeout=30.0):
    """One HTTP request on a fresh connection -> (status, decoded JSON)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data.decode() or "null")
    finally:
        conn.close()


class ServerProcess:
    """``repro serve`` in its own session, stopped with its workers."""

    def __init__(self, preset: str, workers: int, store: Path):
        self.port: int | None = None
        self.log_path = store / "server.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--cache-dir", str(store),
             "serve", "--preset", preset, "--workers", str(workers),
             "--port", "0", "--queue-dir", str(store / "queue")],
            stdout=subprocess.PIPE, stderr=self._log,
            env=child_env(store), start_new_session=True,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise
        # Keep draining stdout so the server never blocks on a full pipe.
        self._drain = threading.Thread(
            target=lambda: self.proc.stdout.read(), daemon=True
        )
        self._drain.start()

    def _read_port(self) -> int:
        """The port from the CLI's "listening on" line (``--port 0``)."""
        marker = "listening on http://"
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace")
            if marker in line:
                address = line.split(marker, 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        raise RuntimeError(
            f"repro serve exited before listening; see {self.log_path}"
        )

    def peak_rss_mb(self) -> float:
        """Sum of peak resident memory over the server's process tree."""
        total_kb = 0
        for pid in _process_tree(self.proc.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None and self.port is not None:
            try:
                _call(self.port, "POST", "/shutdown", timeout=5.0)
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pass
        # Whatever is left of the group (workers of a killed server).
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if self.proc.poll() is None:
            self.proc.wait(timeout=10.0)
        self._log.close()


def _process_tree(root: int) -> list[int]:
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    tree, frontier = [root], [root]
    while frontier:
        children = parents.get(frontier.pop(), [])
        tree.extend(children)
        frontier.extend(children)
    return tree


def boot(workload, store: Path) -> tuple[ServerProcess, float]:
    """Start a server and run one probe job: (server, set-up seconds).

    Set-up ends when the probe job is done, not at the first answer on
    ``/healthz``: the port opens before the workers can take jobs.
    """
    from repro.serve import ServeClient

    started = time.perf_counter()
    server = ServerProcess(workload.preset, workload.workers, store)
    try:
        status, accepted = _call(
            server.port, "POST", "/jobs",
            {"request": workload.payload(workload.probe_seed),
             "dedupe": False},
        )
        if status != 200:
            raise RuntimeError(f"probe submit refused: {accepted}")
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        events = list(client.stream(accepted["job_id"], timeout=120.0))
        if not events or events[-1].get("type") != "done":
            raise RuntimeError(f"probe job did not succeed: {events[-1:]}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


@dataclass
class Submission:
    payload: dict
    fresh: bool
    timed: bool                   # in the timed window (not warm-up)
    due: float                    # scheduled send (perf_counter)
    sent: float = 0.0
    accepted: float = 0.0
    job_id: str | None = None
    deduplicated: bool = False
    state: str | None = None      # terminal state seen by the client
    observed: float | None = None  # when the client saw it (perf_counter)
    observed_wall: float | None = None
    error: str | None = None


def open_loop(port: int, offsets, payloads, fresh,
              timed) -> list[Submission]:
    """Send the schedule; watch every accepted job to its terminal state.

    The sender thread never waits for a job: each submission that is
    not already terminal gets a watcher thread reading the job's
    websocket stream, which the server pushes the terminal frame to as
    soon as the worker reports it -- no polling load on the two cores
    the workers run on.
    """
    from repro.serve import ServeClient, ServeError

    client = ServeClient(f"http://127.0.0.1:{port}")
    start = time.perf_counter() + 0.05
    subs = [
        Submission(payload, is_fresh, is_timed, start + offset)
        for payload, is_fresh, is_timed, offset
        in zip(payloads, fresh, timed, offsets)
    ]
    watchers: list[threading.Thread] = []

    def watch(sub: Submission) -> None:
        try:
            for event in client.stream(sub.job_id, timeout=JOB_TIMEOUT_S):
                if event.get("type") in ("done", "failed"):
                    sub.observed = time.perf_counter()
                    sub.observed_wall = time.time()
                    sub.state = event["type"]
                    return
            sub.error = "stream closed before a terminal frame"
        except (OSError, ServeError, ValueError) as exc:
            sub.error = f"stream: {type(exc).__name__}: {exc}"

    for sub in subs:
        delay = sub.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sub.sent = time.perf_counter()
        try:
            status, body = _call(port, "POST", "/jobs",
                                 {"request": sub.payload})
        except OSError as exc:
            sub.error = f"submit: {exc}"
            continue
        sub.accepted = time.perf_counter()
        if status != 200:
            sub.error = f"submit {status}: {body}"
            continue
        sub.job_id = body["job_id"]
        sub.deduplicated = bool(body["deduplicated"])
        if body["state"] in ("done", "failed"):
            sub.state, sub.observed = body["state"], sub.accepted
            sub.observed_wall = time.time()
            continue
        watcher = threading.Thread(target=watch, args=(sub,), daemon=True)
        watcher.start()
        watchers.append(watcher)
    deadline = time.monotonic() + JOB_TIMEOUT_S
    for watcher in watchers:
        watcher.join(timeout=max(deadline - time.monotonic(), 0.1))
        if watcher.is_alive():
            raise RuntimeError("a job did not finish within "
                               f"{JOB_TIMEOUT_S:.0f}s of the last send")
    return subs


def fetch_result(port: int, job_id: str) -> dict:
    status, body = _call(port, "GET", f"/jobs/{job_id}/result")
    if status != 200:
        raise RuntimeError(f"result of {job_id}: {status} {body}")
    return body


def stats(port: int) -> dict:
    return _call(port, "GET", "/stats")[1]


def run(workload, args, store: Path, server: ServerProcess):
    """Warm-up, the timed window, and the checks after it.

    Returns ``(attempted, failed, end_to_end, per_layer)``.  Every job
    counts towards ``attempted`` / ``failed``; the metrics cover the
    timed window's jobs only.
    """
    offsets, payloads, fresh, timed = workload.schedule(args.seed,
                                                        args.seconds)
    inputs = digest_of(
        [json.dumps(p, sort_keys=True) for p in payloads] + [repr(offsets)]
    )
    log(f"inputs {inputs} {len(payloads)} jobs, {sum(timed)} timed, "
        f"{sum(fresh)} fresh")
    before = stats(server.port)
    subs = open_loop(server.port, offsets, payloads, fresh, timed)
    after = stats(server.port)
    peak_rss = server.peak_rss_mb()

    done = [s for s in subs if s.error is None and s.state == "done"]
    failed = len(subs) - len(done)
    for sub in subs:
        if sub not in done:
            log(f"serve job {sub.job_id} failed: {sub.error or sub.state}")
    window_subs = [s for s in subs if s.timed]
    window_done = [s for s in done if s.timed]
    if not window_done:
        raise RuntimeError("no serve job of the timed window completed")
    window = max(s.observed for s in window_done) - window_subs[0].due
    latencies = [s.observed - s.due for s in window_done]

    # Everything below runs after the timed window.  Delivered circuits
    # are the results of the window's distinct fresh jobs.
    results = {
        s.job_id: (s, fetch_result(server.port, s.job_id))
        for s in window_done if s.fresh
    }
    failed += _regenerate(workload, args.seed, store, results)
    scpr, pcs = quality_means([
        _final_graph(record)
        for _, served in results.values() for record in served["records"]
    ])
    end_to_end = {
        "circuits_per_s": metric(
            sum(int(s.payload["count"]) for s in window_done) / window,
            "circuits/s",
        ),
        "job_latency_p50_s": metric(quantile(latencies, 0.50), "s"),
        "job_latency_p95_s": metric(quantile(latencies, 0.95), "s"),
        "scpr_mean": metric(scpr, "ratio"),
        "pcs_mean": metric(pcs, "area/node"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    warmup_dispatched = sum(1 for s in subs
                            if not s.timed and not s.deduplicated)
    return (len(subs), failed, end_to_end,
            _layers(server.port, window_subs, window_done, results,
                    before, after, warmup_dispatched))


def _final_graph(record: dict):
    from repro.ir import CircuitGraph

    graph = record["g_opt"] if record["g_opt"] is not None else record["g_val"]
    return CircuitGraph.from_dict(graph)


def _regenerate(workload, seed: int, store: Path, results: dict) -> int:
    """Regenerate a seeded sample of completed jobs in-process from the
    server's store and count those whose circuits differ bit for bit."""
    import random

    from repro.api import GenerateRequest, Session, resolve_preset

    session = Session(config=resolve_preset(workload.preset),
                      cache_dir=str(store)).fit()
    sample = random.Random(f"regenerate/{seed}").sample(
        sorted(results), min(workload.regenerate, len(results))
    )
    mismatches = 0
    for job_id in sample:
        sub, served = results[job_id]
        local = session.generate(GenerateRequest.from_dict(sub.payload))
        mine = [graph_digest(g.to_dict()) for g in local.graphs]
        theirs = [graph_digest(_final_graph(r).to_dict())
                  for r in served["records"]]
        if mine != theirs:
            log(f"serve job {job_id}: served circuits differ from "
                "in-process generation")
            mismatches += 1
    return mismatches


def _layers(port, subs, done, results, before, after,
            warmup_dispatched) -> dict:
    """Per-layer numbers of the serve path over the timed window: client
    timings, job record timestamps, ``/stats`` deltas (less the warm-up
    jobs) and the workers' per-record phase timings."""
    dispatched_subs = [s for s in done if s.fresh and not s.deduplicated]
    jobs = [_call(port, "GET", f"/jobs/{s.job_id}")[1]
            for s in dispatched_subs]
    queue_wait = [j["started_at"] - j["submitted_at"] for j in jobs]
    worker_run = [j["finished_at"] - j["started_at"] for j in jobs]
    notify = [s.observed_wall - j["finished_at"]
              for s, j in zip(dispatched_subs, jobs)]
    accept = [s.accepted - s.sent for s in dispatched_subs]
    dedup = [s.accepted - s.sent for s in subs if s.deduplicated]
    dispatched = (after["dispatched"] - before["dispatched"]
                  - warmup_dispatched)
    dedup_hits = after["dedup_hits"] - before["dedup_hits"]
    phases: dict[str, list[float]] = {"sample": [], "refine": [],
                                      "optimize": []}
    for _, served in results.values():
        for record in served["records"]:
            for phase, seconds in record["timings"].items():
                phases.setdefault(phase, []).append(seconds)
    sample = phases["sample"]
    return {
        "serve.accept_ms": metric(1000.0 * quantile(accept, 0.5), "ms"),
        "serve.dedup_hit_ms": metric(
            1000.0 * quantile(dedup, 0.5) if dedup else 0.0, "ms"
        ),
        "serve.queue_wait_p50_s": metric(quantile(queue_wait, 0.5), "s"),
        "serve.queue_wait_p95_s": metric(quantile(queue_wait, 0.95), "s"),
        "serve.worker_run_p50_s": metric(quantile(worker_run, 0.5), "s"),
        "serve.notify_ms": metric(1000.0 * quantile(notify, 0.5), "ms"),
        "serve.dedup_ratio": metric(
            dedup_hits / max(dedup_hits + dispatched, 1), "ratio"
        ),
        "serve.dispatched": metric(dispatched, "count"),
        "loadgen.lag_max_s": metric(max(s.sent - s.due for s in subs), "s"),
        # Worker-side phase times, from the per-record timings the
        # workers return with each result.
        "diffusion.sample_s": metric(sum(sample), "s"),
        "diffusion.ms_per_graph": metric(
            1000.0 * sum(sample) / max(len(sample), 1), "ms"
        ),
        "postprocess.refine_s": metric(sum(phases["refine"]), "s"),
        "mcts.optimize_s": metric(sum(phases["optimize"]), "s"),
    }
