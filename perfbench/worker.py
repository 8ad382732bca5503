"""One fresh benchmark process for an in-process workload.

Started by ``run.py`` with an empty artifact store.  It imports the
program, fits the workload's session (training included), prints
``READY`` -- the parent stops its set-up clock there -- and, unless
``--setup-only``, runs the workload and prints one JSON result line.
With ``--trace 0`` it warms up on one request and then cycles through
the workload's requests for ``--seconds``; with ``--trace 1`` it makes
one fixed pass untraced and the same pass traced.

    python3 perfbench/worker.py --workload paper-search --seed 1 \
        --seconds 40 --trace 0 --store <empty dir>
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT_ROOT,
    digest_of,
    graph_digest,
    log,
    metric,
    quality_means,
    quantile,
    require_sources,
)
from workloads import IN_PROCESS  # noqa: E402

PINS = Path(__file__).resolve().parent / "pins.json"


def _run_one(method, workload, payload):
    """One request -> (latency, records or None, failed circuits).

    An exception (``BatchItemError`` included) fails every circuit of
    the request and the run goes on.
    """
    from repro.api import GenerateRequest

    request = GenerateRequest.from_dict(payload)
    began = time.perf_counter()
    try:
        records = method(request).records
        failed = 0
    except Exception as exc:  # noqa: BLE001 -- counted, not fatal
        log(f"{workload.name} request seed {request.seed} failed: "
            f"{type(exc).__name__}: {exc}")
        records, failed = None, request.count
    return time.perf_counter() - began, records, failed


def _one_pass(session, workload, requests):
    """Every request once: ``(wall, [(payload, records)], failed)``."""
    method = getattr(session, workload.method)
    delivered, failed = [], 0
    started = time.perf_counter()
    for payload in requests:
        _, records, lost = _run_one(method, workload, payload)
        delivered.append((payload, records))
        failed += lost
    return time.perf_counter() - started, delivered, failed


def _timed_window(session, workload, requests, seconds):
    """Warm up on the first request, then cycle through the requests
    until ``seconds`` have passed and each has run at least once.

    Returns ``([(payload, records)], {request seed: [latency, ...]},
    failed)``; the warm-up's records are checked but not timed.
    """
    method = getattr(session, workload.method)
    _, records, failed = _run_one(method, workload, requests[0])
    delivered = [(requests[0], records)]
    latencies: dict[int, list[float]] = {r["seed"]: [] for r in requests}
    started = time.perf_counter()
    index = 0
    while (time.perf_counter() - started < seconds
           or not all(latencies.values())):
        payload = requests[index % len(requests)]
        index += 1
        latency, records, lost = _run_one(method, workload, payload)
        latencies[payload["seed"]].append(latency)
        delivered.append((payload, records))
        failed += lost
    return delivered, latencies, failed


def _check(workload, records) -> tuple[int, list]:
    """Correctness of every delivered circuit; returns (failures,
    unique delivered graphs)."""
    pins = json.loads(PINS.read_text()).get(workload.name, {})
    failed = 0
    graphs: dict[str, object] = {}
    for payload, recs in records:
        if recs is None:
            continue
        for index, record in enumerate(recs):
            graph = record.graph
            digest = graph_digest(graph.to_dict())
            if workload.pinned:
                key = f"{payload['seed']}/{index}"
                if pins.get(key) != digest:
                    log(f"{workload.name} {key}: digest {digest[:12]} != "
                        f"pinned {str(pins.get(key))[:12]}")
                    failed += 1
                    continue
            else:
                from repro.lint import lint_graph

                errors = lint_graph(graph).errors
                if errors:
                    log(f"{workload.name} {graph.name}: lint errors "
                        f"{errors}")
                    failed += 1
                    continue
            graphs.setdefault(digest, graph)
    return failed, list(graphs.values())


def _end_to_end(requests, latencies, quality):
    """Time metrics from each request's median latency over the window,
    so a slow stretch of the host moves one sample, not the figure."""
    medians = {seed: statistics.median(times)
               for seed, times in latencies.items()}
    circuits = sum(int(r["count"]) for r in requests)
    scpr, pcs = quality
    return {
        "circuits_per_s": metric(circuits / sum(medians.values()),
                                 "circuits/s"),
        "job_latency_p50_s": metric(quantile(list(medians.values()), 0.50),
                                    "s"),
        "job_latency_p95_s": metric(quantile(list(medians.values()), 0.95),
                                    "s"),
        "scpr_mean": metric(scpr, "ratio"),
        "pcs_mean": metric(pcs, "area/node"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def _per_layer(tracer, wall, untraced_wall, train_s):
    totals = tracer.totals()

    def calls(name):
        return totals[name]["calls"]

    def total(name):
        return totals[name]["total_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    reports = tracer.reports
    sims = sum(r.total_simulations for r in reports)
    reward_calls = sum(r.reward_calls for r in reports)
    graphs_sampled = sum(items for items, _ in tracer.fills)
    analysis_hits = sum(r.analysis_delta_hits for r in reports)
    analysis_fallbacks = sum(r.analysis_fallbacks for r in reports)
    oracle_hits = sum(r.oracle_delta_hits for r in reports)
    oracle_fallbacks = sum(r.oracle_fallbacks for r in reports)
    return {
        "diffusion.train_s": metric(train_s, "s"),
        "diffusion.sample_s": metric(total("diffusion.sample"), "s"),
        "diffusion.ms_per_graph": metric(
            1000.0 * ratio(total("diffusion.sample"), graphs_sampled), "ms"
        ),
        "diffusion.batch_fill_ratio": metric(
            ratio(sum(n * f for n, f in tracer.fills), graphs_sampled),
            "ratio",
        ),
        "postprocess.refine_s": metric(total("postprocess.refine"), "s"),
        "mcts.optimize_s": metric(total("mcts.optimize"), "s"),
        "mcts.search_self_s": metric(totals["mcts.cone"]["self_s"], "s"),
        "mcts.cones_searched": metric(
            sum(len(r.cone_results) for r in reports), "count"
        ),
        "mcts.simulations": metric(sims, "count"),
        "mcts.ms_per_simulation": metric(
            1000.0 * ratio(total("mcts.cone"), sims), "ms"
        ),
        "mcts.apply_swap_s": metric(total("mcts.apply_swap"), "s"),
        "mcts.apply_swap_calls": metric(calls("mcts.apply_swap"), "count"),
        "mcts.reward_calls_per_simulation": metric(
            ratio(reward_calls, sims), "ratio"
        ),
        "mcts.reward_cache_hit_ratio": metric(
            ratio(sum(r.reward_cache_hits for r in reports), reward_calls),
            "ratio",
        ),
        "incr.reward_s": metric(totals["incr.reward"]["self_s"], "s"),
        "incr.reward_calls": metric(calls("incr.reward"), "count"),
        "incr.analyze_s": metric(total("incr.analyze"), "s"),
        "incr.analyze_calls": metric(calls("incr.analyze"), "count"),
        "incr.analysis_fallback_ratio": metric(
            ratio(analysis_fallbacks, analysis_hits + analysis_fallbacks),
            "ratio",
        ),
        "incr.rebase_s": metric(total("incr.rebase"), "s"),
        "incr.rebase_calls": metric(calls("incr.rebase"), "count"),
        "incr.oracle_s": metric(total("incr.oracle"), "s"),
        "incr.oracle_calls": metric(calls("incr.oracle"), "count"),
        "incr.oracle_fallback_ratio": metric(
            ratio(oracle_fallbacks, oracle_hits + oracle_fallbacks), "ratio"
        ),
        "synth.synthesize_s": metric(total("synth.synthesize"), "s"),
        "synth.synthesize_calls": metric(calls("synth.synthesize"), "count"),
        "api.fanout_wait_s": metric(tracer.wait_seconds(), "s"),
        "api.unattributed_s": metric(max(wall - tracer.covered(), 0.0), "s"),
        "trace.overhead_ratio": metric(wall / untraced_wall, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(IN_PROCESS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--store", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    require_sources()
    workload = IN_PROCESS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()

    from repro.api import Session

    session = Session(config=workload.config(), cache_dir=args.store)
    session.fit()
    train_s = 0.0
    if tracer is not None:
        totals = tracer.totals()
        train_s = (totals["diffusion.train"]["total_s"]
                   + totals["diffusion.train_disc"]["total_s"])
        tracer.uninstall()
        tracer.clear()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    requests = workload.requests(args.seed)
    inputs = digest_of([json.dumps(r, sort_keys=True) for r in requests])
    log(f"inputs {inputs} request seeds {[r['seed'] for r in requests]}")
    if tracer is not None:
        # Fixed work, so the per-layer counts repeat exactly: one pass
        # untraced (the overhead reference), then the same pass traced.
        untraced_wall, _, _ = _one_pass(session, workload, requests)
        tracer.install()
        wall, records, failed = _one_pass(session, workload, requests)
        tracer.uninstall()
    else:
        records, latencies, failed = _timed_window(
            session, workload, requests, args.seconds
        )
        log("latencies " + " ".join(
            f"{seed}:" + ",".join(f"{t:.3f}" for t in times)
            for seed, times in latencies.items()
        ))
    failed_check, graphs = _check(workload, records)
    attempted = sum(int(p["count"]) for p, _ in records)
    failed += failed_check
    if tracer is not None:
        metrics = _per_layer(tracer, wall, untraced_wall, train_s)
        tracer.dump(OUT_ROOT / f"spans-{workload.name}-{args.seed}.json.gz")
    else:
        metrics = _end_to_end(requests, latencies, quality_means(graphs))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
