"""Workload definitions: scenario configs and seeded input schedules.

Every workload turns ``--seed`` into its inputs here, and the program
only ever sees the resulting requests.  The in-process workloads cycle
through a fixed, digest-pinned list of requests in seeded order;
``serve-mixed`` draws a seeded open-loop arrival schedule whose fresh
requests come from a pool permuted by the seed.  ``sample-only`` is not
in BENCHMARK.json (README.md says why) but still runs on request.
README.md gives the reasons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Clock period every workload synthesizes its delivered circuits at
#: (``MCTSConfig.clock_period`` of all presets used here).
CLOCK_PERIOD = 2.0


@dataclass(frozen=True)
class InProcess:
    """A workload that runs inside one fresh benchmark worker process."""

    name: str
    preset: str
    #: ``MCTSConfig`` overrides on top of the preset.
    mcts: dict
    #: Session method the requests go through.
    method: str
    #: Fields shared by every request of the workload.
    request: dict
    #: Request seeds of the requests one pass runs.
    seeds: tuple[int, ...]

    @property
    def pinned(self) -> bool:
        """Exact-tier output is byte-stable, so it is checked against
        pinned digests; the fast tier may drift within its tolerance."""
        return self.request.get("tier", "exact") == "exact"

    def config(self):
        from repro.api import resolve_preset

        return resolve_preset(self.preset, mcts=self.mcts or None)

    def requests(self, seed: int) -> list[dict]:
        """This workload's requests in the order ``seed`` gives them."""
        order = list(self.seeds)
        random.Random(f"{self.name}/{seed}").shuffle(order)
        return [dict(self.request, seed=s) for s in order]


PAPER_SEARCH = InProcess(
    name="paper-search",
    preset="smoke",
    mcts={"num_simulations": 500, "max_depth": 10, "branching": 8},
    method="generate",
    request={"count": 1, "nodes": [48, 64], "optimize": True},
    seeds=(3, 9, 13, 18),
)

DATASET_FAST = InProcess(
    name="dataset-fast",
    preset="fast",
    mcts={},
    method="generate_batch",
    request={"count": 8, "nodes": [40, 120], "optimize": True,
             "workers": 2, "tier": "fast"},
    seeds=(0, 1),
)

SAMPLE_ONLY = InProcess(
    name="sample-only",
    preset="paper",
    mcts={},
    method="generate",
    request={"count": 48, "nodes": [40, 160], "optimize": False},
    seeds=(0, 1, 2),
)

IN_PROCESS = {w.name: w for w in (PAPER_SEARCH, DATASET_FAST, SAMPLE_ONLY)}


@dataclass(frozen=True)
class Serve:
    """Open-loop traffic against a ``repro serve`` process."""

    name: str = "serve-mixed"
    preset: str = "smoke"
    workers: int = 2
    #: Poisson arrivals per second: about a quarter of the two-worker
    #: capacity, so that queueing does not amplify a slow stretch of
    #: the host into the latency figures.
    rate: float = 8.0
    #: Share of arrivals that repeat an earlier request of the run.
    repeat_share: float = 0.25
    #: The fresh requests of a window are request seeds ``pool_base +
    #: k`` for k below the fresh count, in seeded order: every seed
    #: sends the same circuits, so the job mix (and the quality means)
    #: of two runs agree.
    pool_base: int = 10_000
    request: tuple = (("count", 1), ("nodes", (40, 64)), ("optimize", True))
    #: Untimed traffic before the window, at the same rate, so every
    #: worker process has run jobs before the first timed arrival.
    warmup_seconds: float = 2.0
    #: Warm-up requests use seeds ``warmup_base + k``, outside the pool.
    warmup_base: int = 20_000
    #: Completed fresh jobs regenerated in-process per run.
    regenerate: int = 6
    #: The setup probe's request (never part of the traffic).
    probe_seed: int = 999_999

    def payload(self, request_seed: int) -> dict:
        return dict(self.request, seed=request_seed)

    def schedule(self, seed: int, seconds: float):
        """``(send_offsets, payloads, fresh_flags, timed_flags)`` of one
        run.

        ``warmup_seconds`` of fresh, untimed arrivals come first; the
        timed window follows.  The window's arrival count is fixed at
        ``rate * seconds`` and its offsets are uniform order statistics
        over the window -- a Poisson process conditioned on its count,
        so bursts stay but the offered load is the same in every run.
        Exactly ``repeat_share`` of the window's arrivals (never the
        first four) repeat an earlier fresh request of the window.
        """
        rng = random.Random(f"{self.name}/{seed}")
        warmup = int(round(self.rate * self.warmup_seconds))
        offsets = [(k + 0.5) / self.rate for k in range(warmup)]
        payloads = [self.payload(self.warmup_base + k)
                    for k in range(warmup)]
        fresh = [True] * warmup
        timed = [False] * warmup
        total = max(int(round(self.rate * seconds)), 8)
        offsets += sorted(self.warmup_seconds + rng.uniform(0.0, seconds)
                          for _ in range(total))
        repeats = set(rng.sample(range(4, total),
                                 int(total * self.repeat_share)))
        pool = [self.pool_base + k for k in range(total - len(repeats))]
        rng.shuffle(pool)
        sent_fresh: list[dict] = []
        for index in range(total):
            if index in repeats:
                payloads.append(rng.choice(sent_fresh))
                fresh.append(False)
            else:
                payload = self.payload(pool.pop())
                sent_fresh.append(payload)
                payloads.append(payload)
                fresh.append(True)
            timed.append(True)
        return offsets, payloads, fresh, timed


SERVE_MIXED = Serve()

WORKLOADS = (*IN_PROCESS, SERVE_MIXED.name)
