"""Per-layer attribution by wrapping the program's public entry points.

The program is not edited: :class:`Tracer` replaces functions and
methods at the names their callers look up (``repro.api.engine``
imports ``sample_batch`` / ``refine_to_valid`` / ``optimize_registers``
into its own namespace, so those are the names wrapped) and restores
them on :meth:`Tracer.uninstall`.  Each call becomes a span -- name,
parent, start, end, and the calling thread's CPU time -- kept in memory
per thread and written out at the end.  A span's self time is its
duration minus the time its direct children cover; children run on the
same thread and never overlap, so that is the sum of their durations.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from pathlib import Path

#: name -> (module, owner attribute or None, attribute).  Methods are
#: patched on their class, so every instance (and ``CachedReward``'s
#: inner call) goes through the wrapper.
TARGETS = {
    "diffusion.train": ("repro.api.engine", None, "train_diffusion"),
    "diffusion.train_disc": ("repro.api.engine", None, "train_discriminator"),
    "diffusion.sample": ("repro.api.engine", None, "sample_batch"),
    "postprocess.refine": ("repro.api.engine", None, "refine_to_valid"),
    "mcts.optimize": ("repro.api.engine", None, "optimize_registers"),
    "mcts.cone": ("repro.mcts.tree", "MCTSOptimizer", "optimize_cone"),
    "mcts.apply_swap": ("repro.mcts.tree", None, "apply_swap"),
    "incr.reward": ("repro.incr.reward", "IncrementalReward", "__call__"),
    "incr.rebase": ("repro.incr.reward", "IncrementalReward", "rebase"),
    "incr.analyze": ("repro.incr.analysis", "RedundancyAnalyzer", "analyze"),
    "incr.oracle": ("repro.incr.reward", "DeltaOracle", "__call__"),
    # The search's synthesis runs: the incremental reward's calibration
    # at each rebase.  The benchmark's own quality synthesis calls
    # repro.synth.flow directly and is not seen.
    "synth.synthesize": ("repro.incr.reward", None, "synthesize"),
}

_NAME, _PARENT, _START, _END, _CPU = range(5)


class Tracer:
    def __init__(self) -> None:
        self.names = list(TARGETS)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self._threads: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: ``OptimizationReport`` of every traced search, in call order
        #: per thread (only summed, so order does not matter).
        self.reports: list = []
        #: (items, fill ratio) of every traced ``sample_batch`` call.
        self.fills: list[tuple[int, float]] = []

    # -- wrapping ---------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])  # (spans, open-span stack)
            self._local.state = state
            with self._lock:
                self._threads.append(state[0])
        return state

    def _wrap(self, name: str, original):
        name_id = self._ids[name]
        tracer = self
        keep_report = name == "mcts.optimize"
        keep_fill = name == "diffusion.sample"

        def traced(*args, **kwargs):
            spans, stack = tracer._state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                spans[index] = (name_id, parent, start, end, cpu)
            if keep_report:
                tracer.reports.append(result)
            elif keep_fill:
                tracer.fills.append((len(args[1]), _fill_gauge()))
            return result

        return traced

    def install(self) -> "Tracer":
        import importlib

        for name, (module_name, owner_name, attr) in TARGETS.items():
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(
                module, owner_name
            )
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        with self._lock:
            for spans in self._threads:
                spans.clear()
        self.reports.clear()
        self.fills.clear()

    # -- reading ----------------------------------------------------------
    def spans(self):
        """Every finished span as ``(thread, index, span tuple)``."""
        for thread, spans in enumerate(self._threads):
            for index, span in enumerate(spans):
                if span is not None:
                    yield thread, index, span

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        child_time: dict[tuple[int, int], float] = {}
        for thread, _, span in self.spans():
            if span[_PARENT] >= 0:
                key = (thread, span[_PARENT])
                child_time[key] = (
                    child_time.get(key, 0.0) + span[_END] - span[_START]
                )
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for thread, index, span in self.spans():
            entry = out[self.names[span[_NAME]]]
            duration = span[_END] - span[_START]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get((thread, index), 0.0)
        return out

    def top_level(self):
        """Spans with no traced caller, on any thread."""
        return [span for _, _, span in self.spans() if span[_PARENT] < 0]

    def covered(self) -> float:
        """Wall seconds during which at least one top-level span ran."""
        intervals = sorted((s[_START], s[_END]) for s in self.top_level())
        total, current_start, current_end = 0.0, None, None
        for start, end in intervals:
            if current_end is None or start > current_end:
                if current_end is not None:
                    total += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            total += current_end - current_start
        return total

    def wait_seconds(self) -> float:
        """Sum over top-level spans of wall time minus thread CPU time:
        time a layer call spent not running (the interpreter lock, I/O,
        the scheduler)."""
        return sum(s[_END] - s[_START] - s[_CPU] for s in self.top_level())

    def dump(self, path: Path) -> None:
        """Write every span as gzipped JSON (one list per thread)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "fields": ["name", "parent", "start", "end", "thread_cpu"],
            "threads": [
                [list(span) for span in spans if span is not None]
                for spans in self._threads
            ],
        }
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle)


def _fill_gauge() -> float:
    from repro.obs import registry

    return registry().value("diffusion_batch_fill_ratio")
