"""Shared helpers of the benchmark: checkout layout, digests, quantiles.

The benchmark runs from the root of a source checkout and imports the
program from ``<root>/src``; it never falls back to an installed copy,
so a directory without the sources fails fast instead of measuring
something else.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for per-run artifact stores and queues (gitignored).
TMP_ROOT = ROOT / ".perfbench_tmp"
#: Where traced runs write their span dumps (gitignored).
OUT_ROOT = ROOT / ".perfbench_out"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (sources missing)."""


def require_sources() -> None:
    """Put ``<root>/src`` first on ``sys.path``; raise if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(
            f"no program sources at {SRC}/repro: run the benchmark from the "
            "root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(cache_dir: Path | None = None) -> dict[str, str]:
    """Environment for a child process: the checkout's sources only,
    unbuffered output, and a private artifact store."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(TMP_ROOT)
    env.pop("REPRO_SANITIZE", None)
    env.pop("REPRO_LOG", None)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def fresh_dir(prefix: str) -> Path:
    """A new empty directory under the checkout's scratch root."""
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def graph_digest(graph_dict: dict) -> str:
    """SHA-256 of a graph's canonical JSON (``CircuitGraph.to_dict``)."""
    blob = json.dumps(graph_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def digest_of(items: list[str]) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    if q <= 0.0:
        return float(min(values))
    if q >= 1.0:
        return float(max(values))
    return float(cuts[int(round(q * 100)) - 1])


def quality_means(graphs) -> tuple[float, float]:
    """(mean SCPR, mean PCS) of ``graphs``, each synthesized at the
    workloads' clock period with the program's own flow."""
    from repro.synth.flow import synthesize

    from workloads import CLOCK_PERIOD

    results = [synthesize(g, clock_period=CLOCK_PERIOD) for g in graphs]
    if not results:
        raise ValueError("no delivered circuit to score")
    return (
        sum(r.scpr for r in results) / len(results),
        sum(r.pcs for r in results) / len(results),
    )


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def log(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout carries results."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
