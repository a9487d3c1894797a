"""Shared helpers: checkout paths, environment hygiene, digests, statistics."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "goldens"
#: Scratch space for pre-warmed caches, fixtures and per-run stores.
WORK = ROOT / ".perfbench-work"
KERNEL_CACHE = WORK / "timing-kernel"

#: Variables that switch the program onto other code paths or stores.
#: Scrubbed from every child environment and asserted unset in workers.
SCRUBBED = (
    "REPRO_TIMING_REFERENCE",
    "REPRO_TIMING_NO_KERNEL",
    "REPRO_EMU_REFERENCE",
    "REPRO_JOBS",
    "REPRO_STORE",
    "REPRO_FAULT_SHARD",
)

#: All artefacts, in ``ARTIFACT_DATA`` order; the first ten are pinned
#: byte-for-byte by ``tests/goldens/``.
PINNED = (
    "table1", "table2", "table3", "table4", "fig4", "fig5", "fig6", "fig7",
    "fig4v", "fig5v",
)
ARTIFACTS = (
    "table1", "table2", "table3", "table4", "fig4", "fig5", "fig6", "fig7",
    "fig4x", "fig5x", "fig4v", "fig5v",
)

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


def child_env() -> Dict[str, str]:
    """The scrubbed environment every benchmark child process runs in."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_TIMING_KERNEL_CACHE"] = str(KERNEL_CACHE)
    return env


def assert_clean_env() -> None:
    """Refuse to measure with any path-switching variable set."""
    leaked = [name for name in SCRUBBED if name in os.environ]
    if leaked:
        raise SystemExit(f"environment not scrubbed: {', '.join(leaked)} set")


def golden(name: str) -> str:
    return (GOLDENS / f"{name}.json").read_text()


def source_digest() -> str:
    """Digest of every program source file (keys cached fixtures)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def digest_of(items: Iterable[str]) -> str:
    """Order-independent digest of canonical JSON strings."""
    digest = hashlib.sha256()
    for item in sorted(items):
        digest.update(item.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def store_timing_digest(store_root: Path) -> Dict[str, Any]:
    """Digest and instruction total over a store's simulated results.

    Covers every ``kernel-timing`` payload (the persisted ``SimResult``
    of each simulated point) plus the count of synthetic scalar-IPC
    simulations, each of which timed ``SCALAR_TRACE_LEN`` instructions.
    Record keys are left out: they embed the code digest, which any edit
    changes, while the payloads change only when a result does.
    """
    from repro.apps.appmodel import SCALAR_TRACE_LEN
    from repro.machines.spec import canonical_json
    from repro.sweep.store import ResultStore

    store = ResultStore(store_root)
    payloads: List[str] = []
    instructions = 0
    scalar_ipc = 0
    for key in store.iter_keys():
        record = store.peek(key)
        if record is None:
            continue
        if record.get("kind") == "kernel-timing":
            payloads.append(canonical_json(record["payload"]))
            instructions += int(record["payload"]["result"]["instructions"])
        elif record.get("kind") == "scalar-ipc":
            payloads.append(canonical_json(record["payload"]))
            scalar_ipc += 1
    return {
        "digest": digest_of(payloads),
        "points": len(payloads) - scalar_ipc,
        "instructions": instructions + scalar_ipc * SCALAR_TRACE_LEN,
    }


# ---------------------------------------------------------------------------
# Machine-speed calibration.
# ---------------------------------------------------------------------------

#: Seconds the reference task takes on the machine the benchmark was tuned
#: on; the scale every calibrated time is reported in.
REFERENCE_SECONDS = 0.007


def _reference_task() -> int:
    """A fixed mix of the work the program does: Python arithmetic and
    object churn, JSON, hashing, small and large NumPy operations."""
    import hashlib as _hashlib

    import numpy as np

    total = 0
    for i in range(15000):
        total += (i * i) % 7
    rows = [{"k": i, "v": [i, i + 1, str(i)]} for i in range(2000)]
    text = json.dumps(rows)
    total += len(json.loads(text))
    total += len(_hashlib.sha256(text.encode()).hexdigest())
    a = np.arange(100000, dtype=np.int64)
    total += int(np.cumsum((a * 3 + 1) % 97)[-1])
    for i in range(300):
        np.add(a[:64], i)
    return total


def reference_seconds() -> float:
    """Current host seconds of the reference task (median of three).

    Shared machines drift in speed by tens of percent over tens of
    seconds.  Timing this fixed task right before and after each timed
    segment and scaling the segment by ``REFERENCE_SECONDS / reference``
    reports it in the speed of one reference machine, which removes most
    of that drift; raw host seconds are reported alongside.
    """
    import time

    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_task()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def calibrated(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REFERENCE_SECONDS / ((ref_before + ref_after) / 2.0)


def spans_file(workload: str) -> Path:
    """Where a traced run leaves its last traced pass's spans."""
    return WORK / f"spans-{workload}.json"


def write_spans(path: Path, threads, wall: float) -> None:
    """Spans of one traced pass, per thread: [name, start, end, parent, info]."""
    path.write_text(json.dumps({"wall_s": wall, "threads": threads}))


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 < q < 100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (pos - low))


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile (up to p99) with at least ten samples beyond it."""
    n = len(values)
    q = min(99, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 0
    if q < 50:
        return None
    return {"q": q, "value": percentile(values, q)}


def describe(values: Sequence[float], unit: str) -> str:
    """Median, tail percentile and sample count, as one line."""
    text = f"median {median(values):.4f} {unit}, n={len(values)}"
    t = tail(values)
    if t is None:
        return text + ", no percentile has ten samples beyond it"
    return text + f", p{t['q']} {t['value']:.4f} {unit}"
