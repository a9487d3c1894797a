"""End-to-end benchmark of the reproduction, with a per-layer ledger.

Usage::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Workloads (each runs in a fresh process against a private store):

* ``paper-cold``    -- regenerate the 12 artefacts into an empty store;
* ``paper-warm``    -- regenerate them from a full store, memos cleared;
* ``design-sweep``  -- a cold 4-seed sweep of every kernel x paper ISA x
  way, then a lanes 1/2/4/8 ablation re-timing its traces;
* ``serve-explore`` -- a seeded explorer script against
  ``python -m repro serve --workers 2`` over two keep-alive connections.

``--trace 0`` prints the end-to-end metrics (host time; simulated
statistics are checked, not scored).  Shared machines drift in speed by
tens of percent over tens of seconds, so every timed segment is
calibrated: scaled by a fixed reference task timed right before and
after it (``common.reference_seconds``).  Uncalibrated pass times are
printed alongside.  A request is an HTTP request on serve-explore and
one pass of the job elsewhere.  ``--trace 1`` runs traced and
untraced passes alternately and prints the per-layer ledger: each
layer's self time normalised to ``wall_s`` = 100, the per-layer
metrics, and the end-to-end metric each should move on the workload.
The last line of output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import common
from tracer import layer_table

HERE = Path(__file__).resolve().parent

WORKLOADS = ("paper-cold", "paper-warm", "design-sweep", "serve-explore")
SETUP_PROBES = 5
#: Wall-clock allowed for set-up work outside the measured window.
SLACK_SECONDS = 150

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "req/s"),
)

PER_LAYER = (
    [("emu.calls", "count"), ("emu.batch_calls", "count"), ("emu.self_s", "s"),
     ("emu.traces", "count"), ("emu.batch_fallbacks", "count")]
    + [("trace.self_s", "s"), ("trace.columns_s", "s"), ("trace.encode_s", "s"),
       ("trace.encode_calls", "count"), ("trace.decode_s", "s"),
       ("trace.decode_calls", "count"),
       ("trace.decodes_per_trace", "ratio")]
    + [("store.self_s", "s"), ("store.read_calls", "count"), ("store.read_s", "s"),
       ("store.hit_ratio", "ratio"), ("store.write_calls", "count"),
       ("store.write_s", "s"), ("store.bytes", "B")]
    + [("sweep.self_s", "s"), ("sweep.key_calls", "count"), ("sweep.key_s", "s"),
       ("sweep.points", "count"), ("sweep.simulated", "count"),
       ("sweep.emulated", "count")]
    + [("timing.self_s", "s"), ("timing.stack_calls", "count"),
       ("timing.batch_calls", "count"), ("timing.batch_points", "count"),
       ("timing.batch_s", "s"), ("timing.scalar_calls", "count"),
       ("timing.scalar_s", "s"), ("timing.scalar_fallback_ratio", "ratio")]
    + [("apps.self_s", "s"), ("apps.codec_s", "s"), ("apps.scalar_trace_calls", "count"),
       ("apps.scalar_trace_s", "s"), ("apps.scalar_ipc_s", "s"), ("apps.compose_s", "s")]
    + [("experiments.self_s", "s")]
    + [(f"experiments.{name}_s", "s") for name in common.ARTIFACTS]
    + [("serve.point_p50_ms", "ms"), ("serve.point_p99_ms", "ms"),
       ("serve.retime_p50_ms", "ms"), ("serve.retime_p99_ms", "ms"),
       ("serve.artifact_p50_ms", "ms"), ("serve.payload_cache_hit_ratio", "ratio"),
       ("serve.trace_cache_hit_ratio", "ratio"), ("serve.coalesced", "count"),
       ("serve.retime_dispatches", "count")]
    + [("unaccounted_s", "s"), ("attributed_frac", "ratio"),
       ("trace_overhead_frac", "ratio")]
)

#: Which end-to-end metric each layer's metrics should move, per workload
#: ("flat": a change to the layer must show no change there).  Keys are
#: metric-name prefixes; the longest matching prefix wins.
MOVES: Dict[str, Dict[str, str]] = {
    "emu.": {"paper-cold": "wall_s (single-seed emulation)",
             "design-sweep": "wall_s (batched emulation)",
             "paper-warm": "flat", "serve-explore": "flat"},
    "trace.": {"design-sweep": "wall_s (every written trace is re-read)",
               "serve-explore": "req_p99_ms (through retime)"},
    "store.": {"design-sweep": "wall_s (writes)", "paper-warm": "wall_s (reads)",
               "serve-explore": "req_p50_ms", "paper-cold": "wall_s"},
    "sweep.": {"paper-warm": "wall_s (key hashing)", "paper-cold": "flat",
               "design-sweep": "wall_s"},
    "timing.scalar": {"paper-cold": "wall_s", "design-sweep": "flat",
                      "paper-warm": "flat", "serve-explore": "flat"},
    "timing.": {"paper-cold": "wall_s", "design-sweep": "wall_s",
                "serve-explore": "req_p99_ms", "paper-warm": "flat"},
    "timing.batch": {"design-sweep": "wall_s", "serve-explore": "req_p99_ms",
                     "paper-warm": "flat"},
    "apps.scalar": {"paper-cold": "wall_s", "paper-warm": "flat",
                    "design-sweep": "flat", "serve-explore": "flat"},
    "apps.": {"paper-cold": "wall_s", "paper-warm": "wall_s (composition)"},
    "experiments.": {"paper-cold": "wall_s (its share)",
                     "paper-warm": "wall_s (its share)",
                     "serve-explore": "req_p99_ms (artefact replies)"},
    "serve.": {"serve-explore": "req_p50_ms / req_p99_ms / req_per_s"},
    "unaccounted_s": {w: "guards the ledger" for w in WORKLOADS},
    "attributed_frac": {w: "guards the ledger (>= 0.95 wanted)" for w in WORKLOADS},
    "trace_overhead_frac": {w: "guards the ledger" for w in WORKLOADS},
}

#: Share of wall_s the layers' self time must cover for the ledger to count
#: as explaining where the time went.
ATTRIBUTION_TARGET = 0.95


def moves(metric: str, workload: str) -> str:
    best = max((p for p in MOVES if metric.startswith(p)), key=len, default=None)
    return MOVES[best].get(workload, "-") if best else "-"


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


def call(cmd: List[str], env: Dict[str, str], timeout: float) -> None:
    """Run ``cmd`` in its own process group; kill the whole group on exit.

    The group kill also reaps anything the child started and left behind
    (e.g. a server whose client died), so the benchmark leaves no process.
    """
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"timed out after {timeout:.0f} s: {' '.join(cmd[1:3])}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise SystemExit(f"exit code {code}: {' '.join(cmd[1:3])}")


def probe_setup(env: Dict[str, str]) -> float:
    """Seconds from process spawn until the program is imported and ready.

    Calibrated by the reference task timed right before and after.
    """
    ref_before = common.reference_seconds()
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "probe"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line != "ready" or proc.returncode != 0:
        raise SystemExit(f"set-up probe failed: {line!r}")
    return common.calibrated(elapsed, ref_before, common.reference_seconds())


def ensure_fixture(env: Dict[str, str], deadline: float) -> Path:
    """The full paper store for this source tree, built once per checkout."""
    base = common.WORK / "fixtures"
    base.mkdir(parents=True, exist_ok=True)
    dest = base / common.source_digest()
    if (dest / "complete").is_file():
        return dest
    for stale in base.iterdir():
        shutil.rmtree(stale, ignore_errors=True)
    staging = Path(tempfile.mkdtemp(prefix="staging-", dir=base))
    call([sys.executable, str(HERE / "worker.py"), "fixture", str(staging)],
         env, deadline - time.monotonic())
    (staging / "complete").touch()
    staging.rename(dest)
    return dest


# ---------------------------------------------------------------------------
# One workload.
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    deadline = time.monotonic() + seconds + SLACK_SECONDS
    common.WORK.mkdir(parents=True, exist_ok=True)
    env = common.child_env()
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)}", flush=True)
    call([sys.executable, str(HERE / "worker.py"), "prewarm"], env, deadline - time.monotonic())
    fixture = None
    if workload in ("paper-warm", "serve-explore"):
        fixture = ensure_fixture(env, deadline)
    setups = []
    if workload != "serve-explore" and not trace:
        setups = [probe_setup(env) for _ in range(SETUP_PROBES)]
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=common.WORK))
    try:
        result_file = run_dir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "run",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--run-dir", str(run_dir), "--result", str(result_file)]
        if fixture is not None:
            cmd += ["--fixture", str(fixture)]
        call(cmd, env, deadline - time.monotonic())
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["setup_samples"] = setups or result.get("setup_samples", [])
    return result


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics from one run's calibrated samples.

    A request is an HTTP request on serve-explore and one pass of the job
    on the other workloads.  ``req_p99_ms`` is the 99th percentile when
    at least ten samples lie beyond it, else the highest percentile that
    has ten beyond it, else (under twenty samples) the median.
    """
    walls = result["walls"]
    wall = common.median(walls)
    requests = result.get("requests") or walls
    tail = common.tail(requests)
    return {
        "wall_s": wall,
        "setup_s": common.median(result["setup_samples"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "sim_minstr_per_s": result["instructions_per_pass"] / wall / 1e6,
        "req_p50_ms": 1000.0 * common.percentile(requests, 50),
        "req_p99_ms": 1000.0 * (tail["value"] if tail else common.median(requests)),
        "req_per_s": result.get("requests_per_pass", 1) / wall,
    }


def per_layer(result: Dict[str, Any]) -> Dict[str, float]:
    ledger = dict(result["ledger"])
    traced = common.median(result["traced_walls"])
    ledger["trace_overhead_frac"] = traced / common.median(result["walls"]) - 1.0
    ledger["attributed_frac"] = 1.0 - ledger["unaccounted_s"] / ledger["wall_s"]
    return {name: float(ledger.get(name, 0.0)) for name, _ in PER_LAYER}


def report(workload: str, result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Print the human-readable summary; return the result object."""
    failed = len(result["failures"])
    attempted = max(1, result["attempted"])
    for name, value in sorted(result.get("info", {}).items()):
        print(f"  {name}: {value}")
    if not trace:
        metrics = end_to_end(result)
        units = dict(END_TO_END)
        for name, value in metrics.items():
            print(f"  {name:<18} {value:12.4f} {units[name]}")
        print(f"  wall_s per pass:   {common.describe(result['walls'], 's')}")
        print(f"  uncalibrated:      {common.describe(result['raw_walls'], 's')}")
        if result.get("requests"):
            print(f"  request latency:   {common.describe(result['requests'], 's')}")
        print(f"  setup_s samples:   {common.describe(result['setup_samples'], 's')}")
        units_of = units
    else:
        metrics = per_layer(result)
        units_of = dict(PER_LAYER)
        ledger = dict(result["ledger"])
        print(f"  layer self time, one traced pass (mean of {len(result['traced_walls'])}),"
              f" wall_s = 100 (spans: {common.spans_file(workload)}):")
        print(layer_table(ledger))
        print(f"  {'metric':<32} {'value':>12} {'unit':<6} should move")
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {metrics[name]:12.4f} {unit:<6} {moves(name, workload)}")
        covered = metrics["attributed_frac"]
        verdict = "ok" if covered >= ATTRIBUTION_TARGET else "FLAGGED"
        if workload == "serve-explore":
            # Server threads run concurrently: their spans overlap in
            # wall time, so self times can sum past wall_s.
            verdict = "not gated (concurrent server threads overlap)"
        print(f"  attribution: layer self time covers {100 * covered:.1f}% of wall_s "
              f"(target {100 * ATTRIBUTION_TARGET:.0f}%): {verdict}")
    print(f"  fail_frac          {failed / attempted:12.4f} ratio "
          f"({failed} of {result['attempted']} operations failed)")
    for failure in result["failures"][:20]:
        print(f"  FAIL: {failure}")
    return {
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (common.SRC / "repro" / "__init__.py", common.GOLDENS):
        if not needed.exists():
            print(f"cannot benchmark: {needed} is missing", file=sys.stderr)
            return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        outcomes[name] = report(name, result, bool(args.trace))
    if len(outcomes) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {
                f"{w}.{m}": v for w, o in outcomes.items() for m, v in o["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
