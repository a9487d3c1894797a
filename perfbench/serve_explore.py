"""serve-explore: an interactive explorer against ``python -m repro serve``.

Every pass copies the fixture store (paper grids plus seed-0 traces of
every kernel), spawns a fresh ``python -m repro serve --workers 2`` on
it and waits for ``/healthz`` (one ``setup_s`` sample).  This process
then drives the seeded request script closed loop over two keep-alive
connections -- each connection sends its next request only when the
previous reply has arrived -- reads ``/metrics``, records the server's
peak RSS and stops it with SIGTERM.

The script is fixed per seed and built from a fixed mix, so seeds change
which points, orders and ablation stacks are asked for but not how much
work a pass holds:

* every point of the twelve artefacts' grids once (first touches read
  the store) plus Zipf-ranked repeats (payload-cache hits),
  ``GET /v1/point``;
* two ``POST /v1/retime`` per kernel on mmx128 and two on vmmx128, four
  seeded ablation variants each (compute lock, trace LRU -- the second
  stack hits it -- ``retime_stack``, store writes): under a tenth;
* each golden-pinned artefact once, ``GET /v1/artifact/<name>``.

No request causes a backfill.  After each pass the replies are checked
against the pass's store and the goldens.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import common
from tracer import layer_metrics, mean_metrics

HERE = Path(__file__).resolve().parent
CONNECTIONS = 2
#: Repeats of the point at Zipf rank r: ZIPF_K // (r + 1).  With 40,
#: payload-cache hits, first-touch store reads and the slow replies
#: (retimes, artefacts) make about 27%, 63% and 10% of the script, so
#: the median reply is a store read.
ZIPF_K = 40
#: Every kernel is re-timed on a 1-D and a 2-D extension, two stacks
#: each, so the second stack finds the trace in the trace LRU.
RETIME_VERSIONS = ("mmx128", "vmmx128")
RETIME_STACKS = 2
#: Machine widths of one retime stack's variants (a fixed multiset: the
#: widths decide how many cache-geometry sub-stacks the batch timing
#: pass walks).
RETIME_WAYS = (2, 2, 4, 8)
ORACLE_STACKS = 2
REQUEST_TIMEOUT = 60.0


#: The core-knob overrides of one retime stack, per program.  A fixed
#: set (the seed pairs them with the widths): the knobs change how many
#: cycles the timing model walks, so fixing them fixes a stack's cost.
RETIME_KNOBS = {
    "mmx128": ({"branch_penalty": 4}, {"branch_penalty": 12},
               {"rob_size": 32}, {"rob_size": 128}),
    "vmmx128": ({"lanes": 1}, {"lanes": 8},
                {"rob_size": 32}, {"vector_startup": 2}),
}


def _variants(rng: random.Random, version: str) -> List[Dict[str, Any]]:
    """One seeded ablation stack: the fixed widths and knobs, paired at random."""
    ways = list(RETIME_WAYS)
    knobs = list(RETIME_KNOBS[version])
    rng.shuffle(ways)
    rng.shuffle(knobs)
    return [{"way": way, "core": dict(core)} for way, core in zip(ways, knobs)]


def _interleave(many: List[Any], few: List[Any]) -> List[Any]:
    """Spread ``few`` evenly through ``many``, keeping both orders."""
    total = len(many) + len(few)
    out, i, j = [], 0, 0
    for slot in range(total):
        if (slot + 1) * len(few) // total > slot * len(few) // total:
            out.append(few[j])
            j += 1
        else:
            out.append(many[i])
            i += 1
    return out


def build_script(seed: int) -> List[Dict[str, Any]]:
    """The seeded request script of one pass.

    The seed picks which point takes which Zipf rank, the order of the
    point and retime requests, and the ablation variants.  Where the
    slow requests (retimes, artefacts) sit is fixed, so every seed gives
    the two connections the same overlap of slow and fast replies.
    """
    from repro.experiments.extended import (
        fig4v_points, fig4x_points, fig5v_points, fig5x_points,
    )
    from repro.kernels.registry import KERNELS
    from repro.sweep import GRIDS, dedupe

    rng = random.Random(seed)
    universe = dedupe(
        GRIDS["fig4"]() + GRIDS["fig5"]() + list(fig4x_points())
        + list(fig5x_points()) + list(fig4v_points()) + list(fig5v_points())
    )
    rng.shuffle(universe)
    points: List[Dict[str, Any]] = []
    for rank, point in enumerate(universe):
        params = {"kernel": point.kernel, "version": point.version,
                  "way": point.way, "seed": point.seed,
                  "machine": point.machine, "vl": point.vl}
        query = urllib.parse.urlencode({k: v for k, v in params.items() if v is not None})
        for _ in range(1 + ZIPF_K // (rank + 1)):
            points.append({"kind": "point", "method": "GET",
                           "path": f"/v1/point?{query}", "point": point})
    rng.shuffle(points)
    retimes: List[Dict[str, Any]] = []
    for kernel in KERNELS:
        for version in RETIME_VERSIONS:
            for _ in range(RETIME_STACKS):
                body = {
                    "kernel": kernel, "version": version, "seed": 0,
                    "variants": _variants(rng, version),
                }
                retimes.append({"kind": "retime", "method": "POST", "path": "/v1/retime",
                                "body": json.dumps(body).encode()})
    rng.shuffle(retimes)
    artifacts = [
        {"kind": "artifact", "method": "GET", "path": f"/v1/artifact/{name}", "name": name}
        for name in common.PINNED
    ]
    return _interleave(points, _interleave(retimes, artifacts))


# ---------------------------------------------------------------------------
# Server lifecycle.
# ---------------------------------------------------------------------------


class Server:
    """One ``python -m repro serve`` process on a private store copy."""

    def __init__(self, store: Path, spans: Optional[Path]) -> None:
        args = ["serve", "--store", str(store), "--port", "0",
                "--workers", str(CONNECTIONS), "--quiet"]
        if spans is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spans)] + args
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=common.child_env()
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"server did not start: {line!r}")
            host, _, port = line.split()[2][len("http://"):].partition(":")
            self.host, self.port = host, int(port)
            while self.get("/healthz")[0] != 200:
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not stop."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def drive(server: Server, script: List[Dict[str, Any]]) -> Tuple[float, float, List[tuple]]:
    """Run the script closed loop; returns (start, wall, [(status, body, seconds)])."""
    replies: List[Optional[tuple]] = [None] * len(script)
    errors: List[BaseException] = []

    def connection(offset: int) -> None:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=REQUEST_TIMEOUT)
        clock = time.perf_counter
        try:
            for i in range(offset, len(script), CONNECTIONS):
                req = script[i]
                body = req.get("body")
                headers = {"Content-Type": "application/json"} if body else {}
                t0 = clock()
                conn.request(req["method"], req["path"], body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                replies[i] = (response.status, data, clock() - t0)
        except BaseException as exc:  # re-raised below, after the join
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=connection, args=(i,)) for i in range(CONNECTIONS)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=2 * REQUEST_TIMEOUT)
    wall = time.perf_counter() - t0
    if errors or any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"request script aborted: {errors[:1]}")
    return t0, wall, replies  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


class Verifier:
    """Checks every reply; keeps the first pass's digest as the reference."""

    def __init__(self, checks) -> None:
        self.checks = checks
        self.digest: Optional[str] = None
        self.oracle_done = False

    def verify(self, store: Path, script, replies) -> int:
        """Check one pass's replies.

        Returns the timed instructions of every distinct result delivered
        (a repeated point counts once), which the seeded mix keeps fixed.
        """
        from repro.sweep.engine import point_key
        from repro.sweep.store import ResultStore, peek_payload

        rs = ResultStore(store)
        items: List[str] = []
        instructions = 0
        retimes = []
        seen = set()
        for req, (status, body, _) in zip(script, replies):
            label = f"{req['method']} {req['path'][:80]}"
            if not self.checks.check(status == 200, f"{label}: HTTP {status}"):
                continue
            if req["kind"] == "artifact":
                self.checks.check(
                    body.decode() == common.golden(req["name"]),
                    f"{label}: differs from tests/goldens/{req['name']}.json",
                )
                continue
            reply = json.loads(body)
            if req["kind"] == "point":
                key = point_key(req["point"])
                ok = reply["key"] == key and reply["timing"] == peek_payload(rs, key)
                self.checks.check(ok, f"{label}: body differs from the store payload")
                if key not in seen:
                    seen.add(key)
                    instructions += reply["timing"]["result"]["instructions"]
            else:
                stored = [peek_payload(rs, r["key"]) for r in reply["results"]]
                ok = all(s is not None and s["result"] == r["result"]
                         for s, r in zip(stored, reply["results"]))
                self.checks.check(ok, f"{label}: retimed results not persisted as returned")
                instructions += sum(r["result"]["instructions"] for r in reply["results"])
                retimes.append((req, reply))
            items.append(body.decode())
        digest = common.digest_of(items)
        if self.digest is None:
            self.digest = digest
        self.checks.check(digest == self.digest, "reply digest changed between passes")
        if not self.oracle_done:
            self.oracle_done = True
            self.oracle(rs, retimes[:ORACLE_STACKS])
        return instructions

    def oracle(self, rs, retimes) -> None:
        """Re-time a few stacks through the scalar reference model."""
        from repro.sweep import SweepPoint
        from repro.sweep.engine import resolve_configs, trace_key
        from repro.sweep.store import peek_payload, sim_result_to_dict, trace_from_payload
        from repro.timing.simulator import simulate_trace

        for req, reply in retimes:
            request = json.loads(req["body"])
            for variant, result in zip(request["variants"], reply["results"]):
                point = SweepPoint(
                    kernel=request["kernel"], version=request["version"],
                    way=variant["way"], seed=request["seed"],
                    core_overrides=variant["core"],
                )
                cols = trace_from_payload(peek_payload(rs, trace_key(point)))
                expected = sim_result_to_dict(simulate_trace(cols, *resolve_configs(point)))
                self.checks.check(
                    expected == result["result"],
                    f"retime {point.label}: differs from the scalar reference model",
                )


# ---------------------------------------------------------------------------
# The measurement loop.
# ---------------------------------------------------------------------------


def _ms(values: List[float], q: float) -> float:
    return 1000.0 * common.percentile(values, q) if values else 0.0


def serve_metrics(script, replies_by_pass, metrics_docs) -> Dict[str, float]:
    """Client-side per-endpoint latencies plus the server's own counters."""
    by_kind: Dict[str, List[float]] = {"point": [], "retime": [], "artifact": []}
    for replies in replies_by_pass:
        for req, reply in zip(script, replies):
            by_kind[req["kind"]].append(reply[2])
    out = {
        "serve.point_p50_ms": _ms(by_kind["point"], 50),
        "serve.point_p99_ms": _ms(by_kind["point"], 99),
        "serve.retime_p50_ms": _ms(by_kind["retime"], 50),
        "serve.retime_p99_ms": _ms(by_kind["retime"], 99),
        "serve.artifact_p50_ms": _ms(by_kind["artifact"], 50),
    }
    samples = []
    for doc in metrics_docs:
        payload, trace = doc["cache"]["payload"], doc["cache"]["trace"]
        samples.append({
            "serve.payload_cache_hit_ratio":
                payload["hits"] / max(1, payload["hits"] + payload["misses"]),
            "serve.trace_cache_hit_ratio":
                trace["hits"] / max(1, trace["hits"] + trace["misses"]),
            "serve.coalesced": float(doc["coalesce"]["coalesced"]),
            "serve.retime_dispatches": float(doc["counters"].get("retime_dispatches", 0)),
        })
    out.update(mean_metrics(samples))
    return out


def run(
    checks, run_dir: Path, seed: int, seconds: float, trace: bool, fixture: Path,
    spans_out: Path,
) -> Dict[str, Any]:
    import repro.sweep  # noqa: F401 -- for the checks, outside any timing

    script = build_script(seed)
    verifier = Verifier(checks)
    walls: Dict[bool, List[float]] = {False: [], True: []}
    raw_walls: List[float] = []
    latencies: List[float] = []
    setups: List[float] = []
    rss: List[float] = []
    replies_by_pass: List[list] = []
    metrics_docs: List[dict] = []
    ledgers: List[Dict[str, float]] = []
    instructions = 0
    last_traced = None
    started = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        store = run_dir / f"store-{index}"
        # Hard links: the store only ever replaces record files, never
        # rewrites one in place, so the fixture stays intact.
        shutil.copytree(fixture / "store", store, copy_function=os.link)
        spans_file = run_dir / f"spans-{index}.json" if traced else None
        ref0 = common.reference_seconds()
        server = Server(store, spans_file)
        try:
            ref1 = common.reference_seconds()
            t0, wall, replies = drive(server, script)
            ref2 = common.reference_seconds()
            status, body = server.get("/metrics")
            doc = json.loads(body) if status == 200 else None
            peak = server.peak_rss_mb()
        finally:
            server.stop()
        checks.check(doc is not None, f"GET /metrics: HTTP {status}")
        instructions = verifier.verify(store, script, replies)
        if traced:
            dump = json.loads(spans_file.read_text())
            ledger = layer_metrics(dump["threads"], wall, window=(t0, t0 + wall))
            last_traced = (dump["threads"], wall)
            ledger["sweep.simulated"] = dump["simulated"]
            ledger["sweep.emulated"] = dump["emulated"]
            ledger["store.bytes"] = float(common.dir_bytes(store))
            ledgers.append(ledger)
        else:
            scale = common.calibrated(1.0, ref1, ref2)
            latencies.extend(r[2] * scale for r in replies)
            raw_walls.append(wall)
            setups.append(common.calibrated(server.setup_s, ref0, ref1))
            rss.append(peak)
            replies_by_pass.append(replies)
            if doc is not None:
                metrics_docs.append(doc)
        shutil.rmtree(store, ignore_errors=True)
        walls[traced].append(common.calibrated(wall, ref1, ref2))
        index += 1
        print(f"pass {index}: {wall:.4f} s, calibrated {walls[traced][-1]:.4f} s, "
              f"{len(script)} requests, server up in {server.setup_s:.3f} s"
              f"{' (traced)' if traced else ''}", flush=True)
        enough = not trace or (walls[False] and walls[True])
        if enough and time.perf_counter() - started >= seconds:
            break
    if last_traced is not None:
        common.write_spans(spans_out, *last_traced)
    result: Dict[str, Any] = {
        "walls": walls[False],
        "raw_walls": raw_walls,
        "traced_walls": walls[True],
        "requests": latencies,
        "setup_samples": setups,
        "peak_rss_mb": common.median(rss),
        "instructions_per_pass": instructions,
        "requests_per_pass": len(script),
        "info": {"reply_digest": verifier.digest},
    }
    if ledgers:
        ledger = mean_metrics(ledgers)
        ledger.update(serve_metrics(script, replies_by_pass, metrics_docs))
        result["ledger"] = ledger
    return result
