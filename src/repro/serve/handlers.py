"""The service endpoints: store-backed queries, batched re-timing, jobs.

Request handling follows one shape everywhere:

1. **payload cache** -- a warm query is answered from the bounded LRU
   of response bodies without touching the store or the compute layers;
2. **store** -- a cache miss reads the content-addressed record through
   the side-effect-free :func:`~repro.sweep.store.peek_payload` path in
   the background executor (a re-timing request first looks its decoded
   trace up in :data:`~repro.sweep.store.MEMO`, the process's one memo
   of store records);
3. **origin** -- only when the record is absent or damaged does the
   service compute: cheap compositions run inline (coalesced through
   :class:`~repro.serve.coalesce.SingleFlight`), anything that needs
   simulation is enqueued as a backfill job and answered
   ``202 Accepted`` with a job id to poll (``/v1/jobs/<id>``).

Endpoint reference lives in docs/serving.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.serve.backfill import BackfillQueue
from repro.serve.coalesce import SingleFlight
from repro.serve.metrics import Metrics
from repro.sweep.engine import (
    lookup_point,
    point_key,
    retime_stack,
    run_point,
    trace_key,
    trace_memo_key,
    trace_source,
)
from repro.sweep.points import SweepPoint
from repro.sweep.store import (
    MEMO,
    LruCache,
    ResultStore,
    code_version,
    default_store,
    kernel_timing_from_dict,
    memo_key,
    memoise,
    peek_payload,
    stable_hash,
    trace_from_payload,
)

#: Largest accepted request body (a re-timing request is a few KB).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted variant stack per re-timing request.
MAX_RETIME_VARIANTS = 1024


class ApiError(Exception):
    """An error with an HTTP status; the body is a JSON error object."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


#: Advisory poll interval (seconds, as an HTTP header value) sent with
#: every 202 backfill response.  Matches the job queue's typical
#: single-point compute time; clients may poll sooner, this is a hint.
RETRY_AFTER_SECONDS = "2"


@dataclass
class Response:
    """One endpoint's answer, ready for the HTTP layer."""

    status: int
    body: bytes
    content_type: str = "application/json"
    #: Provenance for logs/headers: cache | store | compute | backfill.
    source: str = "compute"
    headers: List[Tuple[str, str]] = field(default_factory=list)


def _dumps(payload: Any) -> bytes:
    """Deterministic response JSON (sorted keys, golden-style layout)."""
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _json_response(
    status: int, payload: Any, source: str = "compute"
) -> Response:
    return Response(status=status, body=_dumps(payload), source=source)


def _parse_scalar(text: str) -> Any:
    """Query-string override value -> JSON-stable scalar."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _artifact_points(name: str) -> Optional[List[SweepPoint]]:
    """The sweep grid behind one artifact (None: config-only, no sweep).

    Used as the completeness gate for 202-and-poll: an artifact whose
    kernel-timing grid is fully present composes inline (app profiles
    and scalar-IPC records, which ride on top, are computed on first
    composition and stored like everything else).
    """
    from repro.experiments.artifacts import ARTIFACT_POINTS

    build = ARTIFACT_POINTS.get(name)
    return None if build is None else list(build())


def _absent(store: ResultStore, points: List[SweepPoint]) -> List[SweepPoint]:
    """The ``points`` without a sound kernel-timing record in ``store``.

    Each record is read with the test ``load`` uses, as ``in`` would,
    and the timing memoised, so the render's sweep answers it without
    keying or reading it again.
    """
    absent = []
    for point in points:
        payload = peek_payload(store, point_key(point))
        if payload is None:
            absent.append(point)
        else:
            memoise(
                memo_key(store, "kernel-timing", point),
                kernel_timing_from_dict(payload),
            )
    return absent


def _refill(
    store: ResultStore, points: List[SweepPoint], absent: List[SweepPoint]
) -> Any:
    """Sweep ``points`` into ``store``, recomputing every ``absent`` one.

    A sweep answers the timings this process holds without reading the
    store, so a record removed after this process read it (say, a root
    removed under a live server) would stay absent, and every request
    would start another job; the memo entries of ``absent`` go first.
    """
    from repro.sweep.engine import sweep

    for point in absent:
        MEMO.discard(memo_key(store, "kernel-timing", point))
    return sweep(points, store=store)


class Api:
    """All endpoint logic, independent of the HTTP framing.

    ``run_read`` and ``run_compute`` are the app's executor bridges:
    both run a plain function in the background thread pool, and
    ``run_compute`` additionally holds the app's compute lock (the
    sweep/timing layers keep process-global counters and a compute
    budget, so the origin is single-flight per process; request
    concurrency comes from cache hits and store reads, which never take
    the lock).  ``payload_cache`` holds response bodies; records are
    cached in :data:`~repro.sweep.store.MEMO` only.
    """

    def __init__(
        self,
        store: Optional[ResultStore],
        run_read: Callable[[Callable[[], Any]], Awaitable[Any]],
        run_compute: Callable[[Callable[[], Any]], Awaitable[Any]],
        payload_cache: LruCache,
        metrics: Metrics,
        coalesce: bool = True,
    ) -> None:
        self.store = store
        self.run_read = run_read
        self.run_compute = run_compute
        self.payload_cache = payload_cache
        self.metrics = metrics
        self.flight = SingleFlight(enabled=coalesce)
        self.backfills = BackfillQueue(run_compute)

    # -- helpers -----------------------------------------------------------

    def _cached(self, cache_key: str) -> Optional[Response]:
        body = self.payload_cache.get(cache_key)
        if body is None:
            self.metrics.inc("payload_cache_misses")
            return None
        self.metrics.inc("payload_cache_hits")
        return Response(status=200, body=body, source="cache")

    def _remember(self, cache_key: str, body: bytes) -> None:
        self.payload_cache.put(cache_key, body, len(body))

    def _backfill(
        self, key: str, kind: str, detail: str, fn: Callable[[], Any],
        missing: int,
    ) -> Response:
        job, enqueued = self.backfills.submit(key, kind, detail, fn)
        self.metrics.inc(
            "backfills_enqueued" if enqueued else "backfills_joined"
        )
        payload = dict(job.as_dict())
        payload.update({
            "status": "backfill",
            "missing": missing,
            "poll": f"/v1/jobs/{job.key}",
        })
        response = _json_response(202, payload, source="backfill")
        # 202 means "poll /v1/jobs/<key>"; well-behaved clients honour
        # Retry-After instead of hammering the poll URL in a tight loop.
        response.headers.append(("Retry-After", RETRY_AFTER_SECONDS))
        return response

    # -- endpoints ---------------------------------------------------------

    async def artifacts(self) -> Response:
        from repro.experiments import ARTIFACT_DATA
        from repro.experiments.artifacts import PAPER_ARTIFACTS

        return _json_response(200, {
            "artifacts": sorted(ARTIFACT_DATA),
            "golden_pinned": list(PAPER_ARTIFACTS),
        }, source="store")

    async def artifact(self, name: str) -> Response:
        from repro.experiments import ARTIFACT_DATA

        if name not in ARTIFACT_DATA:
            raise ApiError(
                404,
                f"unknown artifact {name!r}; known: "
                + ", ".join(sorted(ARTIFACT_DATA)),
            )
        cache_key = f"artifact:{name}:{code_version()}"
        hit = self._cached(cache_key)
        if hit is not None:
            return hit

        async def build() -> Response:
            hit = self._cached(cache_key)
            if hit is not None:
                return hit
            # ``artifact_json`` composes from the process store, so that
            # is the store gated and backfilled (``repro serve --store``
            # makes it ``self.store``).
            store = default_store()
            points = _artifact_points(name)
            if points is not None and store is not None:
                absent = await self.run_read(lambda: _absent(store, points))
                if absent:
                    job_key = stable_hash({
                        "backfill": "artifact", "name": name,
                        "code": code_version(),
                    })
                    return self._backfill(
                        job_key, "artifact", name,
                        lambda: _refill(store, points, absent),
                        missing=len(absent),
                    )
            from repro.experiments import artifact_json

            body = await self.run_compute(
                lambda: artifact_json(name).encode("utf-8")
            )
            self._remember(cache_key, body)
            return Response(status=200, body=body, source="store")

        return await self.flight.run(cache_key, build)

    async def point(self, params: Dict[str, str]) -> Response:
        point = self._parse_point(params)
        try:
            key = point_key(point)
        except (KeyError, ValueError) as exc:
            raise ApiError(400, f"invalid point: {exc}") from None
        cache_key = f"point:{key}"
        hit = self._cached(cache_key)
        if hit is not None:
            return hit

        async def fetch() -> Response:
            hit = self._cached(cache_key)
            if hit is not None:
                return hit
            store = self.store
            timing = await self.run_read(lambda: lookup_point(point, store))
            if timing is None:
                return self._backfill(
                    key, "point", point.label,
                    lambda: run_point(point, store),
                    missing=1,
                )
            from repro.sweep.store import kernel_timing_to_dict

            body = _dumps({
                "key": key,
                "point": point.as_dict(),
                "timing": kernel_timing_to_dict(timing),
            })
            self._remember(cache_key, body)
            return Response(status=200, body=body, source="store")

        return await self.flight.run(cache_key, fetch)

    async def retime(self, body: bytes) -> Response:
        request = self._parse_retime(body)
        points = request["points"]
        base = points[0]
        request_key = "retime:" + stable_hash({
            "request": request["canonical"], "code": code_version(),
        })
        hit = self._cached(request_key)
        if hit is not None:
            return hit

        async def build() -> Response:
            hit = self._cached(request_key)
            if hit is not None:
                return hit
            store = self.store
            tkey = trace_key(base)
            memo = trace_memo_key(store, base)
            trace = MEMO.get(memo)
            if trace is None:
                self.metrics.inc("trace_cache_misses")
                payload = await self.run_read(
                    lambda: peek_payload(store, tkey)
                )
                # Decoded here on the loop, not in the read: a decode in
                # the executor measured a slower request tail.
                if payload is not None:
                    trace = trace_from_payload(payload)
                if trace is not None:
                    memoise(memo, trace)
            else:
                self.metrics.inc("trace_cache_hits")
            if trace is None:
                from repro.sweep.engine import acquire_trace

                return self._backfill(
                    tkey, "trace", "{}/{}/seed{}".format(*trace_source(base)),
                    lambda: acquire_trace(base, store),
                    missing=1,
                )
            timings = await self.run_compute(
                lambda: retime_stack(trace, points, store)
            )
            from repro.sweep.store import sim_result_to_dict

            self.metrics.inc("retime_dispatches")
            self.metrics.inc("retime_variants", len(points))
            # Legacy fixed-width responses keep their exact shape; the
            # vl key only appears for runtime-VL programs.
            header = {
                "kernel": base.kernel,
                "version": base.version,
                "seed": base.seed,
            }
            if base.vl is not None:
                header["vl"] = base.vl
            body_bytes = _dumps({
                **header,
                "trace_key": tkey,
                "instructions": len(trace),
                "dispatches": 1,
                "results": [
                    {
                        "way": point.way,
                        "machine": point.machine,
                        "core_overrides": [list(o) for o in point.core_overrides],
                        "mem_overrides": [list(o) for o in point.mem_overrides],
                        "key": point_key(point),
                        "result": sim_result_to_dict(timing.result),
                    }
                    for point, timing in zip(points, timings)
                ],
            })
            self._remember(request_key, body_bytes)
            return Response(status=200, body=body_bytes, source="compute")

        return await self.flight.run(request_key, build)

    async def job(self, key: str) -> Response:
        job = self.backfills.get(key)
        if job is None:
            raise ApiError(404, f"unknown job {key!r}")
        payload = job.as_dict()
        if job.state == "done":
            payload["hint"] = "re-issue the original query; it is now warm"
        return _json_response(200, payload, source="store")

    # -- request parsing ---------------------------------------------------

    def _parse_point(self, params: Dict[str, str]) -> SweepPoint:
        from repro.kernels.registry import KERNELS
        from repro.machines import is_registered, machine_names, program_of

        kernel = params.get("kernel")
        if not kernel:
            raise ApiError(400, "missing required query parameter 'kernel'")
        if kernel not in KERNELS:
            raise ApiError(
                400,
                f"unknown kernel {kernel!r}; known: " + ", ".join(KERNELS),
            )
        machine = params.get("machine") or None
        version = params.get("version") or None
        if machine is not None and not is_registered(machine):
            raise ApiError(
                400,
                f"unknown machine {machine!r}; registered: "
                + ", ".join(machine_names()),
            )
        if version is None:
            if machine is None:
                raise ApiError(400, "pass 'version' and/or 'machine'")
            version = program_of(machine)
        try:
            way = int(params.get("way", "2"))
            seed = int(params.get("seed", "0"))
        except ValueError as exc:
            raise ApiError(400, f"'way'/'seed' must be integers: {exc}") from None
        if way < 1:
            raise ApiError(400, f"'way' must be a positive integer, got {way}")
        vl: Optional[int] = None
        if params.get("vl"):
            try:
                vl = int(params["vl"])
            except ValueError as exc:
                raise ApiError(400, f"'vl' must be an integer: {exc}") from None
        core = {}
        mem = {}
        for name, value in params.items():
            if name.startswith("core."):
                core[name[len("core."):]] = _parse_scalar(value)
            elif name.startswith("mem."):
                mem[name[len("mem."):]] = _parse_scalar(value)
        try:
            return SweepPoint(
                kernel=kernel, version=version, way=way, seed=seed,
                core_overrides=core, mem_overrides=mem, machine=machine,
                vl=vl,
            )
        except (TypeError, ValueError) as exc:
            # The point constructor's ValueError names the offending
            # axis (e.g. a 'vl' against a fixed-width version).
            raise ApiError(400, str(exc)) from None

    def _parse_retime(self, body: bytes) -> Dict[str, Any]:
        from repro.kernels.registry import KERNELS
        from repro.machines import is_registered, machine_names

        try:
            request = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(request, dict):
            raise ApiError(400, "request body must be a JSON object")
        kernel = request.get("kernel")
        version = request.get("version")
        if not isinstance(kernel, str) or kernel not in KERNELS:
            raise ApiError(
                400,
                f"unknown kernel {kernel!r}; known: " + ", ".join(KERNELS),
            )
        if not isinstance(version, str):
            raise ApiError(400, "'version' (the kernel program) is required")
        seed = request.get("seed", 0)
        base_machine = request.get("machine")
        variants = request.get("variants")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ApiError(400, f"'seed' must be an integer, got {seed!r}")
        vl = request.get("vl")
        if vl is not None and (not isinstance(vl, int) or isinstance(vl, bool)):
            raise ApiError(400, f"'vl' must be an integer, got {vl!r}")
        if not isinstance(variants, list) or not variants:
            raise ApiError(400, "'variants' must be a non-empty list")
        if len(variants) > MAX_RETIME_VARIANTS:
            raise ApiError(
                400,
                f"at most {MAX_RETIME_VARIANTS} variants per request, "
                f"got {len(variants)}",
            )
        points: List[SweepPoint] = []
        for i, variant in enumerate(variants):
            if not isinstance(variant, dict):
                raise ApiError(400, f"variants[{i}] must be an object")
            way = variant.get("way")
            if not isinstance(way, int) or isinstance(way, bool) or way < 1:
                raise ApiError(
                    400,
                    f"variants[{i}].way must be a positive integer, got {way!r}",
                )
            machine = variant.get("machine", base_machine)
            if machine is not None and not is_registered(machine):
                raise ApiError(
                    400,
                    f"variants[{i}]: unknown machine {machine!r}; registered: "
                    + ", ".join(machine_names()),
                )
            try:
                points.append(SweepPoint(
                    kernel=kernel, version=version, way=way, seed=seed,
                    core_overrides=variant.get("core") or {},
                    mem_overrides=variant.get("mem") or {},
                    machine=machine,
                    vl=vl,
                ))
            except (TypeError, ValueError) as exc:
                # Includes the constructor's ValueError naming the 'vl'
                # axis when it is passed against a fixed-width version.
                raise ApiError(400, f"variants[{i}]: {exc}") from None
        for i, point in enumerate(points):
            try:
                point_key(point)
            except (KeyError, ValueError) as exc:
                raise ApiError(400, f"variants[{i}]: {exc}") from None
        from repro.machines.spec import canonical_json

        canonical = canonical_json({
            "kernel": kernel, "version": version, "seed": seed,
            "points": [p.as_dict() for p in points],
        })
        return {"points": points, "canonical": canonical}
