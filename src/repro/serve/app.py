"""The asyncio HTTP server: framing, routing, logs, lifecycle.

A deliberately small HTTP/1.1 implementation over
:func:`asyncio.start_server` -- the project's zero-dependency rule
applies to the serving layer too.  It speaks exactly what the service
needs: ``GET``/``POST``, ``Content-Length`` bodies, keep-alive, JSON
responses.  Everything protocol-shaped lives here; the endpoints
themselves are :class:`repro.serve.handlers.Api` and are fully testable
without a socket through :meth:`ServeApp.handle_request`.

Lifecycle: :meth:`ServeApp.start` binds and serves,
:meth:`ServeApp.shutdown` stops accepting, waits for in-flight request
handlers, drains background backfills (bounded by ``drain_timeout``)
and only then tears the executor down -- a restart never half-loses a
store write.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import time
import urllib.parse
from typing import Any, Callable, Dict, Optional, Tuple

from repro.serve.handlers import Api, ApiError, MAX_BODY_BYTES, Response
from repro.serve.metrics import METRICS_SCHEMA, Metrics
from repro.sweep.store import MEMO, LruCache, ResultStore, code_version

#: Sentinel distinguishing "use the default store" from "no store".
_USE_DEFAULT = object()

#: Cap on the request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024

#: How long a cached ``store.stats()`` walk stays fresh in ``/metrics``
#: (the walk reads every record; hammering /metrics must not turn into
#: a full store read per scrape).
STORE_STATS_TTL = 5.0


class ServeApp:
    """One service instance: store, response cache, executor, endpoints.

    ``cache_bytes`` bounds the LRU of response bodies, the only cache
    the service keeps itself: the records behind a response (decoded
    traces included) are cached in :data:`~repro.sweep.store.MEMO`.
    ``workers`` sizes the background thread executor; the compute lock
    means extra workers only ever help concurrent *store reads*, so a
    small pool is the right default.
    """

    def __init__(
        self,
        store: Any = _USE_DEFAULT,
        cache_bytes: int = 64 * 1024 * 1024,
        workers: int = 2,
        coalesce: bool = True,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if store is _USE_DEFAULT:
            from repro.sweep.store import default_store

            store = default_store()
        self.store: Optional[ResultStore] = store
        self.metrics = Metrics()
        self.payload_cache = LruCache(cache_bytes, name="payload")
        self._log = log
        self._started = time.time()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-serve"
        )
        #: Serialises every call into the sweep/timing layers: they
        #: keep process-global simulation/emulation counters and the
        #: compute budget, so the origin is single-flight per process.
        self._compute_lock = threading.Lock()
        self._inflight_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._store_stats: Optional[Dict[str, Any]] = None
        self._store_stats_time = 0.0
        self.api = Api(
            store=self.store,
            run_read=self._run_read,
            run_compute=self._run_compute,
            payload_cache=self.payload_cache,
            metrics=self.metrics,
            coalesce=coalesce,
        )

    # -- executor bridges --------------------------------------------------

    async def _run_read(self, fn: Callable[[], Any]) -> Any:
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, fn
        )

    async def _run_compute(self, fn: Callable[[], Any]) -> Any:
        def locked() -> Any:
            with self._compute_lock:
                return fn()

        return await asyncio.get_running_loop().run_in_executor(
            self._pool, locked
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and serve; returns the actual (host, port) bound."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def shutdown(self, drain_timeout: float = 30.0) -> None:
        """Graceful stop: no new connections, drain requests + backfills."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=drain_timeout)
        except asyncio.TimeoutError:
            pass
        drained = await self.api.backfills.drain(timeout=drain_timeout)
        if not drained:
            self.log_line({"event": "shutdown", "backfills_drained": False})
        self._pool.shutdown(wait=True)

    def log_line(self, payload: Dict[str, Any]) -> None:
        """One structured (JSON) log line; silent without a log sink."""
        if self._log is not None:
            self._log(json.dumps(payload, sort_keys=True))

    # -- request handling --------------------------------------------------

    async def handle_request(
        self, method: str, target: str, body: bytes = b""
    ) -> Response:
        """Route one request; the socket-free entry the tests drive.

        Never raises for request-shaped problems: API errors become
        JSON error responses and unexpected exceptions a 500, exactly
        as a socket client would observe them.
        """
        started = time.monotonic()
        path, _, query = target.partition("?")
        endpoint = self._endpoint_name(method, path)
        try:
            response = await self._route(method, path, query, body)
        except ApiError as exc:
            response = Response(
                status=exc.status,
                body=(json.dumps({"error": exc.message}, sort_keys=True)
                      + "\n").encode("utf-8"),
                source="error",
            )
        except Exception as exc:  # noqa: BLE001 -- the server must not die
            self.metrics.inc("internal_errors")
            response = Response(
                status=500,
                body=(json.dumps(
                    {"error": f"internal error: {type(exc).__name__}: {exc}"},
                    sort_keys=True,
                ) + "\n").encode("utf-8"),
                source="error",
            )
        elapsed = time.monotonic() - started
        self.metrics.observe(endpoint, response.status, elapsed)
        self.log_line({
            "ts": round(time.time(), 3),
            "method": method,
            "path": path,
            "status": response.status,
            "ms": round(elapsed * 1000.0, 3),
            "source": response.source,
        })
        return response

    def _endpoint_name(self, method: str, path: str) -> str:
        for prefix, name in (
            ("/healthz", "healthz"),
            ("/metrics", "metrics"),
            ("/v1/artifacts", "artifacts"),
            ("/v1/artifact/", "artifact"),
            ("/v1/point", "point"),
            ("/v1/retime", "retime"),
            ("/v1/jobs/", "jobs"),
        ):
            if path == prefix or (prefix.endswith("/") and path.startswith(prefix)):
                return name
        return "other"

    async def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> Response:
        if path == "/healthz" and method == "GET":
            return await self._healthz()
        if path == "/metrics" and method == "GET":
            return await self._metrics()
        if path == "/v1/artifacts" and method == "GET":
            return await self.api.artifacts()
        if path.startswith("/v1/artifact/") and method == "GET":
            return await self.api.artifact(path[len("/v1/artifact/"):])
        if path == "/v1/point" and method == "GET":
            params = {
                key: values[-1]
                for key, values in urllib.parse.parse_qs(
                    query, keep_blank_values=True
                ).items()
            }
            return await self.api.point(params)
        if path == "/v1/retime" and method == "POST":
            return await self.api.retime(body)
        if path.startswith("/v1/jobs/") and method == "GET":
            return await self.api.job(path[len("/v1/jobs/"):])
        raise ApiError(404, f"no route for {method} {path}")

    async def _healthz(self) -> Response:
        payload = {
            "status": "ok",
            "store": str(self.store.root) if self.store is not None else None,
            "uptime_seconds": round(time.time() - self._started, 3),
            "code": code_version()[:12],
        }
        return Response(
            status=200,
            body=(json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
            source="store",
        )

    async def _metrics(self) -> Response:
        store_stats: Optional[Dict[str, Any]] = None
        if self.store is not None:
            now = time.monotonic()
            if (
                self._store_stats is None
                or now - self._store_stats_time > STORE_STATS_TTL
            ):
                store = self.store
                self._store_stats = await self._run_read(store.stats)
                self._store_stats_time = now
            store_stats = self._store_stats
        counters = self.metrics.counters
        payload = {
            "schema": METRICS_SCHEMA,
            "uptime_seconds": round(time.time() - self._started, 3),
            "cache": {
                "payload": self.payload_cache.stats(),
                "trace": {
                    "hits": counters.get("trace_cache_hits", 0),
                    "misses": counters.get("trace_cache_misses", 0),
                },
                "memo": MEMO.stats(),
            },
            "coalesce": self.api.flight.stats(),
            "backfill": self.api.backfills.counts(),
            "store": store_stats,
        }
        payload.update(self.metrics.snapshot())
        return Response(
            status=200,
            body=(json.dumps(payload, sort_keys=True, indent=2)
                  + "\n").encode("utf-8"),
            source="store",
        )

    # -- HTTP framing ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, headers, body = request
                self._inflight_requests += 1
                self._idle.clear()
                try:
                    response = await self.handle_request(method, target, body)
                finally:
                    self._inflight_requests -= 1
                    if self._inflight_requests == 0:
                        self._idle.set()
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                    and self._server is not None
                )
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            raise ValueError("request head too large") from None
        if len(head) > MAX_HEAD_BYTES:
            raise ValueError("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise ValueError(f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise ValueError("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool,
    ) -> None:
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 500: "Internal Server Error",
        }.get(response.status, "OK")
        headers = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"X-Repro-Source: {response.source}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in response.headers:
            headers.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1")
            + response.body
        )
        await writer.drain()


async def serve_forever(
    app: ServeApp,
    host: str,
    port: int,
    ready: Optional[Callable[[str, int], None]] = None,
    stop: Optional[asyncio.Event] = None,
) -> None:
    """Run ``app`` until ``stop`` is set (or forever), then drain.

    The CLI entry: installs nothing itself -- signal handling is the
    caller's job (``python -m repro serve`` wires SIGINT/SIGTERM to the
    ``stop`` event) so embedded uses (tests, benchmarks) stay in full
    control of the lifecycle.
    """
    bound_host, bound_port = await app.start(host, port)
    if ready is not None:
        ready(bound_host, bound_port)
    if stop is None:
        stop = asyncio.Event()
    try:
        await stop.wait()
    finally:
        await app.shutdown()
