"""Sweep-as-a-service: an asyncio HTTP front-end over the result store.

The content-addressed :class:`~repro.sweep.store.ResultStore` is a
read-mostly serving substrate: every figure, table, point timing and
columnar trace the compute layers produce already lives under a stable
content address.  This package turns that substrate into an
origin-backed cache for many concurrent clients:

* :mod:`repro.serve.app` -- the asyncio HTTP server (hand-rolled
  HTTP/1.1 over ``asyncio.start_server``; no third-party framework),
  request routing, structured request logs and graceful shutdown;
* :mod:`repro.serve.handlers` -- the endpoints: artifact/point queries
  answered from the store, the batched re-timing endpoint (one
  :func:`~repro.timing.simulator.simulate_trace_stack` dispatch for a
  whole stack of ablation/width variants of one cached trace), and
  202-and-poll backfill for cold queries;
* :mod:`repro.serve.coalesce` -- single-flight request coalescing keyed
  by the store's content addresses, so concurrent identical queries
  share one in-flight computation;
* :mod:`repro.serve.backfill` -- the background-executor job registry
  behind the 202 responses, drained on shutdown;
* :mod:`repro.serve.metrics` -- hit/miss/coalesce counters and
  per-endpoint latency histograms behind ``/metrics``.

``python -m repro serve`` is the CLI front end; docs/serving.md is the
endpoint reference and runbook.
"""

from repro.serve.app import ServeApp, serve_forever
from repro.serve.backfill import BackfillJob, BackfillQueue
from repro.serve.coalesce import SingleFlight
from repro.serve.handlers import Api, ApiError, Response
from repro.serve.metrics import Histogram, Metrics
from repro.sweep.store import LruCache

__all__ = [
    "Api",
    "ApiError",
    "BackfillJob",
    "BackfillQueue",
    "Histogram",
    "LruCache",
    "Metrics",
    "Response",
    "ServeApp",
    "SingleFlight",
    "serve_forever",
]
