"""Service observability: counters and per-endpoint latency histograms.

Everything here is plain in-process state mutated only from the event
loop (handler code paths), so no locking is needed; the ``/metrics``
endpoint serialises a :meth:`Metrics.snapshot` as JSON with a stable
schema (documented in docs/serving.md) that external monitoring can
consume alongside ``python -m repro store stats --json``.
"""

from __future__ import annotations

from typing import Dict, Sequence

#: Histogram bucket upper bounds in seconds (requests above the last
#: bound land in ``+Inf``).  Log-spaced: cache hits sit in the first few
#: buckets, batched re-timings around 0.1-1s, cold backfills beyond.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: ``/metrics`` payload schema version (bump on incompatible change).
METRICS_SCHEMA = 2


class Histogram:
    """Fixed-bucket latency histogram (cumulative counts on snapshot)."""

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        self.bounds = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def snapshot(self) -> Dict[str, object]:
        buckets = {f"{bound:g}": 0 for bound in self.bounds}
        buckets["+Inf"] = 0
        cumulative = 0
        for label, count in zip(list(buckets), self.counts):
            cumulative += count
            buckets[label] = cumulative
        return {"count": self.count, "sum": self.total, "buckets": buckets}


class Metrics:
    """All service counters and histograms, one instance per app."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.by_endpoint: Dict[str, Histogram] = {}
        self.by_status: Dict[str, int] = {}

    def inc(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        histogram = self.by_endpoint.get(endpoint)
        if histogram is None:
            histogram = self.by_endpoint[endpoint] = Histogram()
        histogram.observe(seconds)
        self.by_status[str(status)] = self.by_status.get(str(status), 0) + 1
        self.inc("requests_total")

    def snapshot(self) -> Dict[str, object]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "requests_by_status": dict(sorted(self.by_status.items())),
            "latency_seconds": {
                endpoint: histogram.snapshot()
                for endpoint, histogram in sorted(self.by_endpoint.items())
            },
        }
