"""Cache hierarchy model: L1, L2 and the vector cache path (Table IV).

Latency-oriented functional model: true LRU tag arrays decide hits and
misses; the out-of-order core model (:mod:`repro.timing.core`) separately
accounts port occupancy.  Scalar (and MMX SIMD) accesses go through L1
backed by L2; on the VMMX configurations vector accesses bypass L1 and
access the two-bank interleaved L2 vector cache directly, which serves
stride-one requests at full port width and other strides at one element
row per cycle (§III-D, [22]).

These classes are the oracle's, walked one record at a time by
:class:`~repro.timing.core.CoreModel`.  The compiled engine runs the
same warm, tag arrays and predictor in the pre-pass of its C kernel
(``kernel.c``), differentially tested against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.machines.spec import CacheConfig, MemHierConfig


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.n_sets = config.size // (config.line * config.assoc)
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def _touch_line(self, line_addr: int) -> bool:
        """Access one line; returns True on hit and updates LRU state."""
        index = (line_addr // self.config.line) % self.n_sets
        tag = line_addr // (self.config.line * self.n_sets)
        ways = self._sets[index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return True
        ways.append(tag)
        if len(ways) > self.config.assoc:
            ways.pop(0)
        return False

    def access(self, addr: int, nbytes: int) -> int:
        """Touch every line in [addr, addr+nbytes); returns lines missed."""
        line = self.config.line
        first = addr // line
        last = (addr + max(nbytes, 1) - 1) // line
        missed = 0
        for line_no in range(first, last + 1):
            self.stats.accesses += 1
            if not self._touch_line(line_no * line):
                missed += 1
                self.stats.misses += 1
        return missed

    def touch(self, addr: int, nbytes: int) -> None:
        """Update LRU state for [addr, addr+nbytes) without counting stats.

        Cache warming discards its statistics anyway, so the warm path
        takes this cheaper route; the tag-array evolution is identical
        to :meth:`access`.
        """
        line = self.config.line
        first = addr // line
        last = (addr + max(nbytes, 1) - 1) // line
        for line_no in range(first, last + 1):
            self._touch_line(line_no * line)


@dataclass
class AccessResult:
    """Latency and transfer occupancy of one memory access."""

    latency: int        # cycles until first data available
    occupancy: int      # cycles the serving port is busy


class MemoryHierarchy:
    """L1 + L2 (+ vector path) with a flat main-memory latency."""

    def __init__(self, config: MemHierConfig) -> None:
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)

    def scalar_access(self, addr: int, nbytes: int) -> AccessResult:
        """A scalar or MMX access through L1 (L1 -> L2 -> memory)."""
        latency = self.config.l1.latency
        if self.l1.access(addr, nbytes):
            if self.l2.access(addr, nbytes):
                latency += self.config.main_latency
            else:
                latency += self.config.l2.latency
        occupancy = max(1, -(-nbytes // self.config.l1.port_bytes))
        return AccessResult(latency=latency, occupancy=occupancy)

    def vector_access(
        self, addr: int, row_bytes: int, rows: int, stride: int
    ) -> AccessResult:
        """A VMMX matrix access through the L2 vector cache (bypasses L1).

        Stride-one requests move ``port_bytes`` per cycle; any other
        stride transfers ``strided_rows_per_cycle`` rows per cycle.  Only
        the bytes of the actual rows touch the tag array (a strided
        access does not pull the skipped gaps into the cache).
        """
        latency = self.config.l2.latency
        unit_stride = stride == row_bytes
        if unit_stride:
            missed = self.l2.access(addr, max(rows, 1) * row_bytes)
        else:
            missed = 0
            for r in range(max(rows, 1)):
                missed += self.l2.access(addr + r * stride, row_bytes)
        if missed:
            latency += self.config.main_latency
        if unit_stride:
            total = rows * row_bytes
            occupancy = max(1, -(-total // self.config.l2.port_bytes))
        else:
            # "at 1 element per cycle for any other stride" (§III-D):
            # elements are 64-bit, so a 128-bit row costs two cycles.
            elements = rows * max(1, -(-row_bytes // 8))
            occupancy = max(1, int(elements / self.config.strided_rows_per_cycle))
        return AccessResult(latency=latency, occupancy=occupancy)

    def warm(self, trace) -> None:
        """Pre-touch the tag arrays with a trace's memory footprint.

        The paper times kernels in the steady state of a running
        application; warming removes the one-off 500-cycle compulsory
        misses from the first batch so both ISA families are compared on
        their warm behaviour.

        Accepts the columnar trace IR (builder or snapshot) -- walked
        through its memory columns -- or any iterable of trace records
        (coerced through :func:`repro.isa.trace.as_columns`).  The
        compiled engine's pre-pass (``prepass`` in ``kernel.c``) repeats
        this walk and is differentially pinned against it.
        """
        from repro.isa.trace import as_columns

        cols = as_columns(trace)
        addr = cols.addr.tolist()
        rows = cols.rows.tolist()
        row_bytes = cols.row_bytes.tolist()
        stride = cols.stride.tolist()
        # Stats are reset below anyway, so take the stats-free touch
        # path -- the LRU evolution is identical to access().
        l1_touch = self.l1.touch
        l2_touch = self.l2.touch
        for i in np.nonzero(cols.addr >= 0)[0].tolist():
            n_rows = rows[i]
            if n_rows > 1:
                base = addr[i]
                nbytes = row_bytes[i]
                step = stride[i] or nbytes
                for r in range(n_rows):
                    row_addr = base + r * step
                    l1_touch(row_addr, nbytes)
                    l2_touch(row_addr, nbytes)
            else:
                nbytes = max(row_bytes[i], 1)
                l1_touch(addr[i], nbytes)
                l2_touch(addr[i], nbytes)
        self.l1.stats.accesses = self.l1.stats.misses = 0
        self.l2.stats.accesses = self.l2.stats.misses = 0

    def stats(self) -> Dict[str, CacheStats]:
        return {"l1": self.l1.stats, "l2": self.l2.stats}


@dataclass
class BimodalPredictor:
    """2-bit saturating-counter branch predictor keyed by branch site.

    Counters initialise weakly-taken, so a loop branch costs one
    misprediction at loop exit -- the behaviour of a trained bimodal
    table on the paper's hand-unrolled loops.
    """

    counters: Dict[int, int] = field(default_factory=dict)
    lookups: int = 0
    mispredicts: int = 0

    def predict_and_update(self, site: int, taken: bool) -> bool:
        """Returns True when the prediction was correct."""
        self.lookups += 1
        counter = self.counters.get(site, 2)
        predicted = counter >= 2
        if taken:
            counter = min(counter + 1, 3)
        else:
            counter = max(counter - 1, 0)
        self.counters[site] = counter
        correct = predicted == taken
        if not correct:
            self.mispredicts += 1
        return correct
