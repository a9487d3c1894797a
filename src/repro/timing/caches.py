"""Cache hierarchy model: L1, L2 and the vector cache path (Table IV).

Latency-oriented functional model: true LRU tag arrays decide hits and
misses; the out-of-order core model (:mod:`repro.timing.core`) separately
accounts port occupancy.  Scalar (and MMX SIMD) accesses go through L1
backed by L2; on the VMMX configurations vector accesses bypass L1 and
access the two-bank interleaved L2 vector cache directly, which serves
stride-one requests at full port width and other strides at one element
row per cycle (§III-D, [22]).
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

    def resolve_accesses(
        self,
        indices,
        use_vector,
        addr,
        row_bytes,
        rows,
        stride,
        lat_out,
        occ_out,
    ) -> None:
        """Resolve every memory access of a columnar trace in trace order.

        Batched equivalent of calling :meth:`scalar_access` /
        :meth:`vector_access` once per record (the compiled timing
        engine's pre-pass): writes each access's latency and occupancy
        into ``lat_out[i]`` / ``occ_out[i]``.  Avoids a result-object
        allocation and two method dispatches per dynamic memory
        instruction; the differential tests pin it against the
        per-record methods.
        """
        l1 = self.l1
        l2 = self.l2
        l1_lat = self.config.l1.latency
        l2_lat = self.config.l2.latency
        main_lat = self.config.main_latency
        l1_pb = self.config.l1.port_bytes
        l2_pb = self.config.l2.port_bytes
        strided_rpc = self.config.strided_rows_per_cycle
        for i in indices:
            if use_vector[i]:
                nbytes = row_bytes[i]
                n_rows = rows[i]
                step = stride[i]
                base = addr[i]
                latency = l2_lat
                if step == nbytes:
                    missed = l2.access(base, max(n_rows, 1) * nbytes)
                else:
                    missed = 0
                    for r in range(max(n_rows, 1)):
                        missed += l2.access(base + r * step, nbytes)
                if missed:
                    latency += main_lat
                if step == nbytes:
                    total = n_rows * nbytes
                    occupancy = -(-total // l2_pb)
                else:
                    elements = n_rows * max(1, -(-nbytes // 8))
                    occupancy = int(elements / strided_rpc)
                lat_out[i] = latency
                occ_out[i] = occupancy if occupancy > 1 else 1
            else:
                base = addr[i]
                nbytes = row_bytes[i]
                if nbytes < 1:
                    nbytes = 1
                latency = l1_lat
                if l1.access(base, nbytes):
                    if l2.access(base, nbytes):
                        latency += main_lat
                    else:
                        latency += l2_lat
                occupancy = -(-nbytes // l1_pb)
                lat_out[i] = latency
                occ_out[i] = occupancy if occupancy > 1 else 1

    def warm(self, trace) -> None:
        """Pre-touch the tag arrays with a trace's memory footprint.

        The paper times kernels in the steady state of a running
        application; warming removes the one-off 500-cycle compulsory
        misses from the first batch so both ISA families are compared on
        their warm behaviour.

        Accepts the columnar trace IR (builder or snapshot) -- walked
        through its memory columns -- or any iterable of trace records
        (coerced through :func:`repro.isa.trace.as_columns`).

        On a fresh hierarchy (every set empty -- the only state the
        sweep and simulator paths ever warm from) the final LRU tag
        state is reconstructed directly with the vectorised
        :func:`_final_lru_state`; a partially-populated hierarchy takes
        the original sequential touch walk, whose evolution the fast
        path is differentially pinned against.
        """
        from repro.isa.trace import as_columns

        cols = as_columns(trace)
        if not any(self.l1._sets) and not any(self.l2._sets):
            self._warm_columnar(cols)
            self.l1.stats.accesses = self.l1.stats.misses = 0
            self.l2.stats.accesses = self.l2.stats.misses = 0
            return
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

    def _warm_columnar(self, cols) -> None:
        """Vectorised warm: rebuild the final LRU state in NumPy.

        Warming only needs the tag arrays' *final* state, not the
        intermediate evolution, so instead of touching line by line this
        expands every warmed row into a global line-touch sequence and
        reconstructs each set's survivors from last-touch times.
        """
        addr = cols.addr.astype(np.int64)
        sel = addr >= 0
        if not sel.any():
            return
        a = addr[sel]
        rows = cols.rows.astype(np.int64)[sel]
        rb = cols.row_bytes.astype(np.int64)[sel]
        st = cols.stride.astype(np.int64)[sel]
        # Mirror the sequential walk exactly: multi-row accesses touch
        # `rows` rows of `row_bytes` (stride 0 collapsing onto the row
        # size); single-row accesses touch max(row_bytes, 1) once.
        multi = rows > 1
        nb = np.where(multi, rb, np.maximum(rb, 1))
        step = np.where(st == 0, nb, st)
        n_rows = np.where(multi, rows, 1)
        total = int(n_rows.sum())
        owner = np.repeat(np.arange(len(a), dtype=np.int64), n_rows)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(n_rows) - n_rows, n_rows
        )
        row_addr = a[owner] + within * step[owner]
        row_nb = nb[owner]
        for cache in (self.l1, self.l2):
            _final_lru_state(cache, _expand_line_touches(cache, row_addr, row_nb))

    def stats(self) -> Dict[str, CacheStats]:
        return {"l1": self.l1.stats, "l2": self.l2.stats}


def _expand_line_touches(
    cache: Cache, row_addr: np.ndarray, row_nb: np.ndarray
) -> np.ndarray:
    """The global line-number touch sequence of a warmed row stream."""
    line = cache.config.line
    first = row_addr // line
    last = (row_addr + np.maximum(row_nb, 1) - 1) // line
    cnt = last - first + 1
    total = int(cnt.sum())
    owner = np.repeat(np.arange(len(first), dtype=np.int64), cnt)
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return first[owner] + within


def _final_lru_state(cache: Cache, line_no: np.ndarray) -> None:
    """Install a touch sequence's final true-LRU tag state into ``cache``.

    After any touch sequence, each set holds the ``assoc`` distinct tags
    with the most recent last touch, ordered oldest-to-newest last touch:
    eviction only ever drops the least-recently-touched tag, so the
    survivors and their order are fully determined by last-touch times.
    Assumes the cache's sets start empty.
    """
    n_sets = cache.n_sets
    assoc = cache.config.assoc
    n_touches = len(line_no)
    if n_touches == 0:
        return
    uniq, ridx = np.unique(line_no[::-1], return_index=True)
    last_touch = n_touches - 1 - ridx
    order = np.lexsort((last_touch, uniq % n_sets))
    su = uniq[order]
    ss = su % n_sets
    new_grp = np.r_[True, ss[1:] != ss[:-1]]
    grp_start = np.flatnonzero(new_grp)
    grp_id = np.cumsum(new_grp) - 1
    grp_end = np.r_[grp_start[1:], len(ss)]
    pos_from_end = grp_end[grp_id] - np.arange(len(ss))
    keep = pos_from_end <= assoc
    sets = cache._sets
    for s_i, tag in zip(ss[keep].tolist(), (su[keep] // n_sets).tolist()):
        sets[s_i].append(tag)


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
