"""Constraint-based out-of-order core timing model (the Jinks substitute).

Cycle-by-cycle simulation is impractical in Python at the paper's scale,
so this model applies, per dynamic instruction, every *binding constraint*
of the Table III machines in O(1) amortised time:

* in-order fetch of ``fetch_width`` per cycle, stalled by branch
  mispredictions (bimodal predictor + refill penalty) and by re-order
  buffer / physical-register occupancy;
* data dependences through exact SSA register identities;
* a total issue width plus per-class functional-unit pools: integer, FP,
  SIMD issue slots, and SIMD units that a matrix instruction occupies for
  ``ceil(rows / lanes)`` cycles (the vector-lane model of Fig. 2);
* memory ports: scalar and MMX accesses occupy L1 ports (8 bytes/cycle
  each); VMMX matrix accesses occupy the single L2 vector-cache port at
  full width for stride-one and one row per cycle otherwise;
* in-order commit of ``commit_width`` per cycle.

The model has one production engine and one oracle:

* the compiled engine, :class:`~repro.timing.batch.BatchCoreModel`,
  reads the narrow columns of the columnar trace IR
  (:mod:`repro.isa.trace`) in place.  Its C kernel's pre-pass runs the
  configuration-independent trace-order walks -- the cache warm, the
  L1/L2 resolution of every access and the branch-predictor walk --
  once per cache-compatible stack; its constraint walk derives each
  point's SIMD and port occupancies, resolves the genuinely
  order-dependent resources (dependences, issue slots, ports, ROB,
  commit) and tallies the Fig. 6 cycles per pool row.  The split is
  legal because cache and predictor state evolve in *trace order*,
  independent of the issue cycles the constraint walk assigns;
* :class:`CoreModel` walks every constraint one record at a time.  It
  is the executable specification the engine is differentially tested
  against, and the fallback when ``REPRO_TIMING_REFERENCE=1`` is set or
  no timing kernel can be loaded.

Each committed instruction attributes the cycles since the previous
commit to its category, which yields the scalar/vector cycle breakdown of
the paper's Fig. 6 directly.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.isa.opcodes import Category, FUClass
from repro.isa.trace import CAT_CODE, FU_CODE
from repro.machines.spec import CoreConfig, MemHierConfig
from repro.timing.caches import BimodalPredictor, MemoryHierarchy

#: Environment variable forcing every simulation through the
#: record-at-a-time :class:`CoreModel` (``1`` makes the compiled engine
#: refuse to run).
REFERENCE_ENV = "REPRO_TIMING_REFERENCE"

_MEM_CODE = FU_CODE[FUClass.MEM]
_SIMD_CODE = FU_CODE[FUClass.SIMD]
_INT_CODE = FU_CODE[FUClass.INT]
_VMEM_CODE = CAT_CODE[Category.VMEM]


@dataclass
class SimResult:
    """Timing-simulation outcome for one trace on one configuration."""

    config_name: str
    cycles: int
    instructions: int
    cat_instructions: Dict[str, int] = field(default_factory=dict)
    cat_cycles: Dict[str, int] = field(default_factory=dict)
    branch_lookups: int = 0
    branch_mispredicts: int = 0
    l1_accesses: int = 0
    l1_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def scalar_cycles(self) -> int:
        return sum(
            self.cat_cycles.get(cat, 0) for cat in ("smem", "sarith", "sctrl")
        )

    @property
    def vector_cycles(self) -> int:
        return sum(self.cat_cycles.get(cat, 0) for cat in ("vmem", "varith"))


#: Core fields that size a pool, a ring or a divisor: each must be >= 1.
_CORE_COUNTS = (
    "fetch_width", "commit_width", "int_fus", "fp_fus", "simd_issue",
    "simd_fu_groups", "lanes", "mem_ports", "rob_size",
)
#: The same, per cache level (``size`` is also checked against one set).
_LEVEL_COUNTS = ("size", "ports", "port_bytes", "line", "assoc")


def _require(name: str, value, least, strict: bool = False) -> None:
    try:
        ok = (least < value if strict else least <= value) and value < math.inf
    except TypeError:
        ok = False
    if not ok:
        bound = f"> {least}" if strict else f">= {least}"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


def check_config(config: CoreConfig, mem: MemHierConfig) -> None:
    """Refuse a configuration the timing model cannot time.

    Every unit count, port count, ring size and cache geometry field
    must be at least 1, each cache level must hold at least one set
    (``size >= line * assoc``), the strided vector rate must be positive,
    and latencies, the branch penalty and the vector start-up must not
    be negative.  Every value must be a finite number; floats are
    accepted (``lanes=4.0`` times as 4).

    Raises :class:`ValueError` naming the field and its value.  The
    compiled engine runs this before every stack, so its kernel never
    divides by zero or indexes an empty pool;
    :func:`repro.sweep.engine.resolve_configs` runs it on overridden
    points, so a bad override is refused when a point is keyed.
    """
    for name in _CORE_COUNTS:
        _require(name, getattr(config, name), 1)
    _require("branch_penalty", config.branch_penalty, 0)
    _require("vector_startup", config.vector_startup, 0)
    for prefix, level in (("l1", mem.l1), ("l2", mem.l2)):
        for name in _LEVEL_COUNTS:
            _require(f"{prefix}.{name}", getattr(level, name), 1)
        _require(f"{prefix}.latency", level.latency, 0)
        if level.size < level.line * level.assoc:
            raise ValueError(
                f"{prefix}.size must be at least line x assoc = "
                f"{level.line * level.assoc}, got {level.size!r}"
            )
    _require("main_latency", mem.main_latency, 0)
    _require("strided_rows_per_cycle", mem.strided_rows_per_cycle, 0, strict=True)


def default_mem_config(config: CoreConfig) -> MemHierConfig:
    """The registry hierarchy of ``config``'s machine at its width.

    Registered machine names (including non-paper widths such as
    16-way) resolve through :func:`repro.machines.get_machine`;
    ad-hoc names fall back to the paper hierarchy of the width.
    """
    from repro.machines import get_machine, is_registered

    name = config.isa if is_registered(config.isa) else "mmx64"
    return get_machine(name, config.way).mem


class CoreModel:
    """Record-at-a-time timing model for one processor configuration.

    The executable specification of the timing model: the compiled
    engine (:class:`~repro.timing.batch.BatchCoreModel`) must produce the
    same :class:`SimResult`, cycle for cycle.
    """

    def __init__(
        self, config: CoreConfig, mem_config: Optional[MemHierConfig] = None
    ) -> None:
        self.config = config
        self.mem_config = mem_config or default_mem_config(config)
        self.hier = MemoryHierarchy(self.mem_config)
        self.bpred = BimodalPredictor()
        #: Capability, not a name check: machines whose geometry declares
        #: the matrix flag route SIMD memory through the vector cache.
        self.vector_memory = config.vector_memory

    def run(self, trace) -> SimResult:
        """Time one dynamic trace (columnar IR or any record iterable)."""
        cfg = self.config
        reg_ready: Dict[int, int] = {}
        issue_total: Dict[int, int] = defaultdict(int)
        class_count: Dict[int, int] = defaultdict(int)  # keyed (cycle, class) packed
        simd_units = [0] * cfg.simd_fu_groups
        l1_ports = [0] * cfg.mem_ports
        l2_ports = [0] * self.mem_config.l2.ports
        rob_size = cfg.rob_size
        commit_ring = [0] * rob_size
        simd_ring = [0] * cfg.simd_inflight
        simd_writes = 0
        fetch_cycle = 1
        fetched = 0
        fetch_barrier = 0
        last_commit = 0
        n = 0
        cat_instrs: Dict[str, int] = defaultdict(int)
        cat_cycles: Dict[str, int] = defaultdict(int)
        vector_mem = self.vector_memory

        for rec in trace:
            # ----- fetch / dispatch --------------------------------------
            if fetch_cycle < fetch_barrier:
                fetch_cycle = fetch_barrier
                fetched = 0
            if fetched >= cfg.fetch_width:
                fetch_cycle += 1
                fetched = 0
                if fetch_cycle < fetch_barrier:
                    fetch_cycle = fetch_barrier
            # ROB occupancy: instruction i needs instr (i - rob_size) gone.
            rob_free = commit_ring[n % rob_size] + 1 if n >= rob_size else 0
            if rob_free > fetch_cycle:
                fetch_cycle = rob_free
                fetched = 0
            # SIMD physical registers: writers in flight are bounded.
            if rec.fu is FUClass.SIMD and rec.dsts:
                if simd_writes >= cfg.simd_inflight:
                    free_at = simd_ring[simd_writes % cfg.simd_inflight] + 1
                    if free_at > fetch_cycle:
                        fetch_cycle = free_at
                        fetched = 0
            dispatch = fetch_cycle
            fetched += 1

            # ----- operand ready ------------------------------------------
            ready = dispatch
            for src in rec.srcs:
                when = reg_ready.get(src)
                if when is not None and when > ready:
                    ready = when

            # ----- issue: total width, class slots, unit occupancy --------
            fu = rec.fu
            t = ready
            if fu is FUClass.MEM:
                if vector_mem and rec.category is Category.VMEM:
                    access = self.hier.vector_access(
                        rec.addr, rec.row_bytes, rec.rows, rec.stride
                    )
                    ports = l2_ports
                else:
                    access = self.hier.scalar_access(rec.addr, max(rec.row_bytes, 1))
                    ports = l1_ports
                while True:
                    if issue_total[t] >= cfg.fetch_width:
                        t += 1
                        continue
                    port = min(range(len(ports)), key=ports.__getitem__)
                    if ports[port] > t:
                        t = ports[port]
                        continue
                    break
                ports[port] = t + access.occupancy
                complete = t + access.latency + access.occupancy - 1
            elif fu is FUClass.SIMD:
                occupancy = max(1, -(-rec.rows // cfg.lanes))
                if rec.rows > 1:
                    occupancy += cfg.vector_startup
                while True:
                    if issue_total[t] >= cfg.fetch_width:
                        t += 1
                        continue
                    key = t * 4 + 2
                    if class_count[key] >= cfg.simd_issue:
                        t += 1
                        continue
                    unit = min(range(len(simd_units)), key=simd_units.__getitem__)
                    if simd_units[unit] > t:
                        t = simd_units[unit]
                        continue
                    break
                class_count[t * 4 + 2] += 1
                simd_units[unit] = t + occupancy
                complete = t + rec.latency + occupancy - 1
            else:
                cap = cfg.int_fus if fu is FUClass.INT else cfg.fp_fus
                ckey = 0 if fu is FUClass.INT else 1
                while True:
                    if issue_total[t] >= cfg.fetch_width:
                        t += 1
                        continue
                    if class_count[t * 4 + ckey] >= cap:
                        t += 1
                        continue
                    break
                class_count[t * 4 + ckey] += 1
                complete = t + rec.latency
            issue_total[t] += 1

            # ----- branches -----------------------------------------------
            if rec.is_branch:
                correct = self.bpred.predict_and_update(rec.pc, rec.taken)
                if not correct:
                    resolve = complete
                    barrier = resolve + cfg.branch_penalty
                    if barrier > fetch_barrier:
                        fetch_barrier = barrier

            # ----- writeback ----------------------------------------------
            for dst in rec.dsts:
                reg_ready[dst] = complete

            # ----- in-order commit ----------------------------------------
            commit = complete
            if commit < last_commit:
                commit = last_commit
            if n >= cfg.commit_width:
                floor = commit_ring[(n - cfg.commit_width) % rob_size] + 1
                if commit < floor:
                    commit = floor
            commit_ring[n % rob_size] = commit
            if rec.fu is FUClass.SIMD and rec.dsts:
                simd_ring[simd_writes % cfg.simd_inflight] = commit
                simd_writes += 1
            cat = rec.category.value
            cat_instrs[cat] += 1
            cat_cycles[cat] += commit - last_commit
            last_commit = commit
            n += 1

        hier_stats = self.hier.stats()
        return SimResult(
            config_name=cfg.name,
            cycles=last_commit,
            instructions=n,
            cat_instructions=dict(cat_instrs),
            cat_cycles=dict(cat_cycles),
            branch_lookups=self.bpred.lookups,
            branch_mispredicts=self.bpred.mispredicts,
            l1_accesses=hier_stats["l1"].accesses,
            l1_misses=hier_stats["l1"].misses,
            l2_accesses=hier_stats["l2"].accesses,
            l2_misses=hier_stats["l2"].misses,
        )
