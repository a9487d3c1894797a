"""The production timing engine: one trace against a stack of configurations.

The sweep workload is exactly the paper's methodology: one dynamic trace
per (kernel, version, seed), re-timed across many machine widths and
resource ablations.  :class:`BatchCoreModel` times a whole *stack* of P
configurations sharing one trace in a single pass, mirroring
:mod:`repro.emu.batch`'s seed axis on the timing side; a single
configuration is simply a stack of one.  A small C kernel
(``kernel.c``) reads the trace's narrow columns and its descriptor
pool's per-row tables in place -- no column is copied or widened per
stack -- and the work splits two ways:

* the configuration-independent trace-order walks -- the cache warm,
  the L1/L2 resolution of every memory access and the bimodal
  branch-predictor walk -- run once per stack sharing cache geometry,
  in the kernel's ``prepass`` entry point;
* the genuinely order-dependent scoreboard walk (dependences, issue
  slots, FU pools, ports, ROB, commit) runs per point in the kernel's
  ``run_stack``, which derives the point's SIMD and port occupancies
  from its parameters as it goes and tallies the cycles committed per
  pool row, from which the Fig. 6/7 category tallies are summed.

What the kernel needs from the trace alone -- the span of its SSA ids,
its branch sites, its category order -- is computed once per trace
(:meth:`~repro.isa.trace.ColumnarTrace.register_ids`,
:meth:`~repro.isa.trace.ColumnarTrace.branch_sites`,
:meth:`~repro.isa.trace.ColumnarTrace.category_instructions`), not per
stack.  The kernel is compiled on first use with the system C compiler,
cached by source digest and driven through :mod:`ctypes`, so neither
walk pays Python interpreter cost per instruction.  Every configuration
passes :func:`~repro.timing.core.check_config` first: the kernel itself
never checks for a zero-sized pool or cache.

Stacks whose configurations disagree on cache-state geometry are split
into sub-stacks internally (masked/pivoted updates would change results,
not just cost, so sharing is only ever exact).  The engine raises
:class:`BatchTimingDivergence` for exactly three reasons --
``REPRO_TIMING_REFERENCE=1`` is set, no timing kernel can be loaded, or
a configuration holds a count the kernel cannot time exactly (a
non-integral width, ring, pool, lane count, start-up or port width) --
and :func:`~repro.timing.simulator.simulate_trace_stack` then times
each point through the record-at-a-time
:class:`~repro.timing.core.CoreModel`, the oracle, with its
:class:`~repro.timing.caches.MemoryHierarchy` and
:class:`~repro.timing.caches.BimodalPredictor`.  The differential
suites (``tests/test_batch_timing.py``,
``tests/test_timing_reference.py``) pin value-identical
:class:`~repro.timing.core.SimResult`\\ s against that oracle.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.machines.spec import CoreConfig, MemHierConfig
from repro.timing.core import (
    REFERENCE_ENV,
    SimResult,
    _INT_CODE,
    _MEM_CODE,
    _SIMD_CODE,
    _VMEM_CODE,
    check_config,
)

#: Overrides the directory the compiled kernel is cached in.
CACHE_ENV = "REPRO_TIMING_KERNEL_CACHE"

_KERNEL_SOURCE = Path(__file__).with_name("kernel.c")

#: One configuration in a stack: the core and its memory hierarchy.
ConfigPair = Tuple[CoreConfig, MemHierConfig]


class BatchTimingDivergence(Exception):
    """The compiled engine may not or cannot time the stack.

    Raised when ``REPRO_TIMING_REFERENCE=1`` forces the record-at-a-time
    reference, when no C compiler / loadable kernel is available, or
    when a configuration holds a non-integral count.  The caller falls
    back to timing each point through the reference
    :class:`~repro.timing.core.CoreModel`.
    """


# ---------------------------------------------------------------------------
# Compiled kernel: build on first use, cache by source digest.
# ---------------------------------------------------------------------------

def _array(dtype) -> type:
    return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")


#: The per-stack arrays pass through the checked conversion; a trace's
#: columns pass as the raw pointers the trace took once
#: (:meth:`~repro.isa.trace.ColumnarTrace.pointers`).
_I64, _U8, _F64 = _array(np.int64), _array(np.uint8), _array(np.float64)
_PTR = ctypes.c_void_p

_lib: Optional[ctypes.CDLL] = None
_lib_error: Optional[BaseException] = None


def _cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "timing-kernel"


def _compile_and_load() -> ctypes.CDLL:
    source = _KERNEL_SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    so_path = _cache_dir() / f"kernel-{digest}.so"
    if not so_path.exists():
        compiler = shutil.which("gcc") or shutil.which("cc")
        if compiler is None:
            raise RuntimeError("no C compiler (gcc/cc) on PATH")
        so_path.parent.mkdir(parents=True, exist_ok=True)
        # Compile to a private temp file, then atomically publish: sweep
        # workers racing to build the same kernel each install a
        # complete artifact.
        fd, tmp = tempfile.mkstemp(dir=so_path.parent, suffix=".so")
        os.close(fd)
        try:
            subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC",
                 "-o", tmp, str(_KERNEL_SOURCE)],
                check=True,
                capture_output=True,
            )
            os.replace(tmp, so_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(so_path))
    lib.prepass.restype = ctypes.c_int64
    lib.prepass.argtypes = [
        ctypes.c_int64,                       # n
        _PTR, _PTR, _U8, _PTR,                # op; pool fu, vec, branch
        _PTR, _PTR, _PTR, _PTR,               # addr, row_bytes, rows, stride
        _PTR, _PTR, ctypes.c_int64, ctypes.c_int64,  # taken, site, base, n_sites
        _I64,                                 # cache geometry and latencies
        ctypes.c_int64, ctypes.c_int64,       # warm, mem code
        _I64, _U8, _I64,                      # mem_lat, mispredict, stats out
    ]
    lib.run_stack.restype = ctypes.c_int64
    lib.run_stack.argtypes = [
        ctypes.c_int64,                       # n
        _PTR, _PTR, _PTR, _U8, ctypes.c_int64,  # op; pool fu, lat, vec, size
        _PTR, _PTR, _PTR,                     # row_bytes, rows, stride
        _PTR, _PTR, _PTR, _PTR,               # n_src, src_ids, n_dst, dst_ids
        ctypes.c_int64, ctypes.c_int64,       # reg base, n_regs
        _U8, _I64,                            # mispredict, mem_lat
        ctypes.c_int64, _I64, _F64,           # P, params, strided rates
        ctypes.c_int64,                       # cap
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # fu codes
        _I64, _I64,                           # row_cycles, cycles out
    ]
    return lib


def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled constraint-loop kernel, or ``None`` if unbuildable.

    The first failure is remembered: a host without a compiler pays the
    probe once per process, not once per stack.  It is also announced
    once, with a :class:`RuntimeWarning`: every simulation then runs on
    the record-at-a-time reference, which is about 40x slower.
    """
    global _lib, _lib_error
    if _lib is None and _lib_error is None:
        try:
            _lib = _compile_and_load()
        except BaseException as exc:  # noqa: BLE001 -- any failure => fallback
            _lib_error = exc
            warnings.warn(
                f"timing kernel unavailable ({exc!r}); timing now runs on "
                "the record-at-a-time reference model, about 40x slower",
                RuntimeWarning,
                stacklevel=2,
            )
    return _lib


# ---------------------------------------------------------------------------
# The batch model.
# ---------------------------------------------------------------------------

def _shared_state_key(core: CoreConfig, mem: MemHierConfig):
    """What must agree for two points to share one cache/branch pre-pass.

    Hit/miss resolution (hence access latencies and cache statistics)
    depends on the tag geometry, the level latencies and which accesses
    take the vector path; port *occupancies* are per-point NumPy
    expressions and may differ freely within a sub-stack.
    """
    return (
        core.vector_memory,
        mem.l1.size, mem.l1.line, mem.l1.assoc, mem.l1.latency,
        mem.l2.size, mem.l2.line, mem.l2.assoc, mem.l2.latency,
        mem.main_latency,
    )


class BatchCoreModel:
    """Times one trace against a stack of configurations in one pass.

    ``specs`` is a sequence of ``(CoreConfig, MemHierConfig)`` pairs --
    the same pair the reference :class:`~repro.timing.core.CoreModel`
    takes -- typically the resolved configurations of every sweep point
    sharing a trace key.  :meth:`run` returns one
    :class:`~repro.timing.core.SimResult` per pair, in order,
    value-identical to timing each pair through a fresh reference model.
    """

    def __init__(self, specs: Sequence[ConfigPair]) -> None:
        self.specs = list(specs)

    def run(self, trace, warm: bool = True) -> List[SimResult]:
        """Time ``trace`` on every configuration of the stack.

        Raises :class:`BatchTimingDivergence` when the engine may not
        (``REPRO_TIMING_REFERENCE=1``) or cannot (no loadable kernel, a
        non-integral count) run, and :class:`ValueError` (from
        :func:`~repro.timing.core.check_config`) for a configuration the
        model cannot time.
        """
        for core, mem in self.specs:
            check_config(core, mem)
        if os.environ.get(REFERENCE_ENV, "") == "1":
            raise BatchTimingDivergence(
                f"{REFERENCE_ENV}=1 forces the record-at-a-time reference"
            )
        lib = load_kernel()
        if lib is None:
            raise BatchTimingDivergence(f"timing kernel unavailable: {_lib_error}")
        if not self.specs:
            return []

        cols = trace.columns()
        # One sub-stack per cache-state signature: sharing the memory
        # and branch pre-pass is only sound where it is exact.
        groups: dict = {}
        for idx, (core, mem) in enumerate(self.specs):
            groups.setdefault(_shared_state_key(core, mem), []).append(idx)
        results: List[Optional[SimResult]] = [None] * len(self.specs)
        for indices in groups.values():
            subspecs = [self.specs[i] for i in indices]
            for i, result in zip(indices, self._run_stack(lib, cols, subspecs, warm)):
                results[i] = result
        return results  # type: ignore[return-value]

    # -- one cache-compatible sub-stack ---------------------------------

    def _run_stack(
        self, lib, cols, specs: Sequence[ConfigPair], warm: bool
    ) -> List[SimResult]:
        n = len(cols)
        core0, mem0 = specs[0]
        params = np.array([_params(core, mem) for core, mem in specs], dtype=np.int64)
        rates = np.array(
            [mem.strided_rows_per_cycle for _core, mem in specs], dtype=np.float64
        )
        # The kernel reads the trace's columns as they are, through the
        # pointers the trace took once; the facts below are the trace's
        # own, computed once per trace.
        ptr = cols.pointers()
        _, _, reg_base, n_regs = cols.register_ids()
        _, site_base, n_sites = cols.branch_sites()
        pool_vec = cols.op_fu == _MEM_CODE
        pool_vec &= cols.op_category == _VMEM_CODE
        pool_vec &= core0.vector_memory

        # --- shared pre-pass, in C: warm, cache resolution, predictor --
        l1, l2 = mem0.l1, mem0.l2
        geometry = np.array(
            [l1.size // (l1.line * l1.assoc), l1.assoc, l1.line, l1.latency,
             l2.size // (l2.line * l2.assoc), l2.assoc, l2.line, l2.latency,
             mem0.main_latency],
            dtype=np.int64,
        )
        mem_lat = np.empty(n, dtype=np.int64)
        mis8 = np.empty(n, dtype=np.uint8)
        stats = np.zeros(6, dtype=np.int64)
        if lib.prepass(
            n, ptr["name_id"], ptr["op_fu"], pool_vec.view(np.uint8),
            ptr["op_is_branch"], ptr["addr"], ptr["row_bytes"], ptr["rows"],
            ptr["stride"], ptr["taken"], ptr["site"],
            site_base, n_sites, geometry, int(warm), _MEM_CODE,
            mem_lat, mis8, stats,
        ):
            raise MemoryError("timing kernel allocation failed")
        (l1_accesses, l1_misses, l2_accesses, l2_misses,
         branch_lookups, branch_mispredicts) = stats.tolist()

        # --- the constraint loops, in C --------------------------------
        P = len(specs)
        n_pool = len(cols.pool)
        row_cycles = np.zeros((P, n_pool), dtype=np.int64)
        cycles = np.zeros(P, dtype=np.int64)
        if n:
            cap = 4 * n + 2048
            while True:
                rc = lib.run_stack(
                    n, ptr["name_id"], ptr["op_fu"], ptr["op_latency"],
                    pool_vec.view(np.uint8), n_pool, ptr["row_bytes"], ptr["rows"],
                    ptr["stride"], ptr["n_src"], ptr["src_ids"], ptr["n_dst"],
                    ptr["dst_ids"],
                    reg_base, n_regs, mis8, mem_lat, P, params, rates, cap,
                    _MEM_CODE, _SIMD_CODE, _INT_CODE, row_cycles, cycles,
                )
                if rc == 0:
                    break
                if rc == -1:
                    # An issue cycle outran the scoreboard window (long
                    # chains of main-memory misses); widen and re-run,
                    # as the reference's per-cycle counters are unbounded.
                    cap *= 2
                    continue
                raise MemoryError("timing kernel allocation failed")

        # --- per-point results -----------------------------------------
        # Each category's cycles are its pool rows' cycles; categories
        # keep the first-occurrence order of the pool.
        cat_instrs = cols.category_instructions()
        row_category = [category.value for _, category, *_ in cols.pool]
        results = []
        for (core, _mem), point_cycles, point_rows in zip(
            specs, cycles.tolist(), row_cycles.tolist()
        ):
            cat_cycles = dict.fromkeys(cat_instrs, 0)
            for category, spent in zip(row_category, point_rows):
                cat_cycles[category] += spent
            results.append(
                SimResult(
                    config_name=core.name,
                    cycles=point_cycles,
                    instructions=n,
                    cat_instructions=dict(cat_instrs),
                    cat_cycles=cat_cycles,
                    branch_lookups=branch_lookups,
                    branch_mispredicts=branch_mispredicts,
                    l1_accesses=l1_accesses,
                    l1_misses=l1_misses,
                    l2_accesses=l2_accesses,
                    l2_misses=l2_misses,
                )
            )
        return results


def _integral(name: str, value) -> int:
    """``value`` as an int; the kernel times integral parameters only,
    so any other value sends the stack to the reference model."""
    as_int = int(value)
    if as_int != value:
        raise BatchTimingDivergence(
            f"{name}={value!r} is not integral; the reference model times it"
        )
    return as_int


def _params(core: CoreConfig, mem: MemHierConfig) -> List[int]:
    """One point's row of the kernel's ``params`` (``NPARAMS`` in kernel.c)."""
    fields = (
        ("fetch_width", core.fetch_width), ("rob_size", core.rob_size),
        ("commit_width", core.commit_width),
        ("branch_penalty", core.branch_penalty), ("int_fus", core.int_fus),
        ("fp_fus", core.fp_fus), ("simd_issue", core.simd_issue),
        ("simd_fu_groups", core.simd_fu_groups), ("mem_ports", core.mem_ports),
        ("l2.ports", mem.l2.ports), ("simd_inflight", core.simd_inflight),
        ("lanes", core.lanes), ("vector_startup", core.vector_startup),
        ("l1.port_bytes", mem.l1.port_bytes), ("l2.port_bytes", mem.l2.port_bytes),
    )
    return [_integral(name, value) for name, value in fields]


__all__ = [
    "CACHE_ENV",
    "BatchCoreModel",
    "BatchTimingDivergence",
    "load_kernel",
]
