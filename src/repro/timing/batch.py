"""The production timing engine: one trace against a stack of configurations.

The sweep workload is exactly the paper's methodology: one dynamic trace
per (kernel, version, seed), re-timed across many machine widths and
resource ablations.  :class:`BatchCoreModel` times a whole *stack* of P
configurations sharing one trace in a single pass, mirroring
:mod:`repro.emu.batch`'s seed axis on the timing side; a single
configuration is simply a stack of one.  The work splits three ways:

* the configuration-independent trace-order walks -- the cache warm,
  the L1/L2 resolution of every memory access and the bimodal
  branch-predictor walk -- run once per stack sharing cache geometry, in
  the ``prepass`` entry point of a small C kernel (``kernel.c``);
* the per-point SIMD and port occupancies and the Fig. 6/7 category
  tallies are NumPy expressions over the columns (the helpers in
  :mod:`repro.timing.core`), widened by a leading point axis -- SoA
  ``(P, n)`` arrays;
* the genuinely order-dependent scoreboard walk (dependences, issue
  slots, FU pools, ports, ROB, commit) runs in the kernel's
  ``run_stack``, over per-point scoreboard state in flat arrays reset
  between points.

The kernel is compiled on first use with the system C compiler, cached
by source digest and driven through :mod:`ctypes`, so neither walk pays
Python interpreter cost per instruction.  Every configuration passes
:func:`~repro.timing.core.check_config` first: the kernel itself never
checks for a zero-sized pool or cache.

Stacks whose configurations disagree on cache-state geometry are split
into sub-stacks internally (masked/pivoted updates would change results,
not just cost, so sharing is only ever exact).  The engine raises
:class:`BatchTimingDivergence` for exactly two reasons --
``REPRO_TIMING_REFERENCE=1`` is set, or no timing kernel can be loaded
-- and :func:`~repro.timing.simulator.simulate_trace_stack` then times
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
    category_tallies,
    check_config,
    simd_occupancies,
    vector_access_mask,
)

#: Overrides the directory the compiled kernel is cached in.
CACHE_ENV = "REPRO_TIMING_KERNEL_CACHE"

_KERNEL_SOURCE = Path(__file__).with_name("kernel.c")

#: One configuration in a stack: the core and its memory hierarchy.
ConfigPair = Tuple[CoreConfig, MemHierConfig]


class BatchTimingDivergence(Exception):
    """The compiled engine may not or cannot time the stack.

    Raised when ``REPRO_TIMING_REFERENCE=1`` forces the record-at-a-time
    reference, or when no C compiler / loadable kernel is available.
    The caller falls back to timing each point through the reference
    :class:`~repro.timing.core.CoreModel`.
    """


# ---------------------------------------------------------------------------
# Compiled kernel: build on first use, cache by source digest.
# ---------------------------------------------------------------------------

_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")

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
        _U8, _U8,                             # fu, use_vec
        _I64, _I64, _I64, _I64,               # addr, row_bytes, rows, stride
        _U8, _U8, _I64, ctypes.c_int64,       # is_branch, taken, site, n_sites
        _I64,                                 # cache geometry and latencies
        ctypes.c_int64, ctypes.c_int64,       # warm, mem code
        _I64, _U8, _I64,                      # mem_lat, mispredict, stats out
    ]
    lib.run_stack.restype = ctypes.c_int64
    lib.run_stack.argtypes = [
        ctypes.c_int64,                       # n
        _U8, _U8, _U8,                        # fu, use_vec, mispredict
        _I64,                                 # lat
        _I64, _I64, _I64, _I64,               # src_off/src_ids/dst_off/dst_ids
        ctypes.c_int64, ctypes.c_int64,       # n_regs, P
        _I64, _I64, _I64, _I64,               # params, occ, mem_lat, mem_occ
        ctypes.c_int64,                       # cap
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # fu codes
        _I64,                                 # commits out
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
        (``REPRO_TIMING_REFERENCE=1``) or cannot (no loadable kernel)
        run, and :class:`ValueError` (from
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

        fu8 = np.ascontiguousarray(cols.fu, dtype=np.uint8)
        lat = np.ascontiguousarray(cols.latency, dtype=np.int64)
        src_off = np.ascontiguousarray(cols.src_off, dtype=np.int64)
        src_ids = np.ascontiguousarray(cols.src_ids, dtype=np.int64)
        dst_off = np.ascontiguousarray(cols.dst_off, dtype=np.int64)
        dst_ids = np.ascontiguousarray(cols.dst_ids, dtype=np.int64)
        # The kernel scoreboards register readiness in a flat array
        # indexed by SSA id.  Emulated traces number their ids densely
        # from zero; hand-built and synthetic ones may not (sparse ids,
        # or negative ones), so those are renumbered densely from zero
        # (dependences only ever compare ids for equality).
        id_cols = [ids for ids in (src_ids, dst_ids) if len(ids)]
        n_regs = max((int(ids.max()) + 1 for ids in id_cols), default=0)
        lowest = min((int(ids.min()) for ids in id_cols), default=0)
        n_src = len(src_ids)
        if lowest < 0 or n_regs > 4 * (n_src + len(dst_ids)) + 1024:
            unique_ids, dense = np.unique(
                np.concatenate([src_ids, dst_ids]), return_inverse=True
            )
            src_ids = np.ascontiguousarray(dense[:n_src], dtype=np.int64)
            dst_ids = np.ascontiguousarray(dense[n_src:], dtype=np.int64)
            n_regs = len(unique_ids)

        # --- shared pre-pass, in C: warm, cache resolution, predictor --
        use_vec = vector_access_mask(cols, core0.vector_memory)
        use_vec8 = use_vec.view(np.uint8)
        addr = np.ascontiguousarray(cols.addr, dtype=np.int64)
        rows64 = cols.rows.astype(np.int64)
        rowb64 = cols.row_bytes.astype(np.int64)
        stride64 = np.ascontiguousarray(cols.stride, dtype=np.int64)
        is_branch = np.ascontiguousarray(cols.is_branch)
        sites, site_of = np.unique(cols.pc[is_branch], return_inverse=True)
        site = np.zeros(n, dtype=np.int64)
        site[is_branch] = site_of
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
            n, fu8, use_vec8, addr, rowb64, rows64, stride64,
            is_branch.view(np.uint8),
            np.ascontiguousarray(cols.taken).view(np.uint8),
            site, len(sites), geometry, int(warm), _MEM_CODE,
            mem_lat, mis8, stats,
        ):
            raise MemoryError("timing kernel allocation failed")
        (l1_accesses, l1_misses, l2_accesses, l2_misses,
         branch_lookups, branch_mispredicts) = stats.tolist()

        # --- per-point derivations, widened by the point axis ----------
        P = len(specs)
        scalar_bytes = np.maximum(rowb64, 1)
        unit_stride = stride64 == rowb64
        elements = rows64 * np.maximum(1, -(-rowb64 // 8))
        occ = np.empty((P, n), dtype=np.int64)
        mem_occ = np.empty((P, n), dtype=np.int64)
        params = np.empty((P, 11), dtype=np.int64)
        for p, (core, mem) in enumerate(specs):
            occ[p] = simd_occupancies(cols, core)
            # Port occupancies, mirroring the oracle's scalar_access and
            # vector_access: scalar/MMX accesses move l1.port_bytes per
            # cycle; unit-stride vector accesses move l2.port_bytes per
            # cycle; other strides move strided_rows_per_cycle element
            # rows.
            occ_scalar = np.maximum(1, -(-scalar_bytes // mem.l1.port_bytes))
            if use_vec.any():
                occ_unit = np.maximum(1, -(-(rows64 * rowb64) // mem.l2.port_bytes))
                occ_str = np.maximum(
                    1, (elements / mem.strided_rows_per_cycle).astype(np.int64)
                )
                mem_occ[p] = np.where(
                    use_vec, np.where(unit_stride, occ_unit, occ_str), occ_scalar
                )
            else:
                mem_occ[p] = occ_scalar
            params[p] = (
                core.fetch_width, core.rob_size, core.commit_width,
                core.branch_penalty, core.int_fus, core.fp_fus,
                core.simd_issue, core.simd_fu_groups, core.mem_ports,
                mem.l2.ports, core.simd_inflight,
            )

        # --- the constraint loops, in C --------------------------------
        commits = np.zeros((P, max(n, 1)), dtype=np.int64)
        if n:
            cap = 4 * n + 2048
            while True:
                rc = lib.run_stack(
                    n, fu8, use_vec8, mis8, lat, src_off, src_ids, dst_off,
                    dst_ids, n_regs, P, params, occ, mem_lat, mem_occ, cap,
                    _MEM_CODE, _SIMD_CODE, _INT_CODE, commits,
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
        results = []
        for p, (core, _mem) in enumerate(specs):
            point_commits = commits[p, :n]
            cat_instrs, cat_cycles = category_tallies(cols.category, point_commits)
            results.append(
                SimResult(
                    config_name=core.name,
                    cycles=int(point_commits[-1]) if n else 0,
                    instructions=n,
                    cat_instructions=cat_instrs,
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


__all__ = [
    "CACHE_ENV",
    "BatchCoreModel",
    "BatchTimingDivergence",
    "load_kernel",
]
