"""Application timing composition: profiles -> cycles per (ISA, way).

The paper simulates whole applications; we compose application time from
two regions, exactly following its §IV-B/C analysis:

* the *vector region*: every kernel invocation is priced with the cycles
  of the simulated kernel trace on the target (ISA, way) machine -- these
  traces include the kernels' own residual scalar overhead (pointer
  updates, loop branches), which stays attributed to scalar cycles just
  as the paper's Fig. 6 accounting does;
* the *scalar region*: the profiled scalar instruction tallies are priced
  with the IPC of a synthetic scalar trace (same category mix, realistic
  dependence/branch/memory behaviour) simulated on the same core model --
  identical across the four extensions of a machine width, which is why
  the white bars of Fig. 6 only shrink with the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.apps.profile import AppProfile
from repro.isa.opcodes import Category, FUClass, Latency
from repro.isa.trace import CAT_CODE, FU_CODE, ColumnarTrace
from repro.machines import get_machine
from repro.machines.spec import core_config_to_dict
from repro.timing.simulator import KernelTiming, simulate_kernel, simulate_trace

#: Where a composition reads one kernel timing, called with
#: :func:`~repro.timing.simulator.simulate_kernel`'s ``(kernel, version,
#: way, machine=...)``: that function by default, or a sweep report's
#: lookup, which raises :class:`KeyError` for a point outside its grid.
KernelLookup = Callable[..., KernelTiming]

#: Size of the synthetic scalar trace used to estimate scalar-region IPC.
SCALAR_TRACE_LEN = 24_000

#: Per-kind column values of the synthetic scalar trace, indexed by the
#: kind draw: 0 = load, 1 = branch, 2 = ALU operation.
_KIND_NAMES = ("ld", "br", "alu")
_KIND_CATEGORY = np.array(
    [CAT_CODE[Category.SMEM], CAT_CODE[Category.SCTRL], CAT_CODE[Category.SARITH]],
    dtype=np.uint8,
)
_KIND_FU = np.array(
    [FU_CODE[FUClass.MEM], FU_CODE[FUClass.INT], FU_CODE[FUClass.INT]],
    dtype=np.uint8,
)
_KIND_LATENCY = np.array([0, Latency.BRANCH, Latency.INT_ALU], dtype=np.int32)

#: How many of the latest produced values a source may reach back to.
_DEP_WINDOW = 64


def _offsets(mask: np.ndarray) -> np.ndarray:
    """CSR offsets for one optional register id per record."""
    return np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))


def make_scalar_trace(
    smem_frac: float, sctrl_frac: float, seed: int = 7, length: int = SCALAR_TRACE_LEN
) -> ColumnarTrace:
    """A synthetic scalar trace with a given category mix.

    Dependences have geometric distance (plentiful but finite ILP),
    branches are 85%-taken loop-shaped over 16 static sites, and loads
    walk a 24KB working set with a 3% L2-resident tail -- the behaviour
    of the protocol/entropy-coding scalar code around the kernels.

    The columns are built directly from the random draws.  Loads and
    ALU operations each produce one SSA value; a source is the value
    produced ``dist`` producers back (the seed id 0 standing before the
    first), or nothing when ``dist`` reaches past the seed or the 64
    latest values.

    SSA ids keep a quirk the goldens depend on: each producer takes the
    next id and each branch gives one back, so the producer after a
    branch reuses the latest id (an older one after several branches in
    a row), and a trace that opens with branches numbers its first
    producers 0, -1, ...  fig5, fig5x, fig5v and fig6 were measured on
    exactly this stream, so changing the generator is a model change
    that needs ``--regen-goldens``.
    """
    rng = np.random.default_rng(seed)
    kinds = rng.choice(
        3, size=length, p=[smem_frac, sctrl_frac, 1.0 - smem_frac - sctrl_frac]
    )
    dep_dist = rng.geometric(0.18, size=length)
    taken = rng.random(length) < 0.85
    is_l2 = rng.random(length) < 0.03      # L2-resident tail (tables)
    is_mem = rng.random(length) < 0.002    # streaming compulsory misses
    addr_wave = rng.integers(0, 24 * 1024, size=length)
    addr_l2 = rng.integers(0, 256 * 1024, size=length)
    sites = rng.integers(1, 17, size=length)

    is_ld = kinds == 0
    is_br = kinds == 1
    produces = ~is_br
    producers_before = np.cumsum(produces) - produces
    # 1 + producers before it - branches before it.
    ssa = 1 + 2 * producers_before - np.arange(length)
    # window[j + 1] is producer j's id; window[0] is the seed id.
    window = np.concatenate(([0], ssa[produces]))
    has_src = dep_dist <= np.minimum(producers_before + 1, _DEP_WINDOW)
    src_ids = window[(producers_before + 1 - dep_dist)[has_src]]

    # Streaming misses walk forward 128 bytes per miss from 4MB.
    stream = 4 * 1024 * 1024 + 128 * np.cumsum(is_ld & is_mem)
    addr = np.where(is_mem, stream, np.where(is_l2, addr_l2, addr_wave))

    # The mnemonic pool in first-appearance order, as a builder interns it.
    kinds_present, first = np.unique(kinds, return_index=True)
    pool_order = kinds_present[np.argsort(first)]
    name_of_kind = np.zeros(len(_KIND_NAMES), dtype=np.uint32)
    name_of_kind[pool_order] = np.arange(len(pool_order))

    return ColumnarTrace(
        f"scalar-mix-{smem_frac:.2f}-{sctrl_frac:.2f}",
        tuple(_KIND_NAMES[k] for k in pool_order),
        name_id=name_of_kind[kinds],
        category=_KIND_CATEGORY[kinds],
        fu=_KIND_FU[kinds],
        latency=_KIND_LATENCY[kinds],
        addr=np.where(is_ld, 64 + addr, -1),
        row_bytes=np.where(is_ld, 4, 0).astype(np.int32),
        rows=np.ones(length, dtype=np.int32),
        stride=np.zeros(length, dtype=np.int64),
        pc=np.where(is_br, sites, 0),
        is_store=np.zeros(length, dtype=bool),
        is_branch=is_br,
        taken=is_br & taken,
        src_off=_offsets(has_src),
        src_ids=src_ids,
        dst_off=_offsets(produces),
        dst_ids=ssa[produces],
    )


def scalar_ipc(way: int, smem_frac_pct: int, sctrl_frac_pct: int) -> float:
    """IPC of the synthetic scalar mix on a ``way``-wide core.

    Memoised in process and persisted in the result store (keyed by the
    resolved core configuration and the simulator code digest), so warm
    runs of the application experiments skip the synthetic-trace
    simulations entirely.
    """
    from repro.sweep.store import (
        MEMO,
        default_store,
        load_payload,
        memo_key,
        memoise,
        record_key,
        save_payload,
    )

    store = default_store()
    memo = memo_key(store, "scalar-ipc", (way, smem_frac_pct, sctrl_frac_pct))
    hit = MEMO.get(memo)
    if hit is not None:
        return hit
    # Scalar resources depend only on the width; resolve through the
    # registry so non-paper ways (e.g. 16) derive from the curves.
    config = get_machine("mmx64", way).core
    key = None
    if store is not None:
        key = record_key(
            "scalar-ipc",
            {
                "way": way,
                "smem_pct": smem_frac_pct,
                "sctrl_pct": sctrl_frac_pct,
                "trace_len": SCALAR_TRACE_LEN,
                "config": core_config_to_dict(config),
            },
        )
        stored = load_payload(store, key)
        if stored is not None:
            return memoise(memo, float(stored["ipc"]))
    trace = make_scalar_trace(smem_frac_pct / 100.0, sctrl_frac_pct / 100.0)
    result = simulate_trace(trace, config)
    if key is not None:
        save_payload(store, "scalar-ipc", key, {"ipc": result.ipc})
    return memoise(memo, result.ipc)


@dataclass
class AppTiming:
    """Composed cycles for one application on one (ISA, way) machine."""

    app: str
    isa: str
    way: int
    scalar_region_cycles: float
    kernel_scalar_cycles: float
    kernel_vector_cycles: float

    @property
    def scalar_cycles(self) -> float:
        return self.scalar_region_cycles + self.kernel_scalar_cycles

    @property
    def vector_cycles(self) -> float:
        return self.kernel_vector_cycles

    @property
    def total_cycles(self) -> float:
        return self.scalar_cycles + self.vector_cycles


def _resolve_version(isa: str, way: int):
    """Kernel version + machine-axis name for a registered machine.

    Paper machines execute their own binaries (machine axis unused);
    an aliased machine such as ``mmx256`` prices kernels with its
    program's binaries timed on the wider machine.
    """
    spec = get_machine(isa, way)
    machine = None if spec.is_native_program else spec.name
    return spec.program, machine


def app_timing(
    profile: AppProfile, isa: str, way: int, lookup: Optional[KernelLookup] = None
) -> AppTiming:
    """Price a profile on one machine.

    ``isa`` may be any registered machine name, including non-paper
    entries like ``vmmx256`` and widths beyond the paper's table.  Each
    kernel's timing comes from ``lookup`` (default
    :func:`~repro.timing.simulator.simulate_kernel`).
    """
    lookup = simulate_kernel if lookup is None else lookup
    total = max(profile.scalar_instructions, 1)
    smem_pct = round(100.0 * profile.scalar.get("smem", 0) / total)
    sctrl_pct = round(100.0 * profile.scalar.get("sctrl", 0) / total)
    ipc = scalar_ipc(way, smem_pct, sctrl_pct)
    scalar_region = profile.scalar_instructions / ipc
    version, machine = _resolve_version(isa, way)
    kernel_scalar = 0.0
    kernel_vector = 0.0
    for kernel, items in profile.kernel_items.items():
        timing = lookup(kernel, version, way, machine=machine)
        kernel_scalar += items * timing.result.scalar_cycles / timing.batch
        kernel_vector += items * timing.result.vector_cycles / timing.batch
    return AppTiming(
        app=profile.app,
        isa=isa,
        way=way,
        scalar_region_cycles=scalar_region,
        kernel_scalar_cycles=kernel_scalar,
        kernel_vector_cycles=kernel_vector,
    )


def app_instruction_counts(
    profile: AppProfile, isa: str, lookup: Optional[KernelLookup] = None
) -> Dict[str, float]:
    """Dynamic instruction counts by category (Fig. 7 composition).

    Reads each kernel's 2-way timing from ``lookup`` (default
    :func:`~repro.timing.simulator.simulate_kernel`).
    """
    lookup = simulate_kernel if lookup is None else lookup
    counts: Dict[str, float] = {
        "smem": float(profile.scalar.get("smem", 0)),
        "sarith": float(profile.scalar.get("sarith", 0)),
        "sctrl": float(profile.scalar.get("sctrl", 0)),
        "vmem": 0.0,
        "varith": 0.0,
    }
    version, machine = _resolve_version(isa, 2)
    for kernel, items in profile.kernel_items.items():
        timing = lookup(kernel, version, 2, machine=machine)
        per_item = {
            cat: count / timing.batch
            for cat, count in timing.result.cat_instructions.items()
        }
        for cat, value in per_item.items():
            counts[cat] += items * value
    return counts
