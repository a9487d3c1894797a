"""High-level simulation drivers with result caching.

``simulate_kernel`` is the one-kernel driver (``python -m repro kernel``,
the examples): it runs a kernel version through the emulation machine to
obtain its dynamic trace, then times that trace on a processor
configuration.  Results live in the content-addressed on-disk store of
:mod:`repro.sweep.store`, so they survive the process and are shared
with parallel sweeps, benchmarks and the CLI, behind the store's bounded
in-process memo.  The paper artefacts read their timings from their own
sweep's report instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.isa.trace import ColumnarTrace, Trace
from repro.machines.spec import CoreConfig, MemHierConfig
from repro.timing.batch import BatchCoreModel, BatchTimingDivergence, ConfigPair
from repro.timing.core import CoreModel, SimResult, default_mem_config


def simulate_trace(
    trace: Union[Trace, ColumnarTrace],
    config: CoreConfig,
    mem_config: Optional[MemHierConfig] = None,
    warm: bool = True,
) -> SimResult:
    """Time one dynamic trace on one processor configuration.

    Accepts a live builder or a columnar snapshot (e.g. one re-loaded
    from the result store's ``trace`` records).  ``warm`` pre-touches
    the caches with the trace footprint so results reflect the steady
    state (the regime the paper's full-application simulations measure
    kernels in).  This is :func:`simulate_trace_stack` on a stack of one.
    """
    mem_config = mem_config or default_mem_config(config)
    return simulate_trace_stack(trace, [(config, mem_config)], warm=warm)[0]


def simulate_trace_stack(
    trace: Union[Trace, ColumnarTrace],
    specs: Sequence[ConfigPair],
    warm: bool = True,
) -> List[SimResult]:
    """Time one trace on a whole stack of configurations.

    The stack runs through the compiled engine,
    :class:`~repro.timing.batch.BatchCoreModel`, in one pass.  When the
    engine refuses (``REPRO_TIMING_REFERENCE=1``) or cannot run (no
    loadable kernel) it raises
    :class:`~repro.timing.batch.BatchTimingDivergence`, and each
    ``(config, mem_config)`` pair is timed by the record-at-a-time
    reference :class:`~repro.timing.core.CoreModel` instead, with
    identical results.
    """
    try:
        return BatchCoreModel(specs).run(trace, warm=warm)
    except BatchTimingDivergence:
        pass
    results = []
    for config, mem_config in specs:
        model = CoreModel(config, mem_config)
        if warm:
            model.hier.warm(trace)
        results.append(model.run(trace))
    return results


@dataclass
class KernelTiming:
    """Cycles and instruction statistics for one kernel invocation batch."""

    kernel: str
    version: str
    way: int
    result: SimResult
    batch: int
    #: Workload seed the batch was generated from.  Recorded so timings
    #: from different seeds are distinguishable records (previously two
    #: seeds produced indistinguishable objects -- a silent collision).
    seed: int = 0
    #: Registered machine the trace was timed on, when it is not the
    #: kernel version's own architected machine (e.g. ``mmx256`` timing
    #: an ``mmx128`` binary); ``None`` for the classic coupled case.
    machine: Optional[str] = None
    #: Runtime vector length the trace was generated at, for runtime-VL
    #: program families; ``None`` for every fixed-width version.
    vl: Optional[int] = None

    @property
    def machine_name(self) -> str:
        return self.machine if self.machine is not None else self.version

    @property
    def cycles_per_invocation(self) -> float:
        return self.result.cycles / self.batch

    @property
    def instructions_per_invocation(self) -> float:
        return self.result.instructions / self.batch


def simulate_kernel(
    kernel: str,
    version: str,
    way: int,
    seed: int = 0,
    machine: Optional[str] = None,
    vl: Optional[int] = None,
) -> KernelTiming:
    """Run ``kernel``'s ``version`` and time it on the ``way``-wide core.

    By default the machine is the version's own (the paper couples ISA
    version and hardware: an mmx128 binary runs on the mmx128 machine of
    that width); ``machine`` names any other registered machine whose
    program is ``version`` (e.g. ``machine="mmx256"`` with
    ``version="mmx128"``).  ``vl`` is the runtime vector length for
    runtime-VL program families (defaulted to the geometry maximum, and
    rejected elsewhere).  A one-point :func:`~repro.sweep.engine.sweep`
    of the default store: a timing this process holds is answered from
    memory only while the point's machine resolves to the spec it was
    keyed on, and a warm store answers without re-simulating.
    """
    # Imported lazily: repro.sweep depends on this module for the
    # KernelTiming record type.
    from repro.sweep.engine import sweep
    from repro.sweep.points import SweepPoint

    # The point constructor owns the axis normalisation (machine ==
    # version collapses to None, a runtime-VL version defaults vl).
    point = SweepPoint(
        kernel=kernel, version=version, way=way, seed=seed,
        machine=machine, vl=vl,
    )
    return sweep([point])[point]
