"""Trace-driven timing model of the simulated processors.

Machine descriptions live in the :mod:`repro.machines` registry
(``get_machine(name, way)`` resolves any registered family and width);
this package times :class:`~repro.isa.trace.ColumnarTrace` streams on
them.  One engine does the timing: the compiled
:class:`~repro.timing.batch.BatchCoreModel`, which times a whole stack of
configurations per pass (:func:`simulate_trace` is a stack of one).  The
record-at-a-time :class:`CoreModel` is its oracle, and the fallback when
``REPRO_TIMING_REFERENCE=1`` is set or no timing kernel can be loaded.
"""

from repro.machines import MachineSpec, SimdGeometry, get_machine
from repro.machines.spec import CoreConfig, MemHierConfig
from repro.timing.batch import BatchCoreModel, BatchTimingDivergence
from repro.timing.caches import BimodalPredictor, Cache, MemoryHierarchy
from repro.timing.core import CoreModel, SimResult, check_config
from repro.timing.simulator import (
    simulate_kernel,
    simulate_trace,
    simulate_trace_stack,
)

__all__ = [
    "BatchCoreModel", "BatchTimingDivergence", "BimodalPredictor", "Cache",
    "CoreConfig", "CoreModel", "MachineSpec", "MemHierConfig",
    "MemoryHierarchy", "SimdGeometry", "SimResult", "check_config",
    "get_machine", "simulate_kernel", "simulate_trace",
    "simulate_trace_stack",
]
