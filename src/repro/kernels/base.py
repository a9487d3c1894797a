"""Kernel specification protocol.

Each kernel module defines one or more :class:`KernelSpec` objects tying
together:

* a *workload maker* that allocates inputs in simulated memory,
* a *golden reference* (pure numpy) defining the exact fixed-point
  semantics,
* five *versions* (scalar, mmx64, mmx128, vmmx64, vmmx128) written against
  the emulation machines, and
* an *output reader* that pulls results back out of simulated memory.

A version is correct iff its outputs match the golden reference
bit-exactly (a handful of versions implement the paper's documented lossy
idioms, e.g. the MMX halved SAD of Fig. 3(b); those declare a per-version
golden override and a bound against the exact result).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.emu import Memory, Trace, make_machine
from repro.emu.batch import (
    BatchDivergence,
    BatchMemory,
    batch_enabled,
    make_batch_machine,
)

#: Workloads are plain dicts: addresses, geometry parameters and the numpy
#: input arrays the golden reference needs.
Workload = Dict[str, Any]


@dataclass
class KernelSpec:
    """A kernel with five ISA versions and an exact reference."""

    name: str
    app: str
    description: str
    data_size: str
    make_workload: Callable[[Memory, int], Workload]
    golden: Callable[[Workload], Any]
    read_output: Callable[[Memory, Workload], Any]
    versions: Dict[str, Callable[[Any, Workload], Any]]
    golden_for: Optional[Callable[[Workload, str], Any]] = None
    returns_scalar: bool = False
    #: Hint for the figures: batch size baked into one workload invocation.
    batch: int = 1

    def expected(self, wl: Workload, version: str) -> Any:
        """Expected output of ``version`` on workload ``wl``."""
        if self.golden_for is not None:
            return self.golden_for(wl, version)
        return self.golden(wl)


@dataclass
class KernelRun:
    """The result of executing one kernel version on a fresh machine."""

    spec: KernelSpec
    version: str
    trace: Trace
    output: Any
    expected: Any
    workload: Workload = field(repr=False, default_factory=dict)

    @property
    def correct(self) -> bool:
        """Bit-exact match against the (per-version) golden reference."""
        return outputs_equal(self.output, self.expected)


def outputs_equal(got: Any, expected: Any) -> bool:
    """Structural equality over ints, arrays, tuples and dicts of them."""
    if isinstance(expected, dict):
        return isinstance(got, dict) and set(got) == set(expected) and all(
            outputs_equal(got[k], expected[k]) for k in expected
        )
    if isinstance(expected, (tuple, list)):
        return len(got) == len(expected) and all(
            outputs_equal(g, e) for g, e in zip(got, expected)
        )
    if isinstance(expected, np.ndarray):
        return (
            isinstance(got, np.ndarray)
            and got.shape == expected.shape
            and np.array_equal(np.asarray(got, dtype=np.int64), np.asarray(expected, dtype=np.int64))
        )
    return int(got) == int(expected)


def execute(spec: KernelSpec, version: str, seed: int = 0) -> KernelRun:
    """Run one version of a kernel on a fresh memory/machine and verify it."""
    if version not in spec.versions:
        raise KeyError(f"kernel {spec.name!r} has no version {version!r}")
    mem = Memory()
    wl = spec.make_workload(mem, seed)
    trace = Trace(f"{spec.name}/{version}")
    machine = make_machine(version, mem, trace)
    returned = spec.versions[version](machine, wl)
    output = returned if spec.returns_scalar else spec.read_output(mem, wl)
    return KernelRun(
        spec=spec,
        version=version,
        trace=trace,
        output=output,
        expected=spec.expected(wl, version),
        workload=wl,
    )


def _seed_output(returned: Any, seed_index: int) -> Any:
    """Extract one seed's slice from a batched kernel return value.

    Batched machines hand back per-seed value arrays wherever the
    reference machine would return one ``int`` (see
    ``ScalarMachine.value``); containers keep their structure.
    """
    if isinstance(returned, (tuple, list)):
        out = [_seed_output(item, seed_index) for item in returned]
        return type(returned)(out) if isinstance(returned, tuple) else out
    if isinstance(returned, np.ndarray):
        return int(returned[seed_index])
    return int(returned)


def _execute_batched(spec: KernelSpec, version: str, seeds) -> Optional[list]:
    """One batched pass over all seeds, or ``None`` if the batch cannot run.

    Returns ``None`` -- signalling the caller to fall back to
    record-at-a-time emulation -- when the per-seed workloads lay out
    memory differently, when a per-seed value diverges where the shared
    instruction stream needs one uniform value
    (:class:`~repro.emu.batch.BatchDivergence`), or when any seed's
    output fails golden verification (the reference path is
    authoritative; the differential suite keeps the two in lockstep).
    """
    batch_mem = BatchMemory(len(seeds))
    planes = [batch_mem.plane(i) for i in range(len(seeds))]
    workloads = [spec.make_workload(plane, seed) for plane, seed in zip(planes, seeds)]
    if any(plane.allocs != planes[0].allocs for plane in planes[1:]):
        return None
    trace = Trace(f"{spec.name}/{version}")
    machine = make_batch_machine(version, batch_mem, trace)
    try:
        returned = spec.versions[version](machine, workloads[0])
    except BatchDivergence:
        return None
    runs = []
    for i, seed in enumerate(seeds):
        if spec.returns_scalar:
            output = _seed_output(returned, i)
        else:
            output = spec.read_output(planes[i], workloads[i])
        runs.append(
            KernelRun(
                spec=spec,
                version=version,
                trace=trace,
                output=output,
                expected=spec.expected(workloads[i], version),
                workload=workloads[i],
            )
        )
    if not all(run.correct for run in runs):
        return None
    return runs


def execute_batch(spec: KernelSpec, version: str, seeds) -> list:
    """Run one kernel version over many seeds, batched when possible.

    The fast path emulates every seed in a single NumPy-vectorised pass
    over one shared instruction stream: the returned runs all reference
    the *same* trace object, which is byte-identical to what
    :func:`execute` would emit for each seed individually (the
    differential suite asserts this digest equality).  Batches of one,
    ``REPRO_EMU_REFERENCE=1``, divergent kernels and verification
    mismatches all fall back to per-seed record-at-a-time execution.
    """
    seeds = list(seeds)
    if len(seeds) >= 2 and batch_enabled():
        runs = _execute_batched(spec, version, seeds)
        if runs is not None:
            return runs
    return [execute(spec, version, seed) for seed in seeds]
