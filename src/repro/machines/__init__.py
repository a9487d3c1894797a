"""Declarative machine-description API.

A modeled machine is a frozen, serializable :class:`MachineSpec`
composing architected SIMD geometry (:class:`SimdGeometry`), Table III
core resources (:class:`CoreConfig`) and the Table IV memory hierarchy
(:class:`MemHierConfig`).  Machines are *registered by family* with
per-family resource-scaling curves, and resolved for any width::

    from repro.machines import get_machine, registered_machines

    spec = get_machine("vmmx256", 16)       # beyond the paper's table
    spec.core.simd_fu_groups                # derived from the curves
    spec.to_dict()                          # JSON round-trips
    spec.fingerprint()                      # manifest / store identity

``python -m repro machines`` lists the registry;
``python -m repro machines --validate`` checks it against the pinned
fingerprint manifest.  See ``docs/machines.md``.
"""

from repro.machines.registry import (
    DuplicateMachineError,
    ISAS,
    MachineFamily,
    UnknownMachineError,
    WAYS,
    find_geometry,
    get_family,
    get_machine,
    is_registered,
    machine_names,
    paper_machines,
    program_of,
    register_machine,
    registered_machines,
    trace_program,
    unregister_machine,
)
from repro.machines.scaling import (
    CoreScaling,
    MemScaling,
    ScalingCurve,
    build_core,
    build_mem,
)
from repro.machines.spec import (
    CacheConfig,
    CoreConfig,
    MachineSpec,
    MemHierConfig,
    SimdGeometry,
    json_roundtrip,
)

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "CoreScaling",
    "DuplicateMachineError",
    "ISAS",
    "MachineFamily",
    "MachineSpec",
    "MemHierConfig",
    "MemScaling",
    "ScalingCurve",
    "SimdGeometry",
    "UnknownMachineError",
    "WAYS",
    "build_core",
    "build_mem",
    "find_geometry",
    "get_family",
    "get_machine",
    "is_registered",
    "json_roundtrip",
    "machine_names",
    "paper_machines",
    "program_of",
    "register_machine",
    "registered_machines",
    "trace_program",
    "unregister_machine",
]
