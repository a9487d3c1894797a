"""The machine registry: named families -> resolved :class:`MachineSpec`.

:func:`register_machine` adds one machine *family*: a name, the program
(emulation ISA) it executes, its architected SIMD geometry, its
resource-scaling curves and the widths it is swept at by default.
:func:`get_machine` resolves ``(name, way)`` into a cached frozen
:class:`MachineSpec` for *any* positive width -- the scaling curves, not
a table, decide what a 16-way machine looks like.

The twelve paper machines (Tables III/IV) are registered here from the
same curves the legacy hardcoded config tables were built from --
``get_machine(isa, way).core`` is field-for-field the old table entry,
an equivalence the Table III/IV tests pin.  Two beyond-the-paper
machines (``mmx256``, ``vmmx256``) ship registered at 2/4/8/16-way;
``docs/machines.md`` walks through registering more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.machines.scaling import (
    CoreScaling,
    MemScaling,
    ScalingCurve,
    build_core,
    build_mem,
)
from repro.machines.spec import MachineSpec, SimdGeometry


class UnknownMachineError(KeyError):
    """Lookup of a machine name that is not registered.

    Subclasses :class:`KeyError` so legacy ``except KeyError`` call
    sites around the old table lookups keep working.
    """

    def __init__(self, name: str, available: Iterable[str]) -> None:
        message = (
            f"no registered machine named {name!r}; "
            f"available: {', '.join(sorted(available))} "
            "(register_machine() adds new ones)"
        )
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.message


class DuplicateMachineError(ValueError):
    """Registration under a name that is already taken."""


@dataclass(frozen=True)
class MachineFamily:
    """What one :func:`register_machine` call contributes."""

    name: str
    geometry: SimdGeometry
    core_scaling: CoreScaling
    mem_scaling: MemScaling
    #: The emulation ISA whose kernel versions this machine executes
    #: (itself by default; wider-datapath machines name a narrower
    #: architected family, like SSE binaries on wider hardware).
    program: str = ""
    #: Widths enumerated by ``registered_machines`` / default sweeps.
    #: Any positive way remains derivable through :func:`get_machine`.
    ways: Tuple[int, ...] = (2, 4, 8)
    description: str = ""
    paper: bool = False     # part of the original twelve-machine study
    #: The fixed-width program whose binaries this family runs unchanged,
    #: so that its traces *are* that program's (see :func:`trace_program`).
    #: Empty when the family's traces are its program's own.  A runtime-VL
    #: family needs no entry: at each ``vl`` its twin is the 1-D program
    #: whose ``row_bytes`` equals ``vl``.
    twin: str = ""

    def __post_init__(self) -> None:
        if not self.program:
            object.__setattr__(self, "program", self.name)
        if not self.ways or any(
            not isinstance(w, int) or w < 1 for w in self.ways
        ):
            raise ValueError(
                f"machine {self.name!r}: ways must be positive integers, "
                f"got {self.ways!r}"
            )


_FAMILIES: Dict[str, MachineFamily] = {}
_SPECS: Dict[Tuple[str, int], MachineSpec] = {}

#: Registry changes this process has made: every :func:`register_machine`
#: and :func:`unregister_machine` call adds one.
_GENERATION = 0


def registry_generation() -> int:
    """How many times this process has changed the registry.

    Every in-process result is filed under the generation it was made
    in (:func:`repro.sweep.store.memo_key`), so registering, replacing
    or removing a family retires all of them at once.
    """
    return _GENERATION


def register_machine(family: MachineFamily, replace: bool = False) -> MachineFamily:
    """Add a machine family to the registry.

    A family is a name plus architected geometry plus per-resource
    scaling curves; once registered, :func:`get_machine` resolves it at
    *any* positive width, ``python -m repro machines`` lists it, and
    every sweep/CLI axis (``--machine``/``--machines``) accepts it --
    see ``docs/machines.md`` for a worked custom-machine example.

    The program must be resolvable: either the family itself or an
    already-registered family that is its own program (one level of
    binary aliasing -- a machine cannot alias an alias).  A declared
    ``twin`` must be such a family too.  Registering
    an existing name raises :class:`DuplicateMachineError` unless
    ``replace=True``.
    """
    global _GENERATION
    if family.name in _FAMILIES and not replace:
        raise DuplicateMachineError(
            f"machine {family.name!r} is already registered; "
            "pass replace=True to override it"
        )
    for role, target_name in (("program", family.program), ("twin", family.twin)):
        if target_name in ("", family.name):
            continue
        target = _FAMILIES.get(target_name)
        if target is None:
            raise UnknownMachineError(target_name, _FAMILIES)
        if target.program != target.name:
            raise ValueError(
                f"machine {family.name!r}: {role} {target_name!r} is "
                f"itself an alias of {target.program!r}; {role}s must be "
                "architected families"
            )
    _FAMILIES[family.name] = family
    for key in [k for k in _SPECS if k[0] == family.name]:
        del _SPECS[key]
    _GENERATION += 1
    return family


def unregister_machine(name: str) -> None:
    """Remove one family (test helper; raises if unknown or depended on)."""
    global _GENERATION
    if name not in _FAMILIES:
        raise UnknownMachineError(name, _FAMILIES)
    dependents = [
        f.name for f in _FAMILIES.values()
        if name in (f.program, f.twin) and f.name != name
    ]
    if dependents:
        raise ValueError(
            f"cannot unregister {name!r}: it is the program or twin of "
            f"{', '.join(dependents)}"
        )
    del _FAMILIES[name]
    for key in [k for k in _SPECS if k[0] == name]:
        del _SPECS[key]
    _GENERATION += 1


def machine_names() -> Tuple[str, ...]:
    """All registered family names, in registration order."""
    return tuple(_FAMILIES)


def get_family(name: str) -> MachineFamily:
    family = _FAMILIES.get(name)
    if family is None:
        raise UnknownMachineError(name, _FAMILIES)
    return family


def is_registered(name: str) -> bool:
    return name in _FAMILIES


def find_geometry(name: str) -> Optional[SimdGeometry]:
    """Geometry of a registered name, or None (no exception: callers
    that accept ad-hoc names use this to probe)."""
    family = _FAMILIES.get(name)
    return None if family is None else family.geometry


def program_of(name: str) -> str:
    """The emulation ISA a machine executes (identity for programs)."""
    family = _FAMILIES.get(name)
    return name if family is None else family.program


def trace_program(name: str, vl: Optional[int] = None) -> str:
    """The program whose emulation produces ``name``'s traces at ``vl``.

    A trace depends on the binary and the width it runs at, not on the
    family's name.  An alias emits its program's trace; a family with a
    declared ``twin`` emits the twin's (``tile`` runs the ``vmmx128``
    binaries); a runtime-VL family at ``vl`` (default: its maximum) runs
    its one binary at that width, which is the fixed-width 1-D program
    whose ``row_bytes`` is ``vl`` (``vla`` at 8 is ``mmx64``); a ``vl``
    that is not such a width raises ``ValueError``.  Unregistered names
    come back unchanged.
    """
    family = _FAMILIES.get(program_of(name))
    if family is None:
        return name
    if family.twin:
        return family.twin
    if not family.geometry.runtime_vl:
        return family.name
    width = family.geometry.row_bytes if vl is None else vl
    if isinstance(width, bool) or not isinstance(width, int):
        raise ValueError(
            f"machine {name!r} vl must be an integer number of bytes, "
            f"got {width!r}"
        )
    for twin in _FAMILIES.values():
        geometry = twin.geometry
        if (
            twin.program == twin.name and not twin.twin
            and not geometry.matrix and not geometry.runtime_vl
            and geometry.row_bytes == width
        ):
            return twin.name
    raise ValueError(
        f"machine {name!r} has no fixed-width 1-D program at vl={width!r}"
    )


def get_machine(name: str, way: int) -> MachineSpec:
    """Resolve one ``(name, way)`` machine (cached, any positive way)."""
    family = _FAMILIES.get(name)
    if family is None:
        raise UnknownMachineError(name, _FAMILIES)
    if not isinstance(way, int) or isinstance(way, bool) or way < 1:
        raise KeyError(
            f"machine width must be a positive integer, got way={way!r} "
            f"(machine {name!r})"
        )
    key = (name, way)
    spec = _SPECS.get(key)
    if spec is None:
        spec = MachineSpec(
            name=family.name,
            way=way,
            program=family.program,
            geometry=family.geometry,
            core=build_core(family.name, way, family.geometry, family.core_scaling),
            mem=build_mem(way, family.mem_scaling),
            description=family.description,
        )
        _SPECS[key] = spec
    return spec


def registered_machines() -> List[MachineSpec]:
    """Every registered machine at its declared widths (the CLI listing)."""
    return [
        get_machine(family.name, way)
        for family in _FAMILIES.values()
        for way in family.ways
    ]


def paper_machines() -> List[MachineSpec]:
    """The twelve machines of the original study."""
    return [
        spec for spec in registered_machines() if get_family(spec.name).paper
    ]


# ---------------------------------------------------------------------------
# Built-in registrations.
# ---------------------------------------------------------------------------

#: Table IV memory hierarchy, shared by all four paper families (the
#: VMMX machines differ in L1 *core* ports, captured in CoreConfig).
PAPER_MEM_SCALING = MemScaling(
    l1_ports=ScalingCurve.at_ways({2: 1, 4: 2, 8: 4}),
    l2_port_bytes=ScalingCurve.at_ways({2: 16, 4: 32, 8: 64}),
    # The vector cache gathers strided elements at one 64-bit element
    # per cycle per 16 bytes of port width (the interchange switch
    # widens with the port), so strided bandwidth scales with way.
    strided_rows_per_cycle=ScalingCurve.at_ways(
        {2: 1.0, 4: 2.0, 8: 4.0}, integer=False
    ),
)

#: Table III resource curves of the 1-D (MMX) families.
MMX_CORE_SCALING = CoreScaling(
    fp_fus=ScalingCurve.at_ways({2: 1, 4: 2, 8: 4}),
    simd_issue=ScalingCurve.proportional(),
    simd_fu_groups=ScalingCurve.proportional(),
    mem_ports=ScalingCurve.at_ways({2: 1, 4: 2, 8: 4}),
    phys_simd_regs=ScalingCurve.at_ways({2: 40, 4: 64, 8: 96}),
    rob_size=ScalingCurve.at_ways({2: 64, 4: 128, 8: 256}),
)

#: Table III resource curves of the 2-D (VMMX/MOM) families.
VMMX_CORE_SCALING = CoreScaling(
    fp_fus=ScalingCurve.at_ways({2: 1, 4: 2, 8: 4}),
    simd_issue=ScalingCurve.at_ways({2: 1, 4: 2, 8: 3}),
    simd_fu_groups=ScalingCurve.at_ways({2: 1, 4: 2, 8: 3}),
    mem_ports=ScalingCurve.at_ways({2: 1, 4: 1, 8: 2}),
    phys_simd_regs=ScalingCurve.at_ways({2: 20, 4: 36, 8: 64}),
    rob_size=ScalingCurve.at_ways({2: 64, 4: 128, 8: 256}),
)

MMX64_GEOMETRY = SimdGeometry(row_bytes=8, lanes=1, max_vl=1, logical_regs=32, matrix=False)
MMX128_GEOMETRY = SimdGeometry(row_bytes=16, lanes=1, max_vl=1, logical_regs=32, matrix=False)
VMMX64_GEOMETRY = SimdGeometry(row_bytes=8, lanes=4, max_vl=16, logical_regs=16, matrix=True)
VMMX128_GEOMETRY = SimdGeometry(row_bytes=16, lanes=4, max_vl=16, logical_regs=16, matrix=True)

#: RISC-V-V-style vector-length-agnostic family: one binary, the VL a
#: runtime choice up to the architected 128-bit maximum.  ``row_bytes``
#: is the *maximum* VL in bytes; the point axis (``SweepPoint.vl``)
#: selects the width a given run executes at.
VLA_GEOMETRY = SimdGeometry(
    row_bytes=16, lanes=1, max_vl=1, logical_regs=32, matrix=False,
    runtime_vl=True,
)

#: 2-D tile extension beyond VMMX: rectangular 32-row x 128-bit tiles
#: (twice VMMX128's square 16-row registers), in the spirit of
#: multi-dimensional/matrix ISA extensions past 2005.
TILE_GEOMETRY = SimdGeometry(
    row_bytes=16, lanes=8, max_vl=32, logical_regs=16, matrix=True,
)


def _register_builtin() -> None:
    register_machine(MachineFamily(
        name="mmx64",
        geometry=MMX64_GEOMETRY,
        core_scaling=MMX_CORE_SCALING,
        mem_scaling=PAPER_MEM_SCALING,
        description="Intel MMX-like 64-bit 1-D extension (Table III)",
        paper=True,
    ))
    register_machine(MachineFamily(
        name="mmx128",
        geometry=MMX128_GEOMETRY,
        core_scaling=MMX_CORE_SCALING,
        mem_scaling=PAPER_MEM_SCALING,
        description="SSE2-like 128-bit 1-D extension (Table III)",
        paper=True,
    ))
    register_machine(MachineFamily(
        name="vmmx64",
        geometry=VMMX64_GEOMETRY,
        core_scaling=VMMX_CORE_SCALING,
        mem_scaling=PAPER_MEM_SCALING,
        description="MOM-style 2-D matrix extension, 64-bit rows (Table III)",
        paper=True,
    ))
    register_machine(MachineFamily(
        name="vmmx128",
        geometry=VMMX128_GEOMETRY,
        core_scaling=VMMX_CORE_SCALING,
        mem_scaling=PAPER_MEM_SCALING,
        description="MOM-style 2-D matrix extension, 128-bit rows (Table III)",
        paper=True,
    ))

    # ---- beyond the paper: 256-bit datapath implementations ----------
    # Both execute the 128-bit binaries unchanged (program aliasing):
    # the architected register file stays the family's, while the
    # datapath, ports and lane count double -- the way early AVX-class
    # hardware ran SSE binaries.  Their traces are therefore shared
    # with the 128-bit machines in the result store; only the timing
    # differs.
    register_machine(MachineFamily(
        name="mmx256",
        program="mmx128",
        geometry=SimdGeometry(
            row_bytes=32, lanes=1, max_vl=1, logical_regs=32, matrix=False
        ),
        core_scaling=MMX_CORE_SCALING,
        mem_scaling=MemScaling(
            l1_ports=ScalingCurve.at_ways({2: 1, 4: 2, 8: 4}),
            # Doubled port and bus widths: a full 128-bit register moves
            # in one cycle instead of two.
            l1_port_bytes=16,
            l2_port_bytes=ScalingCurve.at_ways({2: 32, 4: 64, 8: 128}),
            strided_rows_per_cycle=ScalingCurve.at_ways(
                {2: 1.0, 4: 2.0, 8: 4.0}, integer=False
            ),
        ),
        ways=(2, 4, 8, 16),
        description=(
            "256-bit-datapath 1-D machine executing the MMX128 binaries "
            "(doubled L1/L2 port widths)"
        ),
    ))
    register_machine(MachineFamily(
        name="vmmx256",
        program="vmmx128",
        geometry=SimdGeometry(
            row_bytes=32, lanes=8, max_vl=16, logical_regs=16, matrix=True
        ),
        core_scaling=VMMX_CORE_SCALING,
        mem_scaling=MemScaling(
            l1_ports=ScalingCurve.at_ways({2: 1, 4: 2, 8: 4}),
            # The vector-cache port and interchange switch double with
            # the datapath.
            l2_port_bytes=ScalingCurve.at_ways({2: 32, 4: 64, 8: 128}),
            strided_rows_per_cycle=ScalingCurve.at_ways(
                {2: 2.0, 4: 4.0, 8: 8.0}, integer=False
            ),
        ),
        ways=(2, 4, 8, 16),
        description=(
            "256-bit-datapath 2-D machine executing the VMMX128 binaries "
            "(8 lanes, doubled vector-cache bandwidth)"
        ),
    ))

    # ---- beyond the paper: post-2005 ISA designs ---------------------
    # Both keep their own point spelling (``version="vla", vl=8``,
    # ``version="tile"``) and timing records, but run the paper's
    # binaries unchanged, so they re-time their twins' traces
    # (:func:`trace_program`): vla at each vl the fixed-width 1-D
    # program of that width, tile the vmmx128 program.
    register_machine(MachineFamily(
        name="vla",
        geometry=VLA_GEOMETRY,
        core_scaling=MMX_CORE_SCALING,
        mem_scaling=PAPER_MEM_SCALING,
        ways=(2, 4, 8, 16),
        description=(
            "RISC-V-V-style vector-length-agnostic 1-D extension: one "
            "binary, runtime VL up to 128 bits (paper-anchored 1-D "
            "scaling curves)"
        ),
    ))
    register_machine(MachineFamily(
        name="tile",
        geometry=TILE_GEOMETRY,
        core_scaling=VMMX_CORE_SCALING,
        mem_scaling=MemScaling(
            l1_ports=ScalingCurve.at_ways({2: 1, 4: 2, 8: 4}),
            # The tile file streams rectangular tiles through a doubled
            # interchange switch, so strided bandwidth starts at twice
            # the VMMX base.
            l2_port_bytes=ScalingCurve.at_ways({2: 32, 4: 64, 8: 128}),
            strided_rows_per_cycle=ScalingCurve.at_ways(
                {2: 2.0, 4: 4.0, 8: 8.0}, integer=False
            ),
        ),
        ways=(2, 4, 8, 16),
        twin="vmmx128",
        description=(
            "2-D tile/matrix extension beyond VMMX: rectangular 32-row "
            "x 128-bit tiles, 8 lanes, doubled tile-file bandwidth"
        ),
    ))


_register_builtin()

#: The original study's four ISA extensions (presentation order) and the
#: Table III width columns.  Grid definitions, campaign defaults and the
#: figure/table builders iterate these; the registry itself serves any
#: registered name and width.  Derived from the ``paper`` families so
#: the registry stays the sole source of machine identity.
ISAS: Tuple[str, ...] = tuple(f.name for f in _FAMILIES.values() if f.paper)
WAYS: Tuple[int, ...] = get_family(ISAS[0]).ways


__all__ = [
    "DuplicateMachineError",
    "ISAS",
    "WAYS",
    "MachineFamily",
    "MMX_CORE_SCALING",
    "PAPER_MEM_SCALING",
    "TILE_GEOMETRY",
    "UnknownMachineError",
    "VLA_GEOMETRY",
    "VMMX_CORE_SCALING",
    "find_geometry",
    "get_family",
    "get_machine",
    "is_registered",
    "machine_names",
    "paper_machines",
    "program_of",
    "register_machine",
    "registered_machines",
    "registry_generation",
    "trace_program",
    "unregister_machine",
]
