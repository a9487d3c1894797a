"""Declarative machine descriptions: geometry, core, memory, spec.

This module is the authoritative home of every dataclass that describes
a modeled machine.  Historically these lived in a timing-layer config
module as twelve hardcoded ``(isa, way)`` table entries; they are now
composed into a single frozen, serializable :class:`MachineSpec` so new
machines (wider rows, more lanes, longer vectors, wider ways) are *data*
handled by the registry (:mod:`repro.machines.registry`) instead of new
code.

Layering: this module depends on nothing else in the package (the
registry and scaling modules build on it, and the timing layer imports
its config dataclasses from here).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict


def canonical_json(obj: Any) -> str:
    """Canonical (sorted, compact) JSON used for hashing and equality."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any) -> str:
    """SHA-256 of the canonical JSON form (stable across processes)."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SimdGeometry:
    """Architected SIMD register geometry of one machine family.

    ``matrix`` is a *capability flag*: machines with it use the
    vector-length register, strided vector memory through the L2 vector
    cache, and lane-limited row throughput.  Consumers must branch on
    this flag (or on :attr:`CoreConfig.vector_memory`), never on the
    spelling of an ISA name.
    """

    row_bytes: int          # bytes of one register row (8 = 64-bit, ...)
    lanes: int              # parallel datapath lanes per SIMD unit group
    max_vl: int             # rows per register (1 for the 1-D families)
    logical_regs: int       # architected SIMD registers
    matrix: bool            # 2-D capability: setvl / strided vector memory
    #: Vector length is *runtime* state (RISC-V-V style): one program
    #: binary runs at any power-of-two VL up to ``row_bytes``, and the
    #: trace a kernel emits depends on the VL it ran at -- so the trace
    #: store key grows a VL axis for these families (see
    #: ``repro.sweep.engine.trace_key``).  Mutually exclusive with
    #: ``matrix``, whose VL is program-set via ``setvl``.
    runtime_vl: bool = False

    def __post_init__(self) -> None:
        for name in ("row_bytes", "lanes", "max_vl", "logical_regs"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"SimdGeometry.{name} must be a positive integer, "
                    f"got {value!r}"
                )
        if not self.matrix and self.max_vl != 1:
            raise ValueError(
                "a non-matrix (1-D) geometry must have max_vl == 1, "
                f"got max_vl={self.max_vl}"
            )
        if self.runtime_vl and self.matrix:
            raise ValueError(
                "runtime_vl applies to 1-D vector-length-agnostic "
                "geometries; matrix geometries set their VL in-program "
                "via setvl"
            )

    @property
    def row_bits(self) -> int:
        return 8 * self.row_bytes

    def to_dict(self) -> Dict[str, Any]:
        # ``runtime_vl`` only appears when the capability is actually
        # set, so every pre-existing geometry keeps its exact historical
        # dict form -- and with it every machine fingerprint and every
        # trace store address (the manifest and key-stability tests pin
        # this).
        data = dataclasses.asdict(self)
        if not self.runtime_vl:
            del data["runtime_vl"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimdGeometry":
        return cls(
            row_bytes=int(data["row_bytes"]),
            lanes=int(data["lanes"]),
            max_vl=int(data["max_vl"]),
            logical_regs=int(data["logical_regs"]),
            matrix=bool(data["matrix"]),
            runtime_vl=bool(data.get("runtime_vl", False)),
        )


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level (Table IV)."""

    size: int
    assoc: int
    line: int
    latency: int
    ports: int
    port_bytes: int


@dataclass(frozen=True)
class MemHierConfig:
    """The full memory hierarchy for one (way, family) pair."""

    l1: CacheConfig
    l2: CacheConfig
    main_latency: int = 500
    #: Rows per cycle for non-unit-stride vector accesses (vector cache
    #: serves stride-1 at full port width but one element per cycle
    #: otherwise, §III-D).
    strided_rows_per_cycle: float = 1.0


@dataclass(frozen=True)
class CoreConfig:
    """One column of Table III.

    The field set of this dataclass is part of the result-store contract:
    :func:`repro.sweep.store.config_fingerprint` hashes
    :func:`core_config_to_dict` of it (every field, by name), so
    adding or renaming a field re-addresses every stored record.
    Capabilities that do not change the fingerprint belong in properties
    (resolved through the machine registry), not fields.
    """

    isa: str
    way: int
    fetch_width: int
    commit_width: int
    int_fus: int
    fp_fus: int
    simd_issue: int
    simd_fu_groups: int
    lanes: int              # 1 for MMX (full-width units); 4 for VMMX
    mem_ports: int          # L1 ports (scalar and MMX SIMD loads)
    phys_simd_regs: int
    logical_simd_regs: int
    rob_size: int
    branch_penalty: int = 8
    #: Dead cycles a vector (rows > 1) instruction holds its functional
    #: unit beyond the lane-limited row time (vector start-up; calibrated
    #: against the paper's Fig. 4 magnitudes).
    vector_startup: int = 1

    @property
    def name(self) -> str:
        return f"{self.way}way-{self.isa}"

    @property
    def vector_memory(self) -> bool:
        """Does this machine route SIMD memory through the vector cache?

        Resolved through the machine registry's geometry capability flag
        for registered names; unregistered ad-hoc names fall back to the
        legacy family-prefix convention so hand-built test configs keep
        working.
        """
        from repro.machines.registry import find_geometry

        geometry = find_geometry(self.isa)
        if geometry is not None:
            return geometry.matrix
        return self.isa.startswith("vmmx")

    @property
    def is_matrix(self) -> bool:
        """Deprecated alias of :attr:`vector_memory`."""
        return self.vector_memory

    @property
    def simd_inflight(self) -> int:
        """SIMD instructions with destinations allowed in flight."""
        return max(2, self.phys_simd_regs - self.logical_simd_regs)


#: Field names of the config dataclasses, in declaration order.  The
#: ``*_to_dict`` helpers walk these instead of calling
#: ``dataclasses.asdict``, which deep-copies every leaf: every field is
#: a scalar or a nested config, so the walk yields an equal dict at a
#: fraction of the cost on the store-key path.
_CACHE_FIELDS = tuple(f.name for f in dataclasses.fields(CacheConfig))
_MEM_FIELDS = tuple(f.name for f in dataclasses.fields(MemHierConfig))
_CORE_FIELDS = tuple(f.name for f in dataclasses.fields(CoreConfig))


def _cache_to_dict(cache: CacheConfig) -> Dict[str, Any]:
    return {name: getattr(cache, name) for name in _CACHE_FIELDS}


def _cache_from_dict(data: Dict[str, Any]) -> CacheConfig:
    return CacheConfig(**{f.name: data[f.name] for f in dataclasses.fields(CacheConfig)})


def mem_config_to_dict(mem: MemHierConfig) -> Dict[str, Any]:
    data = {name: getattr(mem, name) for name in _MEM_FIELDS}
    data["l1"] = _cache_to_dict(mem.l1)
    data["l2"] = _cache_to_dict(mem.l2)
    return data


def mem_config_from_dict(data: Dict[str, Any]) -> MemHierConfig:
    return MemHierConfig(
        l1=_cache_from_dict(data["l1"]),
        l2=_cache_from_dict(data["l2"]),
        main_latency=data["main_latency"],
        strided_rows_per_cycle=data["strided_rows_per_cycle"],
    )


def core_config_to_dict(config: CoreConfig) -> Dict[str, Any]:
    return {name: getattr(config, name) for name in _CORE_FIELDS}


def core_config_from_dict(data: Dict[str, Any]) -> CoreConfig:
    return CoreConfig(**{f.name: data[f.name] for f in dataclasses.fields(CoreConfig)})


@dataclass(frozen=True)
class MachineSpec:
    """One fully-resolved modeled machine.

    Composes the architected SIMD geometry, the out-of-order core
    resources and the memory hierarchy, plus the *program*: the name of
    the emulation ISA whose binaries (kernel versions) this machine
    executes.  For the paper's machines the program is the machine name
    itself; a wider-datapath machine such as ``mmx256`` executes the
    binary of a narrower architected family (``mmx128``), exactly as
    late SSE binaries ran unchanged on wider hardware.
    """

    name: str
    way: int
    program: str
    geometry: SimdGeometry
    core: CoreConfig
    mem: MemHierConfig
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("MachineSpec.name must be non-empty")
        if not isinstance(self.way, int) or self.way < 1:
            raise ValueError(
                f"MachineSpec.way must be a positive integer, got {self.way!r}"
            )

    @property
    def label(self) -> str:
        return f"{self.way}way-{self.name}"

    @property
    def is_native_program(self) -> bool:
        """True when this machine is the architected home of its binaries."""
        return self.program == self.name

    @property
    def runtime_vl(self) -> bool:
        """Does this machine set its vector length at runtime?

        A capability flag resolved from the architected geometry (like
        :attr:`CoreConfig.vector_memory`) -- consumers branch on this,
        never on the spelling of the machine name.
        """
        return self.geometry.runtime_vl

    def to_dict(self) -> Dict[str, Any]:
        """JSON-stable description (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "way": self.way,
            "program": self.program,
            "geometry": self.geometry.to_dict(),
            "core": core_config_to_dict(self.core),
            "mem": mem_config_to_dict(self.mem),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MachineSpec":
        return cls(
            name=data["name"],
            way=int(data["way"]),
            program=data["program"],
            geometry=SimdGeometry.from_dict(data["geometry"]),
            core=core_config_from_dict(data["core"]),
            mem=mem_config_from_dict(data["mem"]),
            description=data.get("description", ""),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the full spec.

        The ``machines --validate`` manifest pins these per registered
        machine; the result store separately hashes the resolved
        ``core``/``mem`` pair (see
        :func:`repro.sweep.store.config_fingerprint`), which this hash
        subsumes.
        """
        payload = self.to_dict()
        payload.pop("description")  # prose must not re-address records
        return stable_hash(payload)

    def config_fingerprint(self) -> str:
        """The core+mem hash the result store keys timings by.

        Byte-identical to
        ``repro.sweep.store.config_fingerprint(spec.core, spec.mem)``
        (pinned by a test), so legacy ``(isa, way)`` store addresses are
        unchanged by the registry redesign.
        """
        return stable_hash(
            {"core": core_config_to_dict(self.core), "mem": mem_config_to_dict(self.mem)}
        )


def json_roundtrip(spec: MachineSpec) -> MachineSpec:
    """Serialise and re-parse a spec (the validation path)."""
    return MachineSpec.from_dict(json.loads(json.dumps(spec.to_dict())))


__all__ = [
    "CacheConfig",
    "CoreConfig",
    "MachineSpec",
    "MemHierConfig",
    "SimdGeometry",
    "canonical_json",
    "core_config_from_dict",
    "core_config_to_dict",
    "json_roundtrip",
    "mem_config_from_dict",
    "mem_config_to_dict",
    "stable_hash",
]
