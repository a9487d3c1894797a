"""Emulation machines -- the paper's "emulation libraries".

Each machine couples functional execution (values in registers and
memory) with dynamic-trace emission, playing the role of the paper's
ATOM-instrumented emulation libraries for MMX64, MMX128, VMMX64 and
VMMX128 plus the scalar baseline.  Every other registered machine runs
one of these programs' binaries, so it emits that program's trace.
"""

from typing import Optional

from repro.emu.batch import (
    BatchDivergence,
    BatchMemory,
    BatchMMXMachine,
    BatchScalarMachine,
    BatchVMMXMachine,
    PlaneMemory,
    batch_enabled,
    make_batch_machine,
)
from repro.emu.handles import AccReg, MAccReg, MReg, SReg, VReg
from repro.emu.memory import Memory
from repro.emu.mmx import MMXMachine
from repro.emu.scalar import ScalarMachine
from repro.emu.vmmx import VMMXMachine
from repro.isa.trace import Trace
from repro.machines.spec import SimdGeometry

#: The four SIMD extensions evaluated by the paper, in presentation order.
ISA_NAMES = ("mmx64", "mmx128", "vmmx64", "vmmx128")

#: All machine flavours, including the pure-scalar baseline.
VERSION_NAMES = ("scalar",) + ISA_NAMES


def program_geometry(isa: str) -> SimdGeometry:
    """Architected geometry of the program whose trace ``isa`` emits.

    Resolves any registered machine name through
    :func:`repro.machines.trace_program`: an alias (``mmx256``) or a
    family with a twin (``tile``, ``vla``) emulates as the program whose
    binaries it runs.  Raises ``ValueError`` for unregistered names.
    """
    from repro.machines import find_geometry, trace_program

    geometry = find_geometry(trace_program(isa))
    if geometry is None:
        raise ValueError(
            f"unknown ISA {isa!r}; expected 'scalar' or a registered "
            "machine name (see repro.machines.machine_names())"
        )
    return geometry


def make_machine(isa: str, mem: Memory, trace: Optional[Trace] = None):
    """Instantiate the emulation machine for an ISA or machine name.

    ``scalar`` builds the baseline machine; any name registered in
    :mod:`repro.machines` builds the machine of the program whose trace
    it emits (:func:`program_geometry`), MMX or VMMX by the geometry's
    ``matrix`` flag.  ``mmx256`` therefore emulates exactly like
    ``mmx128``: emulation produces the program's trace, and only the
    timing layer distinguishes the wider machine.
    """
    if isa == "scalar":
        return ScalarMachine(mem, trace)
    geometry = program_geometry(isa)
    cls = VMMXMachine if geometry.matrix else MMXMachine
    return cls(mem, trace, geometry=geometry)


__all__ = [
    "AccReg", "BatchDivergence", "BatchMMXMachine", "BatchMemory",
    "BatchScalarMachine", "BatchVMMXMachine", "ISA_NAMES", "MAccReg",
    "MMXMachine", "MReg", "Memory", "PlaneMemory", "SReg",
    "ScalarMachine", "Trace", "VERSION_NAMES", "VMMXMachine", "VReg",
    "batch_enabled", "make_batch_machine", "make_machine",
]
