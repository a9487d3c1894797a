"""Beyond-the-paper scaling artefacts over the machine registry.

``fig4x`` and ``fig5x`` are the Fig. 4 / Fig. 5 artefacts *extended
along the machine axis*: the same kernel and full-application speed-up
compositions, but with a column for every machine the registry is asked
for -- by default the four paper families plus the 256-bit-datapath
``mmx256``/``vmmx256`` -- and with widths past the paper's 2/4/8-way
table (16-way comes from the per-family scaling curves).

These are additive: the eight paper artefacts and their byte-pinned
goldens are untouched, and machine-aliased points re-time the stored
128-bit traces, so extending the columns costs timing simulations only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import APP_NAMES
from repro.experiments.figures import (
    Column,
    app_speedups,
    kernel_speedups,
    render_app_speedups,
    render_kernel_speedups,
)
from repro.kernels.registry import FIG4_KERNELS
from repro.machines import get_machine
from repro.sweep import dedupe, grid
from repro.sweep.points import SweepPoint, app_points

#: Machine columns of the extended artefacts, paper families first.
EXTENDED_MACHINES: Tuple[str, ...] = (
    "mmx64", "mmx128", "mmx256", "vmmx64", "vmmx128", "vmmx256",
)

#: Width rows of the extended Fig. 5, one past the paper's table.
EXTENDED_WAYS: Tuple[int, ...] = (2, 4, 8, 16)

def _machine_columns(machines: Sequence[str], way: int) -> List[Column]:
    """One column per registered machine: its program, and the machine
    axis wherever the machine is not that program's own."""
    columns: List[Column] = []
    for name in machines:
        spec = get_machine(name, way)
        machine = None if spec.is_native_program else spec.name
        columns.append((name, spec.program, machine, None))
    return columns


def _column_points(
    columns: Sequence[Column], way: int, seed: int
) -> List[SweepPoint]:
    """Every kernel timing a set of kernel columns reads, baseline first."""
    kernels = FIG4_KERNELS + ("fdct",)
    points = grid(kernels, ("mmx64",), (2,), (seed,))
    points += [
        SweepPoint(kernel=kernel, version=version, way=way, seed=seed,
                   machine=machine, vl=vl)
        for kernel in kernels
        for _, version, machine, vl in columns
    ]
    return dedupe(points)


def fig4x_points(
    way: int = 2,
    machines: Sequence[str] = EXTENDED_MACHINES,
    seed: int = 0,
) -> List[SweepPoint]:
    """Every kernel timing the extended Fig. 4 reads."""
    return _column_points(_machine_columns(machines, way), way, seed)


def fig4x_data(
    way: int = 2, machines: Sequence[str] = EXTENDED_MACHINES
) -> Dict[str, Dict[str, float]]:
    """Kernel speed-ups over 2-way MMX64 across the machine registry."""
    return kernel_speedups(
        fig4x_points(way, machines), _machine_columns(machines, way), way
    )


def fig4x_render(way: int = 2) -> str:
    return render_kernel_speedups(
        fig4x_data(way), EXTENDED_MACHINES,
        f"Figure 4x: kernel speed-ups on the {way}-way core across the "
        "machine registry (baseline 2-way MMX64)",
    )


def fig5x_points(
    machines: Sequence[str] = EXTENDED_MACHINES,
    ways: Sequence[int] = EXTENDED_WAYS,
    seed: int = 0,
) -> List[SweepPoint]:
    """Kernel timings behind the extended full-application figure."""
    return app_points(APP_NAMES, machines, ways, seed=seed)


def fig5x_data(
    machines: Sequence[str] = EXTENDED_MACHINES,
    ways: Sequence[int] = EXTENDED_WAYS,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Full-application speed-ups across machines and extended widths."""
    return app_speedups(machines, ways)


def fig5x_render() -> str:
    return render_app_speedups(
        fig5x_data(), EXTENDED_MACHINES, EXTENDED_WAYS,
        "Figure 5x: full-application speed-ups across the machine "
        "registry, widths to 16-way (baseline 2-way MMX64)",
    )


# ---------------------------------------------------------------------------
# fig4v / fig5v: the 1-D-vs-2-D question on the post-2005 families
# ---------------------------------------------------------------------------


#: Kernel columns of fig4v: (version, vl, column label).  The VLA
#: family appears at each runtime VL it covers -- one binary at two
#: widths, re-timing the mmx64 and mmx128 traces on its own machine --
#: and the tile family is the 2-D counterpart.
VLA_TILE_COLUMNS: Tuple[Tuple[str, Optional[int], str], ...] = (
    ("mmx128", None, "mmx128"),
    ("vla", 8, "vla/vl8"),
    ("vla", 16, "vla/vl16"),
    ("vmmx128", None, "vmmx128"),
    ("tile", None, "tile"),
)

#: Machine rows of the extended Fig. 5v: the paper's widest 1-D and 2-D
#: families, their 256-bit extensions, and the two post-2005 designs.
FIG5V_MACHINES: Tuple[str, ...] = (
    "mmx128", "mmx256", "vla", "vmmx128", "vmmx256", "tile",
)


#: :data:`VLA_TILE_COLUMNS` as kernel speed-up columns.
_FIG4V_COLUMNS: Tuple[Column, ...] = tuple(
    (label, version, None, vl) for version, vl, label in VLA_TILE_COLUMNS
)


def fig4v_points(way: int = 2, seed: int = 0) -> List[SweepPoint]:
    """Every kernel timing fig4v reads (baseline plus all columns)."""
    return _column_points(_FIG4V_COLUMNS, way, seed)


def fig4v_data(way: int = 2) -> Dict[str, Dict[str, float]]:
    """Kernel speed-ups of the VLA and tile families over 2-way MMX64.

    The 1-D-vs-2-D comparison of Fig. 4 re-asked on the post-2005
    designs: the VLA column pair shows one binary scaling across
    runtime vector lengths, the tile column the deeper 2-D register
    file against VMMX128.
    """
    return kernel_speedups(fig4v_points(way), _FIG4V_COLUMNS, way)


def fig4v_render(way: int = 2) -> str:
    return render_kernel_speedups(
        fig4v_data(way), [label for label, _, _, _ in _FIG4V_COLUMNS],
        f"Figure 4v: kernel speed-ups on the {way}-way core for the "
        "runtime-VL and 2-D tile families (baseline 2-way MMX64)",
    )


def fig5v_points(
    machines: Sequence[str] = FIG5V_MACHINES,
    ways: Sequence[int] = EXTENDED_WAYS,
    seed: int = 0,
) -> List[SweepPoint]:
    """Kernel timings behind the VLA/tile full-application figure."""
    return app_points(APP_NAMES, machines, ways, seed=seed)


def fig5v_data(
    machines: Sequence[str] = FIG5V_MACHINES,
    ways: Sequence[int] = EXTENDED_WAYS,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Full-application speed-ups of the post-2005 families by width.

    The VLA column runs at its architected maximum vector length (one
    binary; the per-VL scaling is fig4v's axis), so the figure compares
    machine families width-for-width exactly like Fig. 5.
    """
    return app_speedups(machines, ways)


def fig5v_render() -> str:
    return render_app_speedups(
        fig5v_data(), FIG5V_MACHINES, EXTENDED_WAYS,
        "Figure 5v: full-application speed-ups of the 1-D runtime-VL "
        "and 2-D tile families, widths to 16-way (baseline 2-way MMX64)",
    )
