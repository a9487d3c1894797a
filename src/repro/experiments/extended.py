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

from typing import Dict, Optional, Sequence, Tuple

from repro.apps import APP_NAMES, app_timing, run_app_profile
from repro.experiments.report import render_table
from repro.kernels.registry import FIG4_KERNELS
from repro.machines import get_machine
from repro.sweep import default_jobs, dedupe, grid, machine_grid, sweep
from repro.sweep.points import SweepPoint
from repro.timing.simulator import simulate_kernel

#: Machine columns of the extended artefacts, paper families first.
EXTENDED_MACHINES: Tuple[str, ...] = (
    "mmx64", "mmx128", "mmx256", "vmmx64", "vmmx128", "vmmx256",
)

#: Width rows of the extended Fig. 5, one past the paper's table.
EXTENDED_WAYS: Tuple[int, ...] = (2, 4, 8, 16)


def _machine_axis(name: str, way: int) -> Tuple[str, Optional[str]]:
    """(kernel version, machine-axis value) for one registered machine."""
    spec = get_machine(name, way)
    return spec.program, (None if spec.is_native_program else spec.name)


def fig4x_points(
    way: int = 2,
    machines: Sequence[str] = EXTENDED_MACHINES,
    seed: int = 0,
):
    """Every kernel timing the extended Fig. 4 reads."""
    kernels = FIG4_KERNELS + ("fdct",)
    points = grid(kernels, ("mmx64",), (2,), (seed,))
    points += machine_grid(kernels, tuple(machines), (way,), (seed,))
    return dedupe(points)


def fig4x_data(
    way: int = 2,
    machines: Sequence[str] = EXTENDED_MACHINES,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Kernel speed-ups over 2-way MMX64 across the machine registry."""
    sweep(fig4x_points(way, machines), jobs=jobs if jobs is not None else default_jobs())
    out: Dict[str, Dict[str, float]] = {}
    for kernel in FIG4_KERNELS + ("fdct",):
        base = simulate_kernel(kernel, "mmx64", 2).result.cycles
        row: Dict[str, float] = {}
        for name in machines:
            version, machine = _machine_axis(name, way)
            cycles = simulate_kernel(
                kernel, version, way, machine=machine
            ).result.cycles
            row[name] = base / cycles
        out[kernel] = row
    return out


def fig4x_render(way: int = 2) -> str:
    data = fig4x_data(way)
    rows = []
    for kernel, cells in data.items():
        label = kernel if kernel != "fdct" else "fdct [extra]"
        rows.append([label] + [cells[name] for name in EXTENDED_MACHINES])
    return render_table(
        ("kernel",) + tuple(EXTENDED_MACHINES),
        rows,
        title=(
            f"Figure 4x: kernel speed-ups on the {way}-way core across the "
            "machine registry (baseline 2-way MMX64)"
        ),
    )


def fig5x_points(
    machines: Sequence[str] = EXTENDED_MACHINES,
    ways: Sequence[int] = EXTENDED_WAYS,
    seed: int = 0,
):
    """Kernel timings behind the extended full-application figure."""
    from repro.kernels.registry import APP_KERNELS

    kernels = []
    for app in APP_NAMES:
        for kernel in APP_KERNELS[app]:
            if kernel not in kernels:
                kernels.append(kernel)
    points = grid(tuple(kernels), ("mmx64",), (2,), (seed,))
    points += machine_grid(tuple(kernels), tuple(machines), tuple(ways), (seed,))
    return dedupe(points)


def fig5x_data(
    machines: Sequence[str] = EXTENDED_MACHINES,
    ways: Sequence[int] = EXTENDED_WAYS,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Full-application speed-ups across machines and extended widths."""
    sweep(
        fig5x_points(machines, ways),
        jobs=jobs if jobs is not None else default_jobs(),
    )
    out: Dict[str, Dict[int, Dict[str, float]]] = {}
    for app in APP_NAMES:
        profile = run_app_profile(app)
        base = app_timing(profile, "mmx64", 2).total_cycles
        out[app] = {
            way: {
                name: base / app_timing(profile, name, way).total_cycles
                for name in machines
            }
            for way in ways
        }
    out["average"] = {
        way: {
            name: sum(out[app][way][name] for app in APP_NAMES) / len(APP_NAMES)
            for name in machines
        }
        for way in ways
    }
    return out


def fig5x_render() -> str:
    data = fig5x_data()
    rows = []
    for app in APP_NAMES + ("average",):
        for way in EXTENDED_WAYS:
            rows.append(
                [app, f"{way}-way"]
                + [data[app][way][name] for name in EXTENDED_MACHINES]
            )
    return render_table(
        ("application", "machine") + tuple(EXTENDED_MACHINES),
        rows,
        title=(
            "Figure 5x: full-application speed-ups across the machine "
            "registry, widths to 16-way (baseline 2-way MMX64)"
        ),
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


def fig4v_points(way: int = 2, seed: int = 0):
    """Every kernel timing fig4v reads (baseline plus all columns)."""
    kernels = FIG4_KERNELS + ("fdct",)
    points = grid(kernels, ("mmx64",), (2,), (seed,))
    points += [
        SweepPoint(kernel=kernel, version=version, way=way, seed=seed, vl=vl)
        for kernel in kernels
        for version, vl, _ in VLA_TILE_COLUMNS
    ]
    return dedupe(points)


def fig4v_data(
    way: int = 2, jobs: Optional[int] = None
) -> Dict[str, Dict[str, float]]:
    """Kernel speed-ups of the VLA and tile families over 2-way MMX64.

    The 1-D-vs-2-D comparison of Fig. 4 re-asked on the post-2005
    designs: the VLA column pair shows one binary scaling across
    runtime vector lengths, the tile column the deeper 2-D register
    file against VMMX128.
    """
    sweep(fig4v_points(way), jobs=jobs if jobs is not None else default_jobs())
    out: Dict[str, Dict[str, float]] = {}
    for kernel in FIG4_KERNELS + ("fdct",):
        base = simulate_kernel(kernel, "mmx64", 2).result.cycles
        out[kernel] = {
            label: base / simulate_kernel(
                kernel, version, way, vl=vl
            ).result.cycles
            for version, vl, label in VLA_TILE_COLUMNS
        }
    return out


def fig4v_render(way: int = 2) -> str:
    data = fig4v_data(way)
    labels = tuple(label for _, _, label in VLA_TILE_COLUMNS)
    rows = []
    for kernel, cells in data.items():
        label = kernel if kernel != "fdct" else "fdct [extra]"
        rows.append([label] + [cells[name] for name in labels])
    return render_table(
        ("kernel",) + labels,
        rows,
        title=(
            f"Figure 4v: kernel speed-ups on the {way}-way core for the "
            "runtime-VL and 2-D tile families (baseline 2-way MMX64)"
        ),
    )


def fig5v_points(
    machines: Sequence[str] = FIG5V_MACHINES,
    ways: Sequence[int] = EXTENDED_WAYS,
    seed: int = 0,
):
    """Kernel timings behind the VLA/tile full-application figure."""
    from repro.kernels.registry import APP_KERNELS

    kernels = []
    for app in APP_NAMES:
        for kernel in APP_KERNELS[app]:
            if kernel not in kernels:
                kernels.append(kernel)
    points = grid(tuple(kernels), ("mmx64",), (2,), (seed,))
    points += machine_grid(tuple(kernels), tuple(machines), tuple(ways), (seed,))
    return dedupe(points)


def fig5v_data(
    machines: Sequence[str] = FIG5V_MACHINES,
    ways: Sequence[int] = EXTENDED_WAYS,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Full-application speed-ups of the post-2005 families by width.

    The VLA column runs at its architected maximum vector length (one
    binary; the per-VL scaling is fig4v's axis), so the figure compares
    machine families width-for-width exactly like Fig. 5.
    """
    sweep(
        fig5v_points(machines, ways),
        jobs=jobs if jobs is not None else default_jobs(),
    )
    out: Dict[str, Dict[int, Dict[str, float]]] = {}
    for app in APP_NAMES:
        profile = run_app_profile(app)
        base = app_timing(profile, "mmx64", 2).total_cycles
        out[app] = {
            way: {
                name: base / app_timing(profile, name, way).total_cycles
                for name in machines
            }
            for way in ways
        }
    out["average"] = {
        way: {
            name: sum(out[app][way][name] for app in APP_NAMES) / len(APP_NAMES)
            for name in machines
        }
        for way in ways
    }
    return out


def fig5v_render() -> str:
    data = fig5v_data()
    rows = []
    for app in APP_NAMES + ("average",):
        for way in EXTENDED_WAYS:
            rows.append(
                [app, f"{way}-way"]
                + [data[app][way][name] for name in FIG5V_MACHINES]
            )
    return render_table(
        ("application", "machine") + tuple(FIG5V_MACHINES),
        rows,
        title=(
            "Figure 5v: full-application speed-ups of the 1-D runtime-VL "
            "and 2-D tile families, widths to 16-way (baseline 2-way MMX64)"
        ),
    )
