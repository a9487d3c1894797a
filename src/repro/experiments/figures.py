"""Figures 4-7 of the paper: the evaluation results.

Each ``figN_data`` function returns the numbers behind the paper's figure
(speed-ups, cycle breakdowns, instruction counts) and each
``figN_render`` formats them next to the paper's reported values where
the paper gives any.

Each data function first sweeps its kernel-timing grid (the artefact's
entry in ``ARTIFACT_POINTS``) through the sweep engine -- ``REPRO_JOBS``
kernel simulations run in parallel on a cold store, and a warm store
answers every point from disk -- then composes the figure from that
sweep's report alone: every timing is read as ``report[SweepPoint(...)]``,
and one outside the grid raises :class:`KeyError` rather than being
computed mid-render.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import APP_NAMES, app_instruction_counts, app_timing, run_app_profile
from repro.apps.appmodel import KernelLookup, scalar_ipc, scalar_mix
from repro.experiments.report import render_table
from repro.kernels.registry import FIG4_KERNELS
from repro.sweep import (
    SweepPoint,
    SweepReport,
    default_jobs,
    fig4_points,
    fig6_points,
    fig7_points,
    sweep,
)
from repro.sweep.points import app_points
from repro.machines import ISAS, WAYS
from repro.timing.simulator import KernelTiming

#: Speed-ups the paper quotes in the Fig. 4 discussion (§IV-A).
FIG4_PAPER = {
    ("idct", "mmx128"): 1.47,
    ("ycc", "mmx128"): 1.43,
    ("addblock", "mmx128"): 1.25,
    ("h2v2", "mmx128"): 1.19,
    ("idct", "vmmx128"): 4.10,
    ("ycc", "vmmx128"): 2.71,
    ("motion2", "vmmx128"): 2.43,
    ("motion1", "vmmx128"): 2.29,
}


#: One kernel speed-up column: (label, kernel version, machine axis, vl).
Column = Tuple[str, str, Optional[str], Optional[int]]

#: Fig. 4's columns: each paper ISA on its own machine.
ISA_COLUMNS: Tuple[Column, ...] = tuple((isa, isa, None, None) for isa in ISAS)


def report_lookup(report: SweepReport) -> KernelLookup:
    """An app composition's :data:`~repro.apps.appmodel.KernelLookup`
    over ``report`` alone: a point outside its grid raises :class:`KeyError`."""

    def lookup(
        kernel: str, version: str, way: int, machine: Optional[str] = None
    ) -> KernelTiming:
        return report[SweepPoint(kernel=kernel, version=version, way=way, machine=machine)]

    return lookup


def kernel_speedups(
    points: Sequence[SweepPoint], columns: Sequence[Column], way: int
) -> Dict[str, Dict[str, float]]:
    """Kernel speed-ups over the 2-way MMX64 baseline, one per column.

    The composition behind Fig. 4 and its extensions: ``points`` (every
    timing the columns read, baseline included) are swept, then each
    column's timing at ``way`` is read from the sweep's report.
    """
    report = sweep(points, jobs=default_jobs())
    out: Dict[str, Dict[str, float]] = {}
    for kernel in FIG4_KERNELS + ("fdct",):
        base = report[SweepPoint(kernel=kernel, version="mmx64", way=2)].result.cycles
        out[kernel] = {
            label: base / report[
                SweepPoint(kernel=kernel, version=version, way=way,
                           machine=machine, vl=vl)
            ].result.cycles
            for label, version, machine, vl in columns
        }
    return out


def render_kernel_speedups(
    data: Dict[str, Dict[str, float]], labels: Sequence[str], title: str
) -> str:
    """One row per kernel of :func:`kernel_speedups` output."""
    rows = []
    for kernel, cells in data.items():
        label = kernel if kernel != "fdct" else "fdct [extra]"
        rows.append([label] + [cells[name] for name in labels])
    return render_table(("kernel",) + tuple(labels), rows, title=title)


def app_speedups(
    machines: Sequence[str], ways: Sequence[int]
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Full-application speed-ups over 2-way MMX64, plus the 'average' panel.

    The composition behind Fig. 5 and its extensions: every application
    on every machine of ``machines`` at every width of ``ways``.  Each
    application's scalar IPCs are fetched for all widths at once.
    """
    lookup = report_lookup(
        sweep(app_points(APP_NAMES, machines, ways), jobs=default_jobs())
    )
    widths = (2,) + tuple(ways)
    out: Dict[str, Dict[int, Dict[str, float]]] = {}
    for app in APP_NAMES:
        profile = run_app_profile(app)
        ipcs = dict(zip(widths, scalar_ipc(widths, *scalar_mix(profile))))
        base = app_timing(profile, "mmx64", 2, lookup, ipc=ipcs[2]).total_cycles
        out[app] = {
            way: {
                name: base / app_timing(
                    profile, name, way, lookup, ipc=ipcs[way]
                ).total_cycles
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


def render_app_speedups(
    data: Dict[str, Dict[int, Dict[str, float]]],
    machines: Sequence[str],
    ways: Sequence[int],
    title: str,
) -> str:
    """One row per application and width of :func:`app_speedups` output."""
    rows = [
        [app, f"{way}-way"] + [data[app][way][name] for name in machines]
        for app in APP_NAMES + ("average",)
        for way in ways
    ]
    return render_table(
        ("application", "machine") + tuple(machines), rows, title=title
    )


def fig4_data(way: int = 2) -> Dict[str, Dict[str, float]]:
    """Kernel speed-ups over the 2-way MMX64 baseline (Fig. 4)."""
    return kernel_speedups(fig4_points(way), ISA_COLUMNS, way)


def fig4_render() -> str:
    data = fig4_data()
    rows = []
    for kernel in FIG4_KERNELS + ("fdct",):
        row: List[object] = [kernel if kernel != "fdct" else "fdct [extra]"]
        for isa in ISAS:
            row.append(data[kernel][isa])
        paper = [
            f"{isa}:{FIG4_PAPER[(kernel, isa)]}"
            for isa in ISAS
            if (kernel, isa) in FIG4_PAPER
        ]
        row.append(", ".join(paper) if paper else "-")
        rows.append(row)
    return render_table(
        ("kernel",) + tuple(ISAS) + ("paper",),
        rows,
        title="Figure 4: kernel speed-ups on the 2-way core (baseline 2-way MMX64)",
    )


def fig5_data() -> Dict[str, Dict[int, Dict[str, float]]]:
    """Full-application speed-ups (Fig. 5), plus the 'average' panel."""
    return app_speedups(ISAS, WAYS)


def fig5_render() -> str:
    return render_app_speedups(
        fig5_data(), ISAS, WAYS,
        "Figure 5: full-application speed-ups (baseline 2-way MMX64)",
    )


def fig6_data(app: str = "jpegdec") -> Dict[int, Dict[str, Dict[str, float]]]:
    """Scalar/vector cycle breakdown normalised to 2-way MMX64 = 100."""
    lookup = report_lookup(sweep(fig6_points(app), jobs=default_jobs()))
    profile = run_app_profile(app)
    ipcs = dict(zip(WAYS, scalar_ipc(WAYS, *scalar_mix(profile))))
    norm = app_timing(profile, "mmx64", 2, lookup, ipc=ipcs[2]).total_cycles / 100.0
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for way in WAYS:
        out[way] = {}
        for isa in ISAS:
            timing = app_timing(profile, isa, way, lookup, ipc=ipcs[way])
            out[way][isa] = {
                "scalar": timing.scalar_cycles / norm,
                "vector": timing.vector_cycles / norm,
                "total": timing.total_cycles / norm,
            }
    return out


def fig6_render(app: str = "jpegdec") -> str:
    data = fig6_data(app)
    rows = []
    for way in WAYS:
        for isa in ISAS:
            cell = data[way][isa]
            rows.append(
                (
                    f"{way}-way", isa, cell["scalar"], cell["vector"],
                    cell["total"],
                    f"{100 * cell['vector'] / cell['total']:.1f}%",
                )
            )
    reduction = 100.0 * (1.0 - data[2]["vmmx128"]["vector"] / data[2]["mmx64"]["vector"])
    share8 = 100.0 * data[8]["vmmx128"]["vector"] / data[8]["vmmx128"]["total"]
    table = render_table(
        ("machine", "isa", "scalar", "vector", "total", "vector share"),
        rows,
        title=f"Figure 6: cycle count distribution ({app}), 2-way MMX64 = 100",
    )
    return table + (
        f"\n2-way VMMX128 vector-cycle reduction vs 2-way MMX64: {reduction:.0f}%"
        " (paper: 85%)"
        f"\n8-way VMMX128 vector share of total: {share8:.1f}% (paper: 2.7%)"
    )


def fig7_data() -> Dict[str, Dict[str, Dict[str, float]]]:
    """Dynamic instruction counts by category, normalised to MMX64 = 100."""
    lookup = report_lookup(sweep(fig7_points(), jobs=default_jobs()))
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for app in APP_NAMES:
        profile = run_app_profile(app)
        base_counts = app_instruction_counts(profile, "mmx64", lookup)
        norm = sum(base_counts.values()) / 100.0
        out[app] = {}
        for isa in ISAS:
            counts = app_instruction_counts(profile, isa, lookup)
            out[app][isa] = {cat: val / norm for cat, val in counts.items()}
            out[app][isa]["total"] = sum(counts.values()) / norm
    return out


def fig7_render() -> str:
    data = fig7_data()
    rows = []
    for app in APP_NAMES:
        for isa in ISAS:
            cell = data[app][isa]
            rows.append(
                (
                    app, isa, cell["smem"], cell["sarith"], cell["sctrl"],
                    cell["vmem"], cell["varith"], cell["total"],
                )
            )
    table = render_table(
        ("application", "isa", "smem", "sarith", "sctrl", "vmem", "varith", "total"),
        rows,
        title="Figure 7: dynamic instruction count by category (MMX64 = 100)",
    )
    vmmx_avg = sum(
        data[app]["vmmx128"]["total"] for app in APP_NAMES
    ) / len(APP_NAMES)
    mmx128_avg = sum(
        data[app]["mmx128"]["total"] for app in APP_NAMES
    ) / len(APP_NAMES)
    return table + (
        f"\naverage VMMX128 total: {vmmx_avg:.0f} (paper: ~70, i.e. ~30% fewer)"
        f"\naverage MMX128 total: {mmx128_avg:.0f} (paper: ~85, i.e. ~15% fewer)"
    )
