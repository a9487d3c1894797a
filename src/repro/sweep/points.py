"""Declarative design-space points and axis grids.

A :class:`SweepPoint` names one experiment: a kernel version timed on one
modeled machine, optionally with configuration overrides (the ablation
axes).  Grids are enumerated deterministically -- the cartesian product
in the order the axes are given -- so a sweep's point list, chunking and
result order are reproducible regardless of how it executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.machines import find_geometry

Overrides = Union[Mapping[str, Any], Sequence[Tuple[str, Any]], None]

#: Override values must be hashable (points are dict keys) and
#: JSON-stable (points are store addresses); these scalar types are both.
_SCALAR_OVERRIDE_TYPES = (bool, int, float, str, type(None))


def _freeze_overrides(overrides: Overrides) -> Tuple[Tuple[str, Any], ...]:
    """Normalise overrides to a sorted, hashable tuple of (name, value).

    Rejects non-scalar values up front: a list or dict here used to
    surface later as an opaque ``TypeError: unhashable type`` from the
    frozen dataclass (or as a corrupt store address), with no hint of
    which override was at fault.
    """
    if not overrides:
        return ()
    if isinstance(overrides, Mapping):
        items = overrides.items()
    else:
        items = tuple(overrides)
    frozen = []
    for k, v in items:
        if not isinstance(v, _SCALAR_OVERRIDE_TYPES):
            raise TypeError(
                f"override {str(k)!r} has non-scalar value {v!r} "
                f"({type(v).__name__}); override values must be "
                "JSON-stable scalars (bool, int, float, str or None) so "
                "points stay hashable and store-addressable"
            )
        frozen.append((str(k), v))
    return tuple(sorted(frozen))


@dataclass(frozen=True)
class SweepPoint:
    """One point of the design space: kernel x version x machine x seed.

    ``version`` names the kernel *program* (the emulation ISA the trace
    is generated with); ``machine`` optionally names a registered
    machine that executes that program -- ``None`` (the default, and
    the normalised form when it equals ``version``) means the program's
    own architected machine, which is exactly the pre-machine-axis
    behaviour, so legacy points hash and address identically.

    ``core_overrides`` patches :class:`~repro.machines.CoreConfig`
    fields (``lanes``, ``mem_ports``, ...); ``mem_overrides`` patches the
    memory hierarchy with dotted paths into
    :class:`~repro.machines.MemHierConfig` (``l2.port_bytes``,
    ``strided_rows_per_cycle``, ...).
    """

    kernel: str
    version: str
    way: int
    seed: int = 0
    core_overrides: Tuple[Tuple[str, Any], ...] = ()
    mem_overrides: Tuple[Tuple[str, Any], ...] = ()
    machine: Optional[str] = None
    #: Runtime vector length, only meaningful for ``runtime_vl``
    #: (vector-length-agnostic) program families -- for those it is
    #: normalised to the geometry's maximum when omitted, since the
    #: emitted trace depends on it; for every other version it must stay
    #: ``None`` (rejected otherwise, naming the axis).
    vl: Optional[int] = None

    def __post_init__(self) -> None:
        # The empty tuple is already frozen; points are built by the
        # thousand on the warm path, almost all without overrides.
        if self.core_overrides != ():
            object.__setattr__(
                self, "core_overrides", _freeze_overrides(self.core_overrides)
            )
        if self.mem_overrides != ():
            object.__setattr__(
                self, "mem_overrides", _freeze_overrides(self.mem_overrides)
            )
        if self.machine == self.version:
            object.__setattr__(self, "machine", None)
        geometry = find_geometry(self.version)
        runtime_vl = geometry is not None and geometry.runtime_vl
        if self.vl is not None and not runtime_vl:
            raise ValueError(
                f"point has vl={self.vl!r} but version {self.version!r} "
                "has no 'vl' axis (only runtime_vl machine families "
                "take a runtime vector length)"
            )
        if runtime_vl:
            vl = self.vl
            if vl is None:
                vl = geometry.row_bytes
            if isinstance(vl, bool) or not isinstance(vl, int):
                raise ValueError(
                    f"'vl' axis must be an integer number of bytes, got {vl!r}"
                )
            if vl < 8 or vl & (vl - 1) or vl > geometry.row_bytes:
                raise ValueError(
                    f"'vl' axis must be a power of two in "
                    f"[8, {geometry.row_bytes}], got {vl}"
                )
            object.__setattr__(self, "vl", vl)

    @property
    def machine_name(self) -> str:
        """The registered machine this point times on."""
        return self.machine if self.machine is not None else self.version

    @property
    def label(self) -> str:
        """Short human-readable name used in progress reporting."""
        text = f"{self.kernel}/{self.version}/{self.way}way"
        if self.machine is not None:
            text += f"@{self.machine}"
        if self.vl is not None:
            text += f"/vl{self.vl}"
        if self.seed:
            text += f"/seed{self.seed}"
        for name, value in self.core_overrides + self.mem_overrides:
            text += f"/{name}={value}"
        return text

    def as_dict(self) -> Dict[str, Any]:
        """JSON-stable description of the point (for hashing/records).

        The ``machine`` key only appears when the axis is actually used,
        so every pre-existing point keeps its exact historical identity
        (the store-key stability tests pin this).
        """
        data = {
            "kernel": self.kernel,
            "version": self.version,
            "way": self.way,
            "seed": self.seed,
            "core_overrides": [list(item) for item in self.core_overrides],
            "mem_overrides": [list(item) for item in self.mem_overrides],
        }
        if self.machine is not None:
            data["machine"] = self.machine
        if self.vl is not None:
            data["vl"] = self.vl
        return data


def point_from_dict(data: Any) -> SweepPoint:
    """Rebuild a :class:`SweepPoint` from its :meth:`~SweepPoint.as_dict` form.

    The inverse the remote executors ship rebalanced work through: a
    points file is a JSON list of these dicts, and a malformed entry
    raises :class:`ValueError` naming what is wrong rather than
    surfacing as a ``KeyError`` from deep inside a worker.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a sweep point must be a JSON object, got {data!r}")
    try:
        return SweepPoint(
            kernel=str(data["kernel"]),
            version=str(data["version"]),
            way=int(data["way"]),
            seed=int(data.get("seed", 0)),
            core_overrides=tuple(
                (str(k), v) for k, v in data.get("core_overrides", ())
            ),
            mem_overrides=tuple(
                (str(k), v) for k, v in data.get("mem_overrides", ())
            ),
            machine=data.get("machine"),
            vl=None if data.get("vl") is None else int(data["vl"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid sweep point {data!r}: {exc}") from None


def write_points_file(path: Any, points: Sequence[SweepPoint]) -> None:
    """Serialise ``points`` as the JSON list ``sweep --points-file`` reads."""
    import json

    with open(path, "w") as handle:
        json.dump([point.as_dict() for point in points], handle, indent=2)
        handle.write("\n")


def read_points_file(path: Any) -> List[SweepPoint]:
    """Load a ``--points-file`` JSON list; :class:`ValueError` on junk."""
    import json

    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise ValueError(
            f"a points file must hold a JSON list of points, got "
            f"{type(data).__name__}"
        )
    return [point_from_dict(entry) for entry in data]


def grid(
    kernels: Sequence[str],
    versions: Sequence[str],
    ways: Sequence[int],
    seeds: Sequence[int] = (0,),
    core_overrides: Overrides = None,
    mem_overrides: Overrides = None,
) -> List[SweepPoint]:
    """Deterministic cartesian product of the given axes.

    The nesting order is kernel (outer) > version > way > seed (inner),
    matching the presentation order of the paper's figures.
    """
    return [
        SweepPoint(
            kernel=kernel,
            version=version,
            way=way,
            seed=seed,
            core_overrides=core_overrides,
            mem_overrides=mem_overrides,
        )
        for kernel in kernels
        for version in versions
        for way in ways
        for seed in seeds
    ]


def machine_grid(
    kernels: Sequence[str],
    machines: Sequence[str],
    ways: Sequence[int],
    seeds: Sequence[int] = (0,),
    core_overrides: Overrides = None,
    mem_overrides: Overrides = None,
) -> List[SweepPoint]:
    """Cartesian product over *registered machines* instead of ISAs.

    Each machine resolves its kernel version through the registry: the
    point's ``version`` is the machine's program (so ``mmx256`` points
    reuse the stored ``mmx128`` traces) and the ``machine`` axis carries
    the machine name whenever it differs.  Nesting order matches
    :func:`grid`: kernel > machine > way > seed.
    """
    from repro.machines import program_of

    return [
        SweepPoint(
            kernel=kernel,
            version=program_of(machine),
            way=way,
            seed=seed,
            core_overrides=core_overrides,
            mem_overrides=mem_overrides,
            machine=machine,
        )
        for kernel in kernels
        for machine in machines
        for way in ways
        for seed in seeds
    ]


def dedupe(points: Iterable[SweepPoint]) -> List[SweepPoint]:
    """Drop duplicate points, keeping first-occurrence order."""
    seen = set()
    out: List[SweepPoint] = []
    for point in points:
        if point not in seen:
            seen.add(point)
            out.append(point)
    return out


def shard_assignment(
    points: Iterable[SweepPoint], count: int
) -> List[List[SweepPoint]]:
    """All ``count`` shards of the deduplicated point list at once.

    The full assignment behind :func:`shard`: element ``i`` is exactly
    ``shard(points, i, count)``.  A campaign orchestrator uses this to
    know every shard's point set (totals, progress denominators, store
    keys) without recomputing the greedy placement per shard.  Like
    :func:`shard`, the result is a pure function of the point list, so
    every host -- and the orchestrator supervising them -- computes the
    identical partition.
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(
            f"shard count must be a positive integer, got {count!r}"
        )
    ordered = dedupe(points)
    if count == 1:
        return [ordered]
    from repro.sweep.engine import trace_key

    groups: Dict[str, List[Tuple[int, SweepPoint]]] = {}
    for position, point in enumerate(ordered):
        groups.setdefault(trace_key(point), []).append((position, point))
    # Largest groups placed first onto the least-loaded shard; every
    # tie broken by first-occurrence position then shard number, so the
    # assignment is a pure function of the point list.
    loads = [0] * count
    assigned: List[List[Tuple[int, SweepPoint]]] = [[] for _ in range(count)]
    for members in sorted(groups.values(), key=lambda m: (-len(m), m[0][0])):
        target = min(range(count), key=lambda s: (loads[s], s))
        loads[target] += len(members)
        assigned[target].extend(members)
    return [
        [point for _, point in sorted(members, key=lambda m: m[0])]
        for members in assigned
    ]


def shard(points: Iterable[SweepPoint], index: int, count: int) -> List[SweepPoint]:
    """Deterministic shard ``index`` (0-based) of ``count`` shards.

    Points sharing a dynamic trace (same
    :func:`~repro.sweep.engine.trace_key`, i.e. the same
    :func:`~repro.sweep.engine.trace_source`) always land in the same
    shard, so a campaign split across N
    hosts emulates each kernel exactly once *somewhere* instead of once
    per host -- trace-cache locality is what dominates cold sweep
    wall-clock.  Trace groups are balanced greedily by point count
    (largest group first, ties to the lower shard) and every shard
    keeps its points in original order.  The shards partition the
    deduplicated point list exactly: no loss, no overlap, for any
    ``count`` (see :func:`shard_assignment` for the whole partition).
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(
            f"shard count must be a positive integer, got {count!r}"
        )
    if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, {count}), got {index!r}"
        )
    return shard_assignment(points, count)[index]


def reshard_keys(
    points: Iterable[SweepPoint],
    keys: Iterable[str],
    count: int,
) -> List[List[SweepPoint]]:
    """Re-partition the points whose store key is in ``keys`` onto ``count`` shards.

    The elastic-rebalancing primitive: when a host dies mid-shard, the
    orchestrator takes the dead shard's original point list, the
    unfinished keys reported by :meth:`ResultStore.missing` over the
    shipped-back partial store, and the number of surviving hosts --
    and gets back a fresh trace-grouped, size-balanced assignment of
    *only the unfinished work*.  Finished points are never re-run and a
    key with no matching point raises :class:`ValueError` loudly (it
    means the caller paired keys with the wrong point list).

    Like :func:`shard_assignment` the result is a pure function of its
    inputs, so a resumed orchestrator recomputes the identical pieces.
    """
    from repro.sweep.engine import point_key

    wanted = set(keys)
    unfinished: List[SweepPoint] = []
    matched = set()
    for point in dedupe(points):
        key = point_key(point)
        if key in wanted:
            unfinished.append(point)
            matched.add(key)
    unknown = wanted - matched
    if unknown:
        raise ValueError(
            f"reshard_keys: {len(unknown)} key(s) have no matching point "
            f"(first: {sorted(unknown)[0]}); the key list does not belong "
            "to this point list"
        )
    return shard_assignment(unfinished, count)


def parse_shard_spec(spec: str) -> Tuple[int, int]:
    """Parse the CLI ``--shard i/N`` spelling into a 0-based ``(index, count)``.

    ``i`` is 1-based on the command line ("shard 2 of 4" is ``2/4``);
    anything malformed or out of range raises :class:`ValueError` with
    a message naming ``--shard`` and the offending value.
    """
    parts = str(spec).strip().split("/")
    if len(parts) != 2 or not all(part.strip() for part in parts):
        raise ValueError(
            f"--shard takes i/N (e.g. 1/4), got {spec!r}"
        )
    try:
        ordinal, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"--shard takes two integers i/N (e.g. 1/4), got {spec!r}"
        ) from None
    if count < 1:
        raise ValueError(
            f"--shard count must be at least 1, got {spec!r}"
        )
    if not 1 <= ordinal <= count:
        raise ValueError(
            f"--shard index must be between 1 and {count}, got {spec!r}"
        )
    return ordinal - 1, count


# ---------------------------------------------------------------------------
# Named grids: the point sets behind the paper's artefacts.
# ---------------------------------------------------------------------------


def fig4_points(way: int = 2, seed: int = 0) -> List[SweepPoint]:
    """Every kernel timing Fig. 4 reads (including the MMX64 baseline)."""
    from repro.kernels.registry import FIG4_KERNELS
    from repro.machines import ISAS

    kernels = FIG4_KERNELS + ("fdct",)
    points = grid(kernels, ("mmx64",), (2,), (seed,))
    points += grid(kernels, ISAS, (way,), (seed,))
    return dedupe(points)


def app_points(
    apps: Sequence[str],
    machines: Sequence[str],
    ways: Sequence[int],
    seed: int = 0,
) -> List[SweepPoint]:
    """Kernel timings needed to compose the given applications.

    The 2-way MMX64 baseline plus every kernel of ``apps`` on each
    registered machine of ``machines`` at each width of ``ways``.
    """
    from repro.kernels.registry import APP_KERNELS

    kernels: List[str] = []
    for app in apps:
        for kernel in APP_KERNELS[app]:
            if kernel not in kernels:
                kernels.append(kernel)
    points = grid(kernels, ("mmx64",), (2,), (seed,))
    points += machine_grid(kernels, tuple(machines), tuple(ways), (seed,))
    return dedupe(points)


def fig5_points(seed: int = 0) -> List[SweepPoint]:
    from repro.apps.runner import APP_NAMES
    from repro.machines import ISAS, WAYS

    return app_points(APP_NAMES, ISAS, WAYS, seed=seed)


def fig6_points(app: str = "jpegdec", seed: int = 0) -> List[SweepPoint]:
    from repro.machines import ISAS, WAYS

    return app_points((app,), ISAS, WAYS, seed=seed)


def fig7_points(seed: int = 0) -> List[SweepPoint]:
    from repro.apps.runner import APP_NAMES
    from repro.machines import ISAS

    return app_points(APP_NAMES, ISAS, (2,), seed=seed)


def full_points(seed: int = 0) -> List[SweepPoint]:
    """All kernels on all twelve modeled machines."""
    from repro.kernels.registry import KERNELS
    from repro.machines import ISAS, WAYS

    return grid(tuple(KERNELS), ISAS, WAYS, (seed,))


#: Named grids accepted by ``python -m repro sweep --grid``.
GRIDS = {
    "fig4": fig4_points,
    "fig5": fig5_points,
    "fig6": fig6_points,
    "fig7": fig7_points,
    "full": full_points,
}


def resolve_points(
    grid_name: Optional[str] = None,
    kernels: Optional[Sequence[str]] = None,
    machines: Optional[Sequence[str]] = None,
    ways: Optional[Sequence[int]] = None,
    seeds: Sequence[int] = (0,),
) -> List[SweepPoint]:
    """The validated, deduplicated points a grid name or axis set names.

    ``grid_name`` picks one of :data:`GRIDS` (the axes are then
    ignored); otherwise the axes span a :func:`machine_grid`, an
    omitted axis taking its default -- every kernel, the four paper
    ISAs, the paper's widths.  Raises :class:`ValueError` naming an
    unknown grid, kernel or machine, or a non-positive width.
    """
    if grid_name is not None:
        if grid_name not in GRIDS:
            raise ValueError(
                f"unknown grid {grid_name!r}; available: {', '.join(GRIDS)}"
            )
        return dedupe(GRIDS[grid_name]())
    from repro.kernels.registry import KERNELS
    from repro.machines import ISAS, WAYS, is_registered, machine_names

    kernels = tuple(KERNELS) if kernels is None else tuple(kernels)
    machines = ISAS if machines is None else tuple(machines)
    ways = WAYS if ways is None else tuple(ways)
    unknown = [k for k in kernels if k not in KERNELS]
    if unknown:
        raise ValueError(
            f"unknown kernel(s): {', '.join(unknown)}; "
            "try: python -m repro list"
        )
    bad = [m for m in machines if not is_registered(m)]
    if bad:
        raise ValueError(
            f"unknown machine(s): {', '.join(bad)}; registered: "
            f"{', '.join(machine_names())}"
        )
    bad_ways = [w for w in ways if w < 1]
    if bad_ways:
        raise ValueError(
            f"machine widths must be positive integers, got "
            f"{'/'.join(str(w) for w in bad_ways)}"
        )
    return dedupe(machine_grid(kernels, machines, ways, tuple(seeds)))
