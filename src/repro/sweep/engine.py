"""Parallel design-space sweep engine.

:func:`sweep` takes a list of :class:`~repro.sweep.points.SweepPoint`,
answers every point it can from the content-addressed result store, and
simulates the rest one *trace group* -- the points of one kernel
program -- at a time: inline for ``jobs=1``, or as whole groups in
deterministic chunks across a ``concurrent.futures`` process pool
otherwise.  Every caller that turns points into timings -- the sweep,
its pool workers, :func:`compute_points`, :func:`run_point` and the
serving layer's :func:`retime_stack` -- goes through one primitive,
``_time_group``, which makes or loads the group's traces, times each
distinct (trace content, configuration) once and gives every point its
own record.  Results are byte-identical regardless of ``jobs`` because
every timing is deterministic and every result passes through the same
JSON record form.

The module also exposes :func:`run_point`, the store-aware single-point
entry the serving layer backfills a point query through, and a
simulation counter that tests (and the CLI summary) use to prove warm
runs perform zero new simulations.
:func:`repro.timing.simulator.simulate_kernel` is a one-point
:func:`sweep`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.trace import ColumnarTrace
from repro.sweep.points import SweepPoint, dedupe
from repro.sweep.points import shard as shard_points
from repro.sweep.transport import newest_mtime
from repro.sweep.store import (
    MEMO,
    config_fingerprint,
    default_store,
    kernel_timing_from_dict,
    kernel_timing_to_dict,
    load_payload,
    memo_key,
    memoise,
    record_key,
    save_payload,
    stamp,
    store_from_root,
    trace_from_payload,
    trace_to_payload,
)
from repro.machines import get_machine
from repro.machines.spec import CoreConfig, MachineSpec, MemHierConfig
from repro.timing.core import SimResult, check_config
from repro.timing.simulator import KernelTiming, simulate_trace_stack

#: Sentinel distinguishing "use the default store" from "no store".
_USE_DEFAULT = object()

#: Total kernel simulations actually performed by this process (plus, for
#: parallel sweeps, by its workers).  The warm-start tests assert this
#: does not move.
_SIM_COUNT = 0

#: Total kernel *emulations* (dynamic-trace generations) performed by
#: this process.  A point whose columnar trace is answered from the
#: memo or the store re-times without re-emulating, so this counter
#: rises strictly slower than :data:`_SIM_COUNT` on sweeps that share
#: traces across machine widths or ablation overrides.
_EMU_COUNT = 0

#: Distinct (trace content, configuration) timings this process (plus,
#: for parallel sweeps, its workers) computed: :func:`_time_group`
#: times points that share both once, so this rises no faster than
#: :data:`_SIM_COUNT`.
_TIMING_COUNT = 0

#: Test hook: how many more cold points this process's sweeps may
#: compute before :class:`SweepInterrupted` is raised (None = unlimited).
#: The restart tests use it to kill a sweep mid-campaign at an exact,
#: reproducible place.
_COMPUTE_BUDGET: Optional[int] = None

#: Deterministic fault injection for the campaign failover tests:
#: ``REPRO_FAULT_SHARD=i:after_K`` makes the worker running shard ``i``
#: (1-based, matching ``--shard i/N``) die with :class:`SweepInterrupted`
#: after ``K`` computed points; ``i:hang`` makes it hang before its
#: first store write (exactly the worker a first-heartbeat grace
#: deadline must catch).  Workers running without a shard spec --
#: including the rebalanced ``--points-file`` subsets an elastic
#: executor dispatches -- never match, so an injected fault kills its
#: target exactly once.
FAULT_ENV = "REPRO_FAULT_SHARD"

ProgressFn = Callable[[int, int, SweepPoint, str], None]


class SweepInterrupted(RuntimeError):
    """A sweep died mid-campaign (induced by :func:`set_compute_budget`).

    Stands in for a killed process in tests: everything completed
    before the interruption is already persisted, so a restart against
    the same store computes only what is genuinely left.
    """


def set_compute_budget(budget: Optional[int]) -> Optional[int]:
    """Cap how many more points this process may compute (test hook).

    Returns the previous budget so tests can restore it.  ``None``
    removes the cap.
    """
    global _COMPUTE_BUDGET
    previous = _COMPUTE_BUDGET
    _COMPUTE_BUDGET = budget
    return previous


def _shard_fault(shard: Optional[Tuple[int, int]]) -> Optional[Any]:
    """The injected fault targeting this shard spec, if any.

    Parses :data:`FAULT_ENV` and returns ``"hang"``, a non-negative
    point budget (the ``after_K`` form), or ``None`` when no fault is
    configured or it targets a different shard.  Malformed values raise
    :class:`ValueError` naming ``REPRO_FAULT_SHARD`` and the offending
    value immediately -- a fault hook that silently fails to fire would
    make the failover tests prove nothing.
    """
    import os

    raw = os.environ.get(FAULT_ENV)
    if raw is None or not raw.strip():
        return None
    text = raw.strip()
    ordinal_text, sep, action = text.partition(":")
    try:
        ordinal = int(ordinal_text)
    except ValueError:
        ordinal = 0
    if not sep or ordinal < 1:
        raise ValueError(
            f"{FAULT_ENV} takes i:after_K or i:hang with a 1-based shard "
            f"ordinal, got {raw!r}"
        )
    if action == "hang":
        fault: Any = "hang"
    elif action.startswith("after_"):
        try:
            budget = int(action[len("after_"):])
        except ValueError:
            budget = -1
        if budget < 0:
            raise ValueError(
                f"{FAULT_ENV} after_K needs a non-negative integer K, "
                f"got {raw!r}"
            )
        fault = budget
    else:
        raise ValueError(
            f"{FAULT_ENV} action must be after_K or hang, got {raw!r}"
        )
    if shard is None or shard[0] != ordinal - 1:
        return None
    return fault


def _hang_forever(shard: Tuple[int, int]) -> None:  # pragma: no cover
    """Injected ``hang`` fault: block before the first store write.

    Models a worker stuck in import or trace emulation -- alive as a
    process, silent as a store -- which is exactly the state a
    supervisor's first-heartbeat grace deadline exists to catch.  Only
    ever reached in fault-injected subprocess workers, which their
    supervisor kills.
    """
    import time as _time

    while True:
        _time.sleep(0.5)


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1: serial, in-process).

    The variable is validated once, here, so a malformed or non-positive
    value fails immediately with a message naming ``REPRO_JOBS`` and the
    offending value instead of surfacing as a bare ``ValueError`` from
    deep inside pool setup.
    """
    import os

    raw = os.environ.get("REPRO_JOBS")
    if raw is None:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be a positive integer, got {raw!r}"
        ) from None
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS must be a positive integer, got {raw!r}")
    return jobs


def simulation_count() -> int:
    """How many kernel simulations have actually run (the cache-miss count)."""
    return _SIM_COUNT


def emulation_count() -> int:
    """How many kernel emulations (trace generations) have actually run.

    Stays flat when sweeps re-time cached columnar traces -- the
    trace-store tests assert exactly that.
    """
    return _EMU_COUNT


def reset_simulation_count() -> None:
    global _SIM_COUNT, _EMU_COUNT, _TIMING_COUNT
    _SIM_COUNT = 0
    _EMU_COUNT = 0
    _TIMING_COUNT = 0


def resolve_configs(point: SweepPoint) -> Tuple[CoreConfig, MemHierConfig]:
    """The fully-resolved machine a point runs on, overrides applied.

    Resolution goes through the machine registry: the point's machine
    name (its ``version`` unless the ``machine`` axis is set) yields a
    :class:`~repro.machines.MachineSpec` at any positive way, whose
    program must match the point's kernel version -- timing a binary on
    a machine that does not execute it is a caller error.  An overridden
    pair must pass :func:`repro.timing.core.check_config`, so an override
    the timing model cannot time (a zero ROB, an L1 smaller than one set)
    raises :class:`ValueError` here, before any key or simulation.
    """
    _, config, mem = _resolve(point)
    return config, mem


def _resolve(point: SweepPoint) -> Tuple[MachineSpec, CoreConfig, MemHierConfig]:
    """:func:`resolve_configs`, with the registered spec it resolved from."""
    spec = get_machine(point.machine_name, point.way)
    if spec.program != point.version:
        raise ValueError(
            f"machine {spec.name!r} executes {spec.program!r} binaries, "
            f"but point {point.label!r} names kernel version "
            f"{point.version!r}"
        )
    config = spec.core
    mem = spec.mem
    if point.core_overrides:
        config = dataclasses.replace(config, **dict(point.core_overrides))
    for dotted, value in point.mem_overrides:
        head, _, rest = dotted.partition(".")
        if rest:
            level = dataclasses.replace(getattr(mem, head), **{rest: value})
            mem = dataclasses.replace(mem, **{head: level})
        else:
            mem = dataclasses.replace(mem, **{head: value})
    if point.core_overrides or point.mem_overrides:
        # Registered machines time as they are (a test pins every one);
        # an override can break that, and the warm path keys many
        # points without one.
        check_config(config, mem)
    return spec, config, mem


#: Per (machine, way): the registered spec this process last keyed
#: points on, and the :func:`~repro.sweep.store.config_fingerprint` of
#: its configuration without overrides.
_KEYED: Dict[Tuple[str, int], Tuple[MachineSpec, str]] = {}


def _fingerprint(
    point: SweepPoint, spec: MachineSpec, config: CoreConfig, mem: MemHierConfig
) -> str:
    """``config_fingerprint(config, mem)``, once per override-free configuration.

    ``spec, config, mem`` must be :func:`_resolve` of ``point``: without
    overrides the configuration is a function of the spec.  A
    re-registered machine resolves to a new spec object, which is
    fingerprinted afresh and drops the in-process memo, whose timings
    were made on the old one.  Points with overrides are fingerprinted
    every time.
    """
    if point.core_overrides or point.mem_overrides:
        return config_fingerprint(config, mem)
    keyed = _KEYED.get((point.machine_name, point.way))
    if keyed is None or keyed[0] is not spec:
        if keyed is not None:
            MEMO.clear()
        keyed = _KEYED[point.machine_name, point.way] = (
            spec, config_fingerprint(config, mem)
        )
    return keyed[1]


def point_key(point: SweepPoint) -> str:
    """Content address of a point's record.

    Hashes the point itself, the *resolved* configuration (so editing a
    Table III/IV constant re-addresses every affected record even though
    the point spelling is unchanged), the machine's vector-memory
    capability (the one timing input that lives in the registered
    geometry rather than the config dataclasses) and the simulator code
    digest.  Every call resolves the point, so it raises what
    :func:`resolve_configs` raises; the fingerprint of a configuration
    without overrides is computed once per process.
    """
    spec, config, mem = _resolve(point)
    identity: Dict[str, Any] = {
        "point": point.as_dict(),
        "config": _fingerprint(point, spec, config, mem),
        "capabilities": {"vector_memory": spec.geometry.matrix},
    }
    return record_key("kernel-timing", identity)


def trace_source(point: SweepPoint) -> Tuple[str, str, int]:
    """The ``(kernel, program, seed)`` whose emulation is a point's trace.

    The program is :func:`repro.machines.trace_program` of the point's
    version at its ``vl``: a trace is a function of the binary and the
    width it runs at, so ``vla`` at vl 8 re-times the ``mmx64`` trace
    and ``tile`` the ``vmmx128`` one.  Every grouping of points by
    trace, and every trace address, goes through here.
    """
    from repro.machines import trace_program

    return point.kernel, trace_program(point.version, point.vl), point.seed


def trace_key(point: SweepPoint) -> str:
    """Content address of a point's *dynamic trace* record.

    Traces depend only on the point's :func:`trace_source` and that
    program's architected register geometry -- never on the machine
    width, the ``machine`` axis or configuration overrides the point
    times them on -- so every way/machine/ablation variant of a kernel
    shares one stored trace (``mmx256`` and ``vla`` at vl 16 re-time
    the ``mmx128`` trace), while editing a registered geometry
    re-addresses the traces it produced.
    """
    from repro.machines import find_geometry

    kernel, program, seed = trace_source(point)
    identity: Dict[str, Any] = {
        "kernel": kernel,
        "version": program,
        "seed": seed,
    }
    geometry = find_geometry(program)
    if geometry is not None:
        identity["geometry"] = geometry.to_dict()
    return record_key("trace", identity)


def trace_memo_key(store: Any, point: SweepPoint) -> Tuple[Any, ...]:
    """The :data:`MEMO` key of a point's trace in ``store`` (serve reads it too)."""
    return memo_key(store, "trace", trace_source(point))


#: A trace together with its payload digest (None until one is known).
_DigestedTrace = Tuple[ColumnarTrace, Optional[str]]

#: ``(point, record key)`` pairs of one kernel program's cold points.
_Group = List[Tuple[SweepPoint, Optional[str]]]


def _emulate(
    kernel: str,
    program: str,
    missing: Sequence[Tuple[SweepPoint, Optional[str]]],
    store: Any,
) -> List[_DigestedTrace]:
    """Emulate the missing seeds of one kernel program; persist and memoise.

    ``missing`` pairs each point with its :func:`trace_key` (None
    without a store).  Two or more seeds emulate as one vectorised batch
    (:func:`repro.kernels.base.execute_batch`), a single seed record at
    a time.  Every run passes the bit-exact golden verification before
    its trace is persisted.  A batch over data-independent control flow
    returns one trace object for all its seeds: that trace is encoded,
    stamped and serialised once, and the same record saved under every
    seed's key.  Returns each point's trace with the digest of its stored
    payload (None without a store).
    """
    global _EMU_COUNT
    from repro.kernels.base import execute, execute_batch
    from repro.kernels.registry import KERNELS

    seeds = [point.seed for point, _ in missing]
    if len(seeds) > 1:
        runs = execute_batch(KERNELS[kernel], program, seeds)
    else:
        runs = [execute(KERNELS[kernel], program, seed=seeds[0])]
    # Each distinct record with the keys it is saved under, keyed by
    # object identity: ``runs`` keeps every trace alive.
    records: Dict[int, Tuple[Dict[str, Any], List[str]]] = {}
    traces: List[_DigestedTrace] = []
    for (point, key), run in zip(missing, runs):
        if not run.correct:
            raise AssertionError(
                f"kernel {kernel}/{program} failed verification during timing"
            )
        _EMU_COUNT += 1
        cols = run.trace.columns()
        digest = None
        if key is not None:
            shared = records.get(id(cols))
            if shared is None:
                shared = records[id(cols)] = (stamp("trace", trace_to_payload(cols)), [])
            shared[1].append(key)
            digest = shared[0]["payload"]["digest"]
        traces.append((memoise(trace_memo_key(store, point), cols), digest))
    for record, keys in records.values():
        store.save_all(keys, record)
    return traces


def _program_traces(
    kernel: str, program: str, points: Sequence[SweepPoint], store: Any
) -> Dict[int, _DigestedTrace]:
    """Every seed's trace of one kernel program, keyed by seed.

    Each seed is answered from the memo (digest not yet known), then
    from the store's ``trace`` record (its payload carries the digest),
    and the rest by one :func:`_emulate` call.  (The store address
    embeds the simulator code digest, so a stale trace can never be
    served for emulation code that has changed.)
    """
    traces: Dict[int, _DigestedTrace] = {}
    missing: Dict[int, Tuple[SweepPoint, Optional[str]]] = {}
    for point in points:
        if point.seed in traces or point.seed in missing:
            continue
        memo = trace_memo_key(store, point)
        cols = MEMO.get(memo)
        if cols is not None:
            traces[point.seed] = (cols, None)
            continue
        key = trace_key(point) if store is not None else None
        payload = load_payload(store, key) if key is not None else None
        cols = trace_from_payload(payload) if payload is not None else None
        if cols is not None:
            traces[point.seed] = (memoise(memo, cols), payload.get("digest"))
        else:
            missing[point.seed] = (point, key)
    if missing:
        emulated = _emulate(kernel, program, list(missing.values()), store)
        traces.update(zip(missing, emulated))
    return traces


def acquire_trace(point: SweepPoint, store: Any = _USE_DEFAULT) -> ColumnarTrace:
    """The columnar dynamic trace of a point's :func:`trace_source`.

    Answered from the store's memo, then the store's ``trace`` records,
    and only then by emulating the kernel -- which also runs the
    bit-exact golden verification, so a trace is only ever persisted
    after its kernel version proved correct.
    """
    if store is _USE_DEFAULT:
        store = default_store()
    kernel, program, seed = trace_source(point)
    return _program_traces(kernel, program, [point], store)[seed][0]


def acquire_traces(points: Sequence[SweepPoint], store: Any = _USE_DEFAULT) -> int:
    """Batch-fill the memo and store with many points' traces in one pass.

    Groups the points' distinct :func:`trace_source` traces by kernel
    program and emulates each group's missing seeds as one vectorised
    batch (:func:`repro.kernels.base.execute_batch`), paying the
    per-instruction interpretation cost once per kernel version rather
    than once per seed -- a store pre-fill for re-timing later; sweeps
    make their traces group by group as they time them.  Traces already
    memoised or stored are skipped, and a group with a single missing
    seed is left to :func:`acquire_trace` (there is nothing to batch).
    Returns the number of traces emulated; the stored records are
    byte-identical to what per-seed emulation would have written (the
    differential suite pins the digest equality).
    """
    if store is _USE_DEFAULT:
        store = default_store()
    groups: Dict[Tuple[str, str], Dict[int, SweepPoint]] = {}
    for point in points:
        if trace_memo_key(store, point) in MEMO:
            continue
        kernel, program, seed = trace_source(point)
        groups.setdefault((kernel, program), {})[seed] = point
    filled = 0
    for (kernel, program), by_seed in sorted(groups.items()):
        missing = []
        for _, point in sorted(by_seed.items()):
            key = trace_key(point) if store is not None else None
            if key is not None and key in store:
                continue
            missing.append((point, key))
        if len(missing) >= 2:
            filled += len(_emulate(kernel, program, missing, store))
    return filled


def _kernel_timing(point: SweepPoint, result: SimResult) -> KernelTiming:
    """The :class:`KernelTiming` record of ``point`` around ``result``."""
    from repro.kernels.registry import KERNELS

    return KernelTiming(
        kernel=point.kernel,
        version=point.version,
        way=point.way,
        result=result,
        batch=KERNELS[point.kernel].batch,
        seed=point.seed,
        machine=point.machine,
        vl=point.vl,
    )


def _timing_identity(
    point: SweepPoint, config: CoreConfig, mem: MemHierConfig
) -> Tuple[Any, ...]:
    """What a point's timing depends on besides its trace's content.

    The resolved configuration pair, plus the name and type of every
    override: frozen-dataclass equality holds ``lanes=4`` and
    ``lanes=4.0`` equal, but the reference model times them apart.
    """
    overrides = point.core_overrides + point.mem_overrides
    return config, mem, tuple((name, type(value)) for name, value in overrides)


def _time_group(
    group: _Group, store: Any, cols: Optional[ColumnarTrace] = None
) -> List[Dict[str, Any]]:
    """Time one trace group: the only place points become timings.

    ``group`` pairs each point with its record key (None: do not save);
    the points share one kernel program (their :func:`trace_source` up
    to the seed).  Their traces are ``cols`` when the caller already
    holds the group's one trace, else each seed's from the memo, the
    store or one batched emulation of the missing seeds.  Seeds whose
    traces have
    equal payload digests -- every seed of a kernel whose control flow
    does not depend on its input data -- form one content bucket (a
    group holding a single trace object is one bucket without hashing
    it), and each bucket's *distinct* resolved configurations are timed
    in one :func:`~repro.timing.simulator.simulate_trace_stack` pass.
    Every point then gets its own ``kernel-timing`` record -- its seed,
    machine and vl around the shared result -- saved under its key.
    Returns the records in group order.
    """
    global _SIM_COUNT, _TIMING_COUNT
    points = [point for point, _ in group]
    if cols is not None:
        traces: Dict[int, _DigestedTrace] = {points[0].seed: (cols, None)}
    else:
        kernel, program, _ = trace_source(points[0])
        traces = _program_traces(kernel, program, points, store)
    # Digest per distinct trace object (``traces`` keeps each alive):
    # from its payload where one was read or written, else computed --
    # unless the group holds just one object, which needs no content id.
    digests = {id(c): d for c, d in traces.values() if d is not None}
    single = len({id(c) for c, _ in traces.values()}) == 1
    # Content id -> (trace, timing identity -> (configs, askers)).
    buckets: Dict[Optional[str], Tuple[ColumnarTrace, Dict[Any, Any]]] = {}
    for i, point in enumerate(points):
        trace, _ = traces[point.seed]
        content = None
        if not single:
            content = digests.get(id(trace))
            if content is None:
                content = digests[id(trace)] = trace.digest()
        config, mem = resolve_configs(point)
        _, questions = buckets.setdefault(content, (trace, {}))
        identity = _timing_identity(point, config, mem)
        questions.setdefault(identity, ((config, mem), []))[1].append(i)
    records: List[Dict[str, Any]] = [{} for _ in points]
    for trace, questions in buckets.values():
        asked = list(questions.values())
        results = simulate_trace_stack(trace, [pair for pair, _ in asked])
        _TIMING_COUNT += len(results)
        for (_, askers), result in zip(asked, results):
            for i in askers:
                point, key = group[i]
                records[i] = kernel_timing_to_dict(_kernel_timing(point, result))
                if key is not None:
                    save_payload(store, "kernel-timing", key, records[i])
    _SIM_COUNT += len(points)
    return records


def _trace_groups(
    pairs: Sequence[Tuple[SweepPoint, Any]],
) -> List[List[Tuple[SweepPoint, Any]]]:
    """``(point, tag)`` pairs grouped by kernel program, first-seen order."""
    groups: Dict[Tuple[str, str], List[Tuple[SweepPoint, Any]]] = {}
    for point, key in pairs:
        kernel, program, _ = trace_source(point)
        groups.setdefault((kernel, program), []).append((point, key))
    return list(groups.values())


def compute_points(
    points: Sequence[SweepPoint], store: Any = _USE_DEFAULT
) -> List[KernelTiming]:
    """Time many points, each distinct (trace content, configuration) once.

    Points are grouped by kernel program and each group is timed by
    :func:`_time_group`; nothing is looked up or saved under the points'
    record keys.  Every point gets its own :class:`KernelTiming`, in
    input order, byte-identical to the record a sweep stores for it.
    """
    if store is _USE_DEFAULT:
        store = default_store()
    # Tagged by position: points equal as values (``lanes=4`` and
    # ``lanes=4.0``) may still time apart.
    records: List[Dict[str, Any]] = [{} for _ in points]
    for tagged in _trace_groups([(p, i) for i, p in enumerate(points)]):
        group = [(point, None) for point, _ in tagged]
        for (_, i), record in zip(tagged, _time_group(group, store)):
            records[i] = record
    return [kernel_timing_from_dict(record) for record in records]


def lookup_point(
    point: SweepPoint, store: Any = _USE_DEFAULT
) -> Optional[KernelTiming]:
    """Read-only store lookup of one point; None on a miss.

    The non-blocking read hook the serving layer answers warm queries
    through: it consults the store via the side-effect-free
    :meth:`~repro.sweep.store.ResultStore.peek` path and never
    computes, quarantines or writes anything, so any number of
    concurrent request handlers can call it while backfills write the
    same store.
    """
    from repro.sweep.store import peek_payload

    if store is _USE_DEFAULT:
        store = default_store()
    if store is None:
        return None
    payload = peek_payload(store, point_key(point))
    return None if payload is None else kernel_timing_from_dict(payload)


def retime_stack(
    cols: ColumnarTrace,
    points: Sequence[SweepPoint],
    store: Any = _USE_DEFAULT,
) -> List[KernelTiming]:
    """Time one shared trace against many points in a single dispatch.

    The serving layer's batched re-timing entry: every point must share
    the :func:`trace_source` ``cols`` was produced from (the machine
    axis and ablation overrides are exactly what may vary), and the
    points go through :func:`_time_group` with ``cols`` as the group's
    trace -- one :func:`~repro.timing.simulator.simulate_trace_stack`
    call, each distinct configuration timed once -- with each record
    persisted under its :func:`point_key`, so the interactive
    exploration a service performs leaves the same store records a
    sweep would have.
    """
    if store is _USE_DEFAULT:
        store = default_store()
    if not points:
        return []
    identities = {trace_source(p) for p in points}
    if len(identities) > 1:
        raise ValueError(
            "retime_stack points must share one trace identity, got "
            f"{sorted(identities)}"
        )
    group = [(p, point_key(p) if store is not None else None) for p in points]
    return [
        kernel_timing_from_dict(record)
        for record in _time_group(group, store, cols)
    ]


def run_point(
    point: SweepPoint, store: Any = _USE_DEFAULT
) -> KernelTiming:
    """Store-aware execution of one point (load, else time and save)."""
    from repro.kernels.registry import KERNELS

    if point.kernel not in KERNELS:
        raise KeyError(point.kernel)
    if store is _USE_DEFAULT:
        store = default_store()
    key = point_key(point) if store is not None else None
    record = load_payload(store, key) if key is not None else None
    if record is None:
        (record,) = _time_group([(point, key)], store)
    return kernel_timing_from_dict(record)


def _worker_chunk(
    groups: Sequence[_Group], store_root: Optional[str] = None
) -> Dict[str, Any]:
    """Process-pool worker: time whole trace groups of cold points.

    Each group is one :func:`_time_group` call here, in the worker: its
    traces are found or emulated, its distinct timings stacked and its
    records saved without the parent's help.  The parent's store choice
    arrives as ``store_root`` -- data, not environment -- so every
    worker reads/writes exactly the store the calling :func:`sweep`
    resolved, whatever the child environment says.  Also reports how
    many *emulations* and distinct timings the chunk performed (workers
    are reused across chunks, so the counts are deltas), letting the
    parent keep :func:`emulation_count` and
    :attr:`SweepReport.distinct_timings` truthful for pooled sweeps.
    """
    store = store_from_root(store_root)
    emulations_before, timings_before = _EMU_COUNT, _TIMING_COUNT
    records = [
        record for group in groups for record in _time_group(group, store)
    ]
    return {
        "records": records,
        "emulations": _EMU_COUNT - emulations_before,
        "timings": _TIMING_COUNT - timings_before,
    }


def _chunks(groups: Sequence[_Group], jobs: int) -> List[List[_Group]]:
    """Whole trace groups in deterministic chunks, ~4 chunks per worker."""
    size = -(-sum(len(group) for group in groups) // (jobs * 4))
    chunks: List[List[_Group]] = []
    chunk: List[_Group] = []
    count = 0
    for group in groups:
        chunk.append(group)
        count += len(group)
        if count >= size:
            chunks.append(chunk)
            chunk, count = [], 0
    if chunk:
        chunks.append(chunk)
    return chunks


@dataclass
class SweepReport:
    """Outcome of one :func:`sweep` call."""

    points: List[SweepPoint]
    results: Dict[SweepPoint, KernelTiming]
    simulated: int
    cached: int
    jobs: int
    store_root: Optional[str] = None
    #: Per-point provenance, parallel to ``points``: "store" or "sim".
    sources: List[str] = field(default_factory=list)
    #: The ``(index, count)`` this call was restricted to, if sharded.
    shard: Optional[Tuple[int, int]] = None
    #: Kernel emulations this call performed (trace-cache misses).
    emulated: int = 0
    #: Distinct (trace content, configuration) timings this call
    #: computed: simulated points sharing both share one timing.
    distinct_timings: int = 0

    @property
    def total(self) -> int:
        return len(self.points)

    def __getitem__(self, point: SweepPoint) -> KernelTiming:
        return self.results[point]

    def summary(self) -> str:
        where = self.store_root or "<no store>"
        text = (
            f"{self.total} points: {self.simulated} simulated "
            f"({self.distinct_timings} distinct timings), "
            f"{self.emulated} emulated, "
            f"{self.cached} from store ({where}), jobs={self.jobs}"
        )
        if self.shard is not None:
            text += f", shard {self.shard[0] + 1}/{self.shard[1]}"
        return text


@dataclass
class ShardProgress:
    """One shard's progress, read straight from its result store.

    ``present`` counts the shard's point records in the store -- the
    ground truth a restart recomputes from, and the number :attr:`done`
    is defined over.  ``heartbeat`` is the newest mtime among the
    store's segment files (seconds since epoch; None before the first
    write), the liveness signal a supervisor watches while a worker
    runs: every save appends to one.
    """

    total: int
    present: int = 0
    heartbeat: Optional[float] = None

    @property
    def done(self) -> bool:
        """Every point record of the shard exists in the store."""
        return self.present >= self.total

    @property
    def missing(self) -> int:
        return self.total - self.present

    def summary(self) -> str:
        state = "complete" if self.done else f"{self.missing} missing"
        return f"{self.present}/{self.total} points in store ({state})"


def keys_progress(store: Any, keys: Sequence[str]) -> ShardProgress:
    """:class:`ShardProgress` for precomputed point keys (read-only).

    The orchestrator derives every shard's key list once up front and
    polls through here, so supervision does not re-hash the design
    space on every heartbeat.
    """
    progress = ShardProgress(total=len(keys))
    if store is None:
        return progress
    progress.present = len(keys) - len(store.missing(keys))
    progress.heartbeat = newest_mtime(store.segments_dir)
    return progress


def sweep_progress(
    points: Sequence[SweepPoint],
    shard: Optional[Tuple[int, int]] = None,
    store: Any = _USE_DEFAULT,
) -> ShardProgress:
    """Progress of a (possibly sharded) campaign against ``store``.

    Read-only: consults the point records without computing or writing
    anything, so a supervisor can poll it while a worker is mid-flight.
    """
    if store is _USE_DEFAULT:
        store = default_store()
    points = dedupe(points)
    if shard is not None:
        points = shard_points(points, shard[0], shard[1])
    return keys_progress(store, [point_key(p) for p in points])


def sweep(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    store: Any = _USE_DEFAULT,
    progress: Optional[ProgressFn] = None,
    shard: Optional[Tuple[int, int]] = None,
    store_root: Optional[Any] = None,
) -> SweepReport:
    """Evaluate every point, warm-starting from the store.

    ``jobs=1`` runs inline; ``jobs>1`` distributes the *cache misses*
    over a process pool as whole trace groups in deterministic chunks.
    Hits are always served from the store in the calling process.

    Points without overrides whose timings this process already holds
    for the store (the in-process memo) are answered before anything is
    keyed: no :func:`point_key` call, no store read.  So a record
    damaged or removed after this process read it keeps its in-memory
    answer until :func:`~repro.sweep.clear_memory_caches`.  Keys are the
    same as ever -- the per-process fingerprint cache behind
    :func:`point_key` re-addresses nothing.

    The store may be given three ways: ``store`` (a
    :class:`~repro.sweep.store.ResultStore` or ``None`` for no
    persistence), ``store_root`` (a path string resolved through
    :func:`~repro.sweep.store.store_from_root` and threaded to pooled
    workers *as data*, never via the process environment -- what an
    orchestrator running next to other store users in one process must
    use), or neither (the ``REPRO_STORE`` default).  Passing both is an
    error.

    ``shard=(index, count)`` restricts the call to one deterministic
    shard of the (deduplicated) point list -- see
    :func:`repro.sweep.points.shard`: trace-grouped, so N shards
    against N distinct store roots emulate each kernel exactly once
    across the whole campaign.  A sharded sweep keys and reads every
    point instead of answering from the memo, because its store is the
    campaign's ground truth.  Every result record is persisted as its
    trace group is timed, so interruption never loses completed work,
    and a restart against the same store recomputes only what is
    genuinely missing: the store is its own resume state.

    This function is one shard's worth of work.  To launch, supervise
    and reunify all N shards of a campaign, use
    :func:`repro.sweep.dispatch.run_campaign` (CLI:
    ``python -m repro campaign``) -- it layers retries, heartbeat
    supervision and merge + verify + promote on top of exactly this
    entry point.
    """
    if store_root is not None:
        if store is not _USE_DEFAULT:
            raise ValueError("sweep() takes store or store_root, not both")
        store = store_from_root(store_root)
    if store is _USE_DEFAULT:
        store = default_store()
    points = dedupe(points)
    if shard is not None:
        points = shard_points(points, shard[0], shard[1])
    fault = _shard_fault(shard)
    if fault == "hang":
        _hang_forever(shard)  # pragma: no cover - killed by supervisor
    if fault is None:
        return _run_sweep(points, jobs, store, progress, shard)
    # after_K: die (SweepInterrupted) after K computed points, through
    # the same budget hook the in-process restart tests use.  The budget
    # is restored even if the fault never fires (K >= misses).
    previous = _COMPUTE_BUDGET
    set_compute_budget(fault if previous is None else min(previous, fault))
    try:
        return _run_sweep(points, jobs, store, progress, shard)
    finally:
        set_compute_budget(previous)


def _held(
    points: Sequence[SweepPoint], store: Any
) -> Dict[SweepPoint, KernelTiming]:
    """The override-free points whose timings :data:`MEMO` holds for ``store``.

    A point counts only while its machine and width resolve to the spec
    this process keyed them on; after a re-registration it is keyed
    again.  Points with overrides are never answered here: the memo is
    keyed by value, and ``lanes=4`` equals ``lanes=4.0``.
    """
    held: Dict[SweepPoint, KernelTiming] = {}
    for point in points:
        if point.core_overrides or point.mem_overrides:
            continue
        keyed = _KEYED.get((point.machine_name, point.way))
        if keyed is None or keyed[0] is not get_machine(point.machine_name, point.way):
            continue
        timing = MEMO.get(memo_key(store, "kernel-timing", point))
        if timing is not None:
            held[point] = timing
    return held


def _run_sweep(
    points: Sequence[SweepPoint],
    jobs: int,
    store: Any,
    progress: Optional[ProgressFn],
    shard: Optional[Tuple[int, int]],
) -> SweepReport:
    """:func:`sweep` after store/shard/fault resolution (see there)."""
    total = len(points)
    # What this process already holds for the store is answered unkeyed;
    # a shard reads every point from its store.
    held = _held(points, store) if store is not None and shard is None else {}
    keys = [
        None if store is None or point in held else point_key(point)
        for point in points
    ]
    emulations_before, timings_before = _EMU_COUNT, _TIMING_COUNT

    results: Dict[SweepPoint, KernelTiming] = {}
    sources: Dict[SweepPoint, str] = {}
    misses: _Group = []
    done = 0
    for point, key in zip(points, keys):
        timing = held.get(point)
        if timing is None and key is not None:
            stored = load_payload(store, key)
            if stored is not None:
                timing = kernel_timing_from_dict(stored)
        if timing is not None:
            results[point] = timing
            sources[point] = "store"
            done += 1
            if progress is not None:
                progress(done, total, point, "store")
        else:
            misses.append((point, key))

    def finish(computed: _Group, records: List[Dict[str, Any]]) -> None:
        nonlocal done
        for (point, _), record in zip(computed, records):
            results[point] = kernel_timing_from_dict(record)
            sources[point] = "sim"
            done += 1
            if progress is not None:
                progress(done, total, point, "sim")

    # A compute budget trims the misses once: its prefix is computed and
    # persisted like any sweep's, and then the sweep dies with
    # SweepInterrupted -- at any ``jobs``.
    budget = _COMPUTE_BUDGET
    todo = misses if budget is None else misses[:max(budget, 0)]
    # Grouped by kernel program once, in first-miss order: the group is
    # the unit of work inline and in the pool, so each trace is made
    # once and each distinct timing stacked once, whatever ``jobs`` is.
    # The resolved ``store`` is threaded explicitly to every group and
    # to the pooled workers (as a root string, reconstructed per
    # worker), so the jobs-parity guarantee -- store trees
    # byte-identical for any ``jobs`` -- holds for *whichever* store
    # the caller selected, without ever mutating the process
    # environment.
    pending = _trace_groups(todo)
    if jobs > 1 and pending:
        worker_root = str(store.root) if store is not None else None
        for taken, records in _pooled_chunks(pending, jobs, worker_root):
            finish([pair for group in pending[:taken] for pair in group], records)
            pending = pending[taken:]
    # Groups the pool never delivered (pool creation failed, or a worker
    # crashed mid-campaign) complete inline, against the same store the
    # workers were handed.  Inline, a program's results land before the
    # next program's traces are made.
    for group in pending:
        finish(group, _time_group(group, store))
    if budget is not None:
        set_compute_budget(budget - len(todo))
    if len(todo) < len(misses):
        raise SweepInterrupted(
            f"compute budget exhausted after {len(todo)} of "
            f"{len(misses)} cold points"
        )
    # Later sweeps over the same records -- the next artefact's grid, a
    # simulate_kernel call -- answer these timings from memory, not disk.
    for point, timing in results.items():
        if point not in held and not point.core_overrides and not point.mem_overrides:
            memoise(memo_key(store, "kernel-timing", point), timing)
    return SweepReport(
        points=list(points),
        results={p: results[p] for p in points},
        simulated=len(misses),
        cached=total - len(misses),
        jobs=jobs,
        store_root=str(store.root) if store is not None else None,
        sources=[sources[p] for p in points],
        shard=shard,
        emulated=_EMU_COUNT - emulations_before,
        distinct_timings=_TIMING_COUNT - timings_before,
    )


def _pooled_chunks(
    groups: Sequence[_Group], jobs: int, store_root: Optional[str] = None
):
    """Yield ``(groups_consumed, records)`` per completed pool chunk.

    Results stream back in deterministic chunk order, so the caller can
    keep each chunk as it lands rather than holding
    the whole campaign in memory until the slowest worker finishes.
    Pool-creation failure (constrained sandboxes) or a broken pool
    mid-campaign simply stops the stream; the caller completes the
    remainder inline.
    """
    global _SIM_COUNT, _EMU_COUNT, _TIMING_COUNT
    import concurrent.futures
    import functools
    import multiprocessing

    chunks = _chunks(groups, jobs)
    worker = functools.partial(_worker_chunk, store_root=store_root)
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)), mp_context=context
        ) as pool:
            for chunk, result in zip(chunks, pool.map(worker, chunks)):
                _SIM_COUNT += sum(len(group) for group in chunk)
                _EMU_COUNT += result["emulations"]
                _TIMING_COUNT += result["timings"]
                yield len(chunk), result["records"]
    except (OSError, concurrent.futures.process.BrokenProcessPool):
        return
