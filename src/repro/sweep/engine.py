"""Parallel design-space sweep engine.

:func:`sweep` takes a list of :class:`~repro.sweep.points.SweepPoint`,
answers every point it can from the content-addressed result store, and
simulates the rest -- serially for ``jobs=1``, streamed one kernel
program at a time, or across a ``concurrent.futures`` process pool with
deterministic contiguous chunking otherwise.  Either way
:func:`compute_points` times each distinct (trace content,
configuration) once and gives every point its own record.  Results are
byte-identical regardless of ``jobs`` because every point's simulation
is independent and deterministic, and because both paths normalise
results through the same JSON record form.

The module also exposes :func:`run_point`, the store-aware single-point
entry that :func:`repro.timing.simulator.simulate_kernel` routes
through, and a simulation counter that tests (and the CLI summary) use
to prove warm runs perform zero new simulations.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.trace import ColumnarTrace
from repro.sweep.points import SweepPoint, dedupe
from repro.sweep.points import shard as shard_points
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
    store_from_root,
    trace_from_payload,
    trace_to_payload,
)
from repro.machines import get_machine
from repro.machines.spec import CoreConfig, MemHierConfig
from repro.timing.core import SimResult, check_config
from repro.timing.simulator import (
    KernelTiming,
    simulate_trace,
    simulate_trace_stack,
)

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
#: for parallel sweeps, its workers) computed: :func:`compute_points`
#: times points that share both once, so this rises no faster than
#: :data:`_SIM_COUNT`.
_TIMING_COUNT = 0

#: Test hook: remaining :func:`compute_point` calls this process may
#: perform before :class:`SweepInterrupted` is raised (None = unlimited).
#: The resume tests use it to kill a sweep mid-campaign at an exact,
#: reproducible place.
_COMPUTE_BUDGET: Optional[int] = None

#: Deterministic fault injection for the campaign failover tests:
#: ``REPRO_FAULT_SHARD=i:after_K`` makes the worker running shard ``i``
#: (1-based, matching ``--shard i/N``) die with :class:`SweepInterrupted`
#: after ``K`` computed points; ``i:hang`` makes it hang before writing
#: its first checkpoint (exactly the worker a first-heartbeat grace
#: deadline must catch).  Workers running without a shard spec --
#: including the rebalanced ``--points-file`` subsets an elastic
#: executor dispatches -- never match, so an injected fault kills its
#: target exactly once.
FAULT_ENV = "REPRO_FAULT_SHARD"

ProgressFn = Callable[[int, int, SweepPoint, str], None]


class SweepInterrupted(RuntimeError):
    """A sweep died mid-campaign (induced by :func:`set_compute_budget`).

    Stands in for a killed process in tests: everything completed
    before the interruption is already persisted and checkpointed, so a
    restart with ``resume=True`` computes only what is genuinely left.
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
    """Injected ``hang`` fault: block before the first checkpoint write.

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
    return config, mem


def point_key(point: SweepPoint) -> str:
    """Content address of a point's record.

    Hashes the point itself, the *resolved* configuration (so editing a
    Table III/IV constant re-addresses every affected record even though
    the point spelling is unchanged), the machine's vector-memory
    capability (the one timing input that lives in the registered
    geometry rather than the config dataclasses) and the simulator code
    digest.
    """
    from repro.machines import find_geometry

    config, mem = resolve_configs(point)
    identity: Dict[str, Any] = {
        "point": point.as_dict(),
        "config": config_fingerprint(config, mem),
    }
    geometry = find_geometry(point.machine_name)
    if geometry is not None:
        identity["capabilities"] = {"vector_memory": geometry.matrix}
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


def _trace_memo_key(store: Any, point: SweepPoint) -> Tuple[Any, ...]:
    """The memo key of a point's trace in ``store``."""
    return memo_key(store, "trace", trace_source(point))


#: A trace together with its payload digest (None until one is known).
_DigestedTrace = Tuple[ColumnarTrace, Optional[str]]


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
    returns one trace object for all its seeds: that trace is encoded
    once and the same payload saved under every seed's key.  Returns
    each point's trace with the digest of its stored payload (None
    without a store).
    """
    global _EMU_COUNT
    from repro.kernels.base import execute, execute_batch
    from repro.kernels.registry import KERNELS

    seeds = [point.seed for point, _ in missing]
    if len(seeds) > 1:
        runs = execute_batch(KERNELS[kernel], program, seeds)
    else:
        runs = [execute(KERNELS[kernel], program, seed=seeds[0])]
    # Keyed by object identity: ``runs`` keeps every trace alive.
    payloads: Dict[int, Dict[str, Any]] = {}
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
            payload = payloads.get(id(cols))
            if payload is None:
                payload = payloads[id(cols)] = trace_to_payload(cols)
            save_payload(store, "trace", key, payload)
            digest = payload["digest"]
        traces.append((memoise(_trace_memo_key(store, point), cols), digest))
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
        memo = _trace_memo_key(store, point)
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
    batch (:func:`repro.kernels.base.execute_batch`), so a cold sweep or
    campaign shard pays the per-instruction interpretation cost once per
    kernel version rather than once per seed.  Traces already memoised
    or stored are skipped, and a group with a single missing seed is
    left to :func:`acquire_trace` (there is nothing to batch).  Returns
    the number of traces emulated; the stored records are byte-identical
    to what per-seed emulation would have written (the differential
    suite pins the digest equality), so warm sweeps and the jobs-parity
    guarantee are unaffected.
    """
    if store is _USE_DEFAULT:
        store = default_store()
    groups: Dict[Tuple[str, str], Dict[int, SweepPoint]] = {}
    for point in points:
        if _trace_memo_key(store, point) in MEMO:
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


def compute_point(point: SweepPoint, store: Any = _USE_DEFAULT) -> KernelTiming:
    """Time one point unconditionally (no *timing* cache consulted).

    The timing simulation always runs; the dynamic trace it walks comes
    from :func:`acquire_trace` (against the same ``store`` the caller
    is using for timings), which may reuse a cached columnar trace --
    bit-identical to re-emulation by construction (and pinned by the
    serialisation round-trip tests), so results cannot depend on where
    the trace came from.
    """
    global _SIM_COUNT, _TIMING_COUNT, _COMPUTE_BUDGET
    if _COMPUTE_BUDGET is not None:
        if _COMPUTE_BUDGET <= 0:
            raise SweepInterrupted(
                f"compute budget exhausted before point {point.label!r}"
            )
        _COMPUTE_BUDGET -= 1
    cols = acquire_trace(point, store)
    config, mem = resolve_configs(point)
    result = simulate_trace(cols, config, mem)
    _SIM_COUNT += 1
    _TIMING_COUNT += 1
    return _kernel_timing(point, result)


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


def compute_points(
    points: Sequence[SweepPoint], store: Any = _USE_DEFAULT
) -> List[KernelTiming]:
    """Time many points, each distinct (trace content, configuration) once.

    The batched counterpart of calling :func:`compute_point` per point,
    with byte-identical records (the differential suite pins it).
    Points are grouped by kernel program, and each program's traces come
    from the memo, the store, or one batched emulation of its missing
    seeds.  Seeds whose traces have equal payload digests -- every seed
    of a kernel whose control flow does not depend on its input data --
    form one content bucket, and each bucket's *distinct* resolved
    configurations are timed in one
    :func:`~repro.timing.simulator.simulate_trace_stack` pass
    (:class:`~repro.timing.batch.BatchCoreModel`, or the reference model
    under ``REPRO_TIMING_REFERENCE=1`` or with no compiled kernel).
    Every point then gets its own :class:`KernelTiming` -- its seed,
    machine and vl -- around a copy of the shared result.

    A bounded compute budget keeps the per-point path so
    :class:`SweepInterrupted` fires at exactly the budgeted point.
    """
    global _SIM_COUNT, _TIMING_COUNT
    if _COMPUTE_BUDGET is not None:
        return [compute_point(p, store) for p in points]
    if store is _USE_DEFAULT:
        store = default_store()

    programs: Dict[Tuple[str, str], List[int]] = {}
    for idx, point in enumerate(points):
        kernel, program, _ = trace_source(point)
        programs.setdefault((kernel, program), []).append(idx)
    timings: List[Optional[KernelTiming]] = [None] * len(points)
    for (kernel, program), indices in programs.items():
        traces = _program_traces(
            kernel, program, [points[i] for i in indices], store
        )
        # Digest per distinct trace object (``traces`` keeps each alive):
        # from its payload where one was read or written, else computed.
        digests = {id(cols): d for cols, d in traces.values() if d is not None}
        # Content digest -> (trace, timing identity -> (configs, askers)).
        buckets: Dict[str, Tuple[ColumnarTrace, Dict[Any, Any]]] = {}
        for i in indices:
            point = points[i]
            cols, _ = traces[point.seed]
            if id(cols) not in digests:
                digests[id(cols)] = cols.digest()
            config, mem = resolve_configs(point)
            _, questions = buckets.setdefault(digests[id(cols)], (cols, {}))
            identity = _timing_identity(point, config, mem)
            questions.setdefault(identity, ((config, mem), []))[1].append(i)
        for cols, questions in buckets.values():
            asked = list(questions.values())
            results = simulate_trace_stack(cols, [pair for pair, _ in asked])
            _TIMING_COUNT += len(results)
            for (_, askers), result in zip(asked, results):
                for i in askers:
                    copy = dataclasses.replace(
                        result,
                        cat_instructions=dict(result.cat_instructions),
                        cat_cycles=dict(result.cat_cycles),
                    )
                    timings[i] = _kernel_timing(points[i], copy)
        _SIM_COUNT += len(indices)
    return timings  # type: ignore[return-value]


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

    The serving layer's batched re-timing primitive: every point must
    share the :func:`trace_source` ``cols`` was produced from (the
    caller owns that invariant; the machine axis and ablation overrides
    are exactly what may vary), the whole
    resolved config stack goes through one
    :func:`~repro.timing.simulator.simulate_trace_stack` call, and each
    resulting timing record is persisted under its
    :func:`point_key` so the interactive exploration a service performs
    leaves the same store records a sweep would have.
    """
    global _SIM_COUNT
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
    configs = [resolve_configs(p) for p in points]
    results = simulate_trace_stack(cols, configs)
    _SIM_COUNT += len(points)
    timings = []
    for point, result in zip(points, results):
        payload = kernel_timing_to_dict(_kernel_timing(point, result))
        if store is not None:
            save_payload(store, "kernel-timing", point_key(point), payload)
        timings.append(kernel_timing_from_dict(payload))
    return timings


def _normalise(timing: KernelTiming) -> KernelTiming:
    """Round-trip through the record form.

    Keeps serial and pooled execution structurally identical: every
    result the engine hands out has passed through the exact JSON shape
    the store persists.
    """
    return kernel_timing_from_dict(kernel_timing_to_dict(timing))


def run_point(
    point: SweepPoint, store: Any = _USE_DEFAULT
) -> KernelTiming:
    """Store-aware execution of one point (load, else simulate + save)."""
    from repro.kernels.registry import KERNELS

    if point.kernel not in KERNELS:
        raise KeyError(point.kernel)
    if store is _USE_DEFAULT:
        store = default_store()
    key = point_key(point) if store is not None else None
    stored = load_payload(store, key) if key is not None else None
    if stored is not None:
        return kernel_timing_from_dict(stored)
    payload = kernel_timing_to_dict(compute_point(point, store))
    if key is not None:
        save_payload(store, "kernel-timing", key, payload)
    return kernel_timing_from_dict(payload)


def _worker_chunk(
    points: Sequence[SweepPoint], store_root: Optional[str] = None
) -> Dict[str, Any]:
    """Process-pool worker: simulate a contiguous chunk of cold points.

    The parent's store choice arrives as ``store_root`` -- data, not
    environment -- so every worker reads/writes exactly the store the
    calling :func:`sweep` resolved, whatever the child environment says.
    Also reports how many *emulations* and distinct timings the chunk
    performed (workers are reused across chunks, so the counts are
    deltas), letting the parent keep :func:`emulation_count` and
    :attr:`SweepReport.distinct_timings` truthful for pooled sweeps.
    """
    store = store_from_root(store_root)
    emulations_before, timings_before = _EMU_COUNT, _TIMING_COUNT
    payloads = [kernel_timing_to_dict(t) for t in compute_points(points, store)]
    return {
        "payloads": payloads,
        "emulations": _EMU_COUNT - emulations_before,
        "timings": _TIMING_COUNT - timings_before,
    }


def _chunks(items: Sequence, jobs: int) -> List[Sequence]:
    """Deterministic contiguous chunking, ~4 chunks per worker."""
    if not items:
        return []
    size = max(1, -(-len(items) // (jobs * 4)))
    return [items[i: i + size] for i in range(0, len(items), size)]


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
    #: Of the cached points, how many a resume checkpoint had already
    #: recorded as completed by an earlier (interrupted) run.
    resumed: int = 0
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
        if self.resumed:
            text += f", {self.resumed} resumed"
        return text


def checkpoint_key(point_keys: Sequence[str], shard: Optional[Tuple[int, int]]) -> str:
    """Content address of a campaign's ``sweep-checkpoint`` record.

    One checkpoint per (point set, shard spec): the same construction
    :func:`sweep` writes through when ``resume=True``, exposed so an
    orchestrator (:mod:`repro.sweep.dispatch`) can locate a shard's
    progress record from nothing but the point list -- the assignment
    and the keys are pure functions, so supervisor and worker agree on
    the address without communicating.
    """
    return record_key(
        "sweep-checkpoint",
        {
            "points": sorted(point_keys),
            "shard": list(shard) if shard is not None else None,
        },
    )


@dataclass
class ShardProgress:
    """One shard's progress, read straight from its result store.

    ``completed`` comes from the shard's ``sweep-checkpoint`` record
    (what an interrupted worker had acknowledged); ``present`` counts
    the point records actually on disk -- the ground truth a restart
    recomputes from, and the number :attr:`done` is defined over.
    ``heartbeat`` is the checkpoint file's mtime (seconds since epoch),
    the liveness signal a supervisor watches while a worker runs.
    """

    total: int
    completed: int = 0
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


def keys_progress(
    store: Any,
    keys: Sequence[str],
    shard: Optional[Tuple[int, int]] = None,
) -> ShardProgress:
    """:class:`ShardProgress` for precomputed point keys (read-only).

    The orchestrator derives every shard's key list once up front and
    polls through here, so supervision does not re-hash the design
    space on every heartbeat.
    """
    progress = ShardProgress(total=len(keys))
    if store is None:
        return progress
    progress.present = len(keys) - len(store.missing(keys))
    ck_key = checkpoint_key(keys, shard)
    record = store.peek(ck_key)
    if record is not None:
        payload = record["payload"]
        completed = payload.get("completed", []) if isinstance(payload, dict) else []
        progress.completed = len(set(completed) & set(keys))
        try:
            progress.heartbeat = store.path_for(ck_key).stat().st_mtime
        except OSError:
            progress.heartbeat = None
    return progress


def sweep_progress(
    points: Sequence[SweepPoint],
    shard: Optional[Tuple[int, int]] = None,
    store: Any = _USE_DEFAULT,
) -> ShardProgress:
    """Progress of a (possibly sharded) campaign against ``store``.

    Read-only: consults the checkpoint record and the point records
    without computing, writing or quarantining anything, so a
    supervisor can poll it while a worker is mid-flight.
    """
    if store is _USE_DEFAULT:
        store = default_store()
    points = dedupe(points)
    if shard is not None:
        points = shard_points(points, shard[0], shard[1])
    return keys_progress(store, [point_key(p) for p in points], shard)


class _Checkpoint:
    """Campaign progress record for ``sweep(..., resume=True)``.

    One ``sweep-checkpoint`` record per (point set, shard spec),
    content-addressed like everything else, holding the sorted
    point-keys already completed.  The *result records themselves*
    remain the source of truth -- a checkpointed key whose record has
    been corrupted or garbage-collected is simply recomputed -- so the
    checkpoint can never resurrect lost data, only report honest
    progress and survive interruptions at any instant (it is re-saved
    after every completed point or chunk, through the same atomic-write
    path as any record).
    """

    def __init__(self, store: Any, point_keys: Sequence[str],
                 shard: Optional[Tuple[int, int]]) -> None:
        self.store = store
        self.total = len(point_keys)
        self.key = checkpoint_key(point_keys, shard)
        payload = load_payload(store, self.key)
        completed = (
            payload.get("completed", []) if isinstance(payload, dict) else []
        )
        #: Keys completed by a previous run of this exact campaign.
        self.prior = set(completed) & set(point_keys)
        self.completed = set(self.prior)

    def mark(self, key: Optional[str]) -> None:
        if key is not None:
            self.completed.add(key)

    def flush(self) -> None:
        save_payload(
            self.store,
            "sweep-checkpoint",
            self.key,
            {"completed": sorted(self.completed), "total": self.total},
        )


def sweep(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    store: Any = _USE_DEFAULT,
    progress: Optional[ProgressFn] = None,
    shard: Optional[Tuple[int, int]] = None,
    resume: bool = False,
    store_root: Optional[Any] = None,
) -> SweepReport:
    """Evaluate every point, warm-starting from the store.

    ``jobs=1`` runs inline; ``jobs>1`` distributes the *cache misses*
    over a process pool in deterministic contiguous chunks.  Hits are
    always served from the store in the calling process.

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
    across the whole campaign.  ``resume=True`` additionally
    checkpoints completed point-keys to the store after every point (or
    pooled chunk), so an interrupted campaign restarted with the same
    arguments recomputes only what is genuinely missing.  Every result
    record is persisted the moment it is computed in either mode --
    interruption can never lose completed work.

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
    if resume and store is None:
        raise ValueError(
            "sweep(resume=True) needs a result store to checkpoint into; "
            "the store is disabled (REPRO_STORE=off?)"
        )
    fault = _shard_fault(shard)
    if fault == "hang":
        _hang_forever(shard)  # pragma: no cover - killed by supervisor
    if fault is None:
        return _run_sweep(points, jobs, store, progress, shard, resume)
    # after_K: die (SweepInterrupted) after K computed points, through
    # the same budget hook the in-process resume tests use.  The budget
    # is restored even if the fault never fires (K >= misses).
    previous = _COMPUTE_BUDGET
    set_compute_budget(fault if previous is None else min(previous, fault))
    try:
        return _run_sweep(points, jobs, store, progress, shard, resume)
    finally:
        set_compute_budget(previous)


def _run_sweep(
    points: Sequence[SweepPoint],
    jobs: int,
    store: Any,
    progress: Optional[ProgressFn],
    shard: Optional[Tuple[int, int]],
    resume: bool,
) -> SweepReport:
    """:func:`sweep` after store/shard/fault resolution (see there)."""
    total = len(points)
    keys = [point_key(p) for p in points] if store is not None else [None] * total
    checkpoint = _Checkpoint(store, keys, shard) if resume else None
    emulations_before, timings_before = _EMU_COUNT, _TIMING_COUNT

    results: Dict[SweepPoint, KernelTiming] = {}
    sources: Dict[SweepPoint, str] = {}
    misses: List[SweepPoint] = []
    miss_keys: List[Optional[str]] = []
    done = 0
    resumed = 0
    for point, key in zip(points, keys):
        stored = load_payload(store, key) if key is not None else None
        if stored is not None:
            results[point] = kernel_timing_from_dict(stored)
            sources[point] = "store"
            done += 1
            if checkpoint is not None:
                if key in checkpoint.prior:
                    resumed += 1
                checkpoint.mark(key)
            if progress is not None:
                progress(done, total, point, "store")
        else:
            misses.append(point)
            miss_keys.append(key)

    def finish(point: SweepPoint, key: Optional[str],
               payload: Dict[str, Any]) -> None:
        nonlocal done
        if key is not None:
            save_payload(store, "kernel-timing", key, payload)
        results[point] = kernel_timing_from_dict(payload)
        sources[point] = "sim"
        done += 1
        if checkpoint is not None:
            checkpoint.mark(key)
        if progress is not None:
            progress(done, total, point, "sim")

    if misses:
        # The resolved ``store`` is threaded explicitly to every step and
        # to the pooled workers (as a root string, reconstructed per
        # worker), so the jobs-parity guarantee -- store trees
        # byte-identical for any ``jobs`` -- holds for *whichever* store
        # the caller selected, without ever mutating the process
        # environment.
        pending = list(zip(misses, miss_keys))
        if jobs > 1 or _COMPUTE_BUDGET is not None:
            # Batch-emulate every missing trace up front (one vectorised
            # pass per kernel program): forked workers then never
            # emulate, and the per-point budget path never falls back
            # to record-at-a-time emulation.
            acquire_traces(misses, store)
        if jobs > 1:
            worker_root = str(store.root) if store is not None else None
            for n_done, payloads in _pooled_chunks(misses, jobs, worker_root):
                for (point, key), payload in zip(pending[:n_done], payloads):
                    finish(point, key, payload)
                pending = pending[n_done:]
                if checkpoint is not None:
                    checkpoint.flush()
        # Chunks the pool never delivered (pool creation failed, or a
        # worker crashed mid-campaign) complete inline, against the
        # same store the workers were handed.
        if _COMPUTE_BUDGET is None:
            # Streamed one kernel program at a time: compute_points
            # batch-emulates the program's missing seeds, times each
            # distinct (trace content, configuration) once, and the
            # results land (and checkpoint) per point before the next
            # program's traces are made.
            grouped: "OrderedDict[Tuple[str, str], List[Tuple[SweepPoint, Optional[str]]]]" = OrderedDict()
            for point, key in pending:
                kernel, program, _ = trace_source(point)
                grouped.setdefault((kernel, program), []).append((point, key))
            for group in grouped.values():
                timings = compute_points([p for p, _ in group], store)
                for (point, key), timing in zip(group, timings):
                    finish(point, key, kernel_timing_to_dict(timing))
                    if checkpoint is not None:
                        checkpoint.flush()
        else:
            # A bounded compute budget persists point by point so
            # SweepInterrupted leaves exactly the budgeted prefix.
            for point, key in pending:
                finish(
                    point, key,
                    kernel_timing_to_dict(compute_point(point, store)),
                )
                if checkpoint is not None:
                    checkpoint.flush()

    if checkpoint is not None:
        checkpoint.flush()
    # The experiment code that follows a prefetch sweep reads these
    # timings through simulate_kernel: let it hit memory, not disk.
    for point, timing in results.items():
        if not point.core_overrides and not point.mem_overrides:
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
        resumed=resumed,
        emulated=_EMU_COUNT - emulations_before,
        distinct_timings=_TIMING_COUNT - timings_before,
    )


def _pooled_chunks(
    misses: Sequence[SweepPoint], jobs: int, store_root: Optional[str] = None
):
    """Yield ``(points_consumed, payloads)`` per completed pool chunk.

    Results stream back in deterministic chunk order, so the caller can
    persist (and checkpoint) each chunk as it lands rather than holding
    the whole campaign in memory until the slowest worker finishes.
    Pool-creation failure (constrained sandboxes) or a broken pool
    mid-campaign simply stops the stream; the caller completes the
    remainder inline.
    """
    global _SIM_COUNT, _EMU_COUNT, _TIMING_COUNT
    import concurrent.futures
    import functools
    import multiprocessing

    chunks = _chunks(list(misses), jobs)
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
                _SIM_COUNT += len(chunk)
                _EMU_COUNT += result["emulations"]
                _TIMING_COUNT += result["timings"]
                yield len(chunk), result["payloads"]
    except (OSError, concurrent.futures.process.BrokenProcessPool):
        return
