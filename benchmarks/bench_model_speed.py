"""Raw throughput of the emulation machines and the timing model.

These keep the reproduction honest about its own cost: trace generation
(emulated instructions/sec) and trace re-timing (re-timed
instructions/sec) are the two engines everything else drives, and since
the columnar trace IR they are measured *separately* -- a sweep that
re-times cached traces pays only the second number.

Two ways to run:

* ``pytest benchmarks/bench_model_speed.py`` -- pytest-benchmark
  micro-benchmarks (needs ``pytest-benchmark``).
* ``python benchmarks/bench_model_speed.py [--budget ci|full]
  [--json PATH] [--check-floor benchmarks/perf_floor.json]`` -- the
  self-contained CLI used by the CI perf-smoke step: measures the
  rates below (and, with ``--budget full``, a cold + warm-trace Fig. 4
  kernel sweep, a cold 4-seed one and a warm and a cold pass over the
  twelve paper artefacts), writes them to the benchmark JSON
  so the perf trajectory is tracked over time, and fails when a rate
  drops below the checked-in floor (floors are set to roughly one-third
  of the rates measured when they were last raised, so slower CI
  hardware has headroom) or a full-budget sweep exceeds its ceiling.

Emulation has two floored rates.  ``emulated_instructions_per_sec`` is
the *batched* rate: ``execute_batch`` over ``emulation_batch_seeds``
seeds of ycc/mmx64, total emulated dynamic instructions divided by wall
time.  ``reference_emulated_instructions_per_sec`` is the
record-at-a-time rate of one seed of ycc/mmx64: what a cold paper
regeneration pays, since it emulates one seed per (kernel, program),
and what the batch engine falls back to on divergence.

The re-timing headline is batched the same way:
``batch_retimed_instructions_per_sec`` is one
:class:`~repro.timing.batch.BatchCoreModel` pass timing the cached
ycc/mmx64 trace across all twelve paper configurations, total
per-point instructions divided by wall time.  The one-configuration
rate (``retimed_instructions_per_sec``: ``simulate_trace``, a stack of
one through the same kernel) and the record-at-a-time oracle's rate
(``reference_retimed_instructions_per_sec``: ``CoreModel.run``, what a
host without a C compiler falls back to) ride alongside for the
trajectory.

``scalar_trace_instructions_per_sec`` is the build rate of the
synthetic scalar-region trace the application figures price their
scalar code with: one paper mix at ``SCALAR_TRACE_LEN`` instructions
from :func:`~repro.apps.appmodel.make_scalar_trace`, best of the reps.

``emulation_frames`` holds two counts, not rates: the Python frames
emulation enters in ``repro/emu/`` and ``repro/isa/trace.py`` per
emitted instruction, ``single`` over the 44 seed-0 paper programs through
``execute`` and ``batch`` over the batchable ones through
``execute_batch`` at seeds 1-4 (:func:`emulation_frames`).  A count
repeats exactly from run to run, where a best-of-N rate on a shared
box can read a 1.45x emulation change as 0.99x; tier-1 gates both.

``store_records_per_sec`` is the result store's write rate: records
saved per second through ``save_payload`` into a fresh store on the
working disk (not ``/tmp``, which may be memory-backed), in a
design-sweep-shaped mix of :data:`STORE_MIX` kernel-timing and trace
records, best of the reps.
"""

import argparse
import contextlib
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.apps.appmodel import SCALAR_TRACE_LEN, make_scalar_trace  # noqa: E402
from repro.kernels.base import execute, execute_batch  # noqa: E402
from repro.kernels.registry import KERNELS  # noqa: E402
from repro.machines import get_machine  # noqa: E402
from repro.timing.batch import BatchCoreModel  # noqa: E402
from repro.timing.core import CoreModel  # noqa: E402
from repro.timing.simulator import simulate_trace  # noqa: E402

#: Rates measured by :func:`measure_model_speed` and guarded by the floor.
RATE_KEYS = (
    "emulated_instructions_per_sec",
    "reference_emulated_instructions_per_sec",
    "batch_retimed_instructions_per_sec",
    "retimed_instructions_per_sec",
    "scalar_trace_instructions_per_sec",
    "store_records_per_sec",
)

#: The scalar mix (smem, sctrl fractions) whose trace build is timed:
#: jpegenc's, the first the application figures price.
SCALAR_MIX = (0.31, 0.04)

#: Full-budget sweep wall-clock ceilings guarded by the floor file, as
#: ceiling key -> (results block, field) (seconds; the smoke fails when
#: a measured time *exceeds* the ceiling).
MAX_SECONDS_KEYS = {
    "fig4_warm_sweep_seconds_max": ("fig4_sweep", "warm_trace_seconds"),
    "fig4_seeds_sweep_seconds_max": ("fig4_seeds_sweep", "seconds"),
    "paper_warm_seconds_max": ("paper_warm", "seconds"),
    "paper_cold_seconds_max": ("paper_cold", "seconds"),
}

#: Seeds per batched-emulation pass (the headline emulation rate).
BATCH_SEEDS = 16

#: Seeds of the cold multi-seed Fig. 4 sweep.
SWEEP_SEEDS = (0, 1, 2, 3)

#: Seeds of the batched frame count (``emulation_frames``).
FRAME_BATCH_SEEDS = (1, 2, 3, 4)

#: (kernel-timing, trace) records per store-write pass: what one cold
#: 4-seed every-kernel x paper-ISA x way sweep saves (1,584 : 176).
STORE_MIX = (1584, 176)


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


def test_emulation_throughput(benchmark):
    """Dynamic instructions emulated per second (ycc, mmx64)."""
    spec = KERNELS["ycc"]

    def work():
        return len(execute(spec, "mmx64", seed=0).trace)

    instructions = benchmark(work)
    assert instructions > 10_000


def test_batch_emulation_throughput(benchmark):
    """Batched per-seed instructions emulated per second (ycc, mmx64)."""
    spec = KERNELS["ycc"]
    seeds = list(range(BATCH_SEEDS))

    def work():
        return sum(len(r.trace) for r in execute_batch(spec, "mmx64", seeds))

    instructions = benchmark(work)
    assert instructions > 10_000 * BATCH_SEEDS


def _paper_stack():
    """All twelve paper ``(core, mem)`` pairs (the fig. 4 width axis)."""
    from repro.machines import ISAS, WAYS

    return [
        (get_machine(isa, way).core, get_machine(isa, way).mem)
        for isa in ISAS
        for way in WAYS
    ]


def test_batch_timing_throughput(benchmark):
    """Per-point slots re-timed per second, batched across the stack."""
    cols = execute(KERNELS["ycc"], "mmx64", seed=0).trace.columns()
    specs = _paper_stack()

    def work():
        return BatchCoreModel(specs).run(cols)

    results = benchmark(work)
    assert len(results) == len(specs)


def test_timing_model_throughput(benchmark):
    """Trace slots re-timed per second (columnar ycc trace, 2-way core)."""
    cols = execute(KERNELS["ycc"], "mmx64", seed=0).trace.columns()

    def work():
        return simulate_trace(cols, get_machine("mmx64", 2).core).cycles

    cycles = benchmark(work)
    assert cycles > 0


def test_vector_timing_throughput(benchmark):
    """Matrix traces exercise the lane/vector-cache paths."""
    cols = execute(KERNELS["idct"], "vmmx128", seed=0).trace.columns()

    def work():
        return simulate_trace(cols, get_machine("vmmx128", 2).core).cycles

    benchmark(work)


# ---------------------------------------------------------------------------
# CLI measurement (CI perf smoke + trajectory tracking)
# ---------------------------------------------------------------------------


def _best_rate(work, instructions, reps):
    """Best instructions/sec over ``reps`` runs (min-time estimator)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return instructions / best


def emulation_frames():
    """Python frames entered in ``repro/emu/`` and ``repro/isa/trace.py``
    per emitted instruction, counted with :func:`sys.setprofile`.

    ``single`` runs the seed-0 program of every kernel on every paper ISA
    through ``execute``; ``batch`` runs each through ``execute_batch`` at
    :data:`FRAME_BATCH_SEEDS` and counts the programs whose seeds share
    one instruction stream (ltppar's diverge), per instruction of that
    stream.  ``programs`` gives how many each count covers.
    """
    import repro
    from repro.machines import ISAS

    root = os.path.dirname(repro.__file__)
    emu_dir = os.path.join(root, "emu") + os.sep
    trace_file = os.path.join(root, "isa", "trace.py")
    frames = [0]

    def profile(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(emu_dir) or path == trace_file:
                frames[0] += 1

    def counted(run):
        frames[0] = 0
        sys.setprofile(profile)
        try:
            runs = run()
        finally:
            sys.setprofile(None)
        return frames[0], runs

    counts = {}
    for name, run in (
        ("single", lambda spec, isa: [execute(spec, isa, seed=0)]),
        ("batch", lambda spec, isa: execute_batch(spec, isa, FRAME_BATCH_SEEDS)),
    ):
        total = instructions = programs = 0
        for spec in KERNELS.values():
            for isa in ISAS:
                entered, runs = counted(lambda: run(spec, isa))
                if all(r.trace is runs[0].trace for r in runs):
                    total += entered
                    instructions += len(runs[0].trace)
                    programs += 1
        counts[name] = {
            "programs": programs,
            "instructions": instructions,
            "frames_per_instruction": round(total / instructions, 3),
        }
    return counts


def measure_model_speed(budget="ci"):
    """Measure trace generation and re-timing rates separately."""
    reps = 2 if budget == "ci" else 5
    spec = KERNELS["ycc"]

    trace_holder = {}

    def emulate_reference():
        trace_holder["trace"] = execute(spec, "mmx64", seed=0).trace

    emulate_reference()  # warm imports/workload caches before timing
    n = len(trace_holder["trace"])
    reference_rate = _best_rate(emulate_reference, n, reps)

    seeds = list(range(BATCH_SEEDS))

    def emulate_batch():
        trace_holder["runs"] = execute_batch(spec, "mmx64", seeds)

    emulate_batch()
    batch_instructions = sum(len(run.trace) for run in trace_holder["runs"])
    emu_rate = _best_rate(emulate_batch, batch_instructions, reps)

    cols = trace_holder["trace"].columns()

    def retime():
        simulate_trace(cols, get_machine("mmx64", 2).core)

    retime()  # compile/load the kernel outside the timed region
    retime_rate = _best_rate(retime, n, max(reps, 3))

    specs = _paper_stack()

    def retime_batch():
        BatchCoreModel(specs).run(cols)

    retime_batch()
    batch_retime_rate = _best_rate(retime_batch, n * len(specs), max(reps, 3))

    def retime_reference():
        model = CoreModel(get_machine("mmx64", 2).core)
        model.hier.warm(cols)
        model.run(cols)

    reference_retime_rate = _best_rate(retime_reference, n, reps)

    def build_scalar_trace():
        make_scalar_trace(*SCALAR_MIX)

    scalar_trace_rate = _best_rate(
        build_scalar_trace, SCALAR_TRACE_LEN, max(reps, 3)
    )

    store_rate = _store_write_rate(reps)

    results = {
        "budget": budget,
        "trace_instructions": n,
        "emulation_batch_seeds": BATCH_SEEDS,
        "timing_stack_points": len(specs),
        "emulated_instructions_per_sec": round(emu_rate),
        "reference_emulated_instructions_per_sec": round(reference_rate),
        "batch_retimed_instructions_per_sec": round(batch_retime_rate),
        "retimed_instructions_per_sec": round(retime_rate),
        "reference_retimed_instructions_per_sec": round(reference_retime_rate),
        "scalar_trace_instructions_per_sec": round(scalar_trace_rate),
        "store_records_per_sec": round(store_rate),
        "emulation_frames": emulation_frames(),
    }
    if budget == "full":
        results["fig4_sweep"] = _measure_fig4_sweep()
        results["fig4_seeds_sweep"] = _measure_fig4_seeds_sweep()
        results["paper_warm"] = _measure_paper_warm()
        results["paper_cold"] = _measure_paper_cold()
    return results


def _store_write_rate(reps):
    """Records per second saved in a :data:`STORE_MIX` pass, best of ``reps``.

    The trace records cycle through every kernel's seed-0 mmx64 trace,
    so their sizes spread as a sweep's do.  Each pass writes distinct
    keys into its own empty store under the repository root, so the rate
    includes whatever creating the store's files costs on the disk the
    store would really live on.
    """
    import shutil
    import tempfile

    from repro.sweep import ResultStore, stable_hash
    from repro.sweep.store import (
        kernel_timing_to_dict,
        save_payload,
        trace_to_payload,
    )
    from repro.timing.simulator import KernelTiming

    traces = [
        trace_to_payload(execute(spec, "mmx64", seed=0).trace.columns())
        for spec in KERNELS.values()
    ]
    cols = execute(KERNELS["ycc"], "mmx64", seed=0).trace.columns()
    result = simulate_trace(cols, get_machine("mmx64", 2).core)
    timing = kernel_timing_to_dict(
        KernelTiming(kernel="ycc", version="mmx64", way=2, result=result, batch=1)
    )
    timing_count, trace_count = STORE_MIX
    every = timing_count // trace_count + 1
    records = [
        ("trace", traces[(i // every) % len(traces)]) if i % every == 0
        else ("kernel-timing", timing)
        for i in range(timing_count + trace_count)
    ]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    best = float("inf")
    for rep in range(reps):
        store_root = tempfile.mkdtemp(prefix=".bench-store-", dir=root)
        try:
            store = ResultStore(store_root)
            keys = [stable_hash(("store-write", rep, i)) for i in range(len(records))]
            t0 = time.perf_counter()
            for key, (kind, payload) in zip(keys, records):
                save_payload(store, kind, key, payload)
            best = min(best, time.perf_counter() - t0)
        finally:
            shutil.rmtree(store_root, ignore_errors=True)
    return len(records) / best


@contextlib.contextmanager
def _fresh_store():
    """An empty private store as ``REPRO_STORE``, memo cleared around it."""
    import shutil
    import tempfile

    from repro.sweep import clear_memory_caches

    store_root = tempfile.mkdtemp(prefix="repro-bench-store-")
    previous = os.environ.get("REPRO_STORE")
    os.environ["REPRO_STORE"] = store_root
    try:
        clear_memory_caches()
        yield store_root
    finally:
        if previous is None:
            os.environ.pop("REPRO_STORE", None)
        else:
            os.environ["REPRO_STORE"] = previous
        clear_memory_caches()
        shutil.rmtree(store_root, ignore_errors=True)


def _fig4_grid(seeds):
    """The Fig. 4 kernels on all four extensions at every paper width."""
    from repro.kernels.registry import FIG4_KERNELS
    from repro.machines import ISAS, WAYS
    from repro.sweep.points import grid

    return grid(FIG4_KERNELS + ("fdct",), ISAS, WAYS, seeds)


def _measure_fig4_sweep():
    """Cold + warm-trace end-to-end rates over the Fig. 4 kernel sweep.

    The sweep covers the Fig. 4 kernels on all four extensions at every
    machine width, against a fresh store: the cold pass emulates each
    (kernel, version) once and re-times it per width; the second pass
    runs against a fresh store holding only the cold pass's columnar
    traces, so it re-times without emulating anything -- the warm-trace
    ablation regime.
    """
    from repro.sweep import ResultStore, emulation_count, sweep

    with _fresh_store() as store_root:
        points = _fig4_grid((0,))
        t0 = time.perf_counter()
        report = sweep(points)
        cold = time.perf_counter() - t0
        instructions = sum(t.result.instructions for t in report.results.values())

        cold_store = ResultStore(store_root)
        with _fresh_store() as traces_root:
            traces = ResultStore(traces_root)
            for key in cold_store.iter_keys():
                record = cold_store.peek(key)
                if record is not None and record["kind"] == "trace":
                    traces.save(key, record)
            emulations_before = emulation_count()
            t0 = time.perf_counter()
            warm_report = sweep(points)
            warm = time.perf_counter() - t0
            if warm_report.simulated != len(points):
                raise RuntimeError("the warm-trace pass found stored timings")
        return {
            "points": len(points),
            "timed_instructions": instructions,
            "cold_seconds": round(cold, 3),
            "cold_instructions_per_sec": round(instructions / cold),
            "warm_trace_seconds": round(warm, 3),
            "warm_trace_instructions_per_sec": round(instructions / warm),
            "warm_trace_emulations": emulation_count() - emulations_before,
        }


def _measure_fig4_seeds_sweep():
    """A cold sweep of the Fig. 4 grid over :data:`SWEEP_SEEDS`.

    Every kernel but ltppar emits the same trace for every seed, so the
    engine times each distinct (trace content, configuration) once and
    encodes each distinct trace once: ``distinct_timings`` and
    ``trace_encodes`` record how much of the point and trace count that
    saved, ``seconds`` the wall clock of the whole cold sweep.
    """
    from repro.sweep import engine, sweep

    encodes = []
    encode = engine.trace_to_payload

    def counting_encode(cols):
        encodes.append(1)
        return encode(cols)

    with _fresh_store():
        points = _fig4_grid(SWEEP_SEEDS)
        engine.trace_to_payload = counting_encode
        try:
            t0 = time.perf_counter()
            report = sweep(points)
            seconds = time.perf_counter() - t0
        finally:
            engine.trace_to_payload = encode
        return {
            "points": len(points),
            "seeds": len(SWEEP_SEEDS),
            "distinct_timings": report.distinct_timings,
            "emulations": report.emulated,
            "trace_encodes": len(encodes),
            "seconds": round(seconds, 3),
        }


@contextlib.contextmanager
def key_and_read_counts():
    """Count keys, store reads and the work a pass repeats or computes.

    ``keys`` counts ``point_key`` calls; ``reads`` outermost
    ``ResultStore`` ``peek``, ``load`` or ``in`` calls (``load`` reads
    through ``peek``); ``simulate_kernel`` and ``scalar_ipc`` their
    calls; ``decodes`` ``trace_from_payload`` calls; ``scalar_traces``
    synthetic scalar-region traces built (``make_scalar_trace``); and
    ``stacks`` ``simulate_trace_stack`` calls.  The functions are
    counted at every ``repro`` module that bound their name, so a call
    is counted whichever spelling made it.
    """
    from repro.apps import appmodel
    from repro.sweep import ResultStore, engine, store
    from repro.timing import simulator

    counts = {
        "keys": 0, "reads": 0, "simulate_kernel": 0, "scalar_ipc": 0,
        "decodes": 0, "scalar_traces": 0, "stacks": 0,
    }
    depth = [0]
    reads = {name: getattr(ResultStore, name) for name in ("peek", "load", "__contains__")}
    patches = []

    def count_calls(original, name):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, counted)

    def counting(read):
        def counted_read(*args, **kwargs):
            counts["reads"] += depth[0] == 0
            depth[0] += 1
            try:
                return read(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counted_read

    count_calls(engine.point_key, "keys")
    count_calls(simulator.simulate_kernel, "simulate_kernel")
    count_calls(appmodel.scalar_ipc, "scalar_ipc")
    count_calls(store.trace_from_payload, "decodes")
    count_calls(appmodel.make_scalar_trace, "scalar_traces")
    count_calls(simulator.simulate_trace_stack, "stacks")
    for name, read in reads.items():
        patches.append((ResultStore, name, read))
        setattr(ResultStore, name, counting(read))
    try:
        yield counts
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _measure_paper_warm(reps=3):
    """The twelve paper artefacts from a full store, memo cleared.

    Fills a fresh store with one cold regeneration, then regenerates
    every artefact warm ``reps`` times, clearing the in-process memo
    before each pass as a new process would start: ``seconds`` is the
    best pass, ``point_key_calls``, ``store_reads`` and
    ``simulate_kernel_calls`` its counts.  The twelve grids share one set
    of kernel-timing records, so a warm pass keys and reads each of them
    once, and every artefact reads its timings from its own sweep's
    report, so it makes no ``simulate_kernel`` call.
    """
    from repro.experiments import ARTIFACT_DATA, artifact_json
    from repro.sweep import clear_memory_caches, emulation_count, simulation_count

    with _fresh_store():
        cold = {name: artifact_json(name) for name in ARTIFACT_DATA}
        computed = (simulation_count(), emulation_count())
        best = float("inf")
        for _ in range(reps):
            clear_memory_caches()
            with key_and_read_counts() as counts:
                t0 = time.perf_counter()
                warm = {name: artifact_json(name) for name in ARTIFACT_DATA}
                best = min(best, time.perf_counter() - t0)
            if warm != cold or (simulation_count(), emulation_count()) != computed:
                raise RuntimeError("the warm paper pass computed or changed an artefact")
        return {
            "artifacts": len(cold),
            "seconds": round(best, 3),
            "point_key_calls": counts["keys"],
            "store_reads": counts["reads"],
            "simulate_kernel_calls": counts["simulate_kernel"],
        }


def _measure_paper_cold(reps=3):
    """The twelve paper artefacts into an empty store, best of ``reps``.

    Each pass regenerates every artefact into a fresh store, in-process
    memo cleared: ``seconds`` is the best pass, the counts are a pass's
    work.  The artefacts past fig4 re-time fig4's traces, so a cold pass
    decodes none of them (``trace_decodes``), keys each kernel timing
    once (``point_key_calls``) and builds each scalar mix's synthetic
    trace once per composition that first prices it (``scalar_traces``).
    ``trace_bytes_per_instruction`` is what the traces the pass holds in
    the memo weigh in memory, an instruction, and
    ``trace_encode_seconds`` the best pass's time in encoding them for
    the store.
    """
    from repro.experiments import ARTIFACT_DATA, artifact_json
    from repro.sweep import emulation_count, engine, simulation_count
    from repro.sweep.store import MEMO

    encode = engine.trace_to_payload
    encoding = [0.0]

    def timed_encode(cols):
        t0 = time.perf_counter()
        try:
            return encode(cols)
        finally:
            encoding[0] += time.perf_counter() - t0

    best = float("inf")
    for _ in range(reps):
        with _fresh_store():
            computed = (simulation_count(), emulation_count())
            encoding[0] = 0.0
            engine.trace_to_payload = timed_encode
            try:
                with key_and_read_counts() as counts:
                    t0 = time.perf_counter()
                    for name in ARTIFACT_DATA:
                        artifact_json(name)
                    seconds = time.perf_counter() - t0
            finally:
                engine.trace_to_payload = encode
            if seconds < best:
                best, encode_seconds = seconds, encoding[0]
            simulated = simulation_count() - computed[0]
            emulated = emulation_count() - computed[1]
            traces = {id(cols): cols for cols, _ in MEMO.traces.entries.values()}
    instructions = sum(len(cols) for cols in traces.values())
    return {
        "artifacts": len(ARTIFACT_DATA),
        "seconds": round(best, 3),
        "trace_instructions": instructions,
        "trace_bytes_per_instruction": round(
            sum(cols.nbytes for cols in traces.values()) / max(instructions, 1), 2
        ),
        "trace_encode_seconds": round(encode_seconds, 4),
        "trace_decodes": counts["decodes"],
        "point_key_calls": counts["keys"],
        "store_reads": counts["reads"],
        "scalar_traces": counts["scalar_traces"],
        "stack_calls": counts["stacks"],
        "emulations": emulated,
        "simulations": simulated,
    }


def check_floor(results, floor_path):
    """Fail (return False) when any measured rate drops below its floor.

    The floor is the failure threshold itself -- no hidden extra margin.
    The slack for slow CI hardware lives in how the floors are *chosen*
    (one-third of the rates measured when they were last raised), so the
    number in ``perf_floor.json`` is exactly the number the smoke
    enforces.
    """
    with open(floor_path) as handle:
        floors = json.load(handle)
    ok = True
    for key in RATE_KEYS:
        floor = floors.get(key)
        rate = results.get(key)
        if floor is None or rate is None:
            continue
        status = "ok" if rate >= floor else "REGRESSION"
        print(f"{key}: {rate:,.0f}/s (floor {floor:,.0f}) {status}")
        if rate < floor:
            ok = False
    for key, (block, field) in MAX_SECONDS_KEYS.items():
        ceiling = floors.get(key)
        seconds = results.get(block, {}).get(field)
        if ceiling is None or seconds is None:
            continue
        status = "ok" if seconds <= ceiling else "REGRESSION"
        print(f"{key}: {seconds:.3f}s (ceiling {ceiling:.3f}s) {status}")
        if seconds > ceiling:
            ok = False
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", choices=("ci", "full"), default="ci")
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the measured rates to this JSON file",
    )
    parser.add_argument(
        "--check-floor", metavar="PATH",
        help="fail if a measured rate drops below a floor in this file",
    )
    args = parser.parse_args(argv)

    results = measure_model_speed(args.budget)
    print(json.dumps(results, indent=2))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
    if args.check_floor and not check_floor(results, args.check_floor):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
