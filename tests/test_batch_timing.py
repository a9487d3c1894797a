"""Differential suite for the compiled timing engine.

:class:`repro.timing.batch.BatchCoreModel` -- the only production timing
engine -- times one columnar trace against a stack of configurations in
a single pass (shared pre-passes + a compiled constraint-walk kernel);
the record-at-a-time :class:`~repro.timing.core.CoreModel` is its
oracle.  The oracle runs about 40x slower than the kernel, so timing
every kernel on every paper configuration against it would dominate the
suite; the guarantee is split instead:

* short traces -- a few small kernels, a 2-D vector trace, cold caches,
  sparse and negative register ids -- are compared with the oracle
  directly;
* the whole kernel grid and random ablation stacks are pinned by *stack
  invariance*: a P-configuration stack equals P one-configuration runs,
  the engine path the oracle comparisons here and in
  ``tests/test_timing_reference.py`` pin to the reference.

Equality is value-identical :class:`~repro.timing.core.SimResult`\\ s,
including the golden-contract first-occurrence ordering of the
per-category tallies, mirroring the emulation-side suite
(``tests/test_batch_emulation.py``).
"""

import dataclasses
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.appmodel import make_scalar_trace
from repro.isa import opcodes as op
from repro.isa.trace import Trace
from repro.kernels.base import execute
from repro.kernels.registry import KERNELS
from repro.machines import ISAS, WAYS, get_machine
from repro.timing import simulate_trace, simulate_trace_stack
from repro.timing.batch import BatchCoreModel, BatchTimingDivergence, load_kernel
from repro.timing.caches import BimodalPredictor, Cache
from repro.timing.core import REFERENCE_ENV, CoreModel

#: Kernels whose mmx64 traces are short enough to time on the reference
#: across all twelve paper configurations.
ORACLE_KERNELS = ("addblock", "comp", "ltpfilt")

_TRACES = {}


def trace_of(kernel, version, seed=0):
    key = (kernel, version, seed)
    if key not in _TRACES:
        _TRACES[key] = execute(KERNELS[kernel], version, seed).trace.columns()
    return _TRACES[key]


def paper_stack():
    """All twelve paper configurations, each with its own hierarchy."""
    return [
        (get_machine(isa, way).core, get_machine(isa, way).mem)
        for isa in ISAS
        for way in WAYS
    ]


def assert_results_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, (g.config_name, w.config_name)
        # Dict equality ignores ordering, but the golden JSON artefacts
        # do not: tally keys must appear in first-occurrence order.
        assert list(g.cat_instructions) == list(w.cat_instructions)
        assert list(g.cat_cycles) == list(w.cat_cycles)


def reference_results(cols, specs, warm=True):
    """The oracle: each point through a fresh record-at-a-time model."""
    results = []
    for core, mem in specs:
        model = CoreModel(core, mem)
        if warm:
            model.hier.warm(cols)
        results.append(model.run(cols))
    return results


def run_batch(specs, cols, warm=True):
    """Run the compiled engine with the env gate cleared.

    The differential tests must exercise the *engine* even when the
    whole suite is re-run under ``REPRO_TIMING_REFERENCE=1`` (the CI
    reference-mode job), or they would compare the reference with
    itself.  A context manager rather than a monkeypatch fixture so the
    Hypothesis test stays free of function-scoped fixtures.
    """
    with mock.patch.dict(os.environ):
        os.environ.pop(REFERENCE_ENV, None)
        return BatchCoreModel(specs).run(cols, warm=warm)


def one_by_one(cols, specs, warm=True):
    """Each point as its own one-configuration stack."""
    return [run_batch([spec], cols, warm=warm)[0] for spec in specs]


# ---------------------------------------------------------------------------
# Differential: engine vs reference, and stack invariance
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_paper_stack_matches_scalar(self, kernel):
        """Each kernel's mmx64 trace across all 12 paper configs equals
        12 one-configuration runs; short traces also equal the reference."""
        cols = trace_of(kernel, "mmx64")
        specs = paper_stack()
        batch = run_batch(specs, cols)
        assert_results_identical(batch, one_by_one(cols, specs))
        if kernel in ORACLE_KERNELS:
            assert_results_identical(batch, reference_results(cols, specs))

    def test_vector_trace_matches_scalar(self):
        """A 2-D (strided vector memory) trace exercises the vector
        occupancy formulas on both matrix and non-matrix stacks."""
        cols = trace_of("ycc", "vmmx128")
        specs = paper_stack()
        batch = run_batch(specs, cols)
        assert_results_identical(batch, reference_results(cols, specs))

    def test_cold_caches_match_scalar(self):
        cols = trace_of("addblock", "vmmx64")
        specs = paper_stack()
        batch = run_batch(specs, cols, warm=False)
        assert_results_identical(
            batch, reference_results(cols, specs, warm=False)
        )

    @settings(max_examples=15, deadline=None)
    @given(
        kernel=st.sampled_from(["addblock", "comp", "motion1"]),
        version=st.sampled_from(["mmx64", "vmmx128"]),
        picks=st.lists(
            st.tuples(
                st.sampled_from(ISAS),
                st.sampled_from(WAYS),
                st.sampled_from(
                    [
                        None,
                        {"rob_size": 12},
                        {"fetch_width": 1},
                        {"simd_issue": 1},
                        {"branch_penalty": 2},
                        {"mem_ports": 1},
                    ]
                ),
                st.sampled_from([None, "l1_latency", "l2_ports", "main", "strided"]),
            ),
            min_size=2,
            max_size=6,
        ),
    )
    def test_random_ablation_stacks_match_scalar(self, kernel, version, picks):
        """Random machine/way/ablation stacks -- including stacks mixing
        cache geometries, which must split into exact sub-stacks --
        equal their points timed one at a time."""
        specs = []
        for isa, way, core_abl, mem_abl in picks:
            spec = get_machine(isa, way)
            core, mem = spec.core, spec.mem
            if core_abl:
                core = dataclasses.replace(core, **core_abl)
            if mem_abl == "l1_latency":
                mem = dataclasses.replace(
                    mem, l1=dataclasses.replace(mem.l1, latency=1)
                )
            elif mem_abl == "l2_ports":
                mem = dataclasses.replace(
                    mem, l2=dataclasses.replace(mem.l2, ports=1, port_bytes=8)
                )
            elif mem_abl == "main":
                mem = dataclasses.replace(mem, main_latency=120)
            elif mem_abl == "strided":
                mem = dataclasses.replace(mem, strided_rows_per_cycle=2.0)
            specs.append((core, mem))
        cols = trace_of(kernel, version)
        batch = run_batch(specs, cols)
        assert_results_identical(batch, one_by_one(cols, specs))

    def test_stack_driver_uses_batch_once(self, monkeypatch):
        """simulate_trace_stack routes a multi-point stack through one
        BatchCoreModel pass."""
        calls = []
        real = BatchCoreModel.run

        def spy(self, trace, warm=True):
            calls.append(len(self.specs))
            return real(self, trace, warm=warm)

        monkeypatch.setattr(BatchCoreModel, "run", spy)
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
        cols = trace_of("comp", "mmx64")
        specs = paper_stack()
        got = simulate_trace_stack(cols, specs)
        assert calls == [len(specs)]
        assert_results_identical(got, reference_results(cols, specs))

    def test_single_point_stack_uses_kernel(self, monkeypatch):
        """A stack of one -- every simulate_trace call -- runs through
        the compiled engine, never the reference."""
        cols = trace_of("addblock", "mmx64")
        specs = paper_stack()[:1]
        want = reference_results(cols, specs)
        calls = []
        real = BatchCoreModel.run

        def spy(self, trace, warm=True):
            calls.append(len(self.specs))
            return real(self, trace, warm=warm)

        def boom(self, trace):
            raise AssertionError("reference model used for a single point")

        monkeypatch.setattr(BatchCoreModel, "run", spy)
        monkeypatch.setattr(CoreModel, "run", boom)
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
        got = simulate_trace(cols, *specs[0])
        assert calls == [1]
        assert_results_identical([got], want)

    def test_sparse_ssa_ids_match_reference(self):
        """Hand-built traces with huge sparse register ids are renumbered
        densely for the flat scoreboard and time identically."""
        t = Trace("sparse")
        t.emit(op.ADD, (10_000_000,), ())
        t.emit(op.ADD, (10_000_001,), (10_000_000,))
        cols = t.columns()
        specs = paper_stack()[:2]
        assert_results_identical(
            run_batch(specs, cols), reference_results(cols, specs)
        )

    @pytest.mark.parametrize("seed", [1, 6, 8, 24])
    def test_negative_ssa_ids_match_reference(self, seed):
        """Synthetic scalar traces that open with branches number their
        first producers 0, -1, ...; the flat scoreboard must renumber
        them instead of indexing below its buffer."""
        cols = make_scalar_trace(0.3, 0.3, seed=seed, length=400)
        assert cols.dst_ids.min() < 0
        specs = [
            (get_machine("mmx64", way).core, get_machine("mmx64", way).mem)
            for way in (2, 8)
        ]
        assert_results_identical(
            run_batch(specs, cols), reference_results(cols, specs)
        )


class TestCompiledPrePass:
    def test_engine_walks_no_python_cache_or_predictor(self, monkeypatch):
        """The warm, the cache resolution and the predictor walk all run
        in the kernel: with the oracle's cache and predictor patched to
        raise, stacks with vector and scalar memory paths and branches
        still time to the oracle's results, warm and cold."""
        cases = []
        for kernel, version in (("ycc", "vmmx128"), ("comp", "mmx64")):
            cols = trace_of(kernel, version)
            assert cols.is_branch.any()
            specs = paper_stack()[::3]
            for warm in (True, False):
                cases.append(
                    (cols, specs, warm, reference_results(cols, specs, warm))
                )

        def boom(*args, **kwargs):
            raise AssertionError("the engine walked a Python cache or predictor")

        monkeypatch.setattr(Cache, "access", boom)
        monkeypatch.setattr(Cache, "touch", boom)
        monkeypatch.setattr(BimodalPredictor, "predict_and_update", boom)
        for cols, specs, warm, want in cases:
            assert_results_identical(run_batch(specs, cols, warm=warm), want)


# ---------------------------------------------------------------------------
# Fallback: a host without a kernel still times correctly, and says so
# ---------------------------------------------------------------------------


def _no_compiler():
    raise RuntimeError("no C compiler (gcc/cc) on PATH")


class TestDivergenceFallback:
    def test_unloadable_kernel_falls_back(self, monkeypatch):
        """A host without a usable C compiler warns once, then times
        every point on the reference."""
        import repro.timing.batch as batch

        monkeypatch.setattr(batch, "_lib", None)
        monkeypatch.setattr(batch, "_lib_error", None)
        monkeypatch.setattr(batch, "_compile_and_load", _no_compiler)
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
        cols = trace_of("comp", "mmx64")
        specs = paper_stack()[:3]
        with pytest.warns(RuntimeWarning, match="no C compiler") as record:
            with pytest.raises(BatchTimingDivergence):
                BatchCoreModel(specs).run(cols)
            got = simulate_trace_stack(cols, specs)
        assert len(record) == 1
        assert_results_identical(got, reference_results(cols, specs))

    def test_non_integral_counts_time_on_the_reference(self, monkeypatch):
        """The kernel times integral parameters only: ``lanes=4.0`` times
        as 4 on it, and ``lanes=2.5`` is handed to the reference."""
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
        cols = trace_of("addblock", "vmmx64")
        (core, mem), = paper_stack()[:1]
        integral = [(dataclasses.replace(core, lanes=4.0), mem)]
        assert_results_identical(
            run_batch(integral, cols),
            run_batch([(dataclasses.replace(core, lanes=4), mem)], cols),
        )
        fractional = [(dataclasses.replace(core, lanes=2.5), mem)]
        with pytest.raises(BatchTimingDivergence, match="lanes=2.5"):
            BatchCoreModel(fractional).run(cols)
        assert_results_identical(
            simulate_trace_stack(cols, fractional), reference_results(cols, fractional)
        )


class TestReferenceGate:
    def test_reference_env_refuses_batch_and_matches(self, monkeypatch):
        """REPRO_TIMING_REFERENCE=1 forces every simulation through the
        record-at-a-time reference; the engine refuses outright and the
        stack driver's fallback results equal the engine's."""
        cols = trace_of("addblock", "mmx64")
        specs = paper_stack()[:4]
        default = run_batch(specs, cols)

        monkeypatch.setenv(REFERENCE_ENV, "1")
        with pytest.raises(BatchTimingDivergence):
            BatchCoreModel(specs).run(cols)
        gated = simulate_trace_stack(cols, specs)
        assert_results_identical(gated, default)


# ---------------------------------------------------------------------------
# Kernel build plumbing
# ---------------------------------------------------------------------------


class TestKernelCache:
    def test_cache_env_overrides_build_directory(self, tmp_path, monkeypatch):
        import repro.timing.batch as batch

        monkeypatch.setenv(batch.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(batch, "_lib", None)
        monkeypatch.setattr(batch, "_lib_error", None)
        lib = batch.load_kernel()
        assert lib is not None
        built = list(tmp_path.glob("kernel-*.so"))
        assert len(built) == 1
        # Reloading serves the cached artifact (same digest, no rebuild).
        monkeypatch.setattr(batch, "_lib", None)
        assert batch.load_kernel() is not None
        assert list(tmp_path.glob("kernel-*.so")) == built

    def test_failure_is_remembered_per_process(self, monkeypatch):
        import repro.timing.batch as batch

        calls = []

        def explode():
            calls.append(1)
            raise RuntimeError("no compiler")

        monkeypatch.setattr(batch, "_lib", None)
        monkeypatch.setattr(batch, "_lib_error", None)
        monkeypatch.setattr(batch, "_compile_and_load", explode)
        with pytest.warns(RuntimeWarning, match="reference model") as record:
            assert batch.load_kernel() is None
            assert batch.load_kernel() is None
        assert calls == [1]
        assert len(record) == 1

    def test_kernel_loads_on_this_host(self):
        assert load_kernel() is not None
