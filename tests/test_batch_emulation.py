"""Differential suite for the batch-vectorised emulation engine.

The batch machines (:mod:`repro.emu.batch`) emulate many seeds of one
kernel in a single NumPy-vectorised pass; the record-at-a-time machines
stay as the authoritative reference, reachable via
``REPRO_EMU_REFERENCE=1``.  The core guarantee pinned here is the same
one that retired the PR 2 timing-loop risk: the two paths produce
byte-identical :class:`~repro.isa.trace.ColumnarTrace` digests for every
kernel, version and seed, and identical verified outputs.

Also regression-locked here, per the bugfix sweep that rode along with
the batch engine: ``sll``/``sra`` accepting register shift counts,
``REPRO_JOBS`` validation, the hard (margin-free) perf-floor semantics,
and the sweep engine's batched ``acquire_traces`` store fill.
"""

import importlib.util
import json
import os
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emu import Memory, ScalarMachine
from repro.emu.batch import REFERENCE_ENV, BatchDivergence, BatchMemory, batch_enabled
from repro.kernels.base import execute, execute_batch, outputs_equal
from repro.kernels.registry import KERNELS
from repro.sweep import engine

ALL_CASES = [
    (name, version)
    for name, spec in KERNELS.items()
    for version in spec.versions
]


#: ``ColumnarTrace.digest()`` of every reference trace the differential
#: test below emulates, keyed ``kernel/version/seed``.  The batch and
#: reference paths share ``emit`` and ``columns()``, so only this pin
#: catches a change to the trace bytes both of them would make.
TRACE_GOLDENS = pathlib.Path(__file__).parent / "goldens" / "traces.json"


def _digest(run):
    return run.trace.columns().digest()


def _check_trace_goldens(request, digests):
    """Assert ``digests`` against :data:`TRACE_GOLDENS`.

    With ``--regen-goldens`` the entries are written into the file
    instead, as the artefact fixtures are.
    """
    pinned = json.loads(TRACE_GOLDENS.read_text()) if TRACE_GOLDENS.is_file() else {}
    if request.config.getoption("--regen-goldens"):
        pinned.update(digests)
        TRACE_GOLDENS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        return
    for key, digest in digests.items():
        assert pinned.get(key) == digest, (
            f"trace {key} deviates from tests/goldens/traces.json; if the "
            "change is intentional, rerun with --regen-goldens"
        )


# ---------------------------------------------------------------------------
# Differential: batch vs record-at-a-time reference
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("kernel,version", ALL_CASES)
    def test_all_kernels_all_isas_digest_identical(self, kernel, version, request):
        """Batched traces are byte-identical to per-seed reference traces,
        and those to the pinned digests."""
        spec = KERNELS[kernel]
        seeds = [0, 1]
        runs = execute_batch(spec, version, seeds)
        assert len(runs) == len(seeds)
        digests = {}
        for seed, run in zip(seeds, runs):
            ref = execute(spec, version, seed)
            assert run.correct, (kernel, version, seed)
            assert ref.correct, (kernel, version, seed)
            assert outputs_equal(run.output, ref.output)
            assert _digest(run) == _digest(ref), (kernel, version, seed)
            digests[f"{kernel}/{version}/{seed}"] = _digest(ref)
        _check_trace_goldens(request, digests)

    def test_batched_runs_share_one_trace(self, monkeypatch):
        """The batch fast path emits one shared instruction stream."""
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
        runs = execute_batch(KERNELS["ycc"], "mmx64", [0, 1, 2])
        assert len({id(r.trace) for r in runs}) == 1

    def test_divergent_kernel_falls_back_per_seed(self):
        """ltppar's data-dependent argmax diverges across seeds and falls
        back to record-at-a-time execution -- with correct outputs."""
        runs = execute_batch(KERNELS["ltppar"], "mmx64", [0, 1, 2])
        assert len({id(r.trace) for r in runs}) == 3
        assert all(r.correct for r in runs)

    def test_single_seed_uses_reference_path(self):
        runs = execute_batch(KERNELS["addblock"], "mmx64", [0])
        ref = execute(KERNELS["addblock"], "mmx64", 0)
        assert len(runs) == 1
        assert _digest(runs[0]) == _digest(ref)

    @settings(max_examples=20, deadline=None)
    @given(
        kernel=st.sampled_from(["addblock", "comp", "motion1"]),
        version=st.sampled_from(["scalar", "mmx64", "vmmx128"]),
        seeds=st.lists(st.integers(0, 30), min_size=2, max_size=5, unique=True),
    )
    def test_random_seed_batches_match_reference(self, kernel, version, seeds):
        spec = KERNELS[kernel]
        runs = execute_batch(spec, version, seeds)
        for seed, run in zip(seeds, runs):
            ref = execute(spec, version, seed)
            assert run.correct
            assert _digest(run) == _digest(ref)


class TestReferenceGate:
    def test_env_disables_batching(self, monkeypatch):
        """REPRO_EMU_REFERENCE=1 routes through record-at-a-time runs."""
        import repro.kernels.base as base

        calls = []
        real = base._execute_batched

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(base, "_execute_batched", spy)
        monkeypatch.setenv(REFERENCE_ENV, "1")
        assert not batch_enabled()
        runs = execute_batch(KERNELS["addblock"], "mmx64", [0, 1])
        assert not calls
        assert len({id(r.trace) for r in runs}) == 2
        assert all(r.correct for r in runs)

        monkeypatch.delenv(REFERENCE_ENV)
        assert batch_enabled()
        runs = execute_batch(KERNELS["addblock"], "mmx64", [0, 1])
        assert calls
        assert len({id(r.trace) for r in runs}) == 1


class TestBatchMemory:
    def test_planes_view_one_buffer(self):
        mem = BatchMemory(3, size=1 << 12)
        planes = [mem.plane(i) for i in range(3)]
        addrs = [p.alloc(16) for p in planes]
        assert addrs[0] == addrs[1] == addrs[2]
        assert [p.allocs for p in planes] == [planes[0].allocs] * 3
        planes[1].write(addrs[1], np.arange(16, dtype=np.uint8))
        batched = mem.read(addrs[0], 16)
        assert batched[1].tolist() == list(range(16))
        assert batched[0].tolist() == [0] * 16

    def test_uniform_guard_raises_on_divergence(self):
        from repro.emu.batch import _uniform

        _uniform(np.array([7, 7, 7]), "x")
        with pytest.raises(BatchDivergence):
            _uniform(np.array([7, 7, 8]), "branch outcome")


# ---------------------------------------------------------------------------
# Bugfix regressions
# ---------------------------------------------------------------------------


class TestShiftOperands:
    def test_sll_sra_accept_register_counts(self):
        """Regression: sll/sra used to TypeError on an SReg shift count."""
        m = ScalarMachine(Memory())
        a = m.li(-40)
        count = m.li(3)
        left = m.sll(a, count)
        right = m.sra(left, count)
        assert int(right) == -40
        assert int(m.sll(a, 2)) == -160  # immediates still work

    def test_sll_sra_track_count_register_as_source(self):
        m = ScalarMachine(Memory())
        a = m.li(5)
        count = m.li(2)
        m.sll(a, count)
        m.sra(a, count)
        cols = m.trace.columns()
        records = list(cols)
        assert records[-2].srcs == (a.rid, count.rid)
        assert records[-1].srcs == (a.rid, count.rid)


class TestJobsValidation:
    def test_unset_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert engine.default_jobs() == 1

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert engine.default_jobs() == 3

    @pytest.mark.parametrize("raw", ["", "abc", "2.5", "0", "-2"])
    def test_invalid_values_name_the_variable(self, monkeypatch, raw):
        """Regression: malformed REPRO_JOBS surfaced as a bare ValueError
        (or was silently clamped) from deep inside pool setup."""
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ValueError) as excinfo:
            engine.default_jobs()
        assert "REPRO_JOBS" in str(excinfo.value)
        assert repr(raw) in str(excinfo.value)


class TestFloorSemantics:
    """Regression: floor file claimed one margin, check_floor applied another."""

    @pytest.fixture()
    def bench(self):
        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "bench_model_speed.py"
        )
        spec = importlib.util.spec_from_file_location("bench_model_speed", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_floor_is_the_threshold(self, bench, tmp_path, capsys):
        floors = tmp_path / "floor.json"
        floors.write_text(
            '{"emulated_instructions_per_sec": 100, '
            '"retimed_instructions_per_sec": 100}'
        )
        at_floor = {
            "emulated_instructions_per_sec": 100,
            "retimed_instructions_per_sec": 100,
        }
        assert bench.check_floor(at_floor, floors)
        below = dict(at_floor, retimed_instructions_per_sec=99)
        assert not bench.check_floor(below, floors)
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_no_hidden_margin_constant(self, bench):
        assert not hasattr(bench, "REGRESSION_FACTOR")

    def test_checked_in_floor_matches_comment(self, bench):
        """The shipped floor file documents the hard-floor semantics."""
        import json

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "perf_floor.json"
        )
        floors = json.loads(path.read_text())
        assert "fails as soon as a measured rate drops below it" in floors["_comment"]
        for key in bench.RATE_KEYS:
            assert floors[key] > 0


# ---------------------------------------------------------------------------
# Sweep engine: batched trace acquisition
# ---------------------------------------------------------------------------


class TestAcquireTraces:
    @pytest.fixture(autouse=True)
    def isolated_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        from repro.sweep import clear_memory_caches

        clear_memory_caches()
        engine.reset_simulation_count()
        yield
        clear_memory_caches()

    def _points(self, seeds=(0, 1, 2)):
        from repro.sweep.points import grid

        return grid(("ycc",), ("mmx64",), (2,), seeds=seeds)

    def test_batch_fills_store_and_counts_emulations(self):
        points = self._points()
        filled = engine.acquire_traces(points)
        assert filled == 3
        assert engine.emulation_count() == 3
        # Everything is now served from memo/store: no further emulation.
        assert engine.acquire_traces(points) == 0
        for point in points:
            cols = engine.acquire_trace(point)
            ref = execute(KERNELS[point.kernel], point.version, point.seed)
            assert cols.digest() == ref.trace.columns().digest()
        assert engine.emulation_count() == 3

    def test_a_shared_batch_trace_is_stamped_once(self, monkeypatch):
        """One trace object for 4 seeds: one payload hash, 4 sound records."""
        from repro.sweep import default_store
        from repro.sweep import store as storelib
        from repro.sweep.points import grid

        hashed = []
        payload_sha256 = storelib.payload_sha256

        def counted(payload):
            hashed.append(payload)
            return payload_sha256(payload)

        monkeypatch.setattr(storelib, "payload_sha256", counted)
        points = grid(("comp",), ("mmx64",), (2,), seeds=(0, 1, 2, 3))
        assert engine.sweep(points).emulated == 4
        traces = [
            payload for payload in hashed
            if payload.get("format") == storelib.TRACE_PAYLOAD_FORMAT
        ]
        assert len(traces) == 1
        store = default_store()
        records = [store.load(engine.trace_key(point)) for point in points]
        assert len({record["key"] for record in records}) == 4
        assert all(record["payload"] == traces[0] for record in records)
        assert store.verify().ok

    def test_a_shared_trace_record_is_serialised_once(self, monkeypatch):
        """A cold 4-seed sweep of every kernel x paper ISA saves 176 trace
        records, 56 of them distinct: each distinct one is serialised
        once, and each frame is still that record's JSON with its key."""
        from repro.machines import ISAS
        from repro.sweep import default_store
        from repro.sweep import store as storelib
        from repro.sweep.points import grid

        serialised = []
        dumps = json.dumps

        def counted(obj, *args, **kwargs):
            if isinstance(obj, dict) and obj.get("kind") == "trace" and "payload" in obj:
                serialised.append(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(storelib.json, "dumps", counted)
        points = grid(tuple(KERNELS), ISAS, (2,), seeds=(0, 1, 2, 3))
        assert engine.sweep(points).emulated == 176
        assert len(serialised) == 56
        store = default_store()
        keys = {engine.trace_key(point) for point in points}
        assert len(keys) == 176
        for key in keys:
            record = store.load(key)
            assert record["key"] == key
            assert store.record_bytes(key) == json.dumps(record).encode("utf-8")

    def test_single_missing_seed_left_to_acquire_trace(self):
        points = self._points(seeds=(5,))
        assert engine.acquire_traces(points) == 0
        assert engine.emulation_count() == 0
        engine.acquire_trace(points[0])
        assert engine.emulation_count() == 1

    def test_cold_sweep_emulates_batched_then_warm_is_zero(self):
        from repro.sweep import clear_memory_caches

        points = self._points()
        report = engine.sweep(points)
        assert report.emulated == 3
        clear_memory_caches()
        engine.reset_simulation_count()
        warm = engine.sweep(points)
        assert warm.emulated == 0
        assert warm.cached == len(points)
