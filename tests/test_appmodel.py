"""Tests for application profiling and timing composition."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from record_traces import trace_from_records

from repro.apps import APP_NAMES, app_instruction_counts, app_timing, run_app_profile
from repro.apps.appmodel import SCALAR_TRACE_LEN, make_scalar_trace, scalar_ipc
from repro.apps.profile import AppProfile, COSTS, tally_cost
from repro.isa.opcodes import Category, FUClass, Latency
from repro.isa.trace import TraceRecord

#: The scalar mixes (smem, sctrl) the paper applications are priced at.
PAPER_MIXES = [(0.31, 0.04), (0.29, 0.04), (0.31, 0.06), (0.28, 0.09), (0.40, 0.00)]


def reference_scalar_trace(
    smem_frac, sctrl_frac, seed=7, length=SCALAR_TRACE_LEN
):
    """The record-at-a-time generator ``make_scalar_trace`` must equal.

    One record per instruction from the same random draws, keeping a
    running SSA id and a window of the 64 latest produced values.
    """
    rng = np.random.default_rng(seed)
    records = []
    kinds = rng.choice(
        3, size=length, p=[smem_frac, sctrl_frac, 1.0 - smem_frac - sctrl_frac]
    )
    dep_dist = rng.geometric(0.18, size=length)
    taken = rng.random(length) < 0.85
    is_l2 = rng.random(length) < 0.03
    is_mem = rng.random(length) < 0.002
    addr_wave = rng.integers(0, 24 * 1024, size=length)
    addr_l2 = rng.integers(0, 256 * 1024, size=length)
    sites = rng.integers(1, 17, size=length)
    mem_stream = 4 * 1024 * 1024
    next_id = 1
    recent = [0]
    for i in range(length):
        srcs = ()
        dist = int(dep_dist[i])
        if dist <= len(recent):
            srcs = (recent[-dist],)
        kind = kinds[i]
        if kind == 0:
            if is_mem[i]:
                mem_stream += 128
                addr = mem_stream
            elif is_l2[i]:
                addr = int(addr_l2[i])
            else:
                addr = int(addr_wave[i])
            records.append(
                TraceRecord(
                    name="ld", category=Category.SMEM, fu=FUClass.MEM,
                    latency=0, dsts=(next_id,), srcs=srcs, addr=64 + addr,
                    row_bytes=4,
                )
            )
        elif kind == 1:
            records.append(
                TraceRecord(
                    name="br", category=Category.SCTRL, fu=FUClass.INT,
                    latency=Latency.BRANCH, srcs=srcs, is_branch=True,
                    taken=bool(taken[i]), pc=int(sites[i]),
                )
            )
            next_id -= 1  # branches produce no value
        else:
            records.append(
                TraceRecord(
                    name="alu", category=Category.SARITH, fu=FUClass.INT,
                    latency=Latency.INT_ALU, dsts=(next_id,), srcs=srcs,
                )
            )
        if kind != 1:
            recent.append(next_id)
            if len(recent) > 64:
                recent.pop(0)
            next_id += 1
    return trace_from_records(records, f"scalar-mix-{smem_frac:.2f}-{sctrl_frac:.2f}")


def assert_matches_reference(smem_frac, sctrl_frac, seed=7, length=SCALAR_TRACE_LEN):
    got = make_scalar_trace(smem_frac, sctrl_frac, seed=seed, length=length)
    want = reference_scalar_trace(smem_frac, sctrl_frac, seed=seed, length=length)
    assert got.to_bytes() == want.to_bytes()
    return got


class TestAppProfile:
    def test_tally_accumulates(self):
        p = AppProfile("demo")
        p.tally(smem=5, sarith=10, sctrl=1)
        p.tally(sarith=2)
        assert p.scalar["smem"] == 5
        assert p.scalar["sarith"] == 12
        assert p.scalar_instructions == 18

    def test_call_kernel_accumulates_fractions(self):
        p = AppProfile("demo")
        p.call_kernel("ltpfilt", 1 / 3)
        p.call_kernel("ltpfilt", 2 / 3)
        assert p.kernel_items["ltpfilt"] == pytest.approx(1.0)

    def test_tally_cost_uses_constants(self):
        p = AppProfile("demo")
        tally_cost(p, "vlc_encode_symbol", 10)
        smem, sarith, sctrl = COSTS["vlc_encode_symbol"]
        assert p.scalar["smem"] == 10 * smem
        assert p.scalar["sarith"] == 10 * sarith
        assert p.scalar["sctrl"] == 10 * sctrl

    def test_merge(self):
        a, b = AppProfile("a"), AppProfile("b")
        a.tally(sarith=1)
        b.tally(sarith=2)
        b.call_kernel("idct", 3)
        a.merge(b)
        assert a.scalar["sarith"] == 3
        assert a.kernel_items["idct"] == 3

    def test_summary_keys(self):
        p = AppProfile("demo")
        p.tally(smem=1)
        p.call_kernel("idct", 2)
        s = p.summary()
        assert s["smem"] == 1 and s["kernel:idct"] == 2


class TestScalarTrace:
    def test_length(self):
        t = make_scalar_trace(0.3, 0.05, length=5000)
        assert len(t) == 5000

    def test_mix_approximates_request(self):
        t = make_scalar_trace(0.3, 0.05, length=20000)
        counts = t.category_counts()
        assert counts["smem"] / len(t) == pytest.approx(0.3, abs=0.03)
        assert counts["sctrl"] / len(t) == pytest.approx(0.05, abs=0.02)

    def test_no_vector_instructions(self):
        t = make_scalar_trace(0.2, 0.05, length=3000)
        assert t.counts[Category.VMEM] == 0
        assert t.counts[Category.VARITH] == 0

    def test_deterministic(self):
        a = make_scalar_trace(0.25, 0.04, length=2000)
        b = make_scalar_trace(0.25, 0.04, length=2000)
        assert a.to_bytes() == b.to_bytes()


class TestScalarTraceMatchesReference:
    """The column builder against the record-at-a-time generator."""

    @pytest.mark.parametrize("smem,sctrl", PAPER_MIXES)
    def test_paper_mixes(self, smem, sctrl):
        assert_matches_reference(smem, sctrl)

    @pytest.mark.parametrize("length", [1, 2])
    def test_shortest_traces(self, length):
        assert len(assert_matches_reference(0.3, 0.3, length=length)) == length

    def test_no_branches(self):
        t = assert_matches_reference(0.3, 0.0, length=500)
        assert "br" not in t.mnemonics

    def test_only_branches(self):
        t = assert_matches_reference(0.0, 1.0, length=200)
        assert t.mnemonics == ("br",)
        assert len(t.dst_ids) == 0

    def test_only_loads(self):
        t = assert_matches_reference(1.0, 0.0, length=500)
        assert t.mnemonics == ("ld",)

    @pytest.mark.parametrize("seed", [1, 6, 8, 24])
    def test_opening_branches(self, seed):
        """A trace opening with branches numbers producers 0, -1, ..."""
        t = assert_matches_reference(0.3, 0.3, seed=seed, length=400)
        assert t.dst_ids.min() <= 0

    @settings(max_examples=60, deadline=None)
    @given(
        smem_pct=st.integers(0, 100),
        sctrl_pct=st.integers(0, 100),
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(1, 300),
    )
    def test_random_mixes(self, smem_pct, sctrl_pct, seed, length):
        assume(smem_pct + sctrl_pct <= 100)
        smem, sctrl = smem_pct / 100.0, sctrl_pct / 100.0
        assume(1.0 - smem - sctrl >= 0.0)
        assert_matches_reference(smem, sctrl, seed=seed, length=length)


class TestScalarIPC:
    def test_reasonable_range(self):
        ipc = scalar_ipc(2, 25, 5)
        assert 0.5 < ipc < 2.0

    def test_improves_with_width(self):
        assert scalar_ipc(2, 25, 5) < scalar_ipc(4, 25, 5) <= scalar_ipc(8, 25, 5)

    def test_sublinear_scaling(self):
        """Scalar IPC saturates well below the 4x width growth."""
        assert scalar_ipc(8, 25, 5) / scalar_ipc(2, 25, 5) < 2.5

    def test_cached(self):
        assert scalar_ipc(2, 25, 5) == scalar_ipc(2, 25, 5)


class TestAppTiming:
    def test_composition_adds_up(self):
        profile = run_app_profile("jpegdec")
        t = app_timing(profile, "mmx64", 2)
        assert t.total_cycles == pytest.approx(
            t.scalar_region_cycles + t.kernel_scalar_cycles + t.kernel_vector_cycles
        )
        assert t.scalar_cycles + t.vector_cycles == pytest.approx(t.total_cycles)

    def test_scalar_region_identical_across_isas(self):
        profile = run_app_profile("jpegdec")
        values = {
            isa: app_timing(profile, isa, 2).scalar_region_cycles
            for isa in ("mmx64", "mmx128", "vmmx64", "vmmx128")
        }
        assert len(set(values.values())) == 1

    def test_vmmx_reduces_vector_cycles(self):
        profile = run_app_profile("mpeg2enc")
        mmx = app_timing(profile, "mmx64", 2).vector_cycles
        vmmx = app_timing(profile, "vmmx128", 2).vector_cycles
        assert vmmx < mmx

    def test_wider_machine_never_slower(self):
        profile = run_app_profile("mpeg2dec")
        for isa in ("mmx64", "vmmx128"):
            c2 = app_timing(profile, isa, 2).total_cycles
            c8 = app_timing(profile, isa, 8).total_cycles
            assert c8 < c2

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_every_app_profiles_and_prices(self, app):
        profile = run_app_profile(app)
        assert profile.scalar_instructions > 0
        t = app_timing(profile, "vmmx64", 4)
        assert t.total_cycles > 0


class TestInstructionCounts:
    def test_all_categories_present(self):
        profile = run_app_profile("jpegenc")
        counts = app_instruction_counts(profile, "mmx64")
        assert set(counts) == {"smem", "sarith", "sctrl", "vmem", "varith"}

    def test_scalar_counts_isa_independent(self):
        profile = run_app_profile("jpegenc")
        a = app_instruction_counts(profile, "mmx64")
        b = app_instruction_counts(profile, "vmmx128")
        assert a["smem"] == b["smem"]

    def test_vmmx_reduces_totals(self):
        profile = run_app_profile("mpeg2enc")
        mmx = sum(app_instruction_counts(profile, "mmx64").values())
        vmmx = sum(app_instruction_counts(profile, "vmmx64").values())
        assert vmmx < 0.8 * mmx  # the paper's ~30% reduction claim

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            run_app_profile("quake3")
