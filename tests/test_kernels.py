"""Cross-version correctness and structural tests for all kernels.

The central invariant of the reproduction: every ISA version of every
kernel computes the golden reference bit-exactly (with the two documented
exceptions -- the MMX halved-SAD idiom of Fig. 3(b)/(d), which has its
own exact golden plus a bounded distance from the true SAD).
"""

import numpy as np
import pytest

from repro.isa.opcodes import Category
from repro.kernels.base import execute
from repro.kernels.motion import golden_sad
from repro.kernels.registry import APP_KERNELS, FIG4_KERNELS, KERNELS

ALL_VERSIONS = ("scalar", "mmx64", "mmx128", "vmmx64", "vmmx128")
SIMD_VERSIONS = ("mmx64", "mmx128", "vmmx64", "vmmx128")

CASES = [
    (name, version) for name in KERNELS for version in ALL_VERSIONS
]


@pytest.mark.parametrize("name,version", CASES)
def test_version_matches_golden(name, version):
    run = execute(KERNELS[name], version, seed=11)
    assert run.correct, f"{name}/{version} diverged from its golden reference"


@pytest.mark.parametrize("name", list(KERNELS))
def test_second_seed(name):
    for version in ("scalar", "mmx128", "vmmx128"):
        run = execute(KERNELS[name], version, seed=29)
        assert run.correct


class TestRegistry:
    def test_fig4_kernels_all_registered(self):
        for name in FIG4_KERNELS:
            assert name in KERNELS

    def test_eleven_kernels(self):
        assert len(KERNELS) == 11  # 10 of Fig. 4 + fdct

    def test_every_kernel_has_five_versions(self):
        for spec in KERNELS.values():
            assert set(spec.versions) == set(ALL_VERSIONS)

    def test_vla_and_tile_share_the_width_generic_programs(self):
        """vla's one-binary precondition: the mmx64 program IS the mmx128
        one, so vla at each vl re-times that width's program's trace
        (tile's twin, vmmx128, is pinned in tests/test_vla_machine.py)."""
        for spec in KERNELS.values():
            assert spec.versions["mmx64"] is spec.versions["mmx128"]

    def test_app_kernel_map_matches_table2(self):
        assert APP_KERNELS["jpegenc"] == ("rgb", "fdct")
        assert APP_KERNELS["jpegdec"] == ("h2v2", "ycc")
        assert set(APP_KERNELS["mpeg2enc"]) == {"motion1", "motion2", "idct", "fdct"}
        assert set(APP_KERNELS["mpeg2dec"]) == {"comp", "addblock", "idct"}
        assert APP_KERNELS["gsmenc"] == ("ltppar",)
        assert APP_KERNELS["gsmdec"] == ("ltpfilt",)

    def test_kernel_apps_exist(self):
        for spec in KERNELS.values():
            assert spec.app in APP_KERNELS


class TestInstructionCounts:
    """The paper's structural claims about dynamic instruction counts."""

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_vmmx_executes_fewer_instructions_than_mmx(self, name):
        mmx = len(execute(KERNELS[name], "mmx64", seed=5).trace)
        vmmx = len(execute(KERNELS[name], "vmmx64", seed=5).trace)
        assert vmmx < mmx

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_scalar_executes_most_instructions(self, name):
        scalar = len(execute(KERNELS[name], "scalar", seed=5).trace)
        for version in SIMD_VERSIONS:
            assert len(execute(KERNELS[name], version, seed=5).trace) < scalar

    @pytest.mark.parametrize("name", ["idct", "fdct", "motion1", "ycc", "ltpfilt"])
    def test_mmx128_fewer_than_mmx64(self, name):
        m64 = len(execute(KERNELS[name], "mmx64", seed=5).trace)
        m128 = len(execute(KERNELS[name], "mmx128", seed=5).trace)
        assert m128 < m64

    @pytest.mark.parametrize("name", ["ltppar", "h2v2"])
    def test_width_insensitive_vmmx_kernels(self, name):
        """ltppar/h2v2 keep the same instruction count from VMMX64 to
        VMMX128 (short segments / full-row formulation): the paper's
        explanation for their flat speed-up."""
        v64 = len(execute(KERNELS[name], "vmmx64", seed=5).trace)
        v128 = len(execute(KERNELS[name], "vmmx128", seed=5).trace)
        assert v64 == v128

    def test_motion1_vmmx128_is_tiny(self):
        """Fig. 3(e): the whole 16x16 SAD collapses to a handful of
        instructions per block."""
        run = execute(KERNELS["motion1"], "vmmx128", seed=5)
        per_block = len(run.trace) / KERNELS["motion1"].batch
        assert per_block < 10

    def test_scalar_versions_use_no_vector_categories(self):
        for name in ("motion1", "idct", "ycc"):
            run = execute(KERNELS[name], "scalar", seed=5)
            assert run.trace.counts[Category.VMEM] == 0
            assert run.trace.counts[Category.VARITH] == 0

    def test_simd_versions_use_vector_memory(self):
        for name in ("motion1", "idct", "ycc"):
            for version in SIMD_VERSIONS:
                run = execute(KERNELS[name], version, seed=5)
                assert run.trace.counts[Category.VMEM] > 0


class TestMotionIdiom:
    def test_mmx_halved_sad_error_bounded(self):
        """|halved - exact| <= 1 per pixel (the paper's <<1 compensation)."""
        spec = KERNELS["motion1"]
        run = execute(spec, "mmx64", seed=13)
        exact = golden_sad(run.workload)
        pixels = 16 * 16
        for got, want in zip(run.output, exact):
            assert abs(got - want) <= pixels

    def test_mmx64_and_mmx128_agree(self):
        spec = KERNELS["motion1"]
        a = execute(spec, "mmx64", seed=13).output
        b = execute(spec, "mmx128", seed=13).output
        assert a == b

    def test_vmmx_sad_is_exact(self):
        spec = KERNELS["motion1"]
        run = execute(spec, "vmmx128", seed=13)
        assert run.output == golden_sad(run.workload)

    def test_motion2_exact_everywhere(self):
        spec = KERNELS["motion2"]
        outputs = [execute(spec, v, seed=13).output for v in ALL_VERSIONS]
        assert all(out == outputs[0] for out in outputs)


class TestVectorLengths:
    """Vector-length structure claimed by the paper per kernel."""

    def _max_rows(self, name, version):
        run = execute(KERNELS[name], version, seed=3)
        return max(r.rows for r in run.trace.records)

    def test_motion_uses_full_vl(self):
        assert self._max_rows("motion1", "vmmx128") == 16

    def test_ltppar_vl_shrinks_with_width(self):
        """40 16-bit samples: VL=10 on VMMX64, VL=5 on VMMX128."""
        assert self._max_rows("ltppar", "vmmx64") == 10
        assert self._max_rows("ltppar", "vmmx128") == 5

    def test_dct_uses_vl_8(self):
        assert self._max_rows("idct", "vmmx128") == 8

    def test_comp_short_vl(self):
        assert self._max_rows("comp", "vmmx64") == 4
