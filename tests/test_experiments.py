"""Headline-result tests: the paper's claims must hold in our data.

These are the reproduction's acceptance tests -- each asserts one of the
qualitative findings of the paper's evaluation section against the
regenerated tables and figures.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig4_data,
    fig5_data,
    fig6_data,
    fig7_data,
    table1_data,
    table2_data,
    table3_data,
    table4_data,
)
from repro.apps import app_timing, run_app_profile
from repro.experiments.figures import ISA_COLUMNS, kernel_speedups, report_lookup
from repro.kernels.registry import FIG4_KERNELS
from repro.sweep import SweepPoint, fig4_points, simulation_count, sweep


@pytest.fixture(scope="module")
def fig4():
    return fig4_data()


@pytest.fixture(scope="module")
def fig5():
    return fig5_data()


@pytest.fixture(scope="module")
def fig6():
    return fig6_data()


@pytest.fixture(scope="module")
def fig7():
    return fig7_data()


class TestHarness:
    def test_all_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4",
            "fig4", "fig5", "fig6", "fig7",
            "fig4x", "fig5x", "fig4v", "fig5v",
        }

    def test_tables_render(self):
        for name in ("table1", "table2", "table3", "table4"):
            text = EXPERIMENTS[name]()
            assert "Table" in text and len(text.splitlines()) > 5

    def test_table2_covers_all_kernels(self):
        assert len(table2_data()) == 11

    def test_table3_lists_all_isas(self):
        assert set(table3_data()) == {"mmx64", "mmx128", "vmmx64", "vmmx128"}

    def test_table4_has_three_levels(self):
        assert len(table4_data()) == 3

    def test_table1_has_eight_rows(self):
        assert len(table1_data()) == 8


class TestComposeFromTheReport:
    """A figure reads its timings from its own sweep's report alone."""

    def test_a_point_outside_the_grid_raises_key_error(self, fig4):
        baseline = SweepPoint("idct", "mmx64", 2)
        points = fig4_points()
        assert baseline in points
        sims = simulation_count()
        with pytest.raises(KeyError):
            kernel_speedups([p for p in points if p != baseline], ISA_COLUMNS, 2)
        assert simulation_count() == sims

    def test_an_app_kernel_outside_the_report_raises_key_error(self, fig4):
        lookup = report_lookup(sweep([SweepPoint("h2v2", "mmx64", 2)]))
        profile = run_app_profile("jpegdec")  # h2v2 and ycc
        sims = simulation_count()
        with pytest.raises(KeyError):
            app_timing(profile, "mmx64", 2, lookup)
        assert simulation_count() == sims


class TestFig4Claims:
    """§IV-A: kernel speed-ups on the 2-way machine."""

    def test_all_fig4_kernels_present(self, fig4):
        for kernel in FIG4_KERNELS:
            assert kernel in fig4

    def test_baseline_normalised(self, fig4):
        for kernel in FIG4_KERNELS:
            assert fig4[kernel]["mmx64"] == pytest.approx(1.0)

    def test_vmmx128_wins_every_kernel(self, fig4):
        for kernel in FIG4_KERNELS:
            row = fig4[kernel]
            assert row["vmmx128"] >= row["mmx64"]
            assert row["vmmx128"] >= row["mmx128"] * 0.95

    def test_vmmx128_at_least_vmmx64(self, fig4):
        for kernel in FIG4_KERNELS:
            assert fig4[kernel]["vmmx128"] >= fig4[kernel]["vmmx64"] * 0.99

    def test_mmx128_gains_are_modest(self, fig4):
        """Scaling MMX64->MMX128 'does not result in great performance
        increment' (max 1.47x in the paper)."""
        for kernel in FIG4_KERNELS:
            assert fig4[kernel]["mmx128"] < 2.2

    def test_idct_is_the_best_vmmx_kernel(self, fig4):
        best = max(FIG4_KERNELS, key=lambda k: fig4[k]["vmmx128"])
        assert best == "idct"

    def test_idct_speedup_magnitude(self, fig4):
        """Paper: 4.10x. Accept the right regime (>3x, <9x)."""
        assert 3.0 < fig4["idct"]["vmmx128"] < 9.0

    def test_motion_speedup_magnitude(self, fig4):
        """Paper: 2.29x for motion1."""
        assert 1.8 < fig4["motion1"]["vmmx128"] < 4.5

    def test_ltppar_insensitive_to_matrix_width(self, fig4):
        """Short segments limit VMMX64->VMMX128 gains (paper §IV-A)."""
        delta = fig4["ltppar"]["vmmx128"] - fig4["ltppar"]["vmmx64"]
        assert delta < 0.25

    def test_addblock_insensitive_to_matrix_width(self, fig4):
        delta = fig4["addblock"]["vmmx128"] - fig4["addblock"]["vmmx64"]
        assert delta < 0.5

    def test_comp_small_everywhere(self, fig4):
        """8x4 blocks fill a small fraction of the matrix registers."""
        assert fig4["comp"]["vmmx128"] < 1.8
        assert fig4["comp"]["mmx128"] < 1.2


class TestFig5Claims:
    """§IV-B: full-application speed-ups."""

    APPS = ("jpegenc", "jpegdec", "mpeg2enc", "mpeg2dec", "gsmenc", "gsmdec")

    def test_all_apps_and_average(self, fig5):
        for app in self.APPS + ("average",):
            assert app in fig5
            assert set(fig5[app]) == {2, 4, 8}

    def test_mpeg2enc_benefits_most(self, fig5):
        for way in (2, 4, 8):
            best = max(self.APPS, key=lambda a: fig5[a][way]["vmmx128"])
            assert best == "mpeg2enc"

    def test_mpeg2enc_vmmx128_magnitude(self, fig5):
        """Paper: speed-ups up to ~3.3x for complete applications."""
        assert fig5["mpeg2enc"][8]["vmmx128"] > 3.0

    def test_jpegenc_crossover_at_8way(self, fig5):
        """Paper: VMMX64 beats MMX at 2/4-way, loses to MMX128 at 8-way
        (the rgb kernel's short colour-space vectors)."""
        assert fig5["jpegenc"][2]["vmmx64"] > fig5["jpegenc"][2]["mmx128"]
        assert fig5["jpegenc"][8]["mmx128"] > fig5["jpegenc"][8]["vmmx64"]

    def test_vmmx128_overcomes_rgb_limitation(self, fig5):
        assert fig5["jpegenc"][8]["vmmx128"] >= fig5["jpegenc"][8]["vmmx64"]

    def test_simpler_vmmx_matches_wider_mmx(self, fig5):
        """Paper: 4-way VMMX delivers what 8-way MMX needs (jpegenc,
        mpeg2dec); scaling a simpler processor's 2-D file is more
        effective than scaling all resources of a 1-D one."""
        assert fig5["mpeg2dec"][4]["vmmx128"] >= fig5["mpeg2dec"][8]["mmx64"] * 0.95
        assert fig5["mpeg2enc"][4]["vmmx128"] >= fig5["mpeg2enc"][8]["mmx64"] * 0.95

    def test_gsm_nearly_flat_across_isas(self, fig5):
        """<10-20% parallelisable -> extensions barely matter."""
        for app in ("gsmenc", "gsmdec"):
            for way in (2, 4, 8):
                row = fig5[app][way]
                assert row["vmmx128"] / row["mmx64"] < 1.25

    def test_average_orders_isas(self, fig5):
        for way in (2, 4, 8):
            row = fig5["average"][way]
            assert row["vmmx128"] > row["mmx64"]
            assert row["vmmx128"] >= row["vmmx64"] * 0.99


class TestFig6Claims:
    """§IV-C: jpegdec cycle breakdown."""

    def test_baseline_is_100(self, fig6):
        assert fig6[2]["mmx64"]["total"] == pytest.approx(100.0)

    def test_vector_cycles_shrink_with_isa(self, fig6):
        for way in (2, 4, 8):
            row = fig6[way]
            assert row["vmmx128"]["vector"] < row["mmx64"]["vector"]

    def test_scalar_cycles_isa_invariant(self, fig6):
        for way in (2, 4, 8):
            values = [fig6[way][isa]["scalar"] for isa in fig6[way]]
            assert max(values) - min(values) < 0.05 * max(values)

    def test_scalar_cycles_shrink_with_way(self, fig6):
        assert fig6[8]["mmx64"]["scalar"] < fig6[4]["mmx64"]["scalar"]
        assert fig6[4]["mmx64"]["scalar"] < fig6[2]["mmx64"]["scalar"]

    def test_vector_reduction_magnitude(self, fig6):
        """Paper: 85% vector-cycle reduction for 2-way VMMX128."""
        reduction = 1.0 - fig6[2]["vmmx128"]["vector"] / fig6[2]["mmx64"]["vector"]
        assert reduction > 0.6

    def test_8way_vmmx128_vector_share_small(self, fig6):
        """Paper: 2.7%; Amdahl has taken over."""
        cell = fig6[8]["vmmx128"]
        assert cell["vector"] / cell["total"] < 0.12


class TestFig7Claims:
    """§IV-D: dynamic instruction counts."""

    APPS = ("jpegenc", "jpegdec", "mpeg2enc", "mpeg2dec", "gsmenc", "gsmdec")

    def test_mmx64_normalised_to_100(self, fig7):
        for app in self.APPS:
            assert fig7[app]["mmx64"]["total"] == pytest.approx(100.0)

    def test_vmmx_executes_about_30_percent_fewer(self, fig7):
        average = sum(fig7[a]["vmmx128"]["total"] for a in self.APPS) / len(self.APPS)
        assert 55 <= average <= 80

    def test_mmx128_executes_about_15_percent_fewer(self, fig7):
        average = sum(fig7[a]["mmx128"]["total"] for a in self.APPS) / len(self.APPS)
        assert 78 <= average <= 92

    def test_mpeg2enc_largest_reduction(self, fig7):
        reductions = {
            app: 100.0 - fig7[app]["vmmx128"]["total"] for app in self.APPS
        }
        assert max(reductions, key=reductions.get) == "mpeg2enc"

    def test_scalar_categories_isa_invariant(self, fig7):
        for app in self.APPS:
            smem = {isa: fig7[app][isa]["smem"] for isa in fig7[app]}
            assert max(smem.values()) == pytest.approx(min(smem.values()))

    def test_vector_instructions_shrink_with_vmmx(self, fig7):
        for app in ("jpegenc", "mpeg2enc", "mpeg2dec"):
            mmx_vec = fig7[app]["mmx64"]["vmem"] + fig7[app]["mmx64"]["varith"]
            vmmx_vec = fig7[app]["vmmx128"]["vmem"] + fig7[app]["vmmx128"]["varith"]
            assert vmmx_vec < 0.25 * mmx_vec
