"""Oracle suite for the twin rule of the runtime-VL (vla) and tile families.

Neither family has an emulator of its own.  Both run the paper's
binaries unchanged, so their points re-time a fixed-width twin's trace
(:func:`repro.machines.trace_program`): ``vla`` at vector length k runs
its one width-generic MMX binary at width k, which is the trace of the
1-D program of that row width (``mmx64`` at 8, ``mmx128`` at 16), and
``tile`` runs the VMMX128 binary on a deeper (32-row) register file.

The rule rests on two preconditions, each checked here against an
independent oracle machine built by hand:

* vla's one binary: the width-generic MMX binary run on a plain width-k
  MMX machine emits exactly the trace the engine re-times at vl k (and
  ``tests/test_kernels.py`` pins that ``mmx64`` IS ``mmx128``);
* tile's register depth is invisible: no kernel reads ``max_vl``, so a
  VMMX machine with the tile geometry emits VMMX128's trace content.

Also pinned: the twins' trace keys, the ``vl`` point axis (validated,
normalised, and still part of every timing key), batch emulation of the
families' points through their twins, and the emulation count of a cold
regeneration of every artefact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emu import MMXMachine, Memory, Trace, VMMXMachine, make_machine
from repro.emu.batch import (
    REFERENCE_ENV,
    BatchMemory,
    BatchMMXMachine,
    BatchVMMXMachine,
    make_batch_machine,
)
from repro.kernels.base import execute, outputs_equal
from repro.kernels.registry import KERNELS
from repro.machines import (
    ISAS,
    MachineFamily,
    UnknownMachineError,
    find_geometry,
    get_machine,
    register_machine,
    trace_program,
    unregister_machine,
)
from repro.machines.registry import (
    PAPER_MEM_SCALING,
    TILE_GEOMETRY,
    VLA_GEOMETRY,
    VMMX_CORE_SCALING,
)
from repro.sweep import engine
from repro.sweep.engine import trace_key, trace_source
from repro.sweep.points import SweepPoint, point_from_dict
from repro.sweep.store import ResultStore

#: (vla vl, the fixed-width program of that row width).
VL_TWINS = ((8, "mmx64"), (16, "mmx128"))


def _oracle_trace(machine_cls, kernel, version, seed, **machine_args):
    """Run one kernel binary on a hand-built machine, verified.

    The oracle side of every differential here: it bypasses the
    registry, the factories and the engine entirely.
    """
    spec = KERNELS[kernel]
    mem = Memory()
    wl = spec.make_workload(mem, seed)
    trace = Trace(f"{kernel}/oracle")
    returned = spec.versions[version](machine_cls(mem, trace, **machine_args), wl)
    output = returned if spec.returns_scalar else spec.read_output(mem, wl)
    assert outputs_equal(output, spec.expected(wl, version))
    return trace.columns()


def _vla_oracle(kernel, vl, seed=0):
    """The width-generic MMX binary on a plain width-``vl`` machine."""
    return _oracle_trace(MMXMachine, kernel, "mmx128", seed, width=vl)


def _tile_oracle(kernel, seed=0):
    """The VMMX128 binary on a machine with the tile register file."""
    return _oracle_trace(
        VMMXMachine, kernel, "vmmx128", seed, geometry=TILE_GEOMETRY
    )


# ---------------------------------------------------------------------------
# Differential: each family's trace == its oracle machine's trace
# ---------------------------------------------------------------------------


class TestVlaDifferential:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("vl,twin", VL_TWINS)
    def test_vla_trace_content_equals_fixed_width_twin(self, kernel, vl, twin):
        point = SweepPoint(kernel=kernel, version="vla", way=2, vl=vl)
        assert trace_source(point) == (kernel, twin, 0)
        assert trace_key(point) == trace_key(
            SweepPoint(kernel=kernel, version=twin, way=2)
        )
        cols = engine.acquire_trace(point, store=None)
        assert cols.content_digest() == _vla_oracle(kernel, vl).content_digest()

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_tile_trace_content_equals_vmmx128(self, kernel):
        point = SweepPoint(kernel=kernel, version="tile", way=2)
        assert trace_source(point) == (kernel, "vmmx128", 0)
        assert trace_key(point) == trace_key(
            SweepPoint(kernel=kernel, version="vmmx128", way=2)
        )
        ref = execute(KERNELS[kernel], "vmmx128", seed=0)
        assert ref.correct
        assert (
            _tile_oracle(kernel).content_digest()
            == ref.trace.columns().content_digest()
        )

    @settings(max_examples=25, deadline=None)
    @given(
        kernel=st.sampled_from(sorted(KERNELS)),
        vl_twin=st.sampled_from(VL_TWINS),
        seed=st.integers(0, 20),
    )
    def test_vla_twin_equality_over_random_seeds(self, kernel, vl_twin, seed):
        vl, _ = vl_twin
        point = SweepPoint(kernel=kernel, version="vla", way=2, seed=seed, vl=vl)
        cols = engine.acquire_trace(point, store=None)
        assert cols.content_digest() == _vla_oracle(kernel, vl, seed).content_digest()

    @settings(max_examples=25, deadline=None)
    @given(kernel=st.sampled_from(sorted(KERNELS)), seed=st.integers(0, 20))
    def test_tile_twin_equality_over_random_seeds(self, kernel, seed):
        point = SweepPoint(kernel=kernel, version="tile", way=2, seed=seed)
        cols = engine.acquire_trace(point, store=None)
        assert cols.content_digest() == _tile_oracle(kernel, seed).content_digest()

    def test_vla_defaults_to_maximum_vl(self):
        default = SweepPoint(kernel="addblock", version="vla", way=2)
        explicit = SweepPoint(kernel="addblock", version="vla", way=2, vl=16)
        assert trace_source(default) == trace_source(explicit)
        assert trace_source(default) == ("addblock", "mmx128", 0)

    def test_content_digest_neutralises_only_the_name(self):
        tile = _tile_oracle("addblock")
        ref = execute(KERNELS["addblock"], "vmmx128", seed=0).trace.columns()
        # Full digests differ (the name is part of the store payload)...
        assert tile.digest() != ref.digest()
        # ...content digests agree, and two identical runs agree on both.
        assert tile.content_digest() == ref.content_digest()
        assert _tile_oracle("addblock").digest() == tile.digest()


# ---------------------------------------------------------------------------
# Batch emulation: the families' points batch through their twins
# ---------------------------------------------------------------------------


class TestBatchCoverage:
    CASES = (("vla", 8), ("vla", 16), ("tile", None))

    @staticmethod
    def _points(version, vl, kernel="ycc", seeds=(0, 1, 2)):
        return [
            SweepPoint(kernel=kernel, version=version, way=2, seed=seed, vl=vl)
            for seed in seeds
        ]

    @pytest.mark.parametrize("version,vl", CASES)
    def test_batch_digests_match_reference(self, version, vl, tmp_path, monkeypatch):
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
        store = ResultStore(tmp_path)
        points = self._points(version, vl)
        assert engine.acquire_traces(points, store) == len(points)
        traces = [engine.acquire_trace(p, store) for p in points]
        assert len({id(t) for t in traces}) == 1, "batch path must engage"
        _, twin, _ = trace_source(points[0])
        for point, cols in zip(points, traces):
            ref = execute(KERNELS["ycc"], twin, point.seed)
            assert ref.correct
            assert cols.digest() == ref.trace.columns().digest()
            assert store.load(trace_key(point)) is not None

    @pytest.mark.parametrize("version,vl", CASES)
    def test_reference_gate_disables_batching(self, version, vl, tmp_path, monkeypatch):
        monkeypatch.setenv(REFERENCE_ENV, "1")
        store = ResultStore(tmp_path)
        points = self._points(version, vl, seeds=(0, 1))
        assert engine.acquire_traces(points, store) == 2
        assert len({id(engine.acquire_trace(p, store)) for p in points}) == 2

    def test_divergent_kernel_falls_back_per_seed(self, tmp_path):
        """ltppar diverges across seeds on its twin, so on vla too."""
        store = ResultStore(tmp_path)
        points = self._points("vla", 8, kernel="ltppar")
        assert engine.acquire_traces(points, store) == 3
        assert len({id(engine.acquire_trace(p, store)) for p in points}) == 3

    def test_twin_points_share_one_emulation(self, tmp_path):
        """A family's points and its twin's points fill one trace each."""
        store = ResultStore(tmp_path)
        points = self._points("tile", None) + self._points("vmmx128", None)
        assert engine.acquire_traces(points, store) == 3


# ---------------------------------------------------------------------------
# Machine construction and the registry's twin declarations
# ---------------------------------------------------------------------------


class TestMachineConstruction:
    def test_factory_dispatches_on_registry_capability(self):
        """Factories build the twin program's machine, by ``matrix``."""
        vla = make_machine("vla", Memory())
        tile = make_machine("tile", Memory())
        assert type(vla) is MMXMachine
        assert vla.geometry == find_geometry("mmx128")
        assert type(tile) is VMMXMachine
        assert tile.geometry == find_geometry("vmmx128")
        assert type(make_batch_machine("vla", BatchMemory(2))) is BatchMMXMachine
        assert type(make_batch_machine("tile", BatchMemory(2))) is BatchVMMXMachine

    def test_registry_flags(self):
        assert VLA_GEOMETRY.runtime_vl and not VLA_GEOMETRY.matrix
        assert TILE_GEOMETRY.matrix and not TILE_GEOMETRY.runtime_vl
        assert get_machine("vla", 4).runtime_vl
        assert not get_machine("tile", 4).runtime_vl
        assert not get_machine("mmx128", 4).runtime_vl
        assert get_machine("tile", 4).geometry.max_vl == 32

    @pytest.mark.parametrize("vl", [0, 1, 4, 7, 12, 32, "8", 8.0, True])
    def test_vla_rejects_bad_vl(self, vl):
        """A vl that is no 1-D program's row width names nothing to run."""
        with pytest.raises(ValueError):
            trace_program("vla", vl)

    def test_vla_machine_width_is_the_vl(self):
        """vla at vl runs on the 1-D program whose row width is vl."""
        for vl in (8, 16):
            assert find_geometry(trace_program("vla", vl)).row_bytes == vl
        assert trace_program("vla") == trace_program("vla", VLA_GEOMETRY.row_bytes)
        with pytest.raises(ValueError, match="vl=32"):
            trace_program("vla", 32)

    def test_trace_program_of_every_other_name(self):
        for isa in ISAS:
            assert trace_program(isa) == isa
        assert trace_program("mmx256") == "mmx128"
        assert trace_program("vmmx256") == "vmmx128"
        assert trace_program("scalar") == "scalar"

    def test_twin_must_be_an_architected_program(self):
        def family(twin):
            return MachineFamily(
                name="tile-test", geometry=TILE_GEOMETRY,
                core_scaling=VMMX_CORE_SCALING, mem_scaling=PAPER_MEM_SCALING,
                twin=twin,
            )

        with pytest.raises(UnknownMachineError):
            register_machine(family("no-such-program"))
        with pytest.raises(ValueError, match="alias"):
            register_machine(family("vmmx256"))
        with pytest.raises(ValueError, match="program or twin of .*tile"):
            unregister_machine("vmmx128")


# ---------------------------------------------------------------------------
# The vl point axis
# ---------------------------------------------------------------------------


class TestVlAxis:
    def test_vla_point_normalises_and_roundtrips(self):
        p = SweepPoint(kernel="addblock", version="vla", way=2)
        assert p.vl == 16, "runtime-VL points normalise vl to the maximum"
        assert p.as_dict()["vl"] == 16
        assert "vl16" in SweepPoint(
            kernel="addblock", version="vla", way=2, vl=16
        ).label
        assert point_from_dict(p.as_dict()) == p

    def test_fixed_width_point_rejects_vl_naming_axis(self):
        with pytest.raises(ValueError, match="'vl' axis"):
            SweepPoint(kernel="addblock", version="mmx128", way=2, vl=8)

    @pytest.mark.parametrize("vl", [0, 3, 32, True])
    def test_vla_point_rejects_bad_vl(self, vl):
        with pytest.raises(ValueError):
            SweepPoint(kernel="addblock", version="vla", way=2, vl=vl)

    def test_legacy_points_have_no_vl_key(self):
        data = SweepPoint(kernel="addblock", version="mmx128", way=2).as_dict()
        assert "vl" not in data, "legacy identities must stay byte-stable"

    def test_trace_key_grows_the_axis_for_vla_only(self):
        """vl picks vla's twin, so it separates trace keys; way never does."""
        vl8 = SweepPoint(kernel="addblock", version="vla", way=2, vl=8)
        vl16 = SweepPoint(kernel="addblock", version="vla", way=2, vl=16)
        assert trace_key(vl8) != trace_key(vl16)
        assert trace_key(vl8) == trace_key(
            SweepPoint(kernel="addblock", version="vla", way=8, vl=8)
        )

    def test_fixed_width_trace_identity_unchanged_in_shape(self):
        """The identity dict of a fixed-width trace must not mention vl."""
        from repro.sweep.store import record_key

        point = SweepPoint(kernel="addblock", version="mmx128", way=2)
        expected = record_key("trace", {
            "kernel": "addblock",
            "version": "mmx128",
            "seed": 0,
            "geometry": find_geometry("mmx128").to_dict(),
        })
        assert trace_key(point) == expected


# ---------------------------------------------------------------------------
# fig4v / fig5v grids, and what regenerating every artefact emulates
# ---------------------------------------------------------------------------


class TestExtendedArtifacts:
    def test_fig4v_grid_covers_all_columns(self):
        from repro.experiments.extended import VLA_TILE_COLUMNS, fig4v_points

        points = fig4v_points()
        assert len(points) == len(set(points))
        versions = {(p.version, p.vl) for p in points}
        for version, vl, _ in VLA_TILE_COLUMNS:
            normalised = 16 if version == "vla" and vl is None else vl
            assert (version, normalised) in versions

    def test_fig5v_grid_is_pure_and_deduplicated(self):
        from repro.experiments.extended import fig5v_points

        a = fig5v_points()
        b = fig5v_points()
        assert a == b
        assert len(a) == len(set(a))
        assert any(p.version == "vla" for p in a)
        assert any(p.version == "tile" for p in a)

    def test_cold_regeneration_emulates_44_traces(self, tmp_path, monkeypatch):
        """11 kernels x the 4 fixed-width programs; vla and tile add none."""
        from repro.experiments import ARTIFACT_DATA, artifact_json
        from repro.sweep import clear_memory_caches, emulation_count

        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        clear_memory_caches()
        before = emulation_count()
        for name in ARTIFACT_DATA:
            artifact_json(name)
        assert len(ARTIFACT_DATA) == 12
        assert emulation_count() - before == 44
        clear_memory_caches()
