"""MachineSpec registry, scaling, serialisation and paper constants."""

import dataclasses
import json
import pathlib

import pytest

from repro.machines import (
    CoreScaling,
    DuplicateMachineError,
    MachineFamily,
    MachineSpec,
    MemScaling,
    ScalingCurve,
    SimdGeometry,
    UnknownMachineError,
    get_machine,
    json_roundtrip,
    machine_names,
    paper_machines,
    program_of,
    register_machine,
    registered_machines,
    unregister_machine,
)
from repro.machines import ISAS, WAYS
from repro.machines.registry import MMX_CORE_SCALING, PAPER_MEM_SCALING

MANIFEST = pathlib.Path(__file__).parent / "machine_manifest.json"


class TestScalingCurve:
    def test_exact_at_anchors(self):
        curve = ScalingCurve.at_ways({2: 1, 4: 2, 8: 3})
        assert [curve.at_int(w) for w in (2, 4, 8)] == [1, 2, 3]

    def test_geometric_extrapolation(self):
        rob = ScalingCurve.at_ways({2: 64, 4: 128, 8: 256})
        assert rob.at_int(16) == 512
        assert rob.at_int(32) == 1024

    def test_interpolation_between_anchors(self):
        ports = ScalingCurve.at_ways({2: 1, 4: 1, 8: 2})
        assert ports.at_int(3) == 1
        assert ports.at_int(16) == 4

    def test_proportional(self):
        curve = ScalingCurve.proportional()
        assert [curve.at_int(w) for w in (2, 4, 8, 16)] == [2, 4, 8, 16]

    def test_constant(self):
        curve = ScalingCurve.constant(7)
        assert curve.at_int(2) == curve.at_int(64) == 7

    def test_float_curve(self):
        strided = ScalingCurve.at_ways({2: 1.0, 4: 2.0, 8: 4.0}, integer=False)
        assert strided.at(16) == pytest.approx(8.0)

    def test_invalid_way_rejected(self):
        curve = ScalingCurve.constant(1)
        with pytest.raises(ValueError):
            curve.at(0)
        with pytest.raises(ValueError):
            curve.at(2.5)

    def test_invalid_anchors_rejected(self):
        with pytest.raises(ValueError):
            ScalingCurve(anchors=())
        with pytest.raises(ValueError):
            ScalingCurve(anchors=((4, 1.0), (2, 2.0)))
        with pytest.raises(ValueError):
            ScalingCurve(anchors=((2, 0.0),))


class TestPaperConstants:
    """ISAS/WAYS are registry-derived and back the top-level CONFIGS."""

    def test_paper_axes(self):
        assert ISAS == ("mmx64", "mmx128", "vmmx64", "vmmx128")
        assert WAYS == (2, 4, 8)

    def test_axes_enumerate_the_paper_machines(self):
        assert [(s.name, s.way) for s in paper_machines()] == [
            (isa, way) for isa in ISAS for way in WAYS
        ]

    def test_top_level_configs_backed_by_registry(self):
        import repro

        configs = repro.CONFIGS
        assert len(configs) == 12
        for (isa, way), config in configs.items():
            assert config is get_machine(isa, way).core

    def test_unknown_machine_error(self):
        with pytest.raises(KeyError, match="no registered machine"):
            get_machine("sse4", 2)


class TestRegistry:
    def test_at_least_sixteen_registered(self):
        assert len(registered_machines()) >= 16

    def test_twelve_paper_machines(self):
        assert len(paper_machines()) == 12

    def test_unknown_name_message(self):
        with pytest.raises(UnknownMachineError, match="no registered machine"):
            get_machine("avx512", 2)
        with pytest.raises(KeyError):  # subclass keeps legacy handling
            get_machine("avx512", 2)

    def test_bad_way_message(self):
        with pytest.raises(KeyError, match="positive integer"):
            get_machine("mmx64", 0)

    def test_collision_rejected(self):
        family = MachineFamily(
            name="mmx64",
            geometry=SimdGeometry(8, 1, 1, 32, False),
            core_scaling=MMX_CORE_SCALING,
            mem_scaling=PAPER_MEM_SCALING,
        )
        with pytest.raises(DuplicateMachineError, match="already registered"):
            register_machine(family)

    def test_register_and_unregister_custom(self):
        family = MachineFamily(
            name="mmx64-test-variant",
            program="mmx64",
            geometry=SimdGeometry(8, 1, 1, 32, False),
            core_scaling=MMX_CORE_SCALING,
            mem_scaling=PAPER_MEM_SCALING,
            ways=(2,),
        )
        register_machine(family)
        try:
            spec = get_machine("mmx64-test-variant", 2)
            assert spec.program == "mmx64"
            assert program_of("mmx64-test-variant") == "mmx64"
        finally:
            unregister_machine("mmx64-test-variant")
        assert "mmx64-test-variant" not in machine_names()

    def test_alias_of_alias_rejected(self):
        family = MachineFamily(
            name="mmx512-test",
            program="mmx256",  # itself an alias of mmx128
            geometry=SimdGeometry(64, 1, 1, 32, False),
            core_scaling=MMX_CORE_SCALING,
            mem_scaling=PAPER_MEM_SCALING,
        )
        with pytest.raises(ValueError, match="alias"):
            register_machine(family)

    def test_program_resolution(self):
        assert program_of("mmx256") == "mmx128"
        assert program_of("vmmx256") == "vmmx128"
        assert program_of("mmx64") == "mmx64"
        assert program_of("not-registered") == "not-registered"

    def test_beyond_table_widths_derive(self):
        spec = get_machine("vmmx128", 16)
        assert spec.core.rob_size == 512
        assert spec.core.fetch_width == 16
        assert spec.mem.l2.port_bytes == 128
        assert spec.mem.strided_rows_per_cycle == pytest.approx(8.0)

    def test_vmmx256_geometry(self):
        spec = get_machine("vmmx256", 4)
        assert spec.geometry.lanes == 8
        assert spec.geometry.row_bytes == 32
        assert spec.geometry.matrix
        assert spec.core.lanes == 8


class TestSpecSerialisation:
    @pytest.mark.parametrize(
        "label", [spec.label for spec in registered_machines()]
    )
    def test_json_roundtrip_every_machine(self, label):
        spec = next(s for s in registered_machines() if s.label == label)
        rebuilt = json_roundtrip(spec)
        assert rebuilt == spec
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_from_dict_standalone(self):
        payload = json.loads(json.dumps(get_machine("mmx256", 4).to_dict()))
        spec = MachineSpec.from_dict(payload)
        assert spec.name == "mmx256"
        assert spec.core.way == 4
        assert spec.geometry.row_bits == 256

    def test_fingerprint_ignores_description(self):
        spec = get_machine("mmx64", 2)
        renamed = dataclasses.replace(spec, description="different prose")
        assert renamed.fingerprint() == spec.fingerprint()

    def test_fingerprint_sees_resources(self):
        spec = get_machine("mmx64", 2)
        tweaked = dataclasses.replace(
            spec, core=dataclasses.replace(spec.core, rob_size=1)
        )
        assert tweaked.fingerprint() != spec.fingerprint()

    def test_config_fingerprint_matches_store(self):
        from repro.sweep.store import config_fingerprint

        for spec in registered_machines():
            assert spec.config_fingerprint() == config_fingerprint(
                spec.core, spec.mem
            )


class TestConfigDicts:
    """The field-walk ``*_to_dict`` helpers equal ``dataclasses.asdict``."""

    @staticmethod
    def _assert_walk_equals_asdict(core, mem):
        from repro.machines.spec import core_config_to_dict, mem_config_to_dict

        for got, want in (
            (core_config_to_dict(core), dataclasses.asdict(core)),
            (mem_config_to_dict(mem), dataclasses.asdict(mem)),
        ):
            assert got == want
            assert list(got) == list(want)
            # Equal values of another type (4 vs 4.0) hash apart.
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("name", machine_names())
    def test_every_machine_every_way(self, name):
        for way in range(1, 17):
            spec = get_machine(name, way)
            self._assert_walk_equals_asdict(spec.core, spec.mem)

    @pytest.mark.parametrize(
        "core_overrides, mem_overrides",
        [
            ({"lanes": 4.0}, {}),
            ({"lanes": 4, "mem_ports": 3}, {}),
            ({}, {"l1.assoc": 8}),
            ({"rob_size": 96}, {"l2.latency": 20, "main_latency": 300}),
            ({}, {"strided_rows_per_cycle": 2}),
        ],
    )
    def test_overridden_configs(self, core_overrides, mem_overrides):
        from repro.sweep.engine import resolve_configs
        from repro.sweep.points import SweepPoint

        point = SweepPoint(
            kernel="idct", version="vmmx128", way=4,
            core_overrides=core_overrides, mem_overrides=mem_overrides,
        )
        self._assert_walk_equals_asdict(*resolve_configs(point))


class TestManifest:
    """The checked-in fingerprint manifest matches the live registry."""

    def test_manifest_current(self):
        manifest = json.loads(MANIFEST.read_text())
        live = {spec.label: spec.fingerprint() for spec in registered_machines()}
        assert manifest["machines"] == live, (
            "registered machines drifted from tests/machine_manifest.json; "
            "regenerate with: python -m repro machines --write-manifest"
        )


class TestStoreKeyStability:
    """Legacy (isa, way) points keep their exact identity."""

    def test_legacy_as_dict_shape(self):
        from repro.sweep.points import SweepPoint

        point = SweepPoint(kernel="idct", version="mmx128", way=2)
        assert point.as_dict() == {
            "kernel": "idct",
            "version": "mmx128",
            "way": 2,
            "seed": 0,
            "core_overrides": [],
            "mem_overrides": [],
        }

    def test_self_machine_normalises_to_legacy(self):
        from repro.sweep.engine import point_key
        from repro.sweep.points import SweepPoint

        legacy = SweepPoint(kernel="idct", version="mmx128", way=2)
        explicit = SweepPoint(
            kernel="idct", version="mmx128", way=2, machine="mmx128"
        )
        assert explicit == legacy
        assert explicit.machine is None
        assert point_key(explicit) == point_key(legacy)

    def test_machine_axis_distinct_key(self):
        from repro.sweep.engine import point_key
        from repro.sweep.points import SweepPoint

        legacy = SweepPoint(kernel="idct", version="mmx128", way=2)
        wide = SweepPoint(
            kernel="idct", version="mmx128", way=2, machine="mmx256"
        )
        assert point_key(wide) != point_key(legacy)
        assert wide.as_dict()["machine"] == "mmx256"

    def test_trace_shared_across_machines(self):
        from repro.sweep.engine import trace_key
        from repro.sweep.points import SweepPoint

        narrow = SweepPoint(kernel="idct", version="mmx128", way=2)
        wide = SweepPoint(
            kernel="idct", version="mmx128", way=16, machine="mmx256"
        )
        assert trace_key(narrow) == trace_key(wide)

    def test_program_mismatch_rejected(self):
        from repro.sweep.engine import resolve_configs
        from repro.sweep.points import SweepPoint

        bad = SweepPoint(
            kernel="idct", version="mmx64", way=2, machine="mmx256"
        )
        with pytest.raises(ValueError, match="executes 'mmx128' binaries"):
            resolve_configs(bad)


class TestOverrideValidation:
    def test_unhashable_value_rejected_with_key_name(self):
        from repro.sweep.points import SweepPoint

        with pytest.raises(TypeError, match="'lanes'.*non-scalar"):
            SweepPoint(
                kernel="idct", version="mmx64", way=2,
                core_overrides={"lanes": [1, 2]},
            )

    def test_dict_value_rejected(self):
        from repro.sweep.points import SweepPoint

        with pytest.raises(TypeError, match="'l2.port_bytes'"):
            SweepPoint(
                kernel="idct", version="mmx64", way=2,
                mem_overrides={"l2.port_bytes": {"value": 64}},
            )

    def test_scalar_overrides_accepted(self):
        from repro.sweep.points import SweepPoint

        point = SweepPoint(
            kernel="idct", version="mmx64", way=2,
            core_overrides={"rob_size": 32},
            mem_overrides={"strided_rows_per_cycle": 2.0},
        )
        assert point.core_overrides == (("rob_size", 32),)


class TestMachineAxisSimulation:
    def test_mmx256_retimes_mmx128_binary(self):
        from repro.timing.simulator import simulate_kernel

        wide = simulate_kernel("idct", "mmx128", 2, machine="mmx256")
        narrow = simulate_kernel("idct", "mmx128", 2)
        assert wide.result.instructions == narrow.result.instructions
        assert wide.result.config_name == "2way-mmx256"
        # Doubled L1 port bytes can only help a 128-bit access stream.
        assert wide.result.cycles <= narrow.result.cycles

    def test_vmmx256_eight_lanes_speed_up(self):
        from repro.timing.simulator import simulate_kernel

        wide = simulate_kernel("motion1", "vmmx128", 4, machine="vmmx256")
        narrow = simulate_kernel("motion1", "vmmx128", 4)
        assert wide.result.cycles < narrow.result.cycles

    def test_sixteen_way_simulates(self):
        from repro.timing.simulator import simulate_kernel

        timing = simulate_kernel("addblock", "vmmx128", 16, machine="vmmx256")
        assert timing.result.cycles > 0
        assert timing.machine_name == "vmmx256"

    def test_emulation_geometry_from_registry(self):
        from repro.emu import Memory, make_machine

        machine = make_machine("vmmx256", Memory())
        # Aliased machines emulate their program's architected geometry.
        assert machine.isa_name == "vmmx128"
        assert machine.row_bytes == 16
        assert machine.max_vl == 16


class TestMachinesCli:
    def test_listing_names_all_machines(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["machines"]) == 0
        out = capsys.readouterr().out
        for name in ("mmx64", "vmmx128", "mmx256", "vmmx256"):
            assert name in out
        # >= 16 machine rows below the two header/rule lines.
        assert len(out.strip().splitlines()) >= 16 + 4

    def test_validate_against_manifest(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["machines", "--validate", "--manifest", str(MANIFEST)]) == 0
        out = capsys.readouterr().out
        assert "machine registry ok" in out
        assert "smoke:" in out

    def test_validate_flags_stale_manifest(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        stale = json.loads(MANIFEST.read_text())
        label = next(iter(stale["machines"]))
        stale["machines"][label] = "0" * 64
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(stale))
        assert cli_main(["machines", "--validate", "--manifest", str(path)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_validate_missing_manifest(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(
            ["machines", "--validate", "--manifest", str(tmp_path / "none.json")]
        ) == 1
        assert "--write-manifest" in capsys.readouterr().out

    def test_write_manifest_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        path = tmp_path / "manifest.json"
        assert cli_main(["machines", "--write-manifest", "--manifest", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["machines", "--validate", "--manifest", str(path)]) == 0

    def test_kernel_on_machine(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(
            ["kernel", "addblock", "--machine", "mmx256", "--way", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "4-way mmx256 (executing mmx128 binaries)" in out

    @pytest.mark.parametrize(
        "machine,twin", [("vla", "mmx128"), ("tile", "vmmx128")]
    )
    def test_kernel_on_twinned_family(self, machine, twin, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["kernel", "idct", "--machine", machine]) == 0
        out = capsys.readouterr().out
        assert "functional check: ok" in out
        assert f"2-way {machine} (executing {twin} binaries)" in out

    def test_kernel_unknown_machine(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["kernel", "addblock", "--machine", "avx512"]) == 1
        assert "unknown machine" in capsys.readouterr().out

    def test_sweep_machines_flag(self, capsys, monkeypatch):
        from repro.__main__ import main as cli_main

        monkeypatch.setenv("REPRO_STORE", "off")
        assert cli_main(
            ["sweep", "--kernels", "addblock", "--machines", "vmmx256",
             "--ways", "2,16", "--quiet"]
        ) == 0
        assert "2 points" in capsys.readouterr().out

    def test_sweep_isas_and_machines_conflict(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(
            ["sweep", "--isas", "mmx64", "--machines", "mmx256"]
        ) == 1
        assert "only one" in capsys.readouterr().out
