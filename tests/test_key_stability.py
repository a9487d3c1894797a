"""Record addresses stay put however often a process keys them.

``tests/goldens/point_keys.json`` pins a SHA-256 over the
:func:`~repro.sweep.engine.point_key` of every point the twelve
artefacts read (``ARTIFACT_POINTS``, deduplicated in registry order),
of the design-sweep benchmark's two grids -- a cold 4-seed sweep of
every kernel x paper ISA x way, then its lanes 1/2/4/8 ablation -- and
of overrides that are equal as values but not as JSON (``lanes=4``,
then ``lanes=4.0``), each in order, with the ``code_version()`` they
were computed under.  A
change to how a point is keyed that moves one address fails here; the
key embeds the simulator code digest, so an intentional model change
moves every key and is regenerated with

    PYTHONPATH=src python -m pytest tests/test_key_stability.py --regen-goldens

The other tests pin what the configuration fingerprint each registered
spec caches for :func:`point_key` must never merge or skip.
"""

import dataclasses
import hashlib
import json
import pathlib
import random
import sys
import threading

import pytest

from repro.machines import (
    ISAS,
    WAYS,
    MachineFamily,
    SimdGeometry,
    register_machine,
    unregister_machine,
)
from repro.machines.registry import MMX_CORE_SCALING, PAPER_MEM_SCALING
from repro.sweep import SweepPoint, code_version, dedupe, grid, point_key

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "point_keys.json"

#: The design-sweep benchmark's seeds: four drawn by its default seed 0.
SEEDS = tuple(sorted(random.Random(0).sample(range(1, 1 << 16), 4)))


def _grids():
    from repro.experiments.artifacts import ARTIFACT_POINTS
    from repro.kernels.registry import KERNELS

    kernels = tuple(KERNELS)
    return {
        "artifact_points": dedupe(
            p for build in ARTIFACT_POINTS.values() for p in build()
        ),
        "design_sweep_cold": grid(kernels, ISAS, WAYS, SEEDS),
        "design_sweep_lanes": [
            p
            for lanes in (1, 2, 4, 8)
            for p in grid(kernels, ("vmmx64", "vmmx128"), WAYS, SEEDS,
                          core_overrides={"lanes": lanes})
        ],
        # Equal values, different addresses; each int is keyed first.
        "int_then_float_overrides": [
            p
            for core, mem in (
                ({"lanes": 4}, None), ({"lanes": 4.0}, None),
                (None, {"main_latency": 400}), (None, {"main_latency": 400.0}),
            )
            for p in grid(("ycc",), ("vmmx128",), WAYS,
                          core_overrides=core, mem_overrides=mem)
        ],
    }


def _digest(points):
    keys = "\n".join(point_key(p) for p in points)
    return {"points": len(points), "sha256": hashlib.sha256(keys.encode()).hexdigest()}


def test_grid_keys_match_the_committed_digest(request):
    found = {name: _digest(points) for name, points in _grids().items()}
    found["code_version"] = code_version()
    if request.config.getoption("--regen-goldens"):
        GOLDEN.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN.name}")
    pinned = json.loads(GOLDEN.read_text())
    assert found["code_version"] == pinned["code_version"], (
        "the simulator code digest moved, which re-addresses every record; "
        "if that is intended, rerun with --regen-goldens"
    )
    assert found == pinned
    assert pinned["artifact_points"]["points"] == 363


@pytest.mark.parametrize("first, second", [(4, 4.0), (4.0, 4)])
def test_int_and_float_overrides_keep_apart(first, second):
    """``lanes=4`` equals ``lanes=4.0`` as a value, not as an address."""
    a = SweepPoint("ycc", "vmmx128", 2, core_overrides={"lanes": first})
    b = SweepPoint("ycc", "vmmx128", 2, core_overrides={"lanes": second})
    assert a == b
    key_a = point_key(a)
    assert point_key(b) != key_a
    assert point_key(a) == key_a


def test_int_and_float_memory_overrides_keep_apart():
    a = SweepPoint("ycc", "vmmx128", 2, mem_overrides={"main_latency": 400})
    b = SweepPoint("ycc", "vmmx128", 2, mem_overrides={"main_latency": 400.0})
    assert point_key(a) != point_key(b)


def _family(**core):
    return MachineFamily(
        name="mmx64-key-test",
        program="mmx64",
        geometry=SimdGeometry(8, 1, 1, 32, False),
        core_scaling=dataclasses.replace(MMX_CORE_SCALING, **core),
        mem_scaling=PAPER_MEM_SCALING,
        ways=(2,),
    )


def test_reregistered_machine_rekeys_points_keyed_before():
    point = SweepPoint("ycc", "mmx64", 2, machine="mmx64-key-test")
    register_machine(_family())
    try:
        before = point_key(point)
        register_machine(_family(branch_penalty=9), replace=True)
        changed = point_key(point)
        register_machine(_family(), replace=True)
        restored = point_key(point)
    finally:
        unregister_machine("mmx64-key-test")
    assert changed != before
    assert restored == before


def test_a_cached_configuration_still_refuses_a_program_mismatch():
    point_key(SweepPoint("ycc", "vmmx128", 2))
    foreign = SweepPoint("ycc", "mmx64", 2, machine="vmmx128")
    with pytest.raises(ValueError, match="executes 'vmmx128' binaries"):
        point_key(foreign)


def test_a_cached_configuration_still_refuses_a_bad_override():
    point_key(SweepPoint("ycc", "mmx64", 2))
    point_key(SweepPoint("ycc", "mmx64", 2, core_overrides={"rob_size": 32}))
    for rob_size in (0, 0.0):
        broken = SweepPoint("ycc", "mmx64", 2, core_overrides={"rob_size": rob_size})
        with pytest.raises(ValueError):
            point_key(broken)


def test_threads_keying_at_once_agree_with_one_thread():
    """Eight threads fill the cache of a fresh machine at once."""
    points = [
        SweepPoint("ycc", "mmx64", way, machine="mmx64-key-test",
                   core_overrides=None if rob_size is None else {"rob_size": rob_size})
        for way in (2, 4, 8)
        for rob_size in (None, 32, 32.0, 48, 48.0, 64)
    ]
    found = {}

    def key_all(index):
        order = points[index % len(points):] + points[:index % len(points)]
        found[index] = {id(p): point_key(p) for p in order}

    interval = sys.getswitchinterval()
    register_machine(_family())
    try:
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=key_all, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        sys.setswitchinterval(interval)
        register_machine(_family(), replace=True)  # a fresh, empty cache
        expected = {id(p): point_key(p) for p in points}
    finally:
        sys.setswitchinterval(interval)
        unregister_machine("mmx64-key-test")
    assert len(set(expected.values())) == len(points)
    assert all(keys == expected for keys in found.values())
    assert len(found) == 8
