"""Emulation enters at most two Python frames per emitted instruction.

Each hot intrinsic views its lanes, checks its payload and memory bounds,
wraps its result, builds its register handle and appends its trace
record in its own frame (``repro.emu``), so the machines' plumbing costs
no call per instruction.  The count is ``benchmarks/bench_model_speed.py``'s
``emulation_frames``: it repeats exactly, where a rate does not.
"""

import importlib.util
import os

import pytest


@pytest.fixture(scope="module")
def frames():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "benchmarks", "bench_model_speed.py")
    spec = importlib.util.spec_from_file_location("bench_model_speed", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_EMU_REFERENCE", raising=False)
        return bench.emulation_frames()


def test_the_paper_programs_enter_at_most_two_frames_an_instruction(frames):
    single = frames["single"]
    assert single["programs"] == 44
    assert single["instructions"] == 191_754
    assert single["frames_per_instruction"] <= 2.0


def test_batched_programs_enter_at_most_two_frames_an_instruction(frames):
    # ltppar's argmax diverges across seeds, so 10 kernels x 4 ISAs batch.
    batch = frames["batch"]
    assert batch["programs"] == 40
    assert batch["frames_per_instruction"] <= 2.0
