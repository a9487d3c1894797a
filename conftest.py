"""Ensure `repro` is importable even without an installed package."""

import importlib.util
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))


@pytest.fixture(autouse=True, scope="session")
def _hermetic_result_store(tmp_path_factory):
    """Keep test runs off the user's persistent result store.

    Unless the caller explicitly exported ``REPRO_STORE`` (e.g. to keep
    benchmark reruns warm), every pytest session gets its own fresh
    store: tests that count simulations or monkeypatch runtime state
    must never be answered by records from a previous run.
    """
    if "REPRO_STORE" in os.environ:
        yield
        return
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_STORE", str(tmp_path_factory.mktemp("repro-store")))
    yield
    mp.undo()


@pytest.fixture
def counted():
    """Counts of ``point_key`` calls, store reads and ``simulate_kernel``
    calls while the test runs; zero them to start a count.

    Counted as ``benchmarks/bench_model_speed.py`` counts its warm
    paper pass.
    """
    path = os.path.join(os.path.dirname(__file__), "benchmarks", "bench_model_speed.py")
    spec = importlib.util.spec_from_file_location("bench_model_speed", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    with bench.key_and_read_counts() as counts:
        yield counts


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.json from the current results "
        "(see docs/sweeping.md) instead of comparing against them",
    )

