"""One benchmark workload, run in a fresh process.

Sub-commands (``run.py`` drives all of them; none is meant to be called
by hand):

* ``probe``   -- import the program and load the timing kernel from the
  pre-warmed cache, then report ready (one ``setup_s`` sample);
* ``prewarm`` -- the same, allowed to compile the kernel and byte-compile
  the sources, so no measured process pays either;
* ``fixture DIR`` -- regenerate every artefact into the empty store
  ``DIR/store`` and record the artefact bytes (the warm workloads'
  starting point);
* ``run`` -- measure one workload and write its result as JSON.

The paper workloads and ``design-sweep`` run in this process; for
``serve-explore`` this process is the client (see ``serve_explore.py``).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import common
from tracer import Tracer, layer_metrics, mean_metrics


def import_program() -> None:
    """Import everything a workload touches and load the timing kernel."""
    import repro  # noqa: F401
    import repro.experiments.artifacts  # noqa: F401
    import repro.sweep  # noqa: F401
    from repro.timing import batch

    if batch.load_kernel() is None:
        raise SystemExit(f"timing kernel unavailable: {batch._lib_error}")


class Checks:
    """Counts attempted operations and records every failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
            print(f"FAIL: {message}", flush=True)
        return ok


# ---------------------------------------------------------------------------
# Workloads.  Each has prepare() -> state, steps(state) -> the timed calls
# (their outputs, in order, are the pass's output), verify(state, outputs),
# store_path(state) and cleanup(state).
# ---------------------------------------------------------------------------


def _regenerate(name: str) -> str:
    # Looked up through the module so a traced pass sees the wrapper.
    from repro.experiments import artifacts

    return artifacts.artifact_json(name)


def _regenerate_all() -> Dict[str, str]:
    return {name: _regenerate(name) for name in common.ARTIFACTS}


def _counts() -> Dict[str, int]:
    from repro.sweep import engine

    return {"simulated": engine.simulation_count(), "emulated": engine.emulation_count()}


class PaperCold:
    """All twelve artefacts into an empty store, in-process memos cleared."""

    def __init__(self, checks: Checks, run_dir: Path) -> None:
        self.checks = checks
        self.run_dir = run_dir
        self.unpinned: Dict[str, str] = {}
        self.instructions = 0
        self.digest = None

    def prepare(self) -> Path:
        from repro import sweep

        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.run_dir))
        os.environ["REPRO_STORE"] = str(store)
        sweep.clear_memory_caches()
        return store

    def steps(self, store: Path) -> List[Callable[[], Any]]:
        # One step per artefact: the calibration brackets each of them.
        return [functools.partial(_regenerate, name) for name in common.ARTIFACTS]

    def verify(self, store: Path, outputs: List[str]) -> None:
        check_artifacts(self.checks, dict(zip(common.ARTIFACTS, outputs)), self.unpinned)
        summary = common.store_timing_digest(store)
        expected = common.EXPECTED["paper"]
        self.checks.check(
            summary["digest"] == expected["timing_digest"],
            f"simulated-statistics digest {summary['digest'][:16]} != "
            f"pinned {expected['timing_digest'][:16]}",
        )
        self.instructions = summary["instructions"]
        self.digest = summary["digest"]

    def store_path(self, store: Path) -> Path:
        return store

    def cleanup(self, store: Path) -> None:
        shutil.rmtree(store, ignore_errors=True)

    def finish(self) -> Dict[str, Any]:
        return {"timing_digest": self.digest}


def check_artifacts(checks: Checks, texts: Dict[str, str], unpinned: Dict[str, str]) -> None:
    """Pinned artefacts byte-equal to the goldens; the rest stable."""
    for name in common.ARTIFACTS:
        if name in common.PINNED:
            checks.check(texts[name] == common.golden(name), f"{name} differs from tests/goldens/{name}.json")
        else:
            reference = unpinned.setdefault(name, texts[name])
            checks.check(texts[name] == reference, f"{name} differs from its first regeneration")


class PaperWarm:
    """All twelve artefacts from a full store, in-process memos cleared."""

    def __init__(self, checks: Checks, run_dir: Path, fixture: Path) -> None:
        self.checks = checks
        self.store = run_dir / "store"
        shutil.copytree(fixture / "store", self.store)
        os.environ["REPRO_STORE"] = str(self.store)
        self.unpinned = {
            name: (fixture / "artifacts" / f"{name}.json").read_text()
            for name in common.ARTIFACTS
            if name not in common.PINNED
        }
        self.before = common.store_timing_digest(self.store)
        self.files = sum(1 for _ in self.store.rglob("*.json"))
        checks.check(
            self.before["digest"] == common.EXPECTED["paper"]["timing_digest"],
            "fixture store's simulated-statistics digest differs from the pinned one",
        )
        self.instructions = self.before["instructions"]

    def prepare(self) -> Dict[str, int]:
        from repro import sweep

        sweep.clear_memory_caches()
        return _counts()

    def steps(self, before: Dict[str, int]) -> List[Callable[[], Any]]:
        return [_regenerate_all]

    def verify(self, before: Dict[str, int], outputs: List[Dict[str, str]]) -> None:
        check_artifacts(self.checks, outputs[0], self.unpinned)
        after = _counts()
        self.checks.check(
            after == before,
            f"warm pass simulated {after['simulated'] - before['simulated']} points "
            f"and emulated {after['emulated'] - before['emulated']} kernels (expected 0)",
        )

    def store_path(self, before: Dict[str, int]) -> Path:
        return self.store

    def cleanup(self, before: Dict[str, int]) -> None:
        pass

    def finish(self) -> Dict[str, Any]:
        after = common.store_timing_digest(self.store)
        files = sum(1 for _ in self.store.rglob("*.json"))
        self.checks.check(
            after["digest"] == self.before["digest"] and files == self.files,
            "warm passes changed the store",
        )
        return {"timing_digest": after["digest"]}


#: design-sweep axes: every kernel x the paper ISAs x ways x 4 seeds,
#: then a lane-count ablation over the cached traces.
SWEEP_SEEDS = 4
ABLATION_VERSIONS = ("vmmx64", "vmmx128")
ABLATION_LANES = (1, 2, 4, 8)
ORACLE_POINTS = 4


class DesignSweep:
    """A cold multi-seed sweep, then a lanes ablation re-timing its traces."""

    def __init__(self, checks: Checks, run_dir: Path, seed: int) -> None:
        from repro.kernels.registry import KERNELS
        from repro.machines import ISAS, WAYS
        from repro.sweep import grid

        self.checks = checks
        self.run_dir = run_dir
        self.rng = random.Random(seed)
        seeds = sorted(self.rng.sample(range(1, 1 << 16), SWEEP_SEEDS))
        self.seeds = seeds
        self.cold = grid(tuple(KERNELS), ISAS, WAYS, seeds)
        self.ablation = [
            p
            for lanes in ABLATION_LANES
            for p in grid(tuple(KERNELS), ABLATION_VERSIONS, WAYS, seeds,
                          core_overrides={"lanes": lanes})
        ]
        self.traces = len(KERNELS) * len(ISAS) * SWEEP_SEEDS
        self.digest = None
        self.instructions = 0

    def prepare(self) -> Path:
        from repro import sweep

        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.run_dir))
        os.environ["REPRO_STORE"] = str(store)
        sweep.clear_memory_caches()
        return store

    def steps(self, store: Path) -> List[Callable[[], Any]]:
        from repro import sweep as sweeplib

        return [
            functools.partial(sweeplib.sweep, points, jobs=1, store_root=str(store))
            for points in (self.cold, self.ablation)
        ]

    def verify(self, store: Path, reports) -> None:
        from repro.machines.spec import canonical_json
        from repro.sweep.store import sim_result_to_dict

        cold, ablation = reports
        for name, report, points, emulated in (
            ("cold sweep", cold, self.cold, self.traces),
            ("ablation", ablation, self.ablation, 0),
        ):
            complete = (
                report.simulated == len(points)
                and all(p in report.results for p in points)
            )
            self.checks.check(complete, f"{name}: {report.simulated}/{len(points)} points simulated")
            self.checks.check(
                report.emulated == emulated,
                f"{name}: {report.emulated} emulations (expected {emulated})",
            )
        items = [
            canonical_json({"point": p.as_dict(), "result": sim_result_to_dict(r.result)})
            for report in reports
            for p, r in report.results.items()
        ]
        digest = common.digest_of(items)
        if self.digest is None:
            self.digest = digest
            self.instructions = sum(
                r.result.instructions for report in reports for r in report.results.values()
            )
            self.oracle(reports)
        self.checks.check(digest == self.digest, "simulated-statistics digest changed between passes")

    def oracle(self, reports) -> None:
        """Re-derive a few points by the reference path and compare."""
        from repro.kernels.base import execute
        from repro.kernels.registry import KERNELS
        from repro.sweep.engine import resolve_configs
        from repro.sweep.store import sim_result_to_dict
        from repro.timing.simulator import simulate_trace

        cold, ablation = reports
        sample = self.rng.sample(self.cold, ORACLE_POINTS // 2)
        sample += self.rng.sample(self.ablation, ORACLE_POINTS - len(sample))
        for point in sample:
            report = cold if point in cold.results else ablation
            run = execute(KERNELS[point.kernel], point.version, seed=point.seed)
            config, mem = resolve_configs(point)
            result = simulate_trace(run.trace.columns(), config, mem)
            self.checks.check(
                run.correct and sim_result_to_dict(result)
                == sim_result_to_dict(report.results[point].result),
                f"{point.label}: sweep result differs from per-seed emulation + scalar timing",
            )

    def store_path(self, store: Path) -> Path:
        return store

    def cleanup(self, store: Path) -> None:
        shutil.rmtree(store, ignore_errors=True)

    def finish(self) -> Dict[str, Any]:
        return {"timing_digest": self.digest, "seeds": self.seeds}


# ---------------------------------------------------------------------------
# Measurement loop.
# ---------------------------------------------------------------------------


def run_steps(steps: List[Callable[[], Any]]) -> Tuple[float, float, List[Any]]:
    """Time each step; returns (host seconds, calibrated seconds, outputs).

    The reference task runs before the first step and after every step
    (outside the timed calls), so each step is scaled by the machine
    speed measured right around it.
    """
    raw = calibrated = 0.0
    outputs = []
    ref = common.reference_seconds()
    for step in steps:
        t0 = time.perf_counter()
        outputs.append(step())
        seconds = time.perf_counter() - t0
        ref_after = common.reference_seconds()
        raw += seconds
        calibrated += common.calibrated(seconds, ref, ref_after)
        ref = ref_after
    return raw, calibrated, outputs


def measure(workload, seconds: float, trace: bool, spans_out: Path) -> Dict[str, Any]:
    """Run passes until ``seconds`` have elapsed.

    Untraced passes give the end-to-end numbers.  With ``trace`` the
    passes alternate untraced/traced (at least one of each): the traced
    ones give the per-layer ledger, and the two together the tracing
    overhead.  The last traced pass's spans are written to ``spans_out``.
    """
    tracer = Tracer() if trace else None
    walls: Dict[bool, List[float]] = {False: [], True: []}
    raw_walls: List[float] = []
    ledgers: List[Dict[str, float]] = []
    last_traced = None
    started = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        state = workload.prepare()
        counts = _counts()
        gc.collect()
        if traced:
            tracer.install()
            tracer.reset()
        raw, wall, outputs = run_steps(workload.steps(state))
        if traced:
            spans = tracer.spans()
            tracer.uninstall()
            last_traced = (spans, raw)
            after = _counts()
            ledger = layer_metrics(spans, raw)
            ledger["sweep.simulated"] = after["simulated"] - counts["simulated"]
            ledger["sweep.emulated"] = after["emulated"] - counts["emulated"]
            ledger["store.bytes"] = float(common.dir_bytes(workload.store_path(state)))
            ledgers.append(ledger)
        workload.verify(state, outputs)
        workload.cleanup(state)
        walls[traced].append(wall)
        if not traced:
            raw_walls.append(raw)
        index += 1
        print(f"pass {index}: {raw:.4f} s, calibrated {wall:.4f} s"
              f"{' (traced)' if traced else ''}", flush=True)
        enough = not trace or (walls[False] and walls[True])
        if enough and time.perf_counter() - started >= seconds:
            break
    if last_traced is not None:
        common.write_spans(spans_out, *last_traced)
    result: Dict[str, Any] = {
        "walls": walls[False], "raw_walls": raw_walls, "traced_walls": walls[True],
    }
    if ledgers:
        result["ledger"] = mean_metrics(ledgers)
    return result


WORKLOADS = ("paper-cold", "paper-warm", "design-sweep", "serve-explore")


def cmd_run(args) -> int:
    common.assert_clean_env()
    run_dir = Path(args.run_dir)
    checks = Checks()
    if args.workload == "serve-explore":
        import serve_explore

        result = serve_explore.run(
            checks, run_dir, args.seed, args.seconds, bool(args.trace), Path(args.fixture),
            common.spans_file(args.workload),
        )
    else:
        import_program()
        if args.workload == "paper-cold":
            workload = PaperCold(checks, run_dir)
        elif args.workload == "paper-warm":
            workload = PaperWarm(checks, run_dir, Path(args.fixture))
        else:
            workload = DesignSweep(checks, run_dir, args.seed)
        result = measure(
            workload, args.seconds, bool(args.trace), common.spans_file(args.workload)
        )
        result["instructions_per_pass"] = workload.instructions
        result["info"] = workload.finish()
        result["peak_rss_mb"] = common.peak_rss_mb()
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    Path(args.result).write_text(json.dumps(result))
    return 0


def cmd_probe(args) -> int:
    common.assert_clean_env()
    import_program()
    print("ready", flush=True)
    return 0


def cmd_prewarm(args) -> int:
    import compileall

    common.assert_clean_env()
    compileall.compile_dir(str(common.SRC / "repro"), quiet=1)
    import_program()
    return 0


def cmd_fixture(args) -> int:
    """Regenerate every artefact into an empty store (seed-0 grids)."""
    common.assert_clean_env()
    import_program()
    from repro.sweep import full_points
    from repro.sweep.engine import acquire_traces

    out = Path(args.dir)
    os.environ["REPRO_STORE"] = str(out / "store")
    texts = _regenerate_all()
    # Seed-0 traces of every kernel on every paper ISA, for re-timing.
    acquire_traces(full_points(0))
    for name in common.PINNED:
        if texts[name] != common.golden(name):
            raise SystemExit(f"fixture: {name} differs from tests/goldens/{name}.json")
    (out / "artifacts").mkdir()
    for name, text in texts.items():
        (out / "artifacts" / f"{name}.json").write_text(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("probe")
    sub.add_parser("prewarm")
    fixture = sub.add_parser("fixture")
    fixture.add_argument("dir")
    run = sub.add_parser("run")
    run.add_argument("--workload", choices=WORKLOADS, required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--run-dir", required=True)
    run.add_argument("--fixture", default=None)
    run.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    return {
        "probe": cmd_probe,
        "prewarm": cmd_prewarm,
        "fixture": cmd_fixture,
        "run": cmd_run,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
