"""Campaign orchestration: manifests, executors, retries, promotion.

The orchestrator's contract is that nothing it does can change the
numbers: a campaign that limped through shard deaths and retries must
promote a merged store whose result records are byte-identical to a
clean single-process sweep, and a restarted orchestrator must never
re-run work whose records already exist.  Failure paths are first-class
-- a shard that exhausts its retry budget fails the campaign loudly and
leaves the per-shard logs behind.
"""

import json
import os
import tempfile

import pytest

from repro.__main__ import build_parser, main
from repro.sweep import (
    CampaignError,
    CampaignManifest,
    LocalExecutor,
    ResultStore,
    campaign_status,
    clear_memory_caches,
    dedupe,
    fig4_points,
    grid,
    make_executor,
    point_key,
    run_campaign,
    set_compute_budget,
    shard_assignment,
    shard_command,
    simulation_count,
    sweep,
    sweep_progress,
)
from repro.sweep.dispatch import MANIFEST_NAME
from repro.sweep.store import canonical_json, kernel_timing_to_dict
from store_faults import damage, drop

#: Small grid with shared traces across ways (orchestration must keep
#: the trace-exclusivity property the sharding layer guarantees).
KERNELS = ("ycc", "addblock")
MACHINES = ("mmx64", "vmmx128")
WAYS = (2, 4)
GRID = grid(KERNELS, MACHINES, WAYS)


@pytest.fixture()
def cold_caches():
    clear_memory_caches()
    yield
    clear_memory_caches()
    set_compute_budget(None)


def _manifest(tmp_path, **overrides):
    kwargs = dict(
        root=str(tmp_path / "campaign"),
        shards=2,
        kernels=KERNELS,
        machines=MACHINES,
        ways=WAYS,
        executor="local",
        jobs=1,
    )
    kwargs.update(overrides)
    return CampaignManifest(**kwargs)


def _export_bytes(store):
    """The bytes of ``store.export``: equal exactly when two stores hold
    the same records, byte for byte."""
    with tempfile.TemporaryDirectory() as scratch:
        archive = os.path.join(scratch, "store.tar.gz")
        store.export(archive)
        with open(archive, "rb") as handle:
            return handle.read()


def _clean_reference(tmp_path, monkeypatch, points):
    """Single-process store + report for ``points`` in a fresh root."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "reference"))
    clear_memory_caches()
    report = sweep(points)
    clear_memory_caches()
    return ResultStore(tmp_path / "reference"), report


class FlakyExecutor(LocalExecutor):
    """Kill each shard's *first* attempt after ``budget`` points.

    Stands in for a worker host dying mid-chunk: the interrupted
    sweep's completed points are already persisted in the shard store,
    so the orchestrator's retry computes only the rest.
    """

    def __init__(self, budget=2):
        self.budget = budget
        self.sabotaged = set()
        self.calls = []

    def run_shards(self, manifest, indices, points, log):
        outcomes = {}
        for index in indices:
            self.calls.append(index)
            if index in self.sabotaged:
                outcomes.update(super().run_shards(manifest, [index], points, log))
                continue
            self.sabotaged.add(index)
            previous = set_compute_budget(self.budget)
            try:
                outcomes.update(super().run_shards(manifest, [index], points, log))
            finally:
                set_compute_budget(previous)
        return outcomes


class TestManifest:
    def test_round_trips_through_json(self, tmp_path):
        manifest = _manifest(tmp_path, executor="subprocess", jobs=3)
        path = manifest.save()
        loaded = CampaignManifest.load(path)
        assert loaded == manifest
        assert loaded.to_dict() == manifest.to_dict()

    def test_load_re_roots_to_the_file_location(self, tmp_path):
        """A moved campaign directory resumes where it lands."""
        manifest = _manifest(tmp_path)
        manifest.save()
        moved = tmp_path / "elsewhere"
        os.rename(tmp_path / "campaign", moved)
        loaded = CampaignManifest.load(moved / MANIFEST_NAME)
        assert loaded.root == str(moved)

    def test_identity_ignores_execution_policy(self, tmp_path):
        a = _manifest(tmp_path, executor="local", jobs=1, max_attempts=3)
        b = _manifest(tmp_path, executor="subprocess", jobs=8, max_attempts=1)
        assert a.identity_dict() == b.identity_dict()
        assert a.fingerprint() == b.fingerprint()

    def test_identity_tracks_the_work(self, tmp_path):
        a = _manifest(tmp_path, shards=2)
        b = _manifest(tmp_path, shards=3)
        c = _manifest(tmp_path, ways=(2, 4, 8))
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_axes_normalise_eagerly(self, tmp_path):
        from repro.kernels.registry import KERNELS as ALL_KERNELS

        manifest = CampaignManifest(root=str(tmp_path), kernels=())
        assert manifest.kernels == tuple(ALL_KERNELS)
        assert manifest.machines and manifest.ways

    @pytest.mark.parametrize(
        "overrides",
        [
            {"shards": 0},
            {"shards": True},
            {"max_attempts": 0},
            {"jobs": 0},
            {"executor": "ssh"},
            {"max_attempts": True},
            {"jobs": True},
            {"jobs": 1.5},
        ],
    )
    def test_bad_manifests_rejected(self, tmp_path, overrides):
        with pytest.raises(CampaignError):
            _manifest(tmp_path, **overrides)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({"schema": 99, "root": str(tmp_path)}))
        with pytest.raises(CampaignError, match="schema"):
            CampaignManifest.load(path)

    def test_validate_names_unknown_axes(self, tmp_path):
        with pytest.raises(CampaignError, match="banana"):
            _manifest(tmp_path, kernels=("banana",)).validate()
        with pytest.raises(CampaignError, match="avx512"):
            _manifest(tmp_path, machines=("avx512",)).validate()
        with pytest.raises(CampaignError, match="grid"):
            _manifest(tmp_path, grid="fig99").validate()

    def test_conflicting_campaign_at_same_root_refused(self, tmp_path, cold_caches):
        _manifest(tmp_path).save()
        with pytest.raises(CampaignError, match="different"):
            run_campaign(_manifest(tmp_path, shards=3))

    def test_shard_command_is_the_documented_worker_line(self, tmp_path):
        manifest = _manifest(tmp_path, shards=2, jobs=4)
        cmd = shard_command(manifest, 1)
        text = " ".join(cmd)
        assert "-m repro sweep" in text
        assert "--shard 2/2" in text
        assert "--store-root" in text
        assert "--kernels ycc,addblock" in text
        # The worker's own CLI accepts the line as it stands.
        assert cmd[1:3] == ["-m", "repro"]
        args = build_parser().parse_args(cmd[3:])
        assert (args.command, args.shard, args.jobs) == ("sweep", "2/2", 4)
        grid_cmd = " ".join(
            shard_command(_manifest(tmp_path, grid="fig4", kernels=()), 0)
        )
        assert "--grid fig4" in grid_cmd and "--kernels" not in grid_cmd


class TestLocalCampaign:
    def test_campaign_matches_clean_run(self, tmp_path, monkeypatch, cold_caches):
        reference_store, reference = _clean_reference(tmp_path, monkeypatch, GRID)
        manifest = _manifest(tmp_path)
        report = run_campaign(manifest)
        assert report.ok and report.verified and report.promoted
        merged = ResultStore(report.merged_root)
        assert _export_bytes(merged) == _export_bytes(reference_store)
        # The promoted store answers the whole grid without simulating.
        monkeypatch.setenv("REPRO_STORE", report.merged_root)
        clear_memory_caches()
        warm = sweep(GRID)
        assert warm.simulated == 0 and warm.emulated == 0
        for point in warm.points:
            assert canonical_json(
                kernel_timing_to_dict(warm[point])
            ) == canonical_json(kernel_timing_to_dict(reference[point]))

    def test_fig4_campaign_exports_the_single_process_store(
        self, tmp_path, monkeypatch, cold_caches
    ):
        """A 2-shard fig4 campaign promotes exactly the records one
        process sweeping fig4 writes -- 44 timings and 44 traces --
        so their exports are the same bytes."""
        reference_store, _ = _clean_reference(
            tmp_path, monkeypatch, fig4_points()
        )
        monkeypatch.delenv("REPRO_STORE", raising=False)
        report = run_campaign(_manifest(tmp_path, grid="fig4"))
        assert report.ok, report.summary()
        merged = ResultStore(report.merged_root)
        assert len(merged) == len(reference_store) == 88
        assert _export_bytes(merged) == _export_bytes(reference_store)

    def test_rerun_is_idempotent(self, tmp_path, cold_caches):
        manifest = _manifest(tmp_path)
        first = run_campaign(manifest)
        assert first.ok
        before = simulation_count()
        # Re-running a finished campaign neither simulates nor rebuilds
        # the promoted store (same directory inode, no staging left).
        merged_stat = os.stat(manifest.merged_root())
        again = run_campaign(manifest)
        assert again.ok
        assert simulation_count() == before
        assert all(s.attempts == 0 for s in again.shards)
        assert os.stat(manifest.merged_root()).st_ino == merged_stat.st_ino
        assert not (tmp_path / "campaign" / "merged.staging").exists()

    def test_shard_death_mid_chunk_is_retried(
        self, tmp_path, monkeypatch, cold_caches
    ):
        """Every shard's first attempt dies after 2 points; the retries
        read what their shard stores already hold, and the final merged
        store is byte-identical to a clean run."""
        reference_store, _ = _clean_reference(tmp_path, monkeypatch, GRID)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        manifest = _manifest(tmp_path)
        executor = FlakyExecutor(budget=2)
        before = simulation_count()
        report = run_campaign(manifest, executor=executor)
        assert report.ok, report.summary()
        assert all(s.attempts == 2 for s in report.shards)
        # Each shard computed its points exactly once across both
        # attempts: the interrupted work was resumed, not redone.
        assert simulation_count() - before == len(dedupe(GRID))
        assert _export_bytes(ResultStore(report.merged_root)) == _export_bytes(
            reference_store
        )
        # The failure is recorded in the shard logs.
        for status in report.shards:
            log_text = manifest.log_path(status.index).read_text()
            assert "FAILED" in log_text and "SweepInterrupted" in log_text

    def test_killed_orchestrator_resumes_without_rerunning_shards(
        self, tmp_path, cold_caches
    ):
        """A campaign killed after k shards finished restarts with only
        the remaining shards launched."""
        manifest = _manifest(tmp_path, shards=3)
        points = manifest.points()
        assignment = shard_assignment(points, 3)
        # "Kill" the orchestrator after shard 1 completed: run only that
        # shard the way the executor would, then start over.
        executor = LocalExecutor()
        executor.run_shards(manifest, [0], points, lambda i, m: None)
        clear_memory_caches()

        relaunched = LocalExecutor()
        seen = []
        original = relaunched.run_shards

        def spy(manifest, indices, points, log):
            seen.extend(indices)
            return original(manifest, indices, points, log)

        relaunched.run_shards = spy
        before = simulation_count()
        report = run_campaign(manifest, executor=relaunched)
        assert report.ok
        assert seen == [1, 2]
        assert report.shards[0].attempts == 0
        assert report.shards[0].state == "complete"
        expected = len(assignment[1]) + len(assignment[2])
        assert simulation_count() - before == expected

    def test_retry_budget_exhaustion_fails_loudly(self, tmp_path, cold_caches):
        manifest = _manifest(tmp_path, max_attempts=2)
        # A budget of 0 kills every attempt before its first point.
        executor = FlakyExecutor(budget=0)
        executor.sabotaged = set()  # sabotage every attempt, not just one

        def always_flaky(manifest, indices, points, log):
            outcomes = {}
            for index in indices:
                previous = set_compute_budget(0)
                try:
                    outcomes.update(
                        LocalExecutor.run_shards(
                            executor, manifest, [index], points, log
                        )
                    )
                finally:
                    set_compute_budget(previous)
            return outcomes

        executor.run_shards = always_flaky
        report = run_campaign(manifest, executor=executor)
        assert not report.ok
        assert report.error and "incomplete" in report.error
        assert all(s.state == "failed" for s in report.shards)
        assert all(s.attempts == 2 for s in report.shards)
        assert not manifest.merged_root().exists()

    def test_status_reflects_partial_progress(self, tmp_path, cold_caches):
        manifest = _manifest(tmp_path)
        points = manifest.points()
        LocalExecutor().run_shards(manifest, [0], points, lambda i, m: None)
        report = campaign_status(manifest)
        assert report.shards[0].state == "complete"
        assert report.shards[1].state == "pending"
        assert not report.promoted
        # Each shard's heartbeat is its store's last write: the
        # completed shard has one, the unstarted shard none yet.
        assert report.shards[0].progress.heartbeat is not None
        assert report.shards[0].progress.present == report.shards[0].progress.total
        assert report.shards[1].progress.heartbeat is None
        assert report.shards[1].progress.present == 0

    def test_promotion_is_all_or_nothing(self, tmp_path, cold_caches):
        """A record lost from a shard store blocks promotion."""
        manifest = _manifest(tmp_path)
        report = run_campaign(manifest)
        assert report.ok
        # Corrupt the campaign: remove one result record from shard 1
        # and the promoted store, then resume.
        victim = manifest.points()[0]
        shard_stores = [ResultStore(manifest.shard_root(i)) for i in range(2)]
        key = point_key(victim)
        owner = next(s for s in shard_stores if key in s)
        drop(owner, key)
        import shutil

        shutil.rmtree(manifest.merged_root())
        clear_memory_caches()
        resumed = run_campaign(manifest)
        # The missing point was recomputed by the owning shard and the
        # store re-promoted -- never a partial merge.
        assert resumed.ok and resumed.verified
        assert key in ResultStore(resumed.merged_root)

    def test_damaged_shard_record_is_recomputed_and_promoted(
        self, tmp_path, cold_caches
    ):
        """A shard record that no longer reads sound is missing: the
        next run recomputes it in its shard and promotes the merge."""
        import shutil

        manifest = _manifest(tmp_path, grid="fig4")
        assert run_campaign(manifest).ok
        key = point_key(manifest.points()[0])
        shard_stores = [ResultStore(manifest.shard_root(i)) for i in range(2)]
        owner = next(s for s in shard_stores if key in s)
        damage(owner, key, "garbage")
        shutil.rmtree(manifest.merged_root())
        clear_memory_caches()
        before = simulation_count()
        resumed = run_campaign(manifest)
        assert resumed.ok and resumed.verified, resumed.error
        assert resumed.promoted
        assert simulation_count() - before == 1
        assert key in ResultStore(resumed.merged_root)


class TestSweepProgress:
    def test_progress_counts_store_and_checkpoint(
        self, tmp_path, monkeypatch, cold_caches
    ):
        """Progress counts the point records in the store, which is the
        checkpoint; the heartbeat is the store's last write."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        points = dedupe(GRID)
        progress = sweep_progress(points)
        assert progress.total == len(points)
        assert progress.present == 0 and not progress.done
        assert progress.heartbeat is None
        sweep(points)
        progress = sweep_progress(points)
        assert progress.done and progress.present == progress.total
        assert progress.heartbeat is not None

    def test_sharded_progress_is_per_shard(
        self, tmp_path, monkeypatch, cold_caches
    ):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        sweep(GRID, shard=(0, 2))
        assert sweep_progress(GRID, shard=(0, 2)).done
        assert not sweep_progress(GRID, shard=(1, 2)).done


class TestSubprocessCampaign:
    def test_subprocess_executor_end_to_end(self, tmp_path, cold_caches):
        manifest = _manifest(
            tmp_path, ways=(2,), executor="subprocess", jobs=1
        )
        executor = make_executor(manifest, poll_interval=0.1)
        report = run_campaign(manifest, executor=executor)
        assert report.ok, report.summary()
        # The worker's own output landed in the shard logs.
        log_text = manifest.log_path(0).read_text()
        assert "dispatching to local-1" in log_text
        assert "simulated" in log_text

    def test_timeout_kills_and_reports(self, tmp_path, cold_caches):
        manifest = _manifest(
            tmp_path, ways=(2,), executor="subprocess", max_attempts=1
        )
        executor = make_executor(manifest, poll_interval=0.05, timeout=0.0)
        report = run_campaign(manifest, executor=executor)
        assert not report.ok
        assert any(
            s.error and "timed out" in s.error for s in report.shards
        )


class TestCampaignCli:
    def test_run_status_resume(self, tmp_path, capsys, cold_caches):
        root = str(tmp_path / "cli-campaign")
        argv = ["campaign", "run", "--kernels", "ycc", "--machines",
                "mmx64,vmmx128", "--ways", "2", "--shards", "2",
                "--root", root, "--quiet"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "merged store promoted" in out and "(verified)" in out
        assert main(["campaign", "status", "--root", root]) == 0
        assert "2/2 shards complete" in capsys.readouterr().out
        # Resume of a finished campaign is a cheap no-op.
        before = simulation_count()
        assert main(["campaign", "resume", "--root", root, "--quiet"]) == 0
        assert simulation_count() == before

    def test_resume_recomputes_only_missing_points(
        self, tmp_path, capsys, cold_caches
    ):
        root = tmp_path / "cli-campaign"
        manifest = _manifest(tmp_path, root=str(root))
        manifest.save()
        # Complete shard 1 only, then "kill" the campaign.
        LocalExecutor().run_shards(
            manifest, [0], manifest.points(), lambda i, m: None
        )
        clear_memory_caches()
        before = simulation_count()
        assert main(["campaign", "resume", "--root", str(root), "--quiet"]) == 0
        assignment = shard_assignment(manifest.points(), manifest.shards)
        assert simulation_count() - before == len(assignment[1])

    def test_resume_without_campaign_errors(self, tmp_path, capsys):
        code = main(["campaign", "resume", "--root", str(tmp_path / "void")])
        assert code == 1
        assert "no campaign manifest" in capsys.readouterr().out

    def test_status_on_a_rootless_directory_errors(self, tmp_path, capsys):
        """A mistyped --root must error, not report a phantom campaign."""
        code = main(["campaign", "status", "--root", str(tmp_path / "void")])
        assert code == 1
        out = capsys.readouterr().out
        assert "no campaign manifest" in out
        assert "shards complete" not in out

    def test_status_with_axes_of_an_unstarted_campaign_errors(
        self, tmp_path, monkeypatch, capsys
    ):
        """Axis flags naming a campaign that never ran must error, not
        fabricate a '0/N shards complete' report (e.g. a mistyped
        --shards for a campaign run with a different count)."""
        monkeypatch.setenv("REPRO_CAMPAIGN_HOME", str(tmp_path / "home"))
        code = main(["campaign", "status", "--grid", "fig4", "--shards", "3"])
        assert code == 1
        out = capsys.readouterr().out
        assert "no campaign manifest" in out
        assert "shards complete" not in out

    def test_naming_no_campaign_errors(self, capsys):
        assert main(["campaign", "status"]) == 1
        assert "name the campaign" in capsys.readouterr().out

    def test_unknown_grid_and_executor_exit_nonzero(self, tmp_path, capsys):
        root = str(tmp_path / "x")
        assert main(["campaign", "run", "--grid", "fig99", "--root", root]) == 1
        assert "fig99" in capsys.readouterr().out
        assert main(
            ["campaign", "run", "--kernels", "ycc", "--executor", "slurm",
             "--root", root]
        ) == 1
        assert "executor" in capsys.readouterr().out
        # A registered remote executor without hosts is a different,
        # equally-named error: the manifest rejects it up front.
        assert main(
            ["campaign", "run", "--kernels", "ycc", "--executor", "ssh",
             "--root", root]
        ) == 1
        assert "hosts" in capsys.readouterr().out

    def test_default_root_is_deterministic(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CAMPAIGN_HOME", str(tmp_path / "home"))
        argv = ["campaign", "run", "--kernels", "ycc", "--machines", "mmx64",
                "--ways", "2", "--shards", "2", "--quiet"]
        assert main(argv) == 0
        roots = list((tmp_path / "home").iterdir())
        assert len(roots) == 1
        # The same command finds the same campaign and resumes it.
        before = simulation_count()
        assert main(argv) == 0
        assert simulation_count() == before

    def test_policy_flags_override_loaded_manifest(
        self, tmp_path, capsys, cold_caches
    ):
        root = str(tmp_path / "cli-campaign")
        manifest = _manifest(tmp_path, root=root, executor="subprocess")
        manifest.save()
        # Resume with --executor local: must not spawn any subprocess.
        assert main(
            ["campaign", "resume", "--root", root, "--executor", "local",
             "--quiet"]
        ) == 0
        loaded = CampaignManifest.load(manifest.manifest_path())
        assert loaded.executor == "local"
