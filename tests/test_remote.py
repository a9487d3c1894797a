"""The worker executor tier: transports, shipping, failover, rebalancing.

The fleet's contract extends the campaign one: a campaign that lost a
host mid-shard must still promote a merged store byte-identical to a
clean single-process sweep, with the unfinished work rebalanced onto
survivors and *zero* duplicate emulations (the dead host's partial
store -- traces included -- is tarballed back and forward-shipped, or
on local worker slots simply left in place).  Fleet tests run over
:class:`LoopbackTransport`, so the entire ``--executor ssh`` code path
(forward-ship, spawn, heartbeat, tarball back, reshard) is exercised
with local subprocesses standing in for ssh; ``--executor subprocess``
runs the same executor over :class:`LocalTransport`.
"""

import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

from repro.__main__ import main
from repro.sweep import (
    CampaignError,
    CampaignManifest,
    LocalTransport,
    LoopbackTransport,
    RemoteExecutor,
    ResultStore,
    SshTransport,
    SweepInterrupted,
    TransportError,
    clear_memory_caches,
    dedupe,
    grid,
    point_from_dict,
    point_key,
    read_points_file,
    reshard_keys,
    resolve_transport,
    run_point,
    set_compute_budget,
    shard_assignment,
    sweep,
    write_points_file,
)
from repro.sweep.dispatch import FLEET_NAME, make_executor
from repro.sweep.engine import FAULT_ENV
from repro.sweep.transport import join_remote
from store_faults import segment_files

#: Same small shared-trace grid the campaign suite uses: 8 points over
#: 4 distinct traces, so trace-grouped sharding is non-trivial.
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
        shards=3,
        kernels=KERNELS,
        machines=MACHINES,
        ways=WAYS,
        executor="ssh",
        hosts=("alpha", "beta", "gamma"),
        transport="loopback",
        jobs=1,
    )
    kwargs.update(overrides)
    return CampaignManifest(**kwargs)


def _export_bytes(store):
    """The bytes of ``store.export`` (see test_campaign)."""
    with tempfile.TemporaryDirectory() as scratch:
        archive = os.path.join(scratch, "store.tar.gz")
        store.export(archive)
        with open(archive, "rb") as handle:
            return handle.read()


def _clean_reference(tmp_path, monkeypatch, points):
    """Single-process store for ``points`` in a fresh root."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "reference"))
    clear_memory_caches()
    sweep(points)
    clear_memory_caches()
    return ResultStore(tmp_path / "reference")


def _loopback(tmp_path):
    return LoopbackTransport(base=str(tmp_path / "lb"))


def _fleet_executor(manifest, transport, **overrides):
    kwargs = dict(
        hosts=manifest.hosts,
        transport=transport,
        poll_interval=0.05,
        timeout=300.0,
    )
    kwargs.update(overrides)
    return RemoteExecutor(**kwargs)


class TestTransports:
    def test_loopback_ships_files_and_runs_commands(self, tmp_path):
        t = _loopback(tmp_path)
        src = tmp_path / "a.txt"
        src.write_text("payload")
        remote = join_remote(t.scratch_root("host-1"), "dir", "a.txt")
        t.push("host-1", str(src), remote)
        assert t.mtime("host-1", remote) is not None
        back = tmp_path / "b.txt"
        t.pull("host-1", remote, str(back))
        assert back.read_text() == "payload"
        result = t.run("host-1", [sys.executable, "-c", "print('marco')"])
        assert result.returncode == 0
        assert "marco" in result.stdout
        assert t.mtime("host-1", remote + ".missing") is None
        with pytest.raises(TransportError):
            t.pull("host-1", remote + ".missing", str(back))

    def test_loopback_hosts_are_disjoint_directories(self, tmp_path):
        t = _loopback(tmp_path)
        assert t.host_dir("alpha") != t.host_dir("beta")
        # Hostile labels collapse to one safe path component.
        weird = t.host_dir("user@we ird/../host")
        assert weird.parent == t.base

    def test_ssh_argv_pins_shell_quoting(self):
        t = SshTransport()
        command = ["python3", "-m", "repro", "sweep", "--kernels", "a b;c"]
        argv = t.ssh_argv("fleet-1", command)
        assert argv[:2] == ["ssh", "-oBatchMode=yes"]
        assert argv[2] == "fleet-1"
        # The remote side is one shell word per ssh's own rules: the
        # joined string round-trips through shlex unchanged.
        assert argv[3] == shlex.join(command)
        assert shlex.split(argv[3]) == command

    def test_ssh_mtime_pins_one_remote_shell(self):
        t = SshTransport()
        remote = "/scratch/it's here/segments"
        argv = t.ssh_argv("fleet-1", t.mtime_command(remote))
        assert argv[:3] == ["ssh", "-oBatchMode=yes", "fleet-1"]
        sh, flag, script = shlex.split(argv[3])
        assert (sh, flag) == ("sh", "-c")
        assert script == (
            "p='/scratch/it'\"'\"'s here/segments'; "
            'if [ -d "$p" ]; then set -- "$p"/*; else set -- "$p"; fi; '
            '[ -e "$1" ] || exit 1; '
            'stat -c %Y "$@" 2>/dev/null || stat -f %m "$@"'
        )

    def test_ssh_mtime_script_reads_the_newest_file(self, tmp_path):
        """The remote script, run by a local shell: newest file wins."""
        script = SshTransport.mtime_command(str(tmp_path / "segs"))

        def run():
            result = subprocess.run(script, capture_output=True, text=True)
            lines = result.stdout.split()
            return max(map(float, lines)) if result.returncode == 0 else None

        assert run() is None  # missing
        (tmp_path / "segs").mkdir()
        assert run() is None  # empty: no first heartbeat
        for name, stamp in (("a.seg", 1000.0), ("b.seg", 5000.0)):
            (tmp_path / "segs" / name).write_bytes(b"x")
            os.utime(tmp_path / "segs" / name, (stamp, stamp))
        assert run() == 5000.0
        assert LocalTransport().mtime("local-1", str(tmp_path / "segs")) == 5000.0

    def test_resolve_transport(self, tmp_path):
        assert resolve_transport(None) is None
        t = _loopback(tmp_path)
        assert resolve_transport(t) is t
        assert isinstance(resolve_transport("ssh"), SshTransport)
        rooted = resolve_transport("loopback", root=str(tmp_path / "camp"))
        assert str(rooted.base).startswith(str(tmp_path / "camp"))
        with pytest.raises(ValueError, match="loopback"):
            resolve_transport("teleport")

    def test_store_tarball_round_trips_through_transport(
        self, tmp_path, cold_caches
    ):
        src = ResultStore(tmp_path / "src")
        run_point(GRID[0], store=src)
        t = _loopback(tmp_path)
        tar = tmp_path / "out.tar.gz"
        assert src.export(tar) == len(src)
        remote = join_remote(t.scratch_root("h"), "in.tar.gz")
        t.push("h", str(tar), remote)
        back = tmp_path / "back.tar.gz"
        t.pull("h", remote, str(back))
        dst = ResultStore(tmp_path / "dst")
        stats = dst.import_(back)
        assert stats.imported == len(src)
        assert _export_bytes(dst) == _export_bytes(src)


class TestPointsFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "points.json"
        write_points_file(path, GRID)
        assert read_points_file(path) == list(GRID)

    def test_junk_is_loud(self, tmp_path):
        with pytest.raises(ValueError, match="JSON object"):
            point_from_dict(["not", "a", "dict"])
        with pytest.raises(ValueError, match="invalid sweep point"):
            point_from_dict({"kernel": "ycc"})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(ValueError, match="JSON list"):
            read_points_file(path)

    def test_reshard_keys_partitions_exactly_the_named_keys(self):
        keys = [point_key(p) for p in GRID[:5]]
        pieces = reshard_keys(GRID, keys, 2)
        assert len(pieces) == 2
        flat = [p for piece in pieces for p in piece]
        assert sorted(point_key(p) for p in flat) == sorted(keys)
        # Pure function: a resumed orchestrator recomputes the same cut.
        assert reshard_keys(GRID, keys, 2) == pieces

    def test_reshard_keys_rejects_foreign_keys(self):
        with pytest.raises(ValueError, match="no matching point"):
            reshard_keys(GRID, ["deadbeef"], 2)

    def test_reshard_keys_empty(self):
        assert reshard_keys(GRID, [], 3) == [[], [], []]


class TestFaultInjection:
    def test_after_k_kills_the_matching_shard(
        self, tmp_path, monkeypatch, cold_caches
    ):
        monkeypatch.setenv(FAULT_ENV, "1:after_1")
        store = ResultStore(tmp_path / "s")
        with pytest.raises(SweepInterrupted):
            sweep(GRID, store=store, shard=(0, 2))
        # The budget hook is restored even though the sweep died.
        assert set_compute_budget(None) is None
        # Everything the dead worker finished is already persisted --
        # its one computed point's record and that point's trace, the
        # currency the rebalanced survivors warm-start from.
        kinds = [store.peek(key)["kind"] for key in store.iter_keys()]
        assert kinds.count("kernel-timing") == 1
        assert kinds.count("trace") == 1

    def test_fault_ignores_other_shards_and_points_file_workers(
        self, tmp_path, monkeypatch, cold_caches
    ):
        monkeypatch.setenv(FAULT_ENV, "2:after_0")
        store = ResultStore(tmp_path / "s")
        report = sweep(GRID, store=store, shard=(0, 2))
        assert report.total > 0  # shard 1 ran to completion
        # No shard spec (the rebalanced --points-file path): no match.
        report = sweep(GRID[:1], store=store)
        assert report.total == 1

    @pytest.mark.parametrize(
        "bad", ["nonsense", "after_1", "0:after_1", "1:after_-1", "1:boom"]
    )
    def test_malformed_fault_is_loud(
        self, tmp_path, monkeypatch, cold_caches, bad
    ):
        monkeypatch.setenv(FAULT_ENV, bad)
        with pytest.raises(ValueError, match=FAULT_ENV):
            sweep(GRID[:1], store=None, shard=(0, 1))


class TestHeartbeatGrace:
    """The first-heartbeat blind spot, failing-before / passing-after.

    Before the grace deadline existed, ``heartbeat_window`` keyed off
    the mtime of what the worker had written -- and a worker that hung
    *before its first write* (during import or trace emulation) was
    invisible to it forever; only a whole-shard wall-clock timeout
    would ever fire.
    """

    def _subprocess_manifest(self, tmp_path):
        return _manifest(
            tmp_path, executor="subprocess", hosts=(), transport="ssh",
            shards=1, kernels=("ycc",), machines=("mmx64",), ways=(2,),
            max_attempts=1,
        )

    def _heartbeat(self, manifest):
        """The heartbeat path: the shard store's segment directory."""
        return ResultStore(manifest.shard_root(0)).segments_dir

    def test_silent_worker_was_invisible_without_the_grace_deadline(
        self, tmp_path
    ):
        manifest = self._subprocess_manifest(tmp_path)
        heartbeat = str(self._heartbeat(manifest))
        # The pre-fix behaviour: no store write ever appears, and the
        # mtime-based heartbeat never declares the attempt dead no
        # matter how long it has been silent.
        blind = make_executor(manifest, heartbeat_window=None)
        assert blind._overdue(
            "local-1", heartbeat, elapsed=1e9, launched=time.time()
        ) is None

    def test_grace_deadline_catches_the_silent_worker(self, tmp_path):
        manifest = self._subprocess_manifest(tmp_path)
        heartbeat = str(self._heartbeat(manifest))
        ex = make_executor(manifest, heartbeat_window=0.5)
        assert isinstance(ex.transport, LocalTransport)
        launched = time.time()
        assert ex._overdue(
            "local-1", heartbeat, elapsed=0.1, launched=launched
        ) is None
        why = ex._overdue("local-1", heartbeat, elapsed=1.0, launched=launched)
        assert why is not None and "no first heartbeat" in why

    def test_stalled_checkpoint_is_declared_dead(
        self, tmp_path, cold_caches
    ):
        """A shard store whose segments stop moving past the window is
        a stalled heartbeat: the store is the shard's checkpoint."""
        manifest = self._subprocess_manifest(tmp_path)
        store = ResultStore(manifest.shard_root(0))
        sweep(manifest.points(), store=store, shard=(0, 1))
        path = self._heartbeat(manifest)
        segments = [path / name for name in segment_files(store)]
        assert segments
        ex = make_executor(manifest, heartbeat_window=0.5)
        # A worker launched at the epoch: every write is its own.
        for segment in segments:
            os.utime(segment)  # fresh heartbeat
        assert ex._overdue("local-1", str(path), elapsed=1e9, launched=0.0) is None
        for segment in segments:
            os.utime(segment, (1.0, 1.0))  # decades stale
        why = ex._overdue("local-1", str(path), elapsed=1e9, launched=0.0)
        assert why is not None and "heartbeat stalled" in why

    def test_writes_before_launch_are_no_heartbeat(
        self, tmp_path, cold_caches
    ):
        """A store written before the worker started -- a killed
        attempt, a forward-shipped import -- gives it the grace period
        from launch, not a stale heartbeat."""
        manifest = self._subprocess_manifest(tmp_path)
        store = ResultStore(manifest.shard_root(0))
        sweep(manifest.points(), store=store, shard=(0, 1))
        path = str(self._heartbeat(manifest))
        for name in segment_files(store):
            os.utime(os.path.join(path, name), (1.0, 1.0))  # decades stale
        ex = make_executor(manifest, heartbeat_window=0.5)
        assert ex._overdue("local-1", path, elapsed=0.1, launched=2.0) is None
        why = ex._overdue("local-1", path, elapsed=1.0, launched=2.0)
        assert why is not None and "no first heartbeat" in why

    def test_rebalance_into_a_stalled_store_gets_grace(
        self, tmp_path, monkeypatch, cold_caches
    ):
        """Local worker slots resume a dead shard in its own store, whose
        segments the dead worker last wrote longer ago than the window
        (as a shard killed for a stalled heartbeat leaves them): the
        rebalance pieces still get their grace period, finish, and the
        campaign promotes."""
        reference = _clean_reference(tmp_path, monkeypatch, GRID)
        monkeypatch.setenv(FAULT_ENV, "2:after_1")
        manifest = _manifest(tmp_path, executor="subprocess")
        executor = RemoteExecutor(
            hosts=["local-1", "local-2", "local-3"],
            transport=StaleStoreTransport(),
            poll_interval=0.05,
            timeout=300.0,
            heartbeat_window=30.0,
        )
        report = run_campaign_quiet(manifest, executor)
        assert report.ok, report.error
        assert executor.dead_hosts == {"local-2"}
        assert _export_bytes(ResultStore(report.merged_root)) == _export_bytes(
            reference
        )
        log_text = manifest.log_path(1).read_text()
        assert "rebalancing" in log_text
        assert "heartbeat" not in log_text

    def test_hung_worker_end_to_end(
        self, tmp_path, monkeypatch, cold_caches
    ):
        from repro.sweep import run_campaign

        monkeypatch.setenv(FAULT_ENV, "1:hang")
        manifest = self._subprocess_manifest(tmp_path)
        ex = make_executor(
            manifest, poll_interval=0.05, timeout=120.0, heartbeat_window=1.0
        )
        report = run_campaign(manifest, executor=ex)
        assert not report.ok
        assert "no first heartbeat" in (report.shards[0].error or "")


class StaleStoreTransport(LocalTransport):
    """Local worker slots whose rebalanced shard store looks stalled.

    Before a ``--points-file`` worker starts, the segments of the store
    it resumes are dated an hour back.
    """

    def spawn(self, host, command, stdout):
        if "--points-file" in command:
            store = ResultStore(command[command.index("--store") + 1])
            stale = time.time() - 3600
            for name in segment_files(store):
                os.utime(os.path.join(store.segments_dir, name), (stale, stale))
        return super().spawn(host, command, stdout)


class ExportBlindTransport(LoopbackTransport):
    """Loopback where one host's store exports always fail.

    Models a host whose disk died between computing and shipping: the
    worker exits clean but nothing can be tarballed back, so the
    attempt must count as failed and the work must be recomputed
    elsewhere.
    """

    def __init__(self, base, victim):
        super().__init__(base=base)
        self.victim = victim

    def run(self, host, command, timeout=None):
        if host == self.victim and "export" in command:
            return subprocess.CompletedProcess(
                list(command), 1, stdout="", stderr="injected export failure"
            )
        return super().run(host, command, timeout=timeout)


class UnreachableTransport(LoopbackTransport):
    """Loopback where one host is unreachable from the very first RPC.

    Models a host that fell over between manifest authoring and campaign
    launch: every command to it fails at the transport layer.  The
    command log lets tests assert exactly what was attempted against it.
    """

    def __init__(self, base, victim):
        super().__init__(base=base)
        self.victim = victim
        self.commands = []

    def run(self, host, command, timeout=None):
        self.commands.append((host, list(command)))
        if host == self.victim:
            raise TransportError(f"injected: host {host!r} unreachable")
        return super().run(host, command, timeout=timeout)


class ScpCopyTransport(LoopbackTransport):
    """Loopback whose copies behave like ``scp``: no directory is created.

    ``scp`` refuses a destination whose parent directory does not
    exist.  The plain loopback creates parents, so an executor that
    copies into a directory it never made passes on loopback and fails
    on a real fleet; this transport fails it in the tests too.
    """

    def push(self, host, local, remote):
        self._copy(host, local, remote)

    def pull(self, host, remote, local):
        self._copy(host, remote, local)

    @staticmethod
    def _copy(host, source, destination):
        try:
            shutil.copyfile(source, destination)
        except OSError as exc:
            raise TransportError(f"scp via {host} failed: {exc}") from exc


class TestHostHealthProbe:
    def test_unreachable_host_is_probed_dead_before_any_dispatch(
        self, tmp_path, monkeypatch, cold_caches
    ):
        """The loopback pin for the probe fix: a host that is down at
        launch is marked dead by the one-command health probe, so no
        shard ever pays a failed dispatch-and-supervise attempt to it."""
        reference = _clean_reference(tmp_path, monkeypatch, GRID)
        manifest = _manifest(tmp_path)
        transport = UnreachableTransport(str(tmp_path / "lb"), victim="beta")
        executor = _fleet_executor(manifest, transport)
        report = run_campaign_quiet(manifest, executor)
        assert report.ok, report.error
        assert executor.dead_hosts == {"beta"}
        # The campaign still produced the byte-identical store...
        merged = ResultStore(report.merged_root)
        assert _export_bytes(merged) == _export_bytes(reference)
        # ...and the ONLY traffic the dead host ever saw was the single
        # health-probe command -- zero shard dispatch attempts.
        to_victim = [cmd for host, cmd in transport.commands if host == "beta"]
        assert len(to_victim) == 1
        assert to_victim[0][-2:] == ["-c", "pass"]
        log_text = manifest.log_path(0).read_text()
        assert "health probe failed" in log_text

    def test_probe_runs_once_per_campaign(self, tmp_path, cold_caches):
        manifest = _manifest(tmp_path, shards=2, hosts=("alpha", "bravo"))
        transport = UnreachableTransport(str(tmp_path / "lb"), victim=None)
        executor = _fleet_executor(manifest, transport)
        executor._probe_hosts(manifest, 0, lambda i, m: None)
        executor._probe_hosts(manifest, 0, lambda i, m: None)
        probes = [
            (host, cmd) for host, cmd in transport.commands
            if cmd[-2:] == ["-c", "pass"]
        ]
        assert [host for host, _ in probes] == ["alpha", "bravo"]
        assert executor.dead_hosts == set()


class TestFleetFailover:
    @pytest.mark.parametrize(
        "executor_name,hosts",
        [
            ("subprocess", ["local-1", "local-2", "local-3"]),
            ("ssh", ["alpha", "beta", "gamma"]),
        ],
        ids=["subprocess", "ssh"],
    )
    def test_dead_host_rebalances_onto_survivors_byte_identical(
        self, tmp_path, monkeypatch, cold_caches, executor_name, hosts
    ):
        """The tentpole: the host (or local worker slot) running shard 2
        dies after one point, the campaign still promotes a store
        byte-identical to a clean run, with zero duplicate emulations on
        the survivors."""
        reference = _clean_reference(tmp_path, monkeypatch, GRID)
        # Shard 2 (index 1) round-robins onto the second host; it dies
        # after its first computed point, past its traces and one timing.
        monkeypatch.setenv(FAULT_ENV, "2:after_1")
        manifest = _manifest(tmp_path, executor=executor_name)
        executor = make_executor(manifest, poll_interval=0.05, timeout=300.0)
        report = run_campaign_quiet(manifest, executor)
        assert report.ok, report.error
        assert executor.dead_hosts == {hosts[1]}
        merged = ResultStore(report.merged_root)
        assert _export_bytes(merged) == _export_bytes(reference)
        log_text = manifest.log_path(1).read_text()
        assert "rebalancing" in log_text
        assert "marked dead" in log_text
        # Zero duplicate emulations: every rebalanced worker found its
        # traces in the dead shard's partial store.  The only sweep
        # summaries in the shard log are the rebalance workers' (the
        # dead worker never printed one).
        summaries = [
            line for line in log_text.splitlines() if "emulated" in line
        ]
        assert summaries
        assert all("0 emulated" in line for line in summaries)
        # Fleet telemetry recorded the casualty.
        fleet = json.loads(
            (tmp_path / "campaign" / FLEET_NAME).read_text()
        )
        assert fleet["dead"] == [hosts[1]]
        assert fleet["hosts"] == hosts

    @pytest.mark.parametrize("shards", [3, 2])
    def test_store_shipping_survives_scp_copy_semantics(
        self, tmp_path, monkeypatch, cold_caches, shards
    ):
        """Copies that create no directories still ship every store.

        Every ship-back pulls a tarball into the campaign root, and it
        must be one path component there.  With 2 shards over 3 hosts
        the rebalance also stages onto gamma, which has not run a shard
        yet, so its campaign directory must exist before that push.
        """
        reference = _clean_reference(tmp_path, monkeypatch, GRID)
        monkeypatch.setenv(FAULT_ENV, "2:after_1")
        manifest = _manifest(tmp_path, shards=shards)
        transport = ScpCopyTransport(str(tmp_path / "lb"))
        executor = _fleet_executor(manifest, transport)
        report = run_campaign_quiet(manifest, executor)
        assert report.ok, report.error
        assert executor.dead_hosts == {"beta"}
        merged = ResultStore(report.merged_root)
        assert _export_bytes(merged) == _export_bytes(reference)
        leftovers = [
            p.name for p in (tmp_path / "campaign").iterdir()
            if p.name.startswith("ship-")
        ]
        assert leftovers == []

    def test_partial_ship_failure_recovers_by_recomputing(
        self, tmp_path, monkeypatch, cold_caches
    ):
        points = grid(("ycc",), MACHINES, (2,))
        reference = _clean_reference(tmp_path, monkeypatch, points)
        manifest = _manifest(
            tmp_path, shards=2, hosts=("alpha", "beta"),
            kernels=("ycc",), ways=(2,),
        )
        transport = ExportBlindTransport(str(tmp_path / "lb"), victim="beta")
        executor = _fleet_executor(manifest, transport)
        report = run_campaign_quiet(manifest, executor)
        assert report.ok, report.error
        assert "beta" in executor.dead_hosts
        merged = ResultStore(report.merged_root)
        assert _export_bytes(merged) == _export_bytes(reference)

    def test_no_live_hosts_fails_loudly(self, tmp_path, cold_caches):
        manifest = _manifest(tmp_path, shards=2, hosts=("alpha",))
        executor = _fleet_executor(manifest, _loopback(tmp_path))
        executor.dead_hosts.add("alpha")
        outcomes = executor.run_shards(
            manifest, [0, 1], manifest.points(), lambda i, m: None
        )
        assert all(not o.ok for o in outcomes.values())
        assert "no live hosts left" in outcomes[0].error

    def test_duplicate_or_empty_hosts_rejected(self):
        with pytest.raises(CampaignError, match="at least one host"):
            RemoteExecutor(hosts=())
        with pytest.raises(CampaignError, match="repeats"):
            RemoteExecutor(hosts=("a", "a"))


def run_campaign_quiet(manifest, executor):
    from repro.sweep import run_campaign

    return run_campaign(manifest, executor=executor)


class TestCli:
    @pytest.mark.parametrize(
        "flag,value",
        [("--timeout", "0"), ("--poll-interval", "-1"),
         ("--heartbeat-window", "0")],
    )
    def test_supervision_flags_must_be_positive(
        self, capsys, flag, value
    ):
        code = main([
            "campaign", "run", "--kernels", "ycc", flag, value,
        ])
        assert code == 1
        assert flag in capsys.readouterr().out

    def test_remote_executor_needs_hosts(self, tmp_path, capsys):
        code = main([
            "campaign", "run", "--kernels", "ycc", "--executor", "ssh",
            "--root", str(tmp_path / "c"),
        ])
        assert code == 1
        assert "hosts" in capsys.readouterr().out

    def test_fleet_campaign_end_to_end(
        self, tmp_path, monkeypatch, cold_caches, capsys
    ):
        root = str(tmp_path / "fleet")
        argv = [
            "campaign", "run", "--kernels", "ycc",
            "--machines", "mmx64,vmmx128", "--ways", "2",
            "--shards", "2", "--executor", "ssh",
            "--transport", "loopback", "--hosts", "alpha,beta",
            "--root", root, "--quiet",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "promoted" in out
        # The manifest recorded the fleet policy; status shows the host
        # column read back from fleet.json in a fresh process.
        saved = json.loads(
            (tmp_path / "fleet" / "campaign.json").read_text()
        )
        assert saved["hosts"] == ["alpha", "beta"]
        assert saved["transport"] == "loopback"
        assert main(["campaign", "status", "--root", root]) == 0
        status_out = capsys.readouterr().out
        assert ", on alpha" in status_out or ", on beta" in status_out

    def test_sweep_points_file(self, tmp_path, cold_caches, capsys):
        path = tmp_path / "points.json"
        write_points_file(path, GRID[:1])
        store = str(tmp_path / "store")
        assert main([
            "sweep", "--points-file", str(path), "--store", store,
            "--quiet",
        ]) == 0
        assert "1 points" in capsys.readouterr().out
        # Mutually exclusive with the axis flags.
        assert main([
            "sweep", "--points-file", str(path), "--grid", "fig4",
        ]) == 1
        assert "--grid" in capsys.readouterr().out
        # Junk file is a clean exit, not a traceback.
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["sweep", "--points-file", str(bad)]) == 1
        assert "points file" in capsys.readouterr().out
