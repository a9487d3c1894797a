"""The supervised campaign executor: shard workers on hosts over a Transport.

:class:`RemoteExecutor` runs each campaign shard on a host reached over
a pluggable :class:`~repro.sweep.transport.Transport`: the shard's store
(if it already holds anything) is tarballed forward so the worker
warm-starts, the exact :func:`~repro.sweep.dispatch.shard_command` line
runs on the host, supervision polls the worker *and* the newest mtime
of its store's segment files, and whatever the worker produced -- complete or
partial -- is tarballed back and imported into the local shard store.
Over :class:`~repro.sweep.transport.LocalTransport` (``--executor
subprocess``) the hosts are worker slots sharing this filesystem:
workers write the shard stores in place and nothing ships.  Store
completeness stays the only ground truth; transports and hosts are just
where the compute happened.

A host that times out, misses its heartbeat window, or whose worker
exits nonzero is marked **dead** for the rest of the campaign.  The
orchestrator then calls :meth:`RemoteExecutor.run_subsets` with the dead
shard's *unfinished* points re-partitioned over the survivors
(:func:`repro.sweep.points.reshard_keys` over ``ResultStore.missing``):
finished records arrived in the partial tarball and are never recomputed,
and the forward-ship hands survivors the dead host's trace records, so
failover costs zero duplicate emulations.

Fleet state (which host ran which shard, who is dead) persists to
``<root>/fleet.json`` so ``campaign status`` can show a host column from
another process.
"""

from __future__ import annotations

import json
import os
import posixpath
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.sweep.dispatch import (
    CampaignError,
    CampaignManifest,
    Executor,
    FLEET_NAME,
    ShardOutcome,
    shard_command,
)
from repro.sweep.points import (
    SweepPoint,
    shard_assignment,
    write_points_file,
)
from repro.sweep.store import SEGMENTS_DIR, ResultStore
from repro.sweep.transport import (
    SshTransport,
    Transport,
    TransportError,
    join_remote,
)


@dataclass
class _Flight:
    """One remote worker under supervision."""

    key: object                 # outcome key: shard index or (index, piece)
    index: int                  # campaign shard the results belong to
    host: str
    proc: subprocess.Popen
    handle: object              # open shard-log file the worker streams into
    remote_store: str           # remote store root to tarball back
    heartbeat: str              # remote segment directory of the store
    label: str
    launched: float             # wall clock just before the spawn
    started: float = field(default_factory=time.monotonic)


class RemoteExecutor(Executor):
    """Supervised shard workers on ``hosts``, reached over ``transport``.

    ``--executor ssh`` builds one over the manifest's hosts and
    transport (:class:`~repro.sweep.transport.SshTransport` by
    default); ``--executor subprocess`` builds one with a worker slot
    per shard over :class:`~repro.sweep.transport.LocalTransport`.
    ``timeout`` (seconds of wall clock per attempt) and
    ``heartbeat_window`` (seconds of store silence, the wait for the
    first write included) kill a worker and mark its host dead.
    """

    #: The orchestrator offers rebalancing (``run_subsets``) to
    #: executors that advertise it.
    elastic = True

    def __init__(
        self,
        hosts: Sequence[str],
        transport: Optional[Transport] = None,
        poll_interval: Optional[float] = None,
        timeout: Optional[float] = None,
        heartbeat_window: Optional[float] = None,
    ) -> None:
        hosts = [str(h) for h in hosts if str(h).strip()]
        if not hosts:
            raise CampaignError(
                "the executor needs at least one host; pass --hosts a,b,c "
                "or set \"hosts\" in the campaign manifest"
            )
        if len(set(hosts)) != len(hosts):
            raise CampaignError(
                f"the executor host list repeats a host: {', '.join(hosts)}"
            )
        self.hosts = hosts
        self.transport = transport if transport is not None else SshTransport()
        self.poll_interval = 0.5 if poll_interval is None else poll_interval
        self.timeout = timeout
        self.heartbeat_window = heartbeat_window
        #: Hosts declared dead this campaign (timeout, missed heartbeat,
        #: failed attempt).  Never resurrected: a flaky host that cost
        #: one shard does not get handed another.
        self.dead_hosts: set = set()
        self._shard_hosts: Dict[int, Dict[str, str]] = {}
        self._probed = False

    def live_hosts(self) -> List[str]:
        """Declared hosts not yet marked dead, in manifest order."""
        return [h for h in self.hosts if h not in self.dead_hosts]

    def _probe_hosts(self, manifest: CampaignManifest, index: int, log) -> None:
        """Health-probe every live host once, before the first dispatch.

        A cheap ``python -c pass`` round-trip per host: a host that is
        unreachable (or whose interpreter is broken) is marked dead up
        front, so no shard pays a full failed dispatch-and-supervise
        attempt to discover it.  A host that answers then gets its
        campaign directory created, because ``scp`` creates no
        directories and every later push lands in it.  Runs once per
        campaign; hosts that die *later* are caught by supervision.
        """
        if self._probed:
            return
        self._probed = True
        for host in self.live_hosts():
            for command in (
                [self.transport.python(host), "-c", "pass"],
                ["mkdir", "-p", self._remote_root(host, manifest)],
            ):
                try:
                    result = self.transport.run(host, command)
                except (TransportError, OSError) as exc:
                    self._mark_dead(
                        host, manifest, index, f"health probe failed: {exc}",
                        log,
                    )
                    break
                if result.returncode != 0:
                    self._mark_dead(
                        host, manifest, index,
                        f"health probe exited {result.returncode}", log,
                    )
                    break

    # -- fleet state ------------------------------------------------------

    def _mark_dead(self, host: str, manifest: CampaignManifest,
                   index: int, why: str, log) -> None:
        if host not in self.dead_hosts:
            self.dead_hosts.add(host)
            log(index, f"host {host} marked dead: {why}")
        self._record_fleet(manifest)

    def _record_fleet(self, manifest: CampaignManifest) -> None:
        """Persist host assignments + dead set to ``<root>/fleet.json``.

        Atomic same-directory replace, like every other campaign file;
        best-effort because fleet state is telemetry, never truth.
        """
        root = Path(os.path.expanduser(str(manifest.root)))
        payload = {
            "schema": 1,
            "executor": manifest.executor,
            "transport": getattr(self.transport, "name", "custom"),
            "hosts": list(self.hosts),
            "dead": sorted(self.dead_hosts),
            "shards": {
                str(ordinal): dict(entry)
                for ordinal, entry in sorted(self._shard_hosts.items())
            },
        }
        try:
            root.mkdir(parents=True, exist_ok=True)
            tmp = root / (FLEET_NAME + ".tmp")
            with open(tmp, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, root / FLEET_NAME)
        except OSError:  # pragma: no cover - telemetry is best-effort
            pass

    def _note_shard(self, manifest: CampaignManifest, index: int,
                    host: str, state: str) -> None:
        entry = self._shard_hosts.setdefault(index + 1, {})
        entry["host"] = host
        entry["state"] = state
        self._record_fleet(manifest)

    # -- store shipping ---------------------------------------------------

    def _remote_root(self, host: str, manifest: CampaignManifest) -> str:
        """The campaign root a worker on ``host`` writes its store under.

        On a shared filesystem that is the campaign root itself, so
        workers fill the shard stores in place; otherwise it is a
        per-campaign directory in the host's scratch.
        """
        if self.transport.shares_filesystem:
            return str(Path(os.path.expanduser(str(manifest.root))))
        return join_remote(
            self.transport.scratch_root(host),
            f"campaign-{manifest.fingerprint()[:12]}",
        )

    def _store_cli(self, host: str, store_root: str, verb: str,
                   archive: str) -> subprocess.CompletedProcess:
        return self.transport.run(
            host,
            [self.transport.python(host), "-m", "repro", "store",
             "--store-root", store_root, verb, archive],
        )

    def _ship_forward(self, host: str, local_store: ResultStore,
                      remote_store: str, index: int, log) -> None:
        """Seed the remote store with everything the local shard already has.

        This is what makes retries and rebalancing free of duplicate
        work: the remote worker reads the shipped records (timings
        *and* traces), so it only computes what is genuinely missing.
        An empty local store ships nothing, and neither does a shared
        filesystem, where the worker writes ``local_store`` itself.
        """
        if self.transport.shares_filesystem or not any(
            True for _ in local_store.iter_keys()
        ):
            return
        local_tar = Path(str(local_store.root) + ".ship.tar.gz")
        records = local_store.export(local_tar)
        remote_tar = remote_store + ".inbound.tar.gz"
        try:
            self.transport.push(host, str(local_tar), remote_tar)
            result = self._store_cli(host, remote_store, "import", remote_tar)
            if result.returncode != 0:
                raise TransportError(
                    f"remote import exited {result.returncode}: "
                    f"{(result.stderr or result.stdout or '').strip()}"
                )
            log(index, f"forward-shipped {records} record(s) to {host}")
        finally:
            try:
                local_tar.unlink()
            except OSError:
                pass

    def _ship_back(self, flight: _Flight, manifest: CampaignManifest,
                   log) -> bool:
        """Tarball the remote store back and import it into the local shard.

        Runs after *every* worker exit, clean or not: a partial store
        from a dying host is exactly what rebalancing needs (finished
        keys imported, only the remainder re-sharded).  Returns False
        when nothing could be recovered -- the shard simply recomputes,
        correctness is untouched.  On a shared filesystem the worker
        wrote the local shard store itself, so there is nothing to ship.
        """
        if self.transport.shares_filesystem:
            return True
        remote_tar = flight.remote_store + ".outbound.tar.gz"
        # Named after the remote store ("shard-2-of-3",
        # "rebalance-shard-2-piece-1"): one path component, which scp
        # can write without creating directories.
        local_tar = Path(os.path.expanduser(str(manifest.root))) / (
            f"ship-{posixpath.basename(flight.remote_store)}.tar.gz"
        )
        try:
            result = self._store_cli(
                flight.host, flight.remote_store, "export", remote_tar
            )
            if result.returncode != 0:
                raise TransportError(
                    f"remote export exited {result.returncode}: "
                    f"{(result.stderr or result.stdout or '').strip()}"
                )
            self.transport.pull(flight.host, remote_tar, str(local_tar))
            stats = ResultStore(manifest.shard_root(flight.index)).import_(
                local_tar
            )
            log(
                flight.index,
                f"shipped store back from {flight.host}: {stats.summary()}",
            )
            return True
        except (TransportError, OSError, ValueError) as exc:
            log(
                flight.index,
                f"could not ship store back from {flight.host}: {exc}; "
                "unfinished work will be recomputed",
            )
            return False
        finally:
            try:
                local_tar.unlink()
            except OSError:
                pass

    # -- supervision ------------------------------------------------------

    def _supervise(self, flights: List[_Flight], manifest: CampaignManifest,
                   log) -> Dict[object, ShardOutcome]:
        """Poll flights to completion: exit codes, timeouts, heartbeats.

        The heartbeat is the newest mtime among the segment files of the
        worker's store on the *remote* side, polled through the
        transport: every record the worker saves appends to one.  Writes
        from before the launch -- a forward-shipped import, an earlier
        attempt, the dead worker whose shard a rebalance piece resumes in
        place -- are not this worker's.  A worker that has written
        nothing yet gets ``heartbeat_window`` seconds of grace from
        launch (a hang during import or trace emulation writes nothing,
        so absence past the grace deadline *is* the signal); after the
        first write, the same window bounds staleness.  Workers sharing
        one store (rebalance pieces on a shared filesystem) share its
        heartbeat, so one that hangs is caught once its siblings stop
        writing, or by ``timeout``.
        """
        outcomes: Dict[object, ShardOutcome] = {}
        pending = list(flights)
        while pending:
            for flight in list(pending):
                returncode = flight.proc.poll()
                elapsed = time.monotonic() - flight.started
                if returncode is None:
                    why = self._overdue(
                        flight.host, flight.heartbeat, elapsed,
                        launched=flight.launched,
                    )
                    if why is None:
                        continue
                    flight.proc.kill()
                    flight.proc.wait()
                    self._ship_back(flight, manifest, log)
                    outcomes[flight.key] = ShardOutcome(
                        flight.index, False, elapsed=elapsed,
                        error=why, host=flight.host,
                    )
                    log(flight.index, f"{flight.label}: {why}")
                    self._mark_dead(flight.host, manifest, flight.index,
                                    why, log)
                    self._note_shard(manifest, flight.index, flight.host,
                                     "failed")
                    pending.remove(flight)
                    continue
                ok = returncode == 0
                shipped = self._ship_back(flight, manifest, log)
                ok = ok and shipped
                error = None
                if not ok:
                    error = (
                        f"worker exited {returncode}" if returncode
                        else "store ship-back failed"
                    )
                outcomes[flight.key] = ShardOutcome(
                    flight.index, ok, elapsed=elapsed,
                    error=error, host=flight.host,
                )
                log(
                    flight.index,
                    f"{flight.label} on {flight.host} exited {returncode} "
                    f"after {elapsed:.1f}s",
                )
                if not ok:
                    self._mark_dead(flight.host, manifest, flight.index,
                                    error, log)
                self._note_shard(manifest, flight.index, flight.host,
                                 "complete" if ok else "failed")
                pending.remove(flight)
            if pending:
                time.sleep(self.poll_interval)
        for flight in flights:
            try:
                flight.handle.close()
            except OSError:  # pragma: no cover - defensive
                pass
        return outcomes

    def _overdue(self, host: str, heartbeat: str, elapsed: float, *,
                 launched: float) -> Optional[str]:
        """Why a worker still running on ``host`` must be killed, or None.

        ``heartbeat`` is the path, on ``host``, of the worker store's
        segment directory; ``elapsed`` is seconds since launch and
        ``launched`` the wall-clock launch time: a segment last written
        no later than that is no heartbeat of this worker.
        """
        if self.timeout is not None and elapsed > self.timeout:
            return f"timed out after {self.timeout:.0f}s (killed)"
        if self.heartbeat_window is None:
            return None
        beat = self.transport.mtime(host, heartbeat)
        if beat is None or beat <= launched:
            if elapsed > self.heartbeat_window:
                return (
                    f"no first heartbeat within {self.heartbeat_window:.1f}s "
                    "of launch (worker wrote no record -- hung during "
                    "import or trace emulation); attempt declared dead"
                )
            return None
        age = time.time() - beat
        if age > self.heartbeat_window:
            return (
                f"heartbeat stalled: store untouched for {age:.1f}s "
                f"(window {self.heartbeat_window:.1f}s); attempt declared dead"
            )
        return None

    @staticmethod
    def _heartbeat_path(remote_store: str) -> str:
        return join_remote(remote_store, SEGMENTS_DIR)

    # -- the Executor contract --------------------------------------------

    def run_shards(self, manifest, indices, points, log):
        assignment = shard_assignment(points, manifest.shards)
        indices = list(indices)
        if indices:
            self._probe_hosts(manifest, indices[0], log)
        live = self.live_hosts()
        outcomes: Dict[int, ShardOutcome] = {}
        if not live:
            for index in indices:
                outcomes[index] = ShardOutcome(
                    index, False,
                    error=f"no live hosts left ({len(self.dead_hosts)} dead: "
                          f"{', '.join(sorted(self.dead_hosts))})",
                )
            return outcomes
        flights: List[_Flight] = []
        for position, index in enumerate(indices):
            host = live[position % len(live)]
            remote_root = self._remote_root(host, manifest)
            remote_store = join_remote(
                remote_root, f"shard-{index + 1}-of-{manifest.shards}"
            )
            try:
                self._ship_forward(
                    host, ResultStore(manifest.shard_root(index)),
                    remote_store, index, log,
                )
            except TransportError as exc:
                log(index, f"forward-ship to {host} failed ({exc}); "
                           "worker starts cold")
            cmd = shard_command(manifest, index, store_root=remote_root)
            cmd[0] = self.transport.python(host)
            log(index, f"dispatching to {host} via {self.transport.name}: "
                       f"{' '.join(cmd)}")
            handle = open(manifest.log_path(index), "a")
            launched = time.time()
            flights.append(_Flight(
                key=index,
                index=index,
                host=host,
                proc=self.transport.spawn(host, cmd, handle),
                handle=handle,
                remote_store=remote_store,
                heartbeat=self._heartbeat_path(remote_store),
                label=f"shard {index + 1}/{manifest.shards}",
                launched=launched,
            ))
            self._note_shard(manifest, index, host, "running")
        return self._supervise(flights, manifest, log)

    # -- elastic rebalancing ----------------------------------------------

    def run_subsets(
        self,
        manifest: CampaignManifest,
        index: int,
        pieces: Sequence[Sequence[SweepPoint]],
        log,
    ) -> Dict[object, ShardOutcome]:
        """Run re-sharded subsets of shard ``index`` on surviving hosts.

        Each non-empty piece becomes a ``sweep --points-file`` worker on
        one survivor, warm-started with the dead shard's partial store
        (forward-ship), its results tarballed back into the dead shard's
        *local* store root -- or, on a shared filesystem, written
        straight into it -- so progress accounting, merge and promotion
        never learn that the work moved hosts.
        """
        self._probe_hosts(manifest, index, log)
        live = self.live_hosts()
        if not live:
            return {}
        work = [(j, piece) for j, piece in enumerate(pieces) if piece]
        local_store = ResultStore(manifest.shard_root(index))
        logs_dir = Path(os.path.expanduser(str(manifest.root))) / "logs"
        logs_dir.mkdir(parents=True, exist_ok=True)
        flights: List[_Flight] = []
        for j, piece in work:
            host = live[j % len(live)]
            label = f"rebalance shard {index + 1} piece {j + 1}/{len(pieces)}"
            name = f"rebalance-shard-{index + 1}-piece-{j + 1}"
            points_file = logs_dir / f"{name}.points.json"
            write_points_file(points_file, piece)
            if self.transport.shares_filesystem:
                remote_store = str(local_store.root)
                remote_points = str(points_file)
            else:
                remote_store = join_remote(
                    self._remote_root(host, manifest), name
                )
                remote_points = remote_store + ".points.json"
            try:
                self._ship_forward(host, local_store, remote_store, index, log)
                self.transport.push(host, str(points_file), remote_points)
            except TransportError as exc:
                log(index, f"{label}: could not stage onto {host} ({exc})")
                self._mark_dead(host, manifest, index, str(exc), log)
                continue
            cmd = [
                self.transport.python(host), "-m", "repro", "sweep",
                "--points-file", remote_points,
                "--store", remote_store,
                "--jobs", str(manifest.jobs),
                "--quiet",
            ]
            log(index, f"{label} -> {host}: {' '.join(cmd)}")
            handle = open(manifest.log_path(index), "a")
            launched = time.time()
            flights.append(_Flight(
                key=(index, j),
                index=index,
                host=host,
                proc=self.transport.spawn(host, cmd, handle),
                handle=handle,
                remote_store=remote_store,
                heartbeat=self._heartbeat_path(remote_store),
                label=label,
                launched=launched,
            ))
        return self._supervise(flights, manifest, log)

