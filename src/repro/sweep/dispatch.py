"""Campaign orchestration: dispatch shards, supervise, retry, merge.

A **campaign** is one design-space grid executed as ``N`` shards, each
shard a resumable :func:`repro.sweep.engine.sweep` into its own store
root (the PR-4 layout ``<root>/shard-i-of-N``).  This module adds the
layer that PR 4 left as a hook: something that *launches* the shards,
watches their heartbeats, retries the ones that die, and reunifies the
result.

The moving parts:

* :class:`CampaignManifest` -- the JSON-serialisable description of a
  campaign (grid or explicit axes, shard count, executor, retry
  policy), written to ``<root>/campaign.json`` so a killed orchestrator
  restarts idempotently from the manifest plus the per-shard
  checkpoints.
* :class:`LocalExecutor` / :class:`~repro.sweep.remote.RemoteExecutor`
  -- the shard launchers :func:`make_executor` builds from the
  manifest.  ``local`` runs each shard in-process through the existing
  sweep engine (its process pool included); ``subprocess`` and ``ssh``
  run the ``python -m repro sweep --shard i/N --store-root ... --resume``
  line :func:`shard_command` builds as supervised workers, on worker
  slots of this machine or on fleet hosts.
* :func:`run_campaign` -- the orchestrator: skips shards whose stores
  are already complete, launches the rest, retries failures up to the
  manifest's ``max_attempts`` (every attempt *resumes* -- completed
  points are never recomputed), and on success merges the shard stores
  into ``<root>/merged.staging``, verifies every payload, and only then
  promotes the staging directory to ``<root>/merged``.
* :func:`campaign_status` -- the read-only view: per-shard progress and
  heartbeats from the checkpoint records, merged-store state.

``python -m repro campaign run|status|resume`` is the CLI front end;
see ``docs/campaigns.md`` for the workflow.

Ground truth is always the stores, never the orchestrator's memory: a
shard is complete exactly when every one of its point records exists in
its store, and the shard assignment is a pure function of the point
list, so any host -- or a restarted orchestrator -- computes the same
partition and the same addresses.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sweep.engine import (
    ShardProgress,
    keys_progress,
    point_key,
    sweep,
)
from repro.sweep.points import SweepPoint, dedupe, shard_assignment
from repro.sweep.store import (
    ResultStore,
    shard_store_root,
)
from repro.machines.spec import stable_hash

#: Manifest file name inside a campaign root.
MANIFEST_NAME = "campaign.json"

#: Manifest schema version (bump on incompatible change).
MANIFEST_SCHEMA = 1

#: Directory (under the campaign root) the verified merged store is
#: promoted to.
MERGED_DIR = "merged"

#: Scratch directory merges are built and verified in before promotion.
STAGING_DIR = "merged.staging"

#: Per-shard log directory under the campaign root.
LOG_DIR = "logs"

#: Fleet-state file the worker executors maintain under the campaign
#: root (which host or slot ran which shard, who is dead).  Telemetry for
#: ``campaign status`` -- never consulted as truth.
FLEET_NAME = "fleet.json"

#: Environment variable naming where default campaign roots live.
CAMPAIGN_HOME_ENV = "REPRO_CAMPAIGN_HOME"

#: Default campaign-root parent when neither ``--root`` nor the
#: environment names one.
DEFAULT_CAMPAIGN_HOME = os.path.join("~", ".cache", "repro-campaigns")

EchoFn = Callable[[str], None]


class CampaignError(RuntimeError):
    """A campaign cannot run as described (bad manifest, conflict, ...)."""


def campaign_home() -> Path:
    """Parent directory of default campaign roots (overridable via env)."""
    return Path(
        os.path.expanduser(os.environ.get(CAMPAIGN_HOME_ENV, DEFAULT_CAMPAIGN_HOME))
    )


@dataclass(frozen=True)
class CampaignManifest:
    """Everything needed to (re)start a campaign, JSON round-trippable.

    The *identity* of a campaign is the work it describes -- the grid
    (or explicit axes) and the shard count.  Execution *policy*
    (``executor``, ``jobs``, ``max_attempts``) may change between
    restarts of the same campaign: resuming a dead ``subprocess``
    campaign with ``executor="local"`` is legitimate and loses nothing,
    because the stores and checkpoints carry all the state.

    Axes mirror ``python -m repro sweep``: either ``grid`` names one of
    :data:`repro.sweep.points.GRIDS`, or the explicit
    ``kernels``/``machines``/``ways``/``seeds`` axes describe a
    :func:`~repro.sweep.points.machine_grid`.  Empty axes fill with the
    same defaults the CLI uses (all kernels, the four paper ISAs, the
    paper's ways, seed 0) at construction time, so the manifest on disk
    is always explicit.

    ``hosts`` and ``transport`` are the fleet policy the ``ssh``
    executor reads: the host list shards are dispatched over, and the
    registered transport name (see
    :data:`repro.sweep.transport.TRANSPORTS`) that reaches them.  Like
    the executor they are policy, not identity -- the same campaign may
    resume on a different fleet.
    """

    root: str
    shards: int = 2
    grid: Optional[str] = None
    kernels: Tuple[str, ...] = ()
    machines: Tuple[str, ...] = ()
    ways: Tuple[int, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    executor: str = "local"
    jobs: int = 1
    max_attempts: int = 3
    hosts: Tuple[str, ...] = ()
    transport: str = "ssh"

    def __post_init__(self) -> None:
        # These may arrive from campaign.json, where ``true`` or ``1.5``
        # would otherwise reach every worker's command line (a bool is
        # an int to isinstance).
        for name in ("shards", "jobs", "max_attempts"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise CampaignError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if self.executor not in EXECUTORS:
            raise CampaignError(
                f"unknown executor {self.executor!r}; "
                f"available: {', '.join(sorted(EXECUTORS))}"
            )
        object.__setattr__(
            self, "hosts", tuple(str(h) for h in self.hosts if str(h).strip())
        )
        from repro.sweep.transport import TRANSPORTS

        if self.transport not in TRANSPORTS:
            raise CampaignError(
                f"unknown transport {self.transport!r}; available: "
                f"{', '.join(sorted(TRANSPORTS))}"
            )
        if self.executor == "ssh" and not self.hosts:
            raise CampaignError(
                "the ssh executor needs hosts; pass "
                "--hosts a,b,c or set \"hosts\" in the campaign manifest"
            )
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "ways", tuple(int(w) for w in self.ways))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.grid is None:
            # Normalise the explicit-axes form eagerly so the manifest
            # identity (and the worker command lines) never depend on
            # what the defaults happen to be later.
            from repro.kernels.registry import KERNELS
            from repro.machines import ISAS, WAYS

            if not self.kernels:
                object.__setattr__(self, "kernels", tuple(KERNELS))
            if not self.machines:
                object.__setattr__(self, "machines", tuple(ISAS))
            if not self.ways:
                object.__setattr__(self, "ways", tuple(WAYS))
            if not self.seeds:
                object.__setattr__(self, "seeds", (0,))

    # -- identity ---------------------------------------------------------

    def identity_dict(self) -> Dict[str, Any]:
        """The work this campaign describes (axes + shard count).

        Excludes the root (a campaign directory is relocatable) and the
        execution policy (a resume may legally change executor, jobs or
        retry budget).  Two manifests with equal identities are the
        same campaign.
        """
        return {
            "shards": self.shards,
            "grid": self.grid,
            "kernels": list(self.kernels) if self.grid is None else None,
            "machines": list(self.machines) if self.grid is None else None,
            "ways": list(self.ways) if self.grid is None else None,
            "seeds": list(self.seeds) if self.grid is None else None,
        }

    def fingerprint(self) -> str:
        """Stable hash of :meth:`identity_dict` (names default roots)."""
        return stable_hash(self.identity_dict())

    def slug(self) -> str:
        """Human-readable default directory name for this campaign."""
        what = self.grid if self.grid is not None else "custom"
        return f"{what}-{self.shards}shards-{self.fingerprint()[:8]}"

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "root": str(self.root),
            "shards": self.shards,
            "grid": self.grid,
            "kernels": list(self.kernels),
            "machines": list(self.machines),
            "ways": list(self.ways),
            "seeds": list(self.seeds),
            "executor": self.executor,
            "jobs": self.jobs,
            "max_attempts": self.max_attempts,
            "hosts": list(self.hosts),
            "transport": self.transport,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignManifest":
        if not isinstance(data, dict):
            raise CampaignError("campaign manifest must be a JSON object")
        schema = data.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise CampaignError(
                f"unsupported campaign manifest schema {schema!r} "
                f"(this build reads schema {MANIFEST_SCHEMA})"
            )
        try:
            return cls(
                root=data["root"],
                shards=data["shards"],
                grid=data.get("grid"),
                kernels=tuple(data.get("kernels", ())),
                machines=tuple(data.get("machines", ())),
                ways=tuple(data.get("ways", ())),
                seeds=tuple(data.get("seeds", (0,))),
                executor=data.get("executor", "local"),
                jobs=data.get("jobs", 1),
                max_attempts=data.get("max_attempts", 3),
                hosts=tuple(data.get("hosts", ())),
                transport=data.get("transport", "ssh"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(f"invalid campaign manifest: {exc}") from exc

    def manifest_path(self) -> Path:
        return Path(os.path.expanduser(str(self.root))) / MANIFEST_NAME

    def save(self) -> Path:
        """Write ``<root>/campaign.json`` (atomic same-directory replace)."""
        path = self.manifest_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path) -> "CampaignManifest":
        """Read a manifest file; the campaign root is the file's directory.

        Re-rooting on load makes campaign directories relocatable: move
        or ``scp -r`` the whole tree and ``campaign resume`` just works.
        """
        path = Path(os.path.expanduser(str(path)))
        try:
            with open(path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise CampaignError(f"no campaign manifest at {path}") from None
        except ValueError as exc:
            raise CampaignError(
                f"campaign manifest {path} is not valid JSON: {exc}"
            ) from exc
        manifest = cls.from_dict(data)
        actual_root = str(path.parent)
        if str(manifest.root) != actual_root:
            manifest = dataclasses.replace(manifest, root=actual_root)
        return manifest

    # -- the work ---------------------------------------------------------

    def points(self) -> List[SweepPoint]:
        """The deduplicated point list this campaign evaluates."""
        from repro.sweep.points import GRIDS, machine_grid

        if self.grid is not None:
            if self.grid not in GRIDS:
                raise CampaignError(
                    f"unknown grid {self.grid!r}; "
                    f"available: {', '.join(GRIDS)}"
                )
            return dedupe(GRIDS[self.grid]())
        return dedupe(
            machine_grid(self.kernels, self.machines, self.ways, self.seeds)
        )

    def validate(self) -> None:
        """Raise :class:`CampaignError` naming any unknown axis value."""
        from repro.kernels.registry import KERNELS
        from repro.machines import is_registered, machine_names
        from repro.sweep.points import GRIDS

        if self.grid is not None:
            if self.grid not in GRIDS:
                raise CampaignError(
                    f"unknown grid {self.grid!r}; available: {', '.join(GRIDS)}"
                )
            return
        unknown = [k for k in self.kernels if k not in KERNELS]
        if unknown:
            raise CampaignError(f"unknown kernel(s): {', '.join(unknown)}")
        bad = [m for m in self.machines if not is_registered(m)]
        if bad:
            raise CampaignError(
                f"unknown machine(s): {', '.join(bad)}; registered: "
                f"{', '.join(machine_names())}"
            )
        if any(w < 1 for w in self.ways):
            raise CampaignError(
                f"machine widths must be positive, got {self.ways}"
            )

    def shard_root(self, index: int) -> Path:
        return shard_store_root(self.root, index, self.shards)

    def merged_root(self) -> Path:
        return Path(os.path.expanduser(str(self.root))) / MERGED_DIR

    def log_path(self, index: int) -> Path:
        return (
            Path(os.path.expanduser(str(self.root)))
            / LOG_DIR
            / f"shard-{index + 1}-of-{self.shards}.log"
        )


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


@dataclass
class ShardOutcome:
    """One executor attempt at one shard."""

    index: int
    ok: bool
    elapsed: float = 0.0
    error: Optional[str] = None
    #: Host or worker slot the attempt ran on (worker executors only).
    host: Optional[str] = None


class Executor:
    """Launches shard workers; subclasses define *where* they run.

    The contract is deliberately tiny -- run these shard indices of
    this manifest, report per-shard success -- because everything
    stateful (results, checkpoints, progress) lives in the per-shard
    stores.  An executor that loses a worker mid-flight loses nothing:
    the orchestrator retries and the sweep resumes from the store.
    :class:`~repro.sweep.remote.RemoteExecutor` implements
    :meth:`run_shards` by running the exact ``python -m repro sweep``
    command :func:`shard_command` builds on a worker host and, when that
    host has its own filesystem, shipping the shard store back
    (``python -m repro store export`` / ``import``).
    """

    def run_shards(
        self,
        manifest: CampaignManifest,
        indices: Sequence[int],
        points: Sequence[SweepPoint],
        log: Callable[[int, str], None],
    ) -> Dict[int, ShardOutcome]:
        raise NotImplementedError


class LocalExecutor(Executor):
    """Run shards sequentially in this process, via the sweep engine.

    Each shard's sweep still fans its cache misses out over the
    engine's process pool (``manifest.jobs``), so "local" means local
    *orchestration*, not serial simulation.
    """

    def run_shards(self, manifest, indices, points, log):
        outcomes: Dict[int, ShardOutcome] = {}
        for index in indices:
            start = time.monotonic()
            log(index, f"local attempt starting (jobs={manifest.jobs})")
            try:
                # The shard's store travels as an argument, never via
                # os.environ[STORE_ENV]: mutating the process-global
                # environment raced with any concurrent store user in
                # this process (a repro.serve backfill resolving
                # default_store() mid-shard would read -- or write --
                # the wrong store).
                report = sweep(
                    points,
                    jobs=manifest.jobs,
                    shard=(index, manifest.shards),
                    resume=True,
                    store_root=str(manifest.shard_root(index)),
                )
                outcomes[index] = ShardOutcome(
                    index, True, elapsed=time.monotonic() - start
                )
                log(index, f"local attempt done: {report.summary()}")
            except Exception as exc:  # noqa: BLE001 -- a dead shard is data
                outcomes[index] = ShardOutcome(
                    index,
                    False,
                    elapsed=time.monotonic() - start,
                    error=f"{type(exc).__name__}: {exc}",
                )
                log(index, f"local attempt FAILED: {type(exc).__name__}: {exc}")
        return outcomes


def shard_command(
    manifest: CampaignManifest, index: int,
    store_root: Optional[str] = None,
) -> List[str]:
    """The worker command line for shard ``index`` of ``manifest``.

    Exactly what a human would type on the worker host: the axes are
    spelled the way ``python -m repro sweep`` takes them, ``--resume``
    makes retries free, and ``--store-root`` routes the shard into the
    campaign layout ``store merge`` expects.  The worker executors run
    this verbatim -- a host with its own filesystem gets ``store_root``
    aimed at a scratch campaign root there (the store comes back by
    tarball, not by shared disk).
    """
    cmd = [sys.executable, "-m", "repro", "sweep"]
    if manifest.grid is not None:
        cmd += ["--grid", manifest.grid]
    else:
        cmd += ["--kernels", ",".join(manifest.kernels)]
        cmd += ["--machines", ",".join(manifest.machines)]
        cmd += ["--ways", ",".join(str(w) for w in manifest.ways)]
        cmd += ["--seeds", ",".join(str(s) for s in manifest.seeds)]
    if store_root is None:
        store_root = str(Path(os.path.expanduser(str(manifest.root))))
    cmd += [
        "--shard", f"{index + 1}/{manifest.shards}",
        "--store-root", store_root,
        "--resume",
        "--jobs", str(manifest.jobs),
        "--quiet",
    ]
    return cmd


#: The manifest's ``executor`` values :func:`make_executor` builds.
EXECUTORS = ("local", "subprocess", "ssh")


def make_executor(
    manifest: CampaignManifest,
    *,
    poll_interval: Optional[float] = None,
    timeout: Optional[float] = None,
    heartbeat_window: Optional[float] = None,
) -> Executor:
    """The executor ``manifest.executor`` names, over the manifest's fleet.

    ``local`` runs shards in-process.  ``subprocess`` and ``ssh`` are
    one :class:`~repro.sweep.remote.RemoteExecutor`: ``subprocess``
    over a :class:`~repro.sweep.transport.LocalTransport` with one
    worker slot per shard (``local-1`` .. ``local-N``), ``ssh`` over the
    manifest's hosts and transport.  The supervision knobs (seconds;
    ``None`` means the executor default) apply to both; ``local``
    ignores them.
    """
    if manifest.executor == "local":
        return LocalExecutor()
    # Imported here: repro.sweep.remote imports this module.
    from repro.sweep.remote import RemoteExecutor
    from repro.sweep.transport import LocalTransport, resolve_transport

    if manifest.executor == "subprocess":
        hosts = [f"local-{i + 1}" for i in range(manifest.shards)]
        transport = LocalTransport()
    else:
        hosts = manifest.hosts
        transport = resolve_transport(manifest.transport, root=manifest.root)
    return RemoteExecutor(
        hosts, transport, poll_interval=poll_interval, timeout=timeout,
        heartbeat_window=heartbeat_window,
    )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


@dataclass
class ShardStatus:
    """One shard's view in a :class:`CampaignReport`."""

    index: int
    store_root: str
    progress: ShardProgress
    #: "complete", "pending" (not yet attempted / between retries), or
    #: "failed" (retry budget exhausted).
    state: str = "pending"
    attempts: int = 0
    error: Optional[str] = None
    #: Host or worker slot the shard last ran on (worker executors only).
    host: Optional[str] = None

    def summary(self) -> str:
        text = f"shard {self.index + 1}: {self.state}, {self.progress.summary()}"
        if self.host:
            text += f", on {self.host}"
        if self.attempts:
            text += f", {self.attempts} attempt(s)"
        if self.error:
            text += f" [{self.error}]"
        return text


@dataclass
class CampaignReport:
    """Outcome of one :func:`run_campaign` / :func:`campaign_status` call."""

    manifest: CampaignManifest
    shards: List[ShardStatus] = field(default_factory=list)
    merged_root: Optional[str] = None
    verified: bool = False
    promoted: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (
            all(s.state == "complete" for s in self.shards)
            and self.promoted
            and self.error is None
        )

    def summary(self) -> str:
        done = sum(1 for s in self.shards if s.state == "complete")
        lines = [
            f"campaign {self.manifest.slug()} at {self.manifest.root}: "
            f"{done}/{len(self.shards)} shards complete"
        ]
        lines += [f"  {status.summary()}" for status in self.shards]
        if self.promoted:
            text = f"  merged store promoted: {self.merged_root}"
            if self.verified:
                text += " (verified)"
            lines.append(text)
        elif self.merged_root is not None:
            lines.append(f"  merged store present: {self.merged_root}")
        if self.error:
            lines.append(f"  ERROR: {self.error}")
        return "\n".join(lines)


def _shard_keys(manifest: CampaignManifest) -> List[List[str]]:
    points = manifest.points()
    return [
        [point_key(p) for p in piece]
        for piece in shard_assignment(points, manifest.shards)
    ]


def load_fleet(manifest: CampaignManifest) -> Optional[Dict[str, Any]]:
    """The ``<root>/fleet.json`` a worker executor maintains, if any.

    Telemetry only (host column for ``campaign status``): a missing or
    malformed file is simply "no fleet information", never an error.
    """
    path = Path(os.path.expanduser(str(manifest.root))) / FLEET_NAME
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _fleet_host(fleet: Optional[Dict[str, Any]], index: int) -> Optional[str]:
    if fleet is None:
        return None
    entry = fleet.get("shards", {}).get(str(index + 1))
    if isinstance(entry, dict):
        host = entry.get("host")
        return str(host) if host else None
    return None


def _make_logger(manifest: CampaignManifest, echo: Optional[EchoFn]):
    (Path(os.path.expanduser(str(manifest.root))) / LOG_DIR).mkdir(
        parents=True, exist_ok=True
    )

    def log(index: int, message: str) -> None:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
        line = f"[{stamp}] {message}"
        try:
            with open(manifest.log_path(index), "a") as handle:
                handle.write(line + "\n")
        except OSError:  # pragma: no cover - logging is best-effort
            pass
        if echo is not None:
            echo(f"shard {index + 1}/{manifest.shards}: {message}")

    return log


def ensure_manifest(manifest: CampaignManifest) -> CampaignManifest:
    """Persist the manifest, reconciling with one already on disk.

    Same identity (axes + shard count): the on-disk file is refreshed
    with the new execution policy and the campaign proceeds -- that is
    the idempotent-restart story.  Different identity: refuse loudly;
    two different campaigns must not share a root, because their shard
    stores and checkpoints would interleave.
    """
    path = manifest.manifest_path()
    if path.exists():
        existing = CampaignManifest.load(path)
        if existing.identity_dict() != manifest.identity_dict():
            raise CampaignError(
                f"campaign root {manifest.root} already holds a different "
                f"campaign ({existing.slug()}); resume it with "
                f"'python -m repro campaign resume --root {manifest.root}' "
                "or pick a new --root"
            )
    manifest.save()
    return manifest


def campaign_status(manifest: CampaignManifest) -> CampaignReport:
    """Read-only campaign state: per-shard progress, merged-store state.

    Safe to call while workers run (it only peeks at stores); the
    heartbeat in each shard's progress is the mtime of its checkpoint
    record, so "is that worker alive?" is answered by clock math, not
    by asking the worker.
    """
    keys = _shard_keys(manifest)
    report = CampaignReport(manifest=manifest)
    fleet = load_fleet(manifest)
    for index in range(manifest.shards):
        progress = keys_progress(
            ResultStore(manifest.shard_root(index)), keys[index],
            (index, manifest.shards),
        )
        report.shards.append(
            ShardStatus(
                index=index,
                store_root=str(manifest.shard_root(index)),
                progress=progress,
                state="complete" if progress.done else "pending",
                host=_fleet_host(fleet, index),
            )
        )
    merged = manifest.merged_root()
    if merged.is_dir():
        report.merged_root = str(merged)
        store = ResultStore(merged)
        all_keys = [key for piece in keys for key in piece]
        report.promoted = not store.missing(all_keys)
    return report


def _merge_and_promote(
    manifest: CampaignManifest,
    keys: List[List[str]],
    log: Callable[[int, str], None],
    report: CampaignReport,
) -> None:
    """Merge shard stores into staging, verify, then promote atomically.

    The merged store only ever appears under ``<root>/merged`` after
    every record merged conflict-free, every point key is present, and
    every payload re-hashed clean -- a reader that sees ``merged`` can
    trust it.  A crash mid-merge leaves only ``merged.staging``, which
    the next run deletes and rebuilds.
    """
    root = Path(os.path.expanduser(str(manifest.root)))
    staging = root / STAGING_DIR
    if staging.exists():
        shutil.rmtree(staging)
    staging_store = ResultStore(staging)
    for index in range(manifest.shards):
        stats = staging_store.merge(ResultStore(manifest.shard_root(index)))
        log(index, f"merge into staging: {stats.summary()}")
        if stats.conflicts:
            report.error = (
                f"merge conflicts from shard {index + 1} "
                f"({len(stats.conflicts)} keys); stores disagree -- "
                "run 'store verify' on each shard root"
            )
            return
    all_keys = [key for piece in keys for key in piece]
    missing = staging_store.missing(all_keys)
    if missing:
        report.error = (
            f"merged staging store is missing {len(missing)} point "
            "records; not promoting"
        )
        return
    verify = staging_store.verify()
    if not verify.ok:
        report.error = f"merged store failed verification: {verify.summary()}"
        return
    report.verified = True
    merged = manifest.merged_root()
    if merged.exists():
        retired = root / f"{MERGED_DIR}.retired-{os.getpid()}"
        os.replace(merged, retired)
        shutil.rmtree(retired, ignore_errors=True)
    os.replace(staging, merged)
    report.merged_root = str(merged)
    report.promoted = True


def run_campaign(
    manifest: CampaignManifest,
    executor: Optional[Executor] = None,
    echo: Optional[EchoFn] = None,
) -> CampaignReport:
    """Run (or resume) a campaign end to end; idempotent from any state.

    The loop: find shards whose stores are incomplete, hand them to the
    executor, re-read the stores (store completeness is the only truth
    an attempt is judged by -- a worker that exits 0 without its
    records still counts as failed), retry stragglers up to
    ``manifest.max_attempts`` attempts each, then merge + verify +
    promote.  Already-complete shards are never re-attempted, so an
    orchestrator killed after k shards restarts with N-k launches; and
    because every attempt resumes from the shard checkpoint, a shard
    that died mid-chunk re-runs only its missing points.
    """
    manifest.validate()
    manifest = ensure_manifest(manifest)
    if executor is None:
        executor = make_executor(manifest)
    log = _make_logger(manifest, echo)
    points = manifest.points()
    assignment = shard_assignment(points, manifest.shards)
    keys = [[point_key(p) for p in piece] for piece in assignment]
    report = CampaignReport(manifest=manifest)

    def refresh(index: int) -> ShardProgress:
        return keys_progress(
            ResultStore(manifest.shard_root(index)), keys[index],
            (index, manifest.shards),
        )

    statuses = {
        index: ShardStatus(
            index=index,
            store_root=str(manifest.shard_root(index)),
            progress=refresh(index),
        )
        for index in range(manifest.shards)
    }
    for status in statuses.values():
        if status.progress.done:
            status.state = "complete"
            log(status.index, "already complete; skipping")

    pending = [i for i, s in statuses.items() if s.state != "complete"]
    while pending:
        runnable = [
            i for i in pending
            if statuses[i].attempts < manifest.max_attempts
        ]
        if not runnable:
            break
        outcomes = executor.run_shards(manifest, runnable, points, log)
        for index in runnable:
            status = statuses[index]
            status.attempts += 1
            outcome = outcomes.get(index)
            if outcome is not None and outcome.error:
                status.error = outcome.error
            if outcome is not None and outcome.host:
                status.host = outcome.host
            status.progress = refresh(index)
            if not status.progress.done and getattr(executor, "elastic", False):
                # Elastic rebalancing: the attempt's host is dead (or
                # its worker died), its partial store has been shipped
                # back, so re-shard only the *unfinished* point keys
                # over the surviving hosts instead of burning a retry
                # on the fixed assignment.
                survivors = executor.live_hosts()
                unfinished = ResultStore(
                    manifest.shard_root(index)
                ).missing(keys[index])
                if survivors and unfinished:
                    from repro.sweep.points import reshard_keys

                    log(
                        index,
                        f"rebalancing {len(unfinished)} unfinished "
                        f"point(s) onto {len(survivors)} surviving "
                        f"host(s): {', '.join(survivors)}",
                    )
                    pieces = reshard_keys(
                        assignment[index], unfinished, len(survivors)
                    )
                    executor.run_subsets(manifest, index, pieces, log)
                    status.progress = refresh(index)
            if status.progress.done:
                status.state = "complete"
                status.error = None
            elif status.attempts >= manifest.max_attempts:
                status.state = "failed"
                log(
                    index,
                    f"retry budget exhausted after {status.attempts} "
                    f"attempt(s): {status.progress.summary()}",
                )
            else:
                log(
                    index,
                    f"attempt {status.attempts} incomplete "
                    f"({status.progress.summary()}); retrying",
                )
        pending = [i for i, s in statuses.items() if s.state == "pending"]

    report.shards = [statuses[i] for i in sorted(statuses)]
    failed = [s for s in report.shards if s.state != "complete"]
    if failed:
        report.error = (
            f"{len(failed)} shard(s) incomplete after bounded retries; "
            f"see {Path(str(manifest.root)) / LOG_DIR} and re-run "
            "'campaign resume' once the cause is fixed"
        )
        return report
    merged = manifest.merged_root()
    all_keys = [key for piece in keys for key in piece]
    if merged.is_dir() and not ResultStore(merged).missing(all_keys):
        # Already promoted and complete: a finished campaign re-run (or
        # resumed) is a cheap no-op, not an O(store) re-merge + re-hash.
        # Promotion was all-or-nothing, so presence of every point
        # record means the store passed verification when it appeared --
        # verified stays true for it.
        report.merged_root = str(merged)
        report.promoted = True
        report.verified = True
        return report
    _merge_and_promote(manifest, keys, log, report)
    return report
