"""Content-addressed on-disk store for simulation results.

Five record kinds share the store: ``kernel-timing`` (a
:class:`KernelTiming` with its :class:`SimResult`), ``app-profile``,
``scalar-ipc``, ``trace`` -- the compact binary serialisation of a
columnar dynamic trace (:func:`trace_to_payload`), which lets sweeps
re-time a cached trace on new configurations without re-emulating the
kernel -- and ``sweep-checkpoint``, the resume/progress record of a
(possibly sharded) campaign (:func:`repro.sweep.engine.checkpoint_key`).

Every record is one JSON file whose name is the SHA-256 of a canonical
description of what produced it: the sweep point, the *resolved*
processor/memory configuration (so a change to any Table III/IV constant
or an ablation override yields a different address), and a digest of the
simulator's own source code.  Repeated runs of the figures, tables,
ablation benchmarks and the CLI therefore warm-start from disk, and a
stale store can never serve results for code that no longer exists --
the address simply misses.

Layout::

    <root>/records/<key[:2]>/<key>.json

Writes go through a uniquely-named temporary file in the final directory
followed by :func:`os.replace`, so concurrent writers (processes or
threads) can race on the same key and readers still only ever observe
complete records.  A record that fails to parse or fails its integrity
check is treated as a miss and removed.

In front of the store sits one bounded, thread-safe in-process memo,
:data:`MEMO`, keyed by the store a result came from: an entry only ever
answers for that store, so redirecting ``REPRO_STORE`` mid-process
still reads -- and fills -- the new store.
"""

from __future__ import annotations

import base64
import gzip
import hashlib
import io
import json
import os
import re
import tarfile
import tempfile
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.isa.trace import ColumnarTrace
from repro.machines.spec import canonical_json, stable_hash
from repro.machines.spec import (
    CoreConfig,
    MemHierConfig,
    core_config_to_dict,
    mem_config_to_dict,
)
from repro.timing.core import SimResult
from repro.timing.simulator import KernelTiming

#: Bump when the record format changes (invalidates every address).
SCHEMA_VERSION = 1

#: Version of the :meth:`ResultStore.stats` dict schema (the machine
#: contract behind ``store stats --json`` and the service ``/metrics``).
STATS_SCHEMA = 1

#: Environment variable selecting the store root.  An empty value (or
#: ``off``/``none``/``0``) disables persistence entirely.
STORE_ENV = "REPRO_STORE"

#: Default store root when :data:`STORE_ENV` is unset.
DEFAULT_STORE_ROOT = os.path.join("~", ".cache", "repro-sweep")


# canonical_json / stable_hash are shared with repro.machines.spec (one
# canonicalisation rule for store addresses and machine fingerprints).


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every source file that can change simulation results.

    Covers the ISA/emulation machines, kernels, workloads, hardware
    models and the timing model -- not the experiment composition layer,
    which only *reads* stored results.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    digest.update(f"schema={SCHEMA_VERSION}".encode())
    # "machines" is included because registered geometries and scaling
    # curves define what every simulation computes, exactly like the
    # legacy config tables they replaced.
    for package in (
        "isa", "emu", "kernels", "machines", "workloads", "hw", "timing", "apps"
    ):
        base = root / package
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def config_fingerprint(config: CoreConfig, mem: MemHierConfig) -> str:
    """Stable hash of one fully-resolved machine description."""
    return stable_hash(
        {"core": core_config_to_dict(config), "mem": mem_config_to_dict(mem)}
    )


def record_key(kind: str, identity: Dict[str, Any]) -> str:
    """Content address for one record.

    Every record kind shares this construction, so the schema-version
    and code-digest invalidation rules cannot drift apart between the
    kernel-timing, app-profile and scalar-ipc call sites.
    """
    address = {"kind": kind, "schema": SCHEMA_VERSION, "code": code_version()}
    address.update(identity)
    return stable_hash(address)


def load_payload(store: Optional["ResultStore"], key: str) -> Optional[Any]:
    """The stored payload under ``key``, or None (store may be absent)."""
    if store is None:
        return None
    record = store.load(key)
    return None if record is None else record["payload"]


def peek_payload(store: Optional["ResultStore"], key: str) -> Optional[Any]:
    """Side-effect-free read of the payload under ``key``.

    Unlike :func:`load_payload` this never quarantines a corrupt record
    -- the read hook the serving layer (:mod:`repro.serve`) uses, where
    concurrent request handlers must not race each other into deleting
    evidence (or freshly-written records) out from under ``verify``.
    """
    if store is None:
        return None
    record = store.peek(key)
    return None if record is None else record["payload"]


def save_payload(
    store: Optional["ResultStore"], kind: str, key: str, payload: Any
) -> None:
    """Persist one payload (no-op without a store).

    Records are stamped with the ``code`` digest they were produced
    under (so :meth:`ResultStore.gc` can retire records of dead code
    versions without re-deriving any address) and with a SHA-256 of the
    canonical payload JSON (so :meth:`ResultStore.verify` can detect
    bit-rot that still parses).
    """
    if store is not None:
        store.save(
            key,
            {
                "kind": kind,
                "code": code_version(),
                "payload_sha256": payload_sha256(payload),
                "payload": payload,
            },
        )


def payload_sha256(payload: Any) -> str:
    """Integrity hash of one record payload (canonical-JSON SHA-256)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def shard_store_root(root, index: int, count: int) -> Path:
    """The per-shard store root under a campaign directory.

    Shard ``index`` (0-based) of ``count`` writes to
    ``<root>/shard-<index+1>-of-<count>`` -- the layout
    ``python -m repro sweep --shard i/N --store-root DIR`` uses, and the
    one ``python -m repro store merge`` reunifies.
    """
    return Path(os.path.expanduser(str(root))) / f"shard-{index + 1}-of-{count}"


# ---------------------------------------------------------------------------
# Serialisation of the simulation dataclasses.
# ---------------------------------------------------------------------------


def sim_result_to_dict(result: SimResult) -> Dict[str, Any]:
    return {
        "config_name": result.config_name,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "cat_instructions": dict(result.cat_instructions),
        "cat_cycles": dict(result.cat_cycles),
        "branch_lookups": result.branch_lookups,
        "branch_mispredicts": result.branch_mispredicts,
        "l1_accesses": result.l1_accesses,
        "l1_misses": result.l1_misses,
        "l2_accesses": result.l2_accesses,
        "l2_misses": result.l2_misses,
    }


def sim_result_from_dict(data: Dict[str, Any]) -> SimResult:
    return SimResult(
        config_name=data["config_name"],
        cycles=data["cycles"],
        instructions=data["instructions"],
        cat_instructions=dict(data["cat_instructions"]),
        cat_cycles=dict(data["cat_cycles"]),
        branch_lookups=data["branch_lookups"],
        branch_mispredicts=data["branch_mispredicts"],
        l1_accesses=data["l1_accesses"],
        l1_misses=data["l1_misses"],
        l2_accesses=data["l2_accesses"],
        l2_misses=data["l2_misses"],
    )


def kernel_timing_to_dict(timing: KernelTiming) -> Dict[str, Any]:
    payload = {
        "kernel": timing.kernel,
        "version": timing.version,
        "way": timing.way,
        "seed": timing.seed,
        "batch": timing.batch,
        "result": sim_result_to_dict(timing.result),
    }
    # Only decoupled machine-axis timings carry the key, so the classic
    # (isa, way) record shape is byte-for-byte what it always was.
    if timing.machine is not None:
        payload["machine"] = timing.machine
    # Likewise the vl axis: only runtime-VL timings carry it.
    if timing.vl is not None:
        payload["vl"] = timing.vl
    return payload


def kernel_timing_from_dict(data: Dict[str, Any]) -> KernelTiming:
    return KernelTiming(
        kernel=data["kernel"],
        version=data["version"],
        way=data["way"],
        result=sim_result_from_dict(data["result"]),
        batch=data["batch"],
        seed=data.get("seed", 0),
        machine=data.get("machine"),
        vl=data.get("vl"),
    )


#: Payload format tag of serialised columnar traces (bump on change).
TRACE_PAYLOAD_FORMAT = "columnar-trace/1"


def trace_to_payload(cols: ColumnarTrace) -> Dict[str, Any]:
    """JSON-record form of a columnar trace (zlib-compressed binary).

    The deterministic binary encoding of :meth:`ColumnarTrace.to_bytes`
    is compressed and base64-wrapped so the trace rides the exact same
    atomic-write / content-addressed machinery as every other record
    kind.  The embedded digest lets a reader reject bit-rot without
    re-deriving the trace.
    """
    raw = cols.to_bytes()
    return {
        "format": TRACE_PAYLOAD_FORMAT,
        "codec": "zlib+b64",
        "instructions": len(cols),
        "digest": hashlib.sha256(raw).hexdigest(),
        # Level 1: the compression ratio is within a few percent of the
        # default level but ~7x cheaper, and trace writes sit on the
        # cold path of every sweep.
        "data": base64.b64encode(zlib.compress(raw, 1)).decode("ascii"),
    }


def trace_from_payload(payload: Any) -> Optional[ColumnarTrace]:
    """Decode a stored trace payload; None on any mismatch or corruption."""
    try:
        if not isinstance(payload, dict) or payload.get("format") != TRACE_PAYLOAD_FORMAT:
            return None
        raw = zlib.decompress(base64.b64decode(payload["data"]))
        digest = payload.get("digest")
        if digest and hashlib.sha256(raw).hexdigest() != digest:
            return None
        return ColumnarTrace.from_bytes(raw)
    except (KeyError, ValueError, TypeError, zlib.error, OSError):
        return None


#: Archive member name of the export metadata header.
_EXPORT_META = "export-meta.json"


@dataclass
class MergeStats:
    """Outcome of one :meth:`ResultStore.merge` call."""

    source: str
    merged: int = 0
    identical: int = 0
    conflicts: List[str] = field(default_factory=list)
    corrupt: int = 0

    def summary(self) -> str:
        text = (
            f"merged {self.merged} records from {self.source} "
            f"({self.identical} already present"
        )
        if self.corrupt:
            text += f", {self.corrupt} corrupt skipped"
        if self.conflicts:
            text += f", {len(self.conflicts)} CONFLICTS kept ours"
        return text + ")"


@dataclass
class GcStats:
    """Outcome of one :meth:`ResultStore.gc` call."""

    kept: int = 0
    removed: int = 0
    removed_bytes: int = 0
    tmp_removed: int = 0
    kept_code_versions: Tuple[str, ...] = ()

    def summary(self) -> str:
        return (
            f"kept {self.kept} records, removed {self.removed} "
            f"({self.removed_bytes} bytes) from dead code versions, "
            f"swept {self.tmp_removed} stray temp files"
        )


@dataclass
class VerifyReport:
    """Outcome of one :meth:`ResultStore.verify` call."""

    checked: int = 0
    #: (key, reason) for every record that failed a check.
    problems: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        if self.ok:
            return f"verified {self.checked} records: all payloads intact"
        lines = [
            f"verified {self.checked} records: "
            f"{len(self.problems)} CORRUPT"
        ]
        lines += [f"  {key}: {reason}" for key, reason in self.problems]
        return "\n".join(lines)


@dataclass
class ImportStats:
    """Outcome of one :meth:`ResultStore.import_` call."""

    imported: int = 0
    identical: int = 0
    conflicts: List[str] = field(default_factory=list)
    rejected: int = 0

    def summary(self) -> str:
        text = f"imported {self.imported} records ({self.identical} already present"
        if self.rejected:
            text += f", {self.rejected} rejected"
        if self.conflicts:
            text += f", {len(self.conflicts)} CONFLICTS kept ours"
        return text + ")"


class ResultStore:
    """Content-addressed JSON store, one record per file.

    Beyond ``load``/``save``, the store is a maintainable artifact:
    :meth:`merge` reunifies per-shard campaign stores, :meth:`gc`
    retires records of dead code versions, :meth:`verify` re-hashes
    every payload, :meth:`stats` summarises the contents, and
    :meth:`export`/:meth:`import_` round-trip the records through a
    deterministic tarball for host-to-host transfer.  All of these are
    surfaced as ``python -m repro store`` verbs, and the campaign
    orchestrator (``docs/campaigns.md``) drives :meth:`merge` +
    :meth:`verify` automatically before promoting a merged store.
    """

    def __init__(self, root) -> None:
        self.root = Path(os.path.expanduser(str(root)))

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"

    def path_for(self, key: str) -> Path:
        return self.root / "records" / key[:2] / f"{key}.json"

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """Read the record under ``key`` without side effects.

        Returns None for both missing and corrupt records, touching
        neither: the maintenance verbs (merge, gc, stats, export) read
        through here so that inspecting a store can never destroy the
        evidence :meth:`verify` exists to report.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            # UnicodeDecodeError is a ValueError: binary corruption is
            # rejected exactly like textual truncation.
            record = json.loads(raw.decode("utf-8"))
            if not isinstance(record, dict) or record.get("key") != key:
                raise ValueError("record integrity check failed")
            record["payload"]  # noqa: B018 -- presence check
        except (ValueError, KeyError):
            return None
        return record

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the record stored under ``key``, or None.

        Corrupted records (truncated writes from killed processes, disk
        faults) are removed and reported as misses so the caller simply
        recomputes them.
        """
        record = self.peek(key)
        if record is None:
            try:
                self.path_for(key).unlink()
            except OSError:
                pass
        return record

    def save(self, key: str, record: Dict[str, Any]) -> None:
        """Atomically persist ``record`` under ``key`` (best effort).

        The temporary file lives in the final directory so the
        :func:`os.replace` is within one filesystem and atomic; a failed
        write never leaves a partial record behind.
        """
        record = dict(record)
        record["key"] = key
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(record, handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # Persistence is an optimisation; an unwritable store must
            # never take the simulation down with it.
            return

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_keys())

    def missing(self, keys: Iterable[str]) -> List[str]:
        """The subset of ``keys`` with no record in this store, in order.

        Read-only (no quarantining): the campaign orchestrator uses it
        to decide whether a shard store is complete before promoting a
        merge, and to report what a resume would recompute.
        """
        return [key for key in keys if key not in self]

    def iter_keys(self) -> Iterator[str]:
        records = self.root / "records"
        if not records.is_dir():
            return
        for shard in sorted(records.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    # -- maintenance ------------------------------------------------------

    def _write_bytes(self, key: str, raw: bytes) -> None:
        """Atomically place pre-serialised record bytes under ``key``.

        Used by merge/import so copied records stay byte-for-byte what
        the source store held (a merged campaign store must be
        indistinguishable from a single-process one).  Unlike
        :meth:`save` this raises on I/O failure: maintenance verbs must
        report a broken destination, not silently drop records.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(raw)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def merge(self, other: "ResultStore") -> MergeStats:
        """Copy every valid record from ``other`` into this store.

        Content addressing makes merging trivially safe: two stores can
        only disagree under a key if one of them is corrupt or was
        produced by a non-deterministic simulator -- both worth
        surfacing, so differing payloads are counted as conflicts (ours
        kept) rather than silently overwritten.  Merging is idempotent
        and order-independent on the resulting key->payload map.
        """
        ours = Path(os.path.expanduser(str(self.root))).resolve()
        theirs = Path(os.path.expanduser(str(other.root))).resolve()
        if ours == theirs:
            raise ValueError(
                f"cannot merge store {str(other.root)!r} into itself"
            )
        stats = MergeStats(source=str(other.root))
        for key in other.iter_keys():
            # peek, not load: merging must never delete a corrupt
            # record from the *source* store it is only reading.
            record = other.peek(key)
            if record is None:
                stats.corrupt += 1
                continue
            raw = other.path_for(key).read_bytes()
            mine = self.peek(key)
            if mine is None:
                self._write_bytes(key, raw)
                stats.merged += 1
            elif canonical_json(mine["payload"]) == canonical_json(record["payload"]):
                stats.identical += 1
            else:
                stats.conflicts.append(key)
        return stats

    def gc(
        self,
        keep_code_versions: Iterable[str] = (),
        drop_unstamped: bool = False,
        dry_run: bool = False,
    ) -> GcStats:
        """Remove records produced under retired code versions.

        The current :func:`code_version` is *always* kept -- gc can
        never invalidate a warm run of the code that is actually
        installed -- plus any digests in ``keep_code_versions``.
        Records predating the ``code`` stamp are kept unless
        ``drop_unstamped`` is set.  Stray ``*.tmp`` files from killed
        writers are always swept.
        """
        keep = {code_version()} | {str(v) for v in keep_code_versions}
        stats = GcStats(kept_code_versions=tuple(sorted(keep)))
        records = self.root / "records"
        if not records.is_dir():
            return stats
        for shard in sorted(records.iterdir()):
            if not shard.is_dir():
                continue
            for tmp in sorted(shard.glob("*.tmp")):
                if not dry_run:
                    try:
                        tmp.unlink()
                    except OSError:
                        continue
                stats.tmp_removed += 1
            for path in sorted(shard.glob("*.json")):
                record = self.peek(path.stem)
                if record is None:
                    # Corrupt: left in place for `verify` to report
                    # (gc retires dead code versions, not evidence).
                    continue
                code = record.get("code")
                stale = code not in keep if code is not None else drop_unstamped
                if stale:
                    stats.removed += 1
                    stats.removed_bytes += path.stat().st_size
                    if not dry_run:
                        try:
                            path.unlink()
                        except OSError:
                            pass
                else:
                    stats.kept += 1
        return stats

    def verify(self) -> VerifyReport:
        """Re-hash every payload and report corruption, touching nothing.

        Three layers of checks: the record must parse and carry its own
        key (anything else is quarantined by :meth:`load` and reported
        here as unreadable), a ``payload_sha256`` stamp must match the
        canonical payload JSON, and ``trace`` payloads must decompress
        to bytes matching their embedded digest.
        """
        report = VerifyReport()
        for key in list(self.iter_keys()):
            report.checked += 1
            path = self.path_for(key)
            try:
                record = json.loads(path.read_bytes().decode("utf-8"))
            except (OSError, ValueError):
                report.problems.append((key, "unreadable or not valid JSON"))
                continue
            if not isinstance(record, dict) or record.get("key") != key:
                report.problems.append((key, "record does not carry its own key"))
                continue
            if "payload" not in record:
                report.problems.append((key, "record has no payload"))
                continue
            stamp = record.get("payload_sha256")
            if stamp is not None and payload_sha256(record["payload"]) != stamp:
                report.problems.append(
                    (key, "payload hash mismatch (bit-rot or hand edit)")
                )
                continue
            if record.get("kind") == "trace":
                if trace_from_payload(record["payload"]) is None:
                    report.problems.append(
                        (key, "trace payload fails to decode or digest-check")
                    )
        return report

    def stats(self) -> Dict[str, Any]:
        """Summary of the store contents (counts, bytes, code versions).

        The returned dict is a stable, documented schema (version
        :data:`STATS_SCHEMA`, carried in the ``schema`` key): it is what
        ``python -m repro store stats --json`` prints and what the
        serving layer embeds under ``store`` in its ``/metrics``
        payload, so external monitoring can consume either without
        parsing human-formatted text.  Existing keys never change
        meaning within a schema version; additions bump it.
        """
        by_kind: Dict[str, int] = {}
        code_versions: Dict[str, int] = {}
        records = 0
        total_bytes = 0
        unstamped = 0
        corrupt = 0
        for key in self.iter_keys():
            record = self.peek(key)
            if record is None:
                corrupt += 1
                continue
            records += 1
            total_bytes += self.path_for(key).stat().st_size
            kind = record.get("kind", "<unknown>")
            by_kind[kind] = by_kind.get(kind, 0) + 1
            code = record.get("code")
            if code is None:
                unstamped += 1
            else:
                code_versions[code] = code_versions.get(code, 0) + 1
        return {
            "schema": STATS_SCHEMA,
            "root": str(self.root),
            "records": records,
            "bytes": total_bytes,
            "by_kind": dict(sorted(by_kind.items())),
            "code_versions": dict(sorted(code_versions.items())),
            "unstamped": unstamped,
            "corrupt": corrupt,
            "current_code": code_version(),
        }

    def export(self, archive) -> int:
        """Write every valid record to a deterministic ``.tar.gz``.

        Identical store contents produce identical archive bytes
        (sorted members, zeroed timestamps/owners, gzip mtime pinned),
        so exports can themselves be content-addressed or diffed.
        Returns the number of records exported.
        """
        archive = Path(os.path.expanduser(str(archive)))
        keys = [key for key in self.iter_keys() if self.peek(key) is not None]
        archive.parent.mkdir(parents=True, exist_ok=True)

        def member(name: str, raw: bytes) -> Tuple[tarfile.TarInfo, bytes]:
            info = tarfile.TarInfo(name)
            info.size = len(raw)
            info.mtime = 0
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            return info, raw

        meta = canonical_json(
            {"schema": SCHEMA_VERSION, "records": len(keys)}
        ).encode("utf-8")
        # gzip via fileobj so the header carries neither the archive
        # filename nor a timestamp: same contents, same bytes.
        with open(archive, "wb") as raw_out, gzip.GzipFile(
            filename="", fileobj=raw_out, mode="wb", mtime=0
        ) as gz:
            with tarfile.open(fileobj=gz, mode="w") as tar:
                for info, raw in [member(_EXPORT_META, meta)] + [
                    member(
                        f"records/{key[:2]}/{key}.json",
                        self.path_for(key).read_bytes(),
                    )
                    for key in keys
                ]:
                    tar.addfile(info, io.BytesIO(raw))
        return len(keys)

    def import_(self, archive) -> ImportStats:
        """Load an :meth:`export` archive into this store.

        Member names are validated against the record layout (a 64-hex
        key under its 2-hex prefix directory -- no traversal, no
        foreign files) and each record must parse and carry the key its
        filename claims; anything else is rejected, not extracted.
        ``export`` then ``import_`` into a fresh root is a payload-exact
        round-trip.
        """
        archive = Path(os.path.expanduser(str(archive)))
        stats = ImportStats()
        pattern = re.compile(r"^records/([0-9a-f]{2})/([0-9a-f]{64})\.json$")
        with tarfile.open(archive, "r:*") as tar:
            for info in tar:
                if info.name == _EXPORT_META:
                    continue
                match = pattern.match(info.name)
                if match is None or not info.isfile() or match.group(2)[:2] != match.group(1):
                    stats.rejected += 1
                    continue
                key = match.group(2)
                handle = tar.extractfile(info)
                raw = handle.read() if handle is not None else b""
                try:
                    record = json.loads(raw.decode("utf-8"))
                    if not isinstance(record, dict) or record.get("key") != key:
                        raise ValueError("key mismatch")
                    record["payload"]  # noqa: B018 -- presence check
                except (ValueError, KeyError):
                    stats.rejected += 1
                    continue
                mine = self.peek(key)
                if mine is None:
                    self._write_bytes(key, raw)
                    stats.imported += 1
                elif canonical_json(mine["payload"]) == canonical_json(record["payload"]):
                    stats.identical += 1
                else:
                    stats.conflicts.append(key)
        return stats


def store_from_root(root: Optional[Any]) -> Optional[ResultStore]:
    """A :class:`ResultStore` for an explicit root, or ``None`` to disable.

    The explicit-argument counterpart of :func:`default_store`: the same
    disable spellings (``""``/``"0"``/``"off"``/``"none"``) mean "no
    store", anything else is a store root.  This is how a store choice
    travels *as data* -- through ``sweep(store_root=...)`` and across
    process-pool workers -- instead of through the mutable process
    environment, so concurrent users of one process (an orchestrator
    shard next to a ``repro.serve`` backfill) can no longer race on
    :data:`STORE_ENV`.
    """
    if root is None:
        return None
    text = str(root)
    if text.strip().lower() in ("", "0", "off", "none"):
        return None
    return ResultStore(os.path.expanduser(text))


_DEFAULT_STORE: Optional[ResultStore] = None


def default_store() -> Optional[ResultStore]:
    """The process-wide store selected by :data:`STORE_ENV`.

    Re-reads the environment on every call so tests (and the CLI's
    ``--store`` flag, which sets the variable) can redirect it.
    """
    global _DEFAULT_STORE
    env = os.environ.get(STORE_ENV)
    if env is not None and env.strip().lower() in ("", "0", "off", "none"):
        return None
    root = os.path.expanduser(env if env is not None else DEFAULT_STORE_ROOT)
    if _DEFAULT_STORE is None or str(_DEFAULT_STORE.root) != root:
        _DEFAULT_STORE = ResultStore(root)
    return _DEFAULT_STORE


# ---------------------------------------------------------------------------
# The in-process memo in front of the store.
# ---------------------------------------------------------------------------


class LruCache:
    """Byte-weighted LRU with hit/miss/eviction accounting.

    Thread-safe: one lock guards the entries and the counters, held only
    around the dict operations -- never while a caller reads the store or
    computes a value.  ``put`` of an entry larger than the whole budget
    is refused (counted in ``rejected``) rather than flushing everything
    else to make room for one oversized tenant.
    """

    def __init__(self, max_bytes: int, name: str = "cache") -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes!r}")
        self.name = name
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Any) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Any, value: Any, size: int) -> bool:
        """Insert ``value`` weighing ``size`` bytes; True if it stayed."""
        size = max(0, int(size))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes -= old[1]
            if size > self.max_bytes:
                self.rejected += 1
                return False
            self._entries[key] = (value, size)
            self.bytes += size
            while self.bytes > self.max_bytes:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self.bytes -= evicted_size
                self.evictions += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "rejected": self.rejected,
            }


def trace_nbytes(cols: ColumnarTrace) -> int:
    """In-memory footprint of one columnar trace: its column bytes."""
    total = 0
    for attr in type(cols).__slots__:
        nbytes = getattr(getattr(cols, attr, None), "nbytes", None)
        if nbytes is not None:
            total += int(nbytes)
    return max(total, 1)


#: Byte budget of :data:`MEMO`.  A trace hit saves about a millisecond
#: of decoding, so a small budget costs little, while a larger one keeps
#: trace columns alive that fragment the heap: a cold regeneration of
#: the twelve artefacts peaked at 97 MB RSS with 16 MiB against 80 MB
#: with 8 MiB (2-vCPU Linux box).
MEMO_BYTES = 8 * 1024 * 1024

#: What every memo entry but a trace weighs: timings, scalar IPCs and
#: application profiles are small next to a trace's columns.
MEMO_ENTRY_BYTES = 1024

#: The one in-process memo of store records: traces, kernel timings,
#: scalar IPCs and application profiles, keyed by :func:`memo_key`.
#: The store is the system of record, so eviction only costs a re-read.
MEMO = LruCache(MEMO_BYTES, name="memo")


def memo_key(
    store: Optional[ResultStore], kind: str, identity: Any
) -> Tuple[Any, ...]:
    """The :data:`MEMO` key of one record of ``store`` (None: no store)."""
    return (None if store is None else str(store.root), kind, identity)


def memoise(key: Tuple[Any, ...], value: Any) -> Any:
    """Put ``value`` into :data:`MEMO` under ``key``; returns ``value``."""
    size = trace_nbytes(value) if key[1] == "trace" else MEMO_ENTRY_BYTES
    MEMO.put(key, value, size)
    return value
