"""Content-addressed on-disk store for simulation results.

Four record kinds share the store: ``kernel-timing`` (a
:class:`KernelTiming` with its :class:`SimResult`), ``app-profile``,
``scalar-ipc`` and ``trace`` -- the compact binary serialisation of a
columnar dynamic trace (:func:`trace_to_payload`), which lets sweeps
re-time a cached trace on new configurations without re-emulating the
kernel.

Every record is one JSON object stored under a key, the SHA-256 of a
canonical description of what produced it: the sweep point, the *resolved*
processor/memory configuration (so a change to any Table III/IV constant
or an ablation override yields a different address), and a digest of the
simulator's own source code.  Repeated runs of the figures, tables,
ablation benchmarks and the CLI therefore warm-start from disk, and a
stale store can never serve results for code that no longer exists --
the address simply misses.

Layout::

    <root>/segments/<stamp>-<pid>-<nonce>.seg

Each writer process appends framed records (header with key, stamp,
length and CRC-32s, then the record's JSON bytes) to its own segment,
shared by every :class:`ResultStore` it holds for that root; readers
find records through an in-memory index built from the frame headers
and extended on a miss.  No two processes append to one file, so
concurrent writers can race on the same key -- the newest frame
answers.  A record that fails its checksum, does not parse or carries
another key reads as a miss; nothing is deleted on read (``gc``
compacts).  ``docs/sweeping.md`` states the crash and corruption
contract.

In front of the store sits one bounded, thread-safe in-process memo,
:data:`MEMO`, keyed by the store a result came from and the machine
registry's generation: an entry only ever answers for that store, so
redirecting ``REPRO_STORE`` mid-process still reads -- and fills -- the
new store, and none answers after the registry changes.  Decoded traces
and the other records fill separate byte budgets, so neither evicts the
other.
"""

from __future__ import annotations

import base64
import errno
import fcntl
import gzip
import hashlib
import io
import json
import os
import re
import secrets
import struct
import tarfile
import threading
import time
import zlib
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.isa.trace import ColumnarTrace
from repro.machines.registry import registry_generation
from repro.machines.spec import canonical_json, config_fingerprint, stable_hash
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


# canonical_json / stable_hash / config_fingerprint are shared with
# repro.machines.spec (one canonicalisation rule for store addresses and
# machine fingerprints).


#: Subpackages whose sources can change simulation results.  "machines"
#: is included because registered geometries and scaling curves define
#: what every simulation computes, exactly like the legacy config tables
#: they replaced.
_CODE_PACKAGES = (
    "isa", "emu", "kernels", "machines", "workloads", "hw", "timing", "apps"
)

#: Source suffixes hashed into :func:`code_version`: Python, and C for
#: the compiled timing kernel (``timing/kernel.c``).
_CODE_SUFFIXES = (".py", ".c")


def code_sources(root: Path) -> List[Path]:
    """The files :func:`code_version` hashes, under package root ``root``."""
    return [
        path
        for package in _CODE_PACKAGES
        for path in sorted((root / package).rglob("*"))
        if path.suffix in _CODE_SUFFIXES
    ]


def code_digest(root: Path) -> str:
    """Digest of the :func:`code_sources` under ``root``, with the schema."""
    digest = hashlib.sha256()
    digest.update(f"schema={SCHEMA_VERSION}".encode())
    for path in code_sources(root):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every source file that can change simulation results.

    Covers the ISA/emulation machines, kernels, workloads, hardware
    models and the timing model -- its Python and the C source of the
    compiled timing kernel -- but not the experiment composition layer,
    which only *reads* stored results.
    """
    import repro

    return code_digest(Path(repro.__file__).resolve().parent)


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
    record = None if store is None else store.load(key)
    return None if record is None else record["payload"]


#: :func:`load_payload` under the name :mod:`repro.serve` and its
#: benchmark import (every store read is side-effect free).
peek_payload = load_payload


def stamp(kind: str, payload: Any) -> Dict[str, Any]:
    """The record :func:`save_payload` saves for one payload.

    Records are stamped with the ``code`` digest they were produced
    under (so :meth:`ResultStore.gc` can retire records of dead code
    versions without re-deriving any address) and with a SHA-256 of the
    canonical payload JSON (so :meth:`ResultStore.verify` can detect
    bit-rot that still parses).  A payload saved under several keys is
    stamped once and the record handed to :meth:`ResultStore.save_all`
    with all of them.
    """
    return {
        "kind": kind,
        "code": code_version(),
        "payload_sha256": payload_sha256(payload),
        "payload": payload,
    }


def save_payload(
    store: Optional["ResultStore"], kind: str, key: str, payload: Any
) -> None:
    """Persist one payload as its :func:`stamp` (no-op without a store)."""
    if store is not None:
        store.save(key, stamp(kind, payload))


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
#: Format 2 holds the narrow columns: a descriptor pool, int32/int16
#: dynamic fields and per-instruction source and destination counts.
TRACE_PAYLOAD_FORMAT = "columnar-trace/2"


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
    """Decode a stored trace payload; None on any mismatch or corruption.

    A payload whose digest matches but whose structure does not -- a
    count column that does not sum to its id column's length, a column
    shorter or longer than declared -- is refused by
    :meth:`ColumnarTrace.from_bytes` and reads as a miss too, so the
    timing kernel never indexes past a column.
    """
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
    #: Frames a later save of the same key replaced.
    superseded: int = 0
    #: Torn tails (a killed writer's last frame, cut short) and partial
    #: copies of a killed gc, dropped.
    torn_removed: int = 0
    kept_code_versions: Tuple[str, ...] = ()

    def summary(self) -> str:
        return (
            f"kept {self.kept} records, removed {self.removed} "
            f"({self.removed_bytes} bytes) from dead code versions, "
            f"dropped {self.superseded} superseded frames and "
            f"{self.torn_removed} torn tails"
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


# ---------------------------------------------------------------------------
# Append-only segments: the on-disk layout.
# ---------------------------------------------------------------------------

#: Directory under a store root that holds the segment files.
SEGMENTS_DIR = "segments"

#: Suffix of a segment file; anything else in :data:`SEGMENTS_DIR` (a
#: compaction in progress) is invisible to readers.
SEGMENT_SUFFIX = ".seg"

#: Suffix of gc's copy of the records it keeps, until renamed into place.
_PARTIAL_SUFFIX = ".tmp"

_MAGIC = b"RSf1"

#: Frame header: magic, key (32 raw bytes), stamp (ns, newest wins),
#: record length, CRC-32 over key and record -- then a CRC-32 of those
#: 52 bytes, which tells a broken header from a frame cut short.
_HEAD = struct.Struct("<4s32sQII")
_HEAD_CRC = struct.Struct("<I")
HEADER_BYTES = _HEAD.size + _HEAD_CRC.size

#: Bytes read per ``pread`` while indexing frame headers.
_SCAN_CHUNK = 64 * 1024

#: How long the segment directory must have been unchanged before an
#: unchanged mtime is trusted to mean no segment came or went: longer
#: than a timestamp tick.  A filesystem with sub-second mtimes ticks in
#: at most 10 ms (a kernel jiffy, exFAT); whole-second mtimes come from
#: one that ticks in seconds (2 s on FAT).
_DIR_SETTLE_NS = 100 * 10**6
_DIR_SETTLE_WHOLE_SECONDS_NS = 3 * 10**9


def record_crc(key: str, raw: bytes) -> int:
    """The frame checksum of record bytes ``raw`` under ``key``."""
    return zlib.crc32(raw, zlib.crc32(bytes.fromhex(key)))


def encode_header(key: str, stamp: int, raw: bytes, crc: Optional[int] = None) -> bytes:
    """The header of the frame holding record bytes ``raw`` under ``key``."""
    binkey = bytes.fromhex(key)
    if len(binkey) != 32:
        raise ValueError(f"store keys are 64 hex digits, got {key!r}")
    if crc is None:
        crc = zlib.crc32(raw, zlib.crc32(binkey))
    head = _HEAD.pack(_MAGIC, binkey, stamp, len(raw), crc)
    return head + _HEAD_CRC.pack(zlib.crc32(head))


def decode_header(buf, offset: int = 0) -> Optional[Tuple[str, int, int, int]]:
    """``(key, stamp, length, crc)`` of the header at ``offset``; None if broken."""
    end = offset + _HEAD.size
    if len(buf) < end + _HEAD_CRC.size:
        return None
    (check,) = _HEAD_CRC.unpack_from(buf, end)
    if zlib.crc32(buf[offset:end]) != check:
        return None
    magic, binkey, stamp, length, crc = _HEAD.unpack_from(buf, offset)
    if magic != _MAGIC:
        return None
    return binkey.hex(), stamp, length, crc


def _parse_record(key: str, raw) -> Optional[Dict[str, Any]]:
    """The record in ``raw`` if it parses and carries ``key``, else None."""
    try:
        # UnicodeDecodeError is a ValueError: binary corruption is
        # rejected exactly like textual truncation.
        record = json.loads(str(raw, "utf-8"))
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        record["payload"]  # noqa: B018 -- presence check
    except (ValueError, KeyError):
        return None
    return record


class _Segment:
    """What a reader knows of one segment file."""

    __slots__ = ("inode", "size", "end", "frames", "damaged", "sealed")

    def __init__(self, inode: int) -> None:
        self.inode = inode
        #: File size when last scanned: an unchanged size skips the scan.
        self.size = 0
        #: Offset just past the last whole frame indexed.
        self.end = 0
        #: Whole frames indexed, superseded ones included.
        self.frames = 0
        #: Offset of a broken frame header, past which nothing is read.
        self.damaged: Optional[int] = None
        #: Indexed in full with no writer holding it: it never grows
        #: again, so a refresh no longer looks at it.
        self.sealed = False


class _Writer:
    """This process's append handle on one segment."""

    __slots__ = ("pid", "fd", "name", "path", "dev", "inode", "end")

    def __init__(self, segments_dir: str) -> None:
        os.makedirs(segments_dir, exist_ok=True)
        self.pid = os.getpid()
        self.name = (
            f"{time.time_ns():016x}-{self.pid}-{secrets.token_hex(4)}"
            f"{SEGMENT_SUFFIX}"
        )
        self.path = os.path.join(segments_dir, self.name)
        self.fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644
        )
        try:
            # Held for the handle's lifetime, and taken before the first
            # append: gc compacts only segments it can lock, so it never
            # touches one being appended to, and a reader that can lock
            # a non-empty segment knows it is sealed.
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            st = os.fstat(self.fd)
        except BaseException:
            self.close()
            raise
        self.dev, self.inode, self.end = st.st_dev, st.st_ino, 0

    def current(self) -> bool:
        """The segment is still where it was opened (not removed or moved)."""
        try:
            st = os.stat(self.path)
        except OSError:
            return False
        return st.st_ino == self.inode and st.st_dev == self.dev

    def close(self) -> None:
        try:
            os.close(self.fd)
        except OSError:
            pass


class _Root:
    """Per-process state of one store root: its append handle and index.

    Every :class:`ResultStore` for the same root shares one instance
    (:func:`_root_state`), so a process writes one segment per root and
    reads its own writes without rescanning.
    """

    def __init__(self, root: str) -> None:
        self.segments_dir = os.path.join(root, SEGMENTS_DIR)
        self.lock = threading.Lock()
        self.writer: Optional[_Writer] = None
        self.stamp = 0
        #: key -> (stamp, segment, offset, length) of its newest frame;
        #: None until the first read builds it.
        self.entries: Optional[Dict[str, Tuple[int, str, int, int]]] = None
        self.segments: Dict[str, _Segment] = {}
        #: (device, inode, mtime) of the segment directory when it was
        #: listed, if it had been still long enough to be trusted.
        self.listed: Optional[Tuple[int, int, int]] = None

    # -- writing ---------------------------------------------------------

    def append(self, key: str, raw: bytes) -> None:
        """Append one frame; returns once the OS holds it, raises OSError."""
        crc = record_crc(key, raw)
        with self.lock:
            writer = self._live_writer()
            self.stamp = max(time.time_ns(), self.stamp + 1)
            head = encode_header(key, self.stamp, raw, crc)
            offset = writer.end
            try:
                written = os.writev(writer.fd, (head, raw))
                if written != len(head) + len(raw):
                    raise OSError(errno.EIO, "short append to a store segment")
            except OSError:
                # Never leave a torn frame ahead of later ones: cut it
                # off, or give the segment up if even that fails.
                try:
                    os.ftruncate(writer.fd, offset)
                except OSError:
                    self._drop_writer()
                raise
            writer.end = offset + written
            if self.entries is not None:
                seen = self.segments.setdefault(writer.name, _Segment(writer.inode))
                if seen.end == offset:
                    seen.size = seen.end = writer.end
                    seen.frames += 1
                    self._index(key, (self.stamp, writer.name, offset, len(raw)))

    def _live_writer(self) -> _Writer:
        writer = self.writer
        if writer is not None and writer.pid == os.getpid() and writer.current():
            return writer
        self._drop_writer()
        self.writer = writer = _Writer(self.segments_dir)
        return writer

    def _drop_writer(self) -> None:
        writer, self.writer = self.writer, None
        if writer is not None:
            writer.close()

    # -- the index -------------------------------------------------------

    def _index(self, key: str, entry: Tuple[int, str, int, int]) -> None:
        old = self.entries.get(key)
        if old is None or entry > old:
            self.entries[key] = entry

    def lookup(self, key: str) -> Optional[Tuple[int, str, int, int]]:
        """The index entry of ``key``; a miss first indexes what is new."""
        entries = self.entries
        if entries is not None:
            entry = entries.get(key)
            if entry is not None:
                return entry
        with self.lock:
            self.refresh()
            return self.entries.get(key)

    def refresh(self) -> None:
        """Index new segments and the grown tails of known ones (lock held).

        The directory is listed only when its mtime moved (a segment was
        created, removed or renamed), and a sealed segment is not looked
        at again, so a refresh costs a stat of the directory and of each
        segment still being written.  A segment that vanished or was
        replaced (gc, a removed root) invalidates the whole index, which
        is then rebuilt: frames already indexed are never read again
        otherwise.
        """
        if self.entries is None:
            self.entries, self.segments, self.listed = {}, {}, None
        now = time.time_ns()
        try:
            st = os.stat(self.segments_dir)
            mark = (st.st_dev, st.st_ino, st.st_mtime_ns)
        except OSError:
            mark = None
        if mark is None or mark != self.listed:
            self._relist()
            # Timestamps tick coarsely, so an unchanged mtime proves an
            # unchanged directory only once it is older than the tick.
            self.listed = None
            if mark is not None:
                settle = (_DIR_SETTLE_WHOLE_SECONDS_NS if mark[2] % 10**9 == 0
                          else _DIR_SETTLE_NS)
                if mark[2] < now - settle:
                    self.listed = mark
        writer = self.writer
        for name, seg in self.segments.items():
            if seg.sealed or seg.damaged is not None:
                continue
            if writer is not None and writer.name == name:
                if writer.end == seg.end:
                    continue
            else:
                try:
                    if os.stat(os.path.join(self.segments_dir, name)).st_size == seg.size:
                        continue
                except OSError:
                    continue
            self._scan(name, seg)

    def _relist(self) -> None:
        """Match the segment table to a fresh listing of the directory."""
        try:
            with os.scandir(self.segments_dir) as found:
                listing = {
                    entry.name: entry.inode()
                    for entry in found
                    if entry.name.endswith(SEGMENT_SUFFIX)
                }
        except OSError:
            listing = {}
        segments = self.segments
        if any(listing.get(name) != seg.inode for name, seg in segments.items()):
            self.entries, self.segments = {}, {}
            segments = self.segments
        for name, inode in listing.items():
            if name not in segments:
                segments[name] = _Segment(inode)

    def rebuild(self) -> None:
        """Forget the index and build it again from the segments (lock held)."""
        self.entries = None
        self.refresh()

    def _scan(self, name: str, seg: _Segment) -> None:
        try:
            fd = os.open(os.path.join(self.segments_dir, name), os.O_RDONLY)
        except OSError:
            return
        try:
            st = os.fstat(fd)
            if st.st_ino != seg.inode or st.st_size < seg.end:
                # Replaced or cut back since it was listed or indexed:
                # leave it to the next refresh, which rebuilds.
                seg.inode = -1
                return
            if st.st_size and _try_lock(fd, fcntl.LOCK_SH):
                # A writer locks its segment before the first append and
                # holds the lock while it lives, so this one's writer is
                # gone and its size is final.  (An empty segment may be
                # a writer's between creating and locking it.)
                seg.sealed = True
                st = os.fstat(fd)
            pos, size = seg.end, st.st_size
            seg.size = size
            buf, base = b"", pos
            while pos + HEADER_BYTES <= size:
                if pos + HEADER_BYTES > base + len(buf):
                    buf, base = os.pread(fd, _SCAN_CHUNK, pos), pos
                    if len(buf) < HEADER_BYTES:
                        break  # cut back while being read
                header = decode_header(buf, pos - base)
                if header is None:
                    seg.damaged = pos
                    if self.writer is not None and self.writer.name == name:
                        # Frames appended behind the damage would be
                        # hidden from every fresh reader.
                        self._drop_writer()
                    break
                key, stamp, length, _ = header
                end = pos + HEADER_BYTES + length
                if end > size:
                    break  # a torn tail, or a frame still being written
                self._index(key, (stamp, name, pos, length))
                seg.frames += 1
                pos = end
            seg.end = pos
        finally:
            os.close(fd)

    # -- reading ---------------------------------------------------------

    def frame(self, key: str) -> Optional[Tuple[memoryview, bool]]:
        """``(record bytes, checksum holds)`` of ``key``'s newest frame.

        A segment found gone or changed under its index entry triggers
        one rebuild of the index before the key reads as missing.
        """
        for _ in range(2):
            entry = self.lookup(key)
            if entry is None:
                return None
            found = self._read(key, entry)
            if found is not None:
                return found
            with self.lock:
                self.rebuild()
        return None

    def _read(self, key: str, entry) -> Optional[Tuple[memoryview, bool]]:
        stamp, name, offset, length = entry
        seg = self.segments.get(name)
        try:
            fd = os.open(os.path.join(self.segments_dir, name), os.O_RDONLY)
        except OSError:
            return None
        try:
            if seg is None or os.fstat(fd).st_ino != seg.inode:
                return None  # replaced since it was indexed
            buf = os.pread(fd, HEADER_BYTES + length, offset)
        finally:
            os.close(fd)
        header = decode_header(buf)
        if header is None or header[:3] != (key, stamp, length) or len(buf) != HEADER_BYTES + length:
            return None
        raw = memoryview(buf)[HEADER_BYTES:]
        return raw, record_crc(key, raw) == header[3]

    def snapshot(self, rescan: bool = False):
        """Copies of the index and segment table, brought up to date.

        ``rescan`` re-reads every frame header instead of only what is
        new: ``verify`` and ``gc`` judge the files as they are now, not
        as they were when this process first indexed them.
        """
        with self.lock:
            self.refresh()
            if rescan or any(seg.inode == -1 for seg in self.segments.values()):
                self.rebuild()
            return dict(self.entries), dict(self.segments)


_ROOTS: Dict[str, _Root] = {}
_ROOTS_LOCK = threading.Lock()


def _root_state(path: str) -> _Root:
    """The process's one :class:`_Root` for the absolute store root ``path``.

    A new root is the moment to forget roots whose directory is gone: a
    process that works through many short-lived stores (a benchmark
    pass or a test each) would otherwise keep every one's index and
    append handle for its lifetime.
    """
    with _ROOTS_LOCK:
        state = _ROOTS.get(path)
        if state is not None:
            return state
        state = _ROOTS[path] = _Root(path)
        gone = [
            _ROOTS.pop(other) for other in list(_ROOTS)
            if other != path and not os.path.isdir(other)
        ]
    for other in gone:
        if other.lock.acquire(blocking=False):
            try:
                other._drop_writer()
                other.entries, other.segments = None, {}
            finally:
                other.lock.release()
    return state


def _after_fork_in_child() -> None:
    """A forked child writes its own segments, never through its parent's.

    Locks are renewed (a parent thread may have held one at the fork) and
    inherited handles closed: the parent's flock stays with the parent.
    """
    global _ROOTS_LOCK
    _ROOTS_LOCK = threading.Lock()
    for state in _ROOTS.values():
        state.lock = threading.Lock()
        writer, state.writer = state.writer, None
        if writer is not None:
            writer.close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


class ResultStore:
    """Content-addressed store of JSON records in append-only segments.

    Beyond ``load``/``save``, the store is a maintainable artifact:
    :meth:`merge` reunifies per-shard campaign stores, :meth:`gc`
    retires records of dead code versions and compacts segments,
    :meth:`verify` re-hashes every payload, :meth:`stats` summarises the
    contents, and :meth:`export`/:meth:`import_` round-trip the records
    through a deterministic tarball for host-to-host transfer.  All of
    these are surfaced as ``python -m repro store`` verbs, and the
    campaign orchestrator (``docs/campaigns.md``) drives :meth:`merge` +
    :meth:`verify` automatically before promoting a merged store.
    """

    def __init__(self, root) -> None:
        self.root = Path(os.path.expanduser(str(root)))
        #: Where the segment files live; its newest file mtime is the
        #: store's heartbeat (:func:`repro.sweep.transport.newest_mtime`).
        self.segments_dir = self.root / SEGMENTS_DIR
        self._path = os.path.abspath(self.root)

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"

    def _root(self) -> _Root:
        return _ROOTS.get(self._path) or _root_state(self._path)

    def _read(self, key: str) -> Optional[Tuple[memoryview, Dict[str, Any]]]:
        """Record bytes and parsed record of ``key``, if both are sound."""
        found = self._root().frame(key)
        if found is None or not found[1]:
            return None
        record = _parse_record(key, found[0])
        return None if record is None else (found[0], record)

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Read the record under ``key``; None if missing or damaged.

        A damaged record -- a frame failing its checksum, bytes that do
        not parse or a record carrying another key -- reads as a miss,
        so the caller recomputes it and the fresh frame supersedes the
        bad one.  Nothing is deleted on read: the evidence stays for
        :meth:`verify` until :meth:`gc` drops the superseded frame.
        """
        found = self._read(key)
        return None if found is None else found[1]

    #: :meth:`load` under the name the serving layer reads with.
    peek = load

    def record_bytes(self, key: str) -> Optional[bytes]:
        """The bytes of the record under ``key`` exactly as saved, or None."""
        found = self._read(key)
        return None if found is None else bytes(found[0])

    def save(self, key: str, record: Dict[str, Any]) -> None:
        """Append ``record`` under ``key`` (best effort).

        Returns once the frame is handed to the OS, so a killed process
        loses no acknowledged record.  Persistence is an optimisation: an
        unwritable store must never take the simulation down with it.
        """
        self.save_all((key,), record)

    def save_all(self, keys: Iterable[str], record: Dict[str, Any]) -> None:
        """:meth:`save` of one ``record`` under each of ``keys``.

        The record is serialised once: each frame is that JSON with the
        frame's ``key`` field spliced in last, byte for byte what saving
        it under that key alone writes.
        """
        fields = {name: value for name, value in record.items() if name != "key"}
        head = (json.dumps(fields)[:-1] + (", " if fields else "") + '"key": ').encode("utf-8")
        for key in keys:
            try:
                self._root().append(key, head + json.dumps(key).encode("utf-8") + b"}")
            except OSError:
                continue

    def __contains__(self, key: str) -> bool:
        """Whether :meth:`load` would return a record: a damaged one is absent."""
        return self._read(key) is not None

    def __len__(self) -> int:
        """The number of keys with a frame, damaged ones included."""
        return len(self._root().snapshot()[0])

    def missing(self, keys: Iterable[str]) -> List[str]:
        """The subset of ``keys`` with no sound record here, in order.

        Read-only: the campaign orchestrator uses it to decide whether a
        shard store is complete before promoting a merge, and to report
        what a restart would recompute.
        """
        return [key for key in keys if key not in self]

    def iter_keys(self) -> Iterator[str]:
        """Every key with a frame in the store, damaged ones included, sorted."""
        return iter(sorted(self._root().snapshot()[0]))

    # -- maintenance ------------------------------------------------------

    def merge(self, other: "ResultStore") -> MergeStats:
        """Copy every valid record from ``other`` into this store.

        Content addressing makes merging trivially safe: two stores can
        only disagree under a key if one of them is corrupt or was
        produced by a non-deterministic simulator -- both worth
        surfacing, so differing payloads are counted as conflicts (ours
        kept) rather than silently overwritten.  Merging is idempotent
        and order-independent on the resulting key->payload map.

        Records are appended byte-for-byte as the source holds them (a
        merged campaign store must be indistinguishable from a
        single-process one), and unlike :meth:`save` a failed append
        raises: a broken destination must be reported, not dropped.
        """
        ours = Path(os.path.expanduser(str(self.root))).resolve()
        theirs = Path(os.path.expanduser(str(other.root))).resolve()
        if ours == theirs:
            raise ValueError(
                f"cannot merge store {str(other.root)!r} into itself"
            )
        stats = MergeStats(source=str(other.root))
        for key in other.iter_keys():
            found = other._read(key)
            if found is None:
                stats.corrupt += 1
                continue
            stats.merged += self._adopt(key, *found, stats)
        return stats

    def _adopt(self, key: str, raw, record: Dict[str, Any], stats) -> bool:
        """Append ``raw`` (sound ``record``) unless ``key`` is held; True if appended.

        A held record counts in ``stats.identical`` if its payload
        matches, else ``key`` goes on ``stats.conflicts`` (ours kept).
        """
        mine = self.load(key)
        if mine is None:
            self._root().append(key, raw)
            return True
        if canonical_json(mine["payload"]) == canonical_json(record["payload"]):
            stats.identical += 1
        else:
            stats.conflicts.append(key)
        return False

    def gc(
        self,
        keep_code_versions: Iterable[str] = (),
        drop_unstamped: bool = False,
        dry_run: bool = False,
    ) -> GcStats:
        """Retire records of dead code versions and compact segments.

        The current :func:`code_version` is *always* kept -- gc can
        never invalidate a warm run of the code that is actually
        installed -- plus any digests in ``keep_code_versions``.
        Records predating the ``code`` stamp are kept unless
        ``drop_unstamped`` is set.

        gc compacts only segments it can lock, so it never touches one
        another process is appending to.  Their kept frames -- including
        damaged ones, left for :meth:`verify` to report -- are copied
        verbatim into a fresh segment, renamed into place before the
        compacted segments are deleted.  Superseded frames, records of
        dead code versions, torn tails of killed writers and the partial
        copy a killed gc left are dropped.  A segment with a broken frame
        header is left as it is.
        """
        keep = {code_version()} | {str(v) for v in keep_code_versions}
        stats = GcStats(kept_code_versions=tuple(sorted(keep)))
        state = self._root()
        with state.lock:
            # This process's own handle is released so its segment can
            # be compacted too; the next save opens a fresh one.
            state._drop_writer()
        partials = _remove_partials(state.segments_dir, dry_run)
        locked: Dict[str, int] = {}
        try:
            for name, seg in sorted(state.snapshot()[1].items()):
                fd = _lock_segment(state.segments_dir, name, seg.inode)
                if fd is not None:
                    locked[name] = fd
            # A locked segment has no writer and never will again, so it
            # is indexed here in full; damaged ones stay as they are.
            entries, segments = state.snapshot(rescan=True)
            for name in list(locked):
                seg = segments.get(name)
                if seg is None or seg.damaged is not None or (
                    os.fstat(locked[name]).st_ino != seg.inode
                ):
                    os.close(locked.pop(name))
            copies: List[Tuple[int, str, int, int]] = []
            for key, entry in sorted(entries.items()):
                if entry[1] not in locked:
                    stats.kept += 1
                    continue
                found = state._read(key, entry)
                record = _parse_record(key, found[0]) if found and found[1] else None
                if record is None:
                    copies.append(entry)  # damaged: kept for verify
                    continue
                code = record.get("code")
                if code not in keep if code is not None else drop_unstamped:
                    stats.removed += 1
                    stats.removed_bytes += len(found[0])
                else:
                    stats.kept += 1
                    copies.append(entry)
            newest = Counter(entry[1] for entry in entries.values())
            for name, fd in locked.items():
                stats.superseded += segments[name].frames - newest[name]
                stats.torn_removed += os.fstat(fd).st_size > segments[name].end
            garbage = stats.removed + stats.superseded + stats.torn_removed
            if not dry_run and (len(locked) > 1 or (locked and garbage)):
                if copies:
                    _write_segment(state.segments_dir, sorted(copies), locked)
                for name in locked:
                    try:
                        os.unlink(os.path.join(state.segments_dir, name))
                    except OSError:
                        pass
        finally:
            for fd in locked.values():
                os.close(fd)
            with state.lock:
                state.entries = None
        stats.torn_removed += partials
        return stats

    def verify(self) -> VerifyReport:
        """Re-check every record and report damage, touching nothing.

        Each key is judged by the frame it answers with: the frame's
        checksum must hold, the record must parse and carry its own key,
        a ``payload_sha256`` stamp must match the canonical payload
        JSON, and ``trace`` payloads must decompress to bytes matching
        their embedded digest.  A segment whose frame header is broken
        hides the keys behind it; it is reported by name.  A torn tail
        (a killed writer's last frame cut short) is not damage.
        """
        report = VerifyReport()
        state = self._root()
        entries, segments = state.snapshot(rescan=True)
        for key, entry in sorted(entries.items()):
            report.checked += 1
            found = state._read(key, entry)
            if found is None:
                report.problems.append((key, "frame vanished while verifying"))
                continue
            raw, sound = found
            if not sound:
                report.problems.append((key, "frame checksum mismatch (bit-rot)"))
                continue
            try:
                record = json.loads(str(raw, "utf-8"))
            except ValueError:
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
        for name, seg in sorted(segments.items()):
            if seg.damaged is not None:
                report.problems.append((
                    f"{SEGMENTS_DIR}/{name}",
                    f"broken frame header at byte {seg.damaged}: "
                    "the records behind it are unreadable",
                ))
        return report

    def stats(self) -> Dict[str, Any]:
        """Summary of the store contents (counts, bytes, code versions).

        The returned dict is a stable, documented schema (version
        :data:`STATS_SCHEMA`, carried in the ``schema`` key): it is what
        ``python -m repro store stats --json`` prints and what the
        serving layer embeds under ``store`` in its ``/metrics``
        payload, so external monitoring can consume either without
        parsing human-formatted text.  Existing keys never change
        meaning within a schema version; additions bump it.  ``bytes``
        sums the record bytes of the records counted.
        """
        by_kind: Dict[str, int] = {}
        code_versions: Dict[str, int] = {}
        records = 0
        total_bytes = 0
        unstamped = 0
        corrupt = 0
        for key in self.iter_keys():
            found = self._read(key)
            if found is None:
                corrupt += 1
                continue
            raw, record = found
            records += 1
            total_bytes += len(raw)
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
        so exports can themselves be content-addressed or diffed.  Each
        record is the member ``records/<key[:2]>/<key>.json``, holding
        its bytes exactly as saved.  Returns the number exported.
        """
        archive = Path(os.path.expanduser(str(archive)))
        records = []
        for key in self.iter_keys():
            found = self._read(key)
            if found is not None:
                records.append((key, found[0]))
        archive.parent.mkdir(parents=True, exist_ok=True)

        def member(name: str, raw: bytes) -> Tuple[tarfile.TarInfo, bytes]:
            info = tarfile.TarInfo(name)
            info.size = len(raw)
            info.mtime = 0
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            return info, raw

        meta = canonical_json(
            {"schema": SCHEMA_VERSION, "records": len(records)}
        ).encode("utf-8")
        # gzip via fileobj so the header carries neither the archive
        # filename nor a timestamp: same contents, same bytes.
        with open(archive, "wb") as raw_out, gzip.GzipFile(
            filename="", fileobj=raw_out, mode="wb", mtime=0
        ) as gz:
            with tarfile.open(fileobj=gz, mode="w") as tar:
                for info, raw in [member(_EXPORT_META, meta)] + [
                    member(f"records/{key[:2]}/{key}.json", raw)
                    for key, raw in records
                ]:
                    tar.addfile(info, io.BytesIO(raw))
        return len(records)

    def import_(self, archive) -> ImportStats:
        """Load an :meth:`export` archive into this store.

        Member names are validated against the archive layout (a 64-hex
        key under its 2-hex prefix directory -- no traversal, no
        foreign files) and each record must parse and carry the key its
        name claims; anything else is rejected, not stored.
        ``export`` then ``import_`` into a fresh root is a byte-exact
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
                record = _parse_record(key, raw)
                if record is None:
                    stats.rejected += 1
                    continue
                stats.imported += self._adopt(key, raw, record, stats)
        return stats


def _try_lock(fd: int, operation: int) -> bool:
    """Take ``fd``'s flock without waiting; False if another holds it."""
    try:
        fcntl.flock(fd, operation | fcntl.LOCK_NB)
    except OSError:
        return False
    return True


def _lock_segment(segments_dir: str, name: str, inode: int) -> Optional[int]:
    """An fd holding ``name``'s flock, or None if a writer holds it."""
    try:
        fd = os.open(os.path.join(segments_dir, name), os.O_RDONLY)
    except OSError:
        return None
    try:
        if _try_lock(fd, fcntl.LOCK_EX) and os.fstat(fd).st_ino == inode:
            return fd
    except OSError:
        pass
    os.close(fd)
    return None


def _write_segment(
    segments_dir: str,
    copies: List[Tuple[int, str, int, int]],
    sources: Dict[str, int],
) -> None:
    """Copy whole frames from ``sources`` into one fresh, durable segment.

    Written under a locked name readers ignore and renamed into place,
    so a reader sees either the old segments or every copied frame.  The
    file and then the directory are flushed to disk before this returns:
    the caller deletes the sources next, and a power loss must not lose
    records that now live only in the copy.
    """
    name = f"{time.time_ns():016x}-{os.getpid()}-{secrets.token_hex(4)}"
    tmp = os.path.join(segments_dir, f".{name}{_PARTIAL_SUFFIX}")
    try:
        with open(tmp, "xb") as out:
            # Held until the rename: gc removes only partial copies it
            # can lock, the leftovers of a compaction that was killed.
            fcntl.flock(out.fileno(), fcntl.LOCK_EX)
            for _, segment, offset, length in copies:
                out.write(os.pread(sources[segment], HEADER_BYTES + length, offset))
            out.flush()
            os.fsync(out.fileno())
            os.replace(tmp, os.path.join(segments_dir, name + SEGMENT_SUFFIX))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fd = os.open(segments_dir, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _remove_partials(segments_dir: str, dry_run: bool) -> int:
    """Remove what killed compactions left behind; returns how many."""
    try:
        names = [
            name for name in os.listdir(segments_dir)
            if name.startswith(".") and name.endswith(_PARTIAL_SUFFIX)
        ]
    except OSError:
        return 0
    removed = 0
    for name in names:
        path = os.path.join(segments_dir, name)
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            continue
        try:
            if _try_lock(fd, fcntl.LOCK_EX):
                if not dry_run:
                    os.unlink(path)
                removed += 1
        except OSError:
            pass
        finally:
            os.close(fd)
    return removed


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


#: What :func:`default_store` last read -- :data:`STORE_ENV` and ``HOME``,
#: which ``expanduser`` reads -- and the store it resolved them to.
_DEFAULT_STORE: Tuple[Optional[str], Optional[str], Optional[ResultStore]] = (
    None, None, None,
)


def default_store() -> Optional[ResultStore]:
    """The process-wide store selected by :data:`STORE_ENV`.

    Re-reads the environment on every call so tests (and the CLI's
    ``--store`` flag, which sets the variable) can redirect it; while
    what it reads is unchanged it returns the store it resolved last.
    """
    global _DEFAULT_STORE
    env = os.environ.get(STORE_ENV)
    home = os.environ.get("HOME")
    last_env, last_home, store = _DEFAULT_STORE
    if env == last_env and home == last_home and store is not None:
        return store
    if env is not None and env.strip().lower() in ("", "0", "off", "none"):
        return None
    root = os.path.expanduser(env if env is not None else DEFAULT_STORE_ROOT)
    if store is None or str(store.root) != root:
        store = ResultStore(root)
    _DEFAULT_STORE = (env, home, store)
    return store


# ---------------------------------------------------------------------------
# The in-process memo in front of the store.
# ---------------------------------------------------------------------------


class _Budget:
    """One byte budget of an :class:`LruCache`: its entries, oldest first.

    With ``per_object`` an object held under several keys weighs its
    bytes once, for as long as any of them holds it (``holders`` counts
    the keys of each held object, by identity); otherwise every entry
    weighs its own bytes.
    """

    __slots__ = ("max_bytes", "bytes", "entries", "evictions", "rejected", "holders")

    def __init__(self, max_bytes: int, per_object: bool = False) -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes!r}")
        self.max_bytes = int(max_bytes)
        self.bytes = 0
        self.entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self.evictions = 0
        self.rejected = 0
        self.holders: Optional[Dict[int, List[int]]] = {} if per_object else None

    def __len__(self) -> int:
        return len(self.entries)

    def hold(self, value: Any, size: int) -> None:
        """Charge a new entry holding ``value``."""
        if self.holders is None:
            self.bytes += size
            return
        held = self.holders.get(id(value))
        if held is None:
            self.holders[id(value)] = [1, size]
            self.bytes += size
        else:
            held[0] += 1

    def release(self, value: Any, size: int) -> None:
        """Refund an entry holding ``value`` that left the budget."""
        if self.holders is None:
            self.bytes -= size
            return
        held = self.holders[id(value)]
        held[0] -= 1
        if not held[0]:
            del self.holders[id(value)]
            self.bytes -= held[1]

    def clear(self) -> None:
        self.entries.clear()
        self.bytes = 0
        if self.holders is not None:
            self.holders.clear()


class LruCache:
    """Byte-weighted LRU with hit/miss/eviction accounting.

    Thread-safe: one lock guards the entries and the counters, held only
    around the dict operations -- never while a caller reads the store or
    computes a value.  ``put`` of an entry larger than its whole budget
    is refused (counted in ``rejected``) rather than flushing everything
    else to make room for one oversized tenant.  A subclass may split
    the entries over several budgets (:meth:`_budget` picks a key's);
    each evicts only its own entries, and :meth:`stats` sums them.
    """

    def __init__(self, max_bytes: int, name: str = "cache") -> None:
        self.name = name
        self._budgets: Tuple[_Budget, ...] = (_Budget(max_bytes),)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _budget(self, key: Any) -> _Budget:
        """The budget ``key``'s entry is weighed against."""
        return self._budgets[0]

    @property
    def bytes(self) -> int:
        return sum(budget.bytes for budget in self._budgets)

    @property
    def max_bytes(self) -> int:
        return sum(budget.max_bytes for budget in self._budgets)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(budget) for budget in self._budgets)

    def __contains__(self, key: Any) -> bool:
        budget = self._budget(key)
        with self._lock:
            return key in budget.entries

    def get(self, key: Any) -> Optional[Any]:
        budget = self._budget(key)
        with self._lock:
            entry = budget.entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            budget.entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Any, value: Any, size: int) -> bool:
        """Insert ``value`` weighing ``size`` bytes; True if it stayed."""
        size = max(0, int(size))
        budget = self._budget(key)
        with self._lock:
            old = budget.entries.pop(key, None)
            if old is not None:
                budget.release(*old)
            if size > budget.max_bytes:
                budget.rejected += 1
                return False
            budget.entries[key] = (value, size)
            budget.hold(value, size)
            while budget.bytes > budget.max_bytes:
                _, evicted = budget.entries.popitem(last=False)
                budget.release(*evicted)
                budget.evictions += 1
            return True

    def discard(self, key: Any) -> None:
        """Drop the entry under ``key``, if there is one."""
        budget = self._budget(key)
        with self._lock:
            old = budget.entries.pop(key, None)
            if old is not None:
                budget.release(*old)

    def clear(self) -> None:
        with self._lock:
            for budget in self._budgets:
                budget.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            budgets = self._budgets
            return {
                "entries": sum(len(budget) for budget in budgets),
                "bytes": sum(budget.bytes for budget in budgets),
                "max_bytes": sum(budget.max_bytes for budget in budgets),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": sum(budget.evictions for budget in budgets),
                "rejected": sum(budget.rejected for budget in budgets),
            }


class MemoCache(LruCache):
    """:data:`MEMO`'s cache: traces and every other record budgeted apart.

    Keys are :func:`memo_key` tuples.  A trace (kind ``"trace"``) is
    weighed against ``trace_bytes``, anything else against
    ``record_bytes``, so filling one budget never evicts the other's
    entries: a run of freshly decoded traces cannot push out the kernel
    timings a later sweep answers unkeyed, nor a run of timings the
    traces a later artefact re-times.  A trace object filed under
    several keys -- one batch trace shared by every seed of a
    multi-seed sweep -- weighs its bytes once.
    """

    def __init__(self, record_bytes: int, trace_bytes: int, name: str = "memo") -> None:
        super().__init__(record_bytes, name)
        self.records = self._budgets[0]
        self.traces = _Budget(trace_bytes, per_object=True)
        self._budgets = (self.records, self.traces)

    def _budget(self, key: Any) -> _Budget:
        return self.traces if key[1] == "trace" else self.records


def trace_nbytes(cols: ColumnarTrace) -> int:
    """In-memory footprint of one columnar trace: its column bytes."""
    return max(cols.nbytes, 1)


#: Byte budget of :data:`MEMO`'s traces, weighed by their column bytes,
#: each distinct trace object once: one whole-paper pass, so no artefact
#: decodes a trace an earlier one emulated (the 44 traces of a cold
#: twelve-artefact pass weigh 5.7 MiB), and every distinct trace of a
#: 4-seed sweep of every kernel x paper ISA (56 traces), so its
#: ablations decode none.  A trace hit saves about a millisecond of
#: decoding.
MEMO_TRACE_BYTES = 16 * 1024 * 1024

#: Byte budget of :data:`MEMO`'s other records, each weighing
#: :data:`MEMO_ENTRY_BYTES`: room for 8,192, against the 389 a
#: whole-paper pass reads.
MEMO_BYTES = 8 * 1024 * 1024

#: What every memo entry but a trace weighs: timings, scalar IPCs and
#: application profiles are small next to a trace's columns.
MEMO_ENTRY_BYTES = 1024

#: The one in-process memo of store records: traces, kernel timings,
#: scalar IPCs and application profiles, keyed by :func:`memo_key`.
#: The store is the system of record, so eviction only costs a re-read.
MEMO = MemoCache(MEMO_BYTES, MEMO_TRACE_BYTES)


def memo_key(
    store: Optional[ResultStore], kind: str, identity: Any
) -> Tuple[Any, ...]:
    """The :data:`MEMO` key of one record of ``store`` (None: no store).

    Ends in the machine registry's generation, so nothing memoised
    before a family is registered, replaced or removed answers after.
    """
    root = None if store is None else str(store.root)
    return (root, kind, identity, registry_generation())


def memoise(key: Tuple[Any, ...], value: Any) -> Any:
    """Put ``value`` into :data:`MEMO` under ``key``; returns ``value``."""
    size = trace_nbytes(value) if key[1] == "trace" else MEMO_ENTRY_BYTES
    MEMO.put(key, value, size)
    return value
