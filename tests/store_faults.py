"""Fault injection for the result store.

This is the only test code that knows how the store lays records out on
disk: append-only segment files of framed records under
``<root>/segments/``.  Every other test damages, drops or reads a
record's raw bytes through the functions here, so a change of layout
changes this module and nothing else.

Damage kinds (``damage(store, key, how)``), each applied to the frame
the store answers ``key`` with:

* ``truncate`` -- the record's bytes are cut short (the frame checksum
  no longer holds);
* ``garbage``  -- the record's bytes are overwritten in place by
  non-UTF-8 garbage (bit-rot: the checksum fails);
* ``edit``     -- the payload is changed but the record still parses and
  the frame checksum is fixed up (a hand edit: only the payload hash can
  catch it);
* ``copy``     -- another key's record is filed under ``key`` (the
  first other key in key order; ``key`` need not exist).

Each leaves a record that ``verify`` reports under ``key``; all but
``edit`` read as misses.  Rewrites replace the segment file, as any tool
editing it would, so a reader notices through the file's identity.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.sweep.store import (
    HEADER_BYTES,
    SEGMENT_SUFFIX,
    decode_header,
    encode_header,
    record_crc,
)

DAMAGE_KINDS = ("truncate", "garbage", "edit", "copy")

#: (offset, key, stamp, record bytes, checksum) of one whole frame.
Frame = Tuple[int, str, int, bytes, int]


def record_bytes(store, key: str) -> bytes:
    """The raw bytes stored under ``key``, exactly as saved."""
    raw = store.record_bytes(key)
    assert raw is not None, f"no sound record under {key}"
    return raw


def segment_files(store) -> Dict[str, int]:
    """Every segment file of ``store``: name -> size in bytes."""
    directory = Path(store.segments_dir)
    if not directory.is_dir():
        return {}
    return {
        path.name: path.stat().st_size
        for path in sorted(directory.iterdir())
        if path.name.endswith(SEGMENT_SUFFIX)
    }


def damage(store, key: str, how: str) -> None:
    """Damage the record under ``key`` in one of :data:`DAMAGE_KINDS`."""
    if how == "copy":
        source = next(other for other in store.iter_keys() if other != key)
        raw = record_bytes(store, source)
        path = _segment_path(store, source)
        frames = _frames(path)
        frames.append((-1, key, time.time_ns(), raw, record_crc(key, raw)))
        _rewrite(path, frames)
        return
    path, index, frames = _newest(store, key)
    offset, _, stamp, raw, crc = frames[index]
    if how == "garbage":
        with open(path, "r+b") as handle:
            handle.seek(offset + HEADER_BYTES)
            handle.write(_garbage(len(raw)))
        return
    if how == "truncate":
        frames[index] = (offset, key, stamp, raw[: len(raw) // 2], crc)
    elif how == "edit":
        record = json.loads(raw)
        record["payload"] = {"edited": record["payload"]}
        edited = json.dumps(record).encode("utf-8")
        frames[index] = (offset, key, stamp, edited, record_crc(key, edited))
    else:
        raise ValueError(f"unknown damage kind {how!r}")
    _rewrite(path, frames)


def drop(store, key: str) -> None:
    """Remove every frame of ``key``, as if it had never been saved."""
    for name in segment_files(store):
        path = Path(store.segments_dir) / name
        frames = _frames(path)
        kept = [frame for frame in frames if frame[1] != key]
        if len(kept) != len(frames):
            _rewrite(path, kept)


def tear(store, key: str) -> None:
    """Leave what a writer killed mid-append leaves: a frame cut short.

    The torn frame is the whole content of a fresh segment, as a killed
    process's segment would end with it.
    """
    raw = json.dumps({"key": key, "kind": "test", "payload": {"torn": True}}).encode()
    frame = encode_header(key, time.time_ns(), raw) + raw
    directory = Path(store.segments_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{time.time_ns():016x}-0-torn{SEGMENT_SUFFIX}").write_bytes(
        frame[: HEADER_BYTES + len(raw) // 2]
    )


def plant_partial(store) -> Path:
    """Leave what a gc killed while copying leaves: a partial segment.

    It lies under the dot-prefixed ``.tmp`` name gc writes its copy to
    before renaming it into place; returns its path.
    """
    directory = Path(store.segments_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f".{time.time_ns():016x}-0-killed.tmp"
    raw = json.dumps({"key": "0" * 64, "kind": "test", "payload": {}}).encode()
    path.write_bytes((encode_header("0" * 64, time.time_ns(), raw) + raw)[:40])
    return path


def settle(store) -> None:
    """Date the segment directory an hour back.

    Readers list the directory again only when its mtime moves, and
    trust an unchanged mtime only once it is older than a timestamp
    tick; this makes a directory look long untouched without waiting.
    """
    stale = time.time() - 3600
    os.utime(store.segments_dir, (stale, stale))


def flip_length(store, key: str) -> List[str]:
    """Flip a bit of the length in ``key``'s frame header, in place.

    Returns the keys whose frames lie from that frame on in its segment:
    a reader can no longer find where any of them starts.
    """
    path, index, frames = _newest(store, key)
    offset = frames[index][0]
    with open(path, "r+b") as handle:
        # The length field sits after magic (4), key (32) and stamp (8).
        handle.seek(offset + 44)
        byte = handle.read(1)[0]
        handle.seek(offset + 44)
        handle.write(bytes([byte ^ 0x10]))
    return [frame[1] for frame in frames[index:]]


def _frames(path: Path) -> List[Frame]:
    """Every whole frame of one segment, in file order."""
    data = path.read_bytes()
    frames, pos = [], 0
    while pos + HEADER_BYTES <= len(data):
        header = decode_header(data, pos)
        assert header is not None, f"broken frame header in {path} at {pos}"
        key, stamp, length, crc = header
        raw = data[pos + HEADER_BYTES: pos + HEADER_BYTES + length]
        if len(raw) < length:
            break
        frames.append((pos, key, stamp, raw, crc))
        pos += HEADER_BYTES + length
    return frames


def _newest(store, key: str) -> Tuple[Path, int, List[Frame]]:
    """The segment, frame index and frames of ``key``'s newest frame."""
    best = None
    for name in segment_files(store):
        path = Path(store.segments_dir) / name
        frames = _frames(path)
        for index, frame in enumerate(frames):
            if frame[1] == key and (best is None or (frame[2], name) > best[0]):
                best = ((frame[2], name), path, index, frames)
    assert best is not None, f"no frame of {key} in {store}"
    return best[1], best[2], best[3]


def _segment_path(store, key: str) -> Path:
    return _newest(store, key)[0]


def _rewrite(path: Path, frames: List[Frame]) -> None:
    """Replace a segment by one holding ``frames`` (a new file identity)."""
    tmp = path.with_name("." + path.name + ".rewrite")
    tmp.write_bytes(b"".join(
        encode_header(key, stamp, raw, crc) + raw
        for _, key, stamp, raw, crc in frames
    ))
    os.replace(tmp, path)


def _garbage(size: int) -> bytes:
    """``size`` bytes that are not UTF-8 (nor JSON)."""
    pattern = b"\xff\xfe\x00garbage\x80"
    return (pattern * (size // len(pattern) + 1))[:size]
