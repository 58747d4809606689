"""``forkbase migrate``: convert the legacy segment layout to a pack store.

The legacy layout is ``chunks/segments/seg-NNNNNN.dat`` files of
``[tag u8][len u32][payload]`` records plus an ``index.dat`` snapshot.
A read-only scan feeds every record, re-hashed, to a
:class:`~repro.store.packstore.PackStore`.  The old store kept appending
past a torn record, so a scan also resumes at each record boundary its
index knows, and every record that index lists must re-hash to its
digest.  The old files go only once the pack is durable and holds every
chunk the heads reach: a refused or interrupted migration loses nothing
and just runs again.  Records the old index had dropped come back as
unreachable chunks for ``gc``.
"""

from __future__ import annotations

import os
import shutil
import struct
from typing import Dict, List, Mapping, Optional, Set

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import EngineError, map_os_error
from repro.store.durability import fsync_dir, read_check
from repro.store.gc import mark_live
from repro.store.packstore import PackStore, read_index
from repro.vcs.journal import recover_heads

_RECORD_HEADER = struct.Struct(">BI")  # type tag, payload length
_INDEX_ENTRY = struct.Struct(">32sII")  # digest, segment number, offset
_INDEX_MAGIC = b"FBIX0002"
_TAGS = frozenset(int(member) for member in ChunkType)

#: segment -> {record offset: digest}; a watermark is a digest-less boundary.
Boundaries = Dict[int, Dict[int, Optional[bytes]]]


def _load_index(chunk_dir: str, sizes: Mapping[int, int]) -> Boundaries:
    """The old ``index.dat`` as record boundaries; empty wherever the old
    store would have rejected it (and rebuilt by a plain scan)."""
    snapshot = read_index(
        os.path.join(chunk_dir, "index.dat"), _INDEX_MAGIC, _INDEX_ENTRY, sizes,
        extent=lambda entry: entry[2] + _RECORD_HEADER.size,
    )
    if snapshot is None:
        return {}
    marks, entries = snapshot
    known: Boundaries = {segment: {mark: None} for segment, mark in marks.items()}
    for digest, segment, offset in entries:
        known[segment][offset] = digest
    return known


def _record_at(data: bytes, offset: int) -> Optional[Chunk]:
    """The record starting at ``offset``, or None if torn or mis-tagged."""
    if offset + _RECORD_HEADER.size > len(data):
        return None
    tag, length = _RECORD_HEADER.unpack_from(data, offset)
    start = offset + _RECORD_HEADER.size
    if tag not in _TAGS or start + length > len(data):
        return None
    return Chunk(ChunkType(tag), data[start : start + length])


def _scan_segment(path: str, known: Dict[int, Optional[bytes]]) -> List[Chunk]:
    """A legacy segment's records, re-hashed: every chain of records that
    starts at offset 0 or at a boundary the old index knows."""
    read_check(path, label="legacy-segment")
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise map_os_error(exc, "read", path) from exc
    found: Dict[int, Chunk] = {}
    pending = [0, *known]
    while pending:
        offset = pending.pop()
        chunk = None if offset in found else _record_at(data, offset)
        if chunk is not None:  # else torn or rotten: its chain ends here
            found[offset] = chunk
            pending.append(offset + _RECORD_HEADER.size + len(chunk.data))
    for offset, digest in known.items():
        if digest is not None and (offset not in found or found[offset].uid.digest != digest):
            raise EngineError(
                f"{path}: the legacy index lists a record at offset {offset} that "
                f"is damaged; the legacy files were kept"
            )
    return list(found.values())


def migrate_legacy(data_dir: str) -> str:
    """Convert ``<data_dir>/chunks`` to a pack store; returns a summary."""
    chunk_dir = os.path.join(data_dir, "chunks")
    seg_dir = os.path.join(chunk_dir, "segments")
    if not os.path.isdir(seg_dir):
        raise EngineError(f"{chunk_dir} holds no legacy segment layout to migrate")
    paths = {
        int(name[4:-4]): os.path.join(seg_dir, name)
        for name in os.listdir(seg_dir)
        if name.startswith("seg-") and name.endswith(".dat")
    }
    known = _load_index(chunk_dir, {n: os.path.getsize(p) for n, p in paths.items()})
    table, _, journal = recover_heads(data_dir, fsync="never")
    journal.close()
    records = added = 0
    missing: Set[Uid] = set()
    with PackStore(chunk_dir) as store:
        for number in sorted(paths):
            chunks = _scan_segment(paths[number], known.get(number, {}))
            added += store.put_many(chunks)
            records += len(chunks)
        mark_live(store, [head for _, _, head in table.all_heads()], missing)
    if missing:
        example = sorted(uid.base32() for uid in missing)[0]
        raise EngineError(
            f"{len(missing)} chunk(s) reachable from the heads (e.g. {example}) "
            f"are in no intact legacy record; the legacy files were kept"
        )
    shutil.rmtree(seg_dir)
    for name in ("index.dat", "index.dat.tmp"):
        try:
            os.remove(os.path.join(chunk_dir, name))
        except FileNotFoundError:
            pass  # never written, or already gone
    fsync_dir(chunk_dir)
    return (
        f"migrated {records} record(s) from {len(paths)} legacy segment(s): "
        f"{added} new chunk(s)"
    )
