"""Writer for the legacy segment layout that ``forkbase migrate`` reads.

Before the pack store became the only durable backend, an engine kept
its chunks under ``<data-dir>/chunks`` as::

    segments/seg-NNNNNN.dat   records: [tag u8][len u32][payload]
    index.dat                 FBIX0002 snapshot: entry count, segment
                              count, (segment u32, length u64) watermarks,
                              then (digest, segment u32, offset u32) entries

The tests build such directories (and damage them) with this helper; the
committed ``fixtures/legacy_filestore`` directory was written by the old
store itself.
"""

from __future__ import annotations

import os
import struct
from typing import Dict, Iterable, List, Optional, Tuple

from repro.chunk import Chunk, ChunkType, Uid

HEADER = struct.Struct(">BI")
_INDEX_MAGIC = b"FBIX0002"


def chunk_dir(data_dir: str) -> str:
    return os.path.join(data_dir, "chunks")


def segment_path(data_dir: str, number: int = 0) -> str:
    return os.path.join(chunk_dir(data_dir), "segments", "seg-%06d.dat" % number)


def index_path(data_dir: str) -> str:
    return os.path.join(chunk_dir(data_dir), "index.dat")


def record(chunk: Chunk) -> bytes:
    return HEADER.pack(int(chunk.type), len(chunk.data)) + chunk.data


Placement = Tuple[Chunk, int, int]  # chunk, segment number, offset


def write_legacy(
    data_dir: str,
    chunks: Iterable[Chunk],
    segment_limit: int = 64 * 1024 * 1024,
    index: bool = True,
) -> List[Placement]:
    """Append ``chunks`` the way the old store did, one session.

    Appends go to the end of the newest segment (after any torn bytes,
    as the old store's append-mode writer did), rolling to a fresh one
    once it holds ``segment_limit`` bytes; ``index`` writes the snapshot
    over every record on disk (the old store's clean close).  Returns
    where each chunk landed.
    """
    seg_dir = os.path.join(chunk_dir(data_dir), "segments")
    os.makedirs(seg_dir, exist_ok=True)
    numbers = sorted(int(name[4:-4]) for name in os.listdir(seg_dir)) or [0]
    active = numbers[-1]
    placed: List[Placement] = []
    for chunk in chunks:
        path = segment_path(data_dir, active)
        if os.path.exists(path) and os.path.getsize(path) >= segment_limit:
            active += 1
            path = segment_path(data_dir, active)
        with open(path, "ab") as handle:
            placed.append((chunk, active, handle.tell()))
            handle.write(record(chunk))
    if index:
        write_index(data_dir)
    return placed


def write_index(data_dir: str, placed: Optional[Iterable[Placement]] = None) -> None:
    """Write ``index.dat`` with every segment's current size as its watermark.

    The entries are ``placed`` when given (what the old store had in
    memory at a clean close), else every record a scan of the (intact)
    segments finds.
    """
    seg_dir = os.path.join(chunk_dir(data_dir), "segments")
    numbers = sorted(int(name[4:-4]) for name in os.listdir(seg_dir))
    entries: Dict[Uid, Tuple[int, int]] = {}
    watermarks = []
    for number in numbers:
        data = open(segment_path(data_dir, number), "rb").read()
        offset = 0
        while placed is None and offset + HEADER.size <= len(data):
            tag, length = HEADER.unpack_from(data, offset)
            payload = data[offset + HEADER.size : offset + HEADER.size + length]
            entries[Chunk(ChunkType(tag), payload).uid] = (number, offset)
            offset += HEADER.size + length
        watermarks.append((number, len(data)))
    for chunk, number, offset in placed or ():
        entries[chunk.uid] = (number, offset)
    parts = [_INDEX_MAGIC, struct.pack(">QQ", len(entries), len(watermarks))]
    parts += [struct.pack(">IQ", number, length) for number, length in watermarks]
    parts += [
        struct.pack(">32sII", uid.digest, number, offset)
        for uid, (number, offset) in entries.items()
    ]
    with open(index_path(data_dir), "wb") as handle:
        handle.write(b"".join(parts))
