"""Append-only pack-file chunk store: the durable chunk backend.

Chunks live in sized pack segments, each written through one
:class:`~repro.store.appendlog.AppendLog` (which owns the un-ack and
fsync-recovery discipline) and read back through mmap slices.  On top of
the log the store adds what the indexing-structure survey
(arXiv:2003.02090) shows matters at scale:

- **CRC-framed records with per-record compression**:
  ``[tag][codec][stored_len][raw_len][digest][crc32]`` then the stored
  payload.  The codec is zstd when ``zstandard`` is importable, zlib
  otherwise, raw whenever compression does not shrink the payload.  The
  CRC is checked before anything is decompressed, and the embedded digest
  lets an index rebuild recover uids without decompressing.
- **A durable FBPX offset index** with per-segment watermarks, saved with
  the fsync-before-rename discipline and crash-points at every step.
  Torn tails truncate on recovery; interior rot raises.
- **A bloom existence filter** answering negative ``has()`` probes from
  four 64-bit slices of the (already uniform) SHA-256 digest.

Deletes drop the index entry (durable at the next index snapshot); dead
bytes are reclaimed by :meth:`PackStore.compact_segments`, which the
pack-aware sweep in :mod:`repro.store.gc` drives.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.chunk import Chunk, ChunkType, Uid
from repro.errors import (
    ChunkCorruptionError,
    StoreClosedError,
    StoreError,
    TransientStoreError,
    map_os_error,
)
from repro.faults.crash import crashpoint
from repro.store.appendlog import AppendLog, write_snapshot
from repro.store.base import ChunkStore
from repro.store.durability import fsync_dir, fsync_path, read_check

try:  # optional accelerator: per-record zstd compression
    import zstandard as _zstd
except ImportError:  # pragma: no cover - optional dependency
    _zstd = None  # type: ignore[assignment]

#: What a failed inflate raises: the stored bytes are bad.
_INFLATE_ERRORS = (zlib.error,) if _zstd is None else (zlib.error, _zstd.ZstdError)

#: Record frame: type tag, codec id, stored length, raw length, digest.
#: A >I crc32 over these fields plus the stored payload follows.
_FRAME = struct.Struct(">BBII32s")
_CRC = struct.Struct(">I")
_FRAME_SIZE = _FRAME.size + _CRC.size

#: Codec ids carried in the frame's second byte.
_CODEC_RAW = 0
_CODEC_ZLIB = 1
_CODEC_ZSTD = 2

_INDEX_MAGIC = b"FBPX0001"
_INDEX_ENTRY = struct.Struct(">32sIQI")  # digest, segment, offset, record length
_WATERMARK_ENTRY = struct.Struct(">IQ")  # segment number, indexed length

#: Hot-path tag decode: a dict probe is ~10x cheaper than ChunkType(tag).
_TAG_TO_TYPE: Dict[int, ChunkType] = {int(member): member for member in ChunkType}


class _Bloom:
    """Bit-array existence filter keyed on SHA-256 digests.

    uids are already uniform hash output, so k=4 independent hash
    functions fall out of slicing the digest into four big-endian 64-bit
    words — no extra hashing, fully deterministic across runs.
    """

    __slots__ = ("_bits", "_mask", "count")

    #: Target bits per key; 16 bits/key at k=4 gives ~0.24% false positives.
    BITS_PER_KEY = 16

    def __init__(self, capacity: int = 1024) -> None:
        size = 1024
        while size < capacity * self.BITS_PER_KEY:
            size <<= 1
        self._bits = bytearray(size // 8)
        self._mask = size - 1
        self.count = 0

    def add(self, uid: Uid) -> None:
        bits = self._bits
        mask = self._mask
        for word in struct.unpack(">4Q", uid.digest):
            position = word & mask
            bits[position >> 3] |= 1 << (position & 7)
        self.count += 1

    def __contains__(self, uid: Uid) -> bool:
        bits = self._bits
        mask = self._mask
        for word in struct.unpack(">4Q", uid.digest):
            position = word & mask
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    @property
    def saturated(self) -> bool:
        """True once additions exceed the sizing target (rebuild time)."""
        return self.count * self.BITS_PER_KEY > (self._mask + 1)


def read_index(
    path: str,
    magic: bytes,
    entry: struct.Struct,
    sizes: Mapping[int, int],
    extent: Callable[[Tuple[Any, ...]], int],
) -> Optional[Tuple[Dict[int, int], List[Tuple[Any, ...]]]]:
    """Parse ``magic``, entry and segment counts, ``(segment, length)``
    watermarks, then ``entry`` records led by ``(digest, segment, offset)``.
    None if absent, foreign, truncated or stale (a watermarked segment is
    missing from ``sizes`` or shorter than its watermark, or an entry's
    ``extent`` reaches past its segment's watermark)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        count, seg_count = struct.unpack_from(">QQ", data, len(magic))
        end = len(magic) + 16 + seg_count * _WATERMARK_ENTRY.size
        marks = dict(_WATERMARK_ENTRY.iter_unpack(data[len(magic) + 16 : end]))
        entries = list(entry.iter_unpack(data[end : end + count * entry.size]))
    except (OSError, struct.error):
        return None
    if data[: len(magic)] != magic or (len(marks), len(entries)) != (seg_count, count):
        return None
    if any(sizes.get(segment, -1) < mark for segment, mark in marks.items()):
        return None
    if any(extent(fields) > marks.get(fields[1], -1) for fields in entries):
        return None
    return marks, entries


class PackStore(ChunkStore):
    """Durable chunk store over compressed, CRC-framed pack files."""

    supports_in_place_sweep = True

    def __init__(
        self,
        directory: str,
        verify_reads: bool = False,
        segment_limit: int = 64 * 1024 * 1024,
        compression: str = "auto",
        compress_min: int = 64,
    ) -> None:
        super().__init__(verify_reads=verify_reads)
        self._dir = directory
        self._pack_dir = os.path.join(directory, "packs")
        self._segment_limit = segment_limit
        self._compress_min = compress_min
        self._codec = self._resolve_codec(compression)
        #: uid -> (segment, offset, record length incl. frame)
        self._index: Dict[Uid, Tuple[int, int, int]] = {}
        self._maps: Dict[int, mmap.mmap] = {}
        self._closed = False
        self._dead_records = 0
        self._dead_bytes = 0
        self.bloom_negatives = 0
        os.makedirs(self._pack_dir, exist_ok=True)
        self._segments = sorted(
            int(name[5:-4])
            for name in os.listdir(self._pack_dir)
            if name.startswith("pack-") and name.endswith(".dat")
        )
        if not self._segments:
            self._segments = [0]
            open(self._segment_path(0), "ab").close()
        if not self._load_index():
            self._rebuild_index()
        # Recovery may truncate a torn tail off the active segment, so
        # the log opens only now: its end is the true EOF and appended
        # records are indexed at the offset they land on.
        self._active = self._segments[-1]
        self._log = self._open_log(self._active)
        self._bloom = self._rebuild_bloom()

    @property
    def poisoned(self) -> bool:
        return self._log.poisoned

    # -- codec negotiation ---------------------------------------------------

    @staticmethod
    def _resolve_codec(compression: str) -> Optional[int]:
        """Map the requested policy to a codec id (None = store raw)."""
        if compression == "none":
            return None
        if compression == "zlib":
            return _CODEC_ZLIB
        if compression == "zstd":
            if _zstd is None:
                raise ValueError("compression='zstd' but zstandard is not importable")
            return _CODEC_ZSTD
        if compression == "auto":
            return _CODEC_ZSTD if _zstd is not None else _CODEC_ZLIB
        raise ValueError(f"unknown compression policy {compression!r}")

    @staticmethod
    def _compress(codec: int, raw: bytes) -> bytes:
        if codec == _CODEC_ZSTD:
            return _zstd.ZstdCompressor().compress(raw)  # type: ignore[union-attr]
        return zlib.compress(raw, 6)

    @staticmethod
    def _decompress(codec: int, stored: bytes, uid: Uid) -> bytes:
        if codec == _CODEC_ZSTD and _zstd is None:
            # The data is (probably) fine; this environment cannot read
            # it.  Transient, not rot: do not let a scrub quarantine it.
            raise TransientStoreError(
                f"record for {uid.short()} is zstd-compressed but "
                f"zstandard is not importable here"
            )
        try:
            if codec == _CODEC_ZLIB:
                return zlib.decompress(stored)
            if codec == _CODEC_ZSTD:
                return _zstd.ZstdDecompressor().decompress(stored)  # type: ignore[union-attr]
        except _INFLATE_ERRORS as exc:
            raise ChunkCorruptionError(
                f"pack record for {uid.short()} fails to inflate: {exc}"
            ) from exc
        raise ChunkCorruptionError(
            f"pack record for {uid.short()} carries unknown codec {codec}"
        )

    # -- paths ---------------------------------------------------------------

    def _segment_path(self, number: int) -> str:
        return os.path.join(self._pack_dir, f"pack-{number:06d}.dat")

    def _index_path(self) -> str:
        return os.path.join(self._dir, "pack-index.dat")

    # -- record framing ------------------------------------------------------

    def _encode_record(self, chunk: Chunk) -> bytes:
        raw = chunk.data
        codec = _CODEC_RAW
        stored = raw
        if self._codec is not None and len(raw) >= self._compress_min:
            candidate = self._compress(self._codec, raw)
            if len(candidate) < len(raw):
                codec = self._codec
                stored = candidate
        fields = _FRAME.pack(
            int(chunk.type), codec, len(stored), len(raw), chunk.uid.digest
        )
        return fields + _CRC.pack(zlib.crc32(fields + stored)) + stored

    def _decode_record(self, record: bytes, uid: Uid) -> Chunk:
        """Frame-check, decompress, and rehydrate one packed record."""
        tag, codec, stored_len, raw_len, digest = _FRAME.unpack_from(record)
        (crc,) = _CRC.unpack_from(record, _FRAME.size)
        stored = record[_FRAME_SIZE : _FRAME_SIZE + stored_len]
        if len(stored) != stored_len:
            raise StoreError(f"torn pack record for {uid.short()}")
        # Chained crc32 equals crc32(fields + stored) without the concat.
        if zlib.crc32(stored, zlib.crc32(record[: _FRAME.size])) != crc:
            raise ChunkCorruptionError(
                f"pack record for {uid.short()} fails frame CRC"
            )
        if digest != uid.digest:
            raise ChunkCorruptionError(
                f"pack record for {uid.short()} carries digest "
                f"{Uid(digest).short()}"
            )
        if codec == _CODEC_RAW:
            raw = stored
        else:
            raw = self._decompress(codec, stored, uid)
        if len(raw) != raw_len:
            raise ChunkCorruptionError(
                f"pack record for {uid.short()} inflates to {len(raw)}B, "
                f"frame says {raw_len}B"
            )
        chunk_type = _TAG_TO_TYPE.get(tag)
        if chunk_type is None:
            raise ChunkCorruptionError(
                f"pack record for {uid.short()} carries unknown tag {tag}"
            )
        return Chunk(chunk_type, raw, uid=uid)

    # -- index persistence ---------------------------------------------------

    def _load_index(self) -> bool:
        """Load the FBPX snapshot; False if :func:`read_index` refuses it.

        Segment files *below* the newest watermarked segment but absent
        from the table are compaction leftovers from a crash and are
        unlinked; segment files *above* it post-date the snapshot and are
        scanned from zero.
        """
        sizes = {segment: self._segment_size(segment) for segment in self._segments}
        snapshot = read_index(
            self._index_path(), _INDEX_MAGIC, _INDEX_ENTRY, sizes,
            extent=lambda entry: entry[2] + entry[3],  # offset + record length
        )
        if snapshot is None or not snapshot[0]:
            return False
        watermarks, entries = snapshot
        self._index = {Uid(digest): (seg, at, length) for digest, seg, at, length in entries}
        self.stats.record_io(read=os.path.getsize(self._index_path()))
        newest = max(watermarks)
        survivors: List[int] = []
        for segment in self._segments:
            if segment not in watermarks and segment < newest:
                # A segment older than the snapshot that the snapshot does
                # not track: compaction rewrote its live records and died
                # before the unlink.  Finishing the unlink is safe.
                self._drop_segment_file(segment)
            else:
                survivors.append(segment)
        self._segments = survivors
        for segment in self._segments:
            self._scan_segment(segment, start=watermarks.get(segment, 0))
        return True

    def _rebuild_index(self) -> None:
        """Reconstruct the index by scanning every pack segment."""
        self._index.clear()
        for segment in self._segments:
            self._scan_segment(segment)

    def _scan_segment(self, segment: int, start: int = 0) -> None:
        """Index records from ``start``; truncate a torn tail, raise on rot.

        An incomplete frame or payload at EOF is a crashed append and is
        truncated away.  A *complete* record failing its CRC (or carrying
        an unknown tag) is interior rot, since appends are prefix writes.
        The embedded digest means no decompression is needed here.
        """
        path = self._segment_path(segment)
        with open(path, "rb") as handle:
            handle.seek(start)
            data = handle.read()
        at = 0
        while at + _FRAME_SIZE <= len(data):
            tag, _codec, stored_len, _raw_len, digest = _FRAME.unpack_from(data, at)
            (crc,) = _CRC.unpack_from(data, at + _FRAME.size)
            end = at + _FRAME_SIZE + stored_len
            if end > len(data):
                break  # partial payload at EOF
            fields_crc = zlib.crc32(data[at : at + _FRAME.size])
            if zlib.crc32(data[at + _FRAME_SIZE : end], fields_crc) != crc:
                problem = "frame CRC mismatch"
            elif tag not in _TAG_TO_TYPE:
                problem = f"unknown tag {tag}"
            else:
                self._index[Uid(digest)] = (segment, start + at, end - at)
                at = end
                continue
            raise ChunkCorruptionError(
                f"pack segment {segment} has a rotten record at "
                f"offset {start + at} ({problem})"
            )
        self.stats.record_io(read=at)
        if at < len(data):  # a torn tail: partial frame or payload at EOF
            os.truncate(path, start + at)
            fsync_path(path)

    def _save_index(self) -> None:
        """Write the FBPX snapshot durably (fsync before rename), with a
        ``packindex-*`` crash boundary at each step."""
        parts = [_INDEX_MAGIC, struct.pack(">QQ", len(self._index), len(self._segments))]
        for segment in self._segments:
            parts.append(_WATERMARK_ENTRY.pack(segment, self._segment_size(segment)))
        for uid, (segment, offset, length) in self._index.items():
            parts.append(_INDEX_ENTRY.pack(uid.digest, segment, offset, length))
        payload = b"".join(parts)
        write_snapshot(self._index_path(), payload, kind="packindex", label="pack-index")
        self.stats.record_io(written=len(payload))

    def _rebuild_bloom(self) -> _Bloom:
        bloom = _Bloom(capacity=max(1024, len(self._index)))
        for uid in self._index:
            bloom.add(uid)
        return bloom

    # -- mmap read path ------------------------------------------------------

    def _view(self, segment: int, offset: int, length: int) -> bytes:
        """Slice ``length`` bytes out of a segment through its (re)mapped mmap.

        A shrunken segment yields a torn-record error, never wrong bytes.
        Every read crosses the disk-fault seam (a no-op call when unarmed).
        """
        path = self._segment_path(segment)
        read_check(path, label=f"pack:{segment}")
        mapped = self._maps.get(segment)
        if mapped is None or offset + length > len(mapped):
            if mapped is not None:
                mapped.close()
                self._maps.pop(segment, None)
            if segment == self._active and not self._log.closed:
                self._log.flush()
            try:
                size = os.path.getsize(path)
            except FileNotFoundError as exc:
                raise StoreError(f"pack segment {segment} vanished") from exc
            except OSError as exc:
                raise map_os_error(exc, "read", path) from exc
            if offset + length > size:
                raise StoreError(
                    f"pack segment {segment} holds {size}B, record needs "
                    f"{offset + length}"
                )
            try:
                with open(path, "rb") as handle:
                    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except OSError as exc:
                raise map_os_error(exc, "read", path) from exc
            self._maps[segment] = mapped
        return mapped[offset : offset + length]

    def _drop_maps(self) -> None:
        for mapped in self._maps.values():
            mapped.close()
        self._maps.clear()

    def _drop_segment_file(self, segment: int) -> None:
        mapped = self._maps.pop(segment, None)
        if mapped is not None:
            mapped.close()
        try:
            os.remove(self._segment_path(segment))
        except FileNotFoundError:
            pass  # already gone: unlink is idempotent across crashes
        except OSError as exc:
            raise map_os_error(exc, "unlink", self._segment_path(segment)) from exc

    # -- primitives ----------------------------------------------------------

    def _open_log(self, segment: int) -> AppendLog:
        return AppendLog(
            self._segment_path(segment),
            "pack",
            on_lost=lambda floor: self._unack(segment, floor),
        )

    def _unack(self, segment: int, floor: int) -> None:
        """A segment's log lost everything past ``floor``: un-index it."""
        doomed = [
            uid
            for uid, (where, offset, _length) in self._index.items()
            if where == segment and offset >= floor
        ]
        for uid in doomed:
            del self._index[uid]
        self._bloom = self._rebuild_bloom()

    def _check_open(self) -> None:
        # A poisoned log refuses writes itself.
        if self._closed:
            raise StoreClosedError("store is closed")

    def _roll(self, log: AppendLog, segments: List[int]) -> AppendLog:
        """Retire ``log`` (fsynced: the next snapshot watermarks its full
        size, which a power loss must not shrink); open the next segment."""
        log.sync(f"roll:{segments[-1]}")
        log.close()
        segments.append(segments[-1] + 1)
        return self._open_log(segments[-1])

    def _append(self, chunk: Chunk) -> None:
        """Append one framed record (write boundary; no flush)."""
        record = self._encode_record(chunk)
        if self._log.end >= self._segment_limit:
            self._log = self._roll(self._log, self._segments)
            self._active = self._segments[-1]
        # Labelled by type, not uid: commit-node uids embed timestamps, and
        # crash-census stamps must replay identically across runs.
        offset = self._log.append(record, label=chunk.type.name)
        self._index[chunk.uid] = (self._active, offset, len(record))
        self._bloom.add(chunk.uid)
        if self._bloom.saturated:
            self._bloom = self._rebuild_bloom()
        self.stats.record_io(written=len(record))

    def _insert(self, chunk: Chunk) -> None:
        self._check_open()
        self._append(chunk)
        self._log.flush()

    def sync(self) -> None:
        if not self._closed:  # close() already made everything durable
            self._log.sync("sync")

    def _insert_many(self, chunks: List[Chunk]) -> None:
        """Batched append: one fsync and one index snapshot per batch."""
        self._check_open()
        for chunk in chunks:
            self._append(chunk)
        crashpoint("pack-fsync", f"batch:{len(chunks)}")
        self._log.sync(f"batch:{len(chunks)}")
        self._save_index()

    def _fetch(self, uid: Uid) -> Optional[Chunk]:
        if self._closed:
            raise StoreClosedError("store is closed")
        # The in-RAM index probe is cheaper than four bloom hashes, so on
        # the hit path skip the filter; it still screens every miss.
        location = self._index.get(uid)
        if location is None:
            if uid not in self._bloom:
                self.bloom_negatives += 1
            return None
        segment, offset, length = location
        record = self._view(segment, offset, length)
        self.stats.record_io(read=length)
        return self._decode_record(record, uid)

    def _contains(self, uid: Uid) -> bool:
        if uid not in self._bloom:
            self.bloom_negatives += 1
            return False
        return uid in self._index

    def _delete(self, uid: Uid) -> bool:
        """Drop the index entry; the bytes die at the next compaction.

        Durable once an index snapshot lands: watermarks keep dead records
        from being rescanned back in.
        """
        location = self._index.pop(uid, None)
        if location is None:
            return False
        self._dead_records += 1
        self._dead_bytes += location[2]
        return True

    def _ids(self) -> Iterator[Uid]:
        return iter(list(self._index.keys()))

    def __len__(self) -> int:
        return len(self._index)

    # -- diagnostics ---------------------------------------------------------

    def diagnose_record(self, uid: Uid) -> str:
        """``'ok' | 'missing' | 'torn' | 'crc' | 'codec'`` for one record, never
        raising: scrub tells on-disk frame rot from wire trouble by it."""
        location = self._index.get(uid)
        if location is None:
            return "missing"
        segment, offset, length = location
        try:
            record = self._view(segment, offset, length)
        except StoreError:
            return "torn"
        try:
            self._decode_record(record, uid)
        except TransientStoreError:
            return "codec"
        except StoreError:  # ChunkCorruptionError is a ChunkError, not Store
            return "torn"
        except ChunkCorruptionError:
            return "crc"
        return "ok"

    def dead_space(self) -> Tuple[int, int]:
        """(records, bytes) deleted but not yet compacted away."""
        return self._dead_records, self._dead_bytes

    def disk_size(self) -> int:
        """Bytes currently occupied on disk by pack segments."""
        return sum(self._segment_size(segment) for segment in self._segments)

    def _segment_size(self, segment: int) -> int:
        path = self._segment_path(segment)
        try:
            return os.path.getsize(path)
        except FileNotFoundError:
            return 0  # fresh segment not yet materialized
        except OSError as exc:
            raise map_os_error(exc, "stat", path) from exc

    # -- compaction ----------------------------------------------------------

    def compact_segments(self) -> Dict[str, int]:
        """Copy live records verbatim into fresh segments; unlink the old.

        The new index snapshot is durable *before* the old segments are
        unlinked, so a crash anywhere leaves either the old layout (new
        segments are rescanned or cleaned) or the new one.
        """
        self._check_open()
        old_segments = list(self._segments)
        bytes_before = self.disk_size()
        # Durable floor first: the old active segment must be complete on
        # disk before a snapshot that forgets it can land.
        self._log.sync("compact-prep")

        ordered = sorted(self._index.items(), key=lambda kv: (kv[1][0], kv[1][1]))
        new_segments: List[int] = [self._active + 1]
        writer = self._open_log(new_segments[-1])
        new_index: Dict[Uid, Tuple[int, int, int]] = {}
        try:
            for uid, (segment, offset, length) in ordered:
                if writer.end >= self._segment_limit:
                    writer = self._roll(writer, new_segments)
                record = self._view(segment, offset, length)
                position = writer.append(record, label="compact")
                new_index[uid] = (new_segments[-1], position, length)
                self.stats.record_io(written=length)
            crashpoint("pack-fsync", "compact")
            writer.sync("compact")
            fsync_dir(self._pack_dir)
        except StoreError:
            # The old layout is untouched on disk and its log still open:
            # drop the half-built segments and keep appending to the old.
            writer.abandon()
            for segment in new_segments:
                self._drop_segment_file(segment)
            raise

        self._log.close()
        self._index = new_index
        self._segments = new_segments
        self._active = new_segments[-1]
        self._log = writer
        self._save_index()
        # The snapshot no longer references the old segments: unlink them.
        for segment in old_segments:
            self._drop_segment_file(segment)
        self._dead_records = 0
        self._dead_bytes = 0
        self._bloom = self._rebuild_bloom()
        return {
            "segments_before": len(old_segments),
            "segments_after": len(new_segments),
            "bytes_before": bytes_before,
            "bytes_after": self.disk_size(),
            "live_records": len(self._index),
        }

    # -- lifecycle -----------------------------------------------------------

    def physical_size(self) -> int:
        """Total *logical* payload bytes currently indexed (pre-compression)."""
        total = 0
        for segment, offset, length in self._index.values():
            frame = self._view(segment, offset, _FRAME.size)
            total += _FRAME.unpack(frame)[3]  # raw_len
        return total

    def close(self) -> None:
        if self._closed:
            return
        if self._log.poisoned:
            # The writer is disabled and the in-memory index already had
            # its un-durable entries removed; persisting a snapshot would
            # launder the poisoned state into "clean close".  Abandon and
            # let reopen rebuild from the watermark scan.
            self.abandon()
            return
        self._log.sync("close")
        self._log.close()
        self._save_index()
        self._drop_maps()
        self._closed = True

    def abandon(self) -> None:
        """Release OS handles without persisting the index (crash sim)."""
        if self._closed:
            return
        self._log.abandon()
        self._drop_maps()
        self._closed = True
