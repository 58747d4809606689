"""Crash damage in a legacy FileStore directory, as ``forkbase migrate`` reads it.

The retired FileStore layout survives only as migration input, so its
classic failure modes are now the migration's to absorb: the old process
died mid-append (torn header, torn payload), garbage landed in the tail
(unknown tag), the ``index.dat`` snapshot was deleted, corrupted, or
went stale relative to the segment files, or a later session appended
past a torn record.  Migration uses the old index only where the old
store would have trusted it, carries every intact record into the pack
store, never wrong bytes, and keeps the legacy files when a record the
index or the heads need is gone.
"""

import json
import os
import struct

import pytest

from repro.chunk import Chunk, ChunkType
from repro.errors import EngineError
from repro.store import PackStore
from repro.store.migrate import migrate_legacy
from tests.legacy_layout import (
    HEADER,
    chunk_dir,
    index_path,
    segment_path,
    write_index,
    write_legacy,
)


def _chunk(n: int) -> Chunk:
    return Chunk(ChunkType.BLOB, b"durable-payload-%04d" % n)


@pytest.fixture
def populated(tmp_path):
    """A legacy data directory holding 20 chunks, plus the chunk list."""
    directory = str(tmp_path / "db")
    chunks = [_chunk(i) for i in range(20)]
    write_legacy(directory, chunks)
    return directory, chunks


def _assert_recovers(directory, expected_present, expected_absent=()):
    migrate_legacy(directory)
    assert not os.path.exists(os.path.join(chunk_dir(directory), "segments"))
    assert not os.path.exists(index_path(directory))
    with PackStore(chunk_dir(directory)) as store:
        for chunk in expected_present:
            got = store.get(chunk.uid)
            assert got.data == chunk.data and got.is_valid()
        for chunk in expected_absent:
            assert not store.has(chunk.uid)


class TestTornTail:
    def _append_crash(self, directory, blob: bytes) -> None:
        """Simulate a crash that left ``blob`` at the end of the segment."""
        os.remove(index_path(directory))  # crash also means no fresh snapshot
        with open(segment_path(directory), "ab") as handle:
            handle.write(blob)

    def test_torn_header(self, populated):
        directory, chunks = populated
        self._append_crash(directory, b"\x01\x00")  # 2 of 5 header bytes
        _assert_recovers(directory, chunks)

    def test_torn_payload(self, populated):
        directory, chunks = populated
        victim = _chunk(999)
        record = HEADER.pack(int(victim.type), len(victim.data)) + victim.data[:7]
        self._append_crash(directory, record)
        _assert_recovers(directory, chunks, expected_absent=[victim])

    def test_unknown_tag_tail(self, populated):
        directory, chunks = populated
        self._append_crash(directory, HEADER.pack(0xEE, 4) + b"junk")
        _assert_recovers(directory, chunks)

    def test_records_after_snapshot_are_recovered(self, populated):
        """A crash after appends but before close: the index snapshot is
        stale; migration scans past it and picks up the tail."""
        directory, chunks = populated
        late = [_chunk(i) for i in range(100, 105)]
        write_legacy(directory, late, index=False)
        _assert_recovers(directory, chunks + late)

    def test_truncated_mid_record(self, populated):
        """The segment lost its tail mid-record (torn at the disk)."""
        directory, chunks = populated
        os.remove(index_path(directory))
        size = os.path.getsize(segment_path(directory))
        with open(segment_path(directory), "r+b") as handle:
            handle.truncate(size - 9)  # rips into the last record
        _assert_recovers(directory, chunks[:-1], expected_absent=[chunks[-1]])


class TestDamageMidSegment:
    """The old store reopened in append mode without truncating a torn
    tail, so later sessions' records can sit past damaged bytes."""

    @pytest.mark.parametrize("torn", ["header", "payload"])
    def test_indexed_records_after_a_torn_record_survive(self, tmp_path, torn):
        directory = str(tmp_path / "db")
        early = [_chunk(i) for i in range(10)]
        late = [_chunk(i) for i in range(300, 310)]
        victim = _chunk(999)
        placed = write_legacy(directory, early, index=False)
        blob = HEADER.pack(int(victim.type), len(victim.data)) + victim.data[:7]
        with open(segment_path(directory), "ab") as handle:  # crash mid-append
            handle.write(blob[:2] if torn == "header" else blob)
        placed += write_legacy(directory, late, index=False)  # reopen, append
        write_index(directory, placed)  # clean close: entries at real offsets
        _assert_recovers(directory, early + late, expected_absent=[victim])

    def test_records_past_a_watermark_after_a_torn_record_survive(self, tmp_path):
        """A clean close right after a torn record watermarks past it; the
        next session's unindexed appends chain on from that watermark."""
        directory = str(tmp_path / "db")
        early = [_chunk(i) for i in range(10)]
        late = [_chunk(i) for i in range(300, 310)]
        placed = write_legacy(directory, early, index=False)
        with open(segment_path(directory), "ab") as handle:  # crash mid-append
            handle.write(HEADER.pack(int(ChunkType.BLOB), 1 << 20) + b"torn")
        write_index(directory, placed)  # reopened, nothing appended, clean close
        write_legacy(directory, late, index=False)  # appended, then a crash
        _assert_recovers(directory, early + late)

    def test_rot_in_an_indexed_record_keeps_the_legacy_files(self, populated):
        directory, chunks = populated
        with open(segment_path(directory), "r+b") as handle:
            handle.seek(HEADER.size + 3)  # inside the first record's payload
            handle.write(b"X")
        with pytest.raises(EngineError, match="legacy files were kept"):
            migrate_legacy(directory)
        assert os.path.exists(segment_path(directory))
        assert os.path.exists(index_path(directory))

    def test_unreachable_head_chunk_keeps_the_legacy_files(self, tmp_path):
        """Records past damage that no index names are found only by luck;
        a head that needs one that was not found refuses the migration."""
        directory = str(tmp_path / "db")
        early = [_chunk(i) for i in range(10)]
        late = [_chunk(i) for i in range(300, 310)]
        write_legacy(directory, early)
        with open(segment_path(directory), "ab") as handle:
            handle.write(HEADER.pack(int(ChunkType.BLOB), 1 << 20))  # torn
        write_legacy(directory, late, index=False)  # then a crash: no snapshot
        heads = {"heads": {"k": {"master": late[-1].uid.base32()}}, "seq": 0}
        with open(os.path.join(directory, "branches.json"), "w") as handle:
            json.dump(heads, handle)
        with pytest.raises(EngineError, match="reachable from the heads"):
            migrate_legacy(directory)
        assert os.path.exists(segment_path(directory))
        assert os.path.exists(index_path(directory))


class TestIndexDamage:
    def test_deleted_index_rebuilds(self, populated):
        directory, chunks = populated
        os.remove(index_path(directory))
        _assert_recovers(directory, chunks)

    def test_corrupt_magic_rebuilds(self, populated):
        directory, chunks = populated
        with open(index_path(directory), "r+b") as handle:
            handle.write(b"XXXXXXXX")
        _assert_recovers(directory, chunks)

    def test_truncated_index_rebuilds(self, populated):
        directory, chunks = populated
        size = os.path.getsize(index_path(directory))
        with open(index_path(directory), "r+b") as handle:
            handle.truncate(size // 2)
        _assert_recovers(directory, chunks)

    def test_garbage_index_rebuilds(self, populated):
        directory, chunks = populated
        with open(index_path(directory), "wb") as handle:
            handle.write(bytes(range(7, 7 + 64)))
        _assert_recovers(directory, chunks)

    def test_vanished_segment_rebuilds(self, populated):
        """The index references segments that no longer exist: migration
        carries over what the remaining segments hold."""
        directory, chunks = populated
        late = [_chunk(i) for i in range(200, 230)]
        write_legacy(directory, late, segment_limit=256)  # rolls extra segments
        seg_dir = os.path.join(chunk_dir(directory), "segments")
        for name in sorted(os.listdir(seg_dir))[1:]:
            os.remove(os.path.join(seg_dir, name))
        _assert_recovers(directory, chunks)  # first segment fully intact

    def test_shrunken_segment_rebuilds(self, populated):
        """A segment shorter than its watermark: the intact prefix moves."""
        directory, chunks = populated
        size = os.path.getsize(segment_path(directory))
        with open(segment_path(directory), "r+b") as handle:
            handle.truncate(size - 9)
        _assert_recovers(directory, chunks[:-1], expected_absent=[chunks[-1]])

    def test_out_of_range_offset_rebuilds(self, populated):
        """Index entries pointing past the watermark change nothing."""
        directory, chunks = populated
        data = bytearray(open(index_path(directory), "rb").read())
        # Rewrite every entry's offset field to a huge value.  Layout:
        # magic(8) count(8) seg_count(8) watermarks(12 each) entries(40 each).
        (count,) = struct.unpack_from(">Q", data, 8)
        (seg_count,) = struct.unpack_from(">Q", data, 16)
        entries_at = 24 + seg_count * 12
        for i in range(count):
            struct.pack_into(">I", data, entries_at + i * 40 + 36, 2**31)
        with open(index_path(directory), "wb") as handle:
            handle.write(bytes(data))
        _assert_recovers(directory, chunks)

    def test_clean_reopen_uses_snapshot(self, populated):
        """A clean migration leaves a pack whose own index snapshot loads
        without a rebuild."""
        directory, chunks = populated
        migrate_legacy(directory)
        store = PackStore(chunk_dir(directory))
        store._scan_segment = lambda *a, **k: None  # type: ignore
        store._index.clear()
        assert store._load_index() is True
        assert len(store._index) == len(chunks)
        store.close()
