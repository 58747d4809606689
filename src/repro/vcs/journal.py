"""Write-ahead commit journal for branch heads.

Branch heads are the only mutable state in the system (see
:mod:`repro.vcs.branches`) and the anchor of tamper evidence — losing a
head silently un-acknowledges every commit behind it.  The journal makes
head mutations durable *before* they are acknowledged: each operation is
appended as a length-prefixed, CRC-32-checksummed record, and recovery
replays the journal over the last heads snapshot.

On-disk format::

    FBWJ0001                          8-byte magic
    [len:u32][crc32:u32][payload]...  records, payload = canonical JSON

Records carry a monotonically increasing ``seq``; the heads snapshot
stores the last sequence it covers, so replay skips records the snapshot
already contains — that is what makes replay idempotent across a crash
that lands *between* snapshot rewrite and journal truncation.

Damage model: a **torn tail** (the process died mid-append) is truncated
and recovery proceeds; a **corrupt interior record** (all bytes present,
CRC or decode fails) raises :class:`~repro.errors.JournalCorruptError`
instead of guessing at the history between snapshot and tail.

Fsync policy: ``always`` fsyncs after every append (a commit survives
power loss before it is acknowledged), ``batch`` every ``batch_interval``
appends, ``never`` leaves it to the OS.  Every append is *flushed*
regardless, so an acknowledged commit always survives a process kill.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.chunk import Uid
from repro.errors import (
    DiskFaultError,
    DiskFullError,
    JournalCorruptError,
    JournalError,
    VersionError,
    map_os_error,
)
from repro.faults.crash import crashpoint
from repro.store.appendlog import AppendLog, write_snapshot
from repro.store.durability import read_check
from repro.vcs.branches import BranchTable

MAGIC = b"FBWJ0001"
_HEADER = struct.Struct(">II")  # payload length, CRC-32 of payload
FSYNC_POLICIES = ("always", "batch", "never")

Record = Dict[str, object]


class CommitJournal:
    """Checksummed head-mutation records over one :class:`AppendLog`."""

    def __init__(self, path: str, fsync: str = "batch", batch_interval: int = 64) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.path = path
        self.fsync = fsync
        self.batch_interval = max(1, batch_interval)
        self._records: List[Record] = []
        #: File offset one past each record in ``_records``: what a lost
        #: durable floor is compared against to un-ack records.
        self._ends: List[int] = []
        self._pending = 0
        self._closed = False
        self._log: AppendLog
        self._open_and_scan()

    @property
    def poisoned(self) -> bool:
        return self._log.poisoned

    # -- open / scan ---------------------------------------------------------

    def _open_log(self, size: Optional[int]) -> AppendLog:
        return AppendLog(self.path, "journal", on_lost=self._unack, size=size)

    def _unack(self, floor: int) -> None:
        """The log lost everything past ``floor``: drop those records."""
        while self._ends and self._ends[-1] > floor:
            self._ends.pop()
            self._records.pop()

    def _create(self) -> None:
        self._log = self._open_log(0)
        self._log.append(MAGIC, label="magic")
        self._log.flush()
        if self.fsync != "never":
            self.sync("magic")

    def _open_and_scan(self) -> None:
        """Open the journal, validating records and truncating a torn tail."""
        if not os.path.exists(self.path):
            self._create()
            return
        try:
            read_check(self.path, label=os.path.basename(self.path))
            with open(self.path, "rb") as handle:
                data = handle.read()  # journals are bounded by compaction
        except OSError as exc:
            raise map_os_error(exc, "read", self.path) from exc
        if len(data) < len(MAGIC):
            # Torn creation: the process died writing the magic, so no
            # record can possibly follow.  Start fresh.
            self._create()
            return
        if data[: len(MAGIC)] != MAGIC:
            raise JournalCorruptError(f"{self.path}: bad journal magic {data[:8]!r}")
        offset = len(MAGIC)
        total = len(data)
        while offset < total:
            if offset + _HEADER.size > total:
                break  # torn header: crash mid-append
            length, crc = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            if start + length > total:
                break  # torn payload: crash mid-append
            payload = data[start : start + length]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise JournalCorruptError(
                    f"{self.path}: CRC mismatch in record at offset {offset}"
                )
            try:
                record = json.loads(payload)
            except ValueError:  # undecodable UTF-8 or JSON
                record = None
            if not isinstance(record, dict) or "op" not in record:
                raise JournalCorruptError(
                    f"{self.path}: record at offset {offset} is not an op"
                )
            offset = start + length
            self._records.append(record)
            self._ends.append(offset)
        # A torn tail is truncated away for good as the log opens.
        self._log = self._open_log(offset if offset < total else None)

    # -- appending -----------------------------------------------------------

    def append(self, record: Mapping[str, object]) -> None:
        """Durably (per policy) append one op record."""
        if self._closed:
            raise JournalError(f"{self.path}: journal is closed")
        payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
        blob = _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload
        self._log.append(blob, label=str(record.get("op", "")))
        # Flush unconditionally: an acknowledged commit must survive a
        # process kill under every policy; fsync is about power loss.
        self._log.flush()
        self._records.append(dict(record))
        self._ends.append(self._log.end)
        self._pending += 1
        if self.fsync == "always" or (
            self.fsync == "batch" and self._pending >= self.batch_interval
        ):
            self.sync()

    def sync(self, label: str = "") -> None:
        """Flush and fsync pending appends regardless of policy."""
        if self._closed:
            return
        label = label or os.path.basename(self.path)
        crashpoint("journal-fsync", label)
        self._log.sync(label)
        self._pending = 0

    # -- queries -------------------------------------------------------------

    @property
    def records(self) -> List[Record]:
        """Every valid record currently in the journal (copies)."""
        return [dict(record) for record in self._records]

    def size(self) -> int:
        """Journal file size in bytes (valid region)."""
        return self._log.end

    def __len__(self) -> int:
        return len(self._records)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Truncate to an empty journal (call only after a durable snapshot).

        Atomic: a fresh magic-only file is fsynced and renamed over the
        old journal.  A crash before the rename leaves the full journal
        (replay skips what the snapshot covers); the rename itself is
        all-or-nothing.
        """
        if self._closed:
            raise JournalError(f"{self.path}: journal is closed")
        self._log.check_writable()
        try:
            write_snapshot(
                self.path, MAGIC, "journal", "reset", before_replace=self._log.close
            )
            self._log = self._open_log(len(MAGIC))
        except (DiskFullError, DiskFaultError):
            if self._log.closed:  # else the live journal is untouched, usable
                self._log.poison()  # the old log is gone; state is ambiguous
            raise
        self._records = []
        self._ends = []
        self._pending = 0

    def close(self) -> None:
        """Flush (and fsync unless policy is ``never``) and close."""
        if self._closed:
            return
        if self.fsync != "never" and self._pending and not self._log.poisoned:
            self.sync("close")
        self._log.close()
        self._closed = True

    def abandon(self) -> None:
        """Release the OS handle without flushing bookkeeping (crash sim)."""
        if self._closed:
            return
        self._log.abandon()
        self._closed = True


# -- replay -------------------------------------------------------------------


def apply_record(table: BranchTable, record: Mapping[str, object]) -> None:
    """Apply one journal record to a branch table.

    Replay is unconditional (no CAS): the journal *is* the serialization
    order, so re-checking expectations would only re-litigate history.
    A record that cannot apply means the snapshot/journal pair diverged,
    which is corruption, not a conflict.
    """
    op = record.get("op")
    try:
        if op == "set-head" or op == "create-branch":
            table.set_head(
                str(record["key"]), str(record["branch"]),
                Uid.from_base32(str(record["head"])),
            )
        elif op == "rename-branch":
            table.rename(str(record["key"]), str(record["old"]), str(record["new"]))
        elif op == "delete-branch":
            table.delete(str(record["key"]), str(record["branch"]))
        elif op == "rename-key":
            table.rename_key(str(record["old"]), str(record["new"]))
        elif op == "drop-key":
            table.drop_key(str(record["key"]))
        else:
            raise JournalCorruptError(f"unknown journal op {op!r}")
    except JournalCorruptError:
        raise
    except (VersionError, KeyError, ValueError) as exc:
        raise JournalCorruptError(f"journal op {op!r} does not apply: {exc}") from exc


def replay_into(
    table: BranchTable, records: Iterable[Mapping[str, object]], after_seq: int = 0
) -> int:
    """Replay ``records`` with ``seq > after_seq`` onto ``table``.

    Returns the highest sequence number now covered (``after_seq`` when
    nothing applied).  Skipping by sequence is what makes replay
    idempotent: records a snapshot already covers are never re-applied.
    """
    last = after_seq
    for record in records:
        seq = int(record.get("seq", 0))  # type: ignore[call-overload]
        if seq <= after_seq:
            continue
        apply_record(table, record)
        last = max(last, seq)
    return last


def recover_heads(
    directory: str, fsync: str = "batch"
) -> Tuple[BranchTable, int, CommitJournal]:
    """An engine directory's durable heads: the ``branches.json`` snapshot
    plus every ``journal.wal`` record it does not cover.

    Returns the table, the last sequence number it covers and the open
    journal.
    """
    table = BranchTable()
    snapshot_seq = 0
    heads_path = os.path.join(directory, "branches.json")
    if os.path.exists(heads_path):
        try:
            read_check(heads_path, label="branches.json")
            with open(heads_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise map_os_error(exc, "read", heads_path) from exc
        if isinstance(data, dict) and "heads" in data:
            snapshot_seq = int(data.get("seq", 0))
            table = BranchTable.from_dict(data["heads"])
        else:  # legacy snapshot: the bare heads dict, pre-journal
            table = BranchTable.from_dict(data)
    journal = CommitJournal(os.path.join(directory, "journal.wal"), fsync=fsync)
    return table, replay_into(table, journal.records, after_seq=snapshot_seq), journal
