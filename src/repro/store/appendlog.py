"""One append-only file under the un-ack and fsyncgate discipline.

PackStore segments and the commit journal are record formats over this
class.  A failed append is *un-acked* by truncating back to where it
started.  The log keeps a durable floor (offset at the last successful
fsync) and the tail of records since, at most ``_TAIL_LIMIT`` bytes.  A
failed fsync may have dropped the unsynced pages and would falsely succeed
if retried on the same descriptor (fsyncgate), so the log rewrites the tail
through a fresh descriptor; when even that fails it poisons itself, hands
the floor to its owner's ``on_lost`` callback (the owner un-acks every
record at or past it) and raises :class:`~repro.errors.DiskFaultError`.
"""

from __future__ import annotations

import os
from typing import IO, Callable, List, Optional

from repro.errors import DiskFaultError, DiskFullError, StoreError, map_os_error
from repro.faults.crash import crashing_write, crashpoint
from repro.faults.retry import RetryPolicy
from repro.store.durability import durable_replace, fsync_file, write_bytes


class AppendLog:
    """An append-only file with a durable floor and fsync recovery.

    ``kind`` names the crash boundaries (``"pack"`` → ``pack-write``).
    ``size``, when given, truncates the file there on open (the owner's
    scan found a torn tail).  Bytes already in the file count as durable.
    """

    _TAIL_LIMIT = 4 * 1024 * 1024

    def __init__(
        self,
        path: str,
        kind: str,
        on_lost: Optional[Callable[[int], None]] = None,
        size: Optional[int] = None,
    ) -> None:
        self.path = path
        self._write_kind = f"{kind}-write"
        self._on_lost = on_lost
        try:
            handle = open(path, "ab")
            if size is not None:
                handle.truncate(size)
                handle.seek(size)
        except OSError as exc:
            raise map_os_error(exc, "open", path) from exc
        self._handle: IO[bytes] = handle
        #: Offset one past the last acked record: where the next one lands.
        self._end = handle.tell()
        self._durable = self._end
        #: Blobs appended since the last successful fsync (rewrite buffer).
        self._tail: List[bytes] = []
        self._tail_bytes = 0
        self._poisoned = False
        self._closed = False
        #: ENOSPC backoff for appends only; a failed fsync is never retried.
        self._disk_retry = RetryPolicy(attempts=3, base_delay=0.002, max_delay=0.01)

    @property
    def poisoned(self) -> bool:
        return self._poisoned

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def end(self) -> int:
        """Size of the acked region: the offset the next append lands at."""
        return self._end

    def check_writable(self) -> None:
        """Raise :class:`DiskFaultError` once the log is poisoned."""
        if self._poisoned:
            raise DiskFaultError(
                f"{self.path}: log poisoned by an unrecoverable disk fault",
                syscall="write",
                path=self.path,
            )

    def append(self, blob: bytes, label: str = "") -> int:
        """Append one record (not flushed); returns the offset it landed at."""
        self.check_writable()
        offset: int = self._disk_retry.call(
            lambda: self._write(blob, label), retry_on=(DiskFullError,)
        )
        if self._tail_bytes > self._TAIL_LIMIT:
            self.sync("tail-limit")
        return offset

    def _write(self, blob: bytes, label: str) -> int:
        offset = self._end
        try:
            crashing_write(self._handle, blob, kind=self._write_kind, label=label)
        except (DiskFullError, DiskFaultError):
            self._unwind_append(offset)
            raise
        self._end = offset + len(blob)
        self._tail.append(blob)
        self._tail_bytes += len(blob)
        return offset

    def _unwind_append(self, offset: int) -> None:
        """Truncate a failed append's partial record away (poison if that fails)."""
        try:
            self._handle.flush()
            os.ftruncate(self._handle.fileno(), offset)
            self._handle.seek(offset)
        except OSError as exc:
            self._poisoned = True
            raise map_os_error(exc, "truncate", self.path) from exc

    def flush(self) -> None:
        """Push buffered appends to the OS (survives a process kill)."""
        try:
            self._handle.flush()
        except OSError as exc:
            self._poisoned = True  # buffer state is unknowable now
            raise map_os_error(exc, "write", self.path) from exc

    def sync(self, label: str = "") -> None:
        """Flush and fsync; recover a failed fsync by reopen-and-rewrite."""
        self.check_writable()
        if self._end == self._durable:
            return  # nothing unsynced: another fsync would only cost time
        self.flush()
        try:
            fsync_file(self._handle, label)
        except (DiskFullError, DiskFaultError) as exc:
            self._recover_fsync(exc)
        self._durable = self._end
        self._tail = []
        self._tail_bytes = 0

    def _recover_fsync(self, cause: StoreError) -> None:
        """Rewrite the tail through a fresh descriptor; poison after two failures.

        The failed descriptor is never fsynced again: it may have dropped
        the tail and would falsely report success.
        """
        self._handle.close()
        last: StoreError = cause
        for _ in range(2):
            try:
                handle = open(self.path, "r+b")
            except OSError as exc:
                last = map_os_error(exc, "open", self.path)
                break
            try:
                handle.truncate(self._durable)
                handle.seek(self._durable)
                for blob in self._tail:
                    write_bytes(handle, blob)
                fsync_file(handle, "fsync-recovery")
            except (DiskFullError, DiskFaultError) as exc:
                last = exc
                handle.close()
                continue
            except OSError as exc:
                last = map_os_error(exc, "write", self.path)
                handle.close()
                continue
            self._handle = handle
            return
        self._poisoned = True
        self._closed = True  # the descriptor is gone
        dropped = len(self._tail)
        self._end = self._durable
        self._tail = []
        self._tail_bytes = 0
        if self._on_lost is not None:
            self._on_lost(self._durable)
        raise DiskFaultError(
            f"{self.path}: log poisoned after failed fsync recovery "
            f"({dropped} unsynced records un-acked): {last}",
            syscall="fsync",
            path=self.path,
        ) from last

    def close(self) -> None:
        """Flush and release the descriptor; no fsync (owners :meth:`sync`)."""
        if self._poisoned:
            self.abandon()
        elif not self._closed:
            self.flush()
            self._handle.close()
            self._closed = True

    def poison(self) -> None:
        """Give up on the log: release the descriptor, refuse later writes."""
        self._poisoned = True
        self.abandon()

    def abandon(self) -> None:
        """Release the descriptor without flushing (crash simulation)."""
        if self._closed:
            return
        try:
            self._handle.close()
        except OSError:
            pass  # a SIGKILL simulator must not raise on teardown
        self._closed = True


def write_snapshot(
    path: str,
    payload: bytes,
    kind: str,
    label: str,
    before_replace: Optional[Callable[[], None]] = None,
) -> None:
    """Replace ``path`` with ``payload`` atomically: an fsynced temp file,
    then a durable rename, crossing ``{kind}-write`` / ``-fsync`` /
    ``-replace`` crash boundaries.  A failure before ``before_replace``
    runs leaves ``path`` untouched; the torn temp file is simply
    rewritten next time."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            crashing_write(handle, payload, kind=f"{kind}-write", label=label)
            crashpoint(f"{kind}-fsync", label)
            fsync_file(handle)
    except OSError as exc:
        raise map_os_error(exc, "write", tmp) from exc
    crashpoint(f"{kind}-replace", label)
    if before_replace is not None:
        before_replace()
    durable_replace(tmp, path)
