"""Deterministic filesystem-fault injection (the fourth fault dimension).

Where :class:`~repro.faults.plan.FaultPlan` models a byzantine store,
:class:`~repro.faults.network.NetworkPlan` a faulty network, and
:class:`~repro.faults.crash.CrashPlan` a mortal process, an
:class:`FsFaultPlan` models the **disk that stops cooperating**: writes
fail with ENOSPC (sometimes after materializing a short prefix), reads
and fsyncs fail with EIO, and — the fsyncgate bug class — a failed fsync
silently *drops the unsynced dirty pages* and then falsely reports
success if retried on the same descriptor.

The shim (:class:`FaultyOS`) subclasses the no-op
:class:`~repro.store.durability.DiskInjector` that every persistence
path already routes its syscalls through, so the journal, PackStore
and heads-snapshot paths are all injectable without monkeypatching.
Every decision is a pure function of ``(seed, syscall, path, attempt)``
— the same hashing discipline as the other planners — so a schedule
replays bit-identically.

Two modes, mirroring :class:`CrashPlan`:

- **rate mode** (census when all rates are 0): each boundary draws a
  deterministic uniform number and compares it to the per-syscall rate;
- **targeted mode** (``fail_at=n, flavor=...``): exactly the ``n``-th
  boundary faults, with the requested flavor — how the torture suite
  walks every persistence boundary × {ENOSPC, EIO, fsync-fail}.
"""

from __future__ import annotations

import errno
import hashlib
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Dict, Iterator, List, Optional, Tuple

from repro.store.durability import DiskInjector, install_injector

_SCALE = float(1 << 64)

#: Which fault flavors a targeted plan can land on each syscall kind.
TARGETED_FLAVORS: Dict[str, Tuple[str, ...]] = {
    "write": ("enospc", "short"),
    "fsync": ("fsync",),
    "read": ("eio",),
    "replace": ("enospc", "eio"),
}


@dataclass(frozen=True)
class FsFaultPlan:
    """Seeded description of how the filesystem misbehaves.

    Rates apply per syscall kind: ``enospc_rate`` to writes and renames,
    ``short_write_rate`` stacks on top for writes (a strict prefix lands
    before the ENOSPC), ``eio_read_rate`` to read probes, and
    ``fsync_fail_rate`` to fsyncs (EIO with fsyncgate page loss).
    ``fail_at``/``flavor`` switch to targeted mode: exactly that global
    boundary index faults and every rate is ignored.
    """

    seed: int = 0
    enospc_rate: float = 0.0
    short_write_rate: float = 0.0
    eio_read_rate: float = 0.0
    fsync_fail_rate: float = 0.0
    fail_at: Optional[int] = None
    flavor: str = "enospc"

    def digest(self, syscall: str, label: str, attempt: int) -> bytes:
        """The (seed, syscall, path-label, attempt) replay hash."""
        hasher = hashlib.sha256()
        hasher.update(struct.pack(">q", self.seed))
        hasher.update(syscall.encode("utf-8"))
        hasher.update(label.encode("utf-8"))
        hasher.update(struct.pack(">q", attempt))
        return hasher.digest()

    def draw(self, syscall: str, label: str, attempt: int) -> float:
        """Deterministic uniform draw in ``[0, 1)`` for one boundary."""
        digest = self.digest(syscall, label, attempt)
        return int.from_bytes(digest[:8], "big") / _SCALE

    def decide(self, syscall: str, label: str, attempt: int, index: int) -> Optional[str]:
        """The fault flavor for one boundary, or ``None`` for clean."""
        if self.fail_at is not None:
            if index != self.fail_at:
                return None
            if self.flavor in TARGETED_FLAVORS.get(syscall, ()):
                return self.flavor
            return None
        value = self.draw(syscall, label, attempt)
        if syscall == "write":
            if value < self.enospc_rate:
                return "enospc"
            if value < self.enospc_rate + self.short_write_rate:
                return "short"
        elif syscall == "fsync":
            if value < self.fsync_fail_rate:
                return "fsync"
        elif syscall == "read":
            if value < self.eio_read_rate:
                return "eio"
        elif syscall == "replace":
            if value < self.enospc_rate:
                return "enospc"
        return None


@dataclass(frozen=True)
class FsBoundary:
    """One filesystem boundary the workload crossed."""

    index: int
    syscall: str
    label: str
    fault: Optional[str]
    stamp: str  # replay-hash prefix: equal traces ⇔ equal executions


class FaultyOS(DiskInjector):
    """The armed disk shim: applies an :class:`FsFaultPlan` per syscall.

    Public counters the suites assert on:

    - ``trace`` / ``injected`` — every boundary crossed / faulted;
    - ``false_fsyncs`` — fsync calls on a descriptor whose previous
      fsync already failed.  A real kernel reports success there while
      the data is gone, so the shim does the same; library code must
      keep this at **zero** (never retry a failed fsync on the same
      descriptor — reopen and rewrite instead);
    - ``dropped_bytes`` — bytes the fsyncgate simulation discarded.
    """

    def __init__(self, plan: FsFaultPlan) -> None:
        self.plan = plan
        self.trace: List[FsBoundary] = []
        self.injected: List[FsBoundary] = []
        self.false_fsyncs = 0
        self.dropped_bytes = 0
        self._attempts: Dict[Tuple[str, str], int] = {}
        #: id(handle) -> (handle, durable offset).  The handle reference
        #: pins the id so it cannot be recycled while tracked.
        self._marks: Dict[int, Tuple[IO[bytes], int]] = {}
        self._gated: Dict[int, IO[bytes]] = {}

    # -- bookkeeping ---------------------------------------------------------

    @property
    def count(self) -> int:
        """How many boundaries have been crossed so far."""
        return len(self.trace)

    def _label(self, handle_or_path: object, label: str) -> str:
        if label:
            return label
        name = getattr(handle_or_path, "name", handle_or_path)
        return os.path.basename(str(name))

    def _register(self, syscall: str, label: str) -> Optional[str]:
        key = (syscall, label)
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        index = len(self.trace)
        fault = self.plan.decide(syscall, label, attempt, index)
        stamp = self.plan.digest(syscall, label, attempt).hex()[:16]
        hit = FsBoundary(index, syscall, label, fault, stamp)
        self.trace.append(hit)
        if fault is not None:
            self.injected.append(hit)
        return fault

    # -- DiskInjector overrides ----------------------------------------------

    def write(self, handle: IO[bytes], data: bytes, label: str = "") -> None:
        label = self._label(handle, label)
        # First sight of a handle fixes its durable floor: everything
        # below this offset predates the zone and counts as on-platter.
        self._marks.setdefault(id(handle), (handle, handle.tell()))
        fault = self._register("write", label)
        if fault == "enospc":
            raise OSError(errno.ENOSPC, "injected: no space left on device", label)
        if fault == "short":
            keep = 0
            if len(data) > 1:
                digest = self.plan.digest("write", label, self._attempts[("write", label)])
                keep = int.from_bytes(digest[8:16], "big") % len(data)
            handle.write(data[:keep])
            handle.flush()
            raise OSError(
                errno.ENOSPC, f"injected: short write ({keep}/{len(data)}B)", label
            )
        handle.write(data)

    def fsync_handle(self, handle: IO[bytes], label: str = "") -> None:
        label = self._label(handle, label)
        key = id(handle)
        if key in self._gated:
            # fsyncgate: the kernel cleared the error flag when the first
            # fsync failed; a retry on the same descriptor reports success
            # for pages that are already gone.
            self.false_fsyncs += 1
            return
        fault = self._register("fsync", label)
        if fault is None:
            os.fsync(handle.fileno())
            self._marks[key] = (handle, handle.tell())
            return
        # The failed fsync drops every dirty page since the durable floor.
        entry = self._marks.get(key)
        mark = entry[1] if entry is not None else handle.tell()
        position = handle.tell()
        if position > mark:
            os.ftruncate(handle.fileno(), mark)
            handle.seek(0, os.SEEK_END)
            self.dropped_bytes += position - mark
        self._gated[key] = handle
        raise OSError(errno.EIO, "injected: fsync failed", label)

    def fsync_fd(self, fd: int, path: str) -> None:
        # Directory fsyncs are labelled by role, not name: the store root's
        # basename is the (random) temp dir in tests, and replay stamps
        # must be identical across directories.
        label = "<dir>" if os.path.isdir(path) else self._label(path, "")
        fault = self._register("fsync", label)
        if fault is None:
            os.fsync(fd)
            return
        raise OSError(errno.EIO, "injected: fsync failed", path)

    def replace(self, source: str, destination: str) -> None:
        label = self._label(destination, "")
        fault = self._register("replace", label)
        if fault == "enospc":
            raise OSError(errno.ENOSPC, "injected: no space left on device", destination)
        if fault == "eio":
            raise OSError(errno.EIO, "injected: rename failed", destination)
        os.replace(source, destination)

    def read_probe(self, path: str, label: str = "") -> None:
        label = self._label(path, label)
        fault = self._register("read", label)
        if fault == "eio":
            raise OSError(errno.EIO, "injected: read failed", path)


_ACTIVE: Optional[FaultyOS] = None


def active_zone() -> Optional[FaultyOS]:
    """The armed shim, if any (for tests asserting on its counters)."""
    return _ACTIVE


@contextmanager
def fs_zone(plan: FsFaultPlan) -> Iterator[FaultyOS]:
    """Arm ``plan`` for the duration of the block; yields the shim.

    The census recipe mirrors :func:`~repro.faults.crash.crash_zone`:
    run the workload once under ``FsFaultPlan()`` (all rates zero) to
    enumerate boundaries, then once per boundary × flavor with
    ``fail_at=n`` and assert recovery.
    """
    global _ACTIVE
    shim = FaultyOS(plan)
    previous_active = _ACTIVE
    previous = install_injector(shim)
    _ACTIVE = shim
    try:
        yield shim
    finally:
        _ACTIVE = previous_active
        install_injector(previous)
