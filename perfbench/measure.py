"""Timing samples, percentiles, CPU-speed normalization and process measurements.

The benchmark shares a virtual machine with other tenants, and the speed
of its CPU drifts by tens of percent over seconds.  So the loop times a
fixed calibration kernel every :data:`PROBE_PERIOD_S`, and every timing
is reported in *reference milliseconds*: the measured time scaled by
``REFERENCE_KERNEL_S / t``, where ``t`` is the median of the kernel
timings nearest to it.  The kernel uses only the standard library (and
numpy when present), never the program, so a change to the program
cannot move it.  Raw times are kept in each run record.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import resource
import statistics
import time
import zlib
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.tracing import Tracer

try:
    import numpy
except ImportError:  # the kernel then skips its numpy part
    numpy = None

#: Seconds between kernel timings in the loop.
PROBE_PERIOD_S = 0.05
#: Kernel timings on each side of a measurement that set its scale.
PROBE_NEIGHBOURS = 3
#: The kernel's time at reference speed.  On the 2-vCPU KVM Xeon (Sapphire
#: Rapids) where the bounds were set, a run's median kernel time ranged
#: from 0.61 to 1.13 ms; this round figure sits near the fast end.
REFERENCE_KERNEL_S = 0.75e-3

_BLOB = bytes(range(256)) * 16
_ARRAY = numpy.arange(512, dtype=numpy.uint64) if numpy is not None else None


def kernel() -> float:
    """Time one run of the calibration kernel, in seconds.

    It mixes what the engine spends its time on: interpreted loops and
    dict inserts, SHA-256, small numpy calls and zlib.
    """
    enabled = gc.isenabled()
    gc.disable()  # a collection here would time the program's heap, not the CPU
    try:
        start = time.perf_counter()
        total = 0
        table = {}
        for index in range(2000):
            total += index * index % 7
            table[str(index)] = index
        for _ in range(20):
            hashlib.sha256(_BLOB).digest()
            if _ARRAY is not None:
                (_ARRAY * 2654435761 >> 7).nonzero()
        zlib.compress(_BLOB, 6)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Kernel timings through a run, and the scale they give each moment."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        now = time.perf_counter()
        self.took.append(kernel())
        self.at.append(now)
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= PROBE_PERIOD_S:
            self.sample()

    def scale(self, moment: float) -> float:
        """Reference seconds per measured second around ``moment``."""
        if not self.took:
            raise ValueError("no kernel timings")
        index = bisect.bisect_left(self.at, moment)
        low = max(0, index - PROBE_NEIGHBOURS)
        near = self.took[low:index + PROBE_NEIGHBOURS]
        return REFERENCE_KERNEL_S / statistics.median(near)


def percentile(values: List[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the ``q`` quantile."""
    if count == 0:
        return 0
    return count - 1 - math.floor(q * (count - 1))


def highest_supported(count: int, candidates=(0.999, 0.99, 0.9, 0.5), need: int = 10):
    """The highest candidate quantile with at least ``need`` samples above it."""
    for q in candidates:
        if samples_beyond(count, q) >= need:
            return q
    return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Times benchmark operations; each call is one op of a named kind.

    ``samples`` holds raw (start, seconds) pairs; :meth:`normalized`
    rescales them with the probe's kernel timings, taken between ops.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        counters: Optional[Callable[[], Dict[str, int]]] = None,
    ) -> None:
        self.tracer = tracer
        #: When given, its counters' growth inside ops accumulates in ``counted``.
        self.counters = counters
        self.counted: Dict[str, int] = defaultdict(int)
        self.probe = SpeedProbe()
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.user_bytes = 0
        self.mismatches: List[str] = []

    def call(self, kind: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        self.probe.maybe_sample()
        tracer = self.tracer
        before = self.counters() if self.counters is not None else None
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end_op()
        else:
            result = fn(*args, **kwargs)
        self.samples[kind].append((start, time.perf_counter() - start))
        if before is not None:
            for key, value in self.counters().items():
                self.counted[key] += value - before[key]
        return result

    def expect(self, ok: bool, what: str) -> None:
        """Record a wrong result (checked outside the timed call)."""
        if not ok:
            self.mismatches.append(what)

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.samples.values())

    def raw(self, kind: str) -> List[float]:
        return [seconds for _start, seconds in self.samples[kind]]

    def normalized(self, kind: str) -> List[float]:
        """Op times of ``kind`` in reference seconds."""
        scale = self.probe.scale
        return [seconds * scale(start) for start, seconds in self.samples[kind]]

    def busy_s(self, normalize: bool = True) -> float:
        """Time spent inside ops, in reference (or raw) seconds."""
        pick = self.normalized if normalize else self.raw
        return sum(sum(pick(kind)) for kind in self.samples)
