"""Host-drift correction: time work in seconds at a fixed reference host speed.

On a small shared virtual machine the same pure-Python work can run 40 %
slower in one process than in the next, so raw wall-clock job times cannot
repeat within a tenth.  This module samples a tiny reference kernel next to
the measured work and rescales every timed interval by how fast the host ran
the kernel at that moment:

    normalised = (cpu - burst cpu inside the interval) * k_ref / k_local

* The work and the kernel are both timed on CPU clocks.  The guest kernel
  leaves hypervisor steal time and run-queue waits out of every CPU clock, so
  a host that takes the virtual CPU away slows neither side; the kernel ratio
  then corrects what does slow both, a slower or shared physical core.  Wall
  time counts steal in the work but not in a kernel burst short enough to
  fall between two steals: on the 2-vCPU VM two competing busy processes
  doubled a serve window's wall time and moved its CPU time and the kernel
  by at most 6 %.  The work's clock is the process CPU clock, so work a program
  change moves to another thread still counts.
* The kernels are cache-light, so they are not coupled to the program's
  memory footprint (``kernel_inflation`` in the report shows it: in-run over
  pre-run kernel time stays near 1).  The default, :data:`INTERPRETER`, is
  an interpreter integer loop plus a few numpy calls on a 64-element array.
  The serving query path -- small objects, dict lookups, bisects -- drifts
  with the host differently, so it is scaled by :data:`OBJECTS`, a kernel of
  that kind.  Over eight processes of one serve set-up on the 2-vCPU VM the
  query CPU time per window ranged 39-66 ms; its ratio to the object kernel
  ranged 177-208 and to the interpreter kernel 358-465.  A generation
  request, mostly numpy, tracks the interpreter kernel instead (ratio
  13.8-16.3 thousand over five processes, 5.6-8.6 thousand to the object
  kernel).
* A burst runs between units (experiments, days, query windows, requests)
  and, on an interval timer, during long single calls (world build, one
  generation request).
* Each burst runs the kernel twice and times the second run with the thread
  CPU clock.  The first run absorbs the cold start after the program's own
  work (an isolated kernel run measured about twice its warm time on the
  2-vCPU VM), and the thread clock keeps a burst delayed by another thread
  holding the interpreter lock from reading as a slow host.
* ``k_local`` is the median kernel time of the bursts inside the interval,
  widened to the nearest :data:`MIN_LOCAL` bursts when the interval is short.

The raw value next to each normalised one is wall time minus the burst wall
time inside the interval, with no kernel correction.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import threading
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: Interval-timer period for sampling inside long single calls.
TIMER_PERIOD_S = 0.025

#: Fewest bursts a local kernel estimate is based on.
MIN_LOCAL = 9

_KERNEL_ARRAY = np.arange(64, dtype=np.float64)
_KERNEL_KEYS = {i * 2654435761 % 100_003: i for i in range(512)}
_KERNEL_SORTED = sorted(_KERNEL_KEYS)


def interpreter_kernel() -> float:
    """A pure-interpreter integer loop and small numpy calls."""
    acc = 0
    for i in range(1500):
        acc = (acc * 31 + i) & 0xFFFFF
    a = _KERNEL_ARRAY
    return acc + float(np.dot(a, a)) + float(a.sum()) + float(np.cumsum(a)[-1])


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def object_kernel() -> int:
    """Interpreter object work: small instances, dict gets, bisects, tuple hashes.

    It touches one 512-entry dict and list (a few tens of KB) and frees each
    object it makes before the next, so it stays cache-light.
    """
    acc = 0
    keys = _KERNEL_KEYS
    ordered = _KERNEL_SORTED
    for i in range(300):
        key = i * 2654435761 % 100_003
        pair = _Pair(key, keys.get(key, -1))
        acc += pair.value + bisect.bisect_left(ordered, key)
        acc ^= hash((pair.key, i)) & 0xFF
    return acc


@dataclass(frozen=True, slots=True)
class Kernel:
    """A reference kernel and its fixed reference time.

    ``ref_s`` was fixed once (about the kernel's median CPU time on a 2-vCPU
    x86_64 VM, Python 3.11); normalised seconds are seconds on a host that
    runs the kernel in exactly this time.
    """

    run: Callable[[], object]
    ref_s: float


#: The default kernel; it tracks numpy-heavy work (world build, APD, the
#: experiments, generation) best.
INTERPRETER = Kernel(interpreter_kernel, 100e-6)
#: The kernel for interpreter-object work (the serving query path).
OBJECTS = Kernel(object_kernel, 200e-6)


@dataclass(frozen=True, slots=True)
class Interval:
    """One timed interval, raw and normalised."""

    wall_s: float
    cpu_s: float
    burst_wall_s: float
    burst_cpu_s: float
    k_local_s: float
    k_ref_s: float

    @property
    def normalised_s(self) -> float:
        return (self.cpu_s - self.burst_cpu_s) * self.k_ref_s / self.k_local_s

    @property
    def raw_s(self) -> float:
        return self.wall_s - self.burst_wall_s


#: The interval of a unit that raised: no time, no items.
FAILED_INTERVAL = Interval(0.0, 0.0, 0.0, 0.0, 1.0, 1.0)


class DriftMeter:
    """Reference-kernel samples of one thread, and the intervals they scale."""

    def __init__(self, kernel: Kernel = INTERPRETER) -> None:
        self.kernel = kernel
        self._starts: list[float] = []  # burst wall start (perf_counter)
        self._walls: list[float] = []  # burst wall duration
        self._process_cpus: list[float] = []  # burst process-CPU duration
        self._cpus: list[float] = []  # timed kernel run, thread-CPU duration
        self._baseline: list[float] = []
        self._in_burst = False

    # -- sampling ------------------------------------------------------------

    def burst(self) -> None:
        """Run the kernel (warm-up, then timed) and record wall and CPU time.

        A timer signal arriving during a burst does not start another one
        inside it (that sample would read the outer burst as well).
        """
        if self._in_burst:
            return
        self._in_burst = True
        try:
            w0 = time.perf_counter()
            p0 = time.process_time()
            self.kernel.run()
            c0 = time.thread_time()
            self.kernel.run()
            c1 = time.thread_time()
            p1 = time.process_time()
            w1 = time.perf_counter()
            self._starts.append(w0)
            self._walls.append(w1 - w0)
            self._process_cpus.append(p1 - p0)
            self._cpus.append(c1 - c0)
        finally:
            self._in_burst = False

    def calibrate(self, bursts: int = 60) -> None:
        """Kernel samples before any work, the base of ``kernel_inflation``."""
        for _ in range(bursts):
            self.burst()
        self._baseline = self._cpus[-bursts:]

    @contextmanager
    def sampling(self):
        """Run bursts on an interval timer for the duration of the block.

        The timer's signal handler runs in the main thread between bytecodes,
        so bursts land inside long single calls as well as between them.
        """
        if threading.get_ident() != threading.main_thread().ident:
            yield
            return

        def handler(signum, frame):
            self.burst()

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, TIMER_PERIOD_S, TIMER_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    # -- measuring -----------------------------------------------------------

    def measure(self, fn, *args, **kwargs):
        """Call ``fn`` between two bursts; return ``(result, Interval)``."""
        self.burst()
        t0 = time.perf_counter()
        p0 = time.process_time()
        result = fn(*args, **kwargs)
        p1 = time.process_time()
        t1 = time.perf_counter()
        self.burst()
        return result, self.interval(t0, t1, p1 - p0)

    def interval(self, t0: float, t1: float, cpu_s: float) -> Interval:
        """The interval ``[t0, t1]`` (*cpu_s* of process CPU) with its inside
        bursts and local kernel."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        return Interval(
            wall_s=t1 - t0,
            cpu_s=cpu_s,
            burst_wall_s=sum(self._walls[lo:hi]),
            burst_cpu_s=sum(self._process_cpus[lo:hi]),
            k_local_s=self._local_kernel(lo, hi),
            k_ref_s=self.kernel.ref_s,
        )

    def _local_kernel(self, lo: int, hi: int) -> float:
        """Median kernel time over bursts lo..hi, widened to MIN_LOCAL."""
        n = len(self._cpus)
        if n == 0:
            raise RuntimeError("no kernel bursts recorded")
        while hi - lo < MIN_LOCAL and (lo > 0 or hi < n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < MIN_LOCAL:
                hi += 1
        return statistics.median(self._cpus[lo:hi])

    # -- diagnostics ---------------------------------------------------------

    def kernel_stats(self) -> dict[str, float]:
        """Kernel p50/p90 in microseconds, and in-run over pre-run median."""
        samples = sorted(self._cpus[len(self._baseline):])
        if not samples:
            return {"p50_us": 0.0, "p90_us": 0.0, "inflation": 0.0}
        p50 = statistics.median(samples)
        p90 = samples[min(len(samples) - 1, int(0.9 * len(samples)))]
        base = statistics.median(self._baseline) if self._baseline else p50
        return {"p50_us": p50 * 1e6, "p90_us": p90 * 1e6, "inflation": p50 / base}
