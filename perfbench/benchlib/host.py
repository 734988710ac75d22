"""Interference from the host: stolen CPU time and the host's speed.

On a virtual machine the hypervisor can deschedule a virtual CPU to run
another guest; Linux counts that time as *steal*, per CPU, in
``/proc/stat`` (the eighth value of each ``cpu`` line, in ticks of
1/100 s).  While it lasts the benchmark's processes make no progress,
so wall-clock throughput and latency worsen for reasons that have
nothing to do with the program under test.

:class:`BlockLog` cuts a measured phase into blocks of about
:data:`BLOCK_S` wall seconds and records the steal ticks the whole VM
saw during each; :meth:`BlockLog.quiet` keeps the blocks the hypervisor
left alone.  On a machine that reports no steal every block is kept and
the figures are those of the whole phase.

A shared host also runs the VM at changing speeds without any steal:
other guests contend for the same cores, caches and memory.  On a 2-core
x86 VM the speed flips between two states about a factor of two apart,
each lasting from a second to minutes, so the share of a run spent in
the slow state moves its wall-clock figures by a third or more.
:class:`HostGauge` tracks that speed by timing a fixed standard-library
workload (:func:`reference_work`) every :data:`GAUGE_EVERY_S` of a
measured phase, with the phase's clock stopped, and the benchmark scales
its times to the speed at which that workload takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import heapq
import hmac
import statistics
import struct
import time

from benchlib.stats import Samples, nearest_rank

STAT = "/proc/stat"

#: Target wall seconds per block: a few steal ticks long, and 30 to 150
#: settlements on the three workloads.
BLOCK_S = 0.05

#: Latency samples kept at least: when the blocks that saw no steal hold
#: fewer, the least stolen of the others are added until they do (enough
#: for a p99 with 20 samples beyond it).
MIN_SAMPLES = 2000


def steal_ticks() -> int:
    """Ticks stolen from all of the VM's CPUs so far (0 where unknown)."""
    try:
        with open(STAT, "rb") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


class BlockLog:
    """Settlements of one measured phase, in blocks of about ``BLOCK_S``.

    Call :meth:`begin` when the phase starts, :meth:`settled` once per
    latency sample recorded (in the same order), and :meth:`end` when the
    phase is over.  Each block is ``(first sample index, samples, wall
    seconds, steal ticks)``; ``ends`` holds the time each block ended.
    """

    def __init__(self) -> None:
        self.blocks: list[tuple[int, int, float, int]] = []
        self.ends: list[float] = []
        self._start = 0.0
        self._steal = 0
        self._first = 0
        self._count = 0

    def begin(self, now: float) -> None:
        self._start, self._steal = now, steal_ticks()

    def settled(self, now: float) -> None:
        self._count += 1
        if now - self._start >= BLOCK_S:
            self._close(now)

    def end(self, now: float) -> None:
        if self._count > self._first:
            self._close(now)

    def _close(self, now: float) -> None:
        steal = steal_ticks()
        self.blocks.append(
            (self._first, self._count - self._first, now - self._start, steal - self._steal)
        )
        self.ends.append(now)
        self._start, self._steal, self._first = now, steal, self._count

    def quiet(
        self, latencies: Samples, slowdowns: list[float] | None = None
    ) -> tuple[float, float, Samples, int]:
        """``(ops/s, p50, latency samples, blocks kept)`` over the blocks
        that saw no steal, topped up with the least stolen of the others
        to at least :data:`MIN_SAMPLES` samples.

        ``slowdowns`` has one entry per block (see
        :meth:`HostGauge.slowdown_over`); each block's seconds and
        latencies are divided by its entry, which scales them to the
        reference speed.  Without it they are left as measured.

        The p50 is each kept block's median, averaged with the blocks'
        sample counts as weights.  The host's speed also shifts between
        states for seconds at a time without any steal, and the median of
        the pooled samples jumps between those states, while this average
        moves only as far as the mean speed does.
        """
        if slowdowns is None:
            slowdowns = [1.0] * len(self.blocks)
        kept, count = [], 0
        order = sorted(range(len(self.blocks)), key=lambda i: self.blocks[i][3])
        for i in order:
            first, n, seconds, steal = self.blocks[i]
            if steal and count >= MIN_SAMPLES:
                break
            kept.append((first, n, seconds, slowdowns[i]))
            count += n
        values = latencies.values
        samples = Samples(
            [v / slow for first, n, _, slow in kept for v in values[first : first + n]]
        )
        seconds = sum(seconds / slow for _, _, seconds, slow in kept)
        p50 = sum(
            nearest_rank(sorted(values[first : first + n]), 50.0) / slow * n
            for first, n, _, slow in kept
        )
        return (
            (count / seconds if seconds > 0 else 0.0),
            (p50 / count if count else 0.0),
            samples,
            len(kept),
        )


#: Wall seconds of measurement between two reference samples.
GAUGE_EVERY_S = 0.25

#: Time of :func:`reference_work` on a 2-core x86 VM in its fast state:
#: the host speed the benchmark's times are scaled to.
REFERENCE_S = 0.011

#: Rounds of :func:`reference_work` per sample (about ``REFERENCE_S``).
REFERENCE_ROUNDS = 2000

_REFERENCE_KEY = b"host-gauge"


class _Entry:
    __slots__ = ("seq", "digest", "payload")

    def __init__(self, seq: int, digest: bytes, payload: bytes) -> None:
        self.seq, self.digest, self.payload = seq, digest, payload


def reference_work(rounds: int = REFERENCE_ROUNDS) -> int:
    """A fixed workload shaped like the program's hot path, using only
    the standard library: a heap of pending callbacks, packing integers
    into bytes, HMAC-SHA256, and a dict of small objects keyed by tuples.

    Returns a checksum, which is the same on every call.
    """
    queue: list = []
    table: dict = {}
    acc = 0

    def handle(seq: int, payload: bytes) -> None:
        nonlocal acc
        digest = hmac.new(_REFERENCE_KEY, payload, hashlib.sha256).digest()
        table[(seq % 64, seq)] = _Entry(seq, digest, payload)
        prior = table.get((seq % 64, seq - 64))
        if prior is not None and prior.digest < digest:
            acc += 1

    for seq in range(rounds):
        payload = b"".join([struct.pack(">QI", seq, i) for i in range(8)])
        heapq.heappush(queue, (seq * 7919 % 101, seq, handle, payload))
        if len(queue) > 32:
            _, first, callback, data = heapq.heappop(queue)
            callback(first, data)
    while queue:
        _, first, callback, data = heapq.heappop(queue)
        callback(first, data)
    return acc + len(table)


class HostGauge:
    """The host's speed during a measured phase, and a clock without the
    time spent measuring it.

    :meth:`now` is the wall clock less every pause :meth:`sample` took;
    :meth:`poll` samples when :data:`GAUGE_EVERY_S` has passed since the
    last sample.  An inactive gauge never samples on its own.
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        #: Wall seconds of each :func:`reference_work` call.
        self.samples: list[float] = []
        #: The clock's reading at each sample (it stands still during one).
        self.stamps: list[float] = []
        self.paused = 0.0
        self._due = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self) -> float:
        """Time one :func:`reference_work` call, with the collector off
        (so the program's heap does not slow it) and the clock stopped;
        returns its wall seconds."""
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        try:
            reference_work()
        finally:
            ended = time.perf_counter()
            if enabled:
                gc.enable()
        self.samples.append(ended - started)
        self.paused += time.perf_counter() - started
        self.stamps.append(self.now())
        self._due = ended + GAUGE_EVERY_S
        return ended - started

    @contextlib.contextmanager
    def stopped(self):
        """Leave the enclosed block out of :meth:`now`."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - started

    def poll(self) -> bool:
        """Sample if one is due.  Returns False, so that it can lead a
        ``run_until`` predicate: ``lambda: gauge.poll() or done()``."""
        if self.active and time.perf_counter() >= self._due:
            self.sample()
        return False

    def slowdown_over(self, start: float, end: float) -> float:
        """How much slower than the reference speed the host ran from
        ``start`` to ``end`` (readings of :meth:`now`): the harmonic mean
        of the samples from the last one taken at or before ``start`` to
        the first one at or after ``end``, over :data:`REFERENCE_S`.

        The harmonic mean of the times is the mean speed, which is what
        the program's rate over the stretch follows; a median would jump
        between the host's two speeds.
        """
        first = max(bisect.bisect_right(self.stamps, start) - 1, 0)
        last = bisect.bisect_left(self.stamps, end)
        window = self.samples[first : last + 1] or self.samples[-1:]
        return statistics.harmonic_mean(window) / REFERENCE_S

    def summary(self) -> str:
        mean = statistics.harmonic_mean(self.samples)
        return (
            f"n={len(self.samples)} median={statistics.median(self.samples) * 1e3:.4g} ms "
            f"harmonic mean={mean * 1e3:.4g} ms "
            f"min={min(self.samples) * 1e3:.4g} max={max(self.samples) * 1e3:.4g} "
            f"slowdown={mean / REFERENCE_S:.4g}"
        )
