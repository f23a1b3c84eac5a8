"""Host-speed probe that steadies timings taken on a shared machine.

On a few cores of a shared host, other tenants change the speed of this
process by up to 1.8x, and the change comes and goes every 10-50 ms.
CPU time moves with wall time, so timing CPU time does not help.  The
probe times a fixed piece of pure-Python work -- calls through closures,
dict and list traffic, string building, the kind of work apate's layers
do -- and `factor` turns the readings taken before and after a stretch
of work into the host's speed over that stretch, relative to the
nominal speed `REFERENCE_NS`.  Multiplying the stretch's times by its
factor (dividing its rates) gives them at nominal host speed.

`Meter` reads the host speed every few milliseconds between units of
work, so that each segment is scaled by the speed it ran at, and leaves
the time spent in readings out.  A segment whose two readings differ by
more than TOLERANCE ran while the speed changed; it is marked unsteady,
because the readings at its ends do not say how fast it ran.

The reference work lives here, not in apate, so a change to apate moves
the timed work and leaves the probe alone: a real speed-up or slowdown
shows in full.  run.py prints the values as read beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

# Median ns of one reading() on the 2-vCPU VM the bounds were set on
# (Python 3.11.7), at the fastest speed its host gave.  It fixes the
# scale only: scaled values read as on that VM when nothing contended.
REFERENCE_NS = 195_000
CALLS_PER_READING = 3
TOLERANCE = 0.10


def _checks():
    def field(name, limit):
        return lambda ctx, i: ctx[name] + i > limit

    def prefix(text):
        return lambda ctx, i: ctx["path"].startswith(text)

    return [field("uid", 900), field("pid", 5000), field("ssid", 3),
            prefix("/srv/p1"), prefix("/data"), field("uid", 2000)]


_CHECKS = _checks()


def reference_unit() -> int:
    ctx = {"pid": 4242, "uid": 1000, "ssid": 7, "pname": "bash",
           "path": "/srv/p17/file3.txt"}
    hits = 0
    for i in range(120):
        for check in _CHECKS:
            hits += check(ctx, i)
    paths = [f"/srv/p{i % 41}/file{i % 13}.txt" for i in range(160)]
    tree = {}
    for p in paths:
        head, _, tail = p.rpartition("/")
        tree.setdefault(head, []).append(tail)
    for head in sorted(tree):
        hits += len(",".join(tree[head]))
    buf = bytearray()
    for i in range(80):
        buf += bytes((i & 255,)) * 16
    return hits + len(buf[100:1200])


def reading() -> float:
    """Median ns of one reference_unit() call, over a short burst."""
    now = time.perf_counter_ns
    samples = []
    for _ in range(CALLS_PER_READING):
        t0 = now()
        reference_unit()
        samples.append(now() - t0)
    return statistics.median(samples)


def factor(before: float, after: float) -> float:
    """Host speed over a stretch between two readings: below 1 when the
    host ran slow, so times x factor and rates / factor are at nominal
    speed."""
    return REFERENCE_NS / ((before + after) / 2)


class Meter:
    """Times a stretch of work in segments, each scaled by its own factor.

    start() takes a reading and starts the clock.  tick(), called between
    units of work, closes the current segment once it is ``every_ns``
    old, with a reading at its end that also starts the next one.
    stop() closes the last segment.  With no ticks the stretch is one
    segment between two readings.
    """

    def __init__(self, every_ns: int = 0):
        self.every_ns = every_ns
        self.segments = []      # (ns as read, factor, steady)

    def start(self) -> None:
        self._reading = reading()
        self._t = time.perf_counter_ns()
        self._due = self._t + self.every_ns

    def tick(self) -> bool:
        """True when this call closed a segment."""
        t = time.perf_counter_ns()
        if t < self._due:
            return False
        self._close(t)
        return True

    def stop(self) -> None:
        self._close(time.perf_counter_ns())

    def _close(self, t) -> None:
        before, after = self._reading, reading()
        steady = abs(after - before) <= TOLERANCE * min(before, after)
        self.segments.append((t - self._t, factor(before, after), steady))
        self._reading = after
        self._t = time.perf_counter_ns()
        self._due = self._t + self.every_ns

    def as_read_ns(self) -> int:
        return sum(ns for ns, _, _ in self.segments)

    def nominal_ns(self) -> float:
        return sum(ns * f for ns, f, _ in self.segments)

    def speed(self) -> float:
        """Factor over the whole stretch."""
        return self.nominal_ns() / self.as_read_ns()
