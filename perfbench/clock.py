"""Host time scaled to a fixed machine speed.

On a shared VM the same work can take 1.8x longer from one second to the
next, and the slowdown is invisible from inside: CPU time equals wall
time and no steal is reported.  A :class:`Stopwatch` therefore splits a
measured phase into segments of about ``SEGMENT_S`` and, between segments,
times a short pass of a fixed pure-Python reference loop.  Each segment's
wall time is scaled by ``REF_NOMINAL_S`` over the mean of the passes on
either side of it, so the result is in seconds of a machine that runs
the reference loop at its nominal speed.  The passes themselves are not
counted.  Raw wall time is kept beside the scaled figure.
"""

import time

#: Time of one reference pass on an uncontended core of the machine the
#: benchmark was written on (Intel Xeon at 2.0 GHz, Python 3.11).
REF_NOMINAL_S = 0.012

#: Segment length in seconds, and iterations of one reference pass.
SEGMENT_S = 0.1
PASSES = 40_000


class _Cell:
    __slots__ = ("key", "count")

    def __init__(self, key):
        self.key = key
        self.count = 0

    def bump(self, n):
        self.count += n
        return self.count


class Stopwatch:
    """Wall and reference-scaled time of a phase; call :meth:`tick` often."""

    def __init__(self):
        # The loop touches only objects built here, so it allocates
        # nothing the cyclic collector tracks and never triggers it.
        self._cells = {key: _Cell(key) for key in range(2039)}
        self._window = []
        self.start()

    def reference_s(self):
        """Seconds for one pass of the reference loop: method calls on
        slotted objects, dict lookups, list appends and sorts, int math."""
        cells = self._cells
        window = self._window
        acc = 0
        began = time.perf_counter()
        for i in range(PASSES):
            acc += cells[(i * 7919) % 2039].bump(i & 7)
            window.append(acc & 1023)
            if len(window) > 64:
                window.sort()
                del window[:32]
        return time.perf_counter() - began

    def start(self):
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.inner_ref_s = 0.0  # reference passes made between segments
        self._ref = self.reference_s()
        self._mark = time.perf_counter()

    def tick(self):
        """Close the current segment if it has run ``SEGMENT_S``."""
        now = time.perf_counter()
        if now - self._mark >= SEGMENT_S:
            self._close(now)
            self.inner_ref_s += self._ref
            self._mark = time.perf_counter()

    def stop(self):
        """Close the last segment; returns ``(wall_s, scaled_s)``."""
        self._close(time.perf_counter())
        return self.wall_s, self.scaled_s

    def _close(self, now):
        segment = now - self._mark
        ref = self.reference_s()
        self.wall_s += segment
        self.scaled_s += segment * 2 * REF_NOMINAL_S / (self._ref + ref)
        self._ref = ref

