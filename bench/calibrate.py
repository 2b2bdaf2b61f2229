"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a shared virtual machine whose speed follows its
neighbours' load: the same pure-Python loop can take half as long again from
one minute to the next, and a fifth more or less from one second to the
next.  Wall times alone then spread more between runs of the same code than
any change worth measuring.  So the engine process also times a fixed
reference chunk of pure-Python work, which never touches the engine, four
times a second, and every call is reported in reference seconds:

    reference seconds = wall seconds * mean(REF_CHUNK_S / chunk seconds)

over the chunks timed from WINDOW_S before the call until WINDOW_S after it.
The mean of the speeds (not of the times) is what a call that runs through a
changing speed sees.  On a machine where a chunk takes REF_CHUNK_S, the two
are the same.  A change to the engine moves the engine's wall time but not
the chunk's, so it moves the reference time by the same share; a change in
the machine's speed moves both, and cancels.

``Sampler`` times the chunks on a wall-clock interval timer (SIGALRM), so
they spread evenly over the run, also through calls that last many seconds.
The time spent in chunks is kept apart: ``engine_clock`` is the wall clock
less that time, and the worker times every call with it.

Set-up is timed against a reference start instead (``REFERENCE_START``, a
fresh interpreter importing a fixed set of standard modules): most of a
start is the kernel's work and the unmarshalling and running of module code,
whose speed the chunk's does not follow.  Each set-up probe is scaled by
REF_START_S over the reference start timed just before it.
"""

from __future__ import annotations

import signal
import statistics
import time

# Wall seconds of one chunk, and of a reference start (python3 -S -c
# REFERENCE_START), on the reference machine: 2 cores of a shared x86-64
# virtual machine with CPython 3.11, at its median speed.
REF_CHUNK_S = 0.022
REF_START_S = 0.040
REFERENCE_START = "import argparse, dataclasses, fractions, hashlib, json, math; print('ready', flush=True)"
SAMPLE_EVERY_S = 0.25  # a chunk takes about a tenth of a run
WINDOW_S = 0.5
CHUNK_RESULT = 25955076960


def chunk() -> int:
    """A fixed piece of the kind of work the engine does: small and large
    integer arithmetic, tuples, dicts and a sort.  Returns CHUNK_RESULT."""
    table = {}
    pairs = []
    acc = 0
    x = 1
    for i in range(24000):
        x = (x * 1103515245 + 12345) % 2147483648
        key = x & 1023
        table[key] = table.get(key, 0) + (x >> 10)
        acc += x * x % 65521
        if i % 4 == 0:
            pairs.append((x % 997, i))
    pairs.sort()
    big = 1
    for i in range(1, 400):
        big = big * (i + 10**30) % (10**50 + 151)
    return acc + sum(table.values()) + pairs[0][1] + pairs[-1][1] + big % 10**6


def timed_chunk() -> float:
    t0 = time.perf_counter()
    value = chunk()
    seconds = time.perf_counter() - t0
    if value != CHUNK_RESULT:
        raise RuntimeError(f"calibration chunk returned {value}, not {CHUNK_RESULT}")
    return seconds


def speed(chunk_seconds) -> float:
    """The factor from wall to reference seconds: the mean speed of chunks."""
    return statistics.fmean(REF_CHUNK_S / s for s in chunk_seconds)


def reference_seconds(calls, samples) -> list:
    """Each call's seconds in reference seconds.

    calls: (seconds, end) pairs; samples: (at, chunk seconds) pairs, both on
    the engine clock.  A call is scaled by the chunks from WINDOW_S before its
    start to WINDOW_S after its end, or by all of them if none fell there."""
    out = []
    for seconds, end in calls:
        lo, hi = end - seconds - WINDOW_S, end + WINDOW_S
        near = [s for at, s in samples if lo <= at <= hi]
        out.append(seconds * speed(near or [s for _, s in samples]))
    return out


class Sampler:
    """Times one chunk at once and then every SAMPLE_EVERY_S of wall time
    while installed; samples are (engine clock, chunk seconds) pairs."""

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append((t0 - self.paused_s, timed_chunk()))
        self.paused_s += time.perf_counter() - t0

    def engine_clock(self) -> float:
        """Wall seconds, less the time spent in chunks.  Read again if a
        chunk ran while reading."""
        while True:
            paused = self.paused_s
            now = time.perf_counter()
            if self.paused_s == paused:
                return now - paused

    def speed(self) -> float:
        """The factor to reference seconds over the chunks so far."""
        return speed(s for _, s in self.samples)

    def install(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
