"""The machine's speed, sampled during timed work, and times in reference seconds.

The reference machine's CPU speed moves by up to about 1.9x with its other tenants'
load, in spells of a few seconds to a minute. A `Sampler` runs a short, fixed
probe kernel from a SIGALRM handler every PROBE_INTERVAL_S while it is on. A
span of work is then scaled by the mean speed the probes saw during it:

    reference seconds = (wall seconds - time in probes) * mean(PROBE_REF_S / probe time)

so a span that ran in a slow spell is not counted as slower code. The probe
does what the pipeline mostly does, interpreted Python: it formats and parses
CSV-like frame lines, then runs a few small numpy products. Its code never
changes with the program, so a change to the program still moves the scaled
time. The time spent in probes is taken out of every span it falls in.
"""
from __future__ import annotations

import signal
import time

import numpy as np

PROBE_INTERVAL_S = 0.04
PROBE_ROWS = 100
# The probe's time at the reference speed. Over 40 runs on the reference
# machine, its median time in a run ranged from 0.74 ms to 1.45 ms.
PROBE_REF_S = 0.0012

_MATRIX = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)


def probe_s() -> float:
    """Time of one run of the probe kernel, in seconds."""
    start = time.perf_counter()
    rows = []
    for i in range(PROBE_ROWS):
        data = " ".join("%02x" % (i * j & 255) for j in range(8))
        stamp, can_id, dlc, data = f"{i * 0.001:.6f},{i % 2048:03X},8,{data}".split(",")
        rows.append((float(stamp), int(can_id, 16), int(dlc), [int(b, 16) for b in data.split()]))
    total = 0
    for i in range(8 * PROBE_ROWS):
        total += i * i % 7
    x = _MATRIX
    for _ in range(4):
        x = np.tanh(x @ _MATRIX * 0.01)
    elapsed = time.perf_counter() - start
    if len(rows) != PROBE_ROWS or total <= 0 or not np.isfinite(x[0, 0]):
        raise RuntimeError("speed probe gave a wrong result")
    return elapsed


class Sampler:
    """Runs the probe every PROBE_INTERVAL_S from a SIGALRM handler while on.

    The timer is one-shot and re-armed when a probe ends, so probes never
    nest. `stolen` is the total time spent in probes; a caller takes its
    change out of a span's wall time.
    """

    def __init__(self):
        self.samples = []  # (start, probe seconds)
        self.stolen = 0.0
        self._on = False

    def _probe(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, probe_s()))
        self.stolen += time.perf_counter() - start
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def start(self) -> None:
        probe_s()  # warm-up: the first run pays for first calls
        self._on = True
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def stop(self) -> None:
        # The handler stays installed: a SIGALRM already delivered may still
        # run it once, and with _on false it does not re-arm the timer.
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def factor(self, start: float, end: float) -> float:
        """Mean speed over [start, end], as PROBE_REF_S / probe time.

        The window is widened by one interval on each side, so a span shorter
        than the interval still has a probe next to it. A probe waits for a
        running C call to return, so if the window still holds none, the
        nearest probe counts.
        """
        pad = PROBE_INTERVAL_S
        speeds = [PROBE_REF_S / s for t, s in self.samples if start - pad <= t <= end + pad]
        if not speeds:
            t, s = min(self.samples, key=lambda sample: min(abs(sample[0] - start),
                                                            abs(sample[0] - end)))
            speeds = [PROBE_REF_S / s]
        return sum(speeds) / len(speeds)

    def median_probe_s(self) -> float:
        times = sorted(s for _, s in self.samples)
        return times[len(times) // 2]
