"""Reference loop that scales every timed span for host-speed drift.

The loop is pure-Python integer arithmetic on tuples, written in the
style of realbook's ``IntMatrix`` product but importing nothing from
realbook, so a change to the program never changes it.  A span's
calibrated time is its wall time times ``NOMINAL_MS / measured_ms``,
where ``measured_ms`` comes from samples of this loop taken just before
and just after the span, while no program work is in flight.

Re-measure the nominal time with

    python3 perfbench/calib.py

which prints the median of 200 samples and the quartiles.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

# Median sample time on the reference host (see README.md); the scale
# factor of a run is NOMINAL_MS over the samples it measures.
NOMINAL_MS = 4.6

# A sample is the median of this many consecutive loop executions, so a
# single interrupt does not move it.
CALLS_PER_SAMPLE = 5
# Between ops, a sample is taken once this long has passed since the last.
SAMPLE_INTERVAL_S = 0.25

_N = 24
_A = tuple(tuple((3 * i + 5 * j) % 7 - 3 for j in range(_N)) for i in range(_N))
_I = tuple(tuple(int(i == j) for j in range(_N)) for i in range(_N))


def _matmul(x, y):
    cols = tuple(zip(*y))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in x)


def _loop() -> int:
    m = _I
    for _ in range(3):
        m = _matmul(_A, m)
        m = tuple(tuple(x % 101 for x in row) for row in m)
    return m[0][0]


def sample_ms() -> float:
    """One reference sample in milliseconds."""
    times = []
    for _ in range(CALLS_PER_SAMPLE):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


class Calibrator:
    """Reference samples of one run, with their times, for scaling spans.

    ``maybe_sample`` is called between program operations; it samples
    once SAMPLE_INTERVAL_S has passed since the last sample.  With a
    sample at the start and one at the end of every pass, each span is
    bracketed by a sample before and one after it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (midpoint, ms)
        self._last_end = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        ms = sample_ms()
        t1 = time.perf_counter()
        self.samples.append((0.5 * (t0 + t1), ms))
        self._last_end = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last_end >= SAMPLE_INTERVAL_S:
            self.sample()

    def ref_ms(self, t0: float, t1: float) -> float:
        """Reference time for a span [t0, t1]: the mean of the last
        sample before it and the first sample after it."""
        before = [ms for mid, ms in self.samples if mid <= t0]
        after = [ms for mid, ms in self.samples if mid >= t1]
        near = ([before[-1]] if before else []) + ([after[0]] if after else [])
        if not near:
            raise RuntimeError("span has no reference sample on either side")
        return sum(near) / len(near)

    def scale(self, t0: float, t1: float) -> float:
        """Calibrated seconds of the span [t0, t1]."""
        return (t1 - t0) * NOMINAL_MS / self.ref_ms(t0, t1)

    def median_ms(self) -> float:
        return statistics.median(ms for _mid, ms in self.samples)


def main() -> int:
    # measured as the benchmark measures it: on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    values = []
    for _ in range(200):
        values.append(sample_ms())
        time.sleep(0.005)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    print(f"reference sample: median {q2:.3f} ms, quartiles {q1:.3f} / {q3:.3f} ms "
          f"(NOMINAL_MS is {NOMINAL_MS})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
