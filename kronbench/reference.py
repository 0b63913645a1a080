"""A fixed pure-Python computation, timed next to kronrec's tasks.

The benchmark's host is shared: its speed drifts by a quarter over minutes
and swings by up to a factor of 1.8 for seconds at a time, and all
interpreter-bound work slows nearly together.  The benchmark therefore
times this reference kernel (big-integer elimination and mpmath arithmetic,
like kronrec's) just before every task, and scales each task's latency by
NOMINAL_S over the local reference time.  The kernel runs in its own
interpreter, which never imports kronrec, so no change to kronrec can alter
its time; while it runs, the benchmark waits, so the two never compete for
a core.

    python3 kronbench/reference.py

serves: for each line read on stdin it runs the kernel once and prints the
wall time in seconds.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import mpmath

# median seconds of one kernel() on the reference machine (2 vCPUs, CPython 3.11)
NOMINAL_S = 0.00082
WARMUP = 20
HALF_WINDOW = 15

_MATRIX = [[(7 * i + 13 * j) % 17 - 8 + 20 * (i == j) for j in range(16)] for i in range(16)]
_COEFFS = (3, -1, 4, 1, -5, 9, -2, 6)


def _bareiss(rows) -> int:
    a = [list(row) for row in rows]
    n, prev = len(a), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def kernel():
    """Fraction-free integer elimination, as in exact_linalg, and mpmath
    polynomial evaluation, as in poly_core and the numeric Trench path, in
    about equal shares of time."""
    det = _bareiss(_MATRIX)
    with mpmath.workdps(40):
        coeffs = [mpmath.mpf(c) / 7 for c in _COEFFS]
        values = [mpmath.polyval(coeffs, mpmath.mpf(k) / 11) for k in range(1, 10)]
    return det, values


def serve() -> None:
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel()
        print(time.perf_counter() - start, flush=True)


class Reference:
    """The kernel in a child interpreter; `time()` runs it once."""

    def __enter__(self) -> Reference:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            for _ in range(WARMUP):
                self.time()
        except BaseException:
            self.__exit__()
            raise
        return self

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def slowdown(times, i: int) -> float:
    """The host's slowdown at sample i: the median reference time within
    HALF_WINDOW samples of it, over NOMINAL_S."""
    window = times[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]
    return statistics.median(window) / NOMINAL_S


if __name__ == "__main__":
    serve()
