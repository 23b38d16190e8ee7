"""Machine-speed reference for normalizing benchmark times.

On a shared 2-vCPU VM the same single-threaded work runs up to about 1.8x
slower for seconds at a time, so raw times of identical runs spread by
20-40% (quartile spread over 10-second windows). A fixed kernel of the same
kind of work as jetsuff's inner loops (small numpy arrays driven from
Python: monomial evaluation, matrix validation, a 2x3 SVD, a norm) slows
down with it. Timing that kernel before and, on a timer, during every
command gives the machine's speed next to the command: a command's time
multiplied by the mean of NOMINAL_S / kernel time is its time at reference
speed. The kernel's own time is taken out of the command's time. Over
ten seeds this brought the quartile spread of wall_s from 21-30% (raw) to
1.0-3.1% (see NOTES.md).

Start-up (imports, file and shared-library loading) does not follow the
kernel, so start-up times are scaled the same way by the time of a fresh
interpreter that imports numpy and a few stdlib modules.

The kernels and their nominal times are part of the benchmark and must not
change, or times before and after the change are not comparable.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 0.005  # kernel time at reference speed (the 2-vCPU VM in its fast phase)
PERIOD_S = 0.05    # timer period for samples taken during a command
STARTUP_CODE = "import numpy, numpy.linalg, json, fractions, dataclasses"
STARTUP_NOMINAL_S = 0.2  # its time at reference start-up speed
_EXPS = np.array([[2, 0, 1], [1, 1, 0], [0, 3, 0]])
_COEFFS = np.array([1.0, -2.0, 0.5])
_A = np.array([[1.0, 0.3, -0.2], [0.1, -0.7, 0.4]])


def kernel(rounds: int = 200) -> float:
    acc = 0.0
    for i in range(rounds):
        x = np.asarray([0.1 * (i % 5), 0.2, -0.3], dtype=float)
        acc += float(np.prod(x[None, :] ** _EXPS, axis=1) @ _COEFFS)
        a = np.atleast_2d(np.asarray(_A * (1 + i % 3), dtype=float))
        if not np.all(np.isfinite(a)):
            raise ArithmeticError("reference kernel produced a non-finite value")
        acc += float(np.linalg.svd(a, compute_uv=False)[-1]) + float(np.linalg.norm(a[0]))
    return acc


def startup_speed() -> float:
    """STARTUP_NOMINAL_S / the time of a fresh interpreter that imports
    numpy and a few stdlib modules: the reference for start-up times,
    which the compute kernel does not track."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_CODE], check=True, timeout=120)
    return STARTUP_NOMINAL_S / (time.perf_counter() - t0)


def speed() -> tuple[float, float]:
    """(NOMINAL_S / kernel time, kernel time) for one kernel run."""
    t0 = time.perf_counter()
    kernel()
    dt = time.perf_counter() - t0
    return NOMINAL_S / dt, dt


class Probe:
    """Samples the speed before a timed call, every PERIOD_S during it and
    after it.

    ``measure(fn)`` returns (fn's result or exception, raw seconds with the
    kernel's own time removed, seconds at reference speed). ``clock()`` is
    ``time.perf_counter()`` minus all kernel time so far, so spans timed
    with it exclude the samples taken inside them.
    """

    def __init__(self):
        self._speeds: list[float] = []
        self._paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _on_alarm(self, signum, frame):
        self._speeds.append(self._sample())

    def _sample(self) -> float:
        s, dt = speed()
        self._paused += dt
        return s

    def measure(self, fn):
        self._speeds = [self._sample()]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = self.clock()
        try:
            result = fn()
        except Exception as exc:  # the caller counts it as a failed command
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            raw = self.clock() - t0
            signal.signal(signal.SIGALRM, previous)
        self._speeds.append(self._sample())
        return result, raw, raw * float(np.mean(self._speeds))
