"""Host-speed calibration: timings in reference-host seconds.

The benchmark runs on shared virtual machines whose CPU speed changes by
up to 2x within seconds, while ``/proc/stat`` shows no steal time: each
virtual CPU flips between a fast and a slow state on its own.  A fixed
calibration loop, timed right after each unit of measured work (a sweep,
a superstep segment, an update cycle), reads the host's current speed.
Each duration is then scaled by ``REFERENCE_S / calibration``: the time
the same work would take on a host that runs the loop in ``REFERENCE_S``.
A slower program still reads slower by the same share; a slower host
does not.

Work that keeps both virtual CPUs busy (the parallel fit) waits for the
slower of the two, and each switches speed on its own.
:class:`PairCalibrator` times the loop on both CPUs at once, for long
enough to feel a CPU quota, and keeps the slower reading.

The loop is interpreter work plus a small NumPy call, like the Gibbs
kernels.  It never touches the program under test, so no change to the
program can change it.  The raw wall values stay in the run record next
to the scaled ones.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

#: Calibration loop time on a quiet phase of the 2-vCPU Xeon VM
#: (2.0 GHz) the benchmark was tuned on.
REFERENCE_S = 0.0022
#: Loop iterations per timing and timings per sample (the minimum wins:
#: it is the speed of the phase, without the odd preemption).
_ITERATIONS = 1000
_REPEATS = 3
_DATA = np.random.default_rng(0).random(64)


def _loop() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(_ITERATIONS):
        acc += float(_DATA[i & 63]) * 1.5
        np.cumsum(_DATA)
    return time.perf_counter() - start


def calibrate() -> float:
    """The calibration loop's time now, in seconds (about 7 ms of work)."""
    return min(_loop() for _ in range(_REPEATS))


def scale(seconds: float, calibration: float) -> float:
    """``seconds`` measured at ``calibration``, in reference-host seconds."""
    return seconds * REFERENCE_S / calibration


def sustained(loops: int = 40) -> float:
    """Mean loop time over ``loops`` back-to-back loops (about 0.1-0.2 s).

    Long enough to feel a CPU quota or a busy sibling that a single
    short loop slips past.
    """
    start = time.perf_counter()
    for _ in range(loops):
        _loop()
    return (time.perf_counter() - start) / loops


def _calibrate_on_request(conn) -> None:
    conn.send(True)  # imports done: the next loops overlap the caller's
    while conn.recv():
        conn.send(sustained())


class PairCalibrator:
    """Calibrates both CPUs at once: this process and a helper process.

    Use as a context manager; leaving it stops and joins the helper.
    """

    def __init__(self) -> None:
        context = multiprocessing.get_context("spawn")
        self._conn, child = context.Pipe()
        self._proc = context.Process(target=_calibrate_on_request,
                                     args=(child,), daemon=True)
        self._proc.start()
        if not self._conn.poll(60):
            self.close()
            raise RuntimeError("host calibration helper did not start")
        self._conn.recv()

    def calibrate(self) -> float:
        """The slower CPU's :func:`sustained` loop time, both CPUs busy."""
        self._conn.send(True)
        mine = sustained()
        return max(mine, self._conn.recv())

    def close(self) -> None:
        if self._proc.is_alive():
            self._conn.send(False)
            self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()

    def __enter__(self) -> "PairCalibrator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
