"""Host-speed calibration: scales measured times to a reference host speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
half from one minute to the next as other tenants load it.  Within one
process, operations keep their speed for tens of seconds and then shift
together, so the median of a run moves with the host, not with the program.

A fixed calibration kernel that shares no code with zerogap is timed before
the first timed section and after every one.  A section's time is scaled by
REFERENCE_S over the mean of the calibrations on either side of it: the time
the section would take on a host where the kernel takes REFERENCE_S.  Over
ten 30-second runs of each workload on a 2-vCPU Xeon VM, the spread between
the quartiles of the runs' median operation times, as a share of their
median, was 30% (certify), 17% (verify) and 29% (scan) unscaled, and 4.6%,
10% and 12% scaled.

The kernel mixes the two kinds of work the package does: vectorised complex
arithmetic on arrays that fit the cache (the digamma recurrence and
asymptotic series) and interpreted Python.  Each calibration is the median of
KERNEL_REPS timings of each part, so one preempted repetition does not move
it.  Because the kernel never calls zerogap, a change to the program moves
the scaled times by the same factor as the unscaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import Tuple

import numpy as np

# seconds the calibration (both parts) takes on the reference host; a round
# value inside the 7-17 ms it took on a 2-vCPU Xeon VM as the load varied
REFERENCE_S = 0.0125
KERNEL_REPS = 5

_Z = np.linspace(1.0, 60.0, 1 << 16) + 1j * np.linspace(-200.0, 200.0, 1 << 16)
_W, _ACC, _T, _U = (np.empty_like(_Z) for _ in range(4))


def _vector_part() -> None:
    # the digamma recurrence and asymptotic series on _Z, in preallocated
    # buffers: a calibration that allocated would take fresh pages from the
    # kernel or reuse heap pages depending on what the operation before it
    # freed, which changed its time by a third within one host state
    np.copyto(_W, _Z)
    _ACC.fill(0.0)
    for _ in range(6):  # recurrence psi(z) = psi(z + 1) - 1/z
        np.divide(1.0, _W, out=_T)
        np.subtract(_ACC, _T, out=_ACC)
        np.add(_W, 1.0, out=_W)
    np.multiply(_W, _W, out=_T)
    np.divide(1.0, _T, out=_T)  # 1/w^2
    np.multiply(_T, -1.0 / 252, out=_U)
    np.add(_U, 1.0 / 120, out=_U)
    np.multiply(_T, _U, out=_U)
    np.subtract(1.0 / 12, _U, out=_U)
    np.multiply(_T, _U, out=_U)
    np.subtract(_ACC, _U, out=_ACC)
    np.divide(0.5, _W, out=_U)
    np.subtract(_ACC, _U, out=_ACC)
    np.log(_W, out=_U)
    np.add(_ACC, _U, out=_ACC)


def _python_part() -> float:
    total = 0.0
    table = {}
    for k in range(1, 20000):
        total += (k % 7) * 0.5 / k
        table[k & 255] = total
    return total


def calibrate() -> Tuple[float, float]:
    """(wall, cpu) seconds of one calibration: the median time of each part
    over KERNEL_REPS alternating repetitions, summed."""
    timings = {part: ([], []) for part in (_vector_part, _python_part)}
    for _ in range(KERNEL_REPS):
        for part, (walls, cpus) in timings.items():
            w0, c0 = time.perf_counter(), time.process_time()
            part()
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
    wall = sum(statistics.median(walls) for walls, _ in timings.values())
    cpu = sum(statistics.median(cpus) for _, cpus in timings.values())
    return wall, cpu


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, from the calibrations (of the same
    clock) taken just before and just after the timed section."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
