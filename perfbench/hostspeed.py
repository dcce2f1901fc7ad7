"""Host-speed calibration: a fixed kernel timed between tasks to rescale times.

On a shared host the CPU time of the same task moves with the host's own
speed (clock frequency, and the cache and memory traffic of other guests):
one cli_artifacts task repeated for a minute took between 0.6 and 0.9 CPU
seconds, and the medians of 40-second runs a few minutes apart differed by up
to 40%.  A kernel that shares no code with qbrownian, timed between tasks,
sees the same changes.  Each run reports its times scaled by
``REFERENCE_S / run_kernel_s``, that is, in CPU seconds of a host on which the
kernel takes ``REFERENCE_S``; the unscaled values go to the results file.

The kernel has a pure-Python part (interpreter-bound, as `cli` serialization
and the scalar coefficient calls are) and a NumPy part (element-wise maths and
a sort on an array the size of an L2 cache, and small matrix products, as the
grids and the Fock matrices are).  The run's kernel time is the geometric mean
of the two parts' medians.  In 10 windows of 20 s of repeated tasks, this
scaling cut the spread (quartile distance over median) of the windows' median
task time from 0.20 to 0.065 on cli_artifacts and from 0.11 to 0.034 on
oracle; either part alone did less well.

Only the kernel's code and inputs define the scale, so a change to qbrownian
moves the scaled times exactly as it moves the CPU times.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Kernel time (geometric mean of the two parts, CPU seconds) on the host the
# benchmark was defined on, a 2-vCPU KVM guest of an Intel Xeon (family 6,
# model 207), when it ran at its usual speed.  It only sets the scale.
REFERENCE_S = 0.0092

_ARRAY = np.random.default_rng(0).random(1 << 18)  # 2 MiB of float64
_OUT = np.empty_like(_ARRAY)
_MATRIX = np.random.default_rng(1).random((60, 60))


def _python_part() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def _numpy_part() -> float:
    acc = 0.0
    for _ in range(10):
        acc += float(np.sort(_ARRAY[:50_000])[0]) + float(np.exp(_ARRAY, out=_OUT)[0])
    for _ in range(40):
        acc += float((_MATRIX @ _MATRIX)[0, 0])
    return acc


class HostSpeed:
    """Times the kernel on demand and gives the run's scale factor."""

    def __init__(self) -> None:
        self.python_s: list[float] = []
        self.numpy_s: list[float] = []

    def sample(self) -> None:
        for part, times in ((_python_part, self.python_s), (_numpy_part, self.numpy_s)):
            t0 = time.process_time()
            part()
            times.append(time.process_time() - t0)

    def kernel_s(self) -> float:
        return math.sqrt(statistics.median(self.python_s) * statistics.median(self.numpy_s))

    def factor(self) -> float:
        """Multiplier that turns this run's CPU seconds into reference seconds."""
        return REFERENCE_S / self.kernel_s()

    def as_json(self) -> dict:
        return {"reference_s": REFERENCE_S, "kernel_s": self.kernel_s(), "factor": self.factor(),
                "samples": len(self.python_s), "python_s": self.python_s,
                "numpy_s": self.numpy_s}
