"""Machine-speed calibration: timed figures rescaled to a nominal machine.

On a shared virtual machine the speed of a core drifts with its neighbours'
load: a fixed pure-Python loop was measured to run 25 % slower or faster
(interquartile range over 30-second windows) within five minutes on a
2-vCPU KVM guest with an Intel Xeon (Sapphire Rapids) host, in stretches
longer than one run. No averaging inside a run removes that.

So between cycles of ops the benchmark times a fixed kernel that does the
same kind of work as the ops, and divides each cycle's wall time by the
slowdown the kernel saw around it. The kernel never runs while an op runs
and depends on nothing in polyemit, so a change to the program moves the
rescaled figures as much as it moves wall time; only the machine's drift
cancels. The report line carries the wall-time figures as well.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REPEATS = 3     # a sample is the fastest of these, which skips one-off stalls

_rng = np.random.default_rng(0)
# unitary, so repeated products neither overflow nor go subnormal
_U3 = np.linalg.qr(_rng.normal(size=(3, 3)) + 1j * _rng.normal(size=(3, 3)))[0]


def interpreter_kernel() -> None:
    """Python arithmetic and 3 x 3 complex einsums: the interpreter-bound
    mix of the map and couple ops (per-node and per-frequency small-tensor
    work)."""
    s = 0
    for i in range(40_000):
        s += i * i
    x = _U3
    for _ in range(600):
        x = np.einsum("ij,jk->ik", _U3, x)


# Kernel time on the nominal machine: the median of the samples on the
# 2-vCPU Sapphire Rapids guest described above. It only fixes the scale, so
# that rescaled figures read close to wall seconds there. "none" times
# nothing and leaves wall time as it is.
KERNELS = {"interpreter": (interpreter_kernel, 6.5e-3),
           "none": (None, 1.0)}


class Calibration:
    """Samples of one kernel's time, taken between cycles of ops."""

    def __init__(self, kind: str):
        self.kind = kind
        self._kernel, self.reference_s = KERNELS[kind]
        self.samples = []

    def sample(self) -> float:
        if self._kernel is None:
            return self.reference_s
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        self.samples.append(best)
        return best

    def slowdown(self, *samples: float) -> float:
        """How much slower than nominal the machine ran, from the samples
        taken around an interval."""
        return sum(samples) / len(samples) / self.reference_s
