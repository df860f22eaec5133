"""Host speed, measured with fixed kernels that no change to seer_lab touches.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of per cent from one second to the next and from one minute to the next
while other tenants come and go.  CPU time changes with it, so the slowdown is
per instruction, not time spent waiting, and neither the best nor the median
of a run's passes removes it.  So a run samples this kernel between the
workload's operations and reports each operation's time ``t`` as
``t * reference / k``, where ``k`` is the median time of the kernel samples
taken within about a second of that call: the call's time on a host of fixed
speed.

Calls in this process are rescaled with ``compute_kernel``: exact
``Fraction`` sums in an interpreter loop, numpy on a 1 MiB array and a small
HiGHS solve, in about equal parts, the kinds of work seer_lab does.  A
slowdown does not hit each kind alike, and the mix follows the LP, sampler
and enumeration calls together better than any one kind.  Process spawns
(the CLI calls and the set-up time) are rescaled with ``spawn_kernel``, a
fresh interpreter importing numpy: exec, dynamic loading and unmarshalling
slow down with the host differently from computing.  The kernels use only
the Python runtime, numpy and scipy, never seer_lab, so a change to the
program moves the rescaled times and not the kernels.
"""

from __future__ import annotations

import heapq
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.optimize import linprog

# Kernel, its typical time on a 2-vCPU Intel Xeon virtual machine at 2.1 GHz
# with one BLAS thread (reported times are seconds of that machine), how often
# it is sampled, and how many samples nearest a call set that call's scale:
# about a second on each side of it.
COMPUTE_REFERENCE_S, COMPUTE_EVERY_S, COMPUTE_NEAREST = 0.0120, 0.2, 9
# One sample after every spawn; a spawn is scaled by the samples either side.
SPAWN_REFERENCE_S, SPAWN_EVERY_S, SPAWN_NEAREST = 0.150, 0.0, 2

_A = np.random.default_rng(0).random((40, 64))
_B = _A @ np.full(64, 1 / 64)
_X = np.arange(1 << 17, dtype=np.float64)
_WINS = frozenset({(0, 1), (1, 0)})


def compute_kernel() -> None:
    third, total = Fraction(1, 3), Fraction(0)
    for i in range(1500):
        if (i & 1, (i >> 1) & 1) in _WINS:
            total += third
        else:
            total -= third / 2
    y = _X
    for _ in range(8):
        y = np.sqrt(y * 1.000001 + 1.0)
    y.sort()
    res = linprog(np.ones(64), A_eq=_A, b_eq=_B, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"calibration LP failed: {res.message}")


def spawn_kernel(env: dict) -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, check=True,
                   timeout=60)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class HostSpeed:
    """The kernel samples of one run: when each started, its wall and CPU seconds."""

    def __init__(self, kernel: Callable[[], None], cpu: Callable[[], float], reference_s: float,
                 every_s: float, nearest: int) -> None:
        kernel()  # first-call costs: imports, HiGHS set-up, file cache
        self.kernel, self.cpu_clock, self.reference_s = kernel, cpu, reference_s
        self.every_s, self.nearest = every_s, nearest
        self.at: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> None:
        c0, t0 = self.cpu_clock(), time.perf_counter()
        self.kernel()
        t1, c1 = time.perf_counter(), self.cpu_clock()
        self.at.append(t0)
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is less than ``every_s`` old."""
        if not self.at or time.perf_counter() - self.at[-1] >= self.every_s:
            self.sample()

    def scales(self, at: float) -> tuple[float, float]:
        """Factors that rescale a wall and a CPU time measured at ``at``."""
        near = heapq.nsmallest(self.nearest, range(len(self.at)), key=lambda j: abs(self.at[j] - at))
        return (self.reference_s / statistics.median(self.wall[j] for j in near),
                self.reference_s / statistics.median(self.cpu[j] for j in near))


def in_process() -> HostSpeed:
    return HostSpeed(compute_kernel, time.process_time, COMPUTE_REFERENCE_S, COMPUTE_EVERY_S, COMPUTE_NEAREST)


def spawned(env: dict) -> HostSpeed:
    return HostSpeed(lambda: spawn_kernel(env), children_cpu_s, SPAWN_REFERENCE_S, SPAWN_EVERY_S,
                     SPAWN_NEAREST)
