"""Reference kernels that measure the host's speed next to each block of ops.

On a shared 2-vCPU Intel Xeon virtual machine the per-core speed swings
between states about 1.7x apart that last seconds to minutes, so CPU time
alone is not steady from run to run. Before and after each block of ops
(and each set-up) the harness times fixed kernels made of the kinds of work
the workload's ops do. The kernels' CPU time over
its nominal value is the host's slowness at that moment; CPU seconds
divided by it are *reference seconds*, which a change of host speed does not
move but a change in the program moves in full.

The kernels run in a long-lived child process (``Reference``), so their
memory, ``stream``'s ~100 MB above all, never counts in the workload
process's peak RSS. The child runs only while the workload process waits
for its answer, so the two never compete for a CPU.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Sequence

import numpy as np


def _interp() -> None:
    acc = 0
    for k in range(30_000):
        acc += k * k % 7


def _scalar() -> None:
    for k in range(1_500):
        float(np.clip(np.asarray(k * 1e-4, dtype=float), 0.0, 1.0))


def _vector() -> None:
    x = np.linspace(0.0, 3.0, 20_000)
    for _ in range(30):
        float(np.max(np.sin(x) * np.cos(x)))


def _rng() -> None:
    gen = np.random.default_rng(1)
    for _ in range(5):
        int(np.count_nonzero(gen.random(100_000) < 0.5))


def _stream() -> None:
    x = np.linspace(0.0, 3.0, 4_000_000)
    y = x * 1.5
    y += x
    float(np.max(y))
    int(np.count_nonzero(y < 2.0))


#: kind of work -> (kernel, its median CPU seconds on the 2-vCPU Intel Xeon
#: virtual machine the benchmark was written on)
KERNELS = {
    "interp": (_interp, 0.00236),
    "scalar": (_scalar, 0.00613),
    "vector": (_vector, 0.01228),
    "rng": (_rng, 0.00210),
    "stream": (_stream, 0.03377),
}

#: interpreter work, scalar numpy calls and small-array numpy work
COMPUTE = ("interp", "scalar", "vector")
#: streaming over arrays far larger than the caches, and random draws
MEMORY = ("stream", "rng")
ALL = COMPUTE + MEMORY


def slowness(kinds: Sequence[str]) -> float:
    """CPU time of the given kernels now, over their nominal CPU time."""
    nominal = sum(KERNELS[k][1] for k in kinds)
    c0 = time.process_time()
    for k in kinds:
        KERNELS[k][0]()
    return (time.process_time() - c0) / nominal


class Reference:
    """A child process that runs the kernels on request.

    Use as a context manager; leaving it stops the child and waits for it.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        # the first answer shows the child is ready and warms its kernels
        self.slowness(ALL)

    def slowness(self, kinds: Sequence[str]) -> float:
        self.proc.stdin.write(" ".join(kinds) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("reference kernel process ended")
        return float(answer)

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    # child side of Reference: one line of kernel kinds in, slowness out
    for line in sys.stdin:
        print(repr(slowness(line.split())), flush=True)
