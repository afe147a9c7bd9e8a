"""Job times at a fixed reference speed, on a host whose speed drifts.

On the shared two-vCPU virtual machine this benchmark was built on, each
vCPU's speed moves by up to 1.5x over a few seconds as the host's other
tenants come and go, and the two vCPUs move independently.  Wall time alone
then measures the host as much as the program: the same search-h4 job read
9.5 s to 14.4 s within two minutes.

So the benchmark pins itself to the CPU it started on, and a pacer thread on
that CPU samples the CPU's speed while a job runs.  Every ``PERIOD`` seconds
it takes the GIL and times a fixed pure-Python kernel on its own thread CPU
clock, which leaves out time the kernel was preempted.  A job's paced time is
its wall time times the mean of ``REFERENCE_KERNEL_S / sample`` over the job:
the seconds the job would take with the CPU at the reference speed.  The
kernel is dict lookups, like much of fqcc's own work, and tracked the speed
of the same repeated job more closely than integer or numpy kernels did.  It
allocates no containers, and it runs twice with the second run timed.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD = 0.1  # seconds between speed samples
REFERENCE_KERNEL_S = 0.6e-3  # the kernel's CPU time at the reference speed
# a 20,000-entry dict with tuple keys: lookups in it depend on the caches the
# way fqcc's own dict- and tuple-heavy code does
_TABLE = {(i, i * 7 % 13): i for i in range(20000)}
_KEYS = list(_TABLE)[::3]


def kernel():
    """Fixed dict lookups; allocates no containers, so never runs the GC."""
    table, total = _TABLE, 0
    for key in _KEYS:
        total += table[key]
    return total


def pin():
    """Pin this process, its threads and later children to its current CPU."""
    with open("/proc/self/stat") as f:
        cpu = int(f.read().rsplit(")", 1)[1].split()[36])  # the CPU it last ran on
    os.sched_setaffinity(0, {cpu})
    return cpu


def sample():
    """Seconds of thread CPU time one warm kernel run takes now."""
    kernel()
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


class Pacer:
    """Samples this CPU's speed from a daemon thread while in its ``with`` block."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        # a sample at each end, so that even a short block has one
        self.samples.append(sample())
        while not self._stop.wait(PERIOD):
            self.samples.append(sample())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append(sample())

    def speed(self):
        """Mean speed over the block, relative to the reference speed."""
        return statistics.fmean(REFERENCE_KERNEL_S / s for s in self.samples)

