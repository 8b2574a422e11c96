"""Machine-speed probe for the system benchmark, run as a process of its own.

The benchmark shares its CPUs with other tenants, and each CPU's speed
moves by tens of percent within seconds.  So every time the benchmark
reports is scaled by how long a fixed mix of pure-Python work
(:func:`reference_s`) takes right then, on the CPU the measured work ran
on: two measurements on one CPU track each other closely, while the
other CPU's speed says almost nothing about this one's.

The mix runs in this separate, otherwise idle process, which never
imports the code under test.  A thread holding the measured process's
interpreter lock, a grown heap or a collector pause there therefore
cannot slow the reference and hide its own cost.  :class:`Probe` starts
the process; it answers each request line with the mix's seconds on
each CPU, pinning itself to one CPU after another.

Only the standard library is imported, so ``run.py`` can use the probe
without ``repro``.
"""

from __future__ import annotations

import heapq
import os
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Tuple

#: What :func:`reference_s` takes on a quiet 2-CPU machine: times are
#: reported in seconds of that nominal machine.
REFERENCE_NOMINAL_S = 0.0027


def _reference_steps() -> Iterator[int]:
    value = 0
    while True:
        value = yield value + 1


def reference_s() -> float:
    """Seconds a fixed mix of pure-Python work takes on this CPU now.

    Integer arithmetic, dict and heap updates on small tuples, and
    generator sends: the operations the simulator's round loop is made
    of, so a busy neighbour slows it about as much as the workloads.
    """
    start = time.perf_counter()
    total = 0
    for value in range(15_000):
        total += value * value
    table: Dict[int, Tuple[int, int, int]] = {}
    heap: List[Tuple[int, int]] = []
    for value in range(2_000):
        key = (value * 7919) % 4096
        table[key] = (value, key, value & 7)
        heapq.heappush(heap, (key, value))
        if len(heap) > 64:
            heapq.heappop(heap)
        table.get(value % 4096)
    steps = _reference_steps()
    next(steps)
    for value in range(8_000):
        total += steps.send(value)
    return time.perf_counter() - start


def last_cpu(pid: int = 0) -> int:
    """The CPU process ``pid`` (default: this one) last ran on."""
    with open(f"/proc/{pid or 'self'}/stat", encoding="ascii") as handle:
        # Field 39 of stat(5); the command name before it may hold spaces.
        return int(handle.read().rsplit(")", 1)[1].split()[36])


class Probe:
    """The probe process; :meth:`times` asks it for one measurement."""

    def __init__(self) -> None:
        #: The CPUs this process may run on; the probe inherits them.
        self.cpus = sorted(os.sched_getaffinity(0))
        self._process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def times(self) -> Dict[int, float]:
        """Seconds of :func:`reference_s` on each CPU, timed in the probe
        process while the caller waits."""
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        answer = self._process.stdout.readline().split()
        if len(answer) != len(self.cpus):
            raise RuntimeError(f"reference probe answered {answer!r}")
        return dict(zip(self.cpus, map(float, answer)))

    def close(self) -> None:
        """End the probe process and wait for it."""
        self._process.stdin.close()
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def main() -> int:
    cpus = sorted(os.sched_getaffinity(0))
    for _request in sys.stdin:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(repr(reference_s()))
        print(" ".join(times), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
