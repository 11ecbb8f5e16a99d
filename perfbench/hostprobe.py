"""Host-speed probe: times a fixed piece of work on a period, forever.

    python3 perfbench/hostprobe.py OUT.txt

Appends one line per sample to OUT.txt: the ``time.monotonic()`` stamp
at which the sample started and the CPU time, in ms, this thread spent
on the fixed work. The work never changes, so on a shared host whose
speed drifts from second to second, the samples taken while a step ran
say how fast the host was during that step (see ``common.HostSpeed``).
It shares the one CPU the benchmark is pinned to, so it sees the same
neighbours as the program; it reads CPU time, not wall time, so the
program's own use of that CPU does not read as a slow host. Runs until
it is terminated or its parent exits.
"""

import os
import sys
import time

import numpy as np

#: Seconds between samples; the work itself takes about 1 ms.
PERIOD_S = 0.05

_VECTOR = np.arange(64, dtype=float)


def work() -> float:
    """Fixed interpreter and small-array work, like the program's mix."""
    total = 0
    for i in range(10_000):
        total += i * i
    for _ in range(30):
        total += float(_VECTOR.mean() + _VECTOR.var())
    return total


def main(path: str) -> None:
    # The lowest priority that still gets samples while the program keeps
    # the CPU busy: the probe rarely preempts a request.
    os.nice(19)
    parent = os.getppid()
    with open(path, "a", encoding="utf-8") as out:
        # Ends with its parent too, if that is killed before it stops us.
        while os.getppid() == parent:
            stamp_s = time.monotonic()
            started_s = time.thread_time()
            work()
            cpu_ms = (time.thread_time() - started_s) * 1e3
            out.write(f"{stamp_s:.6f} {cpu_ms:.6f}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
