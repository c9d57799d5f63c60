"""The host-speed probe, alone in a module that imports only :mod:`os` and
:mod:`time`,
so a fresh interpreter can run it around the imports it times without
importing anything those imports would.
"""

from __future__ import annotations

import os
import time

#: Seconds one host-speed probe runs.
PROBE_S = 0.02
#: Probe rounds per second on the reference host, the speed every
#: end-to-end time is scaled to (roughly a 2-vCPU Intel Xeon virtual
#: machine in one of its fast stretches).
REFERENCE_PROBE_RATE = 4000.0


def probe_cpus(cpus: list[int]) -> float:
    """The mean of :func:`probe` run on each of ``cpus`` in turn: the speed
    of the whole host for work spread over processes, since on a shared
    host each CPU switches between fast and slow stretches on its own."""
    saved = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append(probe())
    finally:
        os.sched_setaffinity(0, saved)
    return sum(speeds) / len(speeds)


def probe() -> float:
    """The host's speed now, as a factor of the reference host's speed.

    On a shared host the same code runs up to twice as fast in one stretch
    of tens of seconds as in the next, which no number of windows inside a
    run averages away.  The probe is a fixed pure-Python loop that uses none
    of the program's code: a wall time multiplied by the factor measured
    around it is the time the work would have taken on the reference host,
    and no change to the program moves the factor.
    """
    table: dict[int, int] = {}
    clock = time.perf_counter
    begin = clock()
    rounds = 0
    while True:
        for i in range(2000):
            table[i & 255] = table.get(i & 255, 0) + i
        rounds += 1
        elapsed = clock() - begin
        if elapsed >= PROBE_S:
            return rounds / elapsed / REFERENCE_PROBE_RATE
