"""Reading other processes from outside: CPU time, run-queue wait, RSS.

Nothing under ``src/`` is instrumented; the cost of a node is what the
kernel charged its process.  ``cpu_ns`` reads the *process CPU clock* of
another pid through ``clock_gettime`` (the clock id
``clock_getcpuclockid(3)`` would return): exact to the nanosecond, up to
date even for a task that is running, and it keeps counting threads that
have already exited.  Where that clock is refused the fallback is
``/proc/<pid>/stat`` utime+stime at tick granularity.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

__all__ = ["cpu_ns", "user_sys_ticks", "sched_wait_ns", "peak_rss_mib", "cpu_plan"]

_CPUCLOCK_SCHED = 2
_TICK_NS = 1_000_000_000 // os.sysconf("SC_CLK_TCK")


def user_sys_ticks(pid: int) -> tuple[int, int]:
    """``(utime, stime)`` of the whole process in clock ticks."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2 :].split()
    return int(fields[11]), int(fields[12])


def cpu_ns(pid: int) -> int:
    """CPU nanoseconds the process (all threads, living or not) has used."""
    try:
        return time.clock_gettime_ns((~pid << 3) | _CPUCLOCK_SCHED)
    except OSError:
        return sum(user_sys_ticks(pid)) * _TICK_NS


def sched_wait_ns(pid: int) -> int:
    """Nanoseconds the process's threads spent runnable but waiting for a
    CPU (second field of ``schedstat``); 0 where the kernel has none."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[1])
        except (OSError, IndexError, ValueError):
            continue
    return total


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` — the process's peak resident set, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_plan(n_nodes: int) -> tuple[list[int], int]:
    """(CPU of each node, CPU of the harness): node *i* on the *i*-th
    allowed CPU modulo the number allowed, the harness on the last."""
    allowed = sorted(os.sched_getaffinity(0))
    return [allowed[i % len(allowed)] for i in range(n_nodes)], allowed[-1]
