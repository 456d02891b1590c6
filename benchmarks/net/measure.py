"""Snapshots and the normalisation arithmetic (M2).

A :class:`Snapshot` is what the harness can see from outside at one
instant: the wall clock, every node's process CPU clock, and every
speedometer's counters.  Between two snapshots::

    factor(cpu, kind) = rate(cpu, kind) / NOMINAL[kind]
    cost_us = sum over nodes( d cpu_ns(node) * factor(cpu of node, kind) ) / 1000

``kind`` says which speedometer kernel has the metric's instruction mix:
``"compute"`` for per-op and per-item costs, ``"session"`` for the cost of
a session that carries nothing.  The CPU deltas and the rate window may
differ (a burst pull is a few ms of CPU inside a phase-long rate window).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median, quantiles

from benchmarks.net.procs import cpu_ns
from benchmarks.net.speedometer import (
    NOMINAL_COMPUTE,
    NOMINAL_SESSION,
    SpeedSample,
    Speedometer,
)

__all__ = ["Snapshot", "Meter", "speed_factors", "nominal_us", "summarize"]


@dataclass(frozen=True)
class Snapshot:
    wall_ns: int
    cpu_ns: tuple[int, ...]
    speed: dict[int, SpeedSample]

    def cpu_since(self, earlier: "Snapshot") -> tuple[int, ...]:
        return tuple(now - then for now, then in zip(self.cpu_ns, earlier.cpu_ns))

    def wall_s_since(self, earlier: "Snapshot") -> float:
        return (self.wall_ns - earlier.wall_ns) / 1e9


class Meter:
    """Takes snapshots of a set of node pids and the speedometers."""

    def __init__(self, speedometers: dict[int, Speedometer], node_cpus: list[int]) -> None:
        self.speedometers = speedometers
        self.node_cpus = node_cpus
        self.pids: list[int] = []

    def snapshot(self) -> Snapshot:
        return Snapshot(
            wall_ns=time.perf_counter_ns(),
            cpu_ns=tuple(cpu_ns(pid) for pid in self.pids),
            speed={cpu: s.sample() for cpu, s in self.speedometers.items()},
        )


def speed_factors(before: Snapshot, after: Snapshot, kind: str) -> dict[int, float]:
    """Per CPU: how many nominal ns one CPU ns was worth in the window."""
    factors: dict[int, float] = {}
    for cpu, sample in after.speed.items():
        if kind == "compute":
            factors[cpu] = sample.compute_rate_since(before.speed[cpu]) / NOMINAL_COMPUTE
        elif kind == "session":
            factors[cpu] = sample.session_rate_since(before.speed[cpu]) / NOMINAL_SESSION
        else:
            raise ValueError(f"unknown speedometer kernel {kind!r}")
    return factors


def nominal_us(
    cpu_ns_by_node: dict[int, int], factors: dict[int, float], node_cpus: list[int]
) -> float:
    return sum(ns * factors[node_cpus[node]] for node, ns in cpu_ns_by_node.items()) / 1000.0


def summarize(values: list[float]) -> tuple[float, float, float, int]:
    """``(median, first quartile, third quartile, n)``."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q1, q3, len(values)
