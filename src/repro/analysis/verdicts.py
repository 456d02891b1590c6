"""Automated paper-claim verdicts.

Glue between the experiment harness and the paper's claims: each
function takes an experiment's rows, reads the law of the relevant
series, and returns a verdict object stating whether the measured
shape matches the paper's claim.  EXPERIMENTS.md's summary line — "all
eight claims reproduce" — is backed by these, and the test suite
asserts them, so a regression that bends a curve fails loudly with the
measured law in the message.

E1/E2 measure ``work``, a sum of deterministic counters, so their law
is read exactly (:func:`exact_law`): one extra unit of work at one size
reads ``not affine``.  E7's rounds are means over seeds, so E7 keeps a
least-squares fit (:func:`verdict_e7`).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.experiments.e1_identical_detection import E1Row
from repro.experiments.e2_propagation_cost import E2Row
from repro.experiments.e7_convergence import E7Row

__all__ = [
    "ClaimVerdict",
    "exact_law",
    "verdict_e1",
    "verdict_e2_n",
    "verdict_e2_m",
    "verdict_e7",
]


@dataclass(frozen=True)
class ClaimVerdict:
    """One protocol's measured scaling law vs the paper's expectation."""

    claim: str
    protocol: str
    expected: str
    measured: str
    evidence: str

    @property
    def matches(self) -> bool:
        return self.measured == self.expected

    def describe(self) -> str:
        status = "MATCHES" if self.matches else "DIVERGES FROM"
        return (
            f"{self.claim}: {self.protocol} measured {self.measured} "
            f"({self.evidence}) — {status} the paper's {self.expected} claim"
        )


def exact_law(xs: Sequence[int], ys: Sequence[int], x: str = "x") -> tuple[str, str]:
    """The law of an exactly measured series, and the evidence for it.

    The consecutive slopes are compared as fractions: all zero is
    ``constant``; all equal and positive is ``linear``, reported as
    ``a·x + b``; anything else is ``not affine``, reported with the
    slopes found.  Fewer than three points raise ``ValueError``:
    two points are always affine, so they prove nothing.
    """
    if len(xs) < 3:
        raise ValueError(f"need at least 3 points to read a law, got {len(xs)}")
    slopes = [
        Fraction(y1 - y0, x1 - x0)
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])
    ]
    a = slopes[0]
    if a < 0 or any(slope != a for slope in slopes):
        return "not affine", "slopes " + ", ".join(map(str, slopes))
    if a == 0:
        return "constant", f"{ys[0]} at every {x}"
    b = ys[0] - a * xs[0]
    return "linear", f"{a}·{x} {'-' if b < 0 else '+'} {abs(b)}"


def _series(rows, x_attr, y_attr):
    pairs = sorted((getattr(row, x_attr), getattr(row, y_attr)) for row in rows)
    xs = [x for x, _y in pairs]
    ys = [y for _x, y in pairs]
    return xs, ys


def _exact_verdict(claim, protocol, expected, rows, x_attr, x) -> ClaimVerdict:
    xs, ys = _series(
        [row for row in rows if row.protocol == protocol], x_attr, "work"
    )
    return ClaimVerdict(claim, protocol, expected, *exact_law(xs, ys, x))


def verdict_e1(rows: list[E1Row], protocol: str) -> ClaimVerdict:
    """E1: dbvv's identical-replica session is constant in N; the
    per-item and Lotus baselines are linear."""
    expected = "constant" if protocol in ("dbvv", "wuu-bernstein") else "linear"
    return _exact_verdict(
        "E1 identical-replica detection vs N", protocol, expected,
        rows, "n_items", "N",
    )


def verdict_e2_n(rows: list[E2Row], protocol: str) -> ClaimVerdict:
    """E2a: propagation cost vs database size at fixed m."""
    expected = "constant" if protocol in ("dbvv", "wuu-bernstein") else "linear"
    return _exact_verdict(
        "E2a propagation cost vs N (fixed m)", protocol, expected,
        rows, "n_items", "N",
    )


def verdict_e2_m(rows: list[E2Row], protocol: str) -> ClaimVerdict:
    """E2b: dbvv's cost grows linearly in m (the useful work)."""
    return _exact_verdict(
        "E2b propagation cost vs m (fixed N)", protocol, "linear",
        rows, "m_updated", "m",
    )


def verdict_e7(rows: list[E7Row], selector: str) -> ClaimVerdict:
    """E7: epidemic rounds grow ~log n for random pull, linearly for
    the ring.  The rounds are means over seeds, so the law is the
    better least-squares fit of ``a·log n + b`` and ``a·n + b``, by r²."""
    expected = "logarithmic" if selector == "random" else "linear"
    ns, rounds = _series(
        [row for row in rows if row.selector == selector], "n_nodes", "mean_rounds"
    )
    r2_log = statistics.correlation([math.log(n) for n in ns], rounds) ** 2
    r2_linear = statistics.correlation(ns, rounds) ** 2
    return ClaimVerdict(
        f"E7 rounds to convergence vs n ({selector})", selector, expected,
        "logarithmic" if r2_log >= r2_linear else "linear",
        f"r² {r2_log:.3f} for log n vs {r2_linear:.3f} for n",
    )
