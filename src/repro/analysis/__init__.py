"""Analysis: automated paper-claim verdicts.

:mod:`~repro.analysis.verdicts` reads the law of each experiment's
measured series — exactly for E1/E2's deterministic work counters, by
a least-squares fit for E7's seed-averaged rounds — and states whether
the shape matches the paper's claim.
"""

from repro.analysis.verdicts import (
    ClaimVerdict,
    exact_law,
    verdict_e1,
    verdict_e2_m,
    verdict_e2_n,
    verdict_e7,
)

__all__ = [
    "ClaimVerdict",
    "exact_law",
    "verdict_e1",
    "verdict_e2_m",
    "verdict_e2_n",
    "verdict_e7",
]
