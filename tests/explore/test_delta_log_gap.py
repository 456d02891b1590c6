"""Pinned: a ``dbvv-delta`` op chain cut at a gapped DBVV count leaves a hole.

Both schedules are fault free, at n = 3 over items ``x0`` and ``x1``.
A replica that adopted a copy whose origin seqno ran ahead of its DBVV
records a log gap; a third replica imports that DBVV count, and a later
pull cuts the op chain at the count, so the chain starts past an op the
recipient never received.  The quiescent closure's session ``2<-1``
then raises ``DeltaChainError`` on every retry (criterion C3 fails).
Whole-value ``dbvv`` closes both schedules cleanly.

The two ``xfail(strict=True)`` tests record the open bug: they start
passing, and so fail the suite, once op shipping is fixed — then drop
the marks.  The six-step schedule is the shortest known; the
eight-step one also defeats a request that sends the gapped
components' chains from 0 (see ROADMAP item 20).
"""

import pytest

from repro.explore import (
    ExplorationConfig,
    InvariantOracle,
    Originate,
    StartSession,
)
from repro.explore.minimize import replay_schedule

SIX_STEPS = (
    Originate(2, "x0"),
    StartSession(1, 2),
    Originate(1, "x0"),
    Originate(1, "x0"),
    Originate(0, "x0"),
    Originate(1, "x1"),
)

EIGHT_STEPS = (
    Originate(1, "x1"),
    StartSession(2, 1),
    Originate(0, "x1"),
    Originate(1, "x1"),
    Originate(1, "x0"),
    StartSession(0, 1),
    Originate(0, "x0"),
    Originate(1, "x1"),
)

SCHEDULES = pytest.mark.parametrize(
    "schedule",
    [SIX_STEPS, EIGHT_STEPS],
    ids=["six-steps", "eight-steps"],
)


def config(protocol, schedule):
    return ExplorationConfig(
        protocol=protocol,
        n_nodes=3,
        items=("x0", "x1"),
        max_updates=sum(isinstance(a, Originate) for a in schedule),
        max_faults=0,
        max_crashes=0,
        max_oob=0,
        fault_variants=False,
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 20: the closure's pull 2<-1 raises DeltaChainError",
)
@SCHEDULES
def test_op_shipping_closes_the_schedule(schedule):
    violation, consumed = replay_schedule(
        config("dbvv-delta", schedule), schedule, InvariantOracle()
    )
    if violation is not None:
        described = violation.describe()
        pinned = (
            consumed == len(schedule)
            and violation.check == "closure-crash"
            and "session 2<-1" in described
            and "DeltaChainError" in described
        )
        if not pinned:  # a different failure is a new bug: fail for real
            pytest.fail(f"not the pinned chain hole: {described}")
    assert violation is None, violation.describe()


@SCHEDULES
def test_whole_value_mode_closes_the_schedule(schedule):
    violation, consumed = replay_schedule(
        config("dbvv", schedule), schedule, InvariantOracle()
    )
    assert consumed == len(schedule)
    assert violation is None, violation.describe()
