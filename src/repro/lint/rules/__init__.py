"""Rule registry.

Each module under this package implements one rule — except
``r13_r15_taint``, whose three rules read one taint report — and
``ALL_RULES`` is the canonical ordered registry the CLI and the fixture
tests run.  To add a rule: write ``rN_<name>.py`` with a
:class:`~repro.lint.engine.LintRule` subclass (flow-sensitive rules
subclass :class:`~repro.lint.flow.ForwardWalker` rather than walking
statements themselves), add a violating + clean fixture pair under
``tests/lint/fixtures/``, append an instance here, and add a section
to ``docs/DEVELOPING.md`` and a row to its table of what each rule
catches.  Ids R6 and R8 are retired (their checks became a test of the
message classes, ``tests/wire/test_codec.py``); never reuse them.
"""

from __future__ import annotations

from repro.lint.engine import LintRule
from repro.lint.rules.r1_invariant_asserts import InvariantAssertRule
from repro.lint.rules.r2_fault_handling import LostMessageHandlingRule
from repro.lint.rules.r3_determinism import DeterminismRule
from repro.lint.rules.r4_encapsulation import EncapsulationRule
from repro.lint.rules.r5_tautology import TautologicalInvariantRule
from repro.lint.rules.r7_complexity import ComplexityBudgetRule
from repro.lint.rules.r9_blocking_async import BlockingAsyncRule
from repro.lint.rules.r10_await_atomicity import AwaitAtomicityRule
from repro.lint.rules.r11_tracked_tasks import TrackedTasksRule
from repro.lint.rules.r12_cancellation import CancellationSafetyRule
from repro.lint.rules.r13_r15_taint import (
    SwallowedValidationRule,
    TaintedAllocationRule,
    TaintedStateSinkRule,
)
from repro.lint.rules.r16_alloc_reuse import AllocReuseRule

__all__ = ["ALL_RULES", "rules_by_id"]

#: The canonical rule set, in rule-id order.
ALL_RULES: tuple[LintRule, ...] = (
    InvariantAssertRule(),
    LostMessageHandlingRule(),
    DeterminismRule(),
    EncapsulationRule(),
    TautologicalInvariantRule(),
    ComplexityBudgetRule(),
    BlockingAsyncRule(),
    AwaitAtomicityRule(),
    TrackedTasksRule(),
    CancellationSafetyRule(),
    TaintedStateSinkRule(),
    TaintedAllocationRule(),
    SwallowedValidationRule(),
    AllocReuseRule(),
)


def rules_by_id(*ids: str) -> tuple[LintRule, ...]:
    """The subset of :data:`ALL_RULES` with the given ids, in registry
    order; unknown ids raise ``KeyError``."""
    known = {rule.rule_id for rule in ALL_RULES}
    for rule_id in ids:
        if rule_id not in known:
            raise KeyError(rule_id)
    wanted = set(ids)
    return tuple(rule for rule in ALL_RULES if rule.rule_id in wanted)
