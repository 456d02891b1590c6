"""Regression tests for imported log gaps (frozen-DBVV contagion).

A conflict freezes DBVV accounting on the replica that declares it:
the conflicting adoption is dropped, so later log records legitimately
run ahead of the DBVV there.  But the overhang does not stay put — any
replica that pulls from the frozen one imports the gapped records
along with perfectly clean adoptions, ending up with a log component
ahead of its DBVV while being conflict-free itself.

``check_invariants`` used to exempt only replicas with *local*
conflict evidence, so a clean third party tripped the log-seqno bound
(``log component k claims seqno m but DBVV[k] is only v``) on
histories it handled correctly.  The fix records every imported gap at
its single creation site (``accept_propagation``) and enforces the
bound against ``max(dbvv[k], gap bound)`` on every replica — which
also *tightens* the check on frozen replicas, previously exempt
entirely.
"""

import pytest

from repro.core.node import EpidemicNode
from repro.durable.checkpoint import encode_checkpoint, load_node
from repro.errors import InvariantViolation
from repro.substrate.operations import Put

ITEMS = ["alpha", "gamma"]


def has_open_log_gaps(n):
    """True while some recorded gap's log component still runs ahead
    of the DBVV (the gap has not healed yet)."""
    return any(n.log[k].max_seqno > n.dbvv[k] for k in n.log_gaps)


def build_contagion_triple():
    """Three replicas: A is the update source, B freezes on a conflict
    with A, and C — which never sees any conflict — imports B's gap.

    Returns ``(a, b, c)`` right after C's contaminating pull.
    """
    a = EpidemicNode(0, 3, ITEMS)
    b = EpidemicNode(1, 3, ITEMS)
    c = EpidemicNode(2, 3, ITEMS)

    a.update("alpha", Put(b"a1"))        # origin-0 seqno 1
    b.pull_from(a)                       # B reflects alpha@1
    a.update("alpha", Put(b"a2"))        # seqno 2
    a.update("gamma", Put(b"g1"))        # seqno 3
    b.update("alpha", Put(b"b1"))        # B forks alpha -> conflict brews

    # B pulls A: alpha is CONCURRENT (conflict declared, adoption and
    # records dropped), gamma is adopted — but gamma's record carries
    # seqno 3 while B's DBVV only accounts alpha@1 + gamma@3 = 2
    # origin-0 updates.  B is frozen, so it was always exempt.
    outcome, _ = b.pull_from(a)
    assert outcome.conflicted == ["alpha"]
    assert b.conflicts.count == 1

    # C pulls B: adopts B's alpha lineage and gamma — both dominating,
    # zero conflicts — yet imports the gapped record (gamma, 3).
    outcome, _ = c.pull_from(b)
    assert outcome.conflicted == []
    assert c.conflicts.count == 0
    return a, b, c


class TestGapContagion:
    def test_clean_third_party_passes_invariants(self):
        """The regression: C holds no conflict evidence at all but its
        origin-0 log runs ahead of its DBVV; this used to raise."""
        _, _, c = build_contagion_triple()
        assert not any(entry.in_conflict for entry in c.store)
        assert c.log[0].max_seqno == 3
        assert c.dbvv[0] == 2
        c.check_invariants()
        assert c.log_gaps == {0: 3}
        assert has_open_log_gaps(c)

    def test_frozen_replica_records_its_own_gap(self):
        _, b, _ = build_contagion_triple()
        b.check_invariants()
        assert b.log_gaps == {0: 3}
        assert has_open_log_gaps(b)

    def test_gapless_source_stays_tight(self):
        a, _, _ = build_contagion_triple()
        a.check_invariants()
        assert a.log_gaps == {}
        assert not has_open_log_gaps(a)

    def test_bound_is_enforced_beyond_the_recorded_gap(self):
        """The tightened check: even a frozen replica may not grow a
        log component past both the DBVV and the recorded gap bound —
        previously any conflict anywhere disabled the check entirely."""
        _, b, c = build_contagion_triple()
        b.log.add(0, "alpha", 99)
        with pytest.raises(InvariantViolation):
            b.check_invariants()
        c.log.add(0, "alpha", 99)
        with pytest.raises(InvariantViolation):
            c.check_invariants()

    def test_resolution_heals_the_gap_transitively(self):
        """Resolving the conflict at B advances the DBVV past the gap;
        C heals by pulling the resolved (dominating) copy."""
        _, b, c = build_contagion_triple()
        b.resolve_conflict("alpha", b"merged")
        assert not has_open_log_gaps(b)
        b.check_invariants()

        outcome, _ = c.pull_from(b)
        assert outcome.adopted == ["alpha"]
        assert c.read("alpha") == b"merged"
        assert not has_open_log_gaps(c)
        c.check_invariants()

    def test_gaps_survive_crash_and_restore(self):
        """``log_gaps`` is derived state: a restored snapshot of a
        clean-but-gapped replica must not trip the invariant checker."""
        _, _, c = build_contagion_triple()
        _lsn, restored = load_node(bytes(encode_checkpoint(0, c)))
        restored.check_invariants()
        assert restored.log_gaps == {0: 3}
        assert has_open_log_gaps(restored)
