"""Unit tests for AcceptPropagation (paper Figure 3)."""

import copy

from repro.core.conflicts import ConflictSite
from repro.core.messages import PropagationReply, YouAreCurrent
from repro.core.node import EpidemicNode
from repro.core.version_vector import Ordering
from repro.substrate.operations import Put

ITEMS = [f"item-{k}" for k in range(10)]


def make_pair(n_nodes=2):
    return (
        EpidemicNode(0, n_nodes, ITEMS),
        EpidemicNode(1, n_nodes, ITEMS),
    )


class TestAdoption:
    def test_dominating_copies_are_adopted(self):
        a, b = make_pair()
        b.update("item-1", Put(b"v1"))
        outcome, _ = a.pull_from(b)
        assert outcome.adopted == ["item-1"]
        assert a.read("item-1") == b"v1"
        assert a.store["item-1"].ivv == b.store["item-1"].ivv

    def test_dbvv_updated_per_rule_3(self):
        a, b = make_pair()
        b.update("item-1", Put(b"v1"))
        b.update("item-1", Put(b"v2"))
        b.update("item-2", Put(b"v3"))
        a.pull_from(b)
        assert a.dbvv.as_tuple() == (0, 3)

    def test_gap_detection_sees_the_dbvv_after_the_sessions_adoptions(self):
        """Rule 3 lands once per session, before the tails are walked:
        a record is a gap only against the DBVV *with* this session's
        adoptions absorbed."""
        a, b = make_pair()
        for version in range(3):
            b.update("item-1", Put(b"v%d" % version))
            b.update("item-2", Put(b"w%d" % version))
        outcome, _ = a.pull_from(b)
        assert outcome.records_appended == 2
        assert a.log_gaps == {}
        a.check_invariants()

    def test_a_deepcopied_node_adopts_into_its_own_store(self):
        """``explore.world`` clones nodes with ``copy.deepcopy``.  The
        session's store lookup is fetched per session: a lookup cached
        on the store would keep reading the *original's* items."""
        source, original = make_pair()
        source.update("item-1", Put(b"v1"))
        original.pull_from(source)
        clone = copy.deepcopy(original)
        source.update("item-1", Put(b"v2"))
        source.update("item-2", Put(b"only-later"))
        outcome, _ = clone.pull_from(source)
        assert sorted(outcome.adopted) == ["item-1", "item-2"]
        assert clone.read("item-1") == b"v2"
        assert original.read("item-1") == b"v1" and original.read("item-2") == b""
        assert original.dbvv.as_tuple() == (1, 0)
        # ... and the clone serves from its own store, too.
        third = EpidemicNode(1, 2, ITEMS)
        third.pull_from(clone)
        assert third.read("item-2") == b"only-later"
        original.check_invariants()
        clone.check_invariants()

    def test_log_tails_are_appended(self):
        a, b = make_pair()
        b.update("item-1", Put(b"v1"))
        b.update("item-2", Put(b"v2"))
        outcome, _ = a.pull_from(b)
        assert outcome.records_appended == 2
        assert a.log[1].pairs() == [("item-1", 1), ("item-2", 2)]

    def test_adopted_state_enables_onward_propagation(self):
        """After catching up, the recipient can serve the same updates
        to a third node (forwarding — what Oracle push can't do)."""
        a, b = make_pair(n_nodes=3)
        c = EpidemicNode(2, 3, ITEMS)
        b.update("item-1", Put(b"v1"))
        a.pull_from(b)
        outcome, _ = c.pull_from(a)
        assert outcome.adopted == ["item-1"]
        assert c.read("item-1") == b"v1"

    def test_convergent_dbvvs_after_mutual_pulls(self):
        a, b = make_pair()
        a.update("item-0", Put(b"a"))
        b.update("item-1", Put(b"b"))
        a.pull_from(b)
        b.pull_from(a)
        assert a.dbvv == b.dbvv
        assert a.state_fingerprint() == b.state_fingerprint()

    def test_invariants_hold_after_propagation(self):
        a, b = make_pair()
        for k in range(5):
            b.update(ITEMS[k], Put(f"v{k}".encode()))
        a.pull_from(b)
        a.check_invariants()
        b.check_invariants()


class TestConflictPath:
    def make_conflicting_pair(self):
        a, b = make_pair()
        a.update("item-1", Put(b"from-a"))
        b.update("item-1", Put(b"from-b"))
        return a, b

    def test_concurrent_copies_are_flagged_not_adopted(self):
        a, b = self.make_conflicting_pair()
        outcome, _ = a.pull_from(b)
        assert outcome.conflicted == ["item-1"]
        assert outcome.adopted == []
        assert a.read("item-1") == b"from-a"  # local copy intact (C2)

    def test_conflict_report_carries_both_vectors(self):
        a, b = self.make_conflicting_pair()
        a.pull_from(b)
        (report,) = a.conflicts.reports
        assert report.item == "item-1"
        assert report.site is ConflictSite.ACCEPT_PROPAGATION
        assert report.local_vv == (1, 0)
        assert report.remote_vv == (0, 1)
        assert report.origins == (0, 1)

    def test_conflicting_items_records_stripped_from_tails(self):
        """Records referring to conflicting items are removed from D
        (Fig. 3), so the broken lineage does not enter the local log."""
        a, b = self.make_conflicting_pair()
        b.update("item-2", Put(b"fine"))
        outcome, _ = a.pull_from(b)
        assert outcome.records_dropped == 1
        assert outcome.records_appended == 1
        assert list(a.log[1].keys()) == ["item-2"]

    def test_non_conflicting_items_still_adopted(self):
        a, b = self.make_conflicting_pair()
        b.update("item-2", Put(b"fine"))
        outcome, _ = a.pull_from(b)
        assert outcome.adopted == ["item-2"]
        assert a.read("item-2") == b"fine"

    def test_in_conflict_flag_set(self):
        a, b = self.make_conflicting_pair()
        a.pull_from(b)
        assert a.store["item-1"].in_conflict


class TestResolution:
    """The administrative resolution extension (not in the paper; the
    paper defers resolution to the application)."""

    def test_resolution_dominates_both_lineages(self):
        a, b = make_pair()
        a.update("item-1", Put(b"from-a"))
        b.update("item-1", Put(b"from-b"))
        a.pull_from(b)
        a.resolve_conflict("item-1", b"merged")
        assert a.read("item-1") == b"merged"
        assert not a.store["item-1"].in_conflict
        # Resolved copy dominates both originals, so it propagates.
        assert a.store["item-1"].ivv.compare(b.store["item-1"].ivv) is Ordering.DOMINATES

    def test_resolution_propagates_to_other_replica(self):
        a, b = make_pair()
        a.update("item-1", Put(b"from-a"))
        b.update("item-1", Put(b"from-b"))
        a.pull_from(b)
        a.resolve_conflict("item-1", b"merged")
        outcome, _ = b.pull_from(a)
        assert outcome.adopted == ["item-1"]
        assert b.read("item-1") == b"merged"
        a.check_invariants()

    def test_resolution_keeps_dbvv_consistent(self):
        a, b = make_pair()
        a.update("item-1", Put(b"from-a"))
        b.update("item-1", Put(b"from-b"))
        a.pull_from(b)
        a.resolve_conflict("item-1", b"merged")
        b.pull_from(a)
        a.check_invariants()


class TestDegenerateReplies:
    def test_pull_from_identical_is_noop(self):
        a, b = make_pair()
        outcome, intra = a.pull_from(b)
        assert outcome.adopted == []
        assert intra.replayed == 0

    def test_empty_reply_is_handled(self):
        a, _b = make_pair()
        outcome, _ = a.accept_propagation(
            PropagationReply(source=1, tails=((), ()), items=())
        )
        assert outcome.adopted == []

    def test_you_are_current_message_fields(self):
        _a, b = make_pair()
        msg = YouAreCurrent(b.node_id)
        assert msg.wire_size() > 0
