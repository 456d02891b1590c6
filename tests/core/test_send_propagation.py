"""Unit tests for SendPropagation (paper Figure 2)."""

from repro.core.messages import PropagationReply, YouAreCurrent
from repro.core.node import EpidemicNode
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

ITEMS = [f"item-{k}" for k in range(20)]


def make_pair():
    return EpidemicNode(0, 3, ITEMS), EpidemicNode(1, 3, ITEMS)


class TestYouAreCurrent:
    def test_identical_replicas_answer_you_are_current(self):
        a, b = make_pair()
        answer = b.send_propagation(a.make_propagation_request())
        assert isinstance(answer, YouAreCurrent)
        assert answer.source == 1

    def test_recipient_ahead_answers_you_are_current(self):
        a, b = make_pair()
        a.update("item-0", Put(b"v"))
        answer = b.send_propagation(a.make_propagation_request())
        assert isinstance(answer, YouAreCurrent)

    def test_identical_detection_is_one_vector_comparison(self):
        """The paper's O(1) claim: detecting 'nothing to do' costs one
        DBVV comparison regardless of item count or update history."""
        counters = OverheadCounters()
        a = EpidemicNode(0, 3, ITEMS)
        b = EpidemicNode(1, 3, ITEMS, counters=counters)
        for k in range(10):
            b.update(ITEMS[k], Put(b"v"))
        a.pull_from(b)
        counters.reset()
        answer = b.send_propagation(a.make_propagation_request())
        assert isinstance(answer, YouAreCurrent)
        assert counters.vv_comparisons == 1
        assert counters.items_scanned == 0
        assert counters.log_records_examined == 0


class TestTailVector:
    def test_reply_contains_missing_records_per_origin(self):
        a, b = make_pair()
        b.update("item-1", Put(b"v1"))
        b.update("item-2", Put(b"v2"))
        reply = b.send_propagation(a.make_propagation_request())
        assert isinstance(reply, PropagationReply)
        assert reply.tails[1] == (("item-1", 1), ("item-2", 2))
        assert reply.tails[0] == ()
        assert reply.tails[2] == ()

    def test_tail_excludes_records_recipient_already_has(self):
        a, b = make_pair()
        b.update("item-1", Put(b"v1"))
        a.pull_from(b)
        b.update("item-2", Put(b"v2"))
        reply = b.send_propagation(a.make_propagation_request())
        assert reply.tails[1] == (("item-2", 2),)

    def test_item_set_deduplicates_across_origins(self):
        """An item updated by several origins appears once in S."""
        a = EpidemicNode(0, 3, ITEMS)
        b = EpidemicNode(1, 3, ITEMS)
        c = EpidemicNode(2, 3, ITEMS)
        b.update("item-5", Put(b"from-b"))
        c.pull_from(b)
        c.update("item-5", Put(b"from-c"))
        reply = c.send_propagation(a.make_propagation_request())
        names = [payload.name for payload in reply.items]
        assert names.count("item-5") == 1
        # But both origins' records are in the tails.
        assert reply.tails[1] == (("item-5", 1),)
        assert reply.tails[2] == (("item-5", 1),)

    def test_is_selected_flags_are_restored(self):
        a, b = make_pair()
        b.update("item-3", Put(b"v"))
        b.send_propagation(a.make_propagation_request())
        assert all(not entry.is_selected for entry in b.store)

    def test_payloads_carry_item_ivvs(self):
        a, b = make_pair()
        b.update("item-3", Put(b"v"))
        reply = b.send_propagation(a.make_propagation_request())
        (payload,) = reply.items
        assert payload.name == "item-3"
        assert payload.value == b"v"
        assert payload.ivv.as_tuple() == (0, 1, 0)

    def test_payload_ivv_is_a_snapshot(self):
        """Mutating the source after the reply must not change the
        shipped IVV (messages are values, not views)."""
        a, b = make_pair()
        b.update("item-3", Put(b"v"))
        reply = b.send_propagation(a.make_propagation_request())
        b.update("item-3", Put(b"v2"))
        (payload,) = reply.items
        assert payload.ivv.as_tuple() == (0, 1, 0)


class TestCostModel:
    def test_work_is_linear_in_m_not_n(self):
        """Source-side cost touches only the m selected records/items."""
        counters = OverheadCounters()
        a = EpidemicNode(0, 2, ITEMS)
        b = EpidemicNode(1, 2, ITEMS, counters=counters)
        b.update("item-0", Put(b"v"))
        b.update("item-1", Put(b"v"))
        counters.reset()
        b.send_propagation(a.make_propagation_request())
        assert counters.log_records_examined == 2
        assert counters.items_scanned == 2

    def test_auxiliary_copies_never_ship_in_propagation(self):
        """Only regular copies enter S (paper section 5.1)."""
        a = EpidemicNode(0, 3, ITEMS)
        b = EpidemicNode(1, 3, ITEMS)
        c = EpidemicNode(2, 3, ITEMS)
        c.update("item-0", Put(b"newest"))
        b.copy_out_of_bound("item-0", c)   # b now has a newer AUX copy
        b.update("item-1", Put(b"regular"))
        reply = b.send_propagation(a.make_propagation_request())
        names = {payload.name for payload in reply.items}
        assert names == {"item-1"}
        for payload in reply.items:
            if payload.name == "item-0":
                assert payload.value == b""  # regular copy, not aux
