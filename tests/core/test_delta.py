"""Unit and integration tests for operation-shipping propagation
(paper section 2's second propagation method; repro.core.delta)."""

import pytest

from repro.core.delta import (
    DeltaEpidemicNode,
    DeltaPayload,
    OpChainEntry,
    OpHistory,
)
from repro.core.messages import ItemPayload
from repro.core.node import EpidemicNode
from repro.core.protocol import DBVVProtocolNode, DeltaProtocolNode
from repro.core.version_vector import VersionVector
from repro.cluster.network import SimulatedNetwork
from repro.substrate.operations import Append, BytePatch, Put

ITEMS = [f"item-{k}" for k in range(10)]


def make_pair(history_limit=64):
    return (
        DeltaEpidemicNode(0, 2, ITEMS, history_limit=history_limit),
        DeltaEpidemicNode(1, 2, ITEMS, history_limit=history_limit),
    )


class TestOpHistory:
    def test_records_in_order(self):
        history = OpHistory(2, limit=10)
        history.record(OpChainEntry(0, 1, Put(b"a")))
        history.record(OpChainEntry(0, 2, Append(b"b")))
        chain = history.chain_for(VersionVector.zero(2))
        assert [e.m for e in chain] == [1, 2]

    def test_chain_excludes_known_updates(self):
        history = OpHistory(2, limit=10)
        for m in range(1, 5):
            history.record(OpChainEntry(0, m, Append(b".")))
        chain = history.chain_for(VersionVector.from_counts([2, 0]))
        assert [e.m for e in chain] == [3, 4]

    def test_eviction_raises_floor_and_blocks_stale_recipients(self):
        history = OpHistory(2, limit=2)
        for m in range(1, 5):
            history.record(OpChainEntry(0, m, Append(b".")))
        assert len(history) == 2
        assert history.floor == (2, 0)
        assert not history.covers(VersionVector.from_counts([1, 0]))
        assert history.covers(VersionVector.from_counts([2, 0]))

    def test_forget_through_blocks_everyone_below_bound(self):
        history = OpHistory(2, limit=10)
        history.record(OpChainEntry(0, 1, Put(b"a")))
        history.forget_through(VersionVector.from_counts([5, 3]))
        assert len(history) == 0
        assert not history.covers(VersionVector.from_counts([4, 3]))
        assert history.covers(VersionVector.from_counts([5, 3]))

    def test_zero_limit_always_falls_back(self):
        history = OpHistory(2, limit=0)
        history.record(OpChainEntry(0, 1, Put(b"a")))
        assert len(history) == 0
        assert not history.covers(VersionVector.zero(2))

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            OpHistory(2, limit=-1)


class TestDeltaPropagation:
    def test_fresh_recipient_gets_ops_and_converges(self):
        a, b = make_pair()
        b.update("item-0", Put(b"base"))
        b.update("item-0", Append(b"+1"))
        outcome, _ = a.pull_from(b)
        assert outcome.adopted == ["item-0"]
        assert a.read("item-0") == b"base+1"
        assert a.store["item-0"].ivv == b.store["item-0"].ivv
        a.check_invariants()

    def test_delta_payload_used_when_history_covers(self):
        a, b = make_pair()
        b.update("item-0", Put(b"base"))
        request = a.make_propagation_request()
        reply = b.send_propagation(request)
        (payload,) = reply.items
        assert isinstance(payload, DeltaPayload)

    def test_full_fallback_when_history_evicted(self):
        a, b = make_pair(history_limit=2)
        b.update("item-0", Put(b"base"))
        for k in range(5):
            b.update("item-0", Append(f"+{k}".encode()))
        reply = b.send_propagation(a.make_propagation_request())
        (payload,) = reply.items
        assert isinstance(payload, ItemPayload)
        outcome, _ = a.pull_from(b)
        assert a.read("item-0") == b.read("item-0")

    def test_partial_chain_for_partially_current_recipient(self):
        a, b = make_pair()
        b.update("item-0", Put(b"base"))
        a.pull_from(b)
        b.update("item-0", Append(b"+new"))
        reply = b.send_propagation(a.make_propagation_request())
        (payload,) = reply.items
        assert isinstance(payload, DeltaPayload)
        assert len(payload.ops) == 1
        a.accept_propagation(reply)
        assert a.read("item-0") == b"base+new"

    def test_ops_smaller_than_values_on_wire(self):
        """The point of the mode: small patches on big items ship as
        patches."""
        a, b = make_pair()
        big = b"x" * 10_000
        b.update("item-0", Put(big))
        a.pull_from(b)  # recipient now has the big value
        b.update("item-0", BytePatch(17, b"Y"))
        reply = b.send_propagation(a.make_propagation_request())
        (payload,) = reply.items
        assert isinstance(payload, DeltaPayload)
        assert payload.wire_size() < 200  # vs ~10 KiB for the full copy
        a.accept_propagation(reply)
        assert a.read("item-0") == b.read("item-0")

    def test_adopted_chains_are_forwardable(self):
        """Entries adopted by delta enter the recipient's own history
        with their original origin/m, so they forward onwards."""
        nodes = [DeltaEpidemicNode(k, 3, ITEMS) for k in range(3)]
        nodes[0].update("item-0", Put(b"base"))
        nodes[1].pull_from(nodes[0])
        reply = nodes[1].send_propagation(nodes[2].make_propagation_request())
        (payload,) = reply.items
        assert isinstance(payload, DeltaPayload)
        assert payload.ops[0].origin == 0
        nodes[2].accept_propagation(reply)
        assert nodes[2].read("item-0") == b"base"

    def test_full_adoption_gaps_the_history(self):
        """After adopting a whole value, the node must not serve chains
        spanning the gap — it falls back to full copies."""
        a, b = make_pair(history_limit=2)
        b.update("item-0", Put(b"base"))
        for k in range(5):
            b.update("item-0", Append(f"+{k}".encode()))
        a.pull_from(b)  # forced full copy (history evicted at source)
        c = DeltaEpidemicNode(1, 2, ITEMS)  # fresh replica in a's seat's peer role
        reply = a.send_propagation(c.make_propagation_request())
        (payload,) = reply.items
        assert isinstance(payload, ItemPayload)  # gap forces full

    def test_mixed_full_and_delta_payloads_in_one_reply(self):
        a, b = make_pair(history_limit=2)
        b.update("item-0", Put(b"small"))      # covered by history
        b.update("item-1", Put(b"base"))
        for k in range(5):
            b.update("item-1", Append(b"."))   # evicts item-1's history
        reply = b.send_propagation(a.make_propagation_request())
        kinds = {p.name: type(p).__name__ for p in reply.items}
        assert kinds["item-0"] == "DeltaPayload"
        assert kinds["item-1"] == "ItemPayload"
        a.accept_propagation(reply)
        assert a.state_fingerprint() == b.state_fingerprint()

    def test_conflicts_still_detected(self):
        a, b = make_pair()
        a.update("item-0", Put(b"from-a"))
        b.update("item-0", Put(b"from-b"))
        outcome, _ = a.pull_from(b)
        assert outcome.conflicted == ["item-0"]
        assert a.read("item-0") == b"from-a"

    def test_out_of_bound_and_replay_interoperate(self):
        a, b = make_pair()
        b.update("item-0", Put(b"base"))
        a.copy_out_of_bound("item-0", b)
        a.update("item-0", Append(b"+a"))
        _, intra = a.pull_from(b)
        assert intra.replayed == 1
        assert a.read("item-0") == b"base+a"
        # The replayed update is in a's history and forwards by chain.
        reply = a.send_propagation(b.make_propagation_request())
        (payload,) = reply.items
        assert isinstance(payload, DeltaPayload)
        b.accept_propagation(reply)
        assert b.read("item-0") == b"base+a"

    def test_resolution_gaps_history(self):
        a, b = make_pair()
        a.update("item-0", Put(b"from-a"))
        b.update("item-0", Put(b"from-b"))
        a.pull_from(b)
        a.resolve_conflict("item-0", b"merged")
        # Resolution rewrote the value: chains spanning it are barred.
        reply = a.send_propagation(b.make_propagation_request())
        payload = next(p for p in reply.items if p.name == "item-0")
        assert isinstance(payload, ItemPayload)
        b.accept_propagation(reply)
        assert b.read("item-0") == b"merged"


class TestAdapter:
    def test_delta_cluster_converges(self):
        transport = SimulatedNetwork(3)
        nodes = [DeltaProtocolNode(k, 3, ITEMS) for k in range(3)]
        nodes[0].user_update("item-0", Put(b"v"))
        nodes[1].sync_with(nodes[0], transport)
        nodes[2].sync_with(nodes[1], transport)
        assert nodes[2].read("item-0") == b"v"

    def test_mixed_modes_rejected(self):
        plain = DBVVProtocolNode(0, 2, ITEMS)
        delta = DeltaProtocolNode(1, 2, ITEMS)
        with pytest.raises(TypeError):
            plain.sync_with(delta, SimulatedNetwork(2))
        with pytest.raises(TypeError):
            delta.sync_with(plain, SimulatedNetwork(2))

    def test_protocol_name(self):
        assert DeltaProtocolNode(0, 2, ITEMS).protocol_name == "dbvv-delta"


class TestRandomizedEquivalence:
    def test_delta_and_whole_value_modes_converge_identically(self):
        """Both modes must produce the same replica contents from the
        same conflict-free history — the mode is a transport detail."""
        import random

        rng = random.Random(5)
        plain = [EpidemicNode(k, 3, ITEMS) for k in range(3)]
        delta = [DeltaEpidemicNode(k, 3, ITEMS, history_limit=4) for k in range(3)]
        counter = 0
        for _step in range(120):
            action = rng.random()
            if action < 0.6:
                item_idx = rng.randrange(len(ITEMS))
                node = item_idx % 3
                counter += 1
                op = Append(f"{counter};".encode())
                plain[node].update(ITEMS[item_idx], op)
                delta[node].update(ITEMS[item_idx], op)
            else:
                dst = rng.randrange(3)
                src = (dst + 1 + rng.randrange(2)) % 3
                plain[dst].pull_from(plain[src])
                delta[dst].pull_from(delta[src])
        for _round in range(4):
            for dst in range(3):
                for src in range(3):
                    if dst != src:
                        plain[dst].pull_from(plain[src])
                        delta[dst].pull_from(delta[src])
        for p_node, d_node in zip(plain, delta):
            assert p_node.state_fingerprint() == d_node.state_fingerprint()
            d_node.check_invariants()
