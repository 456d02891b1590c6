"""Unit tests for the trust-boundary validators (repro.core.validate).

Two properties matter, and both are pinned here:

1. **Honest traffic passes.**  Everything the real protocol produces —
   requests, replies, session answers, WAL records — validates, so the
   validators can sit on the hot path without ever firing in a clean
   run.
2. **Dishonest values raise.**  Every documented check fires on a
   minimally-mutated variant, at its exact boundary where one exists.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core.messages import (
    ItemPayload,
    OutOfBoundReply,
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.node import EpidemicNode
from repro.core.session import PullSession, respond
from repro.core.validate import (
    MAX_ITEM_NAME_LEN,
    MAX_SEQNO_GAP,
    MAX_VALUE_LEN,
    MAX_VV_COMPONENT,
    validate_item_name,
    validate_node_id,
    validate_oob_reply,
    validate_propagation_reply,
    validate_propagation_request,
    validate_session_answer,
    validate_value,
    validate_version_vector,
    _validate_payload,
)
from repro.core.version_vector import VersionVector
from repro.durable.records import (
    WalAccept,
    WalResolve,
    WalUpdate,
    validate_record,
)
from repro.errors import ReplicationError, ValidationError
from repro.substrate.operations import Put
from tests.node_state import node_state

ITEMS = ["a", "b"]


def make_pair():
    return EpidemicNode(0, 2, ITEMS), EpidemicNode(1, 2, ITEMS)


def honest_reply(recipient, source):
    source.update("a", Put(b"fresh"))
    answer = respond(source, PullSession(recipient).request())
    assert isinstance(answer, PropagationReply)
    return answer


class TestScalarValidators:
    def test_node_id_bounds(self):
        assert validate_node_id(0, 3) == 0
        assert validate_node_id(2, 3) == 2
        for bad in (-1, 3, True, "1", None):
            with pytest.raises(ValidationError):
                validate_node_id(bad, 3)

    def test_item_name_boundary(self):
        assert validate_item_name("a") == "a"
        edge = "x" * MAX_ITEM_NAME_LEN
        assert validate_item_name(edge) is edge
        with pytest.raises(ValidationError):
            validate_item_name("x" * (MAX_ITEM_NAME_LEN + 1))
        with pytest.raises(ValidationError):
            validate_item_name(b"bytes-not-str")

    def test_value_boundary(self):
        assert validate_value(b"") == b""
        edge = bytes(MAX_VALUE_LEN)
        assert validate_value(edge) is edge
        with pytest.raises(ValidationError):
            validate_value(bytes(MAX_VALUE_LEN + 1))
        with pytest.raises(ValidationError):
            validate_value("str-not-bytes")

    def test_version_vector_shape_and_budget(self):
        vv = VersionVector.from_counts((1, MAX_VV_COMPONENT))
        assert validate_version_vector(vv, 2) is vv
        with pytest.raises(ValidationError):
            validate_version_vector(vv, 3)  # wrong replica-set size
        with pytest.raises(ValidationError):
            validate_version_vector((1, 2), 2)  # not a VersionVector
        over = VersionVector.from_counts((0, MAX_VV_COMPONENT + 1))
        with pytest.raises(ValidationError):
            validate_version_vector(over, 2)

    def test_validation_error_is_a_replication_error(self):
        # Client error paths catch ReplicationError; a validator firing
        # must land there, not escape as an unclassified exception.
        assert issubclass(ValidationError, ReplicationError)
        assert issubclass(ValidationError, ValueError)


class TestPropagationRequest:
    def test_honest_request_passes(self):
        recipient, source = make_pair()
        request = PullSession(recipient).request()
        assert validate_propagation_request(request, source) is request

    def test_wrong_type_rejected(self):
        _, source = make_pair()
        with pytest.raises(ValidationError):
            validate_propagation_request({"recipient": 0}, source)

    def test_recipient_outside_replica_set(self):
        recipient, source = make_pair()
        request = PullSession(recipient).request()
        forged = dataclasses.replace(request, recipient=7)
        with pytest.raises(ValidationError):
            validate_propagation_request(forged, source)

    def test_wrong_size_dbvv(self):
        recipient, source = make_pair()
        request = PullSession(recipient).request()
        forged = dataclasses.replace(
            request, dbvv=VersionVector.from_counts((0, 0, 0))
        )
        with pytest.raises(ValidationError):
            validate_propagation_request(forged, source)


class TestPropagationReply:
    def test_honest_reply_passes(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        assert validate_propagation_reply(reply, recipient) is reply

    def test_source_outside_replica_set(self):
        recipient, source = make_pair()
        forged = dataclasses.replace(honest_reply(recipient, source), source=9)
        with pytest.raises(ValidationError):
            validate_propagation_reply(forged, recipient)

    def test_tail_vector_arity_must_match_replica_set(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        forged = dataclasses.replace(reply, tails=reply.tails[:1])
        with pytest.raises(ValidationError):
            validate_propagation_reply(forged, recipient)

    def test_tail_naming_unknown_item(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        forged = dataclasses.replace(reply, tails=(((("zz", 1)),), ()))
        with pytest.raises(ValidationError):
            validate_propagation_reply(forged, recipient)

    def test_tail_seqnos_must_strictly_increase(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        forged = dataclasses.replace(
            reply, tails=((("a", 2), ("a", 2)), ())
        )
        with pytest.raises(ValidationError):
            validate_propagation_reply(forged, recipient)

    def test_tail_seqno_gap_budget_boundary(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        # recipient.dbvv[0] == 0, so the ceiling is exactly MAX_SEQNO_GAP.
        at_cap = dataclasses.replace(
            reply, tails=((("a", MAX_SEQNO_GAP),), ())
        )
        assert validate_propagation_reply(at_cap, recipient) is at_cap
        past = dataclasses.replace(
            reply, tails=((("a", MAX_SEQNO_GAP + 1),), ())
        )
        with pytest.raises(ValidationError):
            validate_propagation_reply(past, recipient)

    def test_payload_naming_unknown_item(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        rogue = ItemPayload("zz", b"x", VersionVector.from_counts((0, 1)))
        forged = dataclasses.replace(reply, items=reply.items + (rogue,))
        with pytest.raises(ValidationError):
            validate_propagation_reply(forged, recipient)

    def test_payload_ivv_sized_to_wrong_replica_set(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        rogue = ItemPayload("b", b"x", VersionVector.from_counts((0, 1, 5)))
        forged = dataclasses.replace(reply, items=reply.items + (rogue,))
        with pytest.raises(ValidationError):
            validate_propagation_reply(forged, recipient)


    # -- S is a set, and D names exactly S (paper Fig. 2) ---------------------

    def test_item_shipped_twice_rejected(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        forged = dataclasses.replace(reply, items=reply.items * 2)
        with pytest.raises(ValidationError, match="ships item 'a' more than once"):
            validate_propagation_reply(forged, recipient)

    def test_payload_without_tail_record_rejected(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        forged = dataclasses.replace(reply, tails=((), ()))
        with pytest.raises(ValidationError, match="item 'a' in only one of"):
            validate_propagation_reply(forged, recipient)

    def test_tail_record_without_payload_rejected(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        forged = dataclasses.replace(reply, items=())
        with pytest.raises(ValidationError, match="item 'a' in only one of"):
            validate_propagation_reply(forged, recipient)

    def test_a_refused_reply_leaves_the_node_untouched(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        before = node_state(recipient)
        for forged in (
            dataclasses.replace(reply, items=reply.items * 2),
            dataclasses.replace(reply, tails=((), ())),
        ):
            with pytest.raises(ValidationError):
                PullSession(recipient).conclude(forged)
            assert node_state(recipient) == before
        assert PullSession(recipient).conclude(reply).adopted == ("a",)

    def test_what_the_set_check_prevents(self):
        """Adopted unchecked, the duplicate leaves a replica that passes
        its invariants and can never hand the item on: the second copy
        is skipped as equal and drops the item's log record with it."""
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        forged = dataclasses.replace(reply, items=reply.items * 2)
        outcome, _ = recipient.accept_propagation(forged)
        assert outcome.adopted == ["a"] and outcome.records_appended == 0
        recipient.check_invariants()
        third = EpidemicNode(1, 2, ITEMS)
        answer = respond(recipient, PullSession(third).request())
        assert isinstance(answer, PropagationReply) and answer.items == ()


def _item_payload_cases():
    """``case -> (name, value, ivv, passes)`` for a recipient of
    ``make_pair()``: each check of the payload validator, at its
    boundary where it has one."""
    ok = VersionVector.from_counts((0, 1))
    return {
        "honest": ("a", b"x", ok, True),
        "name-not-str": (7, b"x", ok, False),
        "name-none": (None, b"x", ok, False),
        "name-unhashable": (["a"], b"x", ok, False),
        "name-at-cap-but-unknown": ("n" * MAX_ITEM_NAME_LEN, b"x", ok, False),
        "name-past-cap": ("n" * (MAX_ITEM_NAME_LEN + 1), b"x", ok, False),
        "name-unknown": ("zz", b"x", ok, False),
        "ivv-not-a-vector": ("a", b"x", (0, 1), False),
        "ivv-none": ("a", b"x", None, False),
        "ivv-short": ("a", b"x", VersionVector.from_counts((1,)), False),
        "ivv-long": ("a", b"x", VersionVector.from_counts((0, 1, 5)), False),
        "ivv-at-cap": (
            "a", b"x", VersionVector.from_counts((0, MAX_VV_COMPONENT)), True
        ),
        "ivv-past-cap": (
            "a", b"x", VersionVector.from_counts((0, MAX_VV_COMPONENT + 1)), False
        ),
        "value-not-bytes": ("a", "text", ok, False),
        "value-bytearray": ("a", bytearray(b"x"), ok, False),
        "value-none": ("a", None, ok, True),
    }


class TestTypedPayloadPass:
    """``_validate_payload`` checks an ``ItemPayload`` on its slots with
    inline tests; the duck-typed body (what any other payload class
    takes, and what every payload took before) is the reference: same
    verdict, same exception type, same message, case by case."""

    @pytest.mark.parametrize("case", sorted(_item_payload_cases()))
    def test_same_verdict_and_message_as_the_duck_typed_body(self, case):
        name, value, ivv, passes = _item_payload_cases()[case]
        recipient, _ = make_pair()

        def verdict(payload):
            try:
                _validate_payload(payload, recipient)
            except ValidationError as exc:
                return str(exc)
            return None

        typed = verdict(ItemPayload(name, value, ivv))
        duck = verdict(SimpleNamespace(name=name, value=value, ivv=ivv))
        assert typed == duck
        assert (typed is None) == passes


class TestSessionAnswer:
    """The transport's half: answer type and claimed source.  The body
    is :func:`validate_propagation_reply`'s, run by the session."""

    def test_you_are_current_source_must_match_peer(self):
        answer = YouAreCurrent(1)
        assert validate_session_answer(answer, 1) is answer
        with pytest.raises(ValidationError):
            validate_session_answer(answer, 0)

    def test_reply_source_must_match_peer(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        assert validate_session_answer(reply, 1) is reply
        with pytest.raises(ValidationError):
            validate_session_answer(reply, 0)

    def test_junk_answer_rejected(self):
        with pytest.raises(ValidationError):
            validate_session_answer(b"not-a-message", 1)

    def test_the_body_is_the_sessions_to_check(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        forged = dataclasses.replace(reply, tails=reply.tails[:1])
        assert validate_session_answer(forged, 1) is forged
        before = node_state(recipient)
        with pytest.raises(ValidationError):
            PullSession(recipient).conclude(forged)
        assert node_state(recipient) == before


class TestOutOfBoundReply:
    def _reply(self, **overrides):
        fields = dict(
            source=1,
            item="a",
            value=b"copy",
            ivv=VersionVector.from_counts((0, 1)),
        )
        fields.update(overrides)
        return OutOfBoundReply(**fields)

    def test_honest_reply_passes(self):
        recipient, _ = make_pair()
        reply = self._reply()
        assert validate_oob_reply(reply, recipient) is reply

    def test_unknown_item_rejected(self):
        recipient, _ = make_pair()
        with pytest.raises(ValidationError):
            validate_oob_reply(self._reply(item="zz"), recipient)

    def test_wrong_size_ivv_rejected(self):
        recipient, _ = make_pair()
        bad = self._reply(ivv=VersionVector.from_counts((0, 1, 2)))
        with pytest.raises(ValidationError):
            validate_oob_reply(bad, recipient)

    def test_source_outside_replica_set(self):
        recipient, _ = make_pair()
        with pytest.raises(ValidationError):
            validate_oob_reply(self._reply(source=5), recipient)


class TestWalRecordValidation:
    def test_honest_records_pass(self):
        recipient, source = make_pair()
        reply = honest_reply(recipient, source)
        node = recipient
        for record in (
            WalUpdate("a", Put(b"v")),
            WalAccept(reply),
            WalResolve("b", b"winner", node.conflict_lineage("b")),
        ):
            assert validate_record(record, node) is record

    def test_update_for_unknown_item_rejected(self):
        node, _ = make_pair()
        with pytest.raises(ValidationError):
            validate_record(WalUpdate("zz", Put(b"v")), node)

    def test_update_with_non_operation_rejected(self):
        node, _ = make_pair()
        with pytest.raises(ValidationError):
            validate_record(WalUpdate("a", b"raw-bytes"), node)

    def test_resolve_for_unknown_item_rejected(self):
        node, _ = make_pair()
        with pytest.raises(ValidationError):
            validate_record(
                WalResolve("zz", b"v", VersionVector(node.n_nodes)), node
            )

    @pytest.mark.parametrize(
        "counts",
        [(0,), (0, 0, 0), (0, MAX_VV_COMPONENT + 1)],
        ids=["narrow", "wide", "past-cap"],
    )
    def test_resolve_with_forged_lineage_rejected(self, counts):
        node, _ = make_pair()
        forged = WalResolve("b", b"v", VersionVector.from_counts(counts))
        with pytest.raises(ValidationError, match="resolve record lineage"):
            validate_record(forged, node)

    def test_accept_with_forged_reply_rejected(self):
        recipient, source = make_pair()
        forged = dataclasses.replace(honest_reply(recipient, source), source=9)
        with pytest.raises(ValidationError):
            validate_record(WalAccept(forged), recipient)

    def test_unknown_record_type_rejected(self):
        node, _ = make_pair()
        with pytest.raises(ValidationError):
            validate_record(object(), node)
