"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    InvariantViolation,
    MessageLostError,
    NodeDownError,
    OperationError,
    ReplicaSetMismatchError,
    ReplicationError,
    SimulationError,
    UnknownItemError,
    UnknownNodeError,
    WALError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            UnknownItemError("x"),
            UnknownNodeError(3),
            ReplicaSetMismatchError("mismatch"),
            InvariantViolation("x"),
            WALError("bad record"),
            NodeDownError(2),
            OperationError("bad"),
            SimulationError("bad"),
            MessageLostError(0, 1),
        ],
    )
    def test_everything_derives_from_replication_error(self, exc):
        assert isinstance(exc, ReplicationError)

    def test_unknown_item_is_a_key_error(self):
        """Callers using dict-style access can catch KeyError."""
        assert isinstance(UnknownItemError("x"), KeyError)

    def test_replica_set_mismatch_is_a_value_error(self):
        assert isinstance(ReplicaSetMismatchError("m"), ValueError)

    def test_operation_error_is_a_value_error(self):
        assert isinstance(OperationError("m"), ValueError)


class TestMessages:
    def test_unknown_item_names_the_item(self):
        assert "'doc-7'" in str(UnknownItemError("doc-7"))

    def test_node_down_and_message_lost_carry_endpoints(self):
        assert NodeDownError(3).node == 3
        lost = MessageLostError(1, 4)
        assert (lost.src, lost.dst) == (1, 4)
