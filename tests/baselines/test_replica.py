"""The replica scaffold the baselines share: the value store, the one
last-writer-wins record, and the LWW stamp rule."""

import pytest

from repro.baselines.replica import LWWRecord
from repro.cluster.network import SimulatedNetwork
from repro.core.messages import WORD_SIZE, string_wire_size
from repro.errors import UnknownItemError
from repro.experiments.common import make_factory
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

BASELINES = ("per-item-vv", "lotus", "oracle-push", "wuu-bernstein", "agrawal-malpani")


def pair(protocol, items):
    factory = make_factory(protocol, 2, items)
    return factory(0, OverheadCounters()), factory(1, OverheadCounters())


def test_record_size_is_the_named_value_plus_its_stamp():
    record = LWWRecord("item-7", b"value", 3, 1)
    assert record.wire_size() == 2 * WORD_SIZE + string_wire_size("item-7") + 5


@pytest.mark.parametrize("protocol", BASELINES)
def test_unknown_item_is_refused(protocol):
    a, _ = pair(protocol, ["x"])
    with pytest.raises(UnknownItemError):
        a.read("nope")
    with pytest.raises(UnknownItemError):
        a.user_update("nope", Put(b"v"))


@pytest.mark.parametrize("protocol", ["oracle-push", "wuu-bernstein"])
def test_write_after_adopting_a_higher_stamp_wins(protocol):
    """b writes x five times and a adopts (5, b); a's next write must be
    stamped past it, or a keeps its value while b rejects the record and
    the replicas diverge forever."""
    a, b = pair(protocol, ["x"])
    net = SimulatedNetwork(2)
    for k in range(5):
        b.user_update("x", Put(f"b{k}".encode()))
    b.sync_with(a, net)
    a.sync_with(b, net)
    assert a.read("x") == b"b4"
    a.user_update("x", Put(b"a-later"))
    assert a.read("x") == b"a-later"
    for _ in range(4):
        a.sync_with(b, net)
        b.sync_with(a, net)
    assert b.read("x") == b"a-later"
    assert a.state_digest() == b.state_digest()
