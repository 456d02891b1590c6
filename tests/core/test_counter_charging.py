"""Overhead counters are charged per call, not per element.

Two halves: a real :class:`~repro.obs.OverheadCounters` sees exactly
the totals it always saw (the snapshot below was produced by the commit
before the change, which charged one attribute write per payload, tail
record and log add), and the null sink sees a number of attribute
writes that does not depend on how many items a session ships — none at
all from ``update``.
"""

import pytest

from repro.core.node import EpidemicNode
from repro.obs import NULL_COUNTERS, OverheadCounters
from repro.substrate.operations import Append, Put

ITEMS = ["w", "x", "y", "z"]


def test_a_real_sink_sees_the_totals_it_always_saw():
    sinks = [OverheadCounters() for _ in range(3)]
    a, b, c = (EpidemicNode(k, 3, ITEMS, counters=sinks[k]) for k in range(3))
    a.update("x", Put(b"x1"))
    a.update("y", Put(b"y1"))
    a.update("x", Put(b"x2"))  # evicts (x, 1) from L_a[a]
    b.update("x", Put(b"b's x"))  # concurrent with a's x
    b.pull_from(a)  # x conflicts (its records are dropped), y is adopted
    c.pull_from(a)  # adopts x and y; the tails for origins b and c are empty
    c.pull_from(a)  # YouAreCurrent
    a.update("z", Put(b"z1"))
    a.update("y", Put(b"y2"))
    c.copy_out_of_bound("z", a)  # auxiliary copy at c
    c.update("z", Append(b"+c"))  # lands on the auxiliary copy
    c.pull_from(a)  # adopts y (evicting (y, 2) from L_c[a]) and z, replays c's append
    b.resolve_conflict("x", b"merged")
    c.pull_from(b)  # the resolved x
    a.pull_from(c)
    assert [
        {name: count for name, count in sink.snapshot().items() if count}
        for sink in sinks
    ] == [
        {
            "items_copied": 2,
            "items_scanned": 6,
            "log_records_added": 7,
            "log_records_evicted": 2,
            "log_records_examined": 8,
            "vv_comparisons": 6,
            "vv_components_touched": 24,
        },
        {
            "conflicts_detected": 1,
            "items_copied": 1,
            "items_scanned": 1,
            "log_records_added": 3,
            "log_records_evicted": 1,
            "log_records_examined": 3,
            "vv_comparisons": 3,
            "vv_components_touched": 15,
        },
        {
            "aux_records_replayed": 1,
            "items_copied": 5,
            "items_scanned": 2,
            "log_records_added": 6,
            "log_records_evicted": 1,
            "log_records_examined": 7,
            "vv_comparisons": 9,
            "vv_components_touched": 36,
        },
    ]


class _RecordingNullCounters(type(NULL_COUNTERS)):
    """The null sink, counting the attribute writes it swallows."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if self.__dict__.get("_sealed"):
            self.__dict__["writes"] = self.__dict__.get("writes", 0) + 1


@pytest.fixture()
def null_sink(monkeypatch):
    """A recording sink standing in as *the* null sink of the three
    core modules that compare against it."""
    sink = _RecordingNullCounters()
    sink.__dict__["writes"] = 0
    for module in ("node", "log_vector", "dbvv"):
        monkeypatch.setattr(f"repro.core.{module}.NULL_COUNTERS", sink)
    return sink


def _session_writes(sink, m):
    """Attribute writes the null sink sees at each end of one pull of
    ``m`` items."""
    items = [f"item-{k:03d}" for k in range(m)]
    source = EpidemicNode(0, 2, items, counters=sink)
    recipient = EpidemicNode(1, 2, items, counters=sink)
    for name in items:
        source.update(name, Put(b"v1"))
        source.update(name, Put(b"v2"))  # an evicting add per item
    assert sink.writes == 0  # update() charges the null sink nothing
    reply = source.send_propagation(recipient.make_propagation_request())
    sent = sink.writes
    outcome, _intra = recipient.accept_propagation(reply)
    assert len(outcome.adopted) == m
    return sent, sink.writes - sent


def test_the_null_sink_sees_a_constant_number_of_writes_per_session(null_sink):
    one = _session_writes(null_sink, 1)
    null_sink.__dict__["writes"] = 0
    many = _session_writes(null_sink, 256)
    assert one == many
    assert 0 < one[0] <= 4 and 0 < one[1] <= 6
    assert null_sink.vv_comparisons == 0  # still a null sink
