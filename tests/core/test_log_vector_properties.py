"""Property-based tests for the log component (DESIGN.md invariant 3).

A log component fed any stream of (item, increasing-seqno) adds must
always hold at most one record per item, in increasing seqno order —
and its tails must name exactly the
items whose *latest* update exceeds the threshold.
"""

from hypothesis import given, strategies as st

from repro.core.log_vector import LogComponent

item_names = st.sampled_from([f"item-{k}" for k in range(8)])


@st.composite
def add_streams(draw):
    """A list of (item, seqno) with strictly increasing seqnos."""
    items = draw(st.lists(item_names, min_size=0, max_size=60))
    seqnos = sorted(
        draw(
            st.sets(
                st.integers(min_value=1, max_value=10_000),
                min_size=len(items),
                max_size=len(items),
            )
        )
    )
    return list(zip(items, seqnos))


@given(add_streams())
def test_structural_invariants_always_hold(stream):
    log = LogComponent(origin=0)
    for item, seqno in stream:
        log.add(item, seqno)
    log.check_invariants()


@given(add_streams())
def test_one_record_per_item_with_latest_seqno(stream):
    log = LogComponent(origin=0)
    latest: dict[str, int] = {}
    for item, seqno in stream:
        log.add(item, seqno)
        latest[item] = seqno
    assert dict(log.pairs()) == latest
    assert len(log) == len(latest)


@given(add_streams(), st.integers(min_value=0, max_value=10_000))
def test_tail_matches_brute_force(stream, threshold):
    """tail_after(t) == the retained records with seqno > t, in order."""
    log = LogComponent(origin=0)
    latest: dict[str, int] = {}
    for item, seqno in stream:
        log.add(item, seqno)
        latest[item] = seqno
    expected = sorted(
        ((s, i) for i, s in latest.items() if s > threshold)
    )
    tail = [(seqno, item) for item, seqno in log.tail_after(threshold)]
    assert tail == expected


@given(add_streams())
def test_tails_cover_exactly_items_updated_after_threshold(stream):
    """Sufficiency (DESIGN.md invariant 4, single-origin case): for any
    threshold, the tail names every item whose latest update is above
    it, and nothing else."""
    log = LogComponent(origin=0)
    latest: dict[str, int] = {}
    for item, seqno in stream:
        log.add(item, seqno)
        latest[item] = seqno
    if not stream:
        return
    for threshold in {0, stream[len(stream) // 2][1], stream[-1][1]}:
        tail_items = {item for item, _seqno in log.tail_after(threshold)}
        expected = {i for i, s in latest.items() if s > threshold}
        assert tail_items == expected


@given(add_streams(), st.sets(item_names, max_size=4))
def test_discard_then_invariants(stream, to_discard):
    log = LogComponent(origin=0)
    for item, seqno in stream:
        log.add(item, seqno)
    for item in to_discard:
        log.discard_item(item)
    log.check_invariants()
    remaining = set(log.keys())
    assert remaining.isdisjoint(to_discard)
