"""The lazy content digest: marked on write, folded on read.

Every read of ``EpidemicNode.content_digest`` must equal
:meth:`~repro.interfaces.ContentDigest.recompute` over the store at
that moment, while the write path hashes nothing.  The second half is the point:
a process that never reads the digest (every ``repro.net`` node; pinned
there by ``tests/net/test_node.py::TestWritePathNeverHashes``) never
calls ``value_digest``.
"""

from hypothesis import example, given, settings, strategies as st

import repro.interfaces
from repro.core.node import EpidemicNode
from repro.durable.checkpoint import encode_checkpoint, load_node
from repro.errors import OperationError
from repro.interfaces import ContentDigest
from repro.substrate.operations import Append, BytePatch, CounterAdd, Put, Truncate

N_NODES = 3
ITEMS = [f"item-{k}" for k in range(4)]


def recomputed(node):
    return ContentDigest.recompute((entry.name, entry.value) for entry in node.store)


def spy_on_value_digest(monkeypatch):
    """Route the digest's only hashing call through a list of its args."""
    calls = []
    inner = repro.interfaces.value_digest

    def spy(item, value):
        calls.append((item, value))
        return inner(item, value)

    monkeypatch.setattr(repro.interfaces, "value_digest", spy)
    return calls


node_ids = st.integers(min_value=0, max_value=N_NODES - 1)
item_ids = st.integers(min_value=0, max_value=len(ITEMS) - 1)
small_bytes = st.binary(max_size=6)
operations = st.one_of(
    st.builds(Put, small_bytes),
    st.builds(Append, small_bytes),
    st.builds(BytePatch, st.integers(min_value=0, max_value=4), small_bytes),
    st.builds(Truncate, st.integers(min_value=0, max_value=4)),
    st.builds(CounterAdd, st.integers(min_value=-3, max_value=3)),
)
steps = st.one_of(
    st.tuples(st.just("update"), node_ids, item_ids, operations),
    st.tuples(st.just("pull"), node_ids, node_ids),
    st.tuples(st.just("oob"), node_ids, node_ids, item_ids),
    st.tuples(st.just("resolve"), node_ids, item_ids, small_bytes),
    st.tuples(st.just("restore"), node_ids),
    st.tuples(st.just("read"), node_ids),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(steps, max_size=40))
@example(  # a refused update of an auxiliary copy used to stay in its log
    program=[
        ("resolve", 0, 3, b""),
        ("oob", 2, 0, 3),
        ("update", 2, 3, Truncate(1)),
        ("pull", 2, 0),
    ]
)
def test_every_read_equals_a_recomputation_over_the_store(program):
    """Any writer, any item: conflicts, out-of-bound copies replayed by
    a later pull, resolutions, empty values and snapshot round trips are
    all reachable.  Reads happen at random points, so items are folded
    after zero, one or many writes."""
    nodes = [EpidemicNode(k, N_NODES, ITEMS) for k in range(N_NODES)]
    for step in program:
        kind, who = step[0], step[1]
        if kind == "update":
            try:
                nodes[who].update(ITEMS[step[2]], step[3])
            except OperationError:
                pass  # e.g. a patch beyond the value's end: nothing written
        elif kind == "pull" and who != step[2]:
            nodes[who].pull_from(nodes[step[2]])
        elif kind == "oob" and who != step[2]:
            nodes[who].copy_out_of_bound(ITEMS[step[3]], nodes[step[2]])
        elif kind == "resolve":
            nodes[who].resolve_conflict(ITEMS[step[2]], step[3])
        elif kind == "restore":
            _lsn, nodes[who] = load_node(bytes(encode_checkpoint(0, nodes[who])))
        elif kind == "read":
            token = nodes[who].content_digest
            assert token == recomputed(nodes[who])
            assert nodes[who].content_digest == token
    # Whatever was or was not read on the way, the final answer is the
    # store's: a read never changes a later read.
    for node in nodes:
        assert node.content_digest == recomputed(node)


def test_writes_hash_nothing_and_a_read_hashes_each_dirty_item_once(monkeypatch):
    calls = spy_on_value_digest(monkeypatch)
    source = EpidemicNode(0, 2, ITEMS)
    node = EpidemicNode(1, 2, ITEMS)
    for name in ITEMS[1:]:
        source.update(name, Put(b"from-source:" + name.encode()))
    source.update(ITEMS[3], Truncate(0))  # shipped, adopted, and empty
    for k in range(25):
        node.update(ITEMS[0], Append(b"%d;" % k))
    outcome, _intra = node.pull_from(source)
    assert sorted(outcome.adopted) == ITEMS[1:]
    assert calls == []

    token = node.content_digest
    # Once per distinct non-empty dirty item, however often it was written.
    assert sorted(item for item, _value in calls) == ITEMS[:3]
    assert token == recomputed(node)

    del calls[:]
    assert node.content_digest == token
    assert calls == []

    node.update(ITEMS[0], Put(b""))
    assert calls == []
    emptied = node.content_digest
    assert calls == []  # an emptied item is subtracted, not hashed
    assert emptied == recomputed(node) != token


def test_restore_marks_instead_of_hashing(monkeypatch):
    node = EpidemicNode(0, 2, ITEMS)
    node.update(ITEMS[0], Put(b"kept"))
    node.update(ITEMS[1], Put(b"also kept"))
    before = node.content_digest
    calls = spy_on_value_digest(monkeypatch)
    _lsn, restored = load_node(bytes(encode_checkpoint(0, node)))
    assert calls == []
    assert restored.content_digest == before
    assert sorted(item for item, _value in calls) == ITEMS[:2]
