"""The state oracle tests compare nodes with.

:func:`node_state` reads a node's whole protocol state through the
public node API — the DBVV, every item's value, IVV, conflict flag and
auxiliary copy, the log vector and the auxiliary log — into one nested
tuple.  Two nodes are the same replica exactly when their tuples are
equal, and ``assert node_state(a) == node_state(b)`` makes pytest print
the differing field.

It deliberately shares no code with the checkpoint codec: a recovery
test that compared checkpoint bytes with checkpoint bytes would pass an
encoder that dropped a field.  The conflict reporter's history and the
counters are telemetry, not protocol state, and are left out.
"""

from repro.core.node import EpidemicNode


def _vector(vv):
    return None if vv is None else vv.as_tuple()


def node_state(node: EpidemicNode) -> tuple:
    """``node``'s protocol state as a comparable tuple."""
    items = tuple(
        (
            entry.name,
            entry.value,
            entry.ivv.as_tuple(),
            entry.in_conflict,
            entry.aux_value,
            _vector(entry.aux_ivv),
        )
        for entry in node.store
    )
    log = tuple(tuple(node.log[origin].pairs()) for origin in range(node.n_nodes))
    aux_log = tuple(
        (record.item, record.pre_ivv.as_tuple(), record.op) for record in node.aux_log
    )
    return (node.node_id, node.n_nodes, node.dbvv.as_tuple(), items, log, aux_log)
