"""R13 clean twin, durable scope: the decoded snapshot is validated
before it rebuilds a node."""

from repro.durable.checkpoint import decode_checkpoint, rebuild_node, validate_snapshot


def restore(data, node_class):
    lsn, snapshot = decode_checkpoint(data)
    snapshot = validate_snapshot(snapshot)
    return lsn, rebuild_node(snapshot, node_class)
