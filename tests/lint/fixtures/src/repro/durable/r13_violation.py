"""R13 violation, durable scope: checkpoint bytes are disk state, like
WAL bytes, and reach the restore path without the snapshot validator."""

from repro.durable.checkpoint import decode_checkpoint, rebuild_node


def restore_unvalidated(data, node_class):
    lsn, snapshot = decode_checkpoint(data)
    return lsn, rebuild_node(snapshot, node_class)
