"""R4 fixture: driver code mutating core protocol state directly."""


def corrupt_vector(node):
    node.dbvv.increment(0)


def absorb_outside_core(node, replaced, installed):
    node.dbvv.absorb_item_copies(replaced, installed)


def corrupt_log(node):
    node.log.add(0, "x", 1)


def replace_ivv(entry, vv):
    entry.ivv = vv


def poke_internals(node):
    return node.log._by_item


def restore_beside_rebuild_node(node, snapshot):
    # persistence.rebuild_node is the one sanctioned restore writer
    node.dbvv.merge_from(snapshot.dbvv)
