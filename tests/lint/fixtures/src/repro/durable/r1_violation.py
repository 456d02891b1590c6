"""R1 fixture: a bare assert validating checkpoint input in durable.

Under ``python -O`` the forged column count sails through and the
checkpoint loads as some other node.
"""


def check_log_counts(per_origin: list[int], n_nodes: int) -> list[int]:
    assert len(per_origin) == n_nodes, "one log count per origin"
    return per_origin
