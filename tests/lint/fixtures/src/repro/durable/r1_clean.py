"""R1 clean counterpart: malformed checkpoint input raises, so the
validation survives ``python -O``."""

from repro.durable.checkpoint import SnapshotError


def check_log_counts(per_origin: list[int], n_nodes: int) -> list[int]:
    if len(per_origin) != n_nodes:
        raise SnapshotError("one log count per origin")
    return per_origin
