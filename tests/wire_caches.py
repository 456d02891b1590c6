"""How many vectors a :class:`~repro.wire.WireCodec` has cached.

The codec's cached request DBVVs are private state; tests count them
from outside through this probe.
"""

from repro.wire import WireCodec


def cache_size(codec: WireCodec) -> int:
    """Cached request DBVVs, sent and seen: 0, 1 or 2."""
    return (codec._sent is not None) + (codec._seen is not None)
