"""How many vector streams a :class:`~repro.wire.WireCodec` has cached.

The codec's delta caches are private state; tests count them from
outside through this probe.
"""

from repro.wire import WireCodec


def cache_size(codec: WireCodec) -> int:
    """Cached vector streams on every link, both directions."""
    return sum(map(len, codec._sent.values())) + sum(map(len, codec._seen.values()))

