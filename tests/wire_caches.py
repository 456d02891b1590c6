"""How many vector streams a :class:`~repro.wire.WireCodec` has cached.

The codec's delta caches are private state; the invalidation tests
count them from outside through these two probes.
"""

from repro.wire import WireCodec


def cache_size(codec: WireCodec) -> int:
    """Cached vector streams on every link, both directions."""
    return sum(map(len, codec._sent.values())) + sum(map(len, codec._seen.values()))


def link_cache_size(codec: WireCodec, src: int, dst: int) -> int:
    """Cached vector streams on the directed link ``src -> dst``, sender
    and receiver sides combined."""
    return len(codec._sent.get((src, dst), {})) + len(codec._seen.get((src, dst), {}))
