"""Reproducible workload generation.

The paper's target regime: "the fraction of data items updated on a
database replica between consecutive update propagations is in general
small" and "relatively few data items are copied out-of-bound"
(section 2).  The generators below produce update streams with exactly
those tunable properties, deterministically from a seed:

* :class:`HotColdWorkload` — a small hot set absorbs most updates (the
  paper's target case: m << N).
* :class:`SingleWriterWorkload` — items statically owned by nodes, so
  histories are conflict-free by construction (matches the paper's
  token-based pessimistic mode without simulating token traffic).
* :class:`ConflictingWorkload` — deliberately concurrent updates to the
  same items from different nodes, to exercise detection paths.

Each generator yields :class:`UpdateEvent` objects; payload bytes encode
(item, per-item sequence) so any two distinct update histories produce
distinct values — convergence checks can't pass by accident.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.substrate.operations import Put, UpdateOperation

__all__ = [
    "UpdateEvent",
    "WorkloadGenerator",
    "HotColdWorkload",
    "SingleWriterWorkload",
    "ConflictingWorkload",
    "ReadEvent",
    "ReadWriteMix",
]


@dataclass(frozen=True)
class UpdateEvent:
    """One user update: which node applies which operation to which item."""

    node: int
    item: str
    op: UpdateOperation


class WorkloadGenerator:
    """Base class: deterministic stream of :class:`UpdateEvent`.

    Subclasses implement :meth:`_pick` (node, item choice); the base
    class handles payload construction and counting.
    """

    def __init__(
        self,
        items: Sequence[str],
        n_nodes: int,
        seed: int = 0,
        value_size: int = 64,
    ):
        if not items:
            raise ValueError("workload needs a non-empty item set")
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if value_size < 0:
            raise ValueError(f"value_size must be non-negative, got {value_size}")
        self.items = list(items)
        self.n_nodes = n_nodes
        self.rng = random.Random(seed)
        self.value_size = value_size
        self._update_counts: dict[str, int] = {}

    def _pick(self) -> tuple[int, str]:
        """Choose (node, item) for the next update."""
        raise NotImplementedError

    def _payload(self, item: str) -> bytes:
        """A value unique to (item, update number): collisions between
        different histories are impossible, so equal fingerprints mean
        equal histories."""
        count = self._update_counts.get(item, 0) + 1
        self._update_counts[item] = count
        base = f"{item}#{count}".encode()
        if len(base) >= self.value_size:
            return base
        return base + b"." * (self.value_size - len(base))

    def events(self, count: int) -> Iterator[UpdateEvent]:
        """Yield the next ``count`` update events."""
        for _ in range(count):
            node, item = self._pick()
            yield UpdateEvent(node, item, Put(self._payload(item)))

    def generate(self, count: int) -> list[UpdateEvent]:
        """The next ``count`` events as a list."""
        return list(self.events(count))


class HotColdWorkload(WorkloadGenerator):
    """``hot_fraction`` of the items receive ``hot_weight`` of the
    updates — the paper's "few frequently updated items" regime."""

    def __init__(
        self,
        items: Sequence[str],
        n_nodes: int,
        seed: int = 0,
        value_size: int = 64,
        hot_fraction: float = 0.05,
        hot_weight: float = 0.95,
    ):
        super().__init__(items, n_nodes, seed, value_size)
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
        if not 0.0 <= hot_weight <= 1.0:
            raise ValueError(f"hot_weight must be in [0, 1], got {hot_weight}")
        n_hot = max(1, round(hot_fraction * len(self.items)))
        self.hot_items = self.items[:n_hot]
        self.cold_items = self.items[n_hot:] or self.hot_items
        self.hot_weight = hot_weight

    def _pick(self) -> tuple[int, str]:
        pool = (
            self.hot_items
            if self.rng.random() < self.hot_weight
            else self.cold_items
        )
        return (
            self.rng.randrange(self.n_nodes),
            pool[self.rng.randrange(len(pool))],
        )


class SingleWriterWorkload(WorkloadGenerator):
    """Each item is updated only by its owner ``hash-assigned`` node —
    conflict-free histories without token machinery."""

    def __init__(
        self,
        items: Sequence[str],
        n_nodes: int,
        seed: int = 0,
        value_size: int = 64,
    ):
        super().__init__(items, n_nodes, seed, value_size)
        self._owner = {
            item: idx % n_nodes for idx, item in enumerate(self.items)
        }

    def owner_of(self, item: str) -> int:
        return self._owner[item]

    def _pick(self) -> tuple[int, str]:
        item = self.items[self.rng.randrange(len(self.items))]
        return (self._owner[item], item)


class ConflictingWorkload(WorkloadGenerator):
    """Every event comes in pairs: two different nodes update the same
    item "concurrently" (before any propagation can interleave) —
    guaranteed conflicts for detection tests.
    """

    def __init__(
        self,
        items: Sequence[str],
        n_nodes: int,
        seed: int = 0,
        value_size: int = 64,
    ):
        if n_nodes < 2:
            raise ValueError("conflicts need at least two nodes")
        super().__init__(items, n_nodes, seed, value_size)

    def conflicting_pairs(self, count: int) -> list[tuple[UpdateEvent, UpdateEvent]]:
        """``count`` pairs of concurrent conflicting updates."""
        pairs = []
        for _ in range(count):
            item = self.items[self.rng.randrange(len(self.items))]
            node_a = self.rng.randrange(self.n_nodes)
            node_b = (node_a + 1 + self.rng.randrange(self.n_nodes - 1)) % self.n_nodes
            pairs.append(
                (
                    UpdateEvent(node_a, item, Put(self._payload(item))),
                    UpdateEvent(node_b, item, Put(self._payload(item))),
                )
            )
        return pairs

    def _pick(self) -> tuple[int, str]:
        raise NotImplementedError(
            "ConflictingWorkload produces pairs; use conflicting_pairs()"
        )


@dataclass(frozen=True)
class ReadEvent:
    """One user read: which node serves which item."""

    node: int
    item: str


@dataclass
class ReadWriteMix:
    """An interleaved stream of reads and single-writer writes.

    ``read_fraction`` of the events are :class:`ReadEvent`; the rest
    are conflict-free :class:`UpdateEvent` (items are hash-owned).
    Session-guarantee and staleness experiments need the read side —
    a read against a lagging replica is what users actually observe.
    """

    items: Sequence[str]
    n_nodes: int
    seed: int = 0
    read_fraction: float = 0.8
    value_size: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}"
            )
        self._writer = SingleWriterWorkload(
            self.items, self.n_nodes, seed=self.seed, value_size=self.value_size
        )
        self.rng = random.Random(self.seed + 1)

    def events(self, count: int):
        """Yield ``count`` mixed events (ReadEvent or UpdateEvent)."""
        for _ in range(count):
            if self.rng.random() < self.read_fraction:
                yield ReadEvent(
                    self.rng.randrange(self.n_nodes),
                    self.items[self.rng.randrange(len(self.items))],
                )
            else:
                yield next(iter(self._writer.events(1)))

    def generate(self, count: int) -> list:
        return list(self.events(count))
