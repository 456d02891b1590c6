"""Hand-injected protocol bugs that the explorer must catch.

Mutation testing for the *oracle*: each mutation re-introduces a class
of bug the protocol's machinery exists to prevent, and the smoke tests
(``tests/explore/test_mutations.py``) assert that a small bounded
exploration finds a counterexample, that the minimizer shrinks it, and
that the saved trace replays.  A model checker that cannot re-find a
known bug is vacuous — these three keep it honest:

``skip-move``
    ``AddLogRecord`` rewrites ``P(x)``'s seqno in place but does not
    move the record to the tail — the component's seqnos stop
    increasing, so a later tail walk stops early at the out-of-place
    record and the items behind it never ship.  A component is keyed
    by item, so it cannot hold two records for one item (Theorem 2's
    ``n·N`` bound holds by construction); a record out of place is the
    bug its structure can have.  Needs two items and three updates:
    caught structurally (``node-invariants``) once one node updates
    ``x0``, then ``x1``, then ``x0`` again.

``adopt-any``
    ``AcceptPropagation`` adopts *concurrent* incoming copies instead
    of declaring a conflict, installing the join of the two IVVs so all
    vector bookkeeping stays self-consistent — the classic lost-update
    bug, invisible to single-protocol checks because the buggy replicas
    still converge (on the wrong value).  Caught by the differential
    oracle: driven through the same schedule, per-item-vv reports the
    conflict that the mutated DBVV protocol silently swallowed.

``tail-off-by-one``
    ``tail_after`` returns records with ``seqno > threshold + 1``
    instead of ``> threshold`` — each session omits the oldest record
    the recipient is missing.  A single update then never propagates:
    the quiescent closure reaches a fixpoint with divergent replicas
    (``convergence``).

Mutations patch the *class*, so they must be applied via
:func:`apply_mutation` (a context manager that restores the original),
never by importing the replacement directly.  The replacement bodies
intentionally manipulate core internals — that is what the bugs they
model did — so they carry ``lint: skip=R4`` pragmas.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.log_vector import LogComponent
from repro.core.messages import PropagationReply
from repro.core.node import AcceptOutcome, EpidemicNode, IntraNodeOutcome
from repro.core.version_vector import Ordering, merge
from repro.explore.world import ExplorationConfig
from repro.obs import NULL_COUNTERS, OverheadCounters

__all__ = ["MUTATIONS", "Mutation", "apply_mutation"]


def _add_without_move(
    self: LogComponent,
    item: str,
    seqno: int,
    counters: OverheadCounters = NULL_COUNTERS,
) -> None:
    """``LogComponent.add`` minus the move to the tail (the
    ``skip-move`` mutation)."""
    by_item = self._by_item
    for newest in reversed(by_item.values()):
        if seqno <= newest:
            raise ValueError(
                f"log component for origin {self.origin} is at seqno "
                f"{newest}; refusing out-of-order add of ({item!r}, {seqno})"
            )
        break
    if counters is not NULL_COUNTERS:
        counters.log_records_added += 1
        if item in by_item:
            counters.log_records_evicted += 1
    # BUG: the rewritten record keeps its old place in the list, so the
    # seqnos no longer increase from head to tail.
    by_item[item] = seqno


def _accept_adopt_any(
    self: EpidemicNode, reply: PropagationReply
) -> tuple[AcceptOutcome, IntraNodeOutcome]:
    """``AcceptPropagation`` that adopts concurrent copies instead of
    declaring conflicts (the ``adopt-any`` mutation).  The IVV join
    keeps every vector self-consistent, so only a cross-protocol
    comparison can see the swallowed conflict."""
    outcome = AcceptOutcome()
    dropped_items: set[str] = set()
    for payload in reply.items:
        entry = self.store[payload.name]
        ordering = payload.ivv.compare(entry.ivv)
        if ordering is Ordering.DOMINATES or ordering is Ordering.CONCURRENT:
            old_ivv = entry.ivv
            self._install_payload(entry, payload)
            self._digest.mark(entry.name)
            # BUG: a concurrent copy silently wins; joining the IVVs
            # hides the lost update from all vector bookkeeping.
            entry.ivv = merge(payload.ivv, old_ivv)  # lint: skip=R4
            entry.in_conflict = False
            self.dbvv.absorb_item_copy(old_ivv, entry.ivv, self.counters)
            outcome.adopted.append(payload.name)
        else:
            dropped_items.add(payload.name)
            outcome.skipped.append(payload.name)
    for k, tail in enumerate(reply.tails):
        component = self.log[k]
        for item, seqno in tail:
            if item in dropped_items or seqno <= component.max_seqno:
                outcome.records_dropped += 1
                continue
            component.add(item, seqno, self.counters)
            outcome.records_appended += 1
    self._after_accept_installs()
    intra = self.intra_node_propagation(outcome.adopted)
    return outcome, intra


def _tail_after_off_by_one(
    self: LogComponent,
    threshold: int,
    counters: OverheadCounters = NULL_COUNTERS,
) -> list[tuple[str, int]]:
    """``tail_after`` with the comparison shifted by one (the
    ``tail-off-by-one`` mutation): the oldest missing record is never
    shipped."""
    selected = []
    for item, seqno in reversed(self._by_item.items()):
        # BUG: `<= threshold + 1` stops one record early.
        if seqno <= threshold + 1:
            break
        selected.append((item, seqno))
    selected.reverse()
    if counters is not NULL_COUNTERS:
        counters.log_records_examined += len(selected)
    return selected


@dataclass(frozen=True)
class Mutation:
    """One injected bug plus the bounded configuration known to expose
    it (kept small so all three smoke tests fit the CI step budget)."""

    name: str
    summary: str
    target: type
    attr: str
    replacement: Callable[..., object]
    config: ExplorationConfig
    depth: int


_SMALL = dict(
    n_nodes=2,
    items=("x0",),
    max_updates=2,
    max_faults=0,
    max_crashes=0,
    max_oob=0,
    fault_variants=False,
)

MUTATIONS: dict[str, Mutation] = {
    "skip-move": Mutation(
        "skip-move",
        "AddLogRecord rewrites P(x)'s seqno in place without moving the "
        "record to the tail",
        LogComponent,
        "add",
        _add_without_move,
        ExplorationConfig(
            protocol="dbvv", **{**_SMALL, "items": ("x0", "x1"), "max_updates": 3}
        ),
        depth=3,
    ),
    "adopt-any": Mutation(
        "adopt-any",
        "AcceptPropagation adopts concurrent copies instead of declaring "
        "conflicts",
        EpidemicNode,
        "accept_propagation",
        _accept_adopt_any,
        ExplorationConfig(
            protocol="dbvv", differential=("per-item-vv",), **_SMALL
        ),
        depth=3,
    ),
    "tail-off-by-one": Mutation(
        "tail-off-by-one",
        "tail_after ships records with seqno > threshold + 1 (oldest "
        "missing record omitted)",
        LogComponent,
        "tail_after",
        _tail_after_off_by_one,
        ExplorationConfig(protocol="dbvv", **{**_SMALL, "max_updates": 1}),
        depth=2,
    ),
}


@contextmanager
def apply_mutation(name: str) -> Iterator[Mutation]:
    """Install the named mutation for the duration of the ``with``
    block, restoring the original method afterwards even on error."""
    try:
        mutation = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r}; known: {', '.join(sorted(MUTATIONS))}"
        ) from None
    original = getattr(mutation.target, mutation.attr)
    setattr(mutation.target, mutation.attr, mutation.replacement)
    try:
        yield mutation
    finally:
        setattr(mutation.target, mutation.attr, original)
