"""E5 — failure during propagation: push-without-forwarding versus
epidemic anti-entropy (paper section 8.2).

The scenario the paper describes: a node originates updates, starts
distributing them, and crashes after reaching only some of its peers.

* Under **Oracle-style deferred push**, "since no forwarding is
  performed, this situation may last for a long time, until the server
  that originated the update is repaired" — the peers that got the data
  cannot help the peers that didn't, and nothing in the protocol even
  notices the gap.

* Under the **DBVV protocol**, the survivors' periodic DBVV comparisons
  detect the difference immediately and the new data is forwarded from
  the peers that have it — staleness ends after a few epidemic rounds,
  decoupled from the originator's repair time.

Both arms run the same script: ``u`` updates at node 0; node 0 reaches
exactly ``reached`` peers before crashing; then one synchronization
round per time step among the survivors; node 0 is repaired at round
``repair_round`` and rejoins.  The ground-truth tracker samples
staleness after every round; the headline number is the round at which
the *survivors* all became current.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.baselines.oracle import OraclePushNode
from repro.cluster.convergence import GroundTruth
from repro.cluster.failures import (
    CrashAfterPartialPush,
    CrashMidSession,
    FailurePlan,
    Recover,
)
from repro.cluster.network import SimulatedNetwork
from repro.cluster.scheduler import RandomSelector
from repro.cluster.simulation import ClusterSimulation
from repro.core.protocol import DBVVProtocolNode
from repro.experiments.common import make_factory, make_items
from repro.interfaces import ProtocolNode
from repro.metrics.reporting import Table
from repro.metrics.staleness import StalenessSummary, summarize_staleness
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

__all__ = [
    "E5Result",
    "run_oracle_arm",
    "run_dbvv_arm",
    "run_interrupted_dbvv_arm",
    "run_interrupted_oracle_arm",
    "run",
    "run_interrupted",
    "report",
    "main",
]

DEFAULT_NODES = 6
DEFAULT_ITEMS = 50
DEFAULT_UPDATES = 10
DEFAULT_REACHED = 2
DEFAULT_REPAIR_ROUND = 25
DEFAULT_MAX_ROUNDS = 40
#: Attempts per session in the interrupted arms, first try included.
DEFAULT_RETRY_ATTEMPTS = 3


@dataclass(frozen=True)
class E5Result:
    """Outcome of one arm of the failure experiment."""

    protocol: str
    survivors_current_round: int | None   # None = never within the window
    all_current_round: int | None         # includes the repaired originator
    repair_round: int
    staleness: StalenessSummary
    stale_series: tuple[int, ...] = ()    # stale pairs per round, for plots


def _seed_updates(
    node0, truth: GroundTruth, items: list[str], updates: int
) -> None:
    for idx, item in enumerate(items[:updates]):
        op = Put(f"{item}:crashed-batch-{idx}".encode())
        node0.user_update(item, op)
        truth.apply(item, op)


def _track_rounds(
    protocol: str,
    truth: GroundTruth,
    nodes: list[ProtocolNode],
    repair_round: int,
    max_rounds: int,
    run_round: Callable[[int], None],
) -> E5Result:
    """Run ``run_round(round_no)`` for every round and sample staleness
    after each; the headline is the round at which the survivors (every
    node but the originator, node 0) all became current."""
    survivors = nodes[1:]
    survivors_current: int | None = None
    all_current: int | None = None
    for round_no in range(1, max_rounds + 1):
        run_round(round_no)
        truth.observe(float(round_no), nodes)
        if survivors_current is None and truth.stale_pairs(survivors) == 0:
            survivors_current = round_no
        if all_current is None and truth.fully_current(nodes):
            all_current = round_no
    return E5Result(
        protocol=protocol,
        survivors_current_round=survivors_current,
        all_current_round=all_current,
        repair_round=repair_round,
        staleness=summarize_staleness(truth.samples),
        stale_series=tuple(sample.stale_pairs for sample in truth.samples),
    )


def run_oracle_arm(
    n_nodes: int = DEFAULT_NODES,
    n_items: int = DEFAULT_ITEMS,
    updates: int = DEFAULT_UPDATES,
    reached: int = DEFAULT_REACHED,
    repair_round: int = DEFAULT_REPAIR_ROUND,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> E5Result:
    """Deferred push: originator crashes mid-push, survivors can't help."""
    items = make_items(n_items)
    counters = [OverheadCounters() for _ in range(n_nodes)]
    network = SimulatedNetwork(n_nodes, items, counters=OverheadCounters())
    nodes = [
        OraclePushNode(k, n_nodes, items, counters=counters[k])
        for k in range(n_nodes)
    ]
    truth = GroundTruth(tuple(items))
    _seed_updates(nodes[0], truth, items, updates)

    # The fatal push round: node 0 reaches `reached` peers, then dies.
    crash = CrashAfterPartialPush(node=0, after_peers=reached)
    nodes[0].push_to_all(nodes, network, partial_crash=crash)
    assert crash.fired, "originator should have crashed mid-push"

    def push_round(round_no: int) -> None:
        if round_no == repair_round:
            network.set_up(0)
            # A repaired Oracle server resumes its interrupted push.
            nodes[0].push_to_all(nodes, network)
        # Every live node performs its periodic push round.
        for node in nodes:
            if network.is_up(node.node_id):
                node.push_to_all(nodes, network)

    return _track_rounds(
        "oracle-push", truth, list(nodes), repair_round, max_rounds, push_round
    )


def run_dbvv_arm(
    n_nodes: int = DEFAULT_NODES,
    n_items: int = DEFAULT_ITEMS,
    updates: int = DEFAULT_UPDATES,
    reached: int = DEFAULT_REACHED,
    repair_round: int = DEFAULT_REPAIR_ROUND,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    seed: int = 11,
) -> E5Result:
    """Epidemic anti-entropy: survivors forward around the failure."""
    items = make_items(n_items)
    counters = [OverheadCounters() for _ in range(n_nodes)]
    network = SimulatedNetwork(n_nodes, items, counters=OverheadCounters())
    nodes = [
        DBVVProtocolNode(k, n_nodes, items, counters=counters[k])
        for k in range(n_nodes)
    ]
    truth = GroundTruth(tuple(items))
    _seed_updates(nodes[0], truth, items, updates)

    # Partial distribution: exactly `reached` peers pull before the crash.
    for peer in range(1, reached + 1):
        nodes[peer].sync_with(nodes[0], network)
    network.set_down(0)

    selector = RandomSelector()
    rng = random.Random(seed)

    def pull_round(round_no: int) -> None:
        if round_no == repair_round:
            network.set_up(0)
        for node_id in range(n_nodes):
            if not network.is_up(node_id):
                continue
            peer = selector.peer_for(node_id, n_nodes, round_no, rng)
            nodes[node_id].sync_with(nodes[peer], network)

    return _track_rounds(
        "dbvv", truth, list(nodes), repair_round, max_rounds, pull_round
    )


def _run_interrupted(
    protocol: str,
    factory,
    presync,
    n_nodes: int,
    n_items: int,
    updates: int,
    reached: int,
    repair_round: int,
    max_rounds: int,
    seed: int,
    retry_attempts: int,
) -> E5Result:
    """Shared driver for the interrupted-session arms.

    The scripted failure is finer-grained than the classic arms': the
    originator is taken down *between two messages of a session* during
    round 1 (:class:`CrashMidSession`), so one session dies half-done —
    its traffic is wasted, and the simulation's retry layer (if enabled)
    re-attempts it, falling back to an alternate peer since the original
    endpoint is now dead.
    """
    items = make_items(n_items)
    plan = FailurePlan([
        CrashMidSession(node=0, at_round=1, after_messages=1),
        Recover(node=0, at_round=repair_round),
    ])
    sim = ClusterSimulation(
        factory=factory,
        n_nodes=n_nodes,
        items=items,
        failure_plan=plan,
        retry_attempts=retry_attempts,
        seed=seed,
    )
    for idx, item in enumerate(items[:updates]):
        sim.apply_update(0, item, Put(f"{item}:crashed-batch-{idx}".encode()))
    # Partial distribution before the fatal round, as in the classic
    # arms: `reached` peers already hold the new data.
    presync(sim, reached)
    return _track_rounds(
        protocol, sim.ground_truth, sim.nodes, repair_round, max_rounds,
        lambda _round_no: sim.run_round(),
    )


def run_interrupted_dbvv_arm(
    n_nodes: int = DEFAULT_NODES,
    n_items: int = DEFAULT_ITEMS,
    updates: int = DEFAULT_UPDATES,
    reached: int = DEFAULT_REACHED,
    repair_round: int = DEFAULT_REPAIR_ROUND,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    seed: int = 11,
    retry_attempts: int = DEFAULT_RETRY_ATTEMPTS,
) -> E5Result:
    """DBVV with a mid-session crash: the session that dies half-way is
    retried (alternate peer — the originator is dead), and the survivors
    that already pulled the data forward it epidemically, so everyone
    alive re-converges long before the originator is repaired."""
    factory = make_factory("dbvv", n_nodes, make_items(n_items))

    def presync(sim: ClusterSimulation, n_reached: int) -> None:
        for peer in range(1, n_reached + 1):
            sim.nodes[peer].sync_with(sim.nodes[0], sim.network)

    return _run_interrupted(
        "dbvv (interrupted)", factory, presync, n_nodes, n_items, updates,
        reached, repair_round, max_rounds, seed, retry_attempts,
    )


def run_interrupted_oracle_arm(
    n_nodes: int = DEFAULT_NODES,
    n_items: int = DEFAULT_ITEMS,
    updates: int = DEFAULT_UPDATES,
    reached: int = DEFAULT_REACHED,
    repair_round: int = DEFAULT_REPAIR_ROUND,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    seed: int = 11,
    retry_attempts: int = DEFAULT_RETRY_ATTEMPTS,
) -> E5Result:
    """Oracle push with the same mid-session crash and the same retry
    policy: retries cannot help, because the unreached peers' missing
    records exist *only* on the dead originator (no forwarding), so the
    survivors stay stale until the repair round."""
    factory = make_factory("oracle-push", n_nodes, make_items(n_items))

    def presync(sim: ClusterSimulation, n_reached: int) -> None:
        for peer in range(1, n_reached + 1):
            sim.nodes[0].sync_with(sim.nodes[peer], sim.network)

    return _run_interrupted(
        "oracle-push (interrupted)", factory, presync, n_nodes, n_items,
        updates, reached, repair_round, max_rounds, seed, retry_attempts,
    )


def run(
    repair_round: int = DEFAULT_REPAIR_ROUND,
    seed: int = 11,
) -> list[E5Result]:
    return [
        run_oracle_arm(repair_round=repair_round),
        run_dbvv_arm(repair_round=repair_round, seed=seed),
    ]


def run_interrupted(
    repair_round: int = DEFAULT_REPAIR_ROUND,
    seed: int = 11,
) -> list[E5Result]:
    """The interrupted-session arms: a scripted mid-session crash plus
    session retry, same failure script for both protocols."""
    return [
        run_interrupted_oracle_arm(repair_round=repair_round, seed=seed),
        run_interrupted_dbvv_arm(repair_round=repair_round, seed=seed),
    ]


def report(results: list[E5Result]) -> Table:
    table = Table(
        "E5 — originator crashes after reaching 2 of 5 peers; repaired at "
        f"round {results[0].repair_round if results else '?'}.  When do the "
        "surviving replicas become current?",
        ["protocol", "survivors current at", "everyone current at",
         "peak stale pairs"],
    )
    for result in results:
        table.add_row([
            result.protocol,
            result.survivors_current_round
            if result.survivors_current_round is not None else "never",
            result.all_current_round
            if result.all_current_round is not None else "never",
            result.staleness.peak_stale_pairs,
        ])
    return table


def main() -> None:
    results = run()
    report(results).print()
    from repro.metrics.ascii_chart import line_chart

    print(
        line_chart(
            {r.protocol: list(r.stale_series) for r in results},
            height=8,
            width=60,
            title="E5 — stale (node,item) pairs per round "
                  f"(repair at round {results[0].repair_round})",
            y_label="stale pairs",
        )
    )
    print()
    interrupted = run_interrupted()
    report(interrupted).print()
    print(
        line_chart(
            {r.protocol: list(r.stale_series) for r in interrupted},
            height=8,
            width=60,
            title="E5 (interrupted sessions) — mid-session crash with "
                  "retry; stale pairs per round",
            y_label="stale pairs",
        )
    )
    print()


if __name__ == "__main__":
    main()
