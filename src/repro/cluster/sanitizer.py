"""The run-time invariant sanitizer.

PR 1's fault injection proved that the protocol's safety argument —
DBVV/IVV sum equality, the one-record-per-item log rule, bounded log
components (DESIGN.md section 6) — is only as good as how often it is
*checked*.  The sanitizer turns the existing ``check_invariants`` paths
into a toggleable always-on mode: with it enabled, both endpoints of
every synchronization session are swept through the full invariant
suite as soon as the session finishes (successfully or not), so a
corruption is caught at the session that introduced it rather than
rounds later at convergence checking.

Enable it per simulation (``ClusterSimulation(..., sanitize=True)``) or
globally via the environment (``REPRO_SANITIZE=1``); the environment
toggle is what CI's sanitizer job uses to re-run the tier-1 suite with
checking on.  Every sweep is counted in
:attr:`~repro.obs.OverheadCounters.sanitizer_checks` so
benchmarks can report the sanitizer's overhead explicitly.

Since the incremental convergence/staleness tracking landed, sanitizer
mode also cross-checks every incremental answer against the from-scratch
recomputation it replaced: :func:`~repro.cluster.convergence.fingerprints_equal`
re-derives convergence from full snapshots whenever state digests
decided it, and the simulation re-derives each round's ``stale_pairs``
from full fingerprints whenever the ground-truth dirty frontier
supplied it (counted in ``tracking_crosschecks``).  A disagreement
raises :class:`~repro.errors.InvariantViolation` at the round that
introduced it.

A failed sweep raises :class:`~repro.errors.InvariantViolation` (which
survives ``python -O`` — see ``docs/DEVELOPING.md``).

:func:`env_flag` reads both run-wide switches — ``REPRO_SANITIZE``
here and ``REPRO_DURABLE`` for the simulation's durable mode — the
same way.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.interfaces import ProtocolNode
from repro.obs import OverheadCounters

__all__ = [
    "DURABLE_ENV_VAR",
    "SANITIZE_ENV_VAR",
    "env_flag",
    "sanitize_endpoints",
]

#: The run-wide switches: CI re-runs the unmodified suite with each on.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"
DURABLE_ENV_VAR = "REPRO_DURABLE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_flag(var: str, explicit: bool | None) -> bool:
    """Resolve a tri-state switch.

    An explicit ``True``/``False`` wins; ``None`` defers to the
    environment variable ``var`` (``1``/``true``/``yes``/``on``,
    case-insensitive, enable it; any other value leaves it off).
    """
    if explicit is not None:
        return explicit
    return os.environ.get(var, "").strip().lower() in _TRUTHY


def sanitize_endpoints(
    nodes: Sequence[ProtocolNode],
    endpoint_ids: Sequence[int],
    counters: OverheadCounters,
) -> None:
    """Run the full invariant suite on each endpoint that exposes one.

    Protocols without a ``check_invariants`` method (the baselines keep
    no cross-structure invariants) are skipped silently — the sweep is
    about the DBVV protocol family's safety argument, not a required
    part of the :class:`~repro.interfaces.ProtocolNode` contract.
    """
    for node_id in endpoint_ids:
        check = getattr(nodes[node_id], "check_invariants", None)
        if check is not None:
            check()
            counters.sanitizer_checks += 1
