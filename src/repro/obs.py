"""Overhead accounting.

The paper's performance claims (section 6) are about *how much work* an
anti-entropy session does — how many version vectors are compared, how
many log records are examined, how many items are scanned, how many bytes
cross the wire — not about wall-clock time on 1995 hardware.  Every
protocol in this library therefore charges its work to an
:class:`OverheadCounters` instance, and the experiment harness asserts on
these deterministic counts (wall-clock pytest-benchmark timings are kept
as corroboration).

The counter names form the vocabulary shared by the core protocol, all
baselines, and the experiment harness:

``vv_comparisons``
    Whole version-vector comparisons (IVV or DBVV).  One DBVV comparison
    is what the paper's O(1) identical-replica detection costs.
``vv_components_touched``
    Individual vector components read or written; separates O(n) vector
    work from O(1) scalar work when the node count varies.
``log_records_examined``
    Log records read while building or consuming propagation tails.
``log_records_added`` / ``log_records_evicted``
    AddLogRecord executions and the one-record-per-item evictions they
    cause.
``items_scanned``
    Data items whose control state was inspected *without* necessarily
    being shipped — the quantity that grows with N for the baselines and
    stays at m for the paper's protocol.
``items_copied``
    Data items actually shipped and adopted.
``seqno_comparisons``
    Scalar sequence-number comparisons (Lotus-style protocols).
``messages_sent`` / ``bytes_sent``
    Network traffic, charged by the message layer: each message's
    modelled ``wire_size()``.  The bytes a deployed replica sends are
    counted on its sockets (:mod:`repro.net`, ``BENCHMARK.json``'s
    ``wire_bytes_*`` metrics).
``conflicts_detected``
    Conflicts flagged to the conflict reporter.
``aux_records_replayed``
    Auxiliary-log operations re-applied by IntraNodePropagation.
``sessions_retried``
    Synchronization sessions re-attempted by the retry layer after a
    mid-session fault.
``sessions_aborted``
    Sessions interrupted by a fault after at least the attempt to send a
    message (a dead peer detected at connect time is a failed session
    but not an *aborted* one — no work was wasted).
``bytes_wasted_in_aborted_sessions``
    Bytes that left a sender during sessions that were later aborted —
    traffic spent without any state change (the retry layer's cost
    denominator).  Per-phase abort breakdowns land in ``extra`` under
    ``sessions_aborted_at_<phase>`` keys.
``sanitizer_checks``
    Full ``check_invariants`` sweeps executed by the run-time invariant
    sanitizer (``REPRO_SANITIZE=1`` / ``sanitize=True``); benchmarks
    divide extra wall-clock by this to report sanitizer overhead.
``staleness_reexaminations``
    (node, item) pairs probed by the ground-truth tracker's dirty
    frontier — the incremental replacement for the old O(n·N) per-round
    fingerprint rescans; proportional to what actually changed.
``tracking_crosschecks``
    Sanitizer-mode verifications that the incremental convergence /
    staleness results equal the from-scratch recomputation (each one
    *is* a full O(n·N) recomputation — that is the point of the
    cross-check mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["OverheadCounters", "NULL_COUNTERS"]


@dataclass
class OverheadCounters:
    """Mutable bundle of work counters; see the module docstring for the
    meaning of each field.
    """

    vv_comparisons: int = 0
    vv_components_touched: int = 0
    log_records_examined: int = 0
    log_records_added: int = 0
    log_records_evicted: int = 0
    items_scanned: int = 0
    items_copied: int = 0
    seqno_comparisons: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    conflicts_detected: int = 0
    aux_records_replayed: int = 0
    sessions_retried: int = 0
    sessions_aborted: int = 0
    bytes_wasted_in_aborted_sessions: int = 0
    sanitizer_checks: int = 0
    staleness_reexaminations: int = 0
    tracking_crosschecks: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter (including the ``extra`` map)."""
        for f in fields(self):
            if f.name == "extra":
                self.extra.clear()
            else:
                setattr(self, f.name, 0)

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of all counters, for reporting and diffing."""
        result = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"
        }
        result.update(self.extra)
        return result

    def bump(self, name: str, by: int = 1) -> None:
        """Increment a named counter; unknown names land in ``extra``.

        The named-field counters are also reachable as plain attributes;
        ``bump`` exists so ad-hoc experiment counters don't need schema
        changes.
        """
        if hasattr(self, name) and name != "extra":
            setattr(self, name, getattr(self, name) + by)
        else:
            self.extra[name] = self.extra.get(name, 0) + by

    def merged_with(self, other: "OverheadCounters") -> "OverheadCounters":
        """A new counter bundle with the component-wise sums."""
        result = OverheadCounters()
        for name, value in self.snapshot().items():
            result.bump(name, value)
        for name, value in other.snapshot().items():
            result.bump(name, value)
        return result

    def total_work(self) -> int:
        """A single scalar summarizing comparison/scan work (excludes
        traffic counters) — convenient for "overhead vs N" plots.
        """
        return (
            self.vv_comparisons
            + self.vv_components_touched
            + self.log_records_examined
            + self.seqno_comparisons
            + self.items_scanned
        )


class _NullCounters(OverheadCounters):
    """A sink that ignores all charges; used when instrumentation is off.

    Keeping the same interface (instead of ``if counters is not None``
    checks everywhere) keeps the protocol code straight-line.

    A swallowed write is still a Python-level ``__setattr__`` call, so
    the protocol charges per *call* with the call's totals, never per
    element, and the leaf helpers that run inside a caller's loop
    (``LogComponent.add``/``tail_after``,
    ``DatabaseVersionVector.absorb_item_copies``) skip the charge when
    their sink ``is NULL_COUNTERS``: ``EpidemicNode.update`` writes
    here zero times, a propagation session a constant number of times.
    ``tail_after`` charges ``log_records_examined`` once with the
    length of the tail it returns; ``LogComponent.restore`` (a
    checkpoint's bulk load) charges nothing.
    """

    def bump(self, name: str, by: int = 1) -> None:  # noqa: D102 - see class
        pass

    def __setattr__(self, name: str, value: object) -> None:
        # Permit dataclass __init__ to set the initial fields, then
        # swallow all later attribute writes (increments).
        if name not in self.__dict__ and not self.__dict__.get("_sealed", False):
            super().__setattr__(name, value)
            if name == "extra":
                super().__setattr__("_sealed", True)


NULL_COUNTERS = _NullCounters()
"""Shared do-nothing counter sink."""
