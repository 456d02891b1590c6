"""Span recorder for the traced run, installed from outside ``src/``.

Spans sit on the layer boundaries only.  :func:`install` swaps the names
that ``repro.net.node`` (and ``repro.durable.journal``) imported for
recording stand-ins — ``read_blob``/``write_blob``/``read_frame``/
``write_frame``, the ``validate_*`` functions, ``respond``, ``json``,
and subclasses of ``PullSession``'s wrapper, ``WireCodec``, ``EpidemicNode``
(``update``/``read``), ``NodeJournal`` (``record_*``/``commit``/
``checkpoint``/``recover``), ``WriteAheadLog`` (``open_and_repair``) and
``load_node`` — nothing inside a layer is touched.

A span is ``[id, parent, op, name, phase, start, end, busy]``; times are
the loop thread's CPU clock (``thread_time_ns``), so a slice the
speedometer took in the middle of a span is not in it.  ``busy`` is
``end - start`` minus the time the span was *suspended* at an ``await``
(an awaited call is stepped by hand so that the CPU other tasks used while
it waited is not charged to it).  Self time is ``busy`` minus the
children's ``busy``.

Every request gets one **root** span and one op id: a client op runs from
the ``read_blob`` call that will receive it to the next ``read_blob`` call
on that connection; a served session likewise from ``read_frame`` to
``read_frame``.  Spans are recorded only under a root, so toggling the
recorder between phases leaves no orphans.

With the recorder off every stand-in calls straight through; what the
extra frame costs is reported as ``trace.inproc_vs_cluster_put_ratio``.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections.abc import Awaitable, Callable, Generator, Iterator
from contextlib import contextmanager
from typing import Any

__all__ = ["Recorder", "install", "self_times", "check_spans", "SPAN_FIELDS"]

SPAN_FIELDS = ("id", "parent", "op", "name", "phase", "start", "end", "busy")

CLIENT_OP = "net.client_op"
SERVE_SESSION = "net.serve_session"

_clock = time.thread_time_ns


class _Frame:
    """One open span."""

    __slots__ = ("id", "parent", "root", "op", "name", "phase", "start", "suspended", "epoch")

    def __init__(
        self, span_id: int, parent: "_Frame | None", op: int, name: str, phase: str, epoch: int
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.op = op
        self.name = name
        self.phase = phase
        self.epoch = epoch
        self.suspended = 0
        self.start = _clock()


class Recorder:
    """In-memory spans of one process; see the module docstring."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.phase = "start"
        self.spans: list[tuple[int, int, int, str, str, int, int, int]] = []
        #: ``[phase, loop-thread CPU ns when it began]`` in order.
        self.marks: list[tuple[str, int]] = [("start", _clock())]
        self._current: contextvars.ContextVar[_Frame | None] = contextvars.ContextVar(
            "span", default=None
        )
        self._next_id = 1
        self._next_op = 1
        # Bumped on every toggle: a root left open across a toggle spans an
        # unrecorded stretch and is dropped when it closes.
        self._epoch = 0

    # -- control --------------------------------------------------------------

    def set_enabled(self, enabled: bool) -> None:
        self.enabled = enabled
        self._epoch += 1

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.marks.append((phase, _clock()))

    def dump(self, path: str) -> int:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans, "marks": self.marks}, fh)
        return len(self.spans)

    # -- opening and closing --------------------------------------------------

    def _open(self, name: str, parent: _Frame | None) -> _Frame:
        if parent is None:
            op = self._next_op
            self._next_op += 1
        else:
            op = parent.op
        frame = _Frame(self._next_id, parent, op, name, self.phase, self._epoch)
        self._next_id += 1
        self._current.set(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = _clock()
        parent = frame.parent
        self._current.set(parent)
        if frame.epoch != self._epoch:
            return
        if parent is not None:
            parent.suspended += frame.suspended
        self.spans.append(
            (
                frame.id,
                parent.id if parent is not None else 0,
                frame.op,
                frame.name,
                frame.phase,
                frame.start,
                end,
                end - frame.start - frame.suspended,
            )
        )

    def begin_root(self, name: str) -> None:
        """Close this task's root, if any, and open the next one."""
        frame = self._current.get()
        while frame is not None:
            self._close(frame)
            frame = frame.parent
        if self.enabled:
            self._open(name, None)

    def in_client_op(self) -> bool:
        frame = self._current.get()
        return frame is not None and frame.root.name == CLIENT_OP

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """An explicit root around synchronous start-up work."""
        if not self.enabled:
            yield
            return
        frame = self._open(name, None)
        try:
            yield
        finally:
            self._close(frame)

    # -- stand-ins ------------------------------------------------------------

    def sync(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recorded as a span named ``name`` when under a root."""
        current = self._current

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = current.get() if self.enabled else None
            if parent is None or parent.epoch != self._epoch:
                return fn(*args, **kwargs)
            frame = self._open(name, parent)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def awaited(
        self, name: str, fn: Callable[..., Awaitable[Any]], root: str | None = None
    ) -> Callable[..., Awaitable[Any]]:
        """``await fn(...)`` recorded as a span; with ``root`` given, each
        call first closes the task's root and opens a new one of that name
        (unless the task is inside a client op: a ``read_frame`` issued by
        ``sync_with`` belongs to the sync)."""

        def traced(*args: Any, **kwargs: Any) -> Awaitable[Any]:
            if root is not None and not (root == SERVE_SESSION and self.in_client_op()):
                self.begin_root(root)
            parent = self._current.get() if self.enabled else None
            if parent is None or parent.epoch != self._epoch:
                return fn(*args, **kwargs)
            return _Stepped(self, name, parent, fn(*args, **kwargs), root is not None)

        return traced


class _Stepped:
    """Awaits ``inner`` by hand, timing the stretches it is suspended."""

    __slots__ = ("recorder", "name", "parent", "inner", "stamps_root")

    def __init__(
        self,
        recorder: Recorder,
        name: str,
        parent: _Frame,
        inner: Awaitable[Any],
        stamps_root: bool,
    ) -> None:
        self.recorder = recorder
        self.name = name
        self.parent = parent
        self.inner = inner
        #: This await receives the request: the root was opened when the
        #: previous request finished, possibly a phase ago, so it and this
        #: span take the phase current when the request has arrived.
        self.stamps_root = stamps_root

    def __await__(self) -> Generator[Any, Any, Any]:
        frame = self.recorder._open(self.name, self.parent)
        steps = self.inner.__await__()
        value: Any = None
        error: BaseException | None = None
        try:
            while True:
                try:
                    if error is not None:
                        pending = steps.throw(error)  # type: ignore[attr-defined]
                    else:
                        pending = steps.send(value)  # type: ignore[attr-defined]
                except StopIteration as stop:
                    if self.stamps_root:
                        frame.phase = frame.root.phase = self.recorder.phase
                    return stop.value
                paused = _clock()
                try:
                    value = yield pending
                    error = None
                except BaseException as exc:  # re-thrown into the inner awaitable above
                    value = None
                    error = exc
                frame.suspended += _clock() - paused
        finally:
            self.recorder._close(frame)


# -- installation ---------------------------------------------------------------


def install(recorder: Recorder) -> None:
    """Swap the layer-boundary names for recording stand-ins.

    Call once, before the ``NetNode`` is constructed.
    """
    import repro.durable.journal as journal_module
    import repro.net.node as node_module

    rec = recorder
    original = {name: getattr(node_module, name) for name in _NODE_NAMES}

    node_module.read_blob = rec.awaited("net.read_blob", original["read_blob"], root=CLIENT_OP)
    node_module.write_blob = rec.awaited("net.write_blob", original["write_blob"])
    node_module.read_frame = rec.awaited(
        "net.read_frame", original["read_frame"], root=SERVE_SESSION
    )
    node_module.write_frame = rec.awaited("net.write_frame", original["write_frame"])
    for name in _VALIDATORS:
        setattr(node_module, name, rec.sync("core.validate", original[name]))
    node_module.respond = rec.sync("core.session_respond", original["respond"])

    class TracedJson:
        loads = staticmethod(rec.sync("net.json", json.loads))
        dumps = staticmethod(rec.sync("net.json", json.dumps))

    node_module.json = TracedJson

    new_session = rec.sync("core.session_request", original["PullSession"])

    class TracedPullSession:
        """``PullSession(node)`` + ``request()`` → ``core.session_request``;
        ``conclude()`` → ``core.session_conclude``."""

        __slots__ = ("_inner",)

        def __init__(self, node: Any) -> None:
            self._inner = new_session(node)

        request = rec.sync("core.session_request", lambda self: self._inner.request())
        conclude = rec.sync(
            "core.session_conclude", lambda self, answer: self._inner.conclude(answer)
        )

    node_module.PullSession = TracedPullSession

    class TracedWireCodec(original["WireCodec"]):  # type: ignore[misc]
        encode = rec.sync("wire.encode", original["WireCodec"].encode)
        decode = rec.sync("wire.decode", original["WireCodec"].decode)

    node_module.WireCodec = TracedWireCodec

    class TracedEpidemicNode(original["EpidemicNode"]):  # type: ignore[misc]
        update = rec.sync("core.node_update", original["EpidemicNode"].update)
        read = rec.sync("core.node_read", original["EpidemicNode"].read)

    node_module.EpidemicNode = TracedEpidemicNode

    NodeJournal = original["NodeJournal"]

    class TracedNodeJournal(NodeJournal):  # type: ignore[misc,valid-type]
        recover = rec.sync("durable.recover", NodeJournal.recover)
        record_update = rec.sync("durable.record_update", NodeJournal.record_update)
        record_accept = rec.sync("durable.record_accept", NodeJournal.record_accept)
        commit = rec.sync("durable.wal_commit", NodeJournal.commit)
        checkpoint = rec.sync("durable.checkpoint", NodeJournal.checkpoint)

    node_module.NodeJournal = TracedNodeJournal

    WriteAheadLog = journal_module.WriteAheadLog

    class TracedWriteAheadLog(WriteAheadLog):  # type: ignore[misc,valid-type]
        __slots__ = ()
        open_and_repair = rec.sync("durable.wal_scan", WriteAheadLog.open_and_repair)

    journal_module.WriteAheadLog = TracedWriteAheadLog
    journal_module.load_node = rec.sync("persistence.load_node", journal_module.load_node)


_VALIDATORS = (
    "validate_item_name",
    "validate_value",
    "validate_node_id",
    "validate_propagation_request",
    "validate_session_answer",
)
_NODE_NAMES = (
    "read_blob",
    "write_blob",
    "read_frame",
    "write_frame",
    "respond",
    "PullSession",
    "WireCodec",
    "EpidemicNode",
    "NodeJournal",
    *_VALIDATORS,
)


# -- analysis (harness side) ----------------------------------------------------


def self_times(spans: list[list[Any]]) -> dict[int, int]:
    """Self time (ns) of every span: ``busy`` minus the children's ``busy``."""
    own = {span[0]: span[7] for span in spans}
    for span in spans:
        if span[1]:
            own[span[1]] -= span[7]
    return own


def check_spans(spans: list[list[Any]]) -> list[str]:
    """Structural defects of a span file; empty when it is sound."""
    problems: list[str] = []
    by_id = {span[0]: span for span in spans}
    children: dict[int, int] = {}
    for span in spans:
        span_id, parent, op = span[0], span[1], span[2]
        if parent:
            if parent not in by_id:
                problems.append(f"span {span_id} ({span[3]}) has no parent {parent}")
                continue
            if by_id[parent][2] != op:
                problems.append(f"span {span_id} and its parent disagree on the op id")
            children[parent] = children.get(parent, 0) + span[7]
        if span[7] < 0:
            problems.append(f"span {span_id} ({span[3]}) has negative busy time")
    for span_id, total in children.items():
        if total > by_id[span_id][7]:
            problems.append(
                f"children of span {span_id} ({by_id[span_id][3]}) exceed it: "
                f"{total} > {by_id[span_id][7]} ns"
            )
    return problems
