"""Correctness oracle: what the cluster must have done, checked on every run.

The harness is the only writer, so it knows the last acknowledged value of
every item.  :class:`Oracle` counts every reply (a refused or errored
reply is a *failure*, never a latency sample) and records every violation
of the protocol's promises it can see from outside:

* every put is acknowledged, every get returns the last acknowledged value;
* every idle pull answers ``identical``; every burst pull adopts exactly m;
* after the final drain both nodes' stores equal the model, and their IVVs
  and DBVVs agree;
* a durable node's ``status`` (store, IVVs, DBVV) captured just before
  SIGKILL is reproduced after restart, before any sync — every adoption it
  journaled survived.  (``kill -9`` keeps the OS page cache, so this shows
  the journal is complete and replayable, not that the disk honoured fsync.)
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["Oracle"]

_MAX_PROBLEMS = 20


class Oracle:
    def __init__(self) -> None:
        #: item → hex of the last value node 0 acknowledged.
        self.model: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def violation(self, text: str) -> None:
        if len(self.problems) < _MAX_PROBLEMS:
            self.problems.append(text)

    # -- replies --------------------------------------------------------------

    def _decode(self, replies: list[bytes], expected: int, what: str) -> list[dict[str, Any]]:
        self.attempted += expected
        decoded = [json.loads(reply) for reply in replies]
        if len(decoded) != expected:
            self.failed += abs(expected - len(decoded))
            self.violation(f"{what}: {len(decoded)} replies for {expected} requests")
        return decoded

    def _refused(self, reply: dict[str, Any], what: str) -> bool:
        if reply.get("ok") is True:
            return False
        self.failed += 1
        self.violation(f"{what} refused: {reply.get('error')!r}")
        return True

    def check_puts(self, replies: list[bytes], expected: int) -> None:
        for reply in self._decode(replies, expected, "put"):
            self._refused(reply, "put")

    def check_gets(self, replies: list[bytes], values: list[str]) -> None:
        decoded = self._decode(replies, len(values), "get")
        for reply, value in zip(decoded, values):
            if not self._refused(reply, "get") and reply.get("value") != value:
                self.failed += 1
                self.violation(f"get returned {reply.get('value')!r}, expected {value!r}")

    def check_mixed(self, replies: list[bytes], expected: list[str | None]) -> None:
        """Alternating put/get replies; ``None`` marks a put."""
        decoded = self._decode(replies, len(expected), "mixed op")
        for reply, value in zip(decoded, expected):
            if self._refused(reply, "mixed op"):
                continue
            if value is not None and reply.get("value") != value:
                self.failed += 1
                self.violation(f"mixed get returned {reply.get('value')!r}, expected {value!r}")

    def check_syncs(
        self,
        replies: list[bytes],
        expected: int,
        *,
        identical: bool | None = None,
        adopted: int | None = None,
    ) -> None:
        for reply in self._decode(replies, expected, "sync"):
            self.check_sync(reply, identical=identical, adopted=adopted, counted=True)

    def check_sync(
        self,
        reply: dict[str, Any],
        *,
        identical: bool | None = None,
        adopted: int | None = None,
        counted: bool = False,
    ) -> None:
        if not counted:
            self.attempted += 1
        if self._refused(reply, "sync"):
            return
        if identical is not None and reply.get("identical") is not identical:
            self.failed += 1
            self.violation(f"pull answered identical={reply.get('identical')}, expected {identical}")
        if adopted is not None and len(reply.get("adopted", ())) != adopted:
            self.failed += 1
            self.violation(
                f"pull adopted {len(reply.get('adopted', ()))} items, expected exactly {adopted}"
            )

    # -- states ---------------------------------------------------------------

    def check_converged(self, statuses: list[dict[str, Any]]) -> None:
        """Both nodes hold the model, with matching IVVs and DBVVs."""
        for status in statuses:
            if status["store"] != self.model:
                wrong = [
                    name
                    for name in self.model
                    if status["store"].get(name) != self.model[name]
                ]
                self.violation(
                    f"node {status['node']} store differs from the acknowledged values "
                    f"on {len(wrong)} item(s), e.g. {wrong[:3]}"
                )
        first = statuses[0]
        for status in statuses[1:]:
            if status["ivvs"] != first["ivvs"]:
                self.violation(f"IVVs of node {status['node']} and node {first['node']} differ")
            if status["dbvv"] != first["dbvv"]:
                self.violation(
                    f"DBVVs differ: node {first['node']} {first['dbvv']} "
                    f"node {status['node']} {status['dbvv']}"
                )

    def check_recovered(self, before: dict[str, Any], after: dict[str, Any]) -> None:
        """A durable node came back exactly as it was killed."""
        for key in ("store", "ivvs", "dbvv"):
            if before[key] != after[key]:
                self.violation(
                    f"node {before['node']} lost journaled state across kill -9: "
                    f"{key} differs after restart"
                )
