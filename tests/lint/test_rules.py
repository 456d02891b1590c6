"""Fixture-driven tests: each rule catches its violation fixture and
stays silent on the clean counterpart.

The fixtures live under ``fixtures/src/repro/...`` so the path-based
scoping classifies them like the real modules they imitate; clean
fixtures must be clean under *all* rules, which keeps one rule's "good"
example from tripping another rule unnoticed.
"""

from pathlib import Path

import pytest

from repro.lint import ALL_RULES, lint_file, make_scope
from tests.lint.source import audit_pragmas, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (violating fixture, minimum expected hits of that rule)
VIOLATION_FIXTURES = {
    "R1": (FIXTURES / "src/repro/core/r1_violation.py", 1),
    "R2": (FIXTURES / "r2_violation.py", 1),
    "R3": (FIXTURES / "src/repro/cluster/r3_violation.py", 7),
    "R4": (FIXTURES / "src/repro/cluster/r4_violation.py", 6),
    "R5": (FIXTURES / "src/repro/core/r5_violation.py", 1),
    "R7": (FIXTURES / "src/repro/baselines/r7_violation.py", 4),
    "R9": (FIXTURES / "src/repro/net/r9_violation.py", 5),
    "R10": (FIXTURES / "src/repro/net/r10_violation.py", 2),
    "R11": (FIXTURES / "src/repro/net/r11_violation.py", 2),
    "R12": (FIXTURES / "src/repro/net/r12_violation.py", 3),
    "R13": (FIXTURES / "src/repro/net/r13_violation.py", 3),
    "R14": (FIXTURES / "src/repro/wire/r14_violation.py", 3),
    "R15": (FIXTURES / "src/repro/net/r15_violation.py", 2),
    "R16": (FIXTURES / "src/repro/cluster/r16_violation.py", 4),
}

#: (rule id, fixture, min hits) pairs beyond each rule's primary pair —
#: rules whose scope spans several subpackages get one pair per scope.
EXTRA_VIOLATION_FIXTURES = [
    ("R1", FIXTURES / "src/repro/durable/r1_violation.py", 1),
    ("R13", FIXTURES / "src/repro/durable/r13_violation.py", 1),
]

EXTRA_CLEAN_FIXTURES = [
    ("R1", FIXTURES / "src/repro/durable/r1_clean.py"),
    ("R13", FIXTURES / "src/repro/durable/r13_clean.py"),
]

CLEAN_FIXTURES = {
    "R1": FIXTURES / "src/repro/core/r1_clean.py",
    "R2": FIXTURES / "r2_clean.py",
    "R3": FIXTURES / "src/repro/cluster/r3_clean.py",
    "R4": FIXTURES / "src/repro/cluster/r4_clean.py",
    "R5": FIXTURES / "src/repro/core/r5_clean.py",
    "R7": FIXTURES / "src/repro/baselines/r7_clean.py",
    "R9": FIXTURES / "src/repro/net/r9_clean.py",
    "R10": FIXTURES / "src/repro/net/r10_clean.py",
    "R11": FIXTURES / "src/repro/net/r11_clean.py",
    "R12": FIXTURES / "src/repro/net/r12_clean.py",
    "R13": FIXTURES / "src/repro/net/r13_clean.py",
    "R14": FIXTURES / "src/repro/wire/r14_clean.py",
    "R15": FIXTURES / "src/repro/net/r15_clean.py",
    "R16": FIXTURES / "src/repro/cluster/r16_clean.py",
}


@pytest.mark.parametrize("rule_id", sorted(VIOLATION_FIXTURES))
def test_rule_catches_its_fixture(rule_id):
    path, min_hits = VIOLATION_FIXTURES[rule_id]
    findings = lint_file(path, ALL_RULES)
    hits = [v for v in findings if v.rule_id == rule_id]
    assert len(hits) >= min_hits, (
        f"{rule_id} found {len(hits)} violation(s) in {path.name}, "
        f"expected >= {min_hits}: {[v.render() for v in findings]}"
    )


@pytest.mark.parametrize("rule_id", sorted(VIOLATION_FIXTURES))
def test_violation_fixtures_trip_only_their_own_rule(rule_id):
    path, _ = VIOLATION_FIXTURES[rule_id]
    findings = lint_file(path, ALL_RULES)
    assert findings, f"{path.name} produced no findings at all"
    foreign = {v.rule_id for v in findings} - {rule_id}
    assert not foreign, (
        f"{path.name} trips {foreign} in addition to {rule_id}; keep "
        "fixtures single-purpose"
    )


@pytest.mark.parametrize("rule_id", sorted(CLEAN_FIXTURES))
def test_clean_fixture_is_clean_under_all_rules(rule_id):
    findings = lint_file(CLEAN_FIXTURES[rule_id], ALL_RULES)
    assert findings == [], [v.render() for v in findings]


@pytest.mark.parametrize(
    "rule_id,path,min_hits",
    EXTRA_VIOLATION_FIXTURES,
    ids=lambda v: v.name if isinstance(v, Path) else str(v),
)
def test_extra_violation_fixture_trips_only_its_rule(rule_id, path, min_hits):
    findings = lint_file(path, ALL_RULES)
    hits = [v for v in findings if v.rule_id == rule_id]
    assert len(hits) >= min_hits, [v.render() for v in findings]
    foreign = {v.rule_id for v in findings} - {rule_id}
    assert not foreign, f"{path.name} trips {foreign} in addition to {rule_id}"


@pytest.mark.parametrize(
    "rule_id,path",
    EXTRA_CLEAN_FIXTURES,
    ids=lambda v: v.name if isinstance(v, Path) else str(v),
)
def test_extra_clean_fixture_is_clean_under_all_rules(rule_id, path):
    findings = lint_file(path, ALL_RULES)
    assert findings == [], [v.render() for v in findings]


class TestRegressionShapes:
    """The two acceptance scenarios from the issue: reintroducing either
    historical bug into the *real* module shape must fail lint."""

    def test_dropping_message_lost_handler_from_fetch_out_of_bound_fails(self):
        # fetch_out_of_bound with its MessageLostError handler removed —
        # the pre-PR-1 shape of src/repro/core/protocol.py.
        source = (
            "def fetch_out_of_bound(self, item, peer, transport):\n"
            "    try:\n"
            "        reply = transport.deliver(peer.node_id, self.node_id, item)\n"
            "    except NodeDownError:\n"
            "        return False\n"
            "    return True\n"
        )
        findings = lint_source(source, "src/repro/core/protocol.py", ALL_RULES)
        assert any(v.rule_id == "R2" for v in findings)

    def test_reintroducing_the_seqno_tautology_fails(self):
        # The exact pre-PR-1 tautology from node.check_invariants.
        source = (
            "def check_invariants(self):\n"
            "    for k in range(self.n_nodes):\n"
            "        max_seqno = self.log.component_max(k)\n"
            "        if not max_seqno <= max(self.dbvv[k], max_seqno):\n"
            "            raise InvariantViolation('log component bound')\n"
        )
        findings = lint_source(source, "src/repro/core/node.py", ALL_RULES)
        assert any(v.rule_id == "R5" for v in findings)

    def test_the_fixed_comparison_passes(self):
        source = (
            "def check_invariants(self):\n"
            "    for k in range(self.n_nodes):\n"
            "        max_seqno = self.log.component_max(k)\n"
            "        if not max_seqno <= self.dbvv[k]:\n"
            "            raise InvariantViolation('log component bound')\n"
        )
        findings = lint_source(source, "src/repro/core/node.py", ALL_RULES)
        assert not any(v.rule_id == "R5" for v in findings)


class TestRuleScoping:
    def test_r1_does_not_fire_outside_core_cluster_baselines(self):
        source = "def f(x):\n    assert x > 0\n"
        findings = lint_source(source, "src/repro/workload/generators.py", ALL_RULES)
        assert not any(v.rule_id == "R1" for v in findings)
        findings = lint_source(source, "tests/core/test_node.py", ALL_RULES)
        assert not any(v.rule_id == "R1" for v in findings)

    def test_r1_fires_in_all_protocol_subpackages(self):
        source = "def f(x):\n    assert x > 0\n"
        for module in (
            "src/repro/core/node.py",
            "src/repro/cluster/simulation.py",
            "src/repro/baselines/lotus.py",
            "src/repro/substrate/operations.py",
            "src/repro/durable/checkpoint.py",
        ):
            findings = lint_source(source, module, ALL_RULES)
            assert any(v.rule_id == "R1" for v in findings), module

    def test_r4_exempts_core_and_tests(self):
        source = "def f(node):\n    node.dbvv.increment(0)\n"
        assert not lint_source(source, "src/repro/core/protocol.py", ALL_RULES)
        assert not lint_source(source, "tests/core/test_node.py", ALL_RULES)
        assert lint_source(source, "src/repro/experiments/e1.py", ALL_RULES)

    def test_fixture_scope_matches_real_module_scope(self):
        fixture = make_scope(VIOLATION_FIXTURES["R1"][0])
        real = make_scope("src/repro/core/node.py")
        assert fixture.package is not None
        assert fixture.package[:2] == real.package[:2] == ("repro", "core")

    def test_async_rules_scoped_to_net(self):
        # The same blocking/fire-and-forget shapes outside repro.net are
        # not the event loop's problem and must not fire.
        source = (
            "import asyncio, time\n"
            "async def f():\n"
            "    time.sleep(1)\n"
            "    asyncio.create_task(f())\n"
            "    try:\n"
            "        await asyncio.sleep(0)\n"
            "    except asyncio.CancelledError:\n"
            "        pass\n"
        )
        findings = lint_source(source, "src/repro/cluster/driver.py", ALL_RULES)
        async_ids = {"R9", "R10", "R11", "R12"}
        assert not async_ids & {v.rule_id for v in findings}
        findings = lint_source(source, "src/repro/net/driver.py", ALL_RULES)
        assert async_ids - {"R10"} <= {v.rule_id for v in findings}


class TestAsyncConcurrencyAcceptance:
    """The issue's acceptance scenarios for R9-R12 against real shapes."""

    ROOT = Path(__file__).resolve().parents[2]

    def test_real_net_node_is_concurrency_clean(self):
        # The lock-guarded session path in repro.net.node must be
        # accepted as-is: the per-peer lock is the sanctioned guard.
        findings = lint_file(self.ROOT / "src/repro/net/node.py", ALL_RULES)
        assert findings == [], [v.render() for v in findings]

    def test_seeded_unlocked_cross_await_mutation_is_flagged(self):
        # sync_with with its per-peer lock removed — the shape R10
        # exists to reject.
        source = (
            "class NetNode:\n"
            "    async def sync_with(self, peer_id):\n"
            "        link = await self._ensure_link(peer_id)\n"
            "        self.frames_sent += 1\n"
            "        await write_frame(link.writer, b'x')\n"
            "        self.sessions_served += 1\n"
            "    async def _ensure_link(self, peer_id):\n"
            "        link = self._links.get(peer_id)\n"
            "        return link\n"
        )
        findings = lint_source(source, "src/repro/net/node.py", ALL_RULES)
        assert any(v.rule_id == "R10" for v in findings)

    def test_the_lock_guarded_version_passes(self):
        source = (
            "class NetNode:\n"
            "    async def sync_with(self, peer_id):\n"
            "        lock = self._link_locks.setdefault(peer_id, Lock())\n"
            "        async with lock:\n"
            "            link = await self._ensure_link(peer_id)\n"
            "            self.frames_sent += 1\n"
            "            await write_frame(link.writer, b'x')\n"
            "            self.sessions_served += 1\n"
            "    async def _ensure_link(self, peer_id):\n"
            "        link = self._links.get(peer_id)\n"
            "        return link\n"
        )
        findings = lint_source(source, "src/repro/net/node.py", ALL_RULES)
        assert not any(v.rule_id == "R10" for v in findings)

    def test_fire_and_forget_shutdown_shape_is_flagged(self):
        # The original fire-and-forget `ensure_future(self.stop())`.
        source = (
            "import asyncio\n"
            "class NetNode:\n"
            "    async def _handle_client_op(self, request):\n"
            "        asyncio.get_running_loop().call_soon(\n"
            "            lambda: asyncio.ensure_future(self.stop())\n"
            "        )\n"
            "        return {'ok': True}\n"
            "    async def stop(self):\n"
            "        return None\n"
        )
        findings = lint_source(source, "src/repro/net/node.py", ALL_RULES)
        assert any(v.rule_id == "R11" for v in findings)

    def test_swallowed_cancellation_shape_is_flagged(self):
        # The original stop(): cancel, await, swallow CancelledError.
        source = (
            "import asyncio\n"
            "class NetNode:\n"
            "    async def stop(self, task):\n"
            "        task.cancel()\n"
            "        try:\n"
            "            await task\n"
            "        except asyncio.CancelledError:\n"
            "            pass\n"
        )
        findings = lint_source(source, "src/repro/net/node.py", ALL_RULES)
        assert any(v.rule_id == "R12" for v in findings)


class TestBlockingPragma:
    """`# pragma: blocking <reason>` suppresses R9 only, reason required."""

    def test_pragma_with_reason_suppresses(self):
        source = (
            "async def serve(stopped):\n"
            "    await stopped.wait()  # pragma: blocking lifetime wait\n"
        )
        findings = lint_source(source, "src/repro/net/node.py", ALL_RULES)
        assert not any(v.rule_id == "R9" for v in findings)

    def test_bare_pragma_does_not_suppress(self):
        source = (
            "async def serve(stopped):\n"
            "    await stopped.wait()  # pragma: blocking\n"
        )
        findings = lint_source(source, "src/repro/net/node.py", ALL_RULES)
        assert any(v.rule_id == "R9" for v in findings)

    def test_pragma_does_not_suppress_other_rules(self):
        source = (
            "import asyncio\n"
            "async def kick(coro):\n"
            "    asyncio.create_task(coro)  # pragma: blocking not my rule\n"
        )
        findings = lint_source(source, "src/repro/net/node.py", ALL_RULES)
        assert any(v.rule_id == "R11" for v in findings)

    def test_stale_blocking_pragma_is_audited(self):
        source = (
            "import asyncio\n"
            "async def serve():\n"
            "    await asyncio.sleep(1)  # pragma: blocking stale reason\n"
        )
        findings = audit_pragmas(source, "src/repro/net/node.py", ALL_RULES)
        assert any(
            v.rule_id == "PRAGMA" and "stale `pragma: blocking`" in v.message
            for v in findings
        )

    def test_bare_blocking_pragma_is_audited(self):
        source = (
            "async def serve(stopped):\n"
            "    await stopped.wait()  # pragma: blocking\n"
        )
        findings = audit_pragmas(source, "src/repro/net/node.py", ALL_RULES)
        assert any(
            v.rule_id == "PRAGMA" and "without a reason" in v.message
            for v in findings
        )

    def test_live_blocking_pragma_is_not_audited(self):
        source = (
            "async def serve(stopped):\n"
            "    await stopped.wait()  # pragma: blocking lifetime wait\n"
        )
        findings = audit_pragmas(source, "src/repro/net/node.py", ALL_RULES)
        assert findings == [], [v.render() for v in findings]
