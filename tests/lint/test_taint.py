"""Tests for the taint-dataflow engine behind R13–R15.

Three layers:

* **engine units** — the lattice, sources, sanitizers, cap-guard
  downgrade, and interprocedural summaries, on tiny synthetic modules;
* **acceptance** — the *real* ``repro.core.session``,
  ``repro.net.node`` and ``repro.durable.journal`` are pinned clean,
  and seeded-taint variants of the same shapes are pinned flagged;
* **mutation** — neutralizing any single ``validate_*`` call in a wired
  module makes R13 fire, proving every call site is load-bearing (none
  is decorative).  A sanitizer defined in a wired module
  (``validate_snapshot`` in ``repro.durable.checkpoint``) is the
  sanitizer, not a call site: its ``def`` and the checks inside it are
  not mutated, its callers are.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import repro.core.validate as validate_module
from repro.lint import ALL_RULES, make_scope, rules_by_id
from tests.lint.source import lint_source
from repro.lint.taint import (
    CAPPED,
    CLEAN,
    SANCTIONED_SANITIZERS,
    TAINTED,
    analyze_module,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

NET_SCOPE = make_scope("src/repro/net/somefile.py")
WIRE_SCOPE = make_scope("src/repro/wire/somefile.py")


def findings(source, scope=NET_SCOPE, kinds=None):
    report = analyze_module(ast.parse(source), scope)
    if kinds is None:
        return list(report.findings)
    return list(report.of_kind(*kinds))


class TestEngine:
    def test_lattice_ordering(self):
        assert CLEAN < CAPPED < TAINTED

    def test_decode_source_reaches_sink(self):
        hits = findings(
            "def f(node, codec, frame):\n"
            "    m = codec.decode(frame)\n"
            "    node.update(m.name, m.op)\n",
            kinds=["sink"],
        )
        assert len(hits) == 1 and hits[0].line == 3

    def test_untrusted_param_is_tainted_on_entry(self):
        hits = findings(
            "def f(node, answer):\n"
            "    node.accept_propagation(answer)\n",
            kinds=["sink"],
        )
        assert len(hits) == 1

    def test_other_params_are_trusted(self):
        assert not findings(
            "def f(node, reply):\n"
            "    node.accept_propagation(reply)\n",
            kinds=["sink"],
        )

    def test_sanitizer_result_is_clean_but_argument_stays_tainted(self):
        # Value-passing: rebinding through the validator clears taint...
        assert not findings(
            "def f(node, answer):\n"
            "    answer = validate_propagation_reply(answer, node)\n"
            "    node.accept_propagation(answer)\n",
            kinds=["sink"],
        )
        # ...a bare call does not.
        hits = findings(
            "def f(node, answer):\n"
            "    validate_propagation_reply(answer, node)\n"
            "    node.accept_propagation(answer)\n",
            kinds=["sink"],
        )
        assert len(hits) == 1

    def test_unregistered_validate_helper_clears_nothing(self):
        hits = findings(
            "def f(node, answer):\n"
            "    answer = validate_my_way(answer)\n"
            "    node.accept_propagation(answer)\n",
            kinds=["sink"],
        )
        assert len(hits) == 1

    def test_taint_flows_through_containers_and_unpacking(self):
        hits = findings(
            "def f(node, codec, frame):\n"
            "    a, b = codec.decode(frame)\n"
            "    pair = [a]\n"
            "    node.update(pair, b)\n",
            kinds=["sink"],
        )
        assert len(hits) == 1

    def test_decoder_reads_taint_only_in_wire_scope(self):
        source = (
            "def f(dec):\n"
            "    n = dec.uvarint()\n"
            "    return bytearray(n)\n"
        )
        assert len(findings(source, WIRE_SCOPE, kinds=["alloc"])) == 1
        assert not findings(source, NET_SCOPE, kinds=["alloc"])

    def test_count_is_capped_not_tainted(self):
        assert not findings(
            "def f(dec):\n"
            "    return bytearray(dec.count())\n",
            WIRE_SCOPE,
            kinds=["alloc"],
        )

    def test_capped_still_trips_state_sinks(self):
        hits = findings(
            "def f(node, dec):\n"
            "    node.update(dec.count(), 1)\n",
            kinds=["sink"],
        )
        assert len(hits) == 1

    def test_cap_guard_downgrades_to_capped(self):
        assert not findings(
            "def f(dec, max_len):\n"
            "    n = dec.uvarint()\n"
            "    if n > max_len:\n"
            "        raise ValueError(n)\n"
            "    return bytearray(n)\n",
            WIRE_SCOPE,
            kinds=["alloc"],
        )

    def test_non_terminal_guard_does_not_downgrade(self):
        hits = findings(
            "def f(dec, max_len):\n"
            "    n = dec.uvarint()\n"
            "    if n > max_len:\n"
            "        n = max_len\n"
            "    return bytearray(n)\n",
            WIRE_SCOPE,
            kinds=["alloc"],
        )
        assert len(hits) == 1

    def test_tainted_multiplication_is_an_alloc(self):
        hits = findings(
            "def f(dec):\n"
            "    n = dec.uvarint()\n"
            "    return b'x' * n\n",
            WIRE_SCOPE,
            kinds=["alloc"],
        )
        assert len(hits) == 1

    def test_local_function_summary_propagates_taint(self):
        hits = findings(
            "def parse(codec, frame):\n"
            "    return codec.decode(frame)\n"
            "\n"
            "def f(node, codec, frame):\n"
            "    m = parse(codec, frame)\n"
            "    node.accept_propagation(m)\n",
            kinds=["sink"],
        )
        assert len(hits) == 1

    def test_self_attribute_taint_crosses_methods(self):
        hits = findings(
            "class C:\n"
            "    def stash(self, codec, frame):\n"
            "        self.last = codec.decode(frame)\n"
            "\n"
            "    def use(self, node):\n"
            "        node.accept_propagation(self.last)\n",
            kinds=["sink"],
        )
        assert len(hits) == 1

    def test_swallowed_validation_error_detected(self):
        hits = findings(
            "def f(codec, frame):\n"
            "    try:\n"
            "        return codec.decode(frame)\n"
            "    except ValueError:\n"
            "        pass\n",
            kinds=["swallow"],
        )
        assert len(hits) == 1

    def test_logged_handler_is_not_a_swallow(self):
        assert not findings(
            "def f(codec, frame, log):\n"
            "    try:\n"
            "        return codec.decode(frame)\n"
            "    except ValueError as exc:\n"
            "        log.warning('bad frame: %s', exc)\n"
            "        raise\n",
            kinds=["swallow"],
        )

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="except* is 3.11+")
    def test_try_star_body_reaches_sink(self):
        hits = findings(
            "import json\n"
            "def f(node, line):\n"
            "    try:\n"
            "        op = json.loads(line)\n"
            "        node.update(op['name'], op['value'])\n"
            "    except* ValueError:\n"
            "        raise\n",
            kinds=["sink"],
        )
        assert len(hits) == 1 and hits[0].line == 5

    def test_clamping_untrusted_value_detected(self):
        hits = findings(
            "def f(codec, frame, max_items):\n"
            "    m = codec.decode(frame)\n"
            "    return min(m.count, max_items)\n",
            kinds=["clamp"],
        )
        assert len(hits) == 1


class TestSanitizerRegistry:
    def test_validate_api_and_sanctioned_set_agree(self):
        """Every exported validator is sanctioned, so adding one to
        ``repro.core.validate`` without registering it in the taint
        engine (or vice versa) fails here."""
        exported = {
            name
            for name in validate_module.__all__
            if name.startswith("validate_")
        }
        assert exported <= SANCTIONED_SANITIZERS
        # The disk-state sanitizers living outside repro.core.validate:
        # WAL records and checkpoint snapshots.
        disk = {"validate_record", "validate_snapshot"}
        assert disk <= SANCTIONED_SANITIZERS
        assert SANCTIONED_SANITIZERS == exported | disk


WIRED_MODULES = [
    "repro/core/session.py",
    "repro/net/node.py",
    "repro/durable/journal.py",
    "repro/durable/checkpoint.py",
]


def _lint_real(rel_path, source=None):
    path = REPO_SRC / rel_path
    text = source if source is not None else path.read_text()
    return lint_source(text, f"src/{rel_path}", ALL_RULES)


class TestAcceptance:
    @pytest.mark.parametrize("rel_path", WIRED_MODULES)
    def test_wired_module_is_lint_clean(self, rel_path):
        violations = _lint_real(rel_path)
        assert violations == [], [v.render() for v in violations]

    def test_seeded_taint_in_session_shape_is_flagged(self):
        # conclude() with the validator call removed — the pre-R13 shape.
        source = (
            "class PullSession:\n"
            "    def conclude(self, answer):\n"
            "        outcome, _ = self._node.accept_propagation(answer)\n"
            "        return outcome\n"
        )
        hits = lint_source(
            source, "src/repro/core/session.py", rules_by_id("R13")
        )
        assert len(hits) == 1 and hits[0].rule_id == "R13"

    def test_seeded_taint_in_net_shape_is_flagged(self):
        source = (
            "async def sync_with(self, peer_id, link, pull):\n"
            "    answer = link.codec.decode(await link.read())\n"
            "    return pull.conclude(answer)\n"
        )
        hits = lint_source(source, "src/repro/net/node.py", rules_by_id("R13"))
        assert len(hits) == 1 and hits[0].rule_id == "R13"


def _sanitizer_bodies(source):
    """Line spans of the sanctioned sanitizers a module defines."""
    return [
        range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name in SANCTIONED_SANITIZERS
    ]


class TestMutation:
    """Remove any one ``validate_*`` call from a wired module and R13
    must fire — every sanitizer call site is individually load-bearing.
    """

    CALL = re.compile(r"\bvalidate_\w+\(")

    @pytest.mark.parametrize("rel_path", WIRED_MODULES)
    def test_every_validator_call_site_is_load_bearing(self, rel_path):
        original = (REPO_SRC / rel_path).read_text()
        bodies = _sanitizer_bodies(original)
        sites = [
            match
            for match in self.CALL.finditer(original)
            if not any(
                original.count("\n", 0, match.start()) + 1 in body for body in bodies
            )
        ]
        assert sites, f"{rel_path} wires no validators at all?"
        for match in sites:
            mutated = (
                original[: match.start()]
                + "_tainted_passthrough("
                + original[match.end() :]
            )
            hits = [
                v
                for v in _lint_real(rel_path, source=mutated)
                if v.rule_id == "R13"
            ]
            assert hits, (
                f"neutralizing {match.group(0)!r} at offset {match.start()} "
                f"in {rel_path} did not trip R13 — decorative validator?"
            )
