"""Unit suite for the await-point control-flow analysis.

These tests pin the *flow semantics* down with a toy mutation model
(any assignment to a name starting with ``mut``), independent of R10's
shared-state model: branch joins, dead paths, single-pass loops, guard
regions, and the synthetic awaits of ``async with`` / ``async for``.
"""

import ast
import sys
import textwrap

import pytest

from repro.lint.flow import is_lock_expression, iter_awaits
from repro.lint.rules.r10_await_atomicity import AtomicityScanner


def toy_mutations(stmt):
    events = []
    for node in ast.walk(stmt):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.startswith("mut"):
                    events.append((node, target.id))
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Name) and target.id.startswith("mut"):
                events.append((node, target.id))
    return events


def spans_of(source):
    tree = ast.parse(textwrap.dedent(source))
    fn = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
    )
    return AtomicityScanner(toy_mutations).scan(fn)


class TestStraightLine:
    def test_mutation_await_mutation_is_a_span(self):
        spans = spans_of(
            """
            async def f():
                mut_a = 1
                await g()
                mut_b = 2
            """
        )
        assert len(spans) == 1
        assert spans[0].first_label == "mut_a"
        assert spans[0].second_label == "mut_b"

    def test_mutations_before_the_await_are_atomic(self):
        spans = spans_of(
            """
            async def f():
                mut_a = 1
                mut_b = 2
                await g()
            """
        )
        assert spans == []

    def test_await_then_mutations_is_atomic(self):
        spans = spans_of(
            """
            async def f():
                await g()
                mut_a = 1
                mut_b = 2
            """
        )
        assert spans == []

    def test_await_and_mutation_in_one_statement_not_paired(self):
        # Lexical order within one simple statement: awaits first, then
        # mutations — `mut = await g()` completes the await before the
        # bind, so it cannot be the *first* half of a span on its own.
        spans = spans_of(
            """
            async def f():
                mut_a = await g()
                mut_b = 2
            """
        )
        assert spans == []

    def test_each_second_mutation_reported_once(self):
        spans = spans_of(
            """
            async def f():
                mut_a = 1
                await g()
                await h()
                mut_b = 2
                await g()
                mut_c = 3
            """
        )
        assert [(s.first_label, s.second_label) for s in spans] == [
            ("mut_a", "mut_b"),
            ("mut_b", "mut_c"),
        ]


class TestBranches:
    def test_mutation_in_one_arm_await_in_the_other_not_paired(self):
        spans = spans_of(
            """
            async def f(cond):
                if cond:
                    mut_a = 1
                else:
                    await g()
                mut_b = 2
            """
        )
        assert spans == []

    def test_mutation_in_an_arm_pairs_with_await_after_the_join(self):
        spans = spans_of(
            """
            async def f(cond):
                if cond:
                    mut_a = 1
                await g()
                mut_b = 2
            """
        )
        assert len(spans) == 1
        assert spans[0].first_label == "mut_a"

    def test_returning_arm_contributes_nothing_to_the_join(self):
        spans = spans_of(
            """
            async def f(cond):
                if cond:
                    mut_a = 1
                    return
                await g()
                mut_b = 2
            """
        )
        assert spans == []

    def test_raise_kills_the_path(self):
        spans = spans_of(
            """
            async def f(cond):
                mut_a = 1
                if cond:
                    raise ValueError("no")
                mut_b = 2
                await g()
            """
        )
        assert spans == []


class TestLoops:
    def test_back_edge_sequences_are_complete_transactions(self):
        # mut -> await across iterations: each iteration's transaction
        # finishes before its own await; the once-through walk accepts.
        spans = spans_of(
            """
            async def f():
                while True:
                    mut_a = 1
                    await g()
            """
        )
        assert spans == []

    def test_span_inside_one_iteration_is_reported(self):
        spans = spans_of(
            """
            async def f():
                while True:
                    mut_a = 1
                    await g()
                    mut_b = 2
            """
        )
        assert len(spans) == 1

    def test_mutation_before_loop_pairs_with_loop_await(self):
        spans = spans_of(
            """
            async def f(items):
                mut_a = 1
                for item in items:
                    await g(item)
                mut_b = 2
            """
        )
        assert len(spans) == 1

    def test_async_for_awaits_before_the_body(self):
        spans = spans_of(
            """
            async def f(aiter):
                mut_a = 1
                async for item in aiter:
                    mut_b = 2
            """
        )
        assert len(spans) == 1
        assert spans[0].second_label == "mut_b"


class TestGuardRegions:
    def test_lock_guarded_region_is_sanctioned(self):
        spans = spans_of(
            """
            async def f(self):
                async with self._lock:
                    mut_a = 1
                    await g()
                    mut_b = 2
            """
        )
        assert spans == []

    def test_non_lock_async_with_still_awaits(self):
        # `async with conn:` awaits __aenter__, so a prior mutation
        # pairs with a mutation inside the (unguarded) body.
        spans = spans_of(
            """
            async def f(conn):
                mut_a = 1
                async with conn:
                    mut_b = 2
            """
        )
        assert len(spans) == 1

    def test_mutation_before_the_lock_is_not_guarded(self):
        spans = spans_of(
            """
            async def f(self):
                mut_a = 1
                async with self._lock:
                    await g()
                mut_b = 2
            """
        )
        assert len(spans) == 1
        assert spans[0].second_label == "mut_b"

    def test_sync_with_is_not_an_await_point(self):
        spans = spans_of(
            """
            async def f(ctx):
                mut_a = 1
                with ctx:
                    mut_b = 2
            """
        )
        assert spans == []


class TestTryExcept:
    def test_handler_entered_from_mid_body_sees_awaited_pendings(self):
        spans = spans_of(
            """
            async def f():
                try:
                    mut_a = 1
                    await g()
                except OSError:
                    mut_b = 2
            """
        )
        assert len(spans) == 1
        assert spans[0].second_label == "mut_b"

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="except* is 3.11+")
    def test_try_star_body_is_walked_like_try(self):
        spans = spans_of(
            """
            async def f():
                try:
                    mut_a = 1
                    await g()
                    mut_b = 2
                except* ValueError:
                    raise
            """
        )
        assert [(s.first_label, s.second_label) for s in spans] == [
            ("mut_a", "mut_b")
        ]


class TestNestedScopes:
    def test_nested_defs_do_not_leak_awaits_or_mutations(self):
        spans = spans_of(
            """
            async def f():
                mut_a = 1
                async def inner():
                    await g()
                    mut_b = 2
                mut_c = 3
            """
        )
        assert spans == []

    def test_iter_awaits_skips_nested_functions(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                async def f():
                    await g()
                    async def inner():
                        await h()
                """
            )
        )
        fn = tree.body[0]
        assert len(list(iter_awaits(fn))) == 1


class TestLockRecognition:
    def _expr(self, text):
        return ast.parse(text, mode="eval").body

    def test_conventional_lock_spellings(self):
        for text in (
            "lock",
            "self._lock",
            "self._link_locks[peer_id]",
            "self._link_locks.setdefault(peer_id, asyncio.Lock())",
            "mutex",
            "self._semaphore",
        ):
            assert is_lock_expression(self._expr(text)), text

    def test_non_lock_contexts(self):
        for text in ("conn", "self.session", "open_connection(host)"):
            assert not is_lock_expression(self._expr(text)), text
