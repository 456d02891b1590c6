"""Mutation smoke tests: the full find → minimize → save → replay loop.

Each known-bug mutation must be (re-)found by a small bounded
exploration, shrink to a minimal schedule, survive a JSON round-trip,
and reproduce on replay — the end-to-end workflow a real counterexample
travels.  A model checker that cannot re-find a known bug is vacuous;
these three keep the oracle honest (see ``repro.explore.mutations``).
"""

import pytest

from repro.explore import Explorer, Trace, load_trace, replay_trace, save_trace
from repro.explore.minimize import minimize_schedule
from repro.explore.mutations import MUTATIONS, apply_mutation


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_yields_minimized_replayable_counterexample(name, tmp_path):
    mutation = MUTATIONS[name]
    with apply_mutation(name):
        result = Explorer(mutation.config, mutation.depth).run()
        assert result.violation is not None, (
            f"exploration missed the {name} mutation"
        )
        minimized, violation = minimize_schedule(
            mutation.config, result.schedule
        )
        assert 1 <= len(minimized) <= len(result.schedule)
        path = tmp_path / f"{name}.json"
        save_trace(
            Trace(mutation.config, tuple(minimized), violation, note=name),
            path,
        )
        report = replay_trace(load_trace(path))
        assert report.reproduced
        assert report.matches_expected, report.summary()
    # Restored protocol: the same trace must no longer reproduce.
    assert not replay_trace(load_trace(path)).reproduced


def test_adopt_any_needs_the_differential_oracle():
    """The lost-update mutation keeps all single-protocol bookkeeping
    self-consistent; only the cross-protocol comparison can see it."""
    mutation = MUTATIONS["adopt-any"]
    assert mutation.config.differential, (
        "adopt-any is only observable differentially"
    )


def test_unknown_mutation_is_rejected():
    with pytest.raises(ValueError):
        with apply_mutation("teleport"):
            pass


def test_mutation_restores_original_method_on_error():
    mutation = MUTATIONS["skip-move"]
    original = getattr(mutation.target, mutation.attr)
    with pytest.raises(RuntimeError):
        with apply_mutation("skip-move"):
            assert getattr(mutation.target, mutation.attr) is not original
            raise RuntimeError("boom")
    assert getattr(mutation.target, mutation.attr) is original
