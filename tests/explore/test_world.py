"""World semantics: budgets, enabled actions, cloning, state hashing."""

import pytest

import repro.explore.__main__ as explore_cli
from repro.core.delta import DeltaEpidemicNode, DeltaPayload
from repro.core.messages import ItemPayload
from repro.core.protocol import DeltaProtocolNode
from repro.durable.checkpoint import encode_checkpoint, load_node
from repro.explore import (
    Crash,
    ExplorationConfig,
    Originate,
    Recover,
    StartSession,
    build_world,
)
from repro.explore.actions import FetchOutOfBound, InapplicableActionError
from repro.substrate.operations import Append

SMALL = ExplorationConfig(
    protocol="dbvv",
    n_nodes=2,
    items=("x0",),
    max_updates=1,
    max_faults=0,
    max_crashes=1,
    max_oob=0,
    fault_variants=False,
)


class TestConfig:
    BUDGETS = ("max_updates", "max_faults", "max_crashes", "max_oob")

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_negative_budget_is_rejected(self, budget):
        with pytest.raises(ValueError, match=budget):
            ExplorationConfig(**{budget: -1})
        with pytest.raises(ValueError, match=budget):
            ExplorationConfig.from_json({**SMALL.to_json(), budget: -1})

    def test_cli_exits_2_on_a_negative_budget(self, capsys):
        assert explore_cli.main(["--updates", "-1", "--depth", "1"]) == 2
        assert "max_updates must not be negative" in capsys.readouterr().err


class TestEnabledActions:
    def test_initial_alphabet_is_deterministic(self):
        first = build_world(SMALL).enabled_actions()
        second = build_world(SMALL).enabled_actions()
        assert first == second

    def test_budget_exhaustion_removes_updates(self):
        world = build_world(SMALL)
        world.apply(Originate(0, "x0"))
        assert not any(
            isinstance(a, Originate) for a in world.enabled_actions()
        )

    def test_crashed_node_cannot_act_but_can_recover(self):
        world = build_world(SMALL)
        world.apply(Crash(1))
        actions = world.enabled_actions()
        assert not any(isinstance(a, StartSession) for a in actions)
        assert Recover(1) in actions

    def test_oob_requires_protocol_support(self):
        no_oob = build_world(
            ExplorationConfig(protocol="per-item-vv", n_nodes=2, items=("x0",))
        )
        assert not any(
            isinstance(a, FetchOutOfBound) for a in no_oob.enabled_actions()
        )

    def test_fault_variants_gate_session_faults(self):
        faulty = build_world(
            ExplorationConfig(n_nodes=2, items=("x0",), max_faults=1)
        )
        assert any(
            isinstance(a, StartSession) and a.fault is not None
            for a in faulty.enabled_actions()
        )
        assert not any(
            isinstance(a, StartSession) and a.fault is not None
            for a in build_world(SMALL).enabled_actions()
        )


class TestApply:
    def test_disabled_actions_raise_inapplicable(self):
        world = build_world(SMALL)
        world.apply(Originate(0, "x0"))
        with pytest.raises(InapplicableActionError):
            world.apply(Originate(0, "x0"))  # budget spent
        with pytest.raises(InapplicableActionError):
            world.apply(Recover(0))  # already up
        world.apply(Crash(1))
        with pytest.raises(InapplicableActionError):
            world.apply(StartSession(0, 1))  # responder down

    def test_every_enabled_action_applies_cleanly(self):
        for action in build_world(SMALL).enabled_actions():
            build_world(SMALL).apply(action)


class TestClone:
    def test_clone_is_independent(self):
        world = build_world(SMALL)
        clone = world.clone()
        clone.apply(Originate(0, "x0"))
        assert world.budgets_left()["updates"] == 1
        assert clone.budgets_left()["updates"] == 0
        assert world.state_key() != clone.state_key()

    def test_clone_shares_frozen_config(self):
        world = build_world(SMALL)
        assert world.clone().config is world.config


class TestStateKey:
    def test_equal_histories_hash_equal(self):
        a, b = build_world(SMALL), build_world(SMALL)
        for world in (a, b):
            world.apply(Originate(0, "x0"))
            world.apply(StartSession(1, 0))
        assert a.state_key() == b.state_key()

    def test_budgets_are_part_of_state_key_but_not_protocol_key(self):
        spent = build_world(SMALL)
        spent.apply(Crash(0))
        spent.apply(Recover(0))
        fresh = build_world(SMALL)
        assert spent.protocol_key() == fresh.protocol_key()
        assert spent.state_key() != fresh.state_key()

    def test_delta_op_histories_are_part_of_the_key(self):
        """A delta node restored from a checkpoint has the same bytes as
        the live one but no op history: it ships a whole value where the
        live node ships a chain, so the two must not share a key."""
        live = DeltaProtocolNode(0, 2, ("x0",))
        live.user_update("x0", Append(b"a"))
        restored = DeltaProtocolNode(0, 2, ("x0",))
        _lsn, restored.node = load_node(
            encode_checkpoint(0, live.node), DeltaEpidemicNode
        )
        assert encode_checkpoint(0, restored.node) == encode_checkpoint(0, live.node)
        request = DeltaEpidemicNode(1, 2, ("x0",)).make_propagation_request()
        (chain,) = live.node.send_propagation(request).items
        (whole,) = restored.node.send_propagation(request).items
        assert isinstance(chain, DeltaPayload) and isinstance(whole, ItemPayload)
        assert live.exploration_key() != restored.exploration_key()


class TestDifferentialWorld:
    def test_members_step_in_lockstep(self):
        config = ExplorationConfig(
            n_nodes=2,
            items=("x0",),
            max_updates=1,
            max_faults=0,
            max_crashes=0,
            max_oob=0,
            fault_variants=False,
            differential=("per-item-vv", "wuu-bernstein"),
        )
        world = build_world(config)
        world.apply(Originate(0, "x0"))
        world.apply(StartSession(1, 0))
        values = {
            member.protocol: member.nodes[1].read("x0")
            for member in world.worlds
        }
        assert set(values.values()) == {b"A"}
