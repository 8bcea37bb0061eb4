"""Tests for the deterministic adversity layer (``repro.sim.adversity``).

The contract under test (see ``docs/architecture.md``, "Adversity model"):
schedules are validated declaratively and derived deterministically from the
``(spec, point key)`` pair, a zero schedule is a strict no-op (bit-identical
rows to a run without the layer), faults reach protocols only through the
normal message/slot interfaces (crash recovery works for protocols that
retransmit), jammed slots are accounted exactly, runs the adversary wedges
abort with a bounded :class:`AdversityAbort` instead of hanging, and the CLI
rejects bad adversity input through its usage-error path.
"""

from __future__ import annotations

import random

import pytest

from repro.cli import main as cli_main
from repro.experiments.harness import make_topology
from repro.experiments.registry import get_experiment
from repro.experiments.runner import run_experiment
from repro.sim.adversity import (
    ADVERSITY_KINDS,
    ADVERSITY_PRESETS,
    AdversitySpec,
    AdversityState,
    adversity_spec,
    adversity_state,
    adversity_stream_seed,
    canonical_adversity,
    resolve_adversity,
)
from repro.sim.channel import SlottedChannel
from repro.sim.errors import AdversityAbort, ProtocolError, SimulationTimeout
from repro.sim.metrics import MetricsRecorder
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.node import NodeProtocol
from repro.sim.synchronizer import ChannelSynchronizer
from repro.protocols.spanning.broadcast_convergecast import TreeAggregationProtocol
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.protocols.spanning.tree_utils import children_map
from repro.topology.generators import path_graph


# ----------------------------------------------------------------------
# spec construction and validation
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_presets_cover_the_declared_kinds(self):
        assert set(ADVERSITY_KINDS) <= set(ADVERSITY_PRESETS)
        for name, spec in ADVERSITY_PRESETS.items():
            assert spec.name == name

    def test_zero_spec_resolves_to_none(self):
        assert resolve_adversity(None) is None
        assert resolve_adversity("none") is None
        assert resolve_adversity({"name": "none"}) is None
        assert adversity_state(None, "k") is None
        assert ADVERSITY_PRESETS["none"].is_zero

    def test_nonzero_presets_are_not_zero(self):
        for name in ("crash", "loss", "jam", "churn"):
            assert not ADVERSITY_PRESETS[name].is_zero

    @pytest.mark.parametrize(
        "field", ["crash_rate", "loss_rate", "delay_rate", "jam_rate", "churn_rate"]
    )
    def test_out_of_range_rate_rejected(self, field):
        with pytest.raises(ValueError, match="must lie in"):
            AdversitySpec(**{field: 1.5})
        with pytest.raises(ValueError, match="must lie in"):
            AdversitySpec(**{field: -0.1})

    def test_unknown_preset_name_rejected(self):
        with pytest.raises(ValueError, match="unknown adversity preset"):
            adversity_spec("meteor")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            adversity_spec({"name": "loss", "severity": 3})

    def test_mapping_overrides_preset_base(self):
        spec = adversity_spec({"name": "loss", "loss_rate": 0.5})
        assert spec.name == "loss"
        assert spec.loss_rate == 0.5
        assert spec.delay_rate == ADVERSITY_PRESETS["loss"].delay_rate

    def test_canonical_form_is_complete_and_round_trips(self):
        canonical = canonical_adversity("jam")
        assert canonical["name"] == "jam"
        assert set(canonical) == set(AdversitySpec().to_dict())
        assert adversity_spec(canonical) == ADVERSITY_PRESETS["jam"]

    def test_canonical_respects_allowed_list(self):
        with pytest.raises(ValueError):
            canonical_adversity("jam", allowed=("none", "loss"))

    def test_registry_rejects_adversity_on_undeclared_experiment(self):
        spec = get_experiment("e1")
        with pytest.raises(ValueError, match="does not accept"):
            spec.params_for("quick", {"adversity": "loss"})


# ----------------------------------------------------------------------
# schedule determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_stream_seed_is_a_pure_function_of_the_point_key(self):
        assert adversity_stream_seed("e7", 64, "ring") == adversity_stream_seed(
            "e7", 64, "ring"
        )
        assert adversity_stream_seed("e7", 64, "ring") != adversity_stream_seed(
            "e7", 64, "grid"
        )

    def test_same_point_key_same_schedule(self):
        graph = make_topology("grid", 36, seed=11)

        def draws():
            state = adversity_state("loss", "det", 36)
            state.bind_topology(graph)
            rng = state.spawn_rng()
            return [
                state.drop_message(rng, 0, 1, r) for r in range(200)
            ], state.counters()

        assert draws() == draws()

    def test_different_substream_tags_differ(self):
        graph = make_topology("grid", 36, seed=11)
        outcomes = []
        for tag in ("multimedia", "p2p"):
            state = adversity_state("loss", "det", 36, tag)
            state.bind_topology(graph)
            rng = state.spawn_rng()
            outcomes.append([state.drop_message(rng, 0, 1, r) for r in range(200)])
        assert outcomes[0] != outcomes[1]

    def test_crash_windows_are_periodic(self):
        spec = adversity_spec(
            {"name": "crash", "crash_nodes": (3,), "crash_length": 2,
             "crash_period": 10, "crash_rate": 0.0}
        )
        state = AdversityState(spec, seed=1)
        state.bind_topology(make_topology("ring", 8, seed=11))
        pattern = [state.node_crashed(3, r) for r in range(30)]
        assert pattern[:10] == pattern[10:20] == pattern[20:30]
        assert sum(pattern[:10]) == 2

    def test_zero_adversity_rows_bit_identical(self):
        clean = run_experiment("e5", preset="quick")
        with_none = run_experiment(
            "e5", preset="quick", overrides={"adversity": "none"}
        )
        assert with_none.rows == clean.rows


# ----------------------------------------------------------------------
# crash-during-broadcast recovery
# ----------------------------------------------------------------------
class _RetransmittingFlood(NodeProtocol):
    """Root floods a token; holders re-send every round (crash-tolerant).

    A holder halts once it has heard the token from every neighbour: by then
    every neighbour holds it too, so the flood ends on its own even when a
    crash window swallowed some of its rounds.
    """

    # class default: a node that never ran on_start has not heard anything
    has_token = False

    def on_start(self):
        self.heard = set()
        self.has_token = bool(self.ctx.extra.get("root"))
        if self.has_token:
            self.send_to_all_neighbors("tok")

    def on_round(self, inbox, channel):
        for message in inbox:
            self.heard.add(message.sender)
        if inbox and not self.has_token:
            self.has_token = True
        if self.has_token:
            self.send_to_all_neighbors("tok")
            if len(self.heard) == len(self.neighbors):
                self.halt()


class TestCrashRecovery:
    def test_flood_survives_a_mid_broadcast_crash(self):
        graph = make_topology("ring", 12, seed=11)
        nodes = sorted(graph.nodes())
        root, victim = nodes[0], nodes[len(nodes) // 2]
        # period 8 guarantees the sampled window intersects the flood (which
        # needs >= 6 rounds to reach the antipodal victim on a 12-ring)
        state = adversity_state(
            {"name": "crash", "crash_rate": 0.0, "crash_nodes": (victim,),
             "crash_length": 3, "crash_period": 8},
            "crash-test", 12,
        )
        result = MultimediaNetwork(graph, seed=3).run(
            _RetransmittingFlood,
            inputs={root: {"root": True}},
            adversity=state,
        )
        assert all(p.has_token for p in result.protocols.values())
        # the victim actually lost rounds to its crash window
        assert state.crash_node_rounds > 0

    def test_crashed_from_round_zero_gets_deferred_start(self):
        graph = make_topology("ring", 8, seed=11)
        nodes = sorted(graph.nodes())
        root, victim = nodes[0], nodes[3]
        # the victim is down for rounds 0..3: crash_nodes forces it
        # crash-prone and this point key draws window offset 0
        state = adversity_state(
            {"name": "crash", "crash_rate": 0.0, "crash_nodes": (victim,),
             "crash_length": 4, "crash_period": 64},
            "late-start-19", 8,
        )
        state.bind_topology(graph)
        assert state.node_crashed(victim, 0)
        result = MultimediaNetwork(graph, seed=3).run(
            _RetransmittingFlood,
            inputs={root: {"root": True}},
            adversity=state,
        )
        assert result.protocols[victim].has_token
        assert state.crash_node_rounds > 0


class _PingsEveryRound(NodeProtocol):
    """Messages every neighbour in on_start and again in every round."""

    def on_start(self):
        self.send_to_all_neighbors("ping")

    def on_round(self, inbox, channel):
        self.send_to_all_neighbors("ping")


class TestDeferredStart:
    @pytest.mark.parametrize("simulator", ("multimedia", "synchronizer"))
    def test_start_and_first_round_share_one_link_budget(self, simulator):
        # node 1 is down at round 0, so its start is deferred to its first up
        # round, where mail from node 0 is already waiting; on_start and that
        # round's on_round together sending twice on one link breaks the
        # one-message-per-link rule
        graph = path_graph(2)
        state = adversity_state(
            {"name": "crash", "crash_rate": 0.0, "crash_nodes": (1,),
             "crash_length": 4, "crash_period": 64},
            "deferred-double-send-9",
        )
        state.bind_topology(graph)
        assert state.node_crashed(1, 0)
        if simulator == "multimedia":
            sim = MultimediaNetwork(graph, seed=3)
        else:
            sim = ChannelSynchronizer(graph, seed=3)
        with pytest.raises(ProtocolError, match="two messages"):
            sim.run(_PingsEveryRound, adversity=state)


# ----------------------------------------------------------------------
# jam accounting
# ----------------------------------------------------------------------
class TestJamAccounting:
    def test_certain_jam_forces_every_slot_to_collide(self):
        state = AdversityState(adversity_spec({"name": "jam", "jam_rate": 1.0}),
                               seed=9)
        recorder = MetricsRecorder()
        channel = SlottedChannel(metrics=recorder, adversity=state)
        for slot in range(20):
            event = channel.resolve_slot(slot, [(0, "x")] if slot % 2 else [])
            assert event.is_collision()
        assert recorder.channel_jammed == 20
        assert recorder.channel_collision == 20
        assert state.slots_jammed == 20

    def test_jammed_slots_counted_exactly(self):
        state = AdversityState(adversity_spec("jam"), seed=17)
        recorder = MetricsRecorder()
        channel = SlottedChannel(metrics=recorder, adversity=state)
        rng = random.Random(4)
        for slot in range(300):
            writers = [(i, i) for i in range(rng.randrange(3))]
            channel.resolve_slot(slot, writers)
        assert recorder.channel_jammed == state.slots_jammed
        assert 0 < recorder.channel_jammed < 300
        # a jam can only ever add collisions, never hide a write
        assert recorder.channel_jammed <= recorder.channel_collision

    def test_no_adversity_leaves_jam_counter_zero(self):
        recorder = MetricsRecorder()
        channel = SlottedChannel(metrics=recorder)
        channel.resolve_slot(0, [(0, "a"), (1, "b")])
        assert recorder.channel_collision == 1
        assert recorder.channel_jammed == 0


# ----------------------------------------------------------------------
# bounded aborts: the adversary can wedge a run, never hang it
# ----------------------------------------------------------------------
def _aggregation_inputs(graph, root):
    parents, _, _ = build_bfs_forest(graph, [root])
    children = children_map(parents)
    return {
        node: {
            "parent": parents[node],
            "children": tuple(children[node]),
            "value": 1,
            "combine": lambda a, b: a + b,
        }
        for node in graph.nodes()
    }


class TestBoundedAbort:
    def test_heavy_loss_aborts_within_budget(self):
        graph = make_topology("grid", 36, seed=11)
        root = min(graph.nodes())
        state = adversity_state(
            {"name": "loss", "loss_rate": 0.6, "delay_rate": 0.0},
            "abort-test", 36,
        )
        with pytest.raises(AdversityAbort) as excinfo:
            MultimediaNetwork(graph, seed=3).run(
                TreeAggregationProtocol,
                inputs=_aggregation_inputs(graph, root),
                adversity=state,
            )
        abort = excinfo.value
        assert abort.rounds <= state.round_budget(36)
        assert abort.pending > 0
        assert isinstance(abort, SimulationTimeout)  # safety nets still catch it

    def test_round_budget_override_is_honoured(self):
        graph = make_topology("grid", 36, seed=11)
        root = min(graph.nodes())
        state = adversity_state(
            {"name": "loss", "loss_rate": 0.6, "delay_rate": 0.0,
             "round_budget": 40, "stall_rounds": 10_000},
            "budget-test", 36,
        )
        with pytest.raises(AdversityAbort) as excinfo:
            MultimediaNetwork(graph, seed=3).run(
                TreeAggregationProtocol,
                inputs=_aggregation_inputs(graph, root),
                adversity=state,
            )
        assert excinfo.value.rounds == 40

    def test_synchronizer_lost_message_deadlock_aborts(self):
        graph = make_topology("grid", 25, seed=11)
        root = min(graph.nodes())
        state = adversity_state(
            {"name": "loss", "loss_rate": 0.7, "delay_rate": 0.0},
            "sync-abort", 25,
        )
        with pytest.raises(AdversityAbort):
            ChannelSynchronizer(graph, max_link_delay=3, seed=3).run(
                TreeAggregationProtocol,
                inputs=_aggregation_inputs(graph, root),
                adversity=state,
            )

    def test_experiment_rows_report_abort_instead_of_raising(self):
        result = run_experiment(
            "e7", preset="quick",
            overrides={"adversity": {"name": "loss", "loss_rate": 0.6}},
        )
        cells = {row["t_multimedia"] for row in result.rows}
        assert "abort" in cells  # bounded, structured — not a traceback


# ----------------------------------------------------------------------
# CLI validation paths
# ----------------------------------------------------------------------
class TestCliValidation:
    def test_unknown_adversity_name_is_a_usage_error(self, capsys):
        code = cli_main(["run", "e7", "--preset", "quick",
                         "--adversity", "meteor"])
        assert code == 2
        assert "unknown adversity preset" in capsys.readouterr().err

    def test_out_of_range_rate_is_a_usage_error(self, capsys):
        code = cli_main(["run", "e7", "--preset", "quick",
                         "--adversity", "loss",
                         "--set", "adversity.loss_rate=1.5"])
        assert code == 2
        assert "must lie in" in capsys.readouterr().err

    def test_unknown_adversity_field_is_a_usage_error(self, capsys):
        code = cli_main(["run", "e7", "--preset", "quick",
                         "--set", "adversity.meteor_rate=0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_dotted_field_is_a_usage_error(self, capsys):
        code = cli_main(["run", "e7", "--preset", "quick",
                         "--set", "adversity.=0.5"])
        assert code == 2
        assert "adversity.FIELD" in capsys.readouterr().err

    def test_experiment_without_axis_rejects_flag(self, capsys):
        code = cli_main(["run", "e1", "--preset", "quick",
                         "--adversity", "loss"])
        assert code == 2
        assert "does not accept" in capsys.readouterr().err

    def test_named_preset_with_dotted_refinement_runs(self, capsys):
        code = cli_main(["run", "e7", "--preset", "quick", "--quiet",
                         "--adversity", "loss",
                         "--set", "adversity.loss_rate=0.01",
                         "--set", "adversity.delay_rate=0.0"])
        assert code == 0
