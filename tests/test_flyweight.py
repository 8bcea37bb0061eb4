"""Flyweight sim layer tests (``repro.sim.flyweight``).

The contract: a flyweight protocol produces exactly the outputs its
classic per-node counterpart produces — on the synchronous simulator, under
every adversity preset, and under the channel synchronizer — while holding
all per-node state in slot-indexed columns on one shared instance.  Both
simulators have one loop over flyweight slots, and a classic protocol runs
through :class:`~repro.sim.flyweight.NodeProtocolAdapter`, so each pair
here compares a twin against its classic protocol driven by the adapter:
:class:`TreeAggregationProtocol` against :class:`TreeAggregationFlyweight`,
and the two channel-protocol pairs.  The classic protocols' own counters
are pinned in ``tests/test_classic_fingerprints.py``; the stream-era
fingerprints live in ``tests/test_perf_equivalence.py`` (golden v4).
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import make_topology
from repro.protocols.collision import (
    GreenbergLadnerEstimator,
    GreenbergLadnerFlyweight,
    RandomizedLeaderElection,
    RandomizedLeaderElectionFlyweight,
)
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.protocols.spanning.broadcast_convergecast import (
    TreeAggregationFlyweight,
    TreeAggregationProtocol,
)
from repro.protocols.spanning.tree_utils import children_map
from repro.sim.adversity import ADVERSITY_PRESETS, adversity_state
from repro.sim.errors import AdversityAbort
from repro.sim.flyweight import (
    FlyweightEnvironment,
    FlyweightProtocol,
    is_flyweight_factory,
)
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.synchronizer import ChannelSynchronizer


def aggregation_inputs(graph, redistribute):
    """Build per-node forest inputs for a BFS tree rooted at the min node."""
    root = min(graph.nodes())
    parents, _, _ = build_bfs_forest(graph, [root])
    children = children_map(parents)
    return {
        node: {
            "parent": parents[node],
            "children": tuple(children[node]),
            "value": 1,
            "combine": lambda a, b: a + b,
            "redistribute": redistribute,
        }
        for node in graph.nodes()
    }


TOPOLOGIES = (("grid", 36), ("ring", 24), ("scale_free", 48))


class TestFactoryDetection:
    def test_flyweight_subclass_detected(self):
        assert is_flyweight_factory(TreeAggregationFlyweight)

    def test_classic_protocol_rejected(self):
        assert not is_flyweight_factory(TreeAggregationProtocol)

    def test_non_class_rejected(self):
        assert not is_flyweight_factory(lambda ctx: None)


class TestSynchronousEquivalence:
    @pytest.mark.parametrize("kind,n", TOPOLOGIES)
    @pytest.mark.parametrize("redistribute", (False, True))
    def test_results_and_rounds_match_classic(self, kind, n, redistribute):
        graph = make_topology(kind, n, seed=11)
        inputs = aggregation_inputs(graph, redistribute)
        classic = MultimediaNetwork(graph, seed=3).run(
            TreeAggregationProtocol, inputs=inputs
        )
        flyweight = MultimediaNetwork(graph, seed=3).run(
            TreeAggregationFlyweight, inputs=inputs
        )
        assert flyweight.results == classic.results
        assert flyweight.rounds == classic.rounds
        assert (
            flyweight.metrics.point_to_point_messages
            == classic.metrics.point_to_point_messages
        )


CHANNEL_PAIRS = (
    (GreenbergLadnerEstimator, GreenbergLadnerFlyweight),
    (RandomizedLeaderElection, RandomizedLeaderElectionFlyweight),
)


class TestChannelProtocolEquivalence:
    """The PR 7 follow-up twins: channel-feedback protocols, no mail."""

    @pytest.mark.parametrize("kind,n", TOPOLOGIES)
    @pytest.mark.parametrize("classic,flyweight", CHANNEL_PAIRS)
    def test_results_and_rounds_match_classic(self, kind, n, classic, flyweight):
        graph = make_topology(kind, n, seed=11)
        for seed in (3, 9):
            classic_run = MultimediaNetwork(graph, seed=seed).run(classic)
            flyweight_run = MultimediaNetwork(graph, seed=seed).run(flyweight)
            assert flyweight_run.results == classic_run.results
            assert flyweight_run.rounds == classic_run.rounds
            assert flyweight_run.metrics.rounds == classic_run.metrics.rounds
            assert (
                flyweight_run.channel_history == classic_run.channel_history
            )

    @pytest.mark.parametrize(
        "preset", sorted(name for name in ADVERSITY_PRESETS if name != "none")
    )
    @pytest.mark.parametrize("classic,flyweight", CHANNEL_PAIRS)
    def test_outcome_matches_classic_under_preset(self, preset, classic, flyweight):
        graph = make_topology("grid", 36, seed=11)
        outcomes = []
        for factory in (classic, flyweight):
            adv = adversity_state(preset, "flyweight-channel", 36, "grid", preset)
            try:
                result = MultimediaNetwork(graph, seed=3).run(
                    factory, adversity=adv
                )
                outcomes.append(("ok", result.results, result.rounds, adv.counters()))
            except AdversityAbort as abort:
                outcomes.append(
                    ("abort", abort.rounds, abort.reason, adv.counters())
                )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("flyweight", [pair[1] for pair in CHANNEL_PAIRS])
    def test_detected_as_flyweight(self, flyweight):
        assert is_flyweight_factory(flyweight)


class TestAdversityEquivalence:
    @pytest.mark.parametrize(
        "preset", sorted(name for name in ADVERSITY_PRESETS if name != "none")
    )
    def test_outcome_matches_classic_under_preset(self, preset):
        graph = make_topology("grid", 36, seed=11)
        inputs = aggregation_inputs(graph, True)
        outcomes = []
        for factory in (TreeAggregationProtocol, TreeAggregationFlyweight):
            adv = adversity_state(preset, "flyweight-test", 36, "grid", preset)
            try:
                result = MultimediaNetwork(graph, seed=3).run(
                    factory, inputs=inputs, adversity=adv
                )
                outcomes.append(("ok", result.results, result.rounds, adv.counters()))
            except AdversityAbort as abort:
                outcomes.append(
                    ("abort", abort.rounds, abort.reason, adv.counters())
                )
        assert outcomes[0] == outcomes[1]


class TestSynchronizerEquivalence:
    @pytest.mark.parametrize("kind,n", TOPOLOGIES)
    def test_report_matches_classic(self, kind, n):
        graph = make_topology(kind, n, seed=11)
        inputs = aggregation_inputs(graph, True)
        classic = ChannelSynchronizer(graph, max_link_delay=3, seed=3).run(
            TreeAggregationProtocol, inputs=inputs
        )
        flyweight = ChannelSynchronizer(graph, max_link_delay=3, seed=3).run(
            TreeAggregationFlyweight, inputs=inputs
        )
        assert flyweight.results == classic.results
        assert flyweight.pulses == classic.pulses
        assert flyweight.asynchronous_time == classic.asynchronous_time
        assert flyweight.algorithm_messages == classic.algorithm_messages
        assert flyweight.ack_messages == classic.ack_messages
        assert flyweight.busy_tone_slots == classic.busy_tone_slots

    @pytest.mark.parametrize("preset", ("loss", "crash"))
    def test_outcome_matches_classic_under_adversity(self, preset):
        graph = make_topology("grid", 36, seed=11)
        inputs = aggregation_inputs(graph, True)
        outcomes = []
        for factory in (TreeAggregationProtocol, TreeAggregationFlyweight):
            adv = adversity_state(preset, "flyweight-sync", 36, "grid", preset)
            try:
                report = ChannelSynchronizer(graph, max_link_delay=3, seed=3).run(
                    factory, inputs=inputs, adversity=adv
                )
                outcomes.append(
                    ("ok", report.results, report.pulses, report.total_messages)
                )
            except AdversityAbort as abort:
                outcomes.append(("abort", abort.rounds, abort.reason))
        assert outcomes[0] == outcomes[1]


class TestFlyweightState:
    def test_columns_are_slot_indexed(self):
        graph = make_topology("ring", 8, seed=11)
        inputs = aggregation_inputs(graph, False)
        network = MultimediaNetwork(graph, seed=3)
        env = network._flyweight_environment()
        assert env.num_slots == graph.num_nodes()
        assert sorted(env.slot_of[node] for node in env.nodes) == list(
            range(env.num_slots)
        )

    def test_halt_slot_bookkeeping(self):
        env = FlyweightEnvironment(
            nodes=("a", "b"),
            neighbors=(("b",), ("a",)),
            link_weights=({"b": 1.0}, {"a": 1.0}),
            n=2,
            streams=None,
        )

        class Noop(FlyweightProtocol):
            def on_round(self, slot, inbox, channel):
                pass

        protocol = Noop(env)
        assert protocol.active_count == 2
        protocol.halt_slot(env.slot_of["b"], result=7)
        assert protocol.active_count == 1
        assert protocol.results_by_node() == {"a": None, "b": 7}
