"""Pinned run fingerprints of the classic per-node protocols on both simulators.

Every classic :class:`~repro.sim.node.NodeProtocol` in ``src/`` is run on one
topology, on :class:`MultimediaNetwork` and on :class:`ChannelSynchronizer`,
fault-free and under every adversity preset.  Each run is reduced to its
exact work counters (rounds or pulses, messages, channel slots by outcome,
fault counters) and a digest of the per-node results — or, for a run the
adversary kills, the abort's rounds, pending count and reason.  The expected
values in ``tests/data/classic_fingerprints.json`` are literal: they were
recorded from the per-node simulator loops that predate the flyweight
adapter, so any drift in how classic protocols are driven (dispatch order,
deferred starts, fault draw order, termination) shows up here.

Regenerate (only when a change to classic-protocol behaviour is intended):

    PYTHONPATH=src python tests/test_classic_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.harness import make_topology
from repro.protocols.collision import (
    BitByBitLeaderElection,
    GreenbergLadnerEstimator,
    RandomizedLeaderElection,
)
from repro.protocols.spanning.bfs import BFSTreeProtocol, build_bfs_forest
from repro.protocols.spanning.broadcast_convergecast import TreeAggregationProtocol
from repro.protocols.spanning.tree_utils import children_map
from repro.sim.adversity import ADVERSITY_KINDS, adversity_state
from repro.sim.errors import AdversityAbort
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.synchronizer import ChannelSynchronizer

FINGERPRINTS = Path(__file__).parent / "data" / "classic_fingerprints.json"

TOPOLOGY = ("grid", 36)
TOPOLOGY_SEED = 11
SIM_SEED = 3


def _graph():
    kind, n = TOPOLOGY
    return make_topology(kind, n, seed=TOPOLOGY_SEED)


def _aggregation_inputs(graph, redistribute):
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


#: name → (classic factory, per-node inputs builder or None)
PROTOCOLS = {
    "tree_aggregation": (
        TreeAggregationProtocol, lambda g: _aggregation_inputs(g, False)
    ),
    "tree_aggregation_redistribute": (
        TreeAggregationProtocol, lambda g: _aggregation_inputs(g, True)
    ),
    "bfs_tree": (
        BFSTreeProtocol, lambda g: {min(g.nodes()): {"is_root": True}}
    ),
    "greenberg_ladner": (GreenbergLadnerEstimator, None),
    "randomized_leader_election": (RandomizedLeaderElection, None),
    "bit_by_bit_leader_election": (BitByBitLeaderElection, None),
}

SIMULATORS = ("multimedia", "synchronizer")


def _results_digest(results):
    text = repr(sorted(results.items(), key=lambda item: repr(item[0])))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def fingerprint(protocol, simulator, preset):
    """Run one case and reduce it to its exact counters and results digest."""
    factory, make_inputs = PROTOCOLS[protocol]
    graph = _graph()
    inputs = make_inputs(graph) if make_inputs is not None else None
    state = adversity_state(preset, "classic-fingerprint", protocol, simulator)
    record = {}
    try:
        if simulator == "multimedia":
            result = MultimediaNetwork(graph, seed=SIM_SEED).run(
                factory, inputs=inputs, adversity=state
            )
            metrics = result.metrics
            record.update(
                rounds=result.rounds,
                messages=metrics.point_to_point_messages,
                slots={
                    "idle": metrics.channel_idle,
                    "success": metrics.channel_success,
                    "collision": metrics.channel_collision,
                    "jammed": metrics.channel_jammed,
                    "write_attempts": metrics.channel_write_attempts,
                },
                results=_results_digest(result.results),
            )
        else:
            report = ChannelSynchronizer(
                graph, max_link_delay=3, seed=SIM_SEED
            ).run(factory, inputs=inputs, adversity=state)
            record.update(
                pulses=report.pulses,
                asynchronous_time=report.asynchronous_time,
                algorithm_messages=report.algorithm_messages,
                ack_messages=report.ack_messages,
                busy_tone_slots=report.busy_tone_slots,
                results=_results_digest(report.results),
            )
    except AdversityAbort as abort:
        record["abort"] = {
            "rounds": abort.rounds,
            "pending": abort.pending,
            "reason": abort.reason,
        }
    if state is not None:
        record["faults"] = state.counters()
    return record


CASES = [
    (protocol, simulator, preset)
    for protocol in PROTOCOLS
    for simulator in SIMULATORS
    for preset in ADVERSITY_KINDS
]


def _case_key(protocol, simulator, preset):
    return f"{protocol}/{simulator}/{preset}"


def compute_all():
    """Return every case's fingerprint keyed by ``protocol/simulator/preset``."""
    return {_case_key(*case): fingerprint(*case) for case in CASES}


@pytest.fixture(scope="module")
def expected():
    return json.loads(FINGERPRINTS.read_text())


def test_every_case_is_pinned(expected):
    assert sorted(expected) == sorted(_case_key(*case) for case in CASES)


@pytest.mark.parametrize("protocol,simulator,preset", CASES)
def test_fingerprint_matches(expected, protocol, simulator, preset):
    assert fingerprint(protocol, simulator, preset) == expected[
        _case_key(protocol, simulator, preset)
    ]


if __name__ == "__main__":
    FINGERPRINTS.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS}")
