"""The multimedia network: synchronous point-to-point network + slotted channel.

This module contains the simulation driver used by every algorithm in the
library.  One *time unit* advances both media: each node may send one message
per incident link (delivered next round) and may attempt one write to the
current channel slot (whose idle/success/collision outcome every node
observes at the start of the next round).

Round semantics (batched delivery)
----------------------------------

:meth:`MultimediaNetwork.run` has one round loop, over the slots of a
:class:`~repro.sim.flyweight.FlyweightProtocol`; a classic
:class:`~repro.sim.node.NodeProtocol` factory runs through
:class:`~repro.sim.flyweight.NodeProtocolAdapter`.  Each round is one pass
over the non-halted slots, in node order:

1. the network hands over every inbox in one batch — all messages sent in
   round ``r − 1`` are delivered together at the start of round ``r``
   (:meth:`~repro.sim.network.PointToPointNetwork.deliver` swaps the standing
   per-node inboxes out rather than filtering message by message);
2. every active node observes its batch plus the public view of the previous
   channel slot via ``on_round`` (in its first up round
   :meth:`~repro.sim.flyweight.FlyweightProtocol.start` runs ``on_start``
   first, and ``on_round`` only if the node already has mail);
3. the node's queued sends are accepted for round ``r + 1`` and its channel
   write, if any, joins the current slot;
4. the slot resolves once after every node has acted, so no node sees the
   current slot's outcome early.

A ``MESSAGE_DRIVEN`` protocol in a fault-free run takes the fast path after
round 0: only the slots with mail are dispatched.  Under adversity every
round is a full scan, so crash skips, deferred starts and fault draws keep
their order, and a stall detector replaces the protocol-bug timeout.

Halted nodes are no longer dispatched but keep receiving (and dropping)
late traffic; the loop keeps running — resolving idle slots — until the last
in-flight message has drained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.sim.adversity import AdversityState
from repro.sim.channel import SlottedChannel
from repro.sim.errors import AdversityAbort, SimulationTimeout
from repro.sim.events import ChannelEvent, idle_event
from repro.sim.flyweight import (
    FlyweightEnvironment,
    NodeProtocolAdapter,
    ProtocolFactory,
    flyweight_for,
)
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.sim.network import PointToPointNetwork
from repro.sim.node import NO_MESSAGES, NodeProtocol
from repro.sim.substreams import NodeStreams
from repro.topology.graph import WeightedGraph

NodeId = Hashable

DEFAULT_MAX_ROUNDS = 1_000_000

#: Substream scope for per-node random sources in synchronous runs (the
#: synchronizer uses its own scope so the two sims never correlate).
STREAM_SCOPE = "sim.multimedia"

TopologyRows = List[Tuple[NodeId, Tuple[NodeId, ...], Dict[NodeId, float]]]


def shared_topology_rows(graph: WeightedGraph) -> TopologyRows:
    """Return per-node ``(node, neighbours, weights)`` rows, cached on the graph.

    The rows are the materialised form every simulation layer consumes
    (multimedia rounds, the synchronizer, flyweight environments).  They are
    cached on the graph object keyed by its mutation version, so the several
    simulations one sweep point runs over the same topology (e.g. e7's
    multimedia run and its point-to-point baseline) build them exactly once.
    The neighbour tuples and weight dicts are shared — consumers must treat
    them as read-only.
    """
    version = getattr(graph, "_version", None)
    cache = getattr(graph, "_sim_topology_rows", None)
    if cache is not None and cache[0] == version:
        return cache[1]
    rows: TopologyRows = [
        (node, tuple(graph.iter_neighbors(node)), dict(graph.neighbor_items(node)))
        for node in graph.nodes()
    ]
    try:
        graph._sim_topology_rows = (version, rows)
    except AttributeError:  # graphs with __slots__: fall back to uncached
        pass
    return rows


@dataclass
class SimulationResult:
    """The outcome of one simulation run.

    Attributes:
        rounds: number of time units elapsed until every node halted.
        metrics: snapshot of the shared complexity accountant.
        results: each node's declared local output.
        protocols: the classic protocol instances themselves, for tests that
            want to inspect internal state after the run (empty for a
            flyweight run, which has no per-node objects).
        channel_history: every resolved channel slot, oldest first.
    """

    rounds: int
    metrics: MetricsSnapshot
    results: Dict[NodeId, Any]
    protocols: Dict[NodeId, NodeProtocol]
    channel_history: Tuple[ChannelEvent, ...]

    def result_values(self) -> List[Any]:
        """Return the node outputs in node-id order (for convenience)."""
        return [self.results[node] for node in sorted(self.results, key=repr)]


class MultimediaNetwork:
    """A multimedia network over a fixed point-to-point topology.

    The object can be reused for several runs; each run gets fresh protocol
    instances and (unless a shared recorder is supplied per run) charges the
    network-level :class:`MetricsRecorder` owned by this object.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        seed: Optional[int] = None,
        n_known: bool = True,
    ) -> None:
        """Create a multimedia network.

        Args:
            graph: the point-to-point topology; all its nodes are also
                attached to the multiaccess channel.
            seed: master seed from which per-node private random sources are
                derived (deterministic given the seed).
            n_known: whether nodes are told ``n``.  The paper assumes ``n``
                is known (Section 2) and Section 7 removes the assumption;
                the size-estimation protocols run with ``n_known=False``.
        """
        self._graph = graph
        self._seed = seed
        self._n_known = n_known
        # the per-node substream family: cheap, stateless, shared by every
        # run on this object (see repro.sim.substreams)
        self._streams = NodeStreams(seed, STREAM_SCOPE)
        # the flyweight environment is built on the first run and mutated
        # in place (inputs only) across runs
        self._flyweight_env: Optional[FlyweightEnvironment] = None
        self._flyweight_env_version: Optional[int] = None

    @property
    def graph(self) -> WeightedGraph:
        """Return the point-to-point topology."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        """Return ``n``."""
        return self._graph.num_nodes()

    @property
    def num_links(self) -> int:
        """Return ``m``."""
        return self._graph.num_edges()

    # ------------------------------------------------------------------
    # running protocols
    # ------------------------------------------------------------------
    def _flyweight_environment(self) -> FlyweightEnvironment:
        """Return the columnar environment, built once and reused across runs."""
        version = getattr(self._graph, "_version", None)
        env = self._flyweight_env
        if env is None or self._flyweight_env_version != version:
            rows = shared_topology_rows(self._graph)
            env = FlyweightEnvironment(
                nodes=tuple(row[0] for row in rows),
                neighbors=tuple(row[1] for row in rows),
                link_weights=tuple(row[2] for row in rows),
                n=self.num_nodes if self._n_known else None,
                streams=self._streams,
            )
            self._flyweight_env = env
            self._flyweight_env_version = version
        return env

    def run(
        self,
        protocol_factory: ProtocolFactory,
        inputs: Optional[Dict[NodeId, Dict[str, Any]]] = None,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        metrics: Optional[MetricsRecorder] = None,
        adversity: Optional[AdversityState] = None,
    ) -> SimulationResult:
        """Run the protocol on every node until all of them halt.

        Args:
            protocol_factory: a
                :class:`~repro.sim.flyweight.FlyweightProtocol` subclass, or
                a callable building a node's classic protocol from its
                :class:`~repro.sim.node.NodeContext` (run through
                :class:`~repro.sim.flyweight.NodeProtocolAdapter`).
            inputs: optional per-node ``extra`` input dictionaries.
            max_rounds: safety bound; exceeded means a protocol bug.
            metrics: an externally owned recorder to charge (used when an
                algorithm composes several runs); a fresh one is created
                otherwise.
            adversity: optional adversity state; faults are applied at the
                network/channel layer and crashed nodes skip their rounds,
                with the run bounded by the schedule's round budget and
                stall detector instead of ``max_rounds``.

        Returns:
            A :class:`SimulationResult`.

        Raises:
            SimulationTimeout: if the protocols do not all halt in time.
            AdversityAbort: if an adversity schedule keeps the run from
                terminating within its budget (or it stalls).
        """
        recorder = metrics if metrics is not None else MetricsRecorder()
        network = PointToPointNetwork(
            self._graph, metrics=recorder, adversity=adversity
        )
        channel = SlottedChannel(
            metrics=recorder,
            adversity=adversity.channel_adversity() if adversity is not None else None,
        )
        env = self._flyweight_environment()
        env.inputs = inputs if inputs is not None else {}
        protocol = flyweight_for(protocol_factory, env)

        deliver = network.deliver
        accept_sends = network.accept_sends
        resolve_slot = channel.resolve_slot
        record_round = recorder.record_round
        nodes = env.nodes
        slot_of = env.slot_of
        num_slots = env.num_slots
        halted = protocol.halted
        start = protocol.start
        on_round = protocol.on_round
        sends = protocol._sends
        writes = protocol._writes
        message_driven = protocol.MESSAGE_DRIVEN
        fast_path = adversity is None and message_driven
        if adversity is None:
            node_crashed = None
            budget = max_rounds
        else:
            node_crashed = adversity.node_crashed
            count_crash_round = adversity.count_crash_round
            budget = min(max_rounds, adversity.round_budget(num_slots))
            patience = adversity.stall_patience()
        started = bytearray(num_slots)
        quiet_streak = 0

        last_event: ChannelEvent = idle_event(-1)
        rounds_used = 0
        for round_index in range(budget):
            if protocol.active_count == 0 and not network.has_in_flight():
                break

            inboxes = deliver(round_index)
            public_event = last_event.public_view()
            mark = 0
            if fast_path and round_index:
                # only slots with mail can change state; dispatch them in
                # slot (= node) order so message emission order matches a
                # full scan exactly
                for slot in sorted(slot_of[node] for node in inboxes):
                    if halted[slot]:
                        continue
                    node = nodes[slot]
                    on_round(slot, inboxes[node], public_event)
                    if len(sends) > mark:
                        accept_sends(node, sends[mark:], round_index)
                        mark = len(sends)
            else:
                get_inbox = inboxes.get
                for slot in range(num_slots):
                    if halted[slot]:
                        continue
                    node = nodes[slot]
                    if node_crashed is not None and node_crashed(node, round_index):
                        # a crashed node neither observes nor acts, and its
                        # start is deferred to its first up round
                        count_crash_round()
                        continue
                    inbox = get_inbox(node)
                    if not started[slot]:
                        started[slot] = 1
                        start(slot, inbox, public_event)
                    elif inbox:
                        on_round(slot, inbox, public_event)
                    elif not message_driven:
                        on_round(slot, NO_MESSAGES, public_event)
                    if len(sends) > mark:
                        accept_sends(node, sends[mark:], round_index)
                        mark = len(sends)
            acted_any = mark > 0 or bool(writes)
            if mark:
                del sends[:]
            last_event = resolve_slot(round_index, writes)
            if writes:
                del writes[:]
            record_round(1)
            rounds_used = round_index + 1

            if adversity is None:
                continue
            # stall detector: after ``patience`` rounds with no deliveries,
            # no actions and an un-jammed idle slot, only further fault draws
            # could change anything, so the run aborts instead of walking
            # the rest of the budget
            if inboxes or acted_any or not last_event.is_idle():
                quiet_streak = 0
            else:
                quiet_streak += 1
                if quiet_streak > patience:
                    pending = protocol.active_count
                    if pending == 0:
                        # everything halted; only undeliverable stragglers
                        # keep the network "in flight" — that is completion
                        break
                    raise AdversityAbort(
                        rounds_used, pending, reason="stalled (no progress)"
                    )
        else:
            pending = protocol.active_count
            if adversity is None:
                raise SimulationTimeout(budget, pending)
            if pending:
                raise AdversityAbort(budget, pending)

        return SimulationResult(
            rounds=rounds_used,
            metrics=recorder.snapshot(),
            results=protocol.results_by_node(),
            protocols=(
                protocol.protocols
                if isinstance(protocol, NodeProtocolAdapter) else {}
            ),
            channel_history=channel.history,
        )
