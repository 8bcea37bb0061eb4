"""Flyweight protocols: one shared instance drives every node via state slots.

The classic :class:`~repro.sim.node.NodeProtocol` API allocates one protocol
object (plus context, outbox and random source) per node per run.  At
n = 10⁵ that allocation — not the algorithm — dominated the sim-bound sweep
points (ROADMAP Open item 1): building 10⁵ objects to exchange 3 × 10⁵
messages.  A *flyweight* protocol inverts the layout:

* **one** instance per run holds all per-node state in columnar slots —
  ``bytearray``/``array``/list columns indexed by a dense slot id assigned
  in node order — instead of n objects holding one attribute each;
* the simulator calls ``start(slot, inbox, event)`` once per slot and
  ``on_round(slot, inbox, event)`` afterwards, with the slot index; helpers
  (:meth:`FlyweightProtocol.send`, :meth:`FlyweightProtocol.halt_slot`)
  update the shared columns;
* sends accumulate in one contiguous per-round buffer; the simulator slices
  each acting node's segment off the tail, so every node's messages stay
  grouped in node order;
* per-node randomness comes from the :mod:`repro.sim.substreams` family on
  the environment — derived on demand, never pre-built.

The flyweight loop is the **only** loop in each simulator.  A classic
``NodeProtocol`` factory runs through :class:`NodeProtocolAdapter`, a
flyweight whose slots hold one classic instance each: it builds each node's
:class:`~repro.sim.node.NodeContext` from the environment columns and moves
every dispatch's collected actions into the shared buffers, so classic and
flyweight protocols share dispatch order, fault draws and termination.

A flyweight may additionally declare ``MESSAGE_DRIVEN = True``: its
``on_round`` with an empty inbox is a no-op (it reacts to mail only, never
to channel feedback or the passage of rounds).  Fault-free runs then
dispatch **only slots with mail** after the start round — on a 10⁵-node
aggregation whose waves keep most nodes quiet this removes ~99% of all
dispatch calls, which profiling showed to be the real wall (≈2 × 10⁸
empty-inbox calls per e10 sweep point at n = 102400).

Equivalence contract: driving a flyweight must be indistinguishable — same
messages in the same order, same channel writes, same metrics, same results
— from driving n classic instances of the protocol it mirrors.  Runs under
adversity keep the full per-round slot scan so fault draws stay in order;
``tests/test_flyweight.py`` pins the flyweight twins against their classic
counterparts, ``tests/test_classic_fingerprints.py`` pins the classic
protocols themselves, and the v3 goldens pin the adversity fingerprints.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.events import ChannelEvent, Message
from repro.sim.node import NodeContext, NodeProtocol
from repro.sim.substreams import NodeStreams

NodeId = Hashable

#: What the simulators' ``run`` accepts: a flyweight class, or a callable
#: building one node's classic protocol from its context.
ProtocolFactory = Callable[..., Any]


class FlyweightEnvironment:
    """Everything a flyweight run needs to know about the network, built once.

    The environment is the flyweight counterpart of n
    :class:`~repro.sim.node.NodeContext` objects: one object holding the
    topology columns in slot order.  A simulator builds it once per network
    object (the topology rows are cached on the graph) and mutates only
    ``inputs`` between runs, so repeated runs on one sweep point reuse every
    materialised structure.

    Attributes:
        nodes: node ids in slot order (``nodes[slot]`` is the id of ``slot``).
        slot_of: inverse mapping, node id → slot index.
        neighbors: per-slot neighbour-id tuples.
        link_weights: per-slot ``{neighbour: weight}`` dicts (shared with the
            simulator's cached rows — read-only).
        n: the number of nodes when the protocol is told it, else ``None``.
        streams: the per-node random substream family
            (:class:`~repro.sim.substreams.NodeStreams`).
        inputs: per-node input mapping for the current run (the ``extra``
            dicts of the classic API); reassigned by the simulator per run.
    """

    __slots__ = ("nodes", "slot_of", "neighbors", "link_weights", "n",
                 "streams", "inputs")

    def __init__(
        self,
        nodes: Tuple[NodeId, ...],
        neighbors: Tuple[Tuple[NodeId, ...], ...],
        link_weights: Tuple[Dict[NodeId, float], ...],
        n: Optional[int],
        streams: NodeStreams,
    ) -> None:
        """Assemble the columnar environment from topology rows."""
        self.nodes = nodes
        self.slot_of: Dict[NodeId, int] = {
            node: slot for slot, node in enumerate(nodes)
        }
        self.neighbors = neighbors
        self.link_weights = link_weights
        self.n = n
        self.streams = streams
        self.inputs: Mapping[NodeId, Dict[str, Any]] = {}

    @property
    def num_slots(self) -> int:
        """Return the number of node slots."""
        return len(self.nodes)


class FlyweightProtocol:
    """Base class for slot-indexed shared-instance protocols.

    Subclasses override :meth:`on_start` and :meth:`on_round` (both take a
    slot index) and keep all per-node state in columns sized
    ``env.num_slots``.  Within the callbacks they may call :meth:`send`,
    :meth:`channel_write` and :meth:`halt_slot`.

    Contract difference from the classic per-node API, by design: the
    one-message-per-link-per-round rule is **not** re-validated here (the
    classic ``send`` guard); flyweight protocols are library-internal and
    their send patterns are structurally duplicate-free.  Link adjacency is
    still validated by the network's ``accept_sends``.
    """

    #: Set by subclasses whose ``on_round`` ignores empty inboxes entirely;
    #: lets the fault-free simulator loops dispatch only slots with mail.
    MESSAGE_DRIVEN = False

    def __init__(self, env: FlyweightEnvironment) -> None:
        """Allocate the sim-facing columns for ``env.num_slots`` slots."""
        self.env = env
        num_slots = env.num_slots
        #: 1 once the slot's node has halted (sim skips its dispatch).
        self.halted = bytearray(num_slots)
        #: per-slot declared local outputs.
        self.results: List[Any] = [None] * num_slots
        #: number of slots that have not halted yet.
        self.active_count = num_slots
        # contiguous per-round action buffers; the simulator slices each
        # acting slot's tail segment and clears them once per round
        self._sends: List[Tuple[NodeId, Any]] = []
        self._writes: List[Tuple[NodeId, Any]] = []

    # ------------------------------------------------------------------
    # API for subclasses
    # ------------------------------------------------------------------
    def send(self, neighbor: NodeId, payload: Any) -> None:
        """Queue ``payload`` for the current slot's node to ``neighbor``."""
        self._sends.append((neighbor, payload))

    def channel_write(self, node: NodeId, payload: Any) -> None:
        """Attempt to broadcast ``payload`` as ``node`` in the current slot."""
        self._writes.append((node, payload))

    def halt_slot(self, slot: int, result: Any = None) -> None:
        """Declare ``slot``'s local algorithm finished with ``result``."""
        if not self.halted[slot]:
            self.halted[slot] = 1
            self.active_count -= 1
        self.results[slot] = result

    # ------------------------------------------------------------------
    # callbacks to override
    # ------------------------------------------------------------------
    def on_start(self, slot: int) -> None:
        """Called once per slot before its first round's sends are collected."""

    def on_round(self, slot: int, inbox: Sequence[Message],
                 channel: ChannelEvent) -> None:
        """Called with a slot's newly delivered messages and slot feedback.

        A ``MESSAGE_DRIVEN`` subclass declares an empty inbox a no-op, and
        the simulators never call it with one.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # simulator-facing plumbing
    # ------------------------------------------------------------------
    def start(self, slot: int, inbox: Optional[Sequence[Message]],
              channel: ChannelEvent) -> None:
        """Start ``slot`` and hand it the mail already waiting, if any.

        The simulators call this once per slot, in its first up round (round
        0, or later for a node that starts the run crashed).
        """
        self.on_start(slot)
        if inbox:
            self.on_round(slot, inbox, channel)

    def results_by_node(self) -> Dict[NodeId, Any]:
        """Return the per-node results keyed by node id (slot order)."""
        results = self.results
        return {node: results[slot] for slot, node in enumerate(self.env.nodes)}


class NodeProtocolAdapter(FlyweightProtocol):
    """Drives one classic :class:`NodeProtocol` per slot through the flyweight loop.

    Each node's :class:`NodeContext` is built from the environment columns:
    neighbours, link weights, ``n``, a random source derived lazily from the
    node's substream, and a fresh copy of the node's inputs.  A protocol
    already halted by its constructor is marked halted in the column and
    never scheduled.  After every dispatch
    the protocol's collected sends and channel write move into the shared
    buffers and its halt is mirrored into the column.
    """

    def __init__(
        self,
        env: FlyweightEnvironment,
        factory: Callable[[NodeContext], NodeProtocol],
    ) -> None:
        """Build one context and classic protocol instance per slot."""
        super().__init__(env)
        inputs = env.inputs
        rng_factory = env.streams.rng_for
        halted = self.halted
        instances: List[NodeProtocol] = []
        for slot, node in enumerate(env.nodes):
            protocol = factory(NodeContext(
                node_id=node,
                neighbors=env.neighbors[slot],
                link_weights=env.link_weights[slot],
                n=env.n,
                extra=dict(inputs.get(node, {})) if inputs else {},
                rng_factory=rng_factory,
            ))
            instances.append(protocol)
            if protocol._halted:
                halted[slot] = 1
                self.active_count -= 1
        self._instances = instances
        #: node id → classic protocol instance (``SimulationResult.protocols``).
        self.protocols: Dict[NodeId, NodeProtocol] = dict(zip(env.nodes, instances))

    def _collect(self, slot: int, protocol: NodeProtocol) -> None:
        """Move one dispatch's actions into the shared buffers; mirror a halt."""
        if protocol._acted:
            outbox, payload, wrote = protocol._collect_actions()
            if outbox:
                self._sends.extend(outbox)
            if wrote:
                self._writes.append((protocol.ctx.node_id, payload))
        if protocol._halted and not self.halted[slot]:
            self.halted[slot] = 1
            self.active_count -= 1

    def start(self, slot: int, inbox: Optional[Sequence[Message]],
              channel: ChannelEvent) -> None:
        """Start the slot's protocol, hand over waiting mail, collect **once**.

        One collection for both callbacks keeps the classic one-message-per-
        link check across them: a deferred start whose ``on_start`` and first
        ``on_round`` send on the same link raises
        :class:`~repro.sim.errors.ProtocolError`.
        """
        protocol = self._instances[slot]
        protocol.on_start()
        if inbox:
            protocol.on_round(inbox, channel)
        self._collect(slot, protocol)

    def on_round(self, slot: int, inbox: Sequence[Message],
                 channel: ChannelEvent) -> None:
        """Dispatch one round to the slot's protocol and collect its actions."""
        protocol = self._instances[slot]
        protocol.on_round(inbox, channel)
        self._collect(slot, protocol)

    def results_by_node(self) -> Dict[NodeId, Any]:
        """Return each classic protocol's declared result, keyed by node id."""
        return {node: protocol.result for node, protocol in self.protocols.items()}


def flyweight_for(
    protocol_factory: Callable, env: FlyweightEnvironment
) -> FlyweightProtocol:
    """Instantiate a run() factory over ``env``: directly or via the adapter."""
    if is_flyweight_factory(protocol_factory):
        return protocol_factory(env)
    return NodeProtocolAdapter(env, protocol_factory)


def is_flyweight_factory(protocol_factory: object) -> bool:
    """Return ``True`` when a run() factory is a flyweight protocol class."""
    return isinstance(protocol_factory, type) and issubclass(
        protocol_factory, FlyweightProtocol
    )
