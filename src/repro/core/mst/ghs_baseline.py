"""Point-to-point-only MST baseline (synchronous GHS / Borůvka fragments).

Used by experiment E9 as the "what if we had no channel" comparison: the
classic synchronous fragment-merging MST algorithm in the style of Gallager,
Humblet and Spira (1983).  Fragments start as singletons; in each phase every
fragment finds its minimum-weight outgoing link (broadcast + GHS-style
sequential link testing + convergecast on its own tree) and the fragments are
merged along the chosen links.  The number of fragments at least halves per
phase, giving O(log n) phases; each phase costs time proportional to the
largest fragment diameter, which can reach Θ(n) on high-diameter topologies —
hence the overall O(n log n) time that the multimedia algorithm's
O(√n log n) beats.

The execution style and the accounting match the deterministic partitioner
(orchestrated simulation with per-step charges derived from the actual tree
radii and the GHS edge-rejection discipline), so the comparison between the
baseline and the multimedia algorithm is apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.mst.kruskal import MSTEdges
from repro.protocols.spanning.tree_utils import node_depths, reroot
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.topology.graph import (
    Edge,
    WeightedGraph,
    edge_key,
    has_distinct_weights,
    sorted_incident_links,
)
from repro.topology.properties import is_connected

NodeId = Hashable


@dataclass
class PointToPointMSTResult:
    """Result of the point-to-point-only MST baseline.

    Attributes:
        mst: the computed spanning tree.
        metrics: time/message accounting.
        phases: number of merge phases executed.
    """

    mst: MSTEdges
    metrics: MetricsSnapshot
    phases: int

    @property
    def total_rounds(self) -> int:
        """Return the end-to-end time in rounds."""
        return self.metrics.rounds


class PointToPointMST:
    """Synchronous fragment-merging MST using only the point-to-point network."""

    def __init__(
        self,
        graph: WeightedGraph,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        """Create the solver.

        Raises:
            ValueError: if the graph is empty, disconnected or has repeated
                weights.
        """
        if graph.num_nodes() == 0:
            raise ValueError("cannot compute the MST of an empty network")
        if not is_connected(graph):
            raise ValueError("the topology must be connected")
        if not has_distinct_weights(graph):
            raise ValueError(
                "link weights must be distinct; use assign_distinct_weights()"
            )
        self._graph = graph
        self._metrics = metrics if metrics is not None else MetricsRecorder()

    def run(self) -> PointToPointMSTResult:
        """Execute the algorithm and return the MST."""
        graph = self._graph
        parents: Dict[NodeId, Optional[NodeId]] = {v: None for v in graph.nodes()}
        core_of: Dict[NodeId, NodeId] = {v: v for v in graph.nodes()}
        rejected: Set[Tuple[NodeId, NodeId]] = set()
        mst_keys: Set[Tuple[NodeId, NodeId]] = set()

        # per-node incident links sorted once, with a persistent scan pointer
        # past the permanently rejected prefix (same discipline as the
        # deterministic partitioner)
        sorted_links = sorted_incident_links(graph)
        link_pos: Dict[NodeId, int] = {node: 0 for node in sorted_links}

        self._metrics.set_phase("ghs")
        phases = 0
        depths: Optional[Dict[NodeId, int]] = None
        while True:
            members = _members_by_core(core_of)
            if len(members) <= 1:
                break
            phases += 1
            if depths is None:
                depths = node_depths(parents)
            radii = {core: 0 for core in members}
            for v, depth in depths.items():
                core = core_of[v]
                if depth > radii[core]:
                    radii[core] = depth
            rounds = 2 * max(radii.values(), default=0)
            self._metrics.record_messages(
                2 * (graph.num_nodes() - len(members))
            )

            # find each fragment's minimum-weight outgoing link (GHS testing)
            chosen: Dict[NodeId, Tuple[float, NodeId, NodeId]] = {}
            max_tests = 0
            total_tests = 0
            for core, nodes in members.items():
                best: Optional[Tuple[float, NodeId, NodeId]] = None
                for node in nodes:
                    tests = 0
                    links = sorted_links[node]
                    index = link_pos[node]
                    while index < len(links):
                        weight, neighbor, key = links[index]
                        if key in rejected:
                            index += 1
                            continue
                        tests += 1  # test + accept/reject: 2 messages
                        if core_of[neighbor] == core:
                            rejected.add(key)
                            index += 1
                            continue
                        candidate = (weight, node, neighbor)
                        if best is None or candidate < best:
                            best = candidate
                        break
                    link_pos[node] = index
                    total_tests += tests
                    if tests > max_tests:
                        max_tests = tests
                if best is not None:
                    chosen[core] = best
            self._metrics.record_messages(2 * total_tests)
            rounds += 2 * max_tests

            # merge the fragments along the chosen links
            out_edge = {core: core_of[v] for core, (_, _, v) in chosen.items()}
            groups = _merge_components(out_edge)
            merge_rounds = 0
            merged_members: List[List[NodeId]] = []
            for group_root, group in groups.items():
                if len(group) == 1:
                    continue
                spliced = 0
                for core in group:
                    if core == group_root:
                        continue
                    weight, u, v = chosen[core]
                    mst_keys.add(edge_key(u, v))
                    reroot(parents, members[core], u)
                    parents[u] = v
                    spliced += len(members[core])
                new_members: List[NodeId] = []
                for core in group:
                    new_members.extend(members[core])
                for node in new_members:
                    core_of[node] = group_root
                self._metrics.record_messages(2 * spliced + len(new_members))
                merged_members.append(new_members)
            if merged_members:
                # one walk of the post-merge forest serves every group's new
                # radius and the next phase's depth pass
                depths = node_depths(parents)
                for new_members in merged_members:
                    merge_rounds = max(
                        merge_rounds,
                        max((depths[node] for node in new_members), default=0),
                    )
            rounds += merge_rounds
            self._metrics.record_round(rounds)
        self._metrics.set_phase(None)

        edges = [Edge(u, v, graph.weight(u, v)) for u, v in sorted(mst_keys, key=repr)]
        mst = MSTEdges(edges=edges, total_weight=sum(edge.weight for edge in edges))
        return PointToPointMSTResult(
            mst=mst, metrics=self._metrics.snapshot(), phases=phases
        )


def _members_by_core(core_of: Dict[NodeId, NodeId]) -> Dict[NodeId, List[NodeId]]:
    members: Dict[NodeId, List[NodeId]] = {}
    for node, core in core_of.items():
        try:
            members[core].append(node)
        except KeyError:
            members[core] = [node]
    return members


def _merge_components(out_edge: Dict[NodeId, NodeId]) -> Dict[NodeId, List[NodeId]]:
    """Group fragments into merge components and pick each component's root.

    Every fragment has (at most) one outgoing edge in the fragment graph; each
    weakly connected component contains exactly one 2-cycle (the component's
    minimum-weight link, chosen by both endpoint fragments) — or a vertex with
    no outgoing edge when the component's target fragment chose a link into a
    different component.  The component is rooted at the higher-identifier
    endpoint of the 2-cycle (matching the paper's rule) or at the sink vertex.
    """
    # vertices in first-mention order (deterministic: out_edge is ordered);
    # the start order only affects which vertex discovers each component,
    # not the chosen root, so no repr sort is needed
    vertices: List[NodeId] = []
    known: Set[NodeId] = set()
    for source, target in out_edge.items():
        if source not in known:
            known.add(source)
            vertices.append(source)
        if target not in known:
            known.add(target)
            vertices.append(target)

    # undirected adjacency for component discovery (a 2-cycle lists its
    # partner twice, which the seen-set below absorbs)
    adjacency: Dict[NodeId, List[NodeId]] = {v: [] for v in vertices}
    for source, target in out_edge.items():
        adjacency[source].append(target)
        adjacency[target].append(source)

    seen: Set[NodeId] = set()
    groups: Dict[NodeId, List[NodeId]] = {}
    for start in vertices:
        if start in seen:
            continue
        stack = [start]
        component: List[NodeId] = []
        seen.add(start)
        while stack:
            vertex = stack.pop()
            component.append(vertex)
            for neighbor in adjacency[vertex]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        root = None
        for vertex in component:
            if vertex not in out_edge:
                root = vertex
                break
            partner = out_edge[vertex]
            if out_edge.get(partner) == vertex:
                root = max(vertex, partner, key=repr)
                break
        if root is None:
            # cannot happen for a finite functional graph, kept as a guard
            root = component[0]
        groups[root] = component
    return groups
