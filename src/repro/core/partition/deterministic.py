"""The deterministic partitioning algorithm (Section 3).

The algorithm builds a spanning forest whose trees are subtrees of the MST,
have size ≥ √n and radius ≤ 8√n, in O(√n log* n) time and
O(m + n log n log* n) messages.  It proceeds in synchronized phases; in phase
``i`` every fragment has size ≥ 2^i, and the *active* fragments (those of
level exactly ``i``) each merge with at least one neighbour, so after
``⌈log₂ √n⌉`` phases every fragment has at least √n nodes.  The radius is
kept in check by 3-colouring the fragment graph F (Goldberg–Plotkin–Shannon),
extracting an MIS that contains every root of F (Steps 4–5), and cutting the
trees of F at the MIS vertices so each group of merging fragments has
constant diameter in F (Step 6).

Execution style
---------------
The phases are executed as an *orchestrated simulation*: the per-node state
(parent pointer, fragment core, list of not-yet-rejected incident links) is
explicit, every step is realised through the distributed tree primitives
(broadcast, convergecast, GHS-style link testing, core-to-core routing over
fragment branches), and the time and message cost of every step is charged
from the actual tree radii and sizes involved — i.e. the costs are the costs
of the message-passing execution, not wall-clock proxies.  The paper's phase
synchronisation ("each phase takes exactly 5·2^i·log* n rounds", Section 3)
is reproduced by padding each phase to its precomputed length; the result
records both the padded (model) time and the busy time actually used.

Fidelity note: for the per-node minimum-outgoing-link search (Step 2,
substep 2) the nodes test incident links sequentially in weight order, as in
Gallager–Humblet–Spira; a link found internal is rejected forever.  On dense
graphs a node may have to test many links in one phase, so the *measured*
busy time of a phase can exceed the 5·2^i·log* n budget even though the
total message count stays within O(m + n log n log* n); the experiments
report both numbers.

Implementation notes
--------------------
The whole run lives in **index space**: slot ``i`` of the graph's CSR
snapshot is node ``nodes[i]``, and parent pointers, depths, core membership,
the per-node link-scan state and the fragment graph F are all flat integer
lists or int-keyed dicts over those slots.  Fragment bookkeeping (members,
sizes, radii, first-appearance order) is maintained *incrementally* across
phases — only the fragments a merge touches are updated.  The paper
assumes distinct link weights and the partitioner rejects graphs without
them, so one stable argsort of the CSR weight column gives every node its
scan list in weight order; link rejection marks a dead flag on **both**
endpoints' scan lists, so the scan never hashes an edge key.

The node labels are read at exactly two points where the paper's output
depends on them — which side of a 2-cycle in F is dropped (the larger label
by ``repr``) and the identifiers F is 3-coloured with (the labels themselves
when all are ints, otherwise their rank by ``repr``) — and once more when
the final state is translated into a :class:`SpanningForest`.  Reading the
labels there, rather than relabelling the graph to its indices, keeps the
output bit-identical for every label type (pinned by the v1 goldens and the
non-integer-label fingerprints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.partition.forest import Fragment, SpanningForest
from repro.protocols.spanning.tree_utils import children_map
from repro.protocols.symmetry.cole_vishkin import log_star
from repro.protocols.symmetry.mis import mis_from_three_coloring
from repro.protocols.symmetry.three_coloring import three_color_rooted_forest
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.topology.graph import WeightedGraph, has_distinct_weights
from repro.topology.properties import is_connected

NodeId = Hashable


@dataclass
class PhaseRecord:
    """Per-phase statistics recorded by the deterministic partitioner.

    Attributes:
        phase: the phase index ``i``.
        active_fragments: number of fragments of level exactly ``i``.
        fragments_before / fragments_after: fragment counts around the phase.
        busy_rounds: rounds of actual activity in the phase.
        charged_rounds: rounds charged after padding to the synchronized
            phase length ``5 · 2^i · log* n``, i.e. ``max(busy_rounds,
            5 · 2^i · log* n)``; the charged rounds of all phases sum to the
            run's ``metrics.rounds``.
        messages: point-to-point messages sent during the phase.
        coloring_rounds: parent→child communication rounds used by the
            3-colouring + MIS computation on the fragment graph F.
    """

    phase: int
    active_fragments: int
    fragments_before: int
    fragments_after: int
    busy_rounds: int
    charged_rounds: int
    messages: int
    coloring_rounds: int


@dataclass
class DeterministicPartitionResult:
    """Result of the deterministic partitioning algorithm.

    Attributes:
        forest: the spanning forest (each tree a subtree of the MST).
        metrics: time/message accounting of the whole run.
        phases: per-phase records.
        busy_rounds: total rounds of actual activity (≤ ``metrics.rounds``,
            which includes the synchronization padding).
        target_size: the size threshold the algorithm was run to (√n by
            default; the tightened-balance variant of Section 5.1 uses
            ``√(n / (log n log* n))``).
    """

    forest: SpanningForest
    metrics: MetricsSnapshot
    phases: List[PhaseRecord]
    busy_rounds: int
    target_size: int

    @property
    def num_fragments(self) -> int:
        """Return the number of trees in the forest."""
        return self.forest.num_fragments()


class DeterministicPartitioner:
    """Runs the Section 3 algorithm on a weighted multimedia network."""

    def __init__(
        self,
        graph: WeightedGraph,
        target_size: Optional[int] = None,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        """Create a partitioner.

        Args:
            graph: connected point-to-point topology with distinct link
                weights (use :func:`repro.topology.weights.assign_distinct_weights`).
            target_size: stop once every fragment has at least this many
                nodes; defaults to ``⌈√n⌉``.  Section 5.1's tightened variant
                passes ``⌈√(n / (log n · log* n))⌉``.
            metrics: externally owned recorder to charge (the MST algorithm
                passes its own so all stages share one accountant).

        Raises:
            ValueError: if the graph is empty, disconnected, or has repeated
                link weights.
        """
        if graph.num_nodes() == 0:
            raise ValueError("cannot partition an empty network")
        if not is_connected(graph):
            raise ValueError("the point-to-point topology must be connected")
        if not has_distinct_weights(graph):
            raise ValueError("link weights must be distinct; use assign_distinct_weights()")
        self._graph = graph
        self._n = graph.num_nodes()
        self._target = target_size if target_size is not None else max(
            1, math.isqrt(self._n - 1) + 1 if self._n > 1 else 1
        )
        if self._target < 1:
            raise ValueError("target_size must be at least 1")
        self._metrics = metrics if metrics is not None else MetricsRecorder()

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self) -> DeterministicPartitionResult:
        """Execute the algorithm and return the resulting forest."""
        n = self._n
        log_star_n = max(1, log_star(max(2, n)))
        # all hot state below is indexed by the CSR slots; slot i is node
        # nodes[i] (graph iteration order)
        csr = self._graph.csr()
        nodes: Sequence[NodeId] = csr.nodes
        # Phase 0 state: every node is a depth-0 singleton fragment whose
        # core is itself (-1 encodes "no parent")
        parent_idx: List[int] = [-1] * n
        core_arr: List[int] = list(range(n))
        depths: List[int] = [0] * n
        # Each node scans its incident links in weight order across all
        # phases (the GHS discipline), so sort them once up front and
        # remember, per node, how far the scan has permanently advanced:
        # every link before the pointer has been rejected forever.  One
        # stable argsort of the (distinct) weight column populates every
        # node's scan list, and both reverse positions are known at append
        # time, so a rejection marks BOTH endpoints' scan entries dead
        # without hashing a node or edge key.
        link_nbr: List[List[int]] = [[] for _ in range(n)]
        link_w: List[List[float]] = [[] for _ in range(n)]
        link_back: List[List[int]] = [[] for _ in range(n)]
        edge_u, edge_v, edge_w = csr.canonical_edges()
        for j in sorted(range(len(edge_w)), key=edge_w.__getitem__):
            u = edge_u[j]
            v = edge_v[j]
            w = edge_w[j]
            link_back[u].append(len(link_nbr[v]))
            link_back[v].append(len(link_nbr[u]))
            link_nbr[u].append(v)
            link_nbr[v].append(u)
            link_w[u].append(w)
            link_w[v].append(w)
        link_dead: List[bytearray] = [
            bytearray(len(neighbors)) for neighbors in link_nbr
        ]
        link_pos: List[int] = [0] * n

        # fragment bookkeeping, maintained incrementally across phases (only
        # the fragments a merge touches are updated); first_pos records the
        # smallest member index, which is exactly the order fragments appear
        # in a full scan over the nodes — the historical active-set order
        members: Dict[int, List[int]] = {i: [i] for i in range(n)}
        sizes: Dict[int, int] = dict.fromkeys(range(n), 1)
        radii: Dict[int, int] = dict.fromkeys(range(n), 0)
        first_pos: Dict[int, int] = {i: i for i in range(n)}

        phase_records: List[PhaseRecord] = []
        busy_total = 0
        max_phases = max(1, math.ceil(math.log2(max(2, self._target))) + 1)

        self._metrics.set_phase("partition")
        for phase in range(max_phases):
            if len(members) <= 1 or min(sizes.values()) >= self._target:
                break
            active = [
                core for core in members
                if sizes[core].bit_length() - 1 == phase
            ]
            active.sort(key=first_pos.__getitem__)
            fragments_before = len(members)
            phase_messages_start = self._metrics.point_to_point_messages
            busy = 0

            # ---------------- Step 1: count fragment sizes ----------------
            # broadcast-and-respond on every fragment
            busy += 2 * max(radii.values(), default=0)
            self._metrics.record_messages(2 * (n - len(members)))

            if active:
                # ------------- Step 2: minimum outgoing links -------------
                chosen, step2_busy = self._find_min_outgoing_links(
                    active, members, sizes, radii, core_arr,
                    link_nbr, link_w, link_back, link_dead, link_pos,
                )
                busy += step2_busy

                # ------------- Steps 3-5: colour F and find the MIS -------
                # F is small (one vertex per active fragment plus targets);
                # its vertices are core indices, and only the 2-cycle drop
                # and the colouring identifiers read the node labels
                f_parents = self._build_fragment_forest(chosen, core_arr, nodes)
                coloring = three_color_rooted_forest(
                    f_parents, identifiers=_core_identifiers(f_parents, nodes)
                )
                mis = mis_from_three_coloring(f_parents, coloring.colors)
                coloring_rounds = coloring.communication_rounds + mis.communication_rounds
                # each colouring round is a core-to-core exchange routed over
                # the fragment branches: O(max radius) time, and at most one
                # relay message per node of every fragment involved in F
                involved_nodes = sum(sizes[i] for i in f_parents)
                max_involved_radius = max(
                    (radii[i] for i in f_parents), default=0
                )
                busy += coloring_rounds * (2 * max_involved_radius + 1)
                self._metrics.record_messages(coloring_rounds * involved_nodes)

                # ------------- Step 6: cut F at the MIS and merge ----------
                merge_busy = self._merge_groups(
                    f_parents,
                    chosen,
                    mis.independent_set,
                    parent_idx,
                    core_arr,
                    members,
                    sizes,
                    radii,
                    first_pos,
                    depths,
                )
                busy += merge_busy
            else:
                coloring_rounds = 0

            # ---------------- phase synchronization ----------------------
            charged = max(busy, 5 * (2 ** phase) * log_star_n)
            self._metrics.record_round(charged)
            busy_total += busy

            phase_records.append(
                PhaseRecord(
                    phase=phase,
                    active_fragments=len(active),
                    fragments_before=fragments_before,
                    fragments_after=len(members),
                    busy_rounds=busy,
                    charged_rounds=charged,
                    messages=self._metrics.point_to_point_messages - phase_messages_start,
                    coloring_rounds=coloring_rounds,
                )
            )

        self._metrics.set_phase(None)
        # translate the index-space state into node-keyed fragments: group
        # by core in node order, so fragments appear in the order of their
        # first member and each parent map follows graph iteration order
        fragment_parents: Dict[int, Dict[NodeId, Optional[NodeId]]] = {}
        for i, node in enumerate(nodes):
            parent = parent_idx[i]
            core = core_arr[i]
            group = fragment_parents.get(core)
            if group is None:
                group = fragment_parents[core] = {}
            group[node] = nodes[parent] if parent >= 0 else None
        forest = SpanningForest(
            [
                Fragment(core=nodes[core], parents=group)
                for core, group in fragment_parents.items()
            ]
        )
        return DeterministicPartitionResult(
            forest=forest,
            metrics=self._metrics.snapshot(),
            phases=phase_records,
            busy_rounds=busy_total,
            target_size=self._target,
        )

    # ------------------------------------------------------------------
    # Step 2: minimum-weight outgoing link of every active fragment
    # ------------------------------------------------------------------
    def _find_min_outgoing_links(
        self,
        active: List[int],
        members: Dict[int, List[int]],
        sizes: Dict[int, int],
        radii: Dict[int, int],
        core_arr: List[int],
        link_nbr: List[List[int]],
        link_w: List[List[float]],
        link_back: List[List[int]],
        link_dead: List[bytearray],
        link_pos: List[int],
    ) -> Tuple[Dict[int, Tuple[int, int]], int]:
        """Return each active core's chosen link and the rounds the step takes.

        The chosen link is ``(u, v)`` with ``u`` inside the fragment and
        ``v`` outside (both node indices).  Per the GHS
        discipline, every node scans its incident links in increasing weight
        order, testing each link not yet rejected; internal links are
        rejected permanently (2 messages each, charged once over the whole
        execution), and the first outgoing link found is the node's candidate
        (2 messages, re-tested in later phases).  The scan state persists
        across phases: ``link_pos`` only moves past permanently rejected
        links, and a rejection flips the dead flag on *both* endpoints' scan
        lists (via ``link_back``), so the partner skips the link without
        re-testing it and no edge key is ever hashed in the loop.
        """
        busy = 0
        max_active_radius = max((radii[c] for c in active), default=0)
        # substep 1: "you are active" broadcast
        busy += max_active_radius
        self._metrics.record_messages(sum(sizes[c] - 1 for c in active))

        chosen: Dict[int, Tuple[int, int]] = {}
        max_tests = 0
        total_tests = 0
        for core in active:
            best_w: Optional[float] = None
            best_u = best_v = -1
            for node in members[core]:
                tests = 0
                neighbors = link_nbr[node]
                weights = link_w[node]
                dead = link_dead[node]
                back = link_back[node]
                limit = len(neighbors)
                index = link_pos[node]
                while index < limit:
                    if dead[index]:
                        index += 1
                        continue
                    tests += 1  # test + accept/reject: 2 messages
                    neighbor = neighbors[index]
                    if core_arr[neighbor] == core:
                        dead[index] = 1
                        link_dead[neighbor][back[index]] = 1
                        index += 1
                        continue
                    weight = weights[index]
                    if best_w is None or weight < best_w:
                        best_w, best_u, best_v = weight, node, neighbor
                    break
                link_pos[node] = index
                total_tests += tests
                if tests > max_tests:
                    max_tests = tests
            if best_w is not None:
                chosen[core] = (best_u, best_v)
        self._metrics.record_messages(2 * total_tests)
        # substep 2 time: sequential testing, nodes in parallel
        busy += 2 * max_tests
        # substep 3: convergecast of the minimum to the core
        busy += max_active_radius
        self._metrics.record_messages(sum(sizes[c] - 1 for c in active))
        return chosen, busy

    # ------------------------------------------------------------------
    # fragment forest F construction (Section 3, after Step 2)
    # ------------------------------------------------------------------
    def _build_fragment_forest(
        self,
        chosen: Dict[int, Tuple[int, int]],
        core_arr: List[int],
        nodes: Sequence[NodeId],
    ) -> Dict[int, Optional[int]]:
        """Return the rooted fragment forest F as a parent map over core indices.

        Every active fragment has one outgoing F-edge, to the core
        ``core_arr`` gives for the far side of its chosen link; the single
        cycle that can arise when two fragments choose the same link is
        broken at the fragment whose core label is larger by ``repr``,
        exactly as in the paper.  Each remaining F-edge's physical link is
        its child's entry in ``chosen``.
        """
        out_edge: Dict[int, int] = {}
        vertices: Set[int] = set()
        for core, (_, v) in chosen.items():
            target = core_arr[v]
            out_edge[core] = target
            vertices.add(core)
            vertices.add(target)

        # break 2-cycles (both fragments chose the same connecting link);
        # the dropped side is the same whichever endpoint is visited first,
        # so a snapshot of the keys is order-enough
        for core in list(out_edge):
            target = out_edge.get(core)
            if target is None:
                continue
            if out_edge.get(target) == core:
                drop = max(core, target, key=lambda i: repr(nodes[i]))
                out_edge.pop(drop, None)

        return {vertex: out_edge.get(vertex) for vertex in vertices}

    # ------------------------------------------------------------------
    # Step 6: merge the fragments of every subtree of the cut forest
    # ------------------------------------------------------------------
    def _merge_groups(
        self,
        f_parents: Dict[int, Optional[int]],
        chosen: Dict[int, Tuple[int, int]],
        independent_set: Set[int],
        parent_idx: List[int],
        core_arr: List[int],
        members: Dict[int, List[int]],
        sizes: Dict[int, int],
        radii: Dict[int, int],
        first_pos: Dict[int, int],
        depths: List[int],
    ) -> int:
        """Cut F at red internal vertices and merge each resulting subtree.

        F's vertices are core indices, and ``chosen`` gives the physical link
        ``(u, v)`` under every F-edge.  Returns the step's busy rounds.  The fragment
        bookkeeping (``members``/``sizes``/``radii``/``first_pos``) and the
        per-node ``depths`` are updated in place for exactly the fragments a
        merge touches; untouched fragments keep their existing entries, so
        the per-phase maintenance is proportional to the work the merge
        actually did.
        """
        f_children = children_map(f_parents)
        cut_parents = dict(f_parents)
        for vertex in f_parents:
            is_leaf = not f_children[vertex]
            if vertex in independent_set and not is_leaf and cut_parents[vertex] is not None:
                cut_parents[vertex] = None

        # group the fragments by the root of their subtree in the cut forest
        group_of: Dict[int, int] = {}

        def find_group(vertex: int) -> int:
            """Return ``vertex``'s cut-forest root, path-caching the chain."""
            chain = []
            current = vertex
            while current not in group_of:
                parent = cut_parents[current]
                if parent is None:
                    group_of[current] = current
                    break
                chain.append(current)
                current = parent
            root = group_of[current]
            for member in chain:
                group_of[member] = root
            return root

        groups: Dict[int, List[int]] = {}
        for vertex in f_parents:
            groups.setdefault(find_group(vertex), []).append(vertex)

        busy = 0
        for group_root, group_vertices in groups.items():
            if len(group_vertices) == 1:
                continue
            # splice every non-root fragment of the group onto its F-parent
            # via the selected physical link, re-rooting it at the link's
            # inside endpoint (this is the distributed "merge broadcast")
            reroot_radius = 0
            spliced_nodes = 0
            for vertex in group_vertices:
                if vertex == group_root:
                    continue
                u, v = chosen[vertex]
                _reroot_indexed(parent_idx, u)
                parent_idx[u] = v
                vertex_radius = radii[vertex]
                if vertex_radius > reroot_radius:
                    reroot_radius = vertex_radius
                spliced_nodes += sizes[vertex]
            # one broadcast over every spliced fragment performs the
            # re-rooting and the new-core announcement
            self._metrics.record_messages(2 * spliced_nodes)
            new_members: List[int] = []
            new_first = first_pos[group_root]
            for vertex in group_vertices:
                new_members.extend(members[vertex])
                vertex_first = first_pos[vertex]
                if vertex_first < new_first:
                    new_first = vertex_first
                if vertex != group_root:
                    del members[vertex]
                    del sizes[vertex]
                    del radii[vertex]
                    del first_pos[vertex]
            for node in new_members:
                core_arr[node] = group_root
            # the new-core announcement travels to the whole merged fragment
            self._metrics.record_messages(len(new_members))
            # re-walk just the merged tree to refresh depths and obtain its
            # new radius (the depth assignment is order-independent): mark
            # every member unknown, then chase each unknown node's parent
            # chain to the nearest known depth and back-fill — each node is
            # walked once, with no children index to build
            for node in new_members:
                depths[node] = -1
            depths[group_root] = 0
            new_radius = 0
            for node in new_members:
                if depths[node] >= 0:
                    continue
                chain: List[int] = []
                current = node
                while depths[current] < 0:
                    chain.append(current)
                    current = parent_idx[current]
                depth = depths[current]
                for link in reversed(chain):
                    depth += 1
                    depths[link] = depth
                if depth > new_radius:
                    new_radius = depth
            # keep the member list in ascending index order — the order the
            # historical per-phase rebuild produced.  It is load-bearing:
            # a link rejection marks BOTH endpoints' scan entries dead, so
            # whichever member scans first pays the test, and the per-node
            # test counts feed the busy-rounds accounting
            new_members.sort()
            members[group_root] = new_members
            sizes[group_root] = len(new_members)
            radii[group_root] = new_radius
            first_pos[group_root] = new_first
            group_busy = 2 * reroot_radius + new_radius + 1
            if group_busy > busy:
                busy = group_busy
        return busy


# ----------------------------------------------------------------------
# module-level helpers
# ----------------------------------------------------------------------
def _reroot_indexed(parent_idx: List[int], new_root: int) -> None:
    """Re-root a tree at ``new_root`` in the flat parent-index array.

    The index-space twin of :func:`repro.protocols.spanning.tree_utils.reroot`:
    only the parent pointers along the path from ``new_root`` to the old
    root are reversed (``-1`` encodes "no parent").
    """
    path = [new_root]
    current = parent_idx[new_root]
    while current >= 0:
        path.append(current)
        current = parent_idx[current]
    for index in range(len(path) - 1, 0, -1):
        parent_idx[path[index]] = path[index - 1]
    parent_idx[new_root] = -1


def _core_identifiers(
    f_parents: Dict[int, Optional[int]], nodes: Sequence[NodeId]
) -> Dict[int, int]:
    """Assign distinct integer identifiers to the vertices of F.

    Fragment cores are network nodes; when their labels are integers they
    are used directly (they are distinct), otherwise the cores are ranked by
    the ``repr`` of their labels.
    """
    if all(isinstance(nodes[core], int) for core in f_parents):
        return {core: int(nodes[core]) for core in f_parents}
    ordered = sorted(f_parents, key=lambda core: repr(nodes[core]))
    return {core: rank for rank, core in enumerate(ordered)}
