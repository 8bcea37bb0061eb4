"""Tests for the deterministic partitioning algorithm (Section 3)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.complexity import (
    det_partition_message_bound,
    det_partition_time_bound,
)
from repro.core.partition.deterministic import DeterministicPartitioner
from repro.core.partition.validation import validate_partition
from repro.topology.generators import (
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
    ring_graph,
)
from repro.topology.graph import WeightedGraph
from repro.topology.weights import assign_distinct_weights


def partition(graph, **kwargs):
    return DeterministicPartitioner(graph, **kwargs).run()


class TestInvariants:
    def test_grid_partition_meets_all_paper_bounds(self, medium_grid):
        result = partition(medium_grid)
        n = medium_grid.num_nodes()
        report = validate_partition(
            result.forest,
            medium_grid,
            check_mst_subtrees=True,
            min_size_bound=math.sqrt(n),
            max_radius_bound=8 * math.sqrt(n),
            max_fragments_bound=math.sqrt(n),
        )
        assert report.ok, report.violations

    def test_ring_partition(self):
        graph = assign_distinct_weights(ring_graph(100), seed=4)
        result = partition(graph)
        report = validate_partition(
            result.forest, graph, check_mst_subtrees=True,
            min_size_bound=10, max_radius_bound=80,
        )
        assert report.ok, report.violations

    def test_sparse_random_graph(self):
        graph = assign_distinct_weights(erdos_renyi_graph(90, 0.04, seed=2), seed=2)
        result = partition(graph)
        n = graph.num_nodes()
        report = validate_partition(
            result.forest, graph, check_mst_subtrees=True,
            min_size_bound=math.sqrt(n), max_radius_bound=8 * math.sqrt(n),
        )
        assert report.ok, report.violations

    def test_geometric_graph(self):
        graph = assign_distinct_weights(random_geometric_graph(80, seed=6), seed=6)
        result = partition(graph)
        report = validate_partition(result.forest, graph, check_mst_subtrees=True)
        assert report.ok

    def test_single_node_network(self):
        graph = WeightedGraph()
        graph.add_node(0)
        result = partition(graph)
        assert result.num_fragments == 1

    def test_two_node_network(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1.0)
        result = partition(graph)
        assert result.num_fragments == 1

    def test_levels_grow_per_phase(self, medium_grid):
        result = partition(medium_grid)
        for record in result.phases:
            if record.active_fragments:
                assert record.fragments_after < record.fragments_before

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_property_random_grids_meet_bounds(self, side, seed):
        graph = assign_distinct_weights(grid_graph(side, side), seed=seed)
        result = partition(graph)
        n = graph.num_nodes()
        report = validate_partition(
            result.forest, graph, check_mst_subtrees=True,
            min_size_bound=math.sqrt(n), max_radius_bound=8 * math.sqrt(n),
            max_fragments_bound=math.sqrt(n),
        )
        assert report.ok, report.violations


class TestComplexity:
    def test_time_within_constant_of_bound(self, medium_grid):
        result = partition(medium_grid)
        bound = det_partition_time_bound(medium_grid.num_nodes())
        assert result.metrics.rounds <= 40 * bound

    def test_messages_within_constant_of_bound(self, medium_grid):
        result = partition(medium_grid)
        bound = det_partition_message_bound(
            medium_grid.num_nodes(), medium_grid.num_edges()
        )
        assert result.metrics.point_to_point_messages <= 12 * bound

    def test_synchronized_phases_charge_at_least_busy_time(self, medium_grid):
        result = partition(medium_grid)
        assert result.metrics.rounds >= result.busy_rounds

    def test_phase_records_add_up_to_the_totals(self, medium_grid):
        # the padded (charged) and unpadded (busy) time are both reported,
        # overall and per phase
        result = partition(medium_grid)
        assert result.metrics.rounds == sum(p.charged_rounds for p in result.phases)
        assert result.busy_rounds == sum(p.busy_rounds for p in result.phases)
        assert all(p.charged_rounds >= p.busy_rounds for p in result.phases)

    def test_phase_count_is_logarithmic(self, medium_grid):
        result = partition(medium_grid)
        assert len(result.phases) <= math.ceil(math.log2(result.target_size)) + 1


class TestTargetSize:
    def test_custom_target_size(self, medium_grid):
        result = partition(medium_grid, target_size=4)
        assert result.forest.min_size() >= 4
        assert result.target_size == 4

    def test_target_larger_than_default_gives_fewer_fragments(self, medium_grid):
        small = partition(medium_grid, target_size=4).num_fragments
        large = partition(medium_grid, target_size=16).num_fragments
        assert large <= small

    def test_invalid_inputs_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(ValueError):
            DeterministicPartitioner(graph)
        disconnected = WeightedGraph()
        disconnected.add_nodes([0, 1])
        with pytest.raises(ValueError):
            DeterministicPartitioner(disconnected)

    def test_repeated_weights_rejected(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        with pytest.raises(ValueError, match="link weights must be distinct"):
            DeterministicPartitioner(graph)
        # the usual remedy makes the same graph acceptable
        assert partition(assign_distinct_weights(graph, seed=1)).num_fragments >= 1

    def test_determinism(self, medium_grid):
        first = partition(medium_grid)
        second = partition(medium_grid)
        assert first.forest.parent_map() == second.forest.parent_map()
        assert first.metrics.rounds == second.metrics.rounds


class TestNonIntegerNodes:
    """The partitioner runs on the CSR slot indices whatever the labels are;
    graphs whose labels are not ``0..n-1`` must still get a valid,
    deterministic forest keyed by their own labels (the exact forests are
    pinned by ``test_partition_label_fingerprints.py``)."""

    def _relabeled_grid(self):
        graph = assign_distinct_weights(grid_graph(8, 8), seed=11)
        return graph.relabeled({node: f"node-{node}" for node in graph.nodes()})

    def test_string_labelled_partition_is_valid(self):
        graph = self._relabeled_grid()
        result = partition(graph)
        n = graph.num_nodes()
        report = validate_partition(
            result.forest,
            graph,
            check_mst_subtrees=True,
            min_size_bound=math.sqrt(n),
            max_radius_bound=8 * math.sqrt(n),
        )
        assert report.ok, report.violations

    def test_string_labelled_partition_is_deterministic(self):
        first = partition(self._relabeled_grid())
        second = partition(self._relabeled_grid())
        assert first.forest.parent_map() == second.forest.parent_map()
        assert first.metrics.rounds == second.metrics.rounds
        assert (
            first.metrics.point_to_point_messages
            == second.metrics.point_to_point_messages
        )

    def test_float_labels_key_the_forest(self):
        # 2.0 == 2 compares equal to its index, but the forest must carry
        # the graph's own float labels, not the slot indices
        graph = assign_distinct_weights(grid_graph(4, 4), seed=11)
        floats = graph.relabeled({node: float(node) for node in graph.nodes()})
        result = partition(floats)
        report = validate_partition(result.forest, floats, check_mst_subtrees=True)
        assert report.ok, report.violations
        assert all(type(node) is float for node in result.forest.parent_map())
        assert all(type(core) is float for core in result.forest.cores)
