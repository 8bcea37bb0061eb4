"""Tests for the lower-bound formulas (5.2) and size computation (7.3/7.4)."""

import math

import pytest

from repro.core.lower_bounds import (
    broadcast_lower_bound,
    claim4_sensitivity_trace,
    lower_bound_for_graph,
    multimedia_lower_bound,
    multimedia_upper_bound_randomized,
    point_to_point_lower_bound,
)
from repro.core import size_estimation
from repro.core.size_estimation import (
    compute_size_deterministically,
    estimate_size_randomized,
)
from repro.sim.errors import ProtocolError
from repro.topology.generators import grid_graph, ray_graph, ring_graph
from repro.topology.properties import diameter


class TestBoundFormulas:
    def test_point_to_point_bound_is_diameter(self):
        assert point_to_point_lower_bound(17) == 17
        with pytest.raises(ValueError):
            point_to_point_lower_bound(-1)

    def test_broadcast_bound_is_half_n(self):
        assert broadcast_lower_bound(10) == 5
        assert broadcast_lower_bound(11) == 5

    def test_multimedia_bound_is_min_of_d_and_sqrt_n(self):
        assert multimedia_lower_bound(10_000, 4) == 1          # d dominates
        assert multimedia_lower_bound(64, 1000) == 2            # √n dominates
        assert multimedia_lower_bound(10_000, 1000) == 25

    def test_lower_bound_for_graph_dispatch(self):
        graph = ring_graph(20)
        assert lower_bound_for_graph(graph, "point-to-point") == diameter(graph)
        assert lower_bound_for_graph(graph, "channel") == 10
        assert lower_bound_for_graph(graph, "multimedia") == int(math.sqrt(20) // 4)
        with pytest.raises(ValueError):
            lower_bound_for_graph(graph, "carrier-pigeon")

    def test_upper_bound_exceeds_lower_bound(self):
        for n in (64, 256, 1024, 4096):
            assert multimedia_upper_bound_randomized(n) >= multimedia_lower_bound(n, n)


class TestClaim4Adversary:
    def test_horizon_tracks_min_d_sqrt_n(self):
        # wide shallow ray graph: d small, so d/4 governs
        shallow = claim4_sensitivity_trace(n=401, d=8)
        assert shallow.horizon >= 8 // 4 - 1
        # long thin ray graph: √n governs
        deep = claim4_sensitivity_trace(n=257, d=128)
        assert deep.horizon >= int(math.sqrt(257) / 4) - 1

    def test_sensitivity_is_non_increasing(self):
        trace = claim4_sensitivity_trace(n=200, d=20)
        assert all(a >= b for a, b in zip(trace.steps, trace.steps[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            claim4_sensitivity_trace(n=2, d=8)
        with pytest.raises(ValueError):
            claim4_sensitivity_trace(n=100, d=1)

    def test_matches_ray_graph_construction(self):
        graph = ray_graph(8, 8)
        trace = claim4_sensitivity_trace(graph.num_nodes(), diameter(graph))
        assert trace.horizon >= 1


class TestSizeComputation:
    def test_deterministic_size_is_exact(self):
        graph = grid_graph(6, 6)
        result = compute_size_deterministically(graph, seed=1)
        assert result.n == 36
        assert result.phases_used >= 1
        assert result.scheduling_slots > 0

    def test_deterministic_size_on_ring(self):
        graph = ring_graph(30)
        result = compute_size_deterministically(graph, seed=2)
        assert result.n == 30

    def test_deterministic_size_only_absorbs_budget_exhaustion(self, monkeypatch):
        # a bug inside the contention must surface, not raise the exponent
        def broken(*args, **kwargs):
            raise TypeError("bug inside contention")

        monkeypatch.setattr(size_estimation, "run_contention", broken)
        with pytest.raises(TypeError, match="bug inside contention"):
            compute_size_deterministically(grid_graph(6, 6), seed=1)

    def test_exhausted_schedule_tries_the_next_exponent(self, monkeypatch):
        baseline = compute_size_deterministically(grid_graph(6, 6), seed=1)
        real = size_estimation.run_contention
        calls = []

        def exhaust_previous(*args, **kwargs):
            # also exhaust the exponent that succeeded unpatched
            calls.append(1)
            if len(calls) <= baseline.phases_used:
                raise ProtocolError("contention did not resolve")
            return real(*args, **kwargs)

        monkeypatch.setattr(size_estimation, "run_contention", exhaust_previous)
        result = compute_size_deterministically(grid_graph(6, 6), seed=1)
        assert result.n == 36
        assert result.phases_used == baseline.phases_used + 1

    def test_randomized_estimate_reasonable(self):
        graph = grid_graph(10, 10)
        estimates = [
            estimate_size_randomized(graph, seed=seed) for seed in range(15)
        ]
        median_error = sorted(e.error_factor for e in estimates)[7]
        assert median_error <= 8
        assert all(e.true_n == 100 for e in estimates)

    def test_empty_graph_rejected(self):
        from repro.topology.graph import WeightedGraph

        with pytest.raises(ValueError):
            estimate_size_randomized(WeightedGraph())
        with pytest.raises(ValueError):
            compute_size_deterministically(WeightedGraph())
