"""The benchmark's three workloads: one op each, its checks and its counters.

Each workload builds its inputs from the workload seed only: the topology
seed, every algorithm seed and the adversity stream are derived from it.

An op returns an :class:`Outcome`:

* ``counters`` — the paper's exact work counts (rounds, messages, phases,
  fragments, channel slots by outcome …), read from the result objects and
  ``MetricsRecorder`` s the op's calls return.  They must repeat exactly from
  op to op and between untraced and traced ops.
* ``measured`` — per-op quantities that are measured, not counted (seconds,
  bytes that embed timings); reported, never compared.
* ``outputs`` — what :meth:`check` needs to verify the op, outside the timer.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.core.global_function import (
    INTEGER_ADDITION,
    compute_global_function,
    compute_on_point_to_point_only,
)
from repro.core.mst.kruskal import kruskal_mst
from repro.core.mst.multimedia_mst import MultimediaMST
from repro.core.partition import (
    DeterministicPartitioner,
    RandomizedPartitioner,
    validate_partition,
)
from repro.experiments.harness import make_topology
from repro.experiments.registry import load_all
from repro.experiments.runner import run_experiment
from repro.experiments.serialization import jsonable
from repro.serve import ServeApp
from repro.sim.adversity import adversity_state
from repro.sim.errors import AdversityAbort
from repro.sim.metrics import MetricsRecorder
from repro.topology.graph import edge_key

GRID_N = 128 * 128
SCALE_FREE_N = 16384
SWEEP = ("e11", "default")
SWEEP_WORKERS = 2


@dataclass
class Outcome:
    counters: Dict[str, int] = field(default_factory=dict)
    measured: Dict[str, float] = field(default_factory=dict)
    outputs: Dict[str, object] = field(default_factory=dict)


def _channel_counters(*snapshots) -> Dict[str, int]:
    """Channel slots by outcome, summed over the op's top-level recorders."""
    return {
        "channel.slots": sum(s.channel_slots for s in snapshots),
        "channel.idle": sum(s.channel_idle for s in snapshots),
        "channel.success": sum(s.channel_success for s in snapshots),
        "channel.collision": sum(s.channel_collision for s in snapshots),
        "channel.write_attempts": sum(s.channel_write_attempts for s in snapshots),
    }


class Workload:
    """One workload: ``setup`` once, then ``op`` and ``check`` per op."""

    name = ""
    #: wrap the inner entry points of multi-layer calls in traced ops
    instrument_inner = True

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        """Everything the first op needs that is not part of every op."""
        load_all()

    def op(self, index: int, tracer) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> List[str]:
        """Return the names of the checks the op's outputs fail."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the ops left behind."""


class PartitionGrid(Workload):
    """Both partitions and the MST on a 128×128 grid (Sections 3, 4 and 6)."""

    name = "partition_grid"
    _kruskal_keys = None

    def op(self, index: int, tracer) -> Outcome:
        with tracer.span("topology.build"):
            graph = make_topology("grid", GRID_N, seed=self.seed)
        with tracer.span("partition.det"):
            det = DeterministicPartitioner(graph).run()
        with tracer.span("partition.rand"):
            rand = RandomizedPartitioner(graph, seed=self.seed, las_vegas=True).run()
        with tracer.span("mst.run"):
            mst = MultimediaMST(graph).run()
        counters = {
            "topology.nodes": graph.num_nodes(),
            "topology.edges": graph.num_edges(),
            "partition.det_rounds": det.metrics.rounds,
            "partition.det_messages": det.metrics.point_to_point_messages,
            "partition.det_phases": len(det.phases),
            "partition.det_fragments": det.num_fragments,
            "partition.rand_rounds": rand.metrics.rounds,
            "partition.rand_messages": rand.metrics.point_to_point_messages,
            "partition.rand_restarts": rand.restarts,
            "partition.rand_fragments": rand.num_fragments,
            "mst.rounds": mst.metrics.rounds,
            "mst.messages": mst.metrics.point_to_point_messages,
            "mst.scheduling_slots": mst.scheduling_slots,
            "mst.merge_phases": len(mst.merge_phases),
            "mst.initial_fragments": mst.initial_fragments,
        }
        counters.update(_channel_counters(det.metrics, rand.metrics, mst.metrics))
        return Outcome(
            counters=counters,
            outputs={"graph": graph, "det": det, "rand": rand, "mst": mst},
        )

    def check(self, outcome: Outcome) -> List[str]:
        graph = outcome.outputs["graph"]
        sqrt_n = math.sqrt(graph.num_nodes())
        # every op builds the same graph, so one Kruskal MST serves them all;
        # only its edge keys are kept: holding its Edge objects would grow the
        # heap the garbage collector scans during every later op
        if self._kruskal_keys is None:
            self._kruskal_keys = kruskal_mst(graph).edge_keys()
        failed = []
        # e1's bounds (Section 3, Claims 1-2); with distinct weights the MST
        # is unique, so Kruskal's edges decide the subtree-of-MST claim
        det = outcome.outputs["det"].forest
        report = validate_partition(
            det,
            graph,
            min_size_bound=sqrt_n,
            max_radius_bound=8 * sqrt_n,
            max_fragments_bound=sqrt_n,
        )
        subtrees = all(
            edge_key(child, parent) in self._kruskal_keys
            for child, parent in det.tree_edges()
        )
        if not (report.ok and subtrees):
            failed.append("det_partition_bounds")
        rand = outcome.outputs["rand"]
        report = validate_partition(rand.forest, graph, max_radius_bound=4 * sqrt_n)
        if not (report.ok and rand.verified):
            failed.append("rand_partition_bounds")
        # same_tree's comparison, against the kept keys
        if outcome.outputs["mst"].mst.edge_keys() != self._kruskal_keys:
            failed.append("mst_matches_kruskal")
        return failed


class AggregateScaleFree(Workload):
    """A global sum on a Barabási–Albert graph, fault-free and under loss (§5.1)."""

    name = "aggregate_scale_free"

    def op(self, index: int, tracer) -> Outcome:
        seed = self.seed
        with tracer.span("topology.build"):
            graph = make_topology("scale_free", SCALE_FREE_N, seed=seed)
        inputs = {node: int(node) for node in graph.nodes()}
        with tracer.span("partition.rand"):
            rand = RandomizedPartitioner(graph, seed=seed).run()
        with tracer.span("global.fault_free"):
            fault_free = compute_global_function(
                graph, INTEGER_ADDITION, inputs, method="randomized", seed=seed,
                forest=rand.forest,
            )
        # e7's loss preset; the recorder survives an abort, so its counts do
        loss_recorder = MetricsRecorder()
        loss_state = adversity_state("loss", "perfbench", self.name, seed)
        loss_value = None
        with tracer.span("global.loss"):
            try:
                loss_value = compute_global_function(
                    graph, INTEGER_ADDITION, inputs, method="randomized",
                    seed=seed, forest=rand.forest, metrics=loss_recorder,
                    adversity=loss_state,
                ).value
            except AdversityAbort:
                pass
        with tracer.span("baseline.p2p"):
            p2p = compute_on_point_to_point_only(
                graph, INTEGER_ADDITION, inputs, seed=seed
            )
        loss = loss_recorder.snapshot()
        sim_stages = (
            (fault_free.metrics, "local"), (loss, "local"), (p2p.metrics, "aggregate")
        )
        counters = {
            "topology.nodes": graph.num_nodes(),
            "topology.edges": graph.num_edges(),
            "partition.rand_rounds": rand.metrics.rounds,
            "partition.rand_messages": rand.metrics.point_to_point_messages,
            "partition.rand_restarts": rand.restarts,
            "partition.rand_fragments": rand.num_fragments,
            "global.local_rounds": fault_free.local_rounds,
            "global.global_slots": fault_free.global_slots,
            "global.loss_outcome": int(loss_value is not None),
            "global.loss_rounds": loss.rounds,
            "baseline.p2p_rounds": p2p.rounds,
            "baseline.p2p_messages": p2p.metrics.point_to_point_messages,
            "sim.rounds": sum(s.phase_rounds.get(p, 0) for s, p in sim_stages),
            "sim.messages": sum(s.phase_messages.get(p, 0) for s, p in sim_stages),
        }
        counters.update(_channel_counters(rand.metrics, fault_free.metrics, loss))
        return Outcome(
            counters=counters,
            outputs={
                "expected": sum(inputs.values()),
                "values": (fault_free.value, p2p.value),
                "loss_value": loss_value,
                "loss_rounds": loss.rounds,
                "loss_budget": loss_state.round_budget(graph.num_nodes()),
            },
        )

    def check(self, outcome: Outcome) -> List[str]:
        out = outcome.outputs
        failed = []
        if any(value != out["expected"] for value in out["values"]):
            failed.append("fault_free_sums")
        if out["loss_value"] is None:
            if out["loss_rounds"] > out["loss_budget"]:
                failed.append("loss_abort_within_budget")
        elif out["loss_value"] != out["expected"]:
            failed.append("loss_sum")
        return failed


class SweepDistributed(Workload):
    """e11's default sweep on two local workers, read back through serve.

    e11 fixes its own seeds, so the workload seed does not change this op.
    """

    name = "sweep_distributed"
    instrument_inner = False

    def setup(self) -> None:
        load_all()
        self.run_root = self.root / ".perfbench_runs"
        shutil.rmtree(self.run_root, ignore_errors=True)
        self.app = ServeApp(
            run_root=self.run_root, bench_path=self.run_root / "no_bench.json"
        )
        experiment, preset = SWEEP
        reference = run_experiment(experiment, preset=preset)
        self.reference_rows = reference.rows
        self.reference_json = json.loads(json.dumps(jsonable(reference.rows)))

    def op(self, index: int, tracer) -> Outcome:
        experiment, preset = SWEEP
        run_dir = self.run_root / f"op{index:03d}"
        with tracer.span("executor.call"):
            result = run_experiment(
                experiment, preset=preset, executor="distributed",
                workers=SWEEP_WORKERS, run_dir=run_dir,
            )
        returned = time.time()
        with tracer.span("serve.read"):
            status, _, body = self.app.respond(f"/runs/{run_dir.name}")
        shards = sorted(run_dir.glob("shard-*.json"))
        newest = max((path.stat().st_mtime for path in shards), default=returned)
        return Outcome(
            counters={"executor.shards": len(shards)},
            measured={
                "executor.compute_s": result.wall_seconds,
                "executor.tail_s": returned - newest,
                "executor.checkpoint_bytes": sum(
                    path.stat().st_size for path in run_dir.iterdir()
                ),
                "serve.read_bytes": len(body),
            },
            outputs={"run_dir": run_dir, "result": result, "status": status, "body": body},
        )

    def check(self, outcome: Outcome) -> List[str]:
        out = outcome.outputs
        failed = []
        result = out["result"]
        if result.pending_points or result.rows != self.reference_rows:
            failed.append("distributed_rows")
        if out["status"] != 200 or json.loads(out["body"])["rows"] != self.reference_json:
            failed.append("served_rows")
        shutil.rmtree(out["run_dir"], ignore_errors=True)
        return failed

    def close(self) -> None:
        shutil.rmtree(self.run_root, ignore_errors=True)


WORKLOADS = {
    workload.name: workload
    for workload in (PartitionGrid, AggregateScaleFree, SweepDistributed)
}
