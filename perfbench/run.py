"""Closed-loop benchmark of the repro package, one workload per process.

Run from the repository root::

    python3 perfbench/run.py --workload partition_grid --seed 11 --seconds 36 --trace 0

One process runs one op at a time until ``--seconds`` are spent.  Every op's
outputs are checked outside the timer, and its exact work counters must
repeat from op to op.  A fixed yardstick (``yardstick.py``) is timed after
every op, and the end-to-end timings are reported at the yardstick's
reference speed, so that a shared host's changing speed moves them less.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run interleaves untraced and
traced ops and reports the per-layer metrics of the traced ops, plus the
tracing overhead.  The metric names and units are
the ones ``BENCHMARK.json`` declares.  A full report, spans included, is
written to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from yardstick import REFERENCE_S, YardstickProcess

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 5
MIN_OPS = {0: 3, 1: 2}


@dataclass
class OpRecord:
    index: int
    traced: bool
    wall_s: float
    cpu_s: float
    #: one yardstick pass just after the op, outside its timer
    yardstick_s: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    measured: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


def cpu_seconds() -> float:
    """User + system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def at_reference_speed(record: OpRecord, scale: float) -> Tuple[float, float]:
    """Return the op's (wall, CPU) seconds at the yardstick's reference speed.

    ``scale`` is the reference pass time over the run's median pass time.
    The CPU time is scaled by it; the rest of the wall time is waiting (on
    workers, on a join timeout), which the host's speed does not change.
    """
    return record.wall_s - record.cpu_s * (1.0 - scale), record.cpu_s * scale


def host_fingerprint(yardstick: YardstickProcess) -> Dict[str, object]:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_1m": os.getloadavg()[0],
        "yardstick_s": yardstick.time(),
    }


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh benchmark process until its first op is ready."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or ready != "ready":
        raise RuntimeError(f"setup probe failed (exit {child.returncode})")
    return elapsed


def run_op(workload, index: int, tracer, traced: bool) -> OpRecord:
    """Run one op (timed), then check it (untimed)."""
    from tracing import NullTracer, instrument

    active = tracer if traced else NullTracer()
    tracer.op = index
    gc.collect()
    scope = (
        instrument(tracer)
        if traced and workload.instrument_inner
        else contextlib.nullcontext()
    )
    outcome = None
    error: Optional[str] = None
    with scope:
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        with active.span("op"):
            try:
                outcome = workload.op(index, active)
            except Exception as exc:  # a failed op is counted, not fatal
                traceback.print_exc()
                error = f"exception:{type(exc).__name__}:{exc}"
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
    record = OpRecord(index, traced, wall, cpu)
    if outcome is None:
        record.failures.append(error)
        return record
    record.counters = outcome.counters
    record.measured = outcome.measured
    try:
        record.failures.extend(workload.check(outcome))
    except Exception as exc:
        traceback.print_exc()
        record.failures.append(f"check_error:{type(exc).__name__}:{exc}")
    return record


def measure(
    args: argparse.Namespace, workload, tracer, yardstick: YardstickProcess
) -> Tuple[List[OpRecord], List[float], float]:
    """Run ops until ``--seconds`` are spent, with a yardstick pass after each.

    Return the op records, every pass time (one before the first op) and
    the seconds measured.
    """
    records: List[OpRecord] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    passes = [yardstick.time()]
    try:
        while True:
            traced = bool(args.trace) and len(records) % 2 == 1
            op_start = time.perf_counter()
            record = run_op(workload, len(records), tracer, traced)
            record.yardstick_s = yardstick.time()
            passes.append(record.yardstick_s)
            records.append(record)
            last = time.perf_counter() - op_start
            if len(records) >= MIN_OPS[args.trace] and time.perf_counter() + last > deadline:
                break
    finally:
        workload.close()
    return records, passes, time.perf_counter() - start


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, records: List[OpRecord]) -> List[Dict[str, float]]:
    """Per traced op, every per-layer value its spans, counters and measurements give."""
    from tracing import self_times

    per_op = []
    for record in records:
        spans = tracer.op_spans(record.index)
        own = self_times(spans)
        root = next(i for i, s in spans if s[3] is None)
        total: Dict[str, float] = {}
        for _, s in spans:
            if s[0] == "partition.det" and s[3] != root:
                continue  # MST stage 1 counts in mst.run, not the standalone run
            total[s[0]] = total.get(s[0], 0.0) + (s[2] - s[1])
        # every layer span "<name>" gives the metric "<name>_s"; layers the
        # workload does not run are absent and report 0
        values: Dict[str, float] = {f"{name}_s": secs for name, secs in total.items()}
        values.update(record.counters)
        values.update(record.measured)
        values["mst.self_s"] = sum(own[i] for i, s in spans if s[0] == "mst.run")
        values["trace.unaccounted_s"] = own[root]
        get = values.get
        values["partition.det_msgs_per_s"] = rate(
            get("partition.det_messages", 0), get("partition.det_s", 0.0)
        )
        values["partition.rand_msgs_per_s"] = rate(
            get("partition.rand_messages", 0), get("partition.rand_s", 0.0)
        )
        values["sim.msgs_per_s"] = rate(
            get("sim.messages", 0), get("sim.fault_free_s", 0.0) + get("sim.adversity_s", 0.0)
        )
        values["channel.success_per_attempt"] = rate(
            get("channel.success", 0), get("channel.write_attempts", 0)
        )
        if "executor.call" in total:
            values["executor.overhead_s"] = (
                total["executor.call"] - get("executor.compute_s", 0.0) - get("executor.tail_s", 0.0)
            )
        per_op.append(values)
    return per_op


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    declared = ROOT / "BENCHMARK.json"
    if not (source / "repro").is_dir() or not declared.is_file():
        print(f"perfbench: needs src/repro and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    workload.setup()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    spec = json.loads(declared.read_text())
    tracer = Tracer()
    with YardstickProcess() as yardstick:
        host = host_fingerprint(yardstick)
        setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
        records, passes, measured_s = measure(args, workload, tracer, yardstick)
        host["yardstick_s_after"] = yardstick.time()
    host["loadavg_1m_after"] = os.getloadavg()[0]

    # the work counters are exact: any op that disagrees with the first failed
    reference = next((r.counters for r in records if r.counters), {})
    for record in records:
        if record.counters and record.counters != reference:
            record.failures.append("counters_repeat")
    failed = sum(1 for r in records if r.failures)
    attempted = len(records)

    plain = [r for r in records if not r.traced]
    traced_records = [r for r in records if r.traced]
    # one scale for the whole run: the median of its passes is far steadier
    # than a single pass, and a run is what two commits are compared by
    scale = REFERENCE_S / statistics.median(passes)
    scaled = [at_reference_speed(r, scale) for r in plain]
    wall = quartiles([r.wall_s for r in plain])
    summary: Dict[str, Dict[str, float]] = {
        "op_s": quartiles([w for w, _ in scaled]),
        "cpu_s": quartiles([c for _, c in scaled]),
        "op_s_raw": wall,
        "cpu_s_raw": quartiles([r.cpu_s for r in plain]),
        "yardstick_s": quartiles(passes),
    }
    if args.trace == 0:
        names = spec["end_to_end"]
        values = {
            "op_s": summary["op_s"]["median"],
            "cpu_s": summary["cpu_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_samples) * scale,
        }
    else:
        names = spec["per_layer"]
        per_op = layer_metrics(tracer, traced_records)
        values = {
            name: statistics.median(op.get(name, 0.0) for op in per_op)
            for name in {m["name"] for m in names}
        }
        traced_wall = quartiles([r.wall_s for r in traced_records])
        summary["trace.op_s"] = traced_wall
        values["trace.op_s"] = traced_wall["median"]
        values["trace.untraced_op_s"] = wall["median"]
        values["trace.overhead_s"] = traced_wall["median"] - wall["median"]
        values["host.yardstick_s"] = summary["yardstick_s"]["median"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "host": host,
        "setup_samples_s": setup_samples,
        "scale": scale,
        "summary": summary,
        "failed_frac": {"failed": failed, "attempted": attempted},
        "ops": [vars(r) for r in records],
        "metrics": metrics,
        "spans": tracer.to_json(),
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"host {json.dumps(host)}")
    for name, q in summary.items():
        print(
            f"{name:28s} median {q['median']:.4f} s  "
            f"q1 {q['q1']:.4f}  q3 {q['q3']:.4f}  n={q['n']}"
        )
    for record in records:
        if record.failures:
            print(f"op {record.index} failed: {', '.join(record.failures)}")
    print(f"{'failed_frac':28s} {failed}/{attempted} = {failed / attempted:.4f}")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"report {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
