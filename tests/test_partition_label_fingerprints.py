"""Pinned deterministic-partition fingerprints for non-integer node labels.

The v1 goldens pin the deterministic partitioner on graphs labelled
``0..n-1`` only.  The paper's output also depends on the labels in two
places — which side of a 2-cycle in the fragment forest F is dropped, and
the identifiers F is 3-coloured with — so relabelling a graph can change the
forest.  Each case here relabels one :func:`make_topology` graph (strings,
tuples, floats, or a shuffled integer permutation), runs the partitioner to
its default target and to target 4, and reduces the run to the fragment
order, a digest of every fragment's parent map, the per-phase records and
the exact counters.  The expected values in
``tests/data/partition_label_fingerprints.json`` are literal: they were
recorded from the implementation that still rebuilt F over node objects, so
any label-dependent drift of the index-space partitioner shows up here.

Regenerate (only when a change to partition output is intended):

    PYTHONPATH=src python tests/test_partition_label_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.partition.deterministic import DeterministicPartitioner
from repro.experiments.harness import make_topology

FINGERPRINTS = Path(__file__).parent / "data" / "partition_label_fingerprints.json"

TOPOLOGIES = (("grid", 64), ("geometric", 80), ("scale_free", 96), ("ring", 64))
TOPOLOGY_SEED = 5


def _shuffled_ints(nodes):
    permutation = list(range(len(nodes)))
    random.Random(TOPOLOGY_SEED).shuffle(permutation)
    return dict(zip(nodes, permutation))


#: label kind → mapping builder over the graph's node list
LABELS = {
    "str": lambda nodes: {node: f"node-{node}" for node in nodes},
    "tuple": lambda nodes: {node: (node % 7, str(node)) for node in nodes},
    "float": lambda nodes: {node: float(node) for node in nodes},
    "shuffled_int": _shuffled_ints,
}

TARGETS = ("default", 4)


def _digest(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def fingerprint(kind, n, labels, target):
    """Run one case and reduce it to its fragment order, digests and counters."""
    graph = make_topology(kind, n, seed=TOPOLOGY_SEED)
    graph = graph.relabeled(LABELS[labels](graph.nodes()))
    result = DeterministicPartitioner(
        graph, target_size=None if target == "default" else target
    ).run()
    fragments = [
        (fragment.core, list(fragment.parents.items()))
        for fragment in result.forest.fragments
    ]
    return {
        "cores": _digest(result.forest.cores),
        "fragments": _digest(fragments),
        "phases": [asdict(record) for record in result.phases],
        "rounds": result.metrics.rounds,
        "busy_rounds": result.busy_rounds,
        "messages": result.metrics.point_to_point_messages,
        "num_fragments": result.num_fragments,
    }


CASES = [
    (kind, n, labels, target)
    for kind, n in TOPOLOGIES
    for labels in LABELS
    for target in TARGETS
]


def _case_key(kind, n, labels, target):
    return f"{kind}/{n}/{labels}/{target}"


def compute_all():
    """Return every case's fingerprint keyed by ``kind/n/labels/target``."""
    return {_case_key(*case): fingerprint(*case) for case in CASES}


@pytest.fixture(scope="module")
def expected():
    return json.loads(FINGERPRINTS.read_text())


def test_every_case_is_pinned(expected):
    assert sorted(expected) == sorted(_case_key(*case) for case in CASES)


@pytest.mark.parametrize("kind,n,labels,target", CASES)
def test_fingerprint_matches(expected, kind, n, labels, target):
    assert fingerprint(kind, n, labels, target) == expected[
        _case_key(kind, n, labels, target)
    ]


if __name__ == "__main__":
    FINGERPRINTS.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS}")
