"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``(name, start, end, parent, op)``: the parent is the index of the
enclosing span (``None`` for an op's root span) and ``op`` is the op id every
span of one op shares.  Spans are kept in a list and written out once, when
the run ends.

The benchmark opens spans around the public entry points it calls itself.
Two of those calls span several layers (``compute_global_function`` and
``MultimediaMST.run``), so :func:`instrument` also wraps the inner public
entry points they reach — ``MultimediaNetwork.run``, ``run_contention`` and
``DeterministicPartitioner.run`` — by rebinding the names those modules
imported.  Nothing under ``src/`` is edited, and the wrapping is undone when
the ``with`` block ends.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Dict, Iterator, List, Optional, Tuple


class NullTracer:
    """The tracer of untraced ops: every span is free and records nothing."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()


class Tracer:
    """Records nested spans in memory."""

    def __init__(self) -> None:
        # [name, start, end, parent index, op id]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def op_spans(self, op: int) -> List[Tuple[int, list]]:
        """Return ``(index, span)`` for every span of one op."""
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == op]

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
            for s in self.spans
        ]


def self_times(spans: List[Tuple[int, list]]) -> Dict[int, float]:
    """Return each span's duration minus the time its child spans cover."""
    own = {i: s[2] - s[1] for i, s in spans}
    for _, s in spans:
        if s[3] in own:
            own[s[3]] -= s[2] - s[1]
    return own


def _traced_function(tracer: Tracer, name: str, function):
    def traced(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the inner entry points of the multi-layer public calls."""
    multimedia = importlib.import_module("repro.sim.multimedia")
    deterministic = importlib.import_module("repro.core.partition.deterministic")
    collision = importlib.import_module("repro.protocols.collision.base")

    class TracedNetwork(multimedia.MultimediaNetwork):
        def run(self, *args, **kwargs):
            faulty = kwargs.get("adversity") is not None
            with tracer.span("sim.adversity" if faulty else "sim.fault_free"):
                return super().run(*args, **kwargs)

    class TracedPartitioner(deterministic.DeterministicPartitioner):
        def run(self):
            with tracer.span("partition.det"):
                return super().run()

    contention = _traced_function(
        tracer, "collision.contention", collision.run_contention
    )
    bindings = [
        ("repro.core.global_function.multimedia", "MultimediaNetwork", TracedNetwork),
        ("repro.core.global_function.baselines", "MultimediaNetwork", TracedNetwork),
        ("repro.core.mst.multimedia_mst", "DeterministicPartitioner", TracedPartitioner),
        ("repro.core.mst.multimedia_mst", "run_contention", contention),
        ("repro.core.partition.randomized", "run_contention", contention),
        ("repro.core.global_function.multimedia", "run_contention", contention),
        ("repro.core.global_function.baselines", "run_contention", contention),
    ]
    saved = []
    try:
        for module_name, attribute, replacement in bindings:
            module = importlib.import_module(module_name)
            saved.append((module, attribute, getattr(module, attribute)))
            setattr(module, attribute, replacement)
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)
