"""A fixed pure-Python yardstick for the host's current speed.

On a shared host the neighbours change how fast this process runs Python,
by up to 2x for minutes at a time, so raw op times follow the neighbours
more than the program.  The yardstick is a fixed piece of work that uses no
code under ``src/``: it builds adjacency rows for a fixed random graph and
runs two breadth-first searches over them, the same kind of allocation and
list walking the program's layers do.  The benchmark times it between ops;
an op's time divided by the yardstick time is the op's cost in yardsticks,
which the host's speed changes far less than the op's raw time.

The passes run in a process of their own (:class:`YardstickProcess`), so
that they share no heap, allocator state or forked pages with the program:
a change to the program moves the op and not the yardstick.  The rows are
built afresh in every pass.  Rows built once and kept would sit at one set
of memory addresses for the whole process, and how fast those addresses
walk differs from process to process by up to a third.

Run as a script, it serves passes: one line in, one pass time out.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

#: the yardstick time of the reference host; a scaled time is the time the
#: op would take on a host where the yardstick takes this long
REFERENCE_S = 0.1


class Yardstick:
    """Build and search a fixed random graph with ``nodes`` nodes."""

    def __init__(self, nodes: int = 40_000, links_per_node: int = 3) -> None:
        rng = random.Random(0)
        self._nodes = nodes
        # flat (u, v) pairs
        self._pairs = tuple(
            end
            for u in range(nodes)
            for v in rng.sample(range(nodes), links_per_node)
            for end in (u, v)
        )

    def time(self) -> float:
        """Seconds one pass of the yardstick takes now."""
        nodes, pairs = self._nodes, self._pairs
        start = time.perf_counter()
        rows: List[List[int]] = [[] for _ in range(nodes)]
        for i in range(0, len(pairs), 2):
            u, v = pairs[i], pairs[i + 1]
            rows[u].append(v)
            rows[v].append(u)
        for source in (0, 1):
            dist = [-1] * nodes
            dist[source] = 0
            frontier = [source]
            while frontier:
                reached = []
                for u in frontier:
                    next_dist = dist[u] + 1
                    for v in rows[u]:
                        if dist[v] < 0:
                            dist[v] = next_dist
                            reached.append(v)
                frontier = reached
        return time.perf_counter() - start


class YardstickProcess:
    """A child process that runs one yardstick pass per request.

    Use it as a context manager; leaving the block ends the child and
    waits for it.
    """

    def __init__(self) -> None:
        self._child: Optional[subprocess.Popen] = None

    def __enter__(self) -> "YardstickProcess":
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def time(self) -> float:
        """Seconds one pass takes now, timed inside the child."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        reply = self._child.stdout.readline()
        if not reply:
            raise RuntimeError("the yardstick process ended early")
        return float(reply)

    def __exit__(self, *exc_info) -> None:
        # end of input ends the child's loop
        self._child.stdin.close()
        self._child.wait()
        self._child.stdout.close()


def serve() -> None:
    """Answer each line of standard input with one pass time."""
    # a pass makes no reference cycles, and collections triggered by its
    # 40000 fresh rows would only add their own noise to the pass
    gc.disable()
    yardstick = Yardstick()
    for _ in sys.stdin:
        print(repr(yardstick.time()), flush=True)


if __name__ == "__main__":
    serve()
