"""A fixed reference load that measures how fast the host runs right now.

On a VM that shares its cores with other tenants, their load changes the
speed of this process by up to 1.7x over seconds to minutes.  Timing a
fixed load right after each cell, and dividing the cell's time by it,
cancels most of that swing.  Small loops do not: a short arithmetic or
heap loop slows far less than the simulator under the same load.  So the
reference is a small discrete-event loop of the simulator's own kind --
a heap of events, ``__slots__`` objects for posted work requests, byte
copies between node memories, dict counters -- about 24k objects and
12k events, ~40-60 ms.  It is written here, not imported from ``repro``,
so that a change to the program does not change the yardstick.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter_ns

#: reported times are host seconds scaled to a host on which one
#: ``reference_run`` (with its collection) takes this long
REFERENCE_S = 0.05


class _WorkRequest:
    __slots__ = ("wr_id", "addr", "length", "peer")

    def __init__(self, wr_id: int, addr: int, length: int, peer: int) -> None:
        self.wr_id = wr_id
        self.addr = addr
        self.length = length
        self.peer = peer


class _Node:
    __slots__ = ("rank", "posted", "mem", "seen")

    def __init__(self, rank: int, nrecv: int) -> None:
        self.rank = rank
        self.posted = [_WorkRequest(i, i * 64, 64, rank) for i in range(nrecv)]
        self.mem = bytearray(1 << 16)
        self.seen: dict = {}


def reference_run(nodes: int = 4, nrecv: int = 6000, events: int = 12000) -> int:
    """Run the fixed load; returns the number of events processed."""
    ranks = [_Node(r, nrecv) for r in range(nodes)]
    heap: list = []
    seq = 0
    for r in range(nodes):
        heapq.heappush(heap, (0.0, seq, r, 0))
        seq += 1
    done = 0
    while heap and done < events:
        now, _, r, k = heapq.heappop(heap)
        node = ranks[r]
        wr = node.posted[k % nrecv]
        block = bytes(node.mem[wr.addr:wr.addr + wr.length])
        dst = ranks[(r + 1 + k % (nodes - 1)) % nodes]
        at = (k * 128) % 65000
        dst.mem[at:at + 64] = block
        key = (r, k & 1023)
        dst.seen[key] = dst.seen.get(key, 0) + 1
        heapq.heappush(heap, (now + 0.5 + (k % 7) * 0.1, seq, dst.rank, k + 1))
        seq += 1
        done += 1
    return done


def time_reference() -> int:
    """Nanoseconds one ``reference_run`` and its collection take now."""
    t0 = perf_counter_ns()
    reference_run()
    gc.collect()
    return perf_counter_ns() - t0
