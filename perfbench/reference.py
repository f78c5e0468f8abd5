"""A fixed pure-Python reference loop that measures how fast the host runs.

The benchmark shares a few cores with other tenants, whose load can slow
every instruction it runs by half for tens of seconds.  Each wall or CPU
timing of the program is therefore paired with a timing of this loop
taken right beside it, and reported as the program's time divided by the
loop's, scaled by ``REFERENCE_MS``: the time the program would have
taken on a host where the loop takes ``REFERENCE_MS``.

The loop does what the simulator does most (generator resumes, heap
pushes and pops of slotted objects, small dict allocations, lookups in
a table of several MB, so it also waits on the cache as the simulator
does) and uses no code of the program, so an optimisation of the
program never changes it.  Over repeated runs of one ``hotlock`` sub-run
in fresh processes, while the host's speed varied by 60%, the scaled
cost stayed within 3% of its median (a loop over a small table, without
the lookups, stayed within 6.5%).
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Generator, List, Tuple

# About the loop's quiet cost on the 2-vCPU host the bounds were set on.
REFERENCE_MS = 1.0
_ROUNDS = 500
_TABLE_ROWS = 50_000
_PROCESSES = 2_000


class _Item:
    __slots__ = ("at", "index", "payload")

    def __init__(self, at: int, index: int, payload: Dict[str, int]) -> None:
        self.at = at
        self.index = index
        self.payload = payload

    def __lt__(self, other: "_Item") -> bool:
        return self.at < other.at


def _process(table: Dict[int, Tuple[int, int]]) -> Generator[None, int, None]:
    total = 0
    while True:
        row = yield
        total += table[row][0]


class _Reference:
    """The loop's long-lived state, built once: the table and processes."""

    def __init__(self) -> None:
        self.table = {row: (row, row) for row in range(_TABLE_ROWS)}
        self.processes: List[Generator[None, int, None]] = [
            _process(self.table) for _ in range(_PROCESSES)
        ]
        for process in self.processes:
            next(process)
        self.state = 12345

    def run(self) -> None:
        heap: List[_Item] = []
        x = self.state
        for _ in range(_ROUNDS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, _Item(x & 1023, x % _PROCESSES, {"x": x}))
            if len(heap) > 64:
                item = heapq.heappop(heap)
                self.processes[item.index].send(x % _TABLE_ROWS)
        self.state = x


_reference = None


def time_reference() -> Tuple[float, float]:
    """Run the loop once: its (wall seconds, CPU seconds)."""
    global _reference
    if _reference is None:
        _reference = _Reference()
    wall, cpu = time.perf_counter(), time.process_time()
    _reference.run()
    return time.perf_counter() - wall, time.process_time() - cpu
