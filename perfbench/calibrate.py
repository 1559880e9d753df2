"""A fixed pure-Python kernel that measures how fast this machine runs
interpreter code right now.

On a shared host the same divgraph call can take up to twice as long for
seconds at a time, in CPU time as well as in wall time: the slowdown comes
from the hardware, not from the scheduler, and it differs from core to
core.  The benchmark runs this kernel between operations and scales each op
time by ``REFERENCE_S`` over the kernel time around it (``scale``), so that
times read as on the reference machine at its usual speed.  The kernel does
not import divgraph: a change to the program leaves it unchanged.

Its work has the shape of the program's hot loops: a Dhar-pruned walk over
configurations of a small fixed multigraph (adjacency tuples, list
indexing, nested generators), as in superstable enumeration, and a
fraction-free Bareiss determinant of its reduced Laplacian (big integers),
as in the spanning-tree count.
"""

from __future__ import annotations

import gc
import os
import time

# Kernel time on the reference machine (x86_64, CPython 3.11.7) at its
# usual speed.
REFERENCE_S = 0.00105
REPEATS = 3

_N = 40
# A ring with chords: edge (i, i+1) and edge (i, 7i+3), merged into multiplicities.
_MULT: dict[tuple[int, int], int] = {}
for _i in range(_N):
    for _j in ((_i + 1) % _N, (_i * 7 + 3) % _N):
        if _i != _j:
            _key = (min(_i, _j), max(_i, _j))
            _MULT[_key] = _MULT.get(_key, 0) + 1
_ADJ_LISTS: list[list[tuple[int, int]]] = [[] for _ in range(_N)]
for (_u, _v), _m in _MULT.items():
    _ADJ_LISTS[_u].append((_v, _m))
    _ADJ_LISTS[_v].append((_u, _m))
_ADJ = tuple(tuple(a) for a in _ADJ_LISTS)
_DEGREES = [sum(m for _, m in a) for a in _ADJ]
_WALK_STEPS = 60
_MINOR = 22  # Bareiss on the reduced Laplacian of the first _MINOR + 1 vertices


def _unburnt(coeffs: list[int], q: int, ignored) -> list[int]:
    """Dhar's burning from q, with ``ignored`` burnt from the start."""
    burnt = [False] * _N
    burnt[q] = True
    queue = [q]
    for i in ignored:
        if not burnt[i]:
            burnt[i] = True
            queue.append(i)
    heat = [0] * _N
    while queue:
        v = queue.pop()
        for w, m in _ADJ[v]:
            if not burnt[w]:
                heat[w] += m
                if heat[w] > coeffs[w]:
                    burnt[w] = True
                    queue.append(w)
    return [i for i in range(_N) if not burnt[i]]


def _walk(coeffs: list[int], order: list[int], pos: int, unassigned: set, budget: list[int]):
    if pos == len(order) or budget[0] <= 0:
        yield tuple(coeffs)
        return
    v = order[pos]
    unassigned.discard(v)
    for value in range(_DEGREES[v]):
        coeffs[v] = value
        budget[0] -= 1
        if not _unburnt(coeffs, 0, unassigned):
            yield from _walk(coeffs, order, pos + 1, unassigned, budget)
        if budget[0] <= 0:
            break
    coeffs[v] = 0
    unassigned.add(v)


def _bareiss() -> int:
    size = _MINOR
    a = [[0] * size for _ in range(size)]
    for i in range(size):
        a[i][i] = _DEGREES[i + 1]
        for w, m in _ADJ[i + 1]:
            if 1 <= w <= size:
                a[i][w - 1] -= m
    prev = 1
    for k in range(size - 1):
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k] or 1
    return a[-1][-1]


def _kernel() -> int:
    order = list(range(1, _N))
    total = sum(sum(t) for t in _walk([0] * _N, order, 0, set(order), [_WALK_STEPS]))
    return total + _bareiss()


def scale(before_s: float, after_s: float) -> float:
    """The factor that turns a time measured between two kernel runs into
    reference time."""
    return 2 * REFERENCE_S / (before_s + after_s)


def measure(every_core: bool = False) -> float:
    """Seconds of one kernel run: the fastest of ``REPEATS``.

    The slowdown of a shared host is per core: one core can run at half the
    speed of the other.  A single-threaded op runs on the core that runs the
    kernel after it; an op that keeps every core busy is scaled by the mean
    over the cores (``every_core``), each measured with this process pinned
    to it for the moment."""
    if every_core:
        cores = os.sched_getaffinity(0)
        try:
            times = []
            for core in sorted(cores):
                os.sched_setaffinity(0, {core})
                times.append(measure())
        finally:
            os.sched_setaffinity(0, cores)
        return sum(times) / len(times)
    # The collector stays off: its passes cost in proportion to this
    # process's heap (a traced run holds millions of spans), not to the
    # machine's speed.
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return best
