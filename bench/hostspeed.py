"""Speed of the host, measured beside the program.

The benchmark runs on shared machines whose speed for pure-Python work
swings by a third over seconds to minutes, even with the CPU to itself
(no steal time).  A pass time divided by the host's slowdown during
that pass varies far less between runs than the pass time alone.

``round_s`` times one round of fixed work shaped like the program's:
a breadth-first search over tuple states with a seen-set, sorting and
string formatting.  It uses no bcsl code, so a faster program lowers
the scaled times and a faster host does not.  ``REFERENCE_S`` is the
time of one round on a host at reference speed (a 2-vCPU Intel Xeon VM
running Python 3.11), so ``slowdown`` is 1 there and scaled times read
as seconds on that host.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.015


def _search() -> int:
    seen = {(0, 0, 0, 0)}
    names = {}
    frontier = [(0, 0, 0, 0)]
    while frontier and len(seen) < 3000:
        found = []
        for state in frontier:
            for i in range(4):
                step = tuple(sorted(state[:i] + ((state[i] + 1) % 20,) + state[i + 1 :]))
                if step not in seen:
                    seen.add(step)
                    found.append(step)
                    names[step] = str(step)
        frontier = sorted(found)
    return len(names)


def round_s() -> float:
    """Seconds for one round of the fixed work."""
    start = perf_counter()
    _search()
    return perf_counter() - start


def slowdown(rounds: list[float]) -> float:
    """The host's slowdown over the reference, from round times taken together."""
    return statistics.median(rounds) / REFERENCE_S
