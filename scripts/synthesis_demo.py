#!/usr/bin/env python3
"""Reconstruct the successor function and the quicksort core from a reflection base.

The bases are sets of kernel operators; the kernel typing table gives
each component's sorts.

Usage: python scripts/synthesis_demo.py
"""

import time

from diagforge.kernel import pretty
from diagforge.synthesis import (
    LIST_BASE,
    NAT_BASE,
    SCHEMA_BOTTOM_UP,
    SCHEMA_PIVOT_DC,
    make_goal,
    pivot_pools,
    synthesize,
)


def main():
    goal = make_goal([(1, 2), (5, 6)])
    start = time.perf_counter()
    program = synthesize(NAT_BASE, goal, SCHEMA_BOTTOM_UP, budget=3)
    print(f"successor goal {{1->2, 5->6}}: {pretty(program.term)} "
          f"({time.perf_counter() - start:.3f}s)")

    pred_pool, combine_pool = pivot_pools(LIST_BASE, 5)
    pred_pool.grow(5)
    combine_pool.grow(5)
    print(f"pivot holes: {len(pred_pool)} predicate behaviors, "
          f"{len(combine_pool)} combiner behaviors after pruning")

    goal = make_goal([((), ()), ((2, 1), (1, 2)), ((3, 1, 2), (1, 2, 3))])
    start = time.perf_counter()
    program = synthesize(LIST_BASE, goal, SCHEMA_PIVOT_DC, budget=5)
    print(f"sorting goal: {pretty(program.term)} ({time.perf_counter() - start:.3f}s)")


if __name__ == "__main__":
    main()
