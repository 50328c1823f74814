#!/usr/bin/env python3
"""Show the diagonal escaping the enumeration, then escaping every extension.

Usage: python scripts/diagonal_escape.py [--witness N] [--depth K]
"""

import argparse

from diagforge.enumeration import Tier
from diagforge.machines import Base, describe, function_at, iterate, witness_rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--witness", type=int, default=8)
    parser.add_argument("--depth", type=int, default=3)
    args = parser.parse_args()

    for machine, g in iterate(Base(Tier.NATFN), args.depth + 1):
        print(f"== machine: {describe(machine)}")
        for w in witness_rows(machine, args.witness):
            name = function_at(machine, w.index).name
            print(f"  f_{w.index}({w.index}) = {w.fn_at_n:<6} g({w.index}) = {w.g_at_n:<6} f_{w.index} = {name}")
        print(f"  extending by {g.name}\n")


if __name__ == "__main__":
    main()
