#!/usr/bin/env python3
"""Grow an analytical space from the enumeration and watch classes split.

Absorbs an enumeration prefix over a coarse probe domain, then expands the
domain step by step; each expansion can only refine the equivalence.

Usage: python scripts/space_evolution.py [--count N]
"""

import argparse
from itertools import islice

from diagforge.enumeration import Tier, enumerate_stream
from diagforge.kernel import pretty
from diagforge.spaces import absorb, expand_domain, new_space


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=60)
    args = parser.parse_args()

    space = new_space((0, 1))
    for program in islice(enumerate_stream(Tier.NATFN), args.count):
        space = absorb(space, program.term)
    print(f"absorbed {args.count} programs over probes (0 1): {len(space.classes)} classes")

    for probe in (2, 3, 5):
        space = expand_domain(space, (probe,))
        print(f"expanded by probe {probe}: {len(space.classes)} classes")

    print("\ncheapest representative per behavior (first 12):")
    for cls in space.classes[:12]:
        _, outputs = cls.fingerprint
        print(f"  {pretty(cls.representative):<24} -> {outputs} ({len(cls.members)} members)")


if __name__ == "__main__":
    main()
