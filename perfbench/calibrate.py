"""Host-speed calibration for the benchmark's time metrics.

The shared host this benchmark was defined on changes speed by up to 2x
within seconds (CPU time as much as wall time, steal near 0). So right
before every op, and after the last op of a pass, the runner starts this
file as a fresh interpreter on the CPU its ops run on. It times two fixed
pieces of work:

- `import_s`: importing the standard-library modules diagforge itself
  imports, the same kind of work as an op's set-up (a fresh interpreter
  reading and running modules);
- `work_s`: `work()`, which uses only reference.py (count, unrank, print,
  parse, evaluate: the same mix of recursion, tuples and ints as the
  program's hot paths).

Each op's set-up time is then divided by the import speed, and its other
times by the work speed, that the calibrations just before and just after
it show; the time metrics read as seconds at the reference speeds
REFERENCE_IMPORT_S and REFERENCE_WORK_S. On that host this took the
spread of one op's repeated times from about 0.4-0.6 of their median to
about 0.1-0.2. The two speeds are kept apart because set-up slows less
than computation when the host slows. Nothing here imports diagforge, so
a change to the program under test cannot move the calibration.

Usage: python3 -S -E perfbench/calibrate.py (prints one JSON object)
"""

from __future__ import annotations

import sys
import time

# The runner's own modules are imported inside measure() and scales(), so
# that the calibration child has loaded none of the modules it times.

# Median figures of some 560 calibrations on the defining host (2 shared
# vCPUs, Intel Xeon, Python 3.11, runner and ops pinned to one vCPU).
REFERENCE_IMPORT_S = 0.025
REFERENCE_WORK_S = 0.013

_INDICES = tuple(range(3, 3 + 97 * 180, 97))


def work() -> int:
    import reference as R

    total = 0
    for i in _INDICES:
        t = R.program_at("natfn", i)
        total += len(R.pretty(R.parse(R.pretty(t))))
        try:
            total += R.evaluate(t, {"n": 3}, max_steps=2000, max_bits=256) % 7
        except R.TooBig:
            total += 1
    return total


def measure() -> dict:
    """Run one calibration in a fresh interpreter; returns its timings."""
    import json
    import os
    import subprocess

    out = subprocess.run([sys.executable, "-S", "-E", os.path.abspath(__file__)], stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, check=True, timeout=60)
    return json.loads(out.stdout)


def scales(before: dict, after: dict) -> tuple[float, float]:
    """(set-up factor, op factor): what turns seconds measured between the
    two calibrations into seconds at the reference speeds."""
    import statistics

    return (REFERENCE_IMPORT_S / statistics.fmean((before["import_s"], after["import_s"])),
            REFERENCE_WORK_S / statistics.fmean((before["work_s"], after["work_s"])))


def main() -> None:
    start = time.perf_counter()
    import argparse, bisect, dataclasses, enum, functools, itertools, typing  # noqa: F401, E401

    import_s = time.perf_counter() - start
    start = time.perf_counter()
    work()
    work_s = time.perf_counter() - start
    print(f'{{"import_s": {import_s!r}, "work_s": {work_s!r}}}')


if __name__ == "__main__":
    main()
