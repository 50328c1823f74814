"""Summarize finished runs: median, quartiles and spread per metric.

Usage (from the repository root, after runs of run.py):

    python3 perfbench/summarize.py [--write perfbench/baseline.json]

Reads every record in .perfbench_runs/ and prints, per workload and
metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median over the runs found. --write stores the same
figures with the environment (revision, Python, nproc, source lines) and
the baseline facts below, as the file later changes compare against.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import metrics  # noqa: E402

# What the numbers showed when this benchmark was defined; recorded, not fixed.
FACTS = [
    "refuter.evals_per_row is 2.0: each accepted program is evaluated twice, once for fn_at_n and once inside the diagonal",
    "machines.evals_per_row is 1.0: witness_table reuses the memoized value for g(n)",
    "diag --witness N with N > 916 exits 3 and prints none of the 916 rows it computed (value-bits cap at index 917)",
    "spaces.absorb is quadratic in the size of the touched class: it re-sorts the class's members on every absorb",
    "rank: peak RSS grows with the size layer an index falls in; a size-9 full-tier show peaks near 128 MB, a size-9 natfn show about 62 MB, against about 22 MB for small indices",
    "synth: bottom-up goals at budget 8 exit 3 (a value-bits cap while building the pool), even where a smaller budget finds the target; counted as a known limitation, not as a failure",
    "synth: the quicksort core the pivot schema finds drops repeated elements, so sort goals with repeats have no known answer",
    "host: 2 shared vCPUs whose speed changes by up to 2x within seconds, each vCPU on its own (CPU time as much as wall time, steal near 0); the runner pins itself and its ops to one vCPU and reports times at the reference speed of calibrate.py, from a calibration just before and just after each op",
    "host: when the host slows, a fresh interpreter's imports slow less than pure-Python computation, so set-up and op times are scaled by separate calibrations (a fixed stdlib import and a fixed reference.py computation)",
]


def load(pattern: str) -> dict:
    runs: dict = {}
    for path in sorted(glob.glob(pattern)):
        name = os.path.basename(path)[: -len(".json")]
        workload, seed, trace = name.rsplit("-", 2)
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        runs.setdefault((workload, trace), []).append((seed, record["metrics"], record["samples"]))
    return runs


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", help="also write the summary and environment to this JSON file")
    args = parser.parse_args()
    runs = load(os.path.join(".perfbench_runs", "*.json"))
    out = {"end_to_end": {}, "per_layer": {}}
    for (workload, trace), entries in sorted(runs.items()):
        kind = "per_layer" if trace == "trace1" else "end_to_end"
        names = [m[0] for m in (metrics.PER_LAYER if kind == "per_layer" else metrics.END_TO_END)]
        table = {name: summary([e[1][name] for e in entries]) for name in names if all(name in e[1] for e in entries)}
        failed = sum(1 for e in entries for s in e[2] if s["verdict"] == "fail")
        attempted = sum(len(e[2]) for e in entries)
        table["fail_frac"] = {"failed": failed, "attempted": attempted}
        out[kind][workload] = table
        print(f"{workload} ({kind}, {len(entries)} runs, {failed}/{attempted} ops failed)")
        for name, s in table.items():
            if "median" in s:
                print(f"  {name:<32} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f}")
    if args.write:
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        except OSError:
            revision = ""
        out["environment"] = {
            "revision": revision or None,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "src_sloc": metrics.count_sloc(os.path.join("src", "diagforge")),
            "calibration_reference_s": {"import": calibrate.REFERENCE_IMPORT_S, "work": calibrate.REFERENCE_WORK_S},
        }
        out["facts"] = FACTS
        out["per_layer_moves"] = {name: moves for name, _, _, moves in metrics.PER_LAYER}
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
