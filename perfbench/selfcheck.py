"""Self-check of the benchmark itself.

Usage (from the repository root): python3 perfbench/selfcheck.py

- The same seed gives an identical op list, another seed another one.
- A corrupted output is caught: one changed digit in a witness row, and
  two synthesis results swapped between goals.
- A tiny smoke run (the first ops of each workload, one round, untraced
  and traced) finishes with every op correct.
- BENCHMARK.json lists exactly the metrics metrics.py defines.
- In a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()


def check_seeds():
    for name in workloads.GENERATORS:
        a, b = workloads.generate(name, 7), workloads.generate(name, 7)
        assert json.dumps(a) == json.dumps(b), f"{name}: seed 7 gave two op lists"
        assert json.dumps(a) != json.dumps(workloads.generate(name, 8)), f"{name}: seeds 7 and 8 agree"
    print("ok: the same seed gives the same op list")


def _run_op(tmp, op, tag="0", trace=False):
    op_dir = os.path.join(tmp, op["id"])
    os.makedirs(op_dir, exist_ok=True)
    for name, text in op["files"].items():
        with open(os.path.join(op_dir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    with open(os.path.join(op_dir, "spec.json"), "w", encoding="utf-8") as handle:
        json.dump(op, handle)
    return op_dir, run.run_child(op_dir, tag, trace)


def check_corruption(tmp):
    diag = workloads._cli("diag", "--witness", 40, check="diag", exit=0)
    diag["id"] = "selfcheck-diag"
    op_dir, rec = _run_op(tmp, diag)
    assert checks.check(diag, rec["exit"], rec["stdout"], rec["extra"], op_dir)[0] == "ok", "diag output rejected"
    lines = rec["stdout"].splitlines()
    row = json.loads(lines[29])
    row["fn_at_n"] += 10
    row["g_at_n"] += 10
    lines[29] = json.dumps(row)
    verdict = checks.check(diag, rec["exit"], "\n".join(lines) + "\n", rec["extra"], op_dir)
    assert verdict[0] == "fail", "a changed digit in a witness row went unnoticed"
    print(f"ok: changed witness row caught ({verdict[1]})")

    ops = [op for op in workloads.generate("synth", 11) if op["argv"][2] == "bottomup" and op["argv"][-1] != "8"]
    results = []
    for op in ops:
        op_dir, rec = _run_op(tmp, op)
        if rec["exit"] == 0:
            assert checks.check(op, 0, rec["stdout"], {}, op_dir)[0] == "ok", "synth output rejected"
            results.append((op, op_dir, rec["stdout"]))
    # Two goals can share an answer (say, both targets are constant), so
    # look for a pair whose swapped results meet neither goal's examples.
    caught = [
        (a["id"], b["id"])
        for a, a_dir, a_out in results
        for b, b_dir, b_out in results
        if a is not b and checks.check(a, 0, b_out, {}, a_dir)[0] == "fail"
    ]
    assert caught, "swapped synthesis results went unnoticed"
    print(f"ok: swapped synthesis results caught ({caught[0][1]}'s program given to {caught[0][0]})")


def check_smoke():
    for name in workloads.GENERATORS:
        for trace in (False, True):
            r = run.Run(ROOT, name, 5, 0, trace)
            r.ops = sorted(r.ops, key=_cheap)[:3]
            r.min_rounds = 1
            scratch = os.path.join(ROOT, ".perfbench_tmp")
            os.makedirs(scratch, exist_ok=True)
            tmp = tempfile.mkdtemp(dir=scratch)
            try:
                r.prepare(tmp)
                values, _ = r.execute()
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            assert not r.failed, f"{name}: smoke run failed: {r.failed}"
            wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
            assert set(values) == {m[0] for m in wanted}, f"{name}: metric set differs"
        print(f"ok: smoke run of {name} (untraced and traced)")


def _cheap(op):
    """Sort key putting an op list's cheapest ops first."""
    if op["kind"] == "space":
        return len(op["terms"])
    if op["kind"] == "index_of":
        return 10 ** 9
    argv = op["argv"]
    for flag in ("--budget", "--index", "--witness", "--count"):
        if flag in argv:
            return int(argv[argv.index(flag) + 1])
    return 0


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == \
        [(n, u, b, bound) for n, u, b, bound, _ in metrics.END_TO_END], "end_to_end differs from metrics.py"
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in metrics.PER_LAYER], "per_layer differs from metrics.py"
    assert [w["name"] for w in bench["workloads"]] == list(workloads.GENERATORS), "workloads differ"
    print("ok: BENCHMARK.json matches metrics.py and workloads.py")


def check_bare_directory(tmp):
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and "correct" not in proc.stdout, "run.py ran without the package"
    print(f"ok: without src/ run.py exits {proc.returncode}: {proc.stderr.strip()}")


def main():
    check_seeds()
    check_benchmark_json()
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        check_corruption(tmp)
        check_bare_directory(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    check_smoke()
    print("selfcheck passed")


if __name__ == "__main__":
    main()
