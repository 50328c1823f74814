"""End-to-end benchmark of the diagforge CLI and library.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify|synth|rank|spaces|all \
        --seed N --seconds S --trace 0|1

Every op runs as a fresh child process (child.py), closed loop with one
client: the next op starts when the previous one has exited. A run passes
over the seeded op list (workloads.py) in rounds while another round is
expected to end within --seconds, and at least workloads.MIN_ROUNDS
times. The runner and its ops stay on one CPU, and between ops the
runner times a fixed calibration (calibrate.py); each op's times are
reported at the reference host speed, by the calibrations just before
and after it. Each op's output is checked against an independent
reference (checks.py), and must be byte-identical in every round.
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 each round runs untraced and then
traced, and the line holds the per-layer metrics instead, with the
tracing overhead. Lines before it are a human-readable report: each metric by name and
unit, fail_frac with the failed op ids, the ops that ended in a known
limitation, and a digest over every op's stdout. Per-op records (digests,
exit codes, verdicts, latencies) go to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

OP_TIMEOUT_S = 60
HARD_STOP_S = 130  # start no round past this, so a run ends within 180 s


def run_child(op_dir: str, tag: str, trace: bool) -> dict:
    """Run one op in a fresh interpreter; returns the child's result plus
    peak RSS, stdout and its digest."""
    result_path = os.path.join(op_dir, f"result-{tag}.json")
    # One fixed hash seed for every op: set iteration order, and with it
    # the work of sorting a set (spaces.absorb does on every call), is then
    # the same in every run, instead of changing an op's cost by about a
    # tenth from process to process.
    env = {k: v for k, v in os.environ.items() if not k.startswith(("DIAGFORGE_", "PYTHON"))}
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, "-S", os.path.join(HERE, "child.py"), "spec.json", result_path, "1" if trace else "0"]
    with open(os.path.join(op_dir, f"stderr-{tag}.txt"), "wb") as err:
        proc = subprocess.Popen(argv, cwd=op_dir, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env)
        killed = []
        timer = threading.Timer(OP_TIMEOUT_S, lambda: (killed.append(True), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"rss_mb": usage.ru_maxrss / 1024}
    try:
        with open(result_path, encoding="utf-8") as handle:
            record.update(json.load(handle))
        with open(result_path + ".out", "rb") as handle:
            raw = handle.read()
    except (OSError, ValueError):
        with open(os.path.join(op_dir, f"stderr-{tag}.txt"), encoding="utf-8", errors="replace") as handle:
            note = "killed at the per-op time limit" if killed else handle.read()[-400:]
        record.update({"error": f"child ended without a result (status {proc.returncode}): {note}",
                       "setup_s": None, "op_s": None, "first_out_s": None, "exit": None, "extra": {}, "layers": None})
        raw = b""
    record["digest"] = hashlib.sha256(raw).hexdigest()
    record["stdout"] = raw.decode()
    return record


class Run:
    def __init__(self, root: str, workload: str, seed: int, seconds: float, trace: bool):
        self.root, self.workload, self.seed, self.seconds, self.trace = root, workload, seed, seconds, trace
        self.min_rounds = workloads.MIN_ROUNDS[workload]
        self.ops = workloads.generate(workload, seed)
        self.dirs: dict[str, str] = {}
        self.verdicts: dict[tuple, tuple] = {}  # (op id, exit, digest, extra) -> (verdict, note)
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.failed: list[tuple] = []
        self.known: list[tuple] = []
        self.digests: dict[str, str] = {}
        self.log: list[dict] = []
        self.passes: list[dict] = []

    def prepare(self, tmp: str) -> None:
        """Write each op's working directory, then warm up: compile the
        package's bytecode once, outside every metric."""
        for op in self.ops:
            op_dir = os.path.join(tmp, op["id"])
            os.makedirs(op_dir)
            for name, text in op["files"].items():
                with open(os.path.join(op_dir, name), "w", encoding="utf-8") as handle:
                    handle.write(text)
            with open(os.path.join(op_dir, "spec.json"), "w", encoding="utf-8") as handle:
                json.dump(op, handle)
            self.dirs[op["id"]] = op_dir
        calibrate.measure()
        warm = os.path.join(tmp, "warmup")
        os.makedirs(warm)
        with open(os.path.join(warm, "spec.json"), "w", encoding="utf-8") as handle:
            json.dump({"id": "warmup", "kind": "cli", "argv": ["show", "--index", "1"]}, handle)
        run_child(warm, "0", False)

    def one_round(self, number: int, trace: bool) -> None:
        """One pass over the op list, with a calibration before each op and
        one after the last; an op's host-speed factors come from the two
        calibrations around it."""
        calibrations, timed = [], []
        for k, op in enumerate(self.ops):
            calibrations.append(calibrate.measure())
            record = run_child(self.dirs[op["id"]], f"{number}{'t' if trace else 'u'}", trace)
            record["id"], record["round"], record["slot"] = op["id"], number, k
            verdict, note = self.judge(op, record)
            first = self.digests.setdefault(op["id"], record["digest"])
            if record["digest"] != first:
                verdict, note = "fail", f"{'traced ' if trace else ''}stdout differs from the op's first run"
            if verdict == "fail":
                self.failed.append((op["id"], note))
            elif verdict == "known":
                self.known.append((op["id"], note))
            entry = {key: record.get(key) for key in ("id", "round", "exit", "digest", "setup_s", "op_s",
                                                      "first_out_s", "rss_mb")}
            entry |= {"traced": trace, "verdict": verdict, "note": note}
            self.log.append(entry)
            if record["op_s"] is not None:
                timed.append((record, entry))
        calibrations.append(calibrate.measure())
        for record, entry in timed:
            setup_scale, scale = calibrate.scales(*calibrations[record["slot"]:record["slot"] + 2])
            for target in (record, entry):
                target.update(setup_scale=setup_scale, scale=scale)
        (self.traced if trace else self.untraced).extend(record for record, _ in timed)
        self.passes.append({"round": number, "traced": trace, "calibration_s": calibrations})

    def judge(self, op: dict, record: dict) -> tuple[str, str]:
        if record["error"]:
            return "fail", record["error"].strip().splitlines()[-1]
        key = (op["id"], record["exit"], record["digest"], json.dumps(record["extra"], sort_keys=True))
        if key not in self.verdicts:
            self.verdicts[key] = checks.check(op, record["exit"], record["stdout"], record["extra"],
                                              self.dirs[op["id"]])
        return self.verdicts[key]

    def execute(self) -> tuple[dict, dict]:
        start = time.perf_counter()
        walls = []
        while True:
            t0 = time.perf_counter()
            number = len(walls)
            self.one_round(number, False)
            if self.trace:
                self.one_round(number, True)
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            enough = len(walls) >= (1 if self.trace else self.min_rounds)
            if elapsed > HARD_STOP_S or (enough and elapsed + sum(walls) / len(walls) >= self.seconds):
                break
        self.rounds, self.elapsed = len(walls), time.perf_counter() - start
        untraced, notes = metrics.end_to_end(self.untraced, self.min_rounds)
        if not self.trace:
            return untraced, notes
        traced, _ = metrics.end_to_end(self.traced, self.min_rounds)
        sloc = metrics.count_sloc(os.path.join(self.root, "src", "diagforge"))
        layers = metrics.per_layer(self.traced, self.rounds, traced["op_total_s"], untraced["op_total_s"], sloc)
        return layers, {"trace.overhead_s": f"traced {traced['op_total_s']:.3f} s - untraced {untraced['op_total_s']:.3f} s",
                        "scale": notes["scale"]}


def report(run: Run, values: dict, notes: dict) -> None:
    kind = "per-layer (traced)" if run.trace else "end-to-end"
    print(f"workload {run.workload}, seed {run.seed}: {run.rounds} rounds of {len(run.ops)} ops"
          f"{' (untraced + traced)' if run.trace else ''}, closed loop, 1 client, {run.elapsed:.1f} s")
    units = {name: unit for name, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER}
    print(f"{kind} metrics:")
    for name, value in values.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    attempted = len(run.log)
    print(f"  {'fail_frac':<32} {len(run.failed) / attempted:>14.6g} ratio  {len(run.failed)} failed of {attempted} attempted")
    print(f"  {notes['scale']}")
    for op_id, note in run.failed:
        print(f"    failed: {op_id}: {note}")
    for op_id, note in sorted(set(run.known)):
        print(f"    known limitation, not a failure: {op_id}: {note} (x{run.known.count((op_id, note))})")
    overall = hashlib.sha256("".join(f"{op}:{d}\n" for op, d in sorted(run.digests.items())).encode())
    print(f"  stdout digest over all ops: {overall.hexdigest()}")


def _compact(op: dict) -> dict:
    """An op for the record file, with term lists replaced by a digest."""
    return {k: (hashlib.sha256(json.dumps(v).encode()).hexdigest() if k.endswith("terms") else v)
            for k, v in op.items()}


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> None:
    """One run: report lines, the per-op record file, then the JSON line."""
    run = Run(root, workload, seed, seconds, trace)
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        run.prepare(tmp)
        values, notes = run.execute()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report(run, values, notes)

    records = os.path.join(root, ".perfbench_runs")
    os.makedirs(records, exist_ok=True)
    with open(os.path.join(records, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as handle:
        json.dump({"ops": [_compact(op) for op in run.ops], "samples": run.log, "passes": run.passes,
                   "metrics": values}, handle, indent=1)

    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    units = {name: unit for name, unit, *_ in wanted}
    print(json.dumps({
        "correct": not run.failed,
        "attempted": len(run.log),
        "failed": len(run.failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }), flush=True)


def pin_to_one_cpu() -> None:
    """Keep the runner and every op it starts on one CPU. The vCPUs of
    the shared host this was defined on change speed independently of
    each other; on one CPU the calibrations the runner takes between ops
    follow the speed its ops meet."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diagforge", "cli.py")):
        print(f"error: no diagforge sources under {root}/src; run from the repository root", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # witness values can pass the default conversion limit
    pin_to_one_cpu()
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(root, name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
