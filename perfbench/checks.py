"""Output checks against the independent reference (reference.py).

`check(op, exit_code, stdout, extra, op_dir)` returns (verdict, note):
"ok"; "known" for an outcome the op accepts but records as a known
limitation (a budget-8 bottom-up synthesis that exits 3); or "fail" with
the reason. Any exit code the op does not expect is a failure.

Every witness row is checked (g = f + 1, consecutive indices, f against
the reference); natfn rows use tests/oracles.eval_nat. Records of show
and enum are ranked by the reference's own counting ranker. A synthesized
program must meet every example under the reference evaluator. In a
space every member lands in exactly one class; two members per class are
re-evaluated, and each representative must be the cheapest member.
"""

from __future__ import annotations

import json
import os
import random

import reference as R



def check(op: dict, code, out: str, extra: dict, op_dir: str) -> tuple[str, str]:
    expect = op["expect"]
    try:
        return CHECKS[expect["check"]](op, expect, code, out, extra, op_dir)
    except Exception as exc:  # a malformed output must read as a failure
        return "fail", f"unreadable output: {type(exc).__name__}: {exc}"


def _exit(expect, code) -> str | None:
    if code == expect["exit"]:
        return None
    return f"exit {code}, expected {expect['exit']}"


def _rows(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def _witness_rows(rows, expect_count=None) -> str | None:
    for k, row in enumerate(rows, start=1):
        if row["index"] != k:
            return f"row {k} has index {row['index']}"
        if row["g_at_n"] != row["fn_at_n"] + 1:
            return f"row {k}: g_at_n != fn_at_n + 1"
    if expect_count is not None and len(rows) != expect_count:
        return f"{len(rows)} rows, expected {expect_count}"
    return None


def _eval_nat():
    """tests/oracles.eval_nat, the repository's own independent evaluator
    for the natfn fragment, loaded read-only from the checkout; the
    reference evaluator stands in where the checkout has no such file."""
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "oracles.py")
    if not os.path.isfile(path):
        return R.evaluate
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.eval_nat


_ORACLE = []
_VALUES: dict[tuple, int] = {}  # (tier, index, input) -> value, kept for the whole run


def program_value(tier: str, index: int, n: int) -> int:
    """Program `index` of the tier applied to n, by the reference."""
    key = (tier, index, n)
    if key not in _VALUES:
        term = R.program_at(tier, index)
        if tier == "natfn":
            if not _ORACLE:
                _ORACLE.append(_eval_nat())
            _VALUES[key] = _ORACLE[0](term, {"n": n})
        else:
            _VALUES[key] = R.evaluate(term, {"n": n})
    return _VALUES[key]


def _argv_value(op, flag):
    argv = op["argv"]
    return argv[argv.index(flag) + 1]


# ---------------------------------------------------------------------------


def check_diag(op, expect, code, out, extra, op_dir):
    bad = _exit(expect, code)
    if bad:
        return "fail", bad
    rows = _rows(out)
    witness = int(_argv_value(op, "--witness"))
    bad = _witness_rows(rows, witness if code == 0 else None)
    if bad:
        return "fail", bad
    if len(rows) > witness:
        return "fail", "more rows than requested"
    for row in rows:
        n = row["index"]
        if row["fn_at_n"] != program_value("natfn", n, n):
            return "fail", f"row {n}: fn_at_n differs from the reference"
    return "ok", ""


def check_iterate(op, expect, code, out, extra, op_dir):
    bad = _exit(expect, code)
    if bad:
        return "fail", bad
    depth, witness = expect["depth"], int(_argv_value(op, "--witness"))
    rows = _rows(out)
    if len(rows) != depth * witness:
        return "fail", f"{len(rows)} rows, expected {depth * witness}"
    for level in range(1, depth + 1):
        mine = [r for r in rows if r["level"] == level]
        bad = _witness_rows([{k: v for k, v in r.items() if k != "level"} for r in mine], witness)
        if bad:
            return "fail", f"level {level}: {bad}"
        for r in mine:
            if r["fn_at_n"] != _tower(level, r["index"], r["index"]):
                return "fail", f"level {level} row {r['index']}: fn_at_n differs from the reference"
    return "ok", ""


def _tower(level, n, m):
    """f_n(m) on machine `level` of the iterated extension. Machine 1 is the
    natfn stream; machine j+1 prepends g_j, the diagonal of machine j, with
    g_j(m) = f_k(k) + 1 on machine j for k = max(m, 1)."""
    if n <= level - 1:
        k = max(m, 1)
        return _tower(level - n, k, k) + 1
    return program_value("natfn", n - (level - 1), m)


def check_refute(op, expect, code, out, extra, op_dir):
    bad = _exit(expect, code)
    if bad:
        return "fail", bad
    tier = _argv_value(op, "--tier")
    spec = _argv_value(op, "--classifier")
    count = int(_argv_value(op, "--count"))
    lines = _rows(out)
    if spec.startswith("program:"):
        with open(os.path.join(op_dir, spec.split(":", 1)[1]), encoding="utf-8") as handle:
            decider = R.parse(handle.read().strip())
        described = "program:" + R.pretty(decider)
        accepted, i = [], 0
        while len(accepted) < count:
            i += 1
            if R.evaluate(decider, {"n": i}) != 0:
                accepted.append(i)
    else:
        described = spec
        accepted = list(range(1, count + 1))
        if spec.startswith("maxsize:") and count > R.cumulative(tier, int(spec.split(":")[1])):
            return "fail", "the op asks for more programs than the classifier accepts"
    if lines[0] != {"classifier": described, "tier": tier, "N": count}:
        return "fail", f"header {lines[0]}"
    rows = lines[1:]
    bad = _witness_rows(rows, count)
    if bad:
        return "fail", bad
    for row in rows:
        k = row["index"]
        if row["fn_at_n"] != program_value(tier, accepted[k - 1], k):
            return "fail", f"row {k}: fn_at_n differs from the reference"
    return "ok", ""


def _goal_examples(op_dir):
    with open(os.path.join(op_dir, "goal.txt"), encoding="utf-8") as handle:
        pairs = [line.split("->") for line in handle.read().splitlines() if line.strip()]
    return [(R.parse_value(a), R.parse_value(b)) for a, b in pairs]


def check_synth(op, expect, code, out, extra, op_dir):
    if code == 3 and expect.get("allow_exit3"):
        return "known", "budget exhausted (exit 3) at budget 8"
    if code == 1 and expect.get("allow_exit1"):
        return ("ok", "") if out == "" else ("fail", "exit 1 with output")
    bad = _exit(expect, code)
    if bad:
        return "fail", bad
    program = R.parse(out.strip())
    for inp, want in _goal_examples(op_dir):
        got = R.evaluate(program, {expect["var"]: inp})
        if got != want:
            return "fail", f"{R.pretty(program)} maps {R.format_value(inp)} to {R.format_value(got)}, not {R.format_value(want)}"
    return "ok", ""


def check_show(op, expect, code, out, extra, op_dir):
    bad = _exit(expect, code)
    if bad:
        return "fail", bad
    return _index_line(expect["tier"], out.rstrip("\n"), expect["index"])


def _index_line(tier, line, index):
    fields = line.split("\t")
    if len(fields) != 3 or int(fields[0]) != index:
        return "fail", f"bad record {line!r}"
    term = R.parse(fields[2])
    if R.pretty(term) != fields[2] or R.size(term) != int(fields[1]):
        return "fail", f"bad record {line!r}"
    if R.index_of(tier, term) != index:
        return "fail", f"{fields[2]} is not program {index} of {tier}"
    return "ok", ""


def check_enum(op, expect, code, out, extra, op_dir):
    bad = _exit(expect, code)
    if bad:
        return "fail", bad
    lines = out.splitlines()
    if len(lines) != int(_argv_value(op, "--count")):
        return "fail", f"{len(lines)} records"
    for index, line in enumerate(lines, start=1):
        verdict = _index_line(expect["tier"], line, index)
        if verdict[0] != "ok":
            return verdict
    return "ok", ""


def check_index_of(op, expect, code, out, extra, op_dir):
    bad = _exit(expect, code)
    if bad:
        return "fail", bad
    if int(out) != R.index_of(expect["tier"], R.parse(op["term"])):
        return "fail", f"index {out.strip()} differs from the reference"
    if extra.get("roundtrip") is not True:
        return "fail", "program_at(index_of(t)) != t"
    return "ok", ""


def check_space(op, expect, code, out, extra, op_dir):
    bad = _exit(expect, code)
    if bad:
        return "fail", bad
    snap = extra["snapshot"]
    summary = json.loads(out)
    probes = op["probes"] + op["expand"]
    probes += [p for p in op["other_probes"] if p not in probes]
    if snap["probes"] != probes or summary["probes"] != probes:
        return "fail", "probe list differs"
    seen = {}
    for k, cls in enumerate(snap["classes"]):
        for member in cls["members"]:
            if member in seen:
                return "fail", f"{member} lands in classes {seen[member]} and {k}"
            seen[member] = k
    if set(seen) != set(op["terms"]) | set(op["other_terms"]):
        return "fail", "members differ from the absorbed terms"
    if [c["member_count"] for c in summary["classes"]] != [len(c["members"]) for c in snap["classes"]]:
        return "fail", "summary disagrees with the space"
    fingerprints = [json.dumps(c["fingerprint"]) for c in snap["classes"]]
    if len(set(fingerprints)) != len(fingerprints):
        return "fail", "two classes share a fingerprint"
    rng = random.Random(op["id"])
    for cls in snap["classes"]:
        for member in rng.sample(cls["members"], min(2, len(cls["members"]))):
            outputs = [R.evaluate(R.parse(member), {"n": p}) for p in probes]
            if cls["fingerprint"]["outputs"] != outputs:
                return "fail", f"{member} does not behave as its class"
        # Cheapest = smallest, then first in rank order: the full-tier index.
        best = min(cls["members"], key=lambda m: R.index_of("full", R.parse(m)))
        if cls["representative"] != best:
            return "fail", f"representative {cls['representative']} is not the cheapest member"
    return "ok", ""


CHECKS = {
    "diag": check_diag,
    "iterate": check_iterate,
    "refute": check_refute,
    "synth": check_synth,
    "show": check_show,
    "enum": check_enum,
    "index_of": check_index_of,
    "space": check_space,
}
