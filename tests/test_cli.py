"""The command-line interface: record formats, exit codes, determinism."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from diagforge.kernel import parse
from oracles import Exhausted, canonical_terms, eval_budgeted

CMD = [sys.executable, "-m", "diagforge"]
ROOT = Path(__file__).resolve().parent.parent


def run(*args, env=None, cwd=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )


# sha256 of stdout for the README's diag, iterate and refute commands, two
# larger certificates and two enum prefixes. Each succeeds with nothing on
# stderr.
PINNED_STDOUT = [
    ("diag --tier natfn --witness 20", "62c0d9de444b2fc6344b39fb088deb76cf1608a70233f45b8c8166d21544f969"),
    ("iterate --depth 5 --witness 5", "a5b35fb5ce1324b244bad4fc7b5260a3084b92714ed2f8877baf035bf969f1a2"),
    ("refute --classifier maxsize:3 --count 14", "10452ee705d65031fb69415d0656a7cf35be2a6ed67ba6f0e574e9d4947c854e"),
    (
        "refute --classifier program:goals/decider.txt --count 10 --horizon 100000",
        "3a62bd91a959587ae9ee1ab0d99062e87bac4ea6c7952e14929e6eb83ca5fa53",
    ),
    ("refute --tier full --classifier all --count 400", "205ad91e68e05692e45c07ae92d3f27e814038d4826aea8706733992bfa78de8"),
    ("iterate --depth 4 --witness 300", "fbabf8d648fbf0a3ff80932bbee1fca04b2e8690ef2ffaca9009d09e27c9ed10"),
    # every row the default budget allows (row 917 exhausts it)
    ("diag --tier natfn --witness 916", "9e3b26326631c367b4614080d34dd395f0432fa1ba1aa9a8616258826ffeb6a5"),
    # the rank workload's largest enum prefix, in each tier
    ("enum --tier natfn --count 6000", "1917708c6626b1afd7f753fd4860dca6ed42d93e2e93a390658a39e7fdebcd71"),
    ("enum --tier full --count 6000", "90725bafa3a74a911a8fd9dc86dd44d8bdc968a753760b770405ae3546b1d3e2"),
]


@pytest.mark.parametrize("command,digest", PINNED_STDOUT, ids=[c for c, _ in PINNED_STDOUT])
def test_certificate_stdout_is_pinned(command, digest):
    result = run(*command.split(), cwd=ROOT)
    assert result.returncode == 0
    assert result.stderr == ""
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


# Commands that exit 3 keep the rows proved so far and name what ran out,
# and where: sha256 of stdout, and the whole error line. The decider
# squares 2 until the default value-bits cap stops it, at index 16.
PINNED_EXHAUSTED = [
    (
        "diag --tier natfn --witness 916 --budget 2000",
        "432d9d980483f6823f6b018470c412fc57066516eefb475edc70075e1485bac7",
        "steps, 2000 steps used at index 835",
    ),
    (
        "refute --tier natfn --classifier program:decider.txt --count 20",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "value-bits, 53 steps used at index 16",
    ),
]


@pytest.mark.parametrize("command,digest,where", PINNED_EXHAUSTED, ids=[c for c, _, _ in PINNED_EXHAUSTED])
def test_exhausted_command_output_is_pinned(command, digest, where, tmp_path, monkeypatch, capsys):
    from diagforge import cli

    (tmp_path / "decider.txt").write_text("(precnat (succ (succ zero)) (mul acc acc) n)\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == 3
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == f"error: evaluation budget exhausted ({where})\n"


def _space_file(tmp_path, name, probes, members=()):
    """A space snapshot over probes holding members as one class, fingerprint unchecked."""
    path = tmp_path / name
    classes = [{"fingerprint": {"sort": "nat", "outputs": []}, "members": list(members)}] if members else []
    path.write_text(json.dumps({"probes": probes, "classes": classes, "history": []}) + "\n")
    return str(path)


def test_exhausted_space_commands_name_the_probe_and_the_term(tmp_path, capsys):
    # 2 squared 20 times passes the default value-bits cap on probe 20 only.
    # absorb, expand, unify and load (through export) each fail there, and
    # print the term cut to 60 characters.
    from diagforge import cli

    term = "(precnat (succ (succ zero)) (mul acc acc) n)"
    at = f"value-bits, 53 steps used at probe 20 for {term}"
    long_term = "(succ " * 5 + term + ")" * 5
    cut = "(succ (succ (succ (succ (succ (precnat (succ (succ zero))..."
    out = str(tmp_path / "out.json")
    cases = [
        (["absorb", "--space", _space_file(tmp_path, "a.json", [0, 1, 20]), "--term", term, "--out", out], at),
        (["expand", "--space", _space_file(tmp_path, "e.json", [0, 1], [term]), "--probes", "(20)", "--out", out], at),
        (["unify", "--left", _space_file(tmp_path, "l.json", [0, 1], [term]),
          "--right", _space_file(tmp_path, "r.json", [20]), "--out", out], at),
        (["export", "--space", _space_file(tmp_path, "x.json", [0, 1, 20], [term])], at),
        (["absorb", "--space", _space_file(tmp_path, "a.json", [0, 1, 20]), "--term", long_term, "--out", out],
         f"value-bits, 58 steps used at probe 20 for {cut}"),
    ]
    for argv, where in cases:
        assert cli.main(["space", *argv]) == 3, argv
        assert capsys.readouterr() == ("", f"error: evaluation budget exhausted ({where})\n")
    assert len(cut) == 60


def test_space_verbs_load_a_snapshot_under_the_budget(tmp_path, monkeypatch, capsys):
    # Loading fingerprints every stored member again, under DIAGFORGE_BUDGET
    # as the verb's own work is.
    from diagforge import cli

    monkeypatch.setenv("DIAGFORGE_BUDGET", "100")
    term = "(precnat zero (if (lt acc n) (succ acc) acc) n)"
    space = _space_file(tmp_path, "s.json", [1000], [term])
    out = str(tmp_path / "out.json")
    where = f"steps, 100 steps used at probe 1000 for {term}"
    for argv in (["export", "--space", space], ["absorb", "--space", space, "--term", "(succ n)", "--out", out],
                 ["unify", "--left", space, "--right", space, "--out", out],
                 ["expand", "--space", space, "--probes", "(2)", "--out", out]):
        assert cli.main(["space", *argv]) == 3, argv
        assert capsys.readouterr() == ("", f"error: evaluation budget exhausted ({where})\n")
    monkeypatch.delenv("DIAGFORGE_BUDGET")
    assert cli.main(["space", "export", "--space", space]) == 0
    assert json.loads(capsys.readouterr().out)["classes"][0]["fingerprint"]["outputs"] == [1000]


@pytest.mark.parametrize("probe,term,steps", [(10**7, "(precnat zero (add acc n) n)", 10**7),
                                              (10**12, "(precnat zero idx n)", 10**9),
                                              (10**7, "(precnat zero (add acc acc) n)", 10**7),
                                              (10**7, "(precnat zero (mul acc n) n)", 10**7),
                                              (10**7, "(precnat zero (add n acc) n)", 10**7),
                                              (10**7, "(precnat zero (mul n acc) n)", 10**7)])
def test_short_fuel_fails_a_closed_form_loop_at_once(probe, term, steps, tmp_path, monkeypatch, capsys):
    # A leaf or one-node step runs only the iterations around the one where
    # its steps run out; the full loop would take seconds to get there.
    from diagforge import cli

    monkeypatch.setenv("DIAGFORGE_BUDGET", str(steps))
    space = _space_file(tmp_path, "s.json", [probe])
    argv = ["space", "absorb", "--space", space, "--term", term, "--out", str(tmp_path / "out.json")]
    started = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - started < 0.5
    where = f"steps, {steps} steps used at probe {probe} for {term}"
    assert capsys.readouterr() == ("", f"error: evaluation budget exhausted ({where})\n")


# The benchmark's "stdout digest over all ops" (perfbench/run.py) of each
# workload at seed 43.
PINNED_WORKLOAD_DIGESTS = {
    "certify": "7cd89d5d77acab0b7db1c79c801951cc810e67a2afb7eb7ca7cce89b4c1b1e71",
    "synth": "4e358147c1eebec0e88cf0b6b87ec25caec24db3f361c9374bd217fac575abc4",
    "rank": "09fa9d2ec64bf138687fcf153a81b206bbc2cd45e4f5716282626abd367b6a4f",
    "spaces": "e6205d985d087f6e8a2bcecb8b8bf5c254bb19f7e43cae157bb4e27056ca7e34",
}


def _workload_digest(workload, tmp_path, monkeypatch, capsys):
    """The stdout digest over all ops of the workload at seed 43, computed in
    process over the benchmark's op list: CLI ops through cli.main, the
    others through the benchmark child's own session functions."""
    from diagforge import cli

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import child
    import workloads

    run_op = {
        "cli": lambda op: cli.main(op["argv"]),
        "index_of": child.run_index_of,
        "space": lambda op: child.run_space(op) and 0,
    }
    digests = {}
    for op in workloads.generate(workload, 43):
        op_dir = tmp_path / op["id"]
        op_dir.mkdir()
        for name, text in op["files"].items():
            (op_dir / name).write_text(text)
        monkeypatch.chdir(op_dir)
        code, expect = run_op[op["kind"]](op), op["expect"]
        assert code == expect["exit"] or code == 1 and expect.get("allow_exit1"), op["id"]
        digests[op["id"]] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return hashlib.sha256("".join(f"{op}:{d}\n" for op, d in sorted(digests.items())).encode()).hexdigest()


def test_certify_workload_stdout_digest_is_pinned(tmp_path, monkeypatch, capsys):
    assert _workload_digest("certify", tmp_path, monkeypatch, capsys) == PINNED_WORKLOAD_DIGESTS["certify"]


@pytest.mark.parametrize("workload", ["synth", "rank", "spaces"])
def test_workload_stdout_digest_is_pinned(workload, tmp_path, monkeypatch, capsys):
    assert _workload_digest(workload, tmp_path, monkeypatch, capsys) == PINNED_WORKLOAD_DIGESTS[workload]


def _synth_batch(seed=7):
    """Seeded synth runs as (name, schema, budget, goal text): bottom-up
    goals at budgets 4-7, each the outputs of a random non-constant nat
    term of at most the budget's size on four inputs, and sort goals over
    three random lists at budgets 4-6."""
    rng = random.Random(seed)
    batch = []
    for budget in (4, 5, 5, 6, 6, 7, 7, 7, 7):
        terms = canonical_terms({"zero", "succ", "add", "mul", "precnat"}, {"n"}, "nat", budget)
        while True:
            term = parse(rng.choice(terms))
            inputs = rng.sample(range(10), 4)
            try:
                outputs = [eval_budgeted(term, {"n": v}, 10**6, 1 << 16) for v in inputs]
            except Exhausted:
                continue
            if len(set(outputs)) > 1:
                break
        text = "".join(f"{v} -> {o}\n" for v, o in zip(inputs, outputs))
        batch.append((f"bottomup-{len(batch)}", "bottomup", budget, text))
    for budget in (4, 5, 5, 6, 6):
        lists = [[rng.randint(0, 5) for _ in range(rng.randint(lo, hi))] for lo, hi in ((0, 1), (2, 3), (3, 4))]
        text = "".join(f"({' '.join(map(str, xs))}) -> ({' '.join(map(str, sorted(xs)))})\n" for xs in lists)
        batch.append((f"pivotdc-{len(batch)}", "pivotdc", budget, text))
    return batch


# Exit code and sha256 of stdout of synth runs, taken from pools that ran
# every term, so they show that skipping non-representatives changes no
# synthesized program: the README's two synth commands (goals/*.txt at
# their budgets) and the seeded batch.
PINNED_SYNTH = {
    "succ": (0, "9376d0dd21c9610b23e2af46ee4f29f01bdc286c14e2e7b42a89cd151c4e62a8"),
    "qsort": (0, "e3899412edae03a0c50c1aef8dc76e42d09c94dc9ebb8bd58b9f770ac36ede2c"),
    "bottomup-0": (0, "a28c11df5e9458a26e2c164a0276fcae5c85f656930b22e0d3c6aa9bb88fbd22"),
    "bottomup-1": (0, "a4fb621495a0122493b2203591c448903c472e306a1ede54fabad829e01075c0"),
    "bottomup-2": (0, "ba1f3499f41caea47d5fa34b40d06fdacba14e5b87478aebb2965844297bb317"),
    "bottomup-3": (0, "93632d6d9eb7da3c2641b5837febf2f61e36b2f0d69f2fb1afd61ee54012b173"),
    "bottomup-4": (0, "a4fb621495a0122493b2203591c448903c472e306a1ede54fabad829e01075c0"),
    "bottomup-5": (0, "9376d0dd21c9610b23e2af46ee4f29f01bdc286c14e2e7b42a89cd151c4e62a8"),
    "bottomup-6": (0, "969e36f826d0eb669ebe2a38e248bd18b2449bf5448e26ed8ade2618ee98e07b"),
    "bottomup-7": (0, "0e4f844ac441b2ab6aa7263750ae3fc805c4703632c94e5db74140d5b15b342a"),
    "bottomup-8": (0, "05887cacf8b283d17ec25e35526c4d856301d4074d9873d03e61fb198efd79fb"),
    "pivotdc-9": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "pivotdc-10": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "pivotdc-11": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "pivotdc-12": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "pivotdc-13": (0, "e3899412edae03a0c50c1aef8dc76e42d09c94dc9ebb8bd58b9f770ac36ede2c"),
}
SYNTH_RUNS = [
    ("succ", "bottomup", 3, (ROOT / "goals" / "succ.txt").read_text()),
    ("qsort", "pivotdc", 5, (ROOT / "goals" / "qsort.txt").read_text()),
] + _synth_batch()


@pytest.mark.parametrize("name,schema,budget,goal", SYNTH_RUNS, ids=[r[0] for r in SYNTH_RUNS])
def test_synth_stdout_is_pinned(name, schema, budget, goal, tmp_path, capsys):
    from diagforge import cli

    path = tmp_path / "goal.txt"
    path.write_text(goal)
    code = cli.main(["synth", "--schema", schema, "--goal", str(path), "--budget", str(budget)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_SYNTH[name]


def run_script(*args):
    """Run a script under scripts/ with the package on its path; it must
    succeed with nothing on stderr. Returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    return result.stdout


# sha256 of the stdout of `scripts/diagonal_escape.py --witness 8 --depth 3`.
PINNED_ESCAPE_STDOUT = "5eb17404d84b5d125414792b46e47f18561220de40221c66bb416648f9277de6"
# sha256 of the stdout of `scripts/synthesis_demo.py`, with each timing
# such as `(0.030s)` read as `(0.000s)`.
PINNED_SYNTHESIS_DEMO_STDOUT = "01bd3f8b10d0ae0373bc6e9c1bb22f359549e169d18e9ad0b5992ed243149468"
# sha256 of the stdout of `scripts/space_evolution.py --count 60`.
PINNED_SPACE_EVOLUTION_STDOUT = "b4d953ab0c5de648667e2b56944798c41d8785389ed232ade3e5ca65b58c9852"


def test_diagonal_escape_script_stdout_is_pinned():
    stdout = run_script("scripts/diagonal_escape.py", "--witness", "8", "--depth", "3")
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_ESCAPE_STDOUT


def test_synthesis_demo_script_stdout_is_pinned():
    stdout = run_script("scripts/synthesis_demo.py")
    assert "5 predicate behaviors, 113 combiner behaviors" in stdout
    masked = re.sub(r"\(\d+\.\d{3}s\)", "(0.000s)", stdout)
    assert hashlib.sha256(masked.encode()).hexdigest() == PINNED_SYNTHESIS_DEMO_STDOUT


def test_space_evolution_script_stdout_is_pinned():
    stdout = run_script("scripts/space_evolution.py", "--count", "60")
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_SPACE_EVOLUTION_STDOUT


def test_each_command_unranks_each_program_at_most_once(monkeypatch):
    # In process, counting unranking and the machines' evaluations.
    from diagforge import cli, enumeration, interp, machines

    unranked, evaluated = [], []

    def counting_program_at(tier, i):
        unranked.append(i)
        return enumeration.program_at(tier, i)

    def counting_evaluate(program, n, budget=None):
        evaluated.append((id(program), n))
        return interp.evaluate(program, n, budget)

    monkeypatch.setattr(machines, "program_at", counting_program_at)
    monkeypatch.setattr(machines, "evaluate", counting_evaluate)

    # diag and iterate read their programs from the tier's stream
    assert cli.main(["diag", "--witness", "40"]) == 0
    assert unranked == []
    assert len(evaluated) == 40  # each f_n(n) once; g(n) reads it back

    evaluated.clear()
    assert cli.main(["iterate", "--depth", "3", "--witness", "10"]) == 0
    assert unranked == []
    assert len(set(evaluated)) == len(evaluated)

    evaluated.clear()
    assert cli.main(["refute", "--tier", "full", "--classifier", "maxsize:3", "--count", "14"]) == 0
    assert unranked == []
    assert len(evaluated) == 14


def test_enum_prints_tab_separated_records():
    result = run("enum", "--tier", "natfn", "--count", "4")
    assert result.returncode == 0
    assert result.stdout == "1\t1\tn\n2\t1\tzero\n3\t2\t(succ n)\n4\t2\t(succ zero)\n"


def test_enum_sizes_are_the_programs_sizes(capsys):
    from diagforge import cli
    from diagforge.kernel import size

    for tier in ("natfn", "full"):
        assert cli.main(["enum", "--tier", tier, "--count", "3000"]) == 0
        records = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [int(index) for index, _, _ in records] == list(range(1, 3001))
        assert all(int(n) == size(parse(text)) for _, n, text in records)


def test_enum_full_tier():
    result = run("enum", "--tier", "full", "--count", "3")
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "2\t1\tzero"


def test_show_single_program():
    result = run("show", "--index", "3", "--tier", "natfn")
    assert result.returncode == 0
    assert result.stdout == "3\t2\t(succ n)\n"


def test_diag_witnesses():
    result = run("diag", "--tier", "natfn", "--witness", "2")
    assert result.returncode == 0
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert rows == [
        {"index": 1, "fn_at_n": 1, "g_at_n": 2},
        {"index": 2, "fn_at_n": 0, "g_at_n": 1},
    ]


def test_iterate_levels():
    result = run("iterate", "--depth", "3", "--witness", "2")
    assert result.returncode == 0
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [r["level"] for r in rows] == [1, 1, 2, 2, 3, 3]
    assert all(r["g_at_n"] == r["fn_at_n"] + 1 for r in rows)
    # the fresh diagonal sits at index 1 of each extended machine
    level2 = [r for r in rows if r["level"] == 2 and r["index"] == 1]
    assert level2[0]["fn_at_n"] == 2  # g_1(1)


def test_refute_records():
    result = run("refute", "--classifier", "maxsize:1", "--count", "2")
    assert result.returncode == 0
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    assert lines[0] == {"classifier": "maxsize:1", "tier": "natfn", "N": 2}
    assert len(lines) == 3


def test_refute_empty_classifier_exits_1():
    result = run("refute", "--classifier", "none", "--count", "1", "--horizon", "200")
    assert result.returncode == 1
    assert "accepted only 0" in result.stderr


def test_refute_program_decider(tmp_path):
    decider = tmp_path / "decider.txt"
    decider.write_text("(succ zero)\n")
    result = run("refute", "--classifier", f"program:{decider}", "--count", "3")
    assert result.returncode == 0
    plain = run("diag", "--tier", "natfn", "--witness", "3")
    assert result.stdout.splitlines()[1:] == plain.stdout.splitlines()


def test_synth_bottomup(tmp_path):
    goal = tmp_path / "succ.txt"
    goal.write_text("1 -> 2\n5 -> 6\n")
    result = run("synth", "--schema", "bottomup", "--goal", str(goal), "--budget", "3")
    assert result.returncode == 0
    assert result.stdout == "(succ n)\n"


def test_synth_bottomup_nat_to_bool(tmp_path):
    # The nat base has no operator of sort bool; the list base has lt.
    goal = tmp_path / "positive.txt"
    goal.write_text("1 -> true\n0 -> false\n")
    result = run("synth", "--schema", "bottomup", "--goal", str(goal), "--budget", "3")
    assert result.returncode == 0
    assert result.stdout == "(lt zero n)\n"


def test_synth_not_found_exits_1(tmp_path):
    goal = tmp_path / "parity.txt"
    goal.write_text("0 -> 1\n1 -> 0\n")
    result = run("synth", "--schema", "bottomup", "--goal", str(goal), "--budget", "2")
    assert result.returncode == 1
    assert "no program found" in result.stderr


def test_synth_pivotdc(tmp_path):
    goal = tmp_path / "sort.txt"
    goal.write_text("() -> ()\n(2 1) -> (1 2)\n(3 1 2) -> (1 2 3)\n")
    result = run("synth", "--schema", "pivotdc", "--goal", str(goal), "--budget", "5")
    assert result.returncode == 0
    assert result.stdout == "(pivotrec l (lt x pivot) (lt pivot x) (append l (cons pivot r)))\n"


def test_synth_drops_exhausting_candidates(tmp_path):
    # Some terms of size 8 overflow the value-bits cap on a probe; they are
    # dropped, and the search still answers.
    goal = tmp_path / "parity.txt"
    goal.write_text("0 -> 1\n1 -> 0\n2 -> 1\n3 -> 0\n")
    argv = ["synth", "--schema", "bottomup", "--goal", str(goal)]
    result = run(*argv, "--budget", "7")
    assert result.returncode == 1
    assert "no program found" in result.stderr
    result = run(*argv, "--budget", "8")
    assert result.returncode == 0
    program = parse(result.stdout)
    assert [eval_budgeted(program, {"n": n}, 10**6, 1 << 16) for n in range(4)] == [1, 0, 1, 0]
    # Every candidate exhausts: nothing found is inconclusive, not exit 1.
    result = run(*argv, "--budget", "3", "--budget-steps", "1")
    assert result.returncode == 3
    assert "budget exhausted" in result.stderr
    # Pivot fillings tried before the quicksort core exhaust 60 steps on an
    # example; they are dropped the same way. At 40 steps nothing is found
    # after a drop.
    argv = ["synth", "--schema", "pivotdc", "--goal", "goals/qsort.txt", "--budget", "5", "--budget-steps"]
    result = run(*argv, "60", cwd=ROOT)
    assert result.returncode == 0
    assert result.stdout == "(pivotrec l (lt x pivot) (lt pivot x) (append l (cons pivot r)))\n"
    result = run(*argv, "40", cwd=ROOT)
    assert result.returncode == 3
    assert "budget exhausted" in result.stderr


# A search that finds nothing after a drop names, on its one error line,
# the first candidate or filling dropped (cut to 60 characters), the probe
# or example it ran out on, and how many were dropped in all.
SYNTH_BUDGET_ERRORS = {
    "bottomup": (
        "0 -> 7\n1 -> 3\n2 -> 9\n3 -> 2\n4 -> 11\n",
        ["--budget", "8"],
        "error: evaluation budget exhausted (value-bits, 50 steps used at probe 4 for"
        " (precnat n (mul acc acc) (mul n n)), 1 dropped in all)\n",
    ),
    "pivotdc": (
        "() -> ()\n(2 1) -> (1 2)\n(3 1 2) -> (1 2 3)\n",
        ["--budget", "5", "--budget-steps", "10"],
        "error: evaluation budget exhausted (steps, 10 steps used at example (2 1) for"
        " (pivotrec l (lt zero zero) (lt zero zero) nil), 2825 dropped in all)\n",
    ),
}


@pytest.mark.parametrize("schema", sorted(SYNTH_BUDGET_ERRORS))
def test_synth_budget_error_names_the_first_drop_and_counts_them(tmp_path, schema):
    text, options, line = SYNTH_BUDGET_ERRORS[schema]
    goal = tmp_path / "goal.txt"
    goal.write_text(text)
    result = run("synth", "--schema", schema, "--goal", str(goal), *options)
    assert (result.returncode, result.stdout, result.stderr) == (3, "", line)


def _numeral_term(k):
    return "(succ " * k + "zero" + ")" * k


# Row 14 of this refutation is (precnat (succ (succ zero)) (mul acc acc) n)
# at 14, which is 2**16384: 4,933 digits, past CPython's default limit of
# 4,300 for int to str conversion, and far under the 65,536-bit value cap.
BIG_ROW_DECIDER = f"(if (lt (add (mul {_numeral_term(173)} {_numeral_term(173)}) {_numeral_term(42)}) n) (succ zero) zero)"
BIG_ROW_TERM = "(precnat (succ (succ zero)) (mul acc acc) n)"


def _ints(text):
    """json.loads with no digit limit on ints."""
    return json.loads(text, parse_int=lambda digits: _unlimited(int, digits))


HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


def _at_limit(limit, call, *args):
    """call(*args) under CPython's int/str digit limit `limit`, where the
    Python has one; the limit is restored after."""
    if not HAS_DIGIT_LIMIT:
        return call(*args)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return call(*args)
    finally:
        sys.set_int_max_str_digits(before)


def _unlimited(call, *args):
    return _at_limit(0, call, *args)


def test_rows_past_the_default_digit_limit_print(tmp_path):
    decider = tmp_path / "decider.txt"
    decider.write_text(BIG_ROW_DECIDER + "\n")
    result = run("refute", "--tier", "natfn", "--classifier", f"program:{decider}", "--count", "14")
    assert (result.returncode, result.stderr) == (0, "")
    header, *rows = [_ints(line) for line in result.stdout.splitlines()]
    assert [r["index"] for r in rows] == list(range(1, 15))
    assert (rows[-1]["fn_at_n"], rows[-1]["g_at_n"]) == (2**16384, 2**16384 + 1)
    assert all(r["g_at_n"] == r["fn_at_n"] + 1 for r in rows)


def test_space_values_past_the_default_digit_limit(tmp_path):
    space = tmp_path / "s.json"
    assert run("space", "new", "--probes", "(14 1)", "--out", str(space)).returncode == 0
    for term in (BIG_ROW_TERM, "(succ n)"):
        result = run("space", "absorb", "--space", str(space), "--term", term, "--out", str(space))
        assert (result.returncode, result.stderr) == (0, "")
    result = run("space", "export", "--space", str(space))
    assert (result.returncode, result.stderr) == (0, "")
    outputs = [c["fingerprint"]["outputs"] for c in _ints(result.stdout)["classes"]]
    assert sorted(outputs) == [[15, 2], [2**16384, 4]]
    members = [m for c in _ints(space.read_text())["classes"] for m in c["members"]]
    assert sorted(members) == sorted([BIG_ROW_TERM, "(succ n)"])


def test_row_lines_equal_json_dumps(capsys):
    # Rows print under the limit cli.main sets for a command.
    from diagforge import cli, machines
    from diagforge.enumeration import Tier

    values = [0, 7, 10**4300, 2**16384 + 5, 0, 3**20000]
    prepended = tuple(machines.OracleFn(lambda n, v=v: v, name=f"f{k}") for k, v in enumerate(values))
    machine = machines.Extend(machines.Base(Tier.NATFN), prepended)
    for fields in ({}, {"level": 0}, {"level": 12}):
        _at_limit(cli._VALUE_DIGITS, lambda: cli._print_rows(machine, len(values), **fields))
        lines = capsys.readouterr().out.splitlines()
        expected = [{**fields, "index": i, "fn_at_n": v, "g_at_n": v + 1} for i, v in enumerate(values, start=1)]
        assert lines == [_unlimited(json.dumps, row) for row in expected]


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="this Python has no int/str digit limit")
@pytest.mark.parametrize("limit", [4300, 0])
def test_main_restores_the_callers_digit_limit(limit, tmp_path, capsys):
    from diagforge import cli

    space = _unlimited(_space_file, tmp_path, "big.json", [10**5000, 1])
    cases = [
        (["space", "export", "--space", space], 0),  # prints the 5,001-digit probe
        (["enum", "--count", "0"], 2),
        (["diag", "--witness", "3", "--budget", "1"], 3),
    ]
    for argv, code in cases:
        assert _at_limit(limit, lambda: (cli.main(argv), sys.get_int_max_str_digits())) == (code, limit), argv
        out, _ = capsys.readouterr()
        if argv[0] == "space":
            assert _ints(out)["probes"] == [10**5000, 1]


@pytest.mark.parametrize("verb", ["unify", "absorb", "expand"])
def test_space_command_on_a_probe_past_the_default_digit_limit(verb, tmp_path, monkeypatch, capsys):
    # Each converts the 5,001-digit probe to a string: unify in its history
    # event, absorb and expand in their error lines, which cut it to 60
    # characters.
    from diagforge import cli

    monkeypatch.delenv("DIAGFORGE_BUDGET", raising=False)
    space = _unlimited(_space_file, tmp_path, "big.json", [10**5000, 1])
    out = tmp_path / "out.json"
    term = "(precnat zero (succ acc) n)"
    where = f"steps, 1000000 steps used at probe {'1' + '0' * 56}... for {term}"
    argv, code, err = {
        "unify": (["--left", space, "--right", _space_file(tmp_path, "r.json", [2])], 0, ""),
        "absorb": (["--space", space, "--term", term], 3, f"error: evaluation budget exhausted ({where})\n"),
        "expand": (["--space", space, "--probes", "(1)"], 1, f"error: duplicate probe in (1{'0' * 55}...\n"),
    }[verb]
    assert cli.main(["space", verb, *argv, "--out", str(out)]) == code
    assert capsys.readouterr() == ("", err)
    if verb == "unify":
        assert _ints(out.read_text())["probes"] == [10**5000, 1, 2]
    if verb == "expand":  # short probes print whole
        small = _space_file(tmp_path, "small.json", [0, 1])
        assert cli.main(["space", "expand", "--space", small, "--probes", "(1)", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: duplicate probe in (0 1 1)\n")


# Each place a command reads a numeral from text. A numeral of 4,300 digits
# is read whatever the caller's digit limit; one of 4,301 is a usage error.
NUMERAL_PLACES = ["--index", "--index +", "--index _", "--classifier maxsize", "DIAGFORGE_BUDGET", "--probes", "goal"]


@pytest.mark.parametrize("limit", [4300, 0])
@pytest.mark.parametrize("place", NUMERAL_PLACES)
def test_numerals_in_text_keep_4300_digits(place, limit, tmp_path, monkeypatch, capsys):
    from diagforge import cli

    out, goal = tmp_path / "out.json", tmp_path / "goal.txt"

    def outcome(digits):
        """Exit code, stdout, stderr and the written space for a numeral of
        `digits` digits whose value is 1 (written with a sign or with
        underscores for "--index +" and "--index _")."""
        text = "0" * (digits - 1) + "1"
        text = {"--index +": "+" + text, "--index _": "_".join(text)}.get(place, text)
        goal.write_text(f"{text} -> 2\n")
        monkeypatch.setenv("DIAGFORGE_BUDGET", text if place == "DIAGFORGE_BUDGET" else "1000000")
        argv = {
            "--classifier maxsize": ["refute", "--classifier", f"maxsize:{text}", "--count", "2"],
            "DIAGFORGE_BUDGET": ["diag", "--witness", "2"],
            "--probes": ["space", "new", "--probes", f"({text} 0)", "--out", str(out)],
            "goal": ["synth", "--schema", "bottomup", "--goal", str(goal), "--budget", "3"],
        }.get(place, ["show", "--index", text])
        code = _at_limit(limit, cli.main, argv)
        return (code, *capsys.readouterr(), out.read_text() if out.exists() else None), text

    accepted, _ = outcome(4300)
    assert (accepted[0], accepted[2]) == (0, "")
    assert accepted == outcome(1)[0]
    rejected, text = outcome(4301)
    if place in ("--probes", "goal"):
        line = "numeral of 4301 digits, past the limit of 4300"
    else:
        line = f"{'--index' if place.startswith('--index') else place}: invalid int value {text!r}"
    assert rejected[:3] == (2, "", f"error: {line}\n")


def test_budget_exhaustion_exits_3():
    result = run("diag", "--tier", "natfn", "--witness", "3", "--budget", "1")
    assert result.returncode == 3
    assert "budget exhausted" in result.stderr
    # rows proved before the failing index are kept
    assert result.stdout == '{"index": 1, "fn_at_n": 1, "g_at_n": 2}\n{"index": 2, "fn_at_n": 0, "g_at_n": 1}\n'
    assert "at index 3" in result.stderr


@pytest.mark.parametrize("argv, first", [(["enum", "--count", "20000"], "1\t1\tn\n"),
                                         (["diag", "--witness", "300"], '{"index": 1, "fn_at_n": 1, "g_at_n": 2}\n')])
def test_a_closed_stdout_exits_0_quietly(argv, first):
    # The reader takes one line and closes the pipe, as `| head -1` does. A
    # later write or the last flush finds it closed: that is no error, and
    # nothing is printed, not even an "Exception ignored" line at exit.
    with subprocess.Popen(CMD + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (0, "")


def test_exhaustion_keeps_the_rows_already_proved():
    result = run("refute", "--classifier", "maxsize:2", "--count", "4", "--budget", "1")
    assert result.returncode == 3
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    assert lines == [
        {"classifier": "maxsize:2", "tier": "natfn", "N": 4},
        {"index": 1, "fn_at_n": 1, "g_at_n": 2},
        {"index": 2, "fn_at_n": 0, "g_at_n": 1},
    ]
    # under the default budget the natfn diagonal first fails at index 917
    result = run("diag", "--tier", "natfn", "--witness", "917")
    assert result.returncode == 3
    assert "at index 917" in result.stderr
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [r["index"] for r in rows] == list(range(1, 917))
    assert all(r["g_at_n"] == r["fn_at_n"] + 1 for r in rows)


def test_too_deep_terms_exit_3_without_traceback(tmp_path):
    # Parsing and typing hold at any depth, so a 600-deep decider and term
    # run. Closure evaluation recurses once per level: a chain deeper than
    # the stack over a binder, which no column reaches, exits 3.
    space = tmp_path / "s.json"
    assert run("space", "new", "--probes", "(0 1)", "--out", str(space)).returncode == 0
    for deep, code in (
        ("(succ " * 600 + "zero" + ")" * 600, 0),
        ("(succ " * 2500 + "(precnat zero acc n)" + ")" * 2500, 3),
    ):
        decider = tmp_path / "deep.txt"
        decider.write_text(deep + "\n")
        for result in (
            run("refute", "--classifier", f"program:{decider}", "--count", "1"),
            run("space", "absorb", "--space", str(space), "--term", deep, "--out", str(tmp_path / "out.json")),
        ):
            assert result.returncode == code
            assert "Traceback" not in result.stderr
            if code:
                assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_space_of_a_very_deep_binder_free_term(tmp_path):
    depth = 10**4
    space = tmp_path / "s.json"
    assert run("space", "new", "--probes", "(0 1)", "--out", str(space)).returncode == 0
    deep = "(succ " * depth + "n" + ")" * depth
    result = run("space", "absorb", "--space", str(space), "--term", deep, "--out", str(space))
    assert (result.returncode, result.stderr) == (0, "")
    result = run("space", "export", "--space", str(space))
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["classes"][0]["fingerprint"]["outputs"] == [depth, depth + 1]


def test_env_var_overrides_budget():
    env = dict(os.environ)
    env["DIAGFORGE_BUDGET"] = "1"
    result = run("diag", "--tier", "natfn", "--witness", "3", env=env)
    assert result.returncode == 3
    env["DIAGFORGE_BUDGET"] = "abc"
    result = run("diag", "--tier", "natfn", "--witness", "3", env=env)
    assert result.returncode == 2
    assert result.stdout == "" and result.stderr == "error: DIAGFORGE_BUDGET: invalid int value 'abc'\n"


# Argv that must exit 2 with one `error:` line on stderr, holding the
# fragment, and nothing on stdout.
USAGE_ERRORS = [
    ([], "missing command"),
    (["frobnicate"], "unknown command 'frobnicate'"),
    (["space"], "missing command: choose space {new,"),
    (["enum", "--count", "4", "--bogus"], "enum: unrecognized argument '--bogus'"),
    (["diag", "--wit", "3"], "diag: unrecognized argument '--wit'"),  # no abbreviations
    (["enum", "--count"], "--count: expected a value"),
    (["enum"], "enum: missing required options: --count"),
    (["diag", "--tier", "full", "--witness", "2"], "--tier: invalid choice 'full'"),
    (["synth", "--schema", "topdown", "--goal", "goals/succ.txt", "--budget", "3"], "--schema: invalid choice"),
    (["enum", "--count", "x"], "--count: invalid int value 'x'"),
    (["show", "--index", "9" * 5000], "--index: invalid int value '999"),  # past int()'s digit limit
    (["enum", "--count", "3", "stray"], "enum: unrecognized argument 'stray'"),
    (["refute", "--classifier", "sometimes", "--count", "1"], "unknown classifier spec"),
    (["refute", "--classifier", "maxsize:x", "--count", "1"], "--classifier maxsize: invalid int value 'x'"),
    (["refute", "--classifier", "program:{bad}", "--count", "1"], "'first' takes 1 arguments"),
    (["diag", "--witness", "2", "--budget", "0"], "error: --budget: must be >= 1, got 0"),
    (["synth", "--schema", "bottomup", "--goal", "goals/succ.txt", "--budget", "3", "--budget-steps", "0"],
     "error: --budget-steps: must be >= 1, got 0"),
    (["DIAGFORGE_BUDGET=0", "diag", "--witness", "2"], "error: DIAGFORGE_BUDGET: must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv,fragment", USAGE_ERRORS, ids=[" ".join(a)[:40] or "no-arguments" for a, _ in USAGE_ERRORS])
def test_usage_errors_exit_2(argv, fragment, tmp_path, capsys, monkeypatch):
    from diagforge import cli

    bad = tmp_path / "bad.txt"
    bad.write_text("(succ first)\n")
    argv = [a.format(bad=bad) for a in argv]
    if argv and argv[0].startswith("DIAGFORGE_"):  # NAME=value sets a variable, as in a shell
        name, _, value = argv.pop(0).partition("=")
        monkeypatch.setenv(name, value)
    result = run(*argv, cwd=ROOT)
    assert result.returncode == 2
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert fragment in result.stderr
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        pytest.fail(f"cli.main raised SystemExit({exc.code})")
    assert code == 2
    assert capsys.readouterr() == ("", result.stderr)


def test_option_forms_and_help():
    three = run("enum", "--count", "3").stdout
    assert three.count("\n") == 3
    assert run("enum", "--count=3").stdout == three
    assert run("enum", "--count", "5", "--count", "3").stdout == three  # the last value wins
    for argv, lines in ((["--help"], 11), (["space", "-h"], 5), (["space", "new", "--help"], 1)):
        result = run(*argv)
        assert result.returncode == 0 and result.stderr == ""
        assert result.stdout.count("\n") == lines and all(
            line.startswith("usage: diagforge ") for line in result.stdout.splitlines()
        )
    result = run("show", "--help")
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "usage: diagforge show [--tier {natfn,full}] --index INDEX\n", ""
    )


def test_negative_horizon_is_a_usage_error():
    result = run("refute", "--classifier", "all", "--count", "3", "--horizon", "-1")
    assert result.returncode == 2
    assert "horizon" in result.stderr and "islice" not in result.stderr


@pytest.mark.parametrize("count", ["0", "-2"])
def test_enum_count_below_one_is_a_usage_error(count):
    result = run("enum", "--count", count)
    assert result.returncode == 2
    assert result.stdout == "" and "count" in result.stderr


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_iterate_depth_below_one_is_a_usage_error(depth):
    result = run("iterate", "--depth", depth, "--witness", "2")
    assert result.returncode == 2
    assert result.stdout == "" and "iteration depth must be >= 1" in result.stderr


MALFORMED_SNAPSHOTS = {
    "empty-object": {},
    "list": [1, 2],
    "numeric-member": {
        "probes": [0, 1],
        "classes": [{"fingerprint": {"sort": "nat", "outputs": [0, 1]}, "representative": "n", "members": [3]}],
        "history": [["created", ["0", "1"]]],
    },
    "no-probes": {"probes": [], "classes": [], "history": []},
    "repeated-probe": {"probes": [0, 0], "classes": [], "history": []},
    "negative-probe": {"probes": [-1], "classes": [], "history": []},
    "non-natural-list-probe": {"probes": [[1, "b"]], "classes": [], "history": []},
    "string-event": {"probes": [0], "classes": [], "history": ["abc"]},
    "object-event": {"probes": [0], "classes": [], "history": [{"a": 1}]},
    # An event holds strings, integers and lists of strings, and no more.
    "list-in-list-event": {"probes": [0], "classes": [], "history": [["created", [["0"]]]]},
    "number-list-event": {"probes": [0], "classes": [], "history": [["created", [0]]]},
    "boolean-event": {"probes": [0], "classes": [], "history": [["expanded", ["1"], True]]},
    "null-event": {"probes": [0], "classes": [], "history": [["absorbed", None, "new"]]},
}


@pytest.mark.parametrize("verb", ["export", "absorb"])
@pytest.mark.parametrize("name", list(MALFORMED_SNAPSHOTS))
def test_malformed_snapshot_is_a_usage_error(tmp_path, verb, name):
    snapshot = tmp_path / "s.json"
    snapshot.write_text(json.dumps(MALFORMED_SNAPSHOTS[name]) + "\n")
    out = ["--term", "n", "--out", str(tmp_path / "out.json")] if verb == "absorb" else []
    result = run("space", verb, "--space", str(snapshot), *out)
    assert result.returncode == 2
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert result.stderr.startswith("error: malformed space snapshot: ")


def test_deeply_nested_snapshot_is_a_usage_error(tmp_path):
    # json.load itself overflows the stack on this nesting: still a malformed
    # snapshot (exit 2). A valid snapshot holding a deep binder-free member
    # is fingerprinted by columns; one whose evaluation is too deep exits 3.
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    for snapshot, code, error in (
        (nested, 2, "error: malformed space snapshot: "),
        ("(succ " * 2000 + "n" + ")" * 2000, 0, None),
        ("(succ " * 2500 + "(precnat zero acc n)" + ")" * 2500, 3, "error: interpreter resources exhausted"),
    ):
        if isinstance(snapshot, str):
            member, snapshot = snapshot, tmp_path / "deep-term.json"
            snapshot.write_text(json.dumps({
                "probes": [0],
                "classes": [{"fingerprint": {"sort": "nat", "outputs": [0]}, "members": [member]}],
                "history": [],
            }) + "\n")
        result = run("space", "export", "--space", str(snapshot))
        assert result.returncode == code
        if code:
            assert result.stdout == "" and "Traceback" not in result.stderr
            assert result.stderr.startswith(error) and result.stderr.count("\n") == 1
        else:
            assert result.stderr == ""
            assert json.loads(result.stdout)["classes"][0]["fingerprint"]["outputs"] == [2000]


@pytest.mark.parametrize("depth", [500, 985])
def test_deeply_nested_history_event_is_a_usage_error(tmp_path, depth):
    # Within what json.load reads: the event is still malformed, read one
    # level deep, and no stack runs out.
    snapshot = tmp_path / "s.json"
    snapshot.write_text('{"probes": [0], "classes": [], "history": [' + "[" * depth + "]" * depth + "]}\n")
    result = run("space", "export", "--space", str(snapshot))
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: malformed space snapshot: ") and result.stderr.count("\n") == 1


def test_import_loads_no_dataclasses_inspect_or_typing():
    # Checked after the import and again after a command has run.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import diagforge.cli; "
        "unwanted = {'argparse', 'dataclasses', 'inspect', 'shutil', 'typing'}; "
        "print(sorted(unwanted & set(sys.modules))); "
        "assert diagforge.cli.main(['show', '--index', '1']) == 0; "
        "print(sorted(unwanted & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0 and result.stdout == "[]\n1\t1\tn\n[]\n"


def test_space_workflow(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    u = tmp_path / "u.json"
    assert run("space", "new", "--probes", "(0 1)", "--out", str(a)).returncode == 0
    assert run("space", "absorb", "--space", str(a), "--term", "n", "--out", str(a)).returncode == 0
    assert run("space", "absorb", "--space", str(a), "--term", "(mul n n)", "--out", str(a)).returncode == 0
    assert run("space", "new", "--probes", "(2)", "--out", str(b)).returncode == 0
    assert run("space", "unify", "--left", str(a), "--right", str(b), "--out", str(u)).returncode == 0
    exported = json.loads(run("space", "export", "--space", str(u)).stdout)
    assert len(exported["classes"]) == 2
    expanded = run("space", "expand", "--space", str(a), "--probes", "(2)", "--out", str(a))
    assert expanded.returncode == 0
    duplicate = run("space", "expand", "--space", str(a), "--probes", "(2)", "--out", str(a))
    assert duplicate.returncode == 1


@pytest.mark.parametrize("probes, code", [("(1)", 1), ("(())", 2)], ids=["in-the-domain", "another-sort"])
def test_space_expand_rejects_a_bad_probe(tmp_path, probes, code):
    space = tmp_path / "s.json"
    assert run("space", "new", "--probes", "(0 1)", "--out", str(space)).returncode == 0
    result = run("space", "expand", "--space", str(space), "--probes", probes, "--out", str(space))
    assert result.returncode == code and result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_repeated_invocations_are_byte_identical():
    first = run("enum", "--tier", "natfn", "--count", "500")
    second = run("enum", "--tier", "natfn", "--count", "500")
    assert first.stdout == second.stdout
    a = run("diag", "--tier", "natfn", "--witness", "20")
    b = run("diag", "--tier", "natfn", "--witness", "20")
    assert a.stdout == b.stdout
