"""Seeded op lists for the four workloads.

`generate(workload, seed)` returns the op list a run repeats in rounds;
the same seed gives the same list. An op is a dict:

- `id`: "<workload>-<position>";
- `kind`: "cli" (run `diagforge.cli.main(argv)`), "index_of" or "space"
  (short library sessions, see child.py);
- `argv` or the session's inputs;
- `files`: name -> text, written to the op's working directory first;
- `expect`: what the output checks accept (see checks.py).

Each list is stratified: the parameters that decide an op's cost (witness
count, synthesis budget, index size, space size) are drawn inside fixed
strata, so that the cost of a list varies little from seed to seed while
the inputs themselves do.
"""

from __future__ import annotations

import math
import random

import reference as R

# Minimum number of rounds (passes over the op list) in one run: the tail
# leaves enough ops beyond it for at least ten samples in this many rounds
# (metrics.end_to_end).
MIN_ROUNDS = {"certify": 4, "synth": 3, "rank": 2, "spaces": 4}

# Under the default budget the natfn diagonal first runs out at index 917
# (the value-bits cap, after 42 steps), so `diag --witness N` with N > 916
# exits 3.
DIAG_CAP = 916

# Deciders for `refute --classifier program:FILE`: kernel programs of n,
# accepting index i iff they return non-zero on i.
_MOD3 = "(precnat zero (if (lt acc (succ zero)) (succ zero) (if (lt acc (succ (succ zero))) (succ (succ zero)) zero)) n)"
DECIDERS = (
    "(mul n n)",
    "(precnat zero (if (lt acc (succ zero)) (succ zero) zero) n)",
    "(if (lt n (succ (succ (succ (succ (succ zero)))))) zero n)",
    _MOD3,
    "(if (lt zero " + _MOD3 + ") zero (succ zero))",
    "(len (filter (cons n nil) (lt (succ (succ zero)) x)))",
)

VALUE_BITS_CAP = 1 << 16


def generate(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    ops = GENERATORS[workload](rng)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = f"{workload}-{i:02d}"
    return ops


def _cli(*argv, files=None, **expect) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv], "files": files or {}, "expect": expect}


# ---------------------------------------------------------------------------
# certify: diagonal witness tables, iterated extension, refutation


def certify(rng: random.Random) -> list[dict]:
    ops = [_cli("diag", "--witness", rng.randint(DIAG_CAP + 1, 1000), check="diag", exit=3)]
    # Rows 835 and 845 hold most of the evaluation, so witness counts come
    # from two strata: past both heavy rows, and short of the first. The
    # four short tables sit in the middle of the list's latencies, where
    # the medians are read.
    for lo, hi in ((845, DIAG_CAP),) * 3 + ((700, 834),) * 4:
        ops.append(_cli("diag", "--witness", rng.randint(lo, hi), check="diag", exit=0))
    depth, witness = rng.randint(2, 4), rng.randint(200, 300)
    ops.append(_cli("iterate", "--depth", depth, "--witness", witness, check="iterate", exit=0, depth=depth))
    tier = rng.choice(["natfn", "full"])
    bound = rng.randint(5, 6)
    count = rng.randint(200, min(400, R.cumulative(tier, bound)))
    ops.append(_cli("refute", "--tier", tier, "--classifier", f"maxsize:{bound}", "--count", count, check="refute", exit=0))
    tier = rng.choice(["natfn", "full"])
    ops.append(_cli("refute", "--tier", tier, "--classifier", "all", "--count", rng.randint(300, 400), check="refute", exit=0))
    tier = rng.choice(["natfn", "full"])
    ops.append(
        _cli(
            "refute", "--tier", tier, "--classifier", "program:decider.txt", "--count", rng.randint(40, 60),
            files={"decider.txt": rng.choice(DECIDERS) + "\n"}, check="refute", exit=0,
        )
    )
    return ops


# ---------------------------------------------------------------------------
# synth: bottom-up goals from seeded targets, pivot sort goals


def _bottom_up_goal(rng: random.Random, budget: int) -> dict:
    while True:
        size = rng.randint(max(3, budget - 2), min(7, budget))
        target = R.random_term(rng, "natfn", size)
        # Two inputs among the default probes 0..6 and one past them.
        inputs = rng.sample(range(7), 2) + [rng.randint(7, 9)]
        try:
            outs = [R.evaluate(target, {"n": v}, max_bits=VALUE_BITS_CAP) for v in list(range(7)) + inputs]
        except R.TooBig:
            continue
        text = "".join(f"{v} -> {o}\n" for v, o in zip(inputs, outs[7:]))
        return _cli(
            "synth", "--schema", "bottomup", "--goal", "goal.txt", "--budget", budget,
            files={"goal.txt": text}, check="synth", exit=0, allow_exit3=budget >= 8,
            target=R.pretty(target), var="n",
        )


def _sort_goal(rng: random.Random, budget: int, distinct: bool | None) -> dict:
    # One short, one middling and one long list, so no goal is all empty
    # lists; `distinct` says whether some list repeats an element.
    while True:
        lists = [tuple(rng.randint(0, 5) for _ in range(rng.randint(lo, hi))) for lo, hi in ((0, 1), (2, 3), (3, 4))]
        has_repeats = any(len(set(xs)) != len(xs) for xs in lists)
        if distinct is None or distinct != has_repeats:
            break
    text = "".join(f"{R.format_value(xs)} -> {R.format_value(tuple(sorted(xs)))}\n" for xs in lists)
    known = budget >= 5 and not has_repeats
    return _cli(
        "synth", "--schema", "pivotdc", "--goal", "goal.txt", "--budget", budget,
        files={"goal.txt": text}, check="synth", exit=0, allow_exit1=not known, var="l",
    )


def synth(rng: random.Random) -> list[dict]:
    # Four budget-7 goals put the list's median latency among them.
    ops = [_bottom_up_goal(rng, b) for b in (4, 5, 6, 7, 7, 7, 7, 8)]
    ops += [_sort_goal(rng, 4, None)]
    # Repeats only up to budget 5: a goal no program meets costs a full
    # search, which at budget 6 would swing the list's cost by seed.
    ops += [_sort_goal(rng, 5, True), _sort_goal(rng, 5, False), _sort_goal(rng, 6, True), _sort_goal(rng, 6, True)]
    return ops


# ---------------------------------------------------------------------------
# rank: random access into the enumeration, plus one sequential prefix


RANK_SIZES = (4, 5, 6, 7, 8, 9)


def rank(rng: random.Random) -> list[dict]:
    # One show per size layer 4..9 in each tier, its index log-uniform
    # inside the layer. Layers grow about fivefold per size, so this is a
    # stratified log-uniform draw over indices up to the count through
    # size 9 that keeps the list's cost, set by the layers it reads, the
    # same from seed to seed. Costs depend on the layer alone, so like
    # layers are drawn more than once where the quantiles are read: natfn
    # size 8 three times for the tail, index_of size 7 five times for the
    # median, and index_of size 6 three times to keep as many cheap ops
    # below the size-7 reads as costly ones above them.
    ops = []
    for tier, sizes in (("natfn", RANK_SIZES[:5] + (8, 8) + RANK_SIZES[5:]), ("full", RANK_SIZES)):
        for size in sizes:
            lo, hi = R.cumulative(tier, size - 1), R.cumulative(tier, size)
            index = min(hi, max(lo + 1, int(math.exp(rng.uniform(math.log(lo), math.log(hi))))))
            ops.append(_cli("show", "--tier", tier, "--index", index, check="show", exit=0, tier=tier, index=index))
    for size in (6, 6, 6, 7, 7, 7, 7, 7, 8, 9):
        term = R.random_term(rng, "natfn", size)
        ops.append({"kind": "index_of", "tier": "natfn", "term": R.pretty(term), "files": {},
                    "expect": {"check": "index_of", "exit": 0, "tier": "natfn"}})
    tier = rng.choice(["natfn", "full"])
    ops.append(_cli("enum", "--tier", tier, "--count", rng.randint(2000, 6000), check="enum", exit=0, tier=tier))
    return ops


# ---------------------------------------------------------------------------
# spaces: new / absorb / expand / snapshot round trip / unify / export


# Three sessions near 600 terms hold the median latency, and four near
# 900 the tail, so each falls among like runs rather than between two
# sizes whose costs differ; four smaller ones below balance the four above.
SPACE_SIZES = (300, 300, 450, 450, 600, 600, 600, 900, 900, 900, 900)


def _space_terms(rng: random.Random, k: int, probes) -> list[str]:
    out = []
    while len(out) < k:
        term = R.random_term(rng, rng.choice(["natfn", "full"]), rng.randint(2, 8))
        # Small enough that no output passes the 4300-digit limit on
        # int-to-str conversion that the snapshot's JSON round trip meets.
        try:
            for p in probes:
                R.evaluate(term, {"n": p}, max_steps=20_000, max_bits=4096)
        except R.TooBig:
            continue
        out.append(R.pretty(term))
    return out


def _space_session(rng: random.Random, k: int) -> dict:
    # Fixed probe counts: the number of probes sets how coarse the classes
    # are, and absorb's cost grows with the square of a class's size.
    values = rng.sample(range(13), 7)
    probes, expand = values[:5], values[5:]
    other_probes = rng.sample(range(13), 4)
    every_probe = set(probes) | set(expand) | set(other_probes)
    terms = _space_terms(rng, k, every_probe)
    other_k = k // 5
    other_terms = rng.sample(terms, other_k // 2) + _space_terms(rng, other_k - other_k // 2, every_probe)
    return {
        "kind": "space", "probes": probes, "terms": terms, "expand": expand,
        "other_probes": other_probes, "other_terms": other_terms, "files": {},
        "expect": {"check": "space", "exit": 0},
    }


def spaces(rng: random.Random) -> list[dict]:
    return [_space_session(rng, round(k * rng.uniform(0.97, 1.03))) for k in SPACE_SIZES]


GENERATORS = {"certify": certify, "synth": synth, "rank": rank, "spaces": spaces}
