"""Acceptance criteria, one test per criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import random
import time
from itertools import combinations, islice, permutations

import pytest

from diagforge.enumeration import (
    ROOT_SCOPE,
    ROOT_SORT,
    TIER_OPS,
    Tier,
    enumerate_stream,
    index_of,
    program_at,
    walk_layer,
)
from diagforge.errors import EmptyClassifierError, ResourceExhaustedError
from diagforge.interp import DEFAULT_MAX_STEPS, DEFAULT_MAX_VALUE_BITS, EvalBudget, evaluate
from diagforge.kernel import parse, pretty, size
from diagforge.machines import Base, iterate, witness_rows
from diagforge.refuter import AcceptNone, MaxSize, ProgramDecider, accepted_prefix
from diagforge.spaces import absorb, expand_domain, new_space, unify
from diagforge.synthesis import (
    SCHEMA_BOTTOM_UP,
    SCHEMA_PIVOT_DC,
    LIST_BASE,
    NAT_BASE,
    Pool,
    make_goal,
    synthesize,
)
from diagforge.kernel import Sort, check_well_formed
from oracles import all_nat_terms, eval_budgeted, eval_nat, grown, insertion_sort
from strategies import random_term

NATFN = Tier.NATFN


def _report(number: int, description: str, ok: bool):
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_diagonal_escape():
    start = time.perf_counter()
    rows = list(witness_rows(Base(NATFN, EvalBudget(max_steps=1_000_000)), 500))
    elapsed = time.perf_counter() - start
    ok = (
        len(rows) == 500
        and all(w.g_at_n == w.fn_at_n + 1 for w in rows)
        and all(w.g_at_n != w.fn_at_n for w in rows)
        and elapsed < 10.0
    )
    _report(1, f"500 witness rows with g(n) = f_n(n)+1 exactly, {elapsed:.2f}s < 10s", ok)


def test_criterion_2_enumeration_bijection():
    ok = True
    for s in range(1, 6):
        for term in walk_layer(TIER_OPS[NATFN], ROOT_SCOPE, ROOT_SORT, s):
            ok = ok and program_at(NATFN, index_of(NATFN, term)).term == term
    for i in range(1, 5001):
        ok = ok and index_of(NATFN, program_at(NATFN, i)) == i
    prefix = [p.term for p in islice(enumerate_stream(NATFN), 10_000)]
    sizes = [size(t) for t in prefix]
    ok = ok and len(set(prefix)) == 10_000 and sizes == sorted(sizes)
    ours = {pretty(t) for s in range(1, 5) for t in walk_layer(TIER_OPS[NATFN], ROOT_SCOPE, ROOT_SORT, s)}
    ok = ok and ours == set(all_nat_terms(4))
    _report(2, "bijection to 5000 / size 5, duplicate-free size-monotone 10^4 prefix, "
               "size<=4 matches brute force", ok)


def test_criterion_3_iterated_extension():
    gs = [g for _, g in iterate(Base(NATFN), 5)]
    ok = all(gs[i](1) == gs[i - 1](1) + 1 for i in range(1, 5))
    tables = [[g(n) for n in range(1, 6)] for g in gs]
    for i in range(5):
        for j in range(i + 1, 5):
            ok = ok and tables[i] != tables[j]
    _report(3, "5 iterated diagonals, g_{i+1}(1) = g_i(1)+1, pairwise distinct at index <= 5", ok)


def test_criterion_4_refuter():
    accepted_count = sum(1 for s in range(1, 4) for _ in walk_layer(TIER_OPS[NATFN], ROOT_SCOPE, ROOT_SORT, s))
    ok = accepted_count == 14
    for count in range(1, accepted_count + 1):
        rows = list(witness_rows(accepted_prefix(MaxSize(3), NATFN, count), count))
        ok = ok and len(rows) == count
        ok = ok and all(w.g_at_n == w.fn_at_n + 1 for w in rows)
    try:
        accepted_prefix(AcceptNone(), NATFN, 1)
        ok = False
    except EmptyClassifierError:
        pass
    decider = ProgramDecider(check_well_formed(parse("(succ zero)"), Sort.NAT, {"n"}))
    rows = list(witness_rows(accepted_prefix(decider, NATFN, 500), 500))
    plain = list(witness_rows(Base(NATFN), 500))
    ok = ok and rows == plain
    _report(4, "maxsize:3 yields +1 witnesses for every N <= 14, none is empty, "
               "constant-nonzero decider reproduces the plain diagonal", ok)


def test_criterion_5_successor_synthesis():
    goal = make_goal([(1, 2), (5, 6)])
    start = time.perf_counter()
    program = synthesize(NAT_BASE, goal, SCHEMA_BOTTOM_UP, 3)
    elapsed = time.perf_counter() - start
    ok = program is not None and pretty(program.term) == "(succ n)" and elapsed < 1.0
    _report(5, f"bottom-up goal {{1->2, 5->6}} returns (succ n) in {elapsed:.3f}s < 1s", ok)


def test_criterion_6_quicksort_synthesis():
    goal = make_goal([((), ()), ((2, 1), (1, 2)), ((3, 1, 2), (1, 2, 3))])
    start = time.perf_counter()
    program = synthesize(LIST_BASE, goal, SCHEMA_PIVOT_DC, 5)
    ok = program is not None and pretty(program.term) == (
        "(pivotrec l (lt x pivot) (lt pivot x) (append l (cons pivot r)))"
    )
    if ok:
        for k in range(5):
            for combo in combinations(range(5), k):
                for perm in permutations(combo):
                    ok = ok and evaluate(program, perm) == insertion_sort(perm)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(6, f"divide-and-conquer returns the strict-predicate filling and sorts all "
               f"duplicate-free lists len<=4 over 0..4, {elapsed:.2f}s < 60s", ok)


def test_criterion_7_pool_pruning():
    probes = tuple(range(7))
    pool = grown(Pool(NAT_BASE, ("n",), Sort.NAT, probes, 4))
    by_fingerprint = {c.fingerprint: c for c in pool}
    oracle_best = {}
    for text in all_nat_terms(4):
        term = parse(text)
        fp = tuple(eval_nat(term, {"n": p}) for p in probes)
        oracle_best[fp] = min(oracle_best.get(fp, 99), size(term))
    ok = set(by_fingerprint) == set(oracle_best)
    ok = ok and all(by_fingerprint[fp].cost == best for fp, best in oracle_best.items())
    _report(7, f"pool fingerprints equal brute-force set ({len(oracle_best)} classes), "
               "representatives minimal-cost", ok)


def test_criterion_8_spaces():
    space = absorb(absorb(new_space((0, 1)), parse("n")), parse("(mul n n)"))
    before = len(space.classes)
    expanded = expand_domain(space, (2,))
    ok = before == 1 and len(expanded.classes) == 2

    rng = random.Random(20260808)
    population = [random_term(rng, max_size=5) for _ in range(80)]
    current = new_space((0, 1, 2))
    saved = [current]
    absorbed = set()
    for _ in range(1000):
        roll = rng.random()
        if roll < 0.70:
            term = rng.choice(population)
            current = absorb(current, term)
            absorbed.add(term)
        elif roll < 0.85:
            other = rng.choice(saved)
            current = unify(current, other)
        else:
            fresh = [p for p in range(25) if p not in current.probes]
            if fresh:
                current = expand_domain(current, (rng.choice(fresh),))
        saved.append(current)

    def outputs(term):
        # The reference evaluator, not the one spaces fingerprint with.
        return tuple(eval_budgeted(term, {"n": p}, DEFAULT_MAX_STEPS, DEFAULT_MAX_VALUE_BITS) for p in current.probes)

    seen = set()
    for cls in current.classes:
        ok = ok and cls.fingerprint[1] == outputs(cls.representative)
        ok = ok and size(cls.representative) == min(size(m) for m in cls.members)
        for member in cls.members:
            recomputed = outputs(member)
            ok = ok and recomputed == cls.fingerprint[1]
            ok = ok and member not in seen
            seen.add(member)
    ok = ok and absorbed <= seen  # every absorbed term sits in exactly one class
    _report(8, "expansion splits the n / (mul n n) class, representatives stay minimal and "
               "fingerprints reproducible after 1000 random operations", ok)


def test_criterion_9_totality_safety():
    rng = random.Random(97)
    budget = EvalBudget(max_steps=100_000)
    outcomes = {"ok": 0, "exhausted": 0}
    for _ in range(10_000):
        program = check_well_formed(random_term(rng, max_size=10, tier=Tier.FULL), Sort.NAT, {"n"})
        try:
            evaluate(program, rng.randint(0, 20), budget)
            outcomes["ok"] += 1
        except ResourceExhaustedError:
            outcomes["exhausted"] += 1
    total = outcomes["ok"] + outcomes["exhausted"]
    _report(9, f"10^4 random full-tier programs terminated ({outcomes['ok']} normal, "
               f"{outcomes['exhausted']} budget-capped)", total == 10_000)
