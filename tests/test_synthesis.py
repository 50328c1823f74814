"""Bottom-up pools, observational-equivalence pruning, and schema filling."""

import random
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from diagforge import synthesis
from diagforge.errors import ParseError, ResourceExhaustedError
from diagforge.interp import EvalBudget, compile_node, evaluate, probe_vectors, run_probes
from diagforge.kernel import Sort, parse, pretty, size
from diagforge.synthesis import (
    LIST_BASE,
    NAT_BASE,
    GoalSpec,
    Pool,
    PIVOT_COMBINE_PROBES,
    PIVOT_PRED_PROBES,
    SCHEMA_BOTTOM_UP,
    SCHEMA_PIVOT_DC,
    default_probes,
    fill_schema_holes,
    load_goal,
    make_goal,
    parse_goal_text,
    synthesize,
)
from oracles import (
    Exhausted,
    all_nat_terms,
    canonical_terms,
    eager_synthesize,
    eval_budgeted,
    eval_nat,
    grown,
    insertion_sort,
)


def test_pool_of_the_nat_base_at_size_2():
    pool = grown(Pool(NAT_BASE, ("n",), Sort.NAT, (0, 1, 2), 2))
    assert [(pretty(c.term), c.cost, c.fingerprint) for c in pool] == [
        ("n", 1, (0, 1, 2)),
        ("zero", 1, (0, 0, 0)),
        ("(succ n)", 2, (1, 2, 3)),
        ("(succ zero)", 2, (1, 1, 1)),
    ]


def test_pool_at_size_1():
    pool = grown(Pool(NAT_BASE, ("n",), Sort.NAT, (0, 1, 2), 1))
    assert [pretty(c.term) for c in pool] == ["n", "zero"]


def test_uneconomical_duplicates_are_destroyed():
    pool = grown(Pool(NAT_BASE, ("n",), Sort.NAT, (0, 1, 2), 3))
    names = [pretty(c.term) for c in pool]
    assert "(add n zero)" not in names  # same behavior as n, higher cost
    assert "n" in names


def test_pool_pruning_is_sound_and_complete_up_to_size_4():
    probes = tuple(range(7))
    pool = grown(Pool(NAT_BASE, ("n",), Sort.NAT, probes, 4))
    by_fingerprint = {c.fingerprint: c for c in pool}

    oracle_best: dict[tuple, int] = {}
    for text in all_nat_terms(4):
        term = parse(text)
        fingerprint = tuple(eval_nat(term, {"n": p}) for p in probes)
        oracle_best[fingerprint] = min(oracle_best.get(fingerprint, 99), size(term))
    # completeness: one representative per brute-force behavior, no extras
    assert set(by_fingerprint) == set(oracle_best)
    # soundness/minimality: each representative has the class's minimal cost
    for fingerprint, candidate in by_fingerprint.items():
        assert candidate.cost == oracle_best[fingerprint]


def test_pool_representative_agrees_with_discarded_terms():
    probes = tuple(range(7))
    pool = grown(Pool(NAT_BASE, ("n",), Sort.NAT, probes, 3))
    by_fingerprint = {c.fingerprint: c for c in pool}
    for text in all_nat_terms(3):
        term = parse(text)
        fingerprint = tuple(eval_nat(term, {"n": p}) for p in probes)
        rep = by_fingerprint[fingerprint]
        for p in probes:
            assert eval_nat(rep.term, {"n": p}) == eval_nat(term, {"n": p})


def _unpruned_pool(ops, free_vars, sort, probes, max_size, budget):
    """The pool by its plain definition, from the oracle grammar and
    evaluator: every term in canonical order is run, terms that exhaust the
    budget are left out, and the first term of each fingerprint is kept.
    Returns the (term, cost, fingerprint) rows and the number left out."""
    envs = [{free_vars[0]: p} if len(free_vars) == 1 else dict(zip(free_vars, p)) for p in probes]
    sort_name = {Sort.NAT: "nat", Sort.BOOL: "bool", Sort.LIST_NAT: "list"}[sort]
    seen, rows, dropped = set(), [], 0
    for text in canonical_terms(ops, free_vars, sort_name, max_size):
        term = parse(text)
        try:
            fingerprint = tuple(eval_budgeted(term, env, budget.max_steps, budget.max_value_bits) for env in envs)
        except Exhausted:
            dropped += 1
            continue
        if fingerprint not in seen:
            seen.add(fingerprint)
            rows.append((text, size(term), fingerprint))
    return rows, dropped


@pytest.mark.parametrize(
    "ops, free_vars, sort, probes, max_size, budget, drops",
    [
        pytest.param(NAT_BASE, ("n",), Sort.NAT, default_probes(Sort.NAT), 7, EvalBudget(), False, id="nat"),
        pytest.param(LIST_BASE, ("x", "pivot"), Sort.BOOL, PIVOT_PRED_PROBES, 6, EvalBudget(), False, id="predicate"),
        pytest.param(
            LIST_BASE, ("l", "pivot", "r"), Sort.LIST_NAT, PIVOT_COMBINE_PROBES, 6, EvalBudget(), False, id="combiner"
        ),
        pytest.param(LIST_BASE, ("l",), Sort.NAT, default_probes(Sort.LIST_NAT), 6, EvalBudget(), False, id="list-nat"),
        pytest.param(
            LIST_BASE, ("l",), Sort.LIST_NAT, default_probes(Sort.LIST_NAT), 6, EvalBudget(), False, id="list-list"
        ),
        # Value-bits exhaustion depends on values only, so skipping stays
        # exact while terms are dropped.
        pytest.param(
            NAT_BASE, ("n",), Sort.NAT, default_probes(Sort.NAT), 7, EvalBudget(max_value_bits=6), True, id="nat-6-bits"
        ),
    ],
)
def test_pruned_pools_match_the_unpruned_oracle(ops, free_vars, sort, probes, max_size, budget, drops):
    pool = grown(Pool(ops, free_vars, sort, probes, max_size, budget))
    rows, dropped = _unpruned_pool(ops, free_vars, sort, probes, max_size, budget)
    assert [(pretty(c.term), c.cost, c.fingerprint) for c in pool] == rows
    assert (dropped > 0) is drops
    assert (pool.dropped is not None) is drops


def _count_runs(monkeypatch):
    """Records each term a pool runs on its probes and each compiled
    predicate or filling run on goal examples."""
    runs = []
    real_probe_outputs = synthesis.probe_outputs
    real_run_probes = synthesis.run_probes

    def counting_probe_outputs(term, vectors, budget, memo):
        runs.append(term)
        return real_probe_outputs(term, vectors, budget, memo)

    def counting_run_probes(code, vectors, budget=None):
        runs.append(code)
        return real_run_probes(code, vectors, budget)

    monkeypatch.setattr(synthesis, "probe_outputs", counting_probe_outputs)
    monkeypatch.setattr(synthesis, "run_probes", counting_run_probes)
    return runs


def test_pools_run_only_terms_whose_pooled_arguments_are_representatives(monkeypatch):
    # Unpruned, the nat pool runs 6,038 terms through size 7 and the
    # combiner pool 1,404 through size 6.
    runs = _count_runs(monkeypatch)
    grown(Pool(NAT_BASE, ("n",), Sort.NAT, default_probes(Sort.NAT), 7))
    nat_runs = len(runs)
    grown(Pool(LIST_BASE, ("l", "pivot", "r"), Sort.LIST_NAT, PIVOT_COMBINE_PROBES, 6))
    assert nat_runs <= 2000
    assert len(runs) - nat_runs <= 750


def test_a_search_that_dropped_candidates_and_found_nothing_is_inconclusive():
    goal = make_goal([(0, 5), (1, 0)])
    with pytest.raises(ResourceExhaustedError) as caught:
        synthesize(NAT_BASE, goal, SCHEMA_BOTTOM_UP, 4, EvalBudget(max_value_bits=2))
    assert caught.value.reason == "value-bits"
    sort_goal = make_goal([((), ()), ((2, 1), (1, 2))])
    with pytest.raises(ResourceExhaustedError):
        synthesize(LIST_BASE, sort_goal, SCHEMA_PIVOT_DC, 5, EvalBudget(max_steps=1))
    # At 8 steps every hole candidate runs, so only fillings are dropped.
    sort_goal = make_goal([((), ()), ((2, 1), (1, 2)), ((3, 1, 2), (1, 2, 3))])
    budget = EvalBudget(max_steps=8)
    assert grown(Pool(LIST_BASE, ("x", "pivot"), Sort.BOOL, PIVOT_PRED_PROBES, 3, budget)).dropped is None
    assert grown(Pool(LIST_BASE, ("l", "pivot", "r"), Sort.LIST_NAT, PIVOT_COMBINE_PROBES, 3, budget)).dropped is None
    with pytest.raises(ResourceExhaustedError):
        synthesize(LIST_BASE, sort_goal, SCHEMA_PIVOT_DC, 3, budget)
    assert synthesize(LIST_BASE, sort_goal, SCHEMA_PIVOT_DC, 3, EvalBudget(max_steps=30)) is None


def _outcome(search, *args):
    try:
        found = search(*args)
    except ResourceExhaustedError as exc:
        return type(exc), exc.reason
    return getattr(found, "term", found)


def _seeded_nat_goals(count, seed=11):
    """One goal no term of at most 7 nodes meets, then goals that are the
    outputs of random nat terms of at most 5 nodes on three inputs."""
    rng = random.Random(seed)
    terms = canonical_terms(NAT_BASE, {"n"}, "nat", 5)
    goals = [make_goal([(0, 5), (1, 0)])]
    while len(goals) < count:
        term = parse(rng.choice(terms))
        inputs = rng.sample(range(8), 3)
        try:
            goals.append(make_goal([(v, eval_budgeted(term, {"n": v}, 10**6, 64)) for v in inputs]))
        except Exhausted:
            continue
    return goals


def _seeded_sort_goals(repeats, count=2, seed=19):
    """Sort goals on one list of 0-1, one of 2-3 and one of 3-4 elements
    drawn from 0..5, some list repeating an element or none."""
    rng = random.Random(seed)
    goals = []
    while len(goals) < count:
        lists = [tuple(rng.randint(0, 5) for _ in range(rng.randint(lo, hi))) for lo, hi in ((0, 1), (2, 3), (3, 4))]
        if any(len(set(xs)) != len(xs) for xs in lists) == repeats:
            goals.append(make_goal([(xs, tuple(sorted(xs))) for xs in lists]))
    return goals


def _bounded_steps(goal, budget):
    """The fewest max_steps from which no pivotrec filling of holes of at
    most `budget` nodes can exhaust on the goal: each of the at most
    2^(n+1) - 1 partition calls on a list of n elements spends one step,
    runs two predicates on each of at most n - 1 tail elements and the
    combiner once, plus the pivotrec node and its list."""
    n = max(len(xs) for xs, _ in goal.examples)
    return 2 + (2 ** (n + 1) - 1) * (1 + (2 * n + 1) * budget)


SORT_GOALS = [
    make_goal([((), ()), ((2, 1), (1, 2)), ((3, 1, 2), (1, 2, 3))]),
    make_goal([((0,), (0,)), ((2, 2, 1), (1, 2, 2)), ((3, 0, 1, 3), (0, 1, 3, 3))]),
]
SEEDED_SORT_GOALS = _seeded_sort_goals(repeats=False) + _seeded_sort_goals(repeats=True)
EAGER_CASES = [
    pytest.param(NAT_BASE, goal, SCHEMA_BOTTOM_UP, budget, EvalBudget(), id=f"bottomup-{g}-{budget}")
    for g, goal in enumerate(_seeded_nat_goals(5))
    for budget in range(1, 8)
] + [
    # Under 6 value bits the full pool drops candidates of size 7.
    pytest.param(NAT_BASE, goal, SCHEMA_BOTTOM_UP, 7, EvalBudget(max_value_bits=6), id=f"bottomup-{g}-7-6-bits")
    for g, goal in enumerate(_seeded_nat_goals(2))
] + [
    pytest.param(LIST_BASE, goal, SCHEMA_PIVOT_DC, budget, EvalBudget(**steps), id=f"pivotdc-{g}-{budget}-{steps}")
    for g, goal in enumerate(SORT_GOALS)
    for budget in range(2, 7)
    for steps in ({"max_steps": 1}, {"max_steps": 8}, {"max_steps": 60}, {})
] + [
    # Around the bound from which fillings are decided by runs.
    pytest.param(
        LIST_BASE, goal, SCHEMA_PIVOT_DC, budget, EvalBudget(max_steps), id=f"pivotdc-seeded-{g}-{budget}-{max_steps}"
    )
    for g, goal in enumerate(SEEDED_SORT_GOALS)
    for budget in range(2, 6)
    for max_steps in (1, _bounded_steps(goal, budget) - 1, _bounded_steps(goal, budget), 10**6)
]


@pytest.mark.parametrize("ops, goal, schema, budget, eval_budget", EAGER_CASES)
def test_synthesize_matches_the_eager_search(ops, goal, schema, budget, eval_budget):
    want = _outcome(eager_synthesize, synthesis, ops, goal, schema, budget, eval_budget)
    assert _outcome(synthesize, ops, goal, schema, budget, eval_budget) == want


def _check_outcome(check):
    try:
        return check()
    except ResourceExhaustedError as exc:
        return exc.reason, exc.steps_used


def _fillings(pools):
    """The fillings of fill_schema_holes' runs, one by one."""
    for head, lo, hi in fill_schema_holes(pools):
        for i in range(lo, hi):
            yield head + (pools[-1][i],)


# The repeats goal's inputs, with the outputs of a filling whose combiner
# has 3 nodes, so that runs of combiners of at most 4 nodes have hits.
_SPINE_GOAL = make_goal([
    (xs, eval_budgeted(parse("(pivotrec l (lt x pivot) (lt pivot x) (cons pivot l))"), {"l": xs}, 10**6, 64))
    for xs, _ in SORT_GOALS[1].examples
])


@pytest.mark.parametrize("goal", SORT_GOALS + [_SPINE_GOAL], ids=["distinct", "repeats", "repeats-met"])
def test_pivot_example_checks_equal_direct_runs(goal):
    # With holes of at most 6 nodes on lists of at most 4 elements (3 in
    # the distinct goal) no filling can spend more than 1,707 steps (647),
    # so runs are decided from partition trees from there up. Below it
    # predicates of sizes 3 and 6 that agree on an example's pairs spend
    # different steps, some fillings exhaust, and each filling is run
    # whole. Either way a run's first combiner that meets every example is
    # its first filling whose direct run meets them, and the error kept is
    # the first such run's before it.
    assert _bounded_steps(goal, 6) == (647 if goal is SORT_GOALS[0] else 1707)
    pred_pool = grown(Pool(LIST_BASE, ("x", "pivot"), Sort.BOOL, PIVOT_PRED_PROBES, 6))
    combine_pool = grown(Pool(LIST_BASE, ("l", "pivot", "r"), Sort.LIST_NAT, PIVOT_COMBINE_PROBES, 4))
    inputs = probe_vectors(("l",), [inp for inp, _ in goal.examples])
    outputs = [out for _, out in goal.examples]
    raised = found = 0
    for max_steps in (20, 40, 60, 1706, 1707, 10**6):
        budget = EvalBudget(max_steps=max_steps)
        meets = synthesis._PivotExamples(LIST_BASE, goal, 6, budget, combine_pool)
        assert (meets.rows is None) == (max_steps < _bounded_steps(goal, 6))
        for head, lo, hi in fill_schema_holes((pred_pool, pred_pool, combine_pool)):
            want = None, None
            for i in range(lo, hi):
                code = compile_node("pivotrec", [compile_node("l")] + [c.code for c in head + (combine_pool[i],)])
                runs = zip(run_probes(code, inputs, budget), outputs)
                outcome = _check_outcome(lambda: all(got == out for got, out in runs))
                if outcome is True:
                    want = i, want[1]
                    break
                if outcome is not False:
                    want = None, want[1] or outcome
                    raised += 1
            meets.dropped = None
            got = meets.first((head, lo, hi))
            assert (got, meets.dropped and (meets.dropped.reason, meets.dropped.steps_used)) == want, (max_steps, head)
            found += got is not None
    assert raised > 100
    assert found > 50 if goal is _SPINE_GOAL else found == 0


GOALS = Path(__file__).resolve().parent.parent / "goals"


def test_bottom_up_search_stops_at_the_answers_layer(monkeypatch):
    goal = load_goal(GOALS / "succ.txt")
    runs = _count_runs(monkeypatch)
    assert pretty(synthesize(NAT_BASE, goal, SCHEMA_BOTTOM_UP, 7).term) == "(succ n)"
    searched = len(runs)
    grown(Pool(NAT_BASE, ("n",), Sort.NAT, goal.probes, 2))
    # Only the terms of size <= 2 ran, not the 1,913 of the full pool.
    assert searched == len(runs) - searched


def test_pivot_search_grows_the_combiner_pool_only_as_far_as_it_needs(monkeypatch):
    layers = []
    real_walk_layer = synthesis.walk_layer

    def recording_walk_layer(ops, scope, sort, size_):
        layers.append((sort, size_))
        return real_walk_layer(ops, scope, sort, size_)

    monkeypatch.setattr(synthesis, "walk_layer", recording_walk_layer)
    # The quicksort filling costs 3 + 3 + 5.
    assert synthesize(LIST_BASE, load_goal(GOALS / "qsort.txt"), SCHEMA_PIVOT_DC, 6) is not None
    assert (Sort.LIST_NAT, 5) in layers and (Sort.LIST_NAT, 6) not in layers


def test_invalid_searches_fail_before_any_term_runs(monkeypatch):
    runs = _count_runs(monkeypatch)
    goal = make_goal([(1, 2)])
    sort_goal = make_goal([((2, 1), (1, 2))])
    with pytest.raises(ValueError):
        synthesize(NAT_BASE, goal, SCHEMA_BOTTOM_UP, 0)
    with pytest.raises(ValueError):
        synthesize(LIST_BASE, sort_goal, SCHEMA_PIVOT_DC, 0)
    with pytest.raises(ValueError):
        synthesize(NAT_BASE | {"sux"}, goal, SCHEMA_BOTTOM_UP, 3)
    with pytest.raises(ValueError):
        synthesize(LIST_BASE | {"sux"}, sort_goal, SCHEMA_PIVOT_DC, 3)
    assert runs == []


def test_goal_construction():
    goal = make_goal([(1, 2), (5, 6)])
    assert goal.input_sort is Sort.NAT and goal.output_sort is Sort.NAT
    assert set(i for i, _ in goal.examples) <= set(goal.probes)
    with pytest.raises(ValueError):
        make_goal([])
    with pytest.raises(ValueError):
        make_goal([(1, 2), ((), 3)])
    with pytest.raises(ParseError):
        make_goal([(-1, 0)])
    with pytest.raises(ParseError):
        make_goal([(1, 2)], probes=[-1])
    with pytest.raises(ValueError):
        make_goal([(1, 2)], probes=[(1,)])
    with pytest.raises(ValueError):
        GoalSpec(Sort.NAT, Sort.NAT, ((9, 10),), probes=(0, 1))
    with pytest.raises(ValueError):
        GoalSpec(Sort.NAT, Sort.NAT, ((0, 1), (1, True)), probes=(0, 1, 2))


def test_goal_text_format():
    goal = parse_goal_text("1 -> 2\n\n5 -> 6\n")
    assert goal.examples == ((1, 2), (5, 6))
    goal = parse_goal_text("() -> ()\n(2 1) -> (1 2)\n")
    assert goal.input_sort is Sort.LIST_NAT
    with pytest.raises(ValueError):
        parse_goal_text("1 = 2\n")


def test_successor_synthesis():
    goal = make_goal([(1, 2), (5, 6)])
    program = synthesize(NAT_BASE, goal, SCHEMA_BOTTOM_UP, 3)
    assert pretty(program.term) == "(succ n)"


def test_parity_flip_is_not_found_at_budget_2():
    goal = make_goal([(0, 1), (1, 0)])
    assert synthesize(NAT_BASE, goal, SCHEMA_BOTTOM_UP, 2) is None


def test_bottom_up_returns_minimal_matching_candidate():
    # doubling: n + n is the smallest matcher (size 3)
    goal = make_goal([(0, 0), (1, 2), (3, 6)])
    program = synthesize(NAT_BASE, goal, SCHEMA_BOTTOM_UP, 4)
    assert pretty(program.term) == "(add n n)"
    assert size(program.term) == 3


def test_fill_schema_holes_ordering():
    def pools():
        nat = Pool(NAT_BASE, ("n",), Sort.NAT, (0, 1, 2), 2)
        return (nat, nat, Pool(LIST_BASE, ("l",), Sort.LIST_NAT, default_probes(Sort.LIST_NAT), 1))

    fillings = list(_fillings(pools()))
    # The full cartesian product of the full pools, by total cost and then
    # by per-hole positions.
    full = [list(enumerate(pool)) for pool in (grown(Pool(NAT_BASE, ("n",), Sort.NAT, (0, 1, 2), 2)),) * 2] + [
        list(enumerate(grown(Pool(LIST_BASE, ("l",), Sort.LIST_NAT, default_probes(Sort.LIST_NAT), 1))))
    ]
    expected = sorted(product(*full), key=lambda f: (sum(c.cost for _, c in f), [i for i, _ in f]))
    assert len(fillings) == 4 * 4 * 2
    assert fillings == [tuple(c for _, c in f) for f in expected]
    assert [pretty(c.term) for c in fillings[0]] == ["n", "n", "nil"]  # the minimal filling
    # deterministic: same input, same order
    assert list(_fillings(pools())) == fillings


def test_fill_schema_holes_grows_past_sizes_with_no_new_member():
    # On the one probe (), every list term of size 2 behaves as nil.
    pool = Pool(LIST_BASE, ("l",), Sort.LIST_NAT, ((),), 3)
    assert [pretty(c.term) for (c,) in _fillings((pool,))] == ["nil", "(cons zero nil)"]


def test_fill_schema_holes_with_empty_pool():
    # No bool term over l has fewer than 3 nodes.
    empty = Pool(LIST_BASE, ("l",), Sort.BOOL, default_probes(Sort.LIST_NAT), 2)
    assert list(fill_schema_holes((empty, grown(Pool(NAT_BASE, ("n",), Sort.NAT, (1,), 1))))) == []
    assert empty.built == 2


def test_quicksort_schema_synthesis():
    goal = make_goal([((), ()), ((2, 1), (1, 2)), ((3, 1, 2), (1, 2, 3))])
    program = synthesize(LIST_BASE, goal, SCHEMA_PIVOT_DC, 5)
    assert pretty(program.term) == "(pivotrec l (lt x pivot) (lt pivot x) (append l (cons pivot r)))"
    for k in range(5):
        for combo in combinations(range(5), k):
            for perm in permutations(combo):
                assert evaluate(program, perm) == insertion_sort(perm)


def test_quicksort_filling_appears_in_the_frontier():
    pred_pool = grown(Pool(LIST_BASE, ("x", "pivot"), Sort.BOOL, PIVOT_PRED_PROBES, 5))
    combine_pool = grown(Pool(LIST_BASE, ("l", "pivot", "r"), Sort.LIST_NAT, PIVOT_COMBINE_PROBES, 5))
    targets = {"(lt x pivot)", "(lt pivot x)"}
    assert targets <= {pretty(c.term) for c in pred_pool}
    assert "(append l (cons pivot r))" in {pretty(c.term) for c in combine_pool}
    wanted = (
        parse("(lt x pivot)"),
        parse("(lt pivot x)"),
        parse("(append l (cons pivot r))"),
    )
    seen = False
    for filling in _fillings((pred_pool, pred_pool, combine_pool)):
        if tuple(c.term for c in filling) == wanted:
            seen = True
            break
    assert seen


def test_synthesize_verifies_every_example():
    # probes distinguish, examples decide: a goal no term of size <= 4 meets
    goal = make_goal([(0, 5), (1, 0)])
    assert synthesize(NAT_BASE, goal, SCHEMA_BOTTOM_UP, 4) is None


def test_multi_variable_probe_validation():
    with pytest.raises(ValueError):
        Pool(LIST_BASE, ("x", "pivot"), Sort.BOOL, (1, 2, 3), 3)
    with pytest.raises(ValueError):
        Pool(NAT_BASE | {"sux"}, ("n",), Sort.NAT, (0, 1), 2)
