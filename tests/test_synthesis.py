"""Bottom-up pools, observational-equivalence pruning, and schema filling."""

import gc
import random
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from diagforge import synthesis
from diagforge.errors import ParseError, ResourceExhaustedError
from diagforge.interp import EvalBudget, compile_node, compile_term, evaluate, probe_vectors, run_probes
from diagforge.kernel import Sort, parse, pretty, size
from diagforge.synthesis import (
    LIST_BASE,
    NAT_BASE,
    GoalSpec,
    Pool,
    SCHEMA_BOTTOM_UP,
    SCHEMA_PIVOT_DC,
    default_probes,
    load_goal,
    make_goal,
    parse_goal_text,
    pivot_pools,
    pivot_runs,
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


# The probes of the pivotrec holes' pools: every combination of small values
# of the hole's variables, naturals 0-3 and lists over {0, 1} of at most 2
# elements.
HOLE_NATS = (0, 1, 2, 3)
HOLE_LISTS = ((), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))
PRED_PROBES = tuple(product(HOLE_NATS, HOLE_NATS))
COMBINE_PROBES = tuple(product(HOLE_LISTS, HOLE_NATS, HOLE_LISTS))


def test_pivot_pools_are_the_pivotrec_holes():
    budget = EvalBudget(max_steps=50)
    preds, combiners = pivot_pools(LIST_BASE, 4, budget)
    for pool, free_vars, sort, probes in (
        (preds, ("x", "pivot"), Sort.BOOL, PRED_PROBES),
        (combiners, ("l", "pivot", "r"), Sort.LIST_NAT, COMBINE_PROBES),
    ):
        assert pool._vectors == probe_vectors(free_vars, probes)
        assert (pool.max_size, pool._budget) == (4, budget)
        assert grown(pool) == grown(Pool(LIST_BASE, free_vars, sort, probes, 4, budget))


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
        pytest.param(LIST_BASE, ("x", "pivot"), Sort.BOOL, PRED_PROBES, 6, EvalBudget(), False, id="predicate"),
        pytest.param(
            LIST_BASE, ("l", "pivot", "r"), Sort.LIST_NAT, COMBINE_PROBES, 6, EvalBudget(), False, id="combiner"
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
    predicate, filling or combiner run on goal examples."""
    runs = []
    real_probe_outputs = synthesis.probe_outputs
    real_run_probes = synthesis.run_probes
    real_tree_fold = synthesis.tree_fold

    def counting_probe_outputs(term, vectors, budget, memo):
        runs.append(term)
        return real_probe_outputs(term, vectors, budget, memo)

    def counting_run_probes(code, vectors, budget=None):
        runs.append(code)
        return real_run_probes(code, vectors, budget)

    def counting_tree_fold(budget=None):
        fold = real_tree_fold(budget)

        def counting_fold(code, nodes):
            runs.append(code)
            return fold(code, nodes)

        return counting_fold

    monkeypatch.setattr(synthesis, "probe_outputs", counting_probe_outputs)
    monkeypatch.setattr(synthesis, "run_probes", counting_run_probes)
    monkeypatch.setattr(synthesis, "tree_fold", counting_tree_fold)
    return runs


def test_a_grown_combiner_pool_holds_each_list_value_once():
    # Every fingerprint draws its list values, the leaves' probe values
    # included, from one object per distinct value.
    pool = grown(pivot_pools(LIST_BASE, 5)[1])
    values = [v for c in pool for v in c.fingerprint]
    assert len({id(v) for v in values}) == len(set(values)) == 263


def test_a_pivot_search_is_not_a_reference_cycle():
    # A finished search, with its pools, partition trees and fold, is freed
    # by reference counting alone: the collector finds nothing to do.
    goal = load_goal(GOALS / "qsort.txt")
    gc.collect()
    gc.disable()
    try:
        program = synthesize(LIST_BASE, goal, SCHEMA_PIVOT_DC, 5)
        collected = gc.collect()
    finally:
        gc.enable()
    assert (pretty(program.term), collected) == ("(pivotrec l (lt x pivot) (lt pivot x) (append l (cons pivot r)))", 0)


def test_pools_run_only_terms_whose_pooled_arguments_are_representatives(monkeypatch):
    # Unpruned, the nat pool runs 6,038 terms through size 7 and the
    # combiner pool 1,404 through size 6.
    runs = _count_runs(monkeypatch)
    grown(Pool(NAT_BASE, ("n",), Sort.NAT, default_probes(Sort.NAT), 7))
    nat_runs = len(runs)
    grown(pivot_pools(LIST_BASE, 6)[1])
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
    assert all(grown(pool).dropped is None for pool in pivot_pools(LIST_BASE, 3, budget))
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


def _fillings(preds, combiners):
    """The fillings of pivot_runs' runs, one by one."""
    for i, j, lo, hi in pivot_runs(preds, combiners):
        for k in range(lo, hi):
            yield preds[i], preds[j], combiners[k]


def _spine_goal(goal):
    """The goal's inputs, with the outputs of a filling whose combiner has 3
    nodes, so that runs of combiners of at most 4 nodes have hits."""
    spine = parse("(pivotrec l (lt x pivot) (lt pivot x) (cons pivot l))")
    return make_goal([(xs, eval_budgeted(spine, {"l": xs}, 10**6, 64)) for xs, _ in goal.examples])


SPINE_GOALS = [_spine_goal(goal) for goal in SORT_GOALS]


def _representatives(preds, goal):
    """The positions of the predicates that come first in the pool with
    their values, by the oracle evaluator, at every example's (later,
    earlier) element pairs."""
    first = {}
    for position, pred in enumerate(preds):
        signatures = tuple(
            tuple(
                eval_budgeted(pred.term, {"x": xs[j], "pivot": xs[i]}, 10**6, 64)
                for i in range(len(xs))
                for j in range(i + 1, len(xs))
            )
            for xs, _ in goal.examples
        )
        first.setdefault(signatures, position)
    return set(first.values())


@pytest.mark.parametrize(
    "goal", SORT_GOALS + SPINE_GOALS, ids=["distinct", "repeats", "distinct-met", "repeats-met"]
)
def test_pivot_example_checks_equal_direct_runs(goal):
    # With holes of at most 6 nodes on lists of at most 4 elements (3 in
    # the distinct goal) no filling can spend more than 1,707 steps (647),
    # so runs are decided from partition trees from there up, and a run
    # with a predicate that behaves on the examples' element pairs as an
    # earlier one is decided None unrun. Below it predicates of sizes 3
    # and 6 that agree on an example's pairs spend different steps, some
    # fillings exhaust, and each filling is run whole, as a run's first
    # filling whose direct run meets every example, keeping the first
    # error a direct run raised before it. Either way the first hit is the
    # first direct hit.
    distinct = all(len(set(xs)) == len(xs) for xs, _ in goal.examples)
    assert _bounded_steps(goal, 6) == (647 if distinct else 1707)
    preds, combiners = grown(pivot_pools(LIST_BASE, 6)[0]), grown(pivot_pools(LIST_BASE, 4)[1])
    representatives = _representatives(preds, goal)
    inputs = probe_vectors(("l",), [inp for inp, _ in goal.examples])
    outputs = [out for _, out in goal.examples]
    raised = found = skipped = 0
    for max_steps in (20, 40, 60, 1706, 1707, 10**6):
        budget = EvalBudget(max_steps=max_steps)
        meets = synthesis._PivotExamples(LIST_BASE, goal, budget, preds, combiners)
        assert meets.bounded == (max_steps >= _bounded_steps(goal, 6))
        first_hit = first_direct_hit = None
        for i, j, lo, hi in pivot_runs(preds, combiners):
            want = None, None
            for k in range(lo, hi):
                holes = [compile_term(c.term) for c in (preds[i], preds[j], combiners[k])]
                code = compile_node("pivotrec", [compile_node("l"), *holes])
                runs = zip(run_probes(code, inputs, budget), outputs)
                outcome = _check_outcome(lambda: all(got == out for got, out in runs))
                if outcome is True:
                    want = k, want[1]
                    break
                if outcome is not False:
                    want = None, want[1] or outcome
                    raised += 1
            meets.dropped = None
            got = meets.first((i, j, lo, hi)), meets.dropped and (meets.dropped.reason, meets.dropped.steps_used)
            if not meets.bounded or {i, j} <= representatives:
                assert got == want, (max_steps, i, j)
            else:
                assert got == (None, None), (max_steps, i, j)
                skipped += 1
            found += got[0] is not None
            if first_hit is None and got[0] is not None:
                first_hit = i, j, got[0]
            if first_direct_hit is None and want[0] is not None:
                first_direct_hit = i, j, want[0]
        assert first_hit == first_direct_hit
    # On the distinct goal's pairs 5 of the 10 predicates behave as earlier
    # ones; on the repeats goal's, none does.
    assert raised > 100 and (skipped > 100 if distinct else skipped == 0)
    assert found > 50 if goal in SPINE_GOALS else found == 0


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
    with pytest.raises(ValueError, match="unknown schema: 'nope'"):
        synthesize(NAT_BASE, goal, "nope", 3)
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
    assert make_goal([(9, 10), (1, 2)]).probes == (0, 1, 2, 3, 4, 5, 6, 9)  # the default probes, then 9
    with pytest.raises(ParseError):
        GoalSpec(Sort.NAT, Sort.NAT, ((1, 2),), probes=(-1, 1))
    with pytest.raises(ValueError):
        GoalSpec(Sort.NAT, Sort.NAT, ((1, 2),), probes=((1,), 1))
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


def _product_order(preds, combiners):
    """Every filling of the fully grown pools, by total cost and then by
    per-hole positions."""
    full = [list(enumerate(grown(pool))) for pool in (preds, preds, combiners)]
    fillings = sorted(product(*full), key=lambda f: (sum(c.cost for _, c in f), [i for i, _ in f]))
    return [tuple(c for _, c in f) for f in fillings]


@pytest.mark.parametrize(
    "pools",
    [pytest.param(lambda b=b: pivot_pools(LIST_BASE, b), id=f"budget-{b}") for b in range(1, 5)]
    + [
        pytest.param(lambda: (pivot_pools(LIST_BASE, 5)[0], pivot_pools(LIST_BASE, 3)[1]), id="sizes-5-3"),
        # No bool term over x and pivot without lt.
        pytest.param(lambda: pivot_pools(LIST_BASE - {"lt"}, 4), id="no-predicate"),
    ],
)
def test_runs_expand_to_the_product_order(pools):
    preds, combiners = pools()
    fillings = []
    for i, j, lo, hi in pivot_runs(preds, combiners):
        # Neither pool is grown past what this run's total needs, and a
        # run is one whole cost block of the combiners.
        cost = combiners[lo].cost
        total = preds[i].cost + preds[j].cost + cost
        assert preds.built == min(preds.max_size, total - preds[0].cost - combiners[0].cost)
        assert combiners.built == min(combiners.max_size, total - 2 * preds[0].cost)
        assert (lo == 0 or combiners[lo - 1].cost < cost) and (hi == len(combiners) or combiners[hi].cost > cost)
        assert all(c.cost == cost for c in combiners[lo:hi])
        fillings.extend((preds[i], preds[j], combiners[k]) for k in range(lo, hi))
    assert fillings == _product_order(*pools())
    if fillings:
        assert [pretty(c.term) for c in fillings[0]] == ["(lt zero zero)", "(lt zero zero)", "nil"]
    else:
        assert preds.built == preds.max_size and combiners.built == 0


def test_quicksort_schema_synthesis():
    goal = make_goal([((), ()), ((2, 1), (1, 2)), ((3, 1, 2), (1, 2, 3))])
    program = synthesize(LIST_BASE, goal, SCHEMA_PIVOT_DC, 5)
    assert pretty(program.term) == "(pivotrec l (lt x pivot) (lt pivot x) (append l (cons pivot r)))"
    for k in range(5):
        for combo in combinations(range(5), k):
            for perm in permutations(combo):
                assert evaluate(program, perm) == insertion_sort(perm)


def test_quicksort_filling_appears_in_the_frontier():
    pred_pool, combine_pool = map(grown, pivot_pools(LIST_BASE, 5))
    targets = {"(lt x pivot)", "(lt pivot x)"}
    assert targets <= {pretty(c.term) for c in pred_pool}
    assert "(append l (cons pivot r))" in {pretty(c.term) for c in combine_pool}
    wanted = (
        parse("(lt x pivot)"),
        parse("(lt pivot x)"),
        parse("(append l (cons pivot r))"),
    )
    seen = False
    for filling in _fillings(pred_pool, combine_pool):
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
