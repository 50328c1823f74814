"""Bottom-up pools, observational-equivalence pruning, and schema filling."""

from itertools import combinations, permutations

import pytest

from diagforge import synthesis
from diagforge.errors import ParseError, ResourceExhaustedError
from diagforge.interp import EvalBudget, evaluate
from diagforge.kernel import Sort, parse, pretty, size
from diagforge.synthesis import (
    LIST_BASE,
    NAT_BASE,
    Candidate,
    GoalSpec,
    PIVOT_COMBINE_PROBES,
    PIVOT_PRED_PROBES,
    SCHEMA_BOTTOM_UP,
    SCHEMA_PIVOT_DC,
    bottom_up_pool,
    default_probes,
    fill_schema_holes,
    make_goal,
    parse_goal_text,
    synthesize,
)
from oracles import Exhausted, all_nat_terms, canonical_terms, eval_budgeted, eval_nat, insertion_sort


def test_pool_of_the_nat_base_at_size_2():
    pool = bottom_up_pool(NAT_BASE, ("n",), Sort.NAT, (0, 1, 2), 2)
    assert [(pretty(c.term), c.cost, c.fingerprint) for c in pool] == [
        ("n", 1, (0, 1, 2)),
        ("zero", 1, (0, 0, 0)),
        ("(succ n)", 2, (1, 2, 3)),
        ("(succ zero)", 2, (1, 1, 1)),
    ]


def test_pool_at_size_1():
    pool = bottom_up_pool(NAT_BASE, ("n",), Sort.NAT, (0, 1, 2), 1)
    assert [pretty(c.term) for c in pool] == ["n", "zero"]


def test_uneconomical_duplicates_are_destroyed():
    pool = bottom_up_pool(NAT_BASE, ("n",), Sort.NAT, (0, 1, 2), 3)
    names = [pretty(c.term) for c in pool]
    assert "(add n zero)" not in names  # same behavior as n, higher cost
    assert "n" in names


def test_pool_pruning_is_sound_and_complete_up_to_size_4():
    probes = tuple(range(7))
    pool = bottom_up_pool(NAT_BASE, ("n",), Sort.NAT, probes, 4)
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
    pool = bottom_up_pool(NAT_BASE, ("n",), Sort.NAT, probes, 3)
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
    pool = bottom_up_pool(ops, free_vars, sort, probes, max_size, budget)
    rows, dropped = _unpruned_pool(ops, free_vars, sort, probes, max_size, budget)
    assert [(pretty(c.term), c.cost, c.fingerprint) for c in pool] == rows
    assert (dropped > 0) is drops
    assert (pool.dropped is not None) is drops


def test_pools_run_only_terms_whose_pooled_arguments_are_representatives(monkeypatch):
    # Unpruned, the nat pool runs 6,038 terms through size 7 and the
    # combiner pool 1,404 through size 6.
    runs = []
    real_run_probes = synthesis.run_probes

    def counting_run_probes(code, vectors, budget=None):
        runs.append(code)
        return real_run_probes(code, vectors, budget)

    monkeypatch.setattr(synthesis, "run_probes", counting_run_probes)
    bottom_up_pool(NAT_BASE, ("n",), Sort.NAT, default_probes(Sort.NAT), 7)
    nat_runs = len(runs)
    bottom_up_pool(LIST_BASE, ("l", "pivot", "r"), Sort.LIST_NAT, PIVOT_COMBINE_PROBES, 6)
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
    assert bottom_up_pool(LIST_BASE, ("x", "pivot"), Sort.BOOL, PIVOT_PRED_PROBES, 3, budget).dropped is None
    assert bottom_up_pool(LIST_BASE, ("l", "pivot", "r"), Sort.LIST_NAT, PIVOT_COMBINE_PROBES, 3, budget).dropped is None
    with pytest.raises(ResourceExhaustedError):
        synthesize(LIST_BASE, sort_goal, SCHEMA_PIVOT_DC, 3, budget)
    assert synthesize(LIST_BASE, sort_goal, SCHEMA_PIVOT_DC, 3, EvalBudget(max_steps=30)) is None


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
    def cand(term_text, cost):
        return Candidate(parse(term_text), cost, (cost,))

    pools = (
        [cand("n", 1), cand("(succ n)", 2)],
        [cand("zero", 1), cand("(succ zero)", 2)],
        [cand("nil", 1)],
    )
    fillings = list(fill_schema_holes(pools))
    assert len(fillings) == 4  # full cartesian product
    totals = [sum(c.cost for c in filling) for filling in fillings]
    assert totals == sorted(totals)
    assert totals[0] == 3  # first filling is the minimal one
    assert fillings[0][0].term == parse("n")
    # deterministic: same input, same order
    assert list(fill_schema_holes(pools)) == fillings


def test_fill_schema_holes_with_empty_pool():
    assert list(fill_schema_holes(([], [Candidate(parse("n"), 1, (1,))]))) == []


def test_quicksort_schema_synthesis():
    goal = make_goal([((), ()), ((2, 1), (1, 2)), ((3, 1, 2), (1, 2, 3))])
    program = synthesize(LIST_BASE, goal, SCHEMA_PIVOT_DC, 5)
    assert pretty(program.term) == "(pivotrec l (lt x pivot) (lt pivot x) (append l (cons pivot r)))"
    for k in range(5):
        for combo in combinations(range(5), k):
            for perm in permutations(combo):
                assert evaluate(program, perm) == insertion_sort(perm)


def test_quicksort_filling_appears_in_the_frontier():
    pred_pool = bottom_up_pool(LIST_BASE, ("x", "pivot"), Sort.BOOL, PIVOT_PRED_PROBES, 5)
    combine_pool = bottom_up_pool(
        LIST_BASE, ("l", "pivot", "r"), Sort.LIST_NAT, PIVOT_COMBINE_PROBES, 5
    )
    targets = {"(lt x pivot)", "(lt pivot x)"}
    assert targets <= {pretty(c.term) for c in pred_pool}
    assert "(append l (cons pivot r))" in {pretty(c.term) for c in combine_pool}
    wanted = (
        parse("(lt x pivot)"),
        parse("(lt pivot x)"),
        parse("(append l (cons pivot r))"),
    )
    seen = False
    for filling in fill_schema_holes((pred_pool, pred_pool, combine_pool)):
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
        bottom_up_pool(LIST_BASE, ("x", "pivot"), Sort.BOOL, (1, 2, 3), 3)
    with pytest.raises(ValueError):
        bottom_up_pool(NAT_BASE | {"sux"}, ("n",), Sort.NAT, (0, 1), 2)
