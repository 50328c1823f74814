"""Evaluator semantics, determinism, and budget behavior."""

import ast
import random
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diagforge.enumeration import Tier, enumerate_stream, walk_layer
from diagforge.errors import ResourceExhaustedError
from diagforge.interp import (
    DEFAULT_MAX_STEPS,
    DEFAULT_MAX_VALUE_BITS,
    EvalBudget,
    _ACC_AFTER,
    _closed_form,
    compile_node,
    compile_term,
    evaluate,
    probe_outputs,
    run_probes,
    slot_vector,
)
from diagforge.kernel import Sort, Term, check_well_formed, infer_sort, parse, size
from oracles import Exhausted, eval_budgeted, eval_nat, insertion_sort
from strategies import random_term, terms


def nat_program(text):
    return check_well_formed(parse(text), Sort.NAT, {"n"})


def over_n(term):
    """A natural-valued term over n as a program."""
    return check_well_formed(term, Sort.NAT, {"n"})


def list_program(text):
    term = parse(text)
    return check_well_formed(term, infer_sort(term, frozenset({"l"})), {"l"})


QUICKSORT = "(pivotrec l (lt x pivot) (lt pivot x) (append l (cons pivot r)))"
CONS_SQUARE = check_well_formed(parse("(cons (mul n n) (cons zero nil))"), Sort.LIST_NAT, {"n"})


def test_successor_program():
    assert evaluate(nat_program("(succ n)"), 4) == 5


def test_precnat_unrolls():
    # hand unroll: r0 = 0, then +2 three times
    assert evaluate(nat_program("(precnat zero (succ (succ acc)) n)"), 3) == 6
    # idx is the iteration counter: summing idx over n steps gives n(n-1)/2
    assert evaluate(nat_program("(precnat zero (add acc idx) n)"), 5) == 10
    # step sees the ambient input
    assert evaluate(nat_program("(precnat zero (add acc n) n)"), 6) == 36


def test_total_defaults_on_empty_lists():
    assert evaluate(check_well_formed(parse("(first nil)"), Sort.NAT, {"n"}), 9) == 0
    assert evaluate(check_well_formed(parse("(rest nil)"), Sort.LIST_NAT, {"n"}), 9) == ()
    assert evaluate(list_program("(first l)"), ()) == 0
    assert evaluate(list_program("(rest l)"), ()) == ()


def test_list_primitives():
    assert evaluate(list_program("(cons (first l) (rest l))"), (7, 8)) == (7, 8)
    assert evaluate(list_program("(append l l)"), (1, 2)) == (1, 2, 1, 2)
    assert evaluate(list_program("(len l)"), (4, 4, 4)) == 3
    assert evaluate(list_program("(filter l (lt x (first l)))"), (3, 1, 4, 0)) == (1, 0)


def test_quicksort_term_sorts():
    program = list_program(QUICKSORT)
    assert evaluate(program, (3, 1, 2)) == (1, 2, 3)
    assert evaluate(program, ()) == ()
    # strict predicates drop duplicates of the pivot (documented behavior)
    assert evaluate(program, (2, 1, 2, 1)) == (1, 2)


def test_quicksort_matches_reference_sort():
    program = list_program(QUICKSORT)
    values = [0, 1, 2, 3, 4]
    from itertools import combinations, permutations

    for k in range(6):
        for combo in combinations(values, k):
            for perm in permutations(combo):
                assert evaluate(program, perm) == insertion_sort(perm)


@given(terms(max_size=6, tier=Tier.NATFN), st.integers(0, 30))
def test_matches_reference_evaluator_on_nat_fragment(t, n):
    try:
        ours = evaluate(over_n(t), n)
    except ResourceExhaustedError:
        return
    assert ours == eval_nat(t, {"n": n})


@given(terms(max_size=8), st.integers(0, 10))
def test_evaluation_is_deterministic(t, n):
    budget = EvalBudget(max_steps=50_000)
    program = over_n(t)
    try:
        first = evaluate(program, n, budget)
    except ResourceExhaustedError:
        return
    assert evaluate(program, n, budget) == first


def test_step_budget_exhaustion():
    with pytest.raises(ResourceExhaustedError) as excinfo:
        evaluate(nat_program("(succ n)"), 3, EvalBudget(max_steps=1))
    assert excinfo.value.steps_used == 1
    assert excinfo.value.reason == "steps"
    # the same program fits in two steps
    assert evaluate(nat_program("(succ n)"), 3, EvalBudget(max_steps=2)) == 4


def test_value_size_cap_stops_iterated_squaring():
    bomb = nat_program("(precnat n (mul acc acc) n)")
    with pytest.raises(ResourceExhaustedError) as excinfo:
        evaluate(bomb, 30, EvalBudget(max_steps=10_000_000))
    assert excinfo.value.reason == "value-bits"
    # cons evaluates its head first: the head runs out of value bits after
    # 4 steps, where the tail first would have used 7
    with pytest.raises(ResourceExhaustedError) as excinfo:
        evaluate(CONS_SQUARE, 2**10, EvalBudget(max_value_bits=12))
    assert (excinfo.value.reason, excinfo.value.steps_used) == ("value-bits", 4)


def test_budget_validation():
    with pytest.raises(ValueError):
        EvalBudget(max_steps=0)
    with pytest.raises(ValueError):
        EvalBudget(max_value_bits=0)


def test_if_runs_out_of_steps_on_entry():
    program = nat_program("(succ (if (lt n zero) n zero))")
    with pytest.raises(ResourceExhaustedError) as excinfo:
        evaluate(program, 3, EvalBudget(max_steps=1))
    assert (excinfo.value.reason, excinfo.value.steps_used) == ("steps", 1)


def test_input_validation():
    with pytest.raises(ValueError):
        evaluate(nat_program("(succ n)"), (1, 2))
    with pytest.raises(ValueError):
        evaluate(nat_program("(succ n)"), True)
    with pytest.raises(ValueError):
        evaluate(list_program("(rest l)"), 5)
    for bad in ((-1, 2), (1, True), (1, (2,))):
        with pytest.raises(ValueError):
            evaluate(list_program("(succ (first l))"), bad)


@pytest.mark.parametrize(
    "text, env",
    [("(succ n)", {"n": -1}), ("(precnat zero idx n)", {"n": -5}), ("(first l)", {"l": (-3,)}), ("(succ n)", {"n": True})],
)
def test_environment_values_must_be_kernel_values(text, env):
    term = parse(text)
    program = check_well_formed(term, infer_sort(term, frozenset(env)), env)
    with pytest.raises(ValueError):
        evaluate(program, *env.values())


def test_totality_at_documented_scale():
    # random well-formed programs up to size 10 on inputs 0..20 either finish
    # or raise ResourceExhausted under a 10^7-step budget; they never loop
    rng = random.Random(404)
    budget = EvalBudget(max_steps=10_000_000)
    for _ in range(2000):
        program = over_n(random_term(rng, max_size=10))
        try:
            evaluate(program, rng.randint(0, 20), budget)
        except ResourceExhaustedError:
            pass


# ---------------------------------------------------------------------------
# Exact accounting against the budgeted reference evaluator

ACCOUNTING_BUDGETS = (EvalBudget(), EvalBudget(max_steps=37), EvalBudget(max_steps=500, max_value_bits=12))


def _outcome(run):
    """A value, or the exhaustion as (reason, steps_used, at)."""
    try:
        return ("value", run())
    except (ResourceExhaustedError, Exhausted) as exc:
        return ("exhausted", exc.reason, exc.steps_used, exc.at)


def _reference(term, env, budget):
    return _outcome(lambda: eval_budgeted(term, env, budget.max_steps, budget.max_value_bits))


def _accounting_cases():
    """(program, inputs, large inputs): the first programs of each tier on
    naturals, and random list programs, which reach filter and pivotrec on
    non-empty lists, nested in each other and in precnat steps. Large
    inputs run only under the small budgets, where they exhaust."""
    for tier, count in ((Tier.NATFN, 2000), (Tier.FULL, 2000)):
        for program in islice(enumerate_stream(tier), count):
            yield program, (0, 2, 5, 9), (40, 300)
    # The head of a cons runs out of value bits under the small budget
    # before its tail is evaluated.
    yield CONS_SQUARE, (0, 3), (2**10,)
    rng = random.Random(7)
    lists = ((), (2, 0, 1), (3, 1, 4, 1, 5, 0), (1, 1, 0, 2, 2))
    large = ((5, 3, 8, 1, 9, 2, 7, 0, 4, 6), (300, 1000, 5))
    for _ in range(1200):
        term = random_term(rng, Sort.LIST_NAT, frozenset({"l"}), max_size=14)
        yield check_well_formed(term, Sort.LIST_NAT, {"l"}), lists, large


def test_compiled_evaluator_matches_reference_accounting():
    checked = exhausted = 0
    for program, inputs, large in _accounting_cases():
        (var,) = program.free_vars
        for budget in ACCOUNTING_BUDGETS:
            for value in inputs if budget.max_steps > 500 else inputs + large:
                env = {var: value}
                ours = _outcome(lambda: evaluate(program, value, budget))
                assert ours == _reference(program.term, env, budget), (program, env, budget)
                checked += 1
                exhausted += ours[0] == "exhausted"
    # both outcomes are well represented
    assert checked > 80_000 and exhausted > 2_000


def test_nested_binders_accounting_at_every_step_budget():
    # Exhaustion at each step of a sort, and of binders nested so that a
    # variable is read after an inner binder rebound it: an outer filter's
    # x in a pivotrec combiner, an outer precnat's acc after an inner loop,
    # a filter predicate's x after an inner filter, and acc and l inside a
    # pivotrec in a precnat step.
    lists = ((), (2, 0, 1), (3, 1, 4, 1, 5, 0, 2))
    cases = [
        (list_program(QUICKSORT), lists),
        (list_program("(filter l (lt (len (pivotrec l (lt x pivot) (lt pivot x) (cons x (filter (append l r) (lt x pivot))))) x))"), lists),
        (list_program("(filter l (lt (len (filter l (lt x (first l)))) x))"), lists),
        (list_program("(precnat zero (len (pivotrec (cons idx l) (lt x pivot) (lt pivot acc) (cons (len l) r))) (len l))"), lists),
        (nat_program("(precnat zero (add (precnat acc (add acc idx) n) acc) n)"), (0, 1, 3, 6)),
    ]
    for program, inputs in cases:
        var = next(iter(program.free_vars))
        for value in inputs:
            env = {var: value}
            for max_steps in range(1, 400, 3):
                budget = EvalBudget(max_steps=max_steps)
                assert _outcome(lambda: evaluate(program, value, budget)) == _reference(program.term, env, budget)
    # precnat loops whose step is a single leaf, which run in one go: each
    # leaf a step can be, at counts 0, 1, 2 and 300 (x and pivot through
    # the list elements), a loop nested in a non-leaf step that reads the
    # outer acc and idx, and target or base out of value bits before the
    # loop starts, at every step budget up to past the loop's last step.
    wide = DEFAULT_MAX_VALUE_BITS
    leaf_loops = [
        (nat_program("(precnat n zero n)"), (0, 1, 2, 300), wide),
        (nat_program("(precnat zero n n)"), (0, 1, 2, 300), wide),
        (nat_program("(precnat (succ n) acc n)"), (0, 1, 2, 300), wide),
        (nat_program("(precnat n idx n)"), (0, 1, 2, 300), wide),
        (nat_program("(precnat zero (precnat acc idx idx) n)"), (0, 1, 2, 24), wide),
        (list_program("(filter l (lt (first l) (precnat zero x x)))"), ((), (0, 1, 2), (2, 300, 1)), wide),
        (list_program("(pivotrec l (lt x (precnat zero pivot pivot)) (lt pivot x) (append l (cons pivot r)))"),
         ((0, 1), (1, 0), (2, 1, 0), (300, 2)), wide),
        (nat_program("(precnat (mul n n) idx n)"), (3, 2**10), 12),
        (nat_program("(precnat zero acc (mul n n))"), (3, 2**10), 12),
    ]
    for program, inputs, bits in leaf_loops:
        var = next(iter(program.free_vars))
        for value in inputs:
            env = {var: value}
            for max_steps in range(1, 420):
                budget = EvalBudget(max_steps, bits)
                outcome = _outcome(lambda: evaluate(program, value, budget))
                assert outcome == _reference(program.term, env, budget), (program, env, budget)
            assert outcome[:2] != ("exhausted", "steps"), (program, env)


# precnat loops whose step is one succ, add or mul node over leaves, which
# run in closed form from the last iteration the fuel reaches: every
# operator with each leaf in each operand position, acc entering below and
# past the cap, caps that cut the loop at its first iteration or in its
# middle, and counts that do and do not follow the input.
NODE_LEAVES = ("acc", "idx", "zero", "n")
NODE_STEPS = [f"(succ {a})" for a in NODE_LEAVES] + [
    f"({op} {a} {b})" for op in ("add", "mul") for a in NODE_LEAVES for b in NODE_LEAVES
]
NODE_CAPS = (DEFAULT_MAX_VALUE_BITS, 3, 8, 200)
# Each target with its count at input n.
NODE_TARGETS = {"n": lambda n: n, "(succ (succ (succ zero)))": lambda n: 3, "(add n n)": lambda n: 2 * n}


def _node_loop_budgets(program, env, bits, end):
    """Step budgets for a run that takes `end` steps when nothing runs out:
    every budget up to past `end` for a short run; for a long one, every
    budget in its first and last few iterations, on both sides of where it
    runs out of value bits, and every 97th between."""
    budgets = set(range(1, end + 5)) if end <= 60 else set(range(1, 12)) | set(range(end - 7, end + 3))
    budgets |= set(range(1, end, 97))
    failed = _reference(program.term, env, EvalBudget(end + 4, bits))
    if failed[:2] == ("exhausted", "value-bits"):
        budgets |= {failed[2] - 1, failed[2], failed[2] + 1}
    return sorted(budgets) + [DEFAULT_MAX_STEPS]


def _node_cases():
    """(program, input, caps, loop count) for one-node precnat steps. 2**10
    enters past the small caps; under the 8-bit cap the constant target
    makes (mul acc idx) fail its first check and pass its last."""
    for step in NODE_STEPS:
        for base in ("zero", "n", "(succ n)"):
            for target, count in NODE_TARGETS.items():
                program = nat_program(f"(precnat {base} {step} {target})")
                long_caps = NODE_CAPS[::2] if base != "(succ n)" and target != "(add n n)" else ()
                for value, caps in ((0, NODE_CAPS), (1, NODE_CAPS), (2, NODE_CAPS), (300, long_caps), (2**10, (8,))):
                    yield program, value, caps, count(value)
    # acc entering at 0, and (mul acc n) at n = 1, over (n + 3)^2 iterations,
    # past the small caps, where acc's bit length gives no bound.
    square = "(mul (add n (succ (succ (succ zero)))) (add n (succ (succ (succ zero)))))"
    for step in ("(add acc acc)", "(mul acc n)", "(mul n acc)"):
        for base in ("zero", "n"):
            for value in (0, 1, 2):
                yield nat_program(f"(precnat {base} {step} {square})"), value, NODE_CAPS, (value + 3) ** 2


def test_precnat_closed_form_is_chosen_from_the_step_term():
    # A leaf spends one step an iteration and leaves acc as it entered. A
    # one-node step over leaves spends 1 + arity, and has one of the
    # _ACC_AFTER formulas iff it reads acc, with the other operand read from
    # the slots, the same in either operand order. A step whose top node has
    # a non-leaf argument gets no form, and loops.
    env = {"n": 7, "acc": 5, "idx": 3}
    slots = slot_vector(env)
    for leaf in NODE_LEAVES:
        cost, after, read = _closed_form(parse(leaf))
        assert cost == 1 and after(5, 3, 7, DEFAULT_MAX_VALUE_BITS) == 5
    for step in NODE_STEPS:
        term = parse(step)
        cost, after, read = _closed_form(term)
        assert cost == 1 + len(term.args)
        assert _closed_form(Term(term.head, term.args[::-1]))[1] is after, step
        if "acc" in step:
            other = next((a.head for a in term.args if a.head != "acc"), "acc")
            assert after in _ACC_AFTER.values() and read(slots) == env.get(other, 0), step
        else:
            assert after not in _ACC_AFTER.values() and after(5, 3, 7, DEFAULT_MAX_VALUE_BITS) == 5, step
    for step in ("(succ (succ acc))", "(add acc (succ idx))", "(mul (add acc n) idx)", "(len l)"):
        assert _closed_form(parse(step)) is None, step


def test_compile_node_refuses_precnat():
    # A precnat's closed form is read from its step's term, which compiled
    # arguments do not carry.
    leaf = compile_term(parse("n"))
    with pytest.raises(ValueError, match="a precnat is compiled from its term, by compile_term"):
        compile_node("precnat", [leaf, leaf, leaf])


def test_one_node_precnat_steps_match_reference_accounting():
    checked = long_values = 0
    for program, value, caps, count in _node_cases():
        assert _closed_form(program.term.args[1]) is not None, program
        end = size(program.term) + (count - 1) * size(program.term.args[1])
        for bits in caps:
            env = {"n": value}
            for max_steps in _node_loop_budgets(program, env, bits, end):
                budget = EvalBudget(max_steps, bits)
                outcome = _outcome(lambda: evaluate(program, value, budget))
                assert outcome == _reference(program.term, env, budget), (program, env, budget)
                checked += 1
                long_values += outcome[0] == "value" and value == 300
    assert checked > 40_000 and long_values > 250


def test_one_node_precnat_steps_over_x_and_pivot():
    # x and pivot, bound by pivotrec, in each operand position, as loop
    # counts and entry values taken from the list.
    leaves = ("acc", "idx", "x", "pivot")
    steps = [f"(succ {a})" for a in ("x", "pivot")] + [
        f"({op} {a} {b})" for op in ("add", "mul") for a in leaves for b in leaves if {a, b} & {"x", "pivot"}
    ]
    # Every step budget, up to the first that does not run out of steps. In
    # (127, 3), acc enters one bit short of the 8-bit cap, so that a loop
    # can fail its check before its last iteration, and still end within
    # the cap.
    lists = ((), (2, 0, 1), (1, 3, 0, 2), (127, 3))
    for step in steps:
        program = list_program(f"(pivotrec l (lt x (precnat pivot {step} x)) (lt pivot x) (append l (cons pivot r)))")
        for value in lists:
            env = {"l": value}
            for bits in (DEFAULT_MAX_VALUE_BITS, 4, 8):
                outcome = ("exhausted", "steps")
                max_steps = 0
                while outcome[:2] == ("exhausted", "steps"):
                    max_steps += 1
                    budget = EvalBudget(max_steps, bits)
                    outcome = _outcome(lambda: evaluate(program, value, budget))
                    assert outcome == _reference(program.term, env, budget), (program, env, budget)


def test_batched_probes_equal_per_probe_evaluation():
    probes = (0, 1, 2, 3, 5, 8, 40, 300)
    vectors = [slot_vector({"n": p}) for p in probes]
    raised = 0
    for program in islice(enumerate_stream(Tier.FULL), 0, 3000, 3):
        for budget in ACCOUNTING_BUDGETS[1:]:
            expected = []
            for p in probes:
                expected.append(_outcome(lambda: evaluate(program, p, budget)))
                if expected[-1][0] == "exhausted":
                    break
            got = []
            batch = run_probes(compile_term(program.term), vectors, budget)
            while len(got) < len(probes):
                got.append(_outcome(lambda: next(batch)))
                if got[-1][0] == "exhausted":
                    break
            assert got == expected, (program, budget)
            raised += got[-1][0] == "exhausted"
    assert raised > 100


def test_column_outputs_equal_probe_by_probe_runs():
    # Full-tier terms over n (binders run probe by probe) and binder-free
    # list terms with `if`, under budgets that cut steps and value bits;
    # one memo serves every term of a budget, as in a pool.
    nat_terms = [p.term for p in islice(enumerate_stream(Tier.FULL), 0, 6000, 2)]
    list_ops = frozenset({"zero", "succ", "mul", "nil", "cons", "first", "rest", "append", "len", "lt", "if"})
    list_terms = [t for size_ in range(1, 7) for t in walk_layer(list_ops, frozenset({"l"}), Sort.LIST_NAT, size_)]
    cases = [
        (nat_terms, [slot_vector({"n": p}) for p in (0, 1, 2, 3, 5, 8, 40, 300)]),
        (list_terms, [slot_vector({"l": p}) for p in ((), (0,), (3, 1), (2, 0, 5), (7, 7))]),
    ]
    raised = 0
    for terms_, vectors in cases:
        for budget in ACCOUNTING_BUDGETS + (EvalBudget(max_steps=4), EvalBudget(max_value_bits=4)):
            memo = {}
            for term in terms_:
                want = _outcome(lambda: tuple(run_probes(compile_term(term), vectors, budget)))
                assert _outcome(lambda: probe_outputs(term, vectors, budget, memo)) == want, (term, budget)
                raised += want[0] == "exhausted"
            assert memo
    assert raised > 1000


def test_deep_succ_chain_evaluates():
    assert evaluate(nat_program("(succ " * 900 + "n" + ")" * 900), 0) == 900


ROOT = Path(__file__).resolve().parent.parent
STDLIB_ONLY = [ROOT / "tests" / "oracles.py"] + sorted((ROOT / "src" / "diagforge").glob("*.py"))


@pytest.mark.parametrize("path", STDLIB_ONLY, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_module_imports_only_the_standard_library(path):
    # The package depends on the standard library alone. The benchmark's
    # output checks load tests/oracles.py from a bare checkout, where the
    # package cannot be imported, so oracles.py may not import it at all.
    in_package = path.parent.name == "diagforge"
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            assert in_package, f"relative import in {path.name}"
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module)
    assert imported or in_package
    for name in imported:
        assert name.split(".")[0] in sys.stdlib_module_names and not name.startswith("diagforge"), name
