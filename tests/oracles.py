"""Independent reference implementations the tests check the package against.

Nothing here reuses the package's generators or evaluator internals: the
brute-force term generators work on S-expression strings from their own
copy of the grammar, `eval_nat` is a direct recursion with no budget machinery,
and `eval_budgeted` is a tree walk over the whole language that counts
steps and value bits as the package documents them. This module imports
nothing from the package (the benchmark's output checks load it from a
bare checkout).
"""

from functools import lru_cache
from itertools import product


def insertion_sort(xs):
    """Reference sort for checking pivot-recursion programs."""
    out = []
    for x in xs:
        i = 0
        while i < len(out) and out[i] < x:
            i += 1
        out.insert(i, x)
    return tuple(out)


@lru_cache(maxsize=None)
def nat_terms_of_size(size, bound_vars=()):
    """All well-formed Nat-sorted S-expressions of exactly `size` nodes.

    Grammar: n | zero | bound vars | (succ t) | (add t t) | (mul t t)
    | (precnat base step target) where step sees acc and idx.
    """
    if size == 1:
        return ("n", "zero") + tuple(bound_vars)
    terms = []
    for sub in nat_terms_of_size(size - 1, bound_vars):
        terms.append(f"(succ {sub})")
    for a in range(1, size - 1):
        b = size - 1 - a
        for left in nat_terms_of_size(a, bound_vars):
            for right in nat_terms_of_size(b, bound_vars):
                terms.append(f"(add {left} {right})")
                terms.append(f"(mul {left} {right})")
    for a in range(1, size - 2):
        for b in range(1, size - 1 - a):
            c = size - 1 - a - b
            for base in nat_terms_of_size(a, bound_vars):
                for step in nat_terms_of_size(b, ("acc", "idx")):
                    for target in nat_terms_of_size(c, bound_vars):
                        terms.append(f"(precnat {base} {step} {target})")
    return tuple(terms)


def all_nat_terms(max_size):
    out = []
    for s in range(1, max_size + 1):
        out.extend(nat_terms_of_size(s))
    return out


# The whole grammar: variable name -> (rank, sort), and operator name ->
# (rank, result sort, parameters as (sort, variables bound)). A parameter
# sort of None is the sort of the whole term (the branches of `if`); a
# result sort of None lets the operator take any sort.
VARIABLES = {
    "n": (0, "nat"), "x": (16, "nat"), "acc": (17, "nat"), "idx": (18, "nat"),
    "pivot": (19, "nat"), "l": (20, "list"), "r": (21, "list"),
}
OPERATORS = {
    "zero": (1, "nat", ()),
    "succ": (2, "nat", (("nat", ()),)),
    "add": (3, "nat", (("nat", ()), ("nat", ()))),
    "mul": (4, "nat", (("nat", ()), ("nat", ()))),
    "precnat": (5, "nat", (("nat", ()), ("nat", ("acc", "idx")), ("nat", ()))),
    "nil": (6, "list", ()),
    "cons": (7, "list", (("nat", ()), ("list", ()))),
    "first": (8, "nat", (("list", ()),)),
    "rest": (9, "list", (("list", ()),)),
    "append": (10, "list", (("list", ()), ("list", ()))),
    "len": (11, "nat", (("list", ()),)),
    "lt": (12, "bool", (("nat", ()), ("nat", ()))),
    "if": (13, None, (("bool", ()), (None, ()), (None, ()))),
    "filter": (14, "list", (("list", ()), ("bool", ("x",)))),
    "pivotrec": (
        15,
        "list",
        (("list", ()), ("bool", ("x", "pivot")), ("bool", ("x", "pivot")), ("list", ("l", "pivot", "r"))),
    ),
}


def _splits(total, parts):
    """Every ordered way to write total as a sum of `parts` positive ints."""
    if parts == 1:
        return [(total,)]
    return [(k,) + rest for k in range(1, total - parts + 2) for rest in _splits(total - k, parts - 1)]


@lru_cache(maxsize=None)
def _ranked_terms(ops, scope, sort, size):
    """(pre-order rank sequence, S-expression) of every term of exactly
    `size` nodes, in no particular order."""
    out = []
    if size == 1:
        out.extend(((rank,), name) for name, (rank, var_sort) in VARIABLES.items() if name in scope and var_sort == sort)
    for name in ops:
        rank, result, params = OPERATORS[name]
        if result not in (None, sort):
            continue
        if not params:
            if size == 1:
                out.append(((rank,), name))
            continue
        if size - 1 < len(params):
            continue
        for split in _splits(size - 1, len(params)):
            pools = [
                _ranked_terms(ops, scope | frozenset(bound), param_sort or sort, k)
                for (param_sort, bound), k in zip(params, split)
            ]
            for args in product(*pools):
                ranks = (rank,) + tuple(r for arg in args for r in arg[0])
                out.append((ranks, f"({name} {' '.join(arg[1] for arg in args)})"))
    return tuple(out)


def canonical_terms(ops, scope, sort, max_size):
    """Every term of size <= max_size over the operators `ops` and the
    variables `scope`, of sort "nat", "bool" or "list", as S-expressions in
    canonical order: by size, then by pre-order rank sequence."""
    out = []
    for size in range(1, max_size + 1):
        layer = _ranked_terms(frozenset(ops), frozenset(scope), sort, size)
        out.extend(text for _, text in sorted(layer))
    return out


def eval_nat(term, env):
    """Direct evaluator for the Nat fragment; no budget, no sharing with interp."""
    head = term.head
    if head == "zero":
        return 0
    if head in ("n", "acc", "idx", "x", "pivot"):
        return env[head]
    if head == "succ":
        return eval_nat(term.args[0], env) + 1
    if head == "add":
        return eval_nat(term.args[0], env) + eval_nat(term.args[1], env)
    if head == "mul":
        return eval_nat(term.args[0], env) * eval_nat(term.args[1], env)
    if head == "precnat":
        count = eval_nat(term.args[2], env)
        value = eval_nat(term.args[0], env)
        for i in range(count):
            inner = dict(env)
            inner["acc"] = value
            inner["idx"] = i
            value = eval_nat(term.args[1], inner)
        return value
    raise ValueError(f"outside the Nat fragment: {head!r}")


class Exhausted(Exception):
    """eval_budgeted ran out of budget: reason, steps used, and the place
    of the failure (always None here), as ResourceExhaustedError carries."""

    def __init__(self, reason, steps_used):
        super().__init__(reason, steps_used)
        self.reason = reason
        self.steps_used = steps_used
        self.at = None


class _Fuel:
    def __init__(self, max_steps, max_bits):
        self.remaining = max_steps
        self.max_steps = max_steps
        self.max_bits = max_bits

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise Exhausted("steps", self.max_steps)

    def check_bits(self, bits):
        if bits > self.max_bits:
            raise Exhausted("value-bits", self.max_steps - self.remaining)


def eval_budgeted(term, env, max_steps, max_bits):
    """Reference tree-walking evaluator for the whole language, with the
    package's step and value-bit accounting: one step per node evaluated
    and one per pivotrec partition call; succ, add and mul check operand
    bit lengths before computing. Environments are copied at binders."""
    return _run(term, env, _Fuel(max_steps, max_bits))


def _run(t, env, fuel):
    fuel.spend()
    head = t.head
    args = t.args
    if not args:
        if head == "zero":
            return 0
        if head == "nil":
            return ()
        return env[head]
    if head == "succ":
        v = _run(args[0], env, fuel)
        fuel.check_bits(v.bit_length() + 1)
        return v + 1
    if head == "add":
        a = _run(args[0], env, fuel)
        b = _run(args[1], env, fuel)
        fuel.check_bits(max(a.bit_length(), b.bit_length()) + 1)
        return a + b
    if head == "mul":
        a = _run(args[0], env, fuel)
        b = _run(args[1], env, fuel)
        fuel.check_bits(a.bit_length() + b.bit_length())
        return a * b
    if head == "precnat":
        count = _run(args[2], env, fuel)
        acc = _run(args[0], env, fuel)
        for i in range(count):
            acc = _run(args[1], {**env, "acc": acc, "idx": i}, fuel)
        return acc
    if head == "cons":
        h = _run(args[0], env, fuel)
        return (h,) + _run(args[1], env, fuel)
    if head == "first":
        xs = _run(args[0], env, fuel)
        return xs[0] if xs else 0
    if head == "rest":
        return _run(args[0], env, fuel)[1:]
    if head == "append":
        return _run(args[0], env, fuel) + _run(args[1], env, fuel)
    if head == "len":
        return len(_run(args[0], env, fuel))
    if head == "lt":
        return _run(args[0], env, fuel) < _run(args[1], env, fuel)
    if head == "if":
        return _run(args[1] if _run(args[0], env, fuel) else args[2], env, fuel)
    if head == "filter":
        xs = _run(args[0], env, fuel)
        return tuple(v for v in xs if _run(args[1], {**env, "x": v}, fuel))
    if head == "pivotrec":
        xs = _run(args[0], env, fuel)
        return _pivot(xs, args[1], args[2], args[3], env, fuel)
    raise ValueError(f"no evaluation rule for {head!r}")


def _pivot(items, pred_left, pred_right, combine, env, fuel):
    fuel.spend()
    if not items:
        return ()
    pivot, tail = items[0], items[1:]
    left = []
    right = []
    for v in tail:
        inner = {**env, "x": v, "pivot": pivot}
        if _run(pred_left, inner, fuel):
            left.append(v)
        if _run(pred_right, inner, fuel):
            right.append(v)
    sorted_left = _pivot(tuple(left), pred_left, pred_right, combine, env, fuel)
    sorted_right = _pivot(tuple(right), pred_left, pred_right, combine, env, fuel)
    return _run(combine, {**env, "l": sorted_left, "pivot": pivot, "r": sorted_right}, fuel)



def grown(pool):
    """A package Pool, handed in, grown through its max_size."""
    pool.grow(pool.max_size)
    return pool


def eager_synthesize(synthesis, ops, goal, schema, budget, eval_budget=None):
    """The search `synthesis.synthesize` makes, run eagerly: every pool is
    built through `budget` before any candidate is tried, then the full
    pools are scanned (bottomup) or filled (pivotdc). Returns the program's
    term or None, and raises what a search that found nothing after a drop
    raises: the pools' first error, then the first filling's. It runs the
    package's own pools and evaluator, which the caller hands in as the
    package's `synthesis` module, as this module imports nothing from the
    package. It orders the fillings itself: the whole product of the full
    pools, by total cost and then by per-hole positions, each filling run
    whole on the examples."""
    outputs = [out for _, out in goal.examples]
    if schema == synthesis.SCHEMA_BOTTOM_UP:
        var = synthesis.INPUT_VARS[goal.input_sort]
        pool = grown(synthesis.Pool(ops, (var,), goal.output_sort, goal.probes, budget, eval_budget))
        at = [goal.probes.index(inp) for inp, _ in goal.examples]
        for candidate in pool:
            if [candidate.fingerprint[i] for i in at] == outputs:
                return candidate.term
        dropped = pool.dropped
    else:
        pred_pool, combine_pool = map(grown, synthesis.pivot_pools(ops, budget, eval_budget))
        dropped = pred_pool.dropped or combine_pool.dropped
        inputs = synthesis.probe_vectors(("l",), [inp for inp, _ in goal.examples])
        fillings = sorted(
            product(*(list(enumerate(pool)) for pool in (pred_pool, pred_pool, combine_pool))),
            key=lambda f: (sum(c.cost for _, c in f), [i for i, _ in f]),
        )
        for filling in (tuple(c for _, c in f) for f in fillings):
            holes = [synthesis.compile_term(c.term) for c in filling]
            code = synthesis.compile_node("pivotrec", [synthesis.compile_node("l")] + holes)
            try:
                if all(got == out for got, out in zip(synthesis.run_probes(code, inputs, eval_budget), outputs)):
                    return synthesis.Term("pivotrec", (synthesis.Term("l"),) + tuple(c.term for c in filling))
            except synthesis.ResourceExhaustedError as exc:
                dropped = dropped or exc
    if dropped:
        raise dropped
    return None
