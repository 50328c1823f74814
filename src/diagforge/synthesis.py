"""Type-directed bottom-up synthesis from a reflection base.

A reflection base is a set of kernel operators; its component facts (sorts
and binders) are the kernel typing table, which the walk reads. Candidate
pools are built bottom-up in canonical enumeration order and pruned by
observational equivalence, as in Escher (Albarghouthi et al., CAV 2013)
and TRANSIT (Udupa et al., PLDI 2013): two terms with identical output
vectors over the probe inputs collapse to the cheaper one, and a term
built on a non-representative is never run (see `Pool`). Pools grow one
size layer at a time, only as far as the search reaches: it stops at
the first answer, which is the one the full pools would give. A goal's
probes cover its example inputs, so a bottom-up candidate is matched on
its fingerprint as soon as its layer is built. Fingerprints of
binder-free terms are computed over whole probe columns from their
subterms', one object per list value (`interp.probe_outputs`). Schema holes are
fingerprinted on their own probes and each filling is checked on the
examples, so a collapse there can at worst force a larger budget, never
a wrong answer. A candidate or filling that exhausts the evaluation
budget is dropped, so a search that then finds nothing is inconclusive:
`synthesize` raises the first error dropped.

Recursion enters only through schemas. The divide-and-conquer schema
fills the three pivotrec holes (two predicates over x and pivot, one
combiner over l, pivot, r) from the pools of its kernel spec, cheapest
total cost first; the quicksort core falls out of it. Where no filling
can exhaust the budget, a predicate that behaves on the examples as an
earlier one is skipped, and runs of fillings are decided by folding each
combiner over partition trees, with no predicate run again (see `_PivotExamples`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from itertools import product

from .enumeration import walk_layer
from .errors import ResourceExhaustedError, cut
from .interp import (
    BITS_CHECKED,
    DEFAULT_BUDGET,
    EvalBudget,
    compile_node,
    compile_term,
    probe_outputs,
    probe_vectors,
    run_probes,
    tree_fold,
)
from .kernel import (
    INPUT_VARS,
    OPS,
    VAR_SORTS,
    Param,
    Record,
    Sort,
    Term,
    TypedProgram,
    Value,
    check_well_formed,
    format_value,
    parse_value,
    pretty,
    sort_of_value,
)


# ---------------------------------------------------------------------------
# Reflection bases


# A reflection base is a set of kernel operator names. Its component facts
# (argument and result sorts, binders) are the kernel typing table `OPS`,
# which the walk reads; variables enter through the pool's scope.
NAT_BASE = frozenset({"zero", "succ", "add", "mul", "precnat"})
LIST_BASE = frozenset({"zero", "nil", "cons", "first", "rest", "append", "len", "lt"})


# ---------------------------------------------------------------------------
# Goals and probes


def default_probes(input_sort: Sort) -> tuple[Value, ...]:
    if input_sort is Sort.NAT:
        return tuple(range(7))
    if input_sort is Sort.LIST_NAT:
        return _lists_over(alphabet=(0, 1, 2), max_len=3)
    raise ValueError(f"no default probes for sort {input_sort.value}")


def _lists_over(alphabet: tuple[int, ...], max_len: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []
    for length in range(max_len + 1):
        out.extend(product(alphabet, repeat=length))
    return tuple(out)


class GoalSpec(Record):
    """A synthesis task: I/O examples plus probe inputs for fingerprinting."""

    __slots__ = _fields = ("input_sort", "output_sort", "examples", "probes")

    def __init__(
        self,
        input_sort: Sort,
        output_sort: Sort,
        examples: tuple[tuple[Value, Value], ...],
        probes: tuple[Value, ...],
    ):
        self.input_sort = input_sort
        self.output_sort = output_sort
        self.examples = examples
        self.probes = probes
        if not self.examples:
            raise ValueError("goal needs at least one example")
        for inp, out in self.examples:
            if sort_of_value(inp) is not self.input_sort or sort_of_value(out) is not self.output_sort:
                raise ValueError(f"example {format_value(inp)} -> {format_value(out)} does not have the goal's sorts")
        for p in self.probes:
            if sort_of_value(p) is not self.input_sort:
                raise ValueError(f"probe {p!r} is not of the input sort {self.input_sort.value}")
        probe_set = set(self.probes)
        for inp, _ in self.examples:
            if inp not in probe_set:
                raise ValueError(f"probes must cover example input {inp!r}")


def make_goal(examples: Sequence[tuple[Value, Value]]) -> GoalSpec:
    """Infer sorts from the first example; the default probes of the input
    sort, then any example input they miss."""
    examples = tuple(examples)
    if not examples:
        raise ValueError("goal needs at least one example")
    input_sort = sort_of_value(examples[0][0])
    output_sort = sort_of_value(examples[0][1])
    probe_list = list(default_probes(input_sort))
    for inp, _ in examples:
        if inp not in probe_list:
            probe_list.append(inp)
    return GoalSpec(input_sort, output_sort, examples, tuple(probe_list))


def parse_goal_text(text: str) -> GoalSpec:
    """One "input -> output" pair per line, values written as S-expressions."""
    examples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        left, sep, right = line.partition("->")
        if not sep:
            raise ValueError(f"goal line {lineno} has no '->': {raw!r}")
        examples.append((parse_value(left.strip()), parse_value(right.strip())))
    return make_goal(examples)


def load_goal(path: str) -> GoalSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_goal_text(handle.read())


# ---------------------------------------------------------------------------
# Candidate pools


class Candidate(Record):
    """A pool member; its code, once compiled, is kept on its term
    (`compile_term(candidate.term)`)."""

    __slots__ = _fields = ("term", "cost", "fingerprint")

    def __init__(self, term: Term, cost: int, fingerprint: tuple):
        self.term = term
        self.cost = cost
        self.fingerprint = fingerprint


class Pool(list):
    """One minimal representative per behavior among terms of size <= max_size,
    grown one size layer at a time, only as far as `grow` is asked to.

    Members come out in canonical enumeration order (size ascending, then
    rank-lexicographic), so the first member of each behavior class is the
    minimum under (cost, canonical order); later equals are destroyed as
    uneconomical variants. Growing only appends, so members keep their
    positions and a partly grown pool is a prefix of the full one.

    A term is skipped unrun when an argument at a binder-free position of
    sort `target_sort` is not a representative. Such an argument is always
    evaluated, in the term's own environment (the lazy `if` branches have
    no fixed sort), so its representative in its place keeps every probe
    output; and as pre-order rank sequences are prefix-free, that term
    comes earlier in canonical order, so its fingerprint is already seen.

    A candidate that exhausts the budget on a probe is dropped and counted
    in `drops`; the first such error is kept as `dropped`, naming the probe
    and the candidate (None while none was dropped). Under
    the value-bits cap skipping stays exact, as a representative runs in
    the term as on its own and a dropped argument exhausts in the term too.
    Under the steps cap it need not be: a representative can take more
    steps than the argument it replaces.
    """

    def __init__(
        self,
        ops: frozenset[str],
        free_vars: tuple[str, ...],
        target_sort: Sort,
        probes: Sequence,
        max_size: int,
        budget: EvalBudget | None = None,
    ):
        super().__init__()
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        if not probes:
            raise ValueError("pool needs at least one probe")
        if not ops <= OPS.keys():
            raise ValueError(f"not kernel operators: {sorted(ops - OPS.keys())}")
        self.max_size = max_size
        self.built = 0  # the sizes 1..built are in the pool
        self.dropped: ResourceExhaustedError | None = None
        self.drops = 0
        self._walk = (ops, frozenset(free_vars), target_sort)
        self._probes = probes
        self._vectors = probe_vectors(free_vars, probes)
        self._budget = budget
        self._pooled = {
            name: tuple(i for i, p in enumerate(spec.params) if not p.binders and p.sort is target_sort)
            for name, spec in OPS.items()
        }
        self._seen: set[tuple] = set()
        self._reps: set[Term] = set()
        self._columns: dict[Term, tuple] = {}

    def grow(self, size: int) -> None:
        """Build the layers not yet built through `size` (at most max_size)."""
        for size_ in range(self.built + 1, min(size, self.max_size) + 1):
            for term in walk_layer(*self._walk, size_):
                if any(term.args[i] not in self._reps for i in self._pooled[term.head]):
                    continue
                try:
                    fingerprint = probe_outputs(term, self._vectors, self._budget, self._columns)
                except ResourceExhaustedError as exc:
                    self.drops += 1
                    self.dropped = self.dropped or _named(exc, "probe", self._probes[exc.probe_index], term)
                    continue
                seen = len(self._seen)
                self._seen.add(fingerprint)
                if len(self._seen) == seen:
                    continue
                self._reps.add(term)
                self.append(Candidate(term, size_, fingerprint))
            self.built = size_


def _named(exc: ResourceExhaustedError, where: str, value: Value, term: Term) -> ResourceExhaustedError:
    """exc, naming the probe or example it ran out on and the term run,
    each cut as the space verbs cut them."""
    at = f"{where} {cut(format_value(value))} for {cut(pretty(term))}"
    return ResourceExhaustedError(exc.steps_used, exc.reason, at=at)


# ---------------------------------------------------------------------------
# Schemas


SCHEMA_BOTTOM_UP = "bottomup"
SCHEMA_PIVOT_DC = "pivotdc"


def pivot_pools(ops: frozenset[str], budget: int, eval_budget: EvalBudget | None = None) -> tuple[Pool, Pool]:
    """The pivotrec predicate and combiner pools, over the variables and
    sorts of its kernel spec, each fingerprinted on every combination of
    small values of its variables: naturals 0-3 and lists over {0, 1} of at
    most 2 elements, enough to separate the elementary list components."""
    small = {Sort.NAT: range(4), Sort.LIST_NAT: _lists_over(alphabet=(0, 1), max_len=2)}

    def pool(hole: Param) -> Pool:
        probes = tuple(product(*(small[VAR_SORTS[var]] for var in hole.binders)))
        return Pool(ops, hole.binders, hole.sort, probes, budget, eval_budget)

    params = OPS["pivotrec"].params
    return pool(params[1]), pool(params[3])


def pivot_runs(preds: Pool, combiners: Pool) -> Iterator[tuple[int, int, int, int]]:
    """All pivotrec fillings, as runs (i, j, lo, hi): left predicate i, right
    predicate j and each combiner in range(lo, hi), which all have one cost.
    Runs come by total cost, then by (i, j), so fillings come in the order
    of their per-hole positions, and the first is the minimal one.

    At each total T, predicates grow through T minus the least predicate
    and combiner costs, combiners through T minus twice the least predicate
    cost: a member not yet built costs more than any filling at T can use,
    so the runs, and the pruning on the members built, are the full pools'.
    """
    for pool in (preds, combiners):
        while not pool and pool.built < pool.max_size:
            pool.grow(pool.built + 1)
        if not pool:
            return
    p_min, c_min = preds[0].cost, combiners[0].cost
    total = 2 * p_min + c_min
    while True:
        preds.grow(total - p_min - c_min)
        combiners.grow(total - 2 * p_min)
        costs, combiner_costs = [c.cost for c in preds], [c.cost for c in combiners]
        p_max, c_max = costs[-1], combiner_costs[-1]
        if total > 2 * p_max + c_max and preds.built == preds.max_size and combiners.built == combiners.max_size:
            return
        for i in range(bisect_left(costs, total - p_max - c_max), bisect_right(costs, total - p_min - c_min)):
            rest = total - costs[i]
            for j in range(bisect_left(costs, rest - c_max), bisect_right(costs, rest - c_min)):
                lo = bisect_left(combiner_costs, rest - costs[j])
                hi = bisect_right(combiner_costs, rest - costs[j], lo)
                if lo < hi:
                    yield i, j, lo, hi
        total += 1


# Operators that let a hole spend more steps than it has nodes (binders) or
# fail on the values it meets (value-bits checks).
_UNBOUNDED_OPS = frozenset(name for name, spec in OPS.items() if any(p.binders for p in spec.params)) | BITS_CHECKED


class _PivotExamples:
    """Which fillings of a pivotrec run meet every goal example: `first(run)`
    is the position of the run's first combiner whose filling meets them,
    or None. A filling that exhausts the budget is skipped and counted in
    `drops`, and the first such error kept as `dropped`, naming the example
    and the filling.

    No filling can exhaust (bounded) when the operators have no binder and
    no value-bits check, so a hole spends at most its pool's max_size
    steps, and the most partition calls a list allows stay within
    max_steps. Then a filling's outcome on an example depends only on its
    combiner and on its predicates' values at the example's (later
    element, earlier element) pairs, the only pairs partitioning compares:
    their signatures. A filling that meets every example with a predicate
    whose signatures an earlier one has also meets them with that one,
    which costs no more and comes earlier in run order, so the first answer
    never uses it, and a run with it is None at once. Two representatives'
    signatures fix each example's partition tree, built once over element
    positions, so repeated elements split as in a run; a combiner's output
    is its code folded over the tree (interp.tree_fold, one slot vector and
    fuel object for the search), once per tree and combiner. A pair of
    representatives meets each combiner once, as its runs come at rising
    totals, so a run is one scan. Otherwise each filling runs whole.
    """

    def __init__(self, ops: frozenset[str], goal: GoalSpec, budget: EvalBudget | None, preds: Pool, combiners: Pool):
        self.lists = [inp for inp, _ in goal.examples]
        self.inputs = probe_vectors(("l",), self.lists)
        self.outputs = [out for _, out in goal.examples]
        self.eval_budget = budget
        self.input_code = compile_node("l")
        self.fold = tree_fold(budget)
        self.preds = preds
        self.combiners = combiners
        self.dropped: ResourceExhaustedError | None = None
        self.drops = 0
        longest = max(len(xs) for xs in self.lists)
        # Each call splits its tail into two sublists, each possibly the whole tail.
        calls = 2 ** (longest + 1) - 1
        steps = 2 + calls * (1 + (2 * longest + 1) * max(preds.max_size, combiners.max_size))
        self.bounded = not ops & _UNBOUNDED_OPS and steps <= (budget or DEFAULT_BUDGET).max_steps
        # Per example: its (later, earlier) position pairs and slot vectors
        # of their values.
        self.at = [[(j, i) for i in range(len(xs)) for j in range(i + 1, len(xs))] for xs in self.lists]
        self.pairs = [
            probe_vectors(("x", "pivot"), [(xs[j], xs[i]) for j, i in at]) for xs, at in zip(self.lists, self.at)
        ]
        # Per predicate position, its signatures if it is a representative, else None.
        self.signatures: list[tuple | None] = []
        self.cases: dict[tuple, tuple] = {}

    def first(self, run: tuple[int, int, int, int]) -> int | None:
        i, j, lo, hi = run
        if not self.bounded:
            left, right = compile_term(self.preds[i].term), compile_term(self.preds[j].term)
            for k in range(lo, hi):
                code = compile_node("pivotrec", [self.input_code, left, right, compile_term(self.combiners[k].term)])
                runs = zip(run_probes(code, self.inputs, self.eval_budget), self.outputs)
                try:
                    if all(got == out for got, out in runs):
                        return k
                except ResourceExhaustedError as exc:
                    self.drops += 1
                    if not self.dropped:
                        holes = self.preds[i].term, self.preds[j].term, self.combiners[k].term
                        filling = Term("pivotrec", (Term("l"), *holes))
                        self.dropped = _named(exc, "example", self.lists[exc.probe_index], filling)
            return None
        while len(self.signatures) <= max(i, j):
            code = compile_term(self.preds[len(self.signatures)].term)
            signatures = tuple(tuple(run_probes(code, pairs, self.eval_budget)) for pairs in self.pairs)
            self.signatures.append(None if signatures in self.signatures else signatures)
        left, right = self.signatures[i], self.signatures[j]
        if left is None or right is None:
            return None
        cases = [self._case(k, sides) for k, sides in enumerate(zip(left, right))]
        for k in range(lo, hi):
            for nodes, out, met in cases:
                verdict = met.get(k)
                if verdict is None:
                    verdict = met[k] = self.fold(compile_term(self.combiners[k].term), nodes) == out
                if not verdict:
                    break
            else:
                return k
        return None

    def _case(self, k: int, sides: tuple[tuple, tuple]) -> tuple[list[tuple[Value, int, int]], Value, dict[int, bool]]:
        """Example k under predicates of these (left, right) signatures on
        it: its partition tree as interp.tree_fold takes it, its output, and
        whether each combiner position tried meets it."""
        if (k, sides) not in self.cases:
            xs, nodes = self.lists[k], []
            self._tree(xs, [dict(zip(self.at[k], side)) for side in sides], list(range(len(xs))), nodes)
            self.cases[k, sides] = (nodes, self.outputs[k], {})
        return self.cases[k, sides]

    def _tree(self, xs: Value, goes: list[dict], positions: list[int], nodes: list) -> int:
        """Appends to nodes, children first, the partition tree of xs at these
        positions as `goes` (left, right) splits them; 1 + its root's position, or 0."""
        if not positions:
            return 0
        i, tail = positions[0], positions[1:]
        below = [self._tree(xs, goes, [j for j in tail if side[j, i]], nodes) for side in goes]
        nodes.append((xs[i], *below))
        return len(nodes)


def synthesize(
    ops: frozenset[str],
    goal: GoalSpec,
    schema: str,
    budget: int,
    eval_budget: EvalBudget | None = None,
) -> TypedProgram | None:
    """Search for a program over `ops` matching every goal example; None
    when absent.

    `budget` is the per-hole (pivotdc) or whole-term (bottomup) size bound;
    pools are grown only as far as the search needs. A candidate or
    filling that exhausts `eval_budget` is dropped; when nothing is found
    after a drop, the first ResourceExhaustedError of the pools grown
    through `budget`, or else of the fillings, is raised instead of
    returning None, naming its probe or example, the candidate or filling,
    and how many were dropped in all.
    """
    outputs = [out for _, out in goal.examples]
    if schema == SCHEMA_BOTTOM_UP:
        var = INPUT_VARS[goal.input_sort]
        pool = Pool(ops, (var,), goal.output_sort, goal.probes, budget, eval_budget)
        at = [goal.probes.index(inp) for inp, _ in goal.examples]
        for size_ in range(1, budget + 1):
            start = len(pool)
            pool.grow(size_)
            for candidate in pool[start:]:
                if [candidate.fingerprint[i] for i in at] == outputs:
                    return check_well_formed(candidate.term, goal.output_sort, {var})
        dropped, drops = pool.dropped, pool.drops
    elif schema == SCHEMA_PIVOT_DC:
        if goal.input_sort is not Sort.LIST_NAT or goal.output_sort is not Sort.LIST_NAT:
            raise ValueError("the divide-and-conquer schema sorts lists into lists")
        preds, combiners = pivot_pools(ops, budget, eval_budget)
        meets = _PivotExamples(ops, goal, eval_budget, preds, combiners)
        for run in pivot_runs(preds, combiners):
            k = meets.first(run)
            if k is not None:
                holes = (preds[run[0]].term, preds[run[1]].term, combiners[k].term)
                return check_well_formed(Term("pivotrec", (Term("l"),) + holes), Sort.LIST_NAT, {"l"})
        # Nothing found: the pools' first error is the one of the full pools.
        preds.grow(budget)
        combiners.grow(budget)
        dropped = preds.dropped or combiners.dropped or meets.dropped
        drops = preds.drops + combiners.drops + meets.drops
    else:
        raise ValueError(f"unknown schema: {schema!r}")
    if dropped:
        raise ResourceExhaustedError(dropped.steps_used, dropped.reason, at=f"{dropped.at}, {drops} dropped in all")
    return None
