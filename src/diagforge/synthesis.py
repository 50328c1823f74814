"""Type-directed bottom-up synthesis from a reflection base.

A reflection base is a set of kernel operators; its component facts (sorts
and binders) are the kernel typing table, which the walk reads. Candidate
pools are built bottom-up in canonical enumeration order and pruned by
observational equivalence, as in Escher (Albarghouthi et al., CAV 2013)
and TRANSIT (Udupa et al., PLDI 2013): two terms with identical output
vectors over the probe inputs collapse to the cheaper one, and a term
built on a non-representative is never run (see `bottom_up_pool`). A
goal's probes cover its example inputs, so a bottom-up candidate is
matched on its fingerprint. Schema holes are fingerprinted on their own
probes and each filling is run on the examples, so a collapse there can
at worst force a larger budget, never a wrong answer. A candidate or
filling that exhausts the evaluation budget is dropped, so a search that
then finds nothing is inconclusive: `synthesize` raises the first error
dropped.

Recursion enters only through schemas. The divide-and-conquer schema
fills the three pivotrec holes (two predicates over x and pivot, one
combiner over l, pivot, r) from their own pools, cheapest total cost
first; the quicksort core falls out of it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Sequence

from .enumeration import walk_layer
from .errors import ResourceExhaustedError
from .interp import Code, EvalBudget, compile_node, compile_term, probe_vectors, run_probes
from .kernel import (
    INPUT_VARS,
    OPS,
    Sort,
    Term,
    TypedProgram,
    Value,
    check_well_formed,
    format_value,
    parse_value,
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


@dataclass(frozen=True)
class GoalSpec:
    """A synthesis task: I/O examples plus probe inputs for fingerprinting."""

    input_sort: Sort
    output_sort: Sort
    examples: tuple[tuple[Value, Value], ...]
    probes: tuple[Value, ...]

    def __post_init__(self):
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


def make_goal(examples: Sequence[tuple[Value, Value]], probes: Sequence[Value] | None = None) -> GoalSpec:
    """Infer sorts from the first example; default probes by input sort."""
    examples = tuple(examples)
    if not examples:
        raise ValueError("goal needs at least one example")
    input_sort = sort_of_value(examples[0][0])
    output_sort = sort_of_value(examples[0][1])
    if probes is None:
        probes = default_probes(input_sort)
    probe_list = list(probes)
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


@dataclass(frozen=True)
class Candidate:
    term: Term
    cost: int
    fingerprint: tuple
    # The compiled term, kept for pool members so schemas and verification
    # run them without recompiling; None where nothing will run it again.
    code: Code | None = field(default=None, compare=False, repr=False)


class Pool(list):
    """Candidates in canonical order, and the first ResourceExhaustedError
    of a dropped candidate (None when none was dropped)."""

    dropped: ResourceExhaustedError | None = None


def bottom_up_pool(
    ops: frozenset[str],
    free_vars: tuple[str, ...],
    target_sort: Sort,
    probes: Sequence,
    max_size: int,
    budget: EvalBudget | None = None,
) -> Pool:
    """One minimal representative per behavior among terms of size <= max_size.

    Candidates come out in canonical enumeration order (size ascending, then
    rank-lexicographic), so the first member of each behavior class is the
    minimum under (cost, canonical order); later equals are destroyed as
    uneconomical variants.

    A term is skipped unrun when an argument at a binder-free position of
    sort `target_sort` is not a representative. Such an argument is always
    evaluated, in the term's own environment (the lazy `if` branches have
    no fixed sort), so its representative in its place keeps every probe
    output; and as pre-order rank sequences are prefix-free, that term
    comes earlier in canonical order, so its fingerprint is already seen.

    A candidate that exhausts the budget on a probe is dropped; the first
    such error is kept as `dropped`. Under the value-bits cap skipping
    stays exact, as a representative runs in the term as on its own and a
    dropped argument exhausts in the term too. Under the steps cap it need
    not be: a representative can take more steps than the argument it
    replaces.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    if not probes:
        raise ValueError("pool needs at least one probe")
    if not ops <= OPS.keys():
        raise ValueError(f"not kernel operators: {sorted(ops - OPS.keys())}")
    vectors = probe_vectors(free_vars, probes)
    scope = frozenset(free_vars)
    pooled = {
        name: tuple(i for i, p in enumerate(spec.params) if not p.binders and p.sort is target_sort)
        for name, spec in OPS.items()
    }
    seen: set[tuple] = set()
    reps: set[Term] = set()
    pool = Pool()
    for size_ in range(1, max_size + 1):
        for term in walk_layer(ops, scope, target_sort, size_):
            if any(term.args[i] not in reps for i in pooled[term.head]):
                continue
            code = compile_term(term)
            try:
                fingerprint = tuple(run_probes(code, vectors, budget))
            except ResourceExhaustedError as exc:
                pool.dropped = pool.dropped or exc
                continue
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            reps.add(term)
            pool.append(Candidate(term, size_, fingerprint, code))
    return pool


# ---------------------------------------------------------------------------
# Schemas


SCHEMA_BOTTOM_UP = "bottomup"
SCHEMA_PIVOT_DC = "pivotdc"


# Hole fingerprints use small fixed domains per bound variable; rich enough
# to separate the elementary list components at desk-scale budgets.
_HOLE_NATS = (0, 1, 2, 3)
_HOLE_LISTS = _lists_over(alphabet=(0, 1), max_len=2)

PIVOT_PRED_PROBES: tuple[tuple[int, int], ...] = tuple(product(_HOLE_NATS, _HOLE_NATS))
PIVOT_COMBINE_PROBES: tuple[tuple, ...] = tuple(product(_HOLE_LISTS, _HOLE_NATS, _HOLE_LISTS))


def fill_schema_holes(pools: Sequence[list[Candidate]]) -> Iterator[tuple[Candidate, ...]]:
    """All hole fillings, non-decreasing total cost, deterministic order.

    Within one total cost, fillings come out lexicographically by their
    per-hole pool positions; pools are expected in canonical order, so the
    first filling is the minimal one.
    """
    if any(not pool for pool in pools):
        return
    costs = [[c.cost for c in pool] for pool in pools]
    min_costs = [c[0] for c in costs]
    max_costs = [c[-1] for c in costs]

    def fill(hole: int, remaining: int) -> Iterator[tuple[Candidate, ...]]:
        pool = pools[hole]
        if hole == len(pools) - 1:
            lo = bisect_left(costs[hole], remaining)
            hi = bisect_right(costs[hole], remaining)
            for i in range(lo, hi):
                yield (pool[i],)
            return
        rest_min = sum(min_costs[hole + 1 :])
        rest_max = sum(max_costs[hole + 1 :])
        hi = bisect_right(costs[hole], remaining - rest_min)
        for i in range(hi):
            candidate = pool[i]
            if candidate.cost + rest_min > remaining or candidate.cost + rest_max < remaining:
                continue
            for rest in fill(hole + 1, remaining - candidate.cost):
                yield (candidate,) + rest

    for total in range(sum(min_costs), sum(max_costs) + 1):
        yield from fill(0, total)


def _assemble_pivot(filling: tuple[Candidate, ...]) -> Term:
    pred_left, pred_right, combine = filling
    return Term("pivotrec", (Term("l"), pred_left.term, pred_right.term, combine.term))


def synthesize(
    ops: frozenset[str],
    goal: GoalSpec,
    schema: str,
    budget: int,
    eval_budget: EvalBudget | None = None,
) -> TypedProgram | None:
    """Search for a program over `ops` matching every goal example; None
    when absent.

    `budget` is the per-hole (pivotdc) or whole-term (bottomup) size bound.
    A candidate or filling that exhausts `eval_budget` is dropped; when
    nothing is found after a drop, the first ResourceExhaustedError of the
    pools, or else of the fillings, is raised instead of returning None.
    """
    outputs = [out for _, out in goal.examples]
    if schema == SCHEMA_BOTTOM_UP:
        var = INPUT_VARS[goal.input_sort]
        pool = bottom_up_pool(ops, (var,), goal.output_sort, goal.probes, budget, eval_budget)
        at = [goal.probes.index(inp) for inp, _ in goal.examples]
        for candidate in pool:
            if [candidate.fingerprint[i] for i in at] == outputs:
                return check_well_formed(candidate.term, goal.output_sort, {var})
        dropped = pool.dropped
    elif schema == SCHEMA_PIVOT_DC:
        if goal.input_sort is not Sort.LIST_NAT or goal.output_sort is not Sort.LIST_NAT:
            raise ValueError("the divide-and-conquer schema sorts lists into lists")
        pred_pool = bottom_up_pool(ops, ("x", "pivot"), Sort.BOOL, PIVOT_PRED_PROBES, budget, eval_budget)
        combine_pool = bottom_up_pool(
            ops, ("l", "pivot", "r"), Sort.LIST_NAT, PIVOT_COMBINE_PROBES, budget, eval_budget
        )
        dropped = pred_pool.dropped or combine_pool.dropped
        inputs = probe_vectors(("l",), [inp for inp, _ in goal.examples])
        input_code = compile_node("l")
        for filling in fill_schema_holes((pred_pool, pred_pool, combine_pool)):
            code = compile_node("pivotrec", [input_code] + [c.code for c in filling])
            try:
                # Stops at the first mismatch; later examples are not run.
                if all(got == out for got, out in zip(run_probes(code, inputs, eval_budget), outputs)):
                    return check_well_formed(_assemble_pivot(filling), Sort.LIST_NAT, {"l"})
            except ResourceExhaustedError as exc:
                dropped = dropped or exc
    else:
        raise ValueError(f"unknown schema: {schema!r}")
    if dropped:
        raise dropped
    return None
