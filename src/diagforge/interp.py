"""Compiled big-step evaluator for the kernel language.

Every well-formed program terminates on every input: precnat iterates a
precomputed count, pivotrec recurses only on filtered sublists of the tail
(strictly shorter), and everything else is structural. The budget therefore
bounds wall clock, not semantics.

A term is compiled once into a tree of closures, one per node, with the
evaluation rule picked at compile time; the compiler walks the term with
an explicit stack, so compiling costs no Python recursion. A term keeps
its code, as it keeps its hash, so a Term object is compiled once; and a
Base machine's stream builds each program's code with the term, node by
node (enumeration.compiled_stream). A compiled
term is run on a slot vector, a list holding the variables n, x, acc,
idx, pivot, l and r at fixed positions. Binders (precnat, filter,
pivotrec) set their slots and restore them when they finish, so no
environment is ever copied, and one slot vector and one fuel object serve
every probe of a fingerprint (run_probes).

Accounting is exact and the same for every caller. Two caps are enforced:

- max_steps: one step per node evaluated and one per pivotrec partition
  call, each spent on entry, before any argument is evaluated;
- max_value_bits: naturals may not outgrow this bit length. Step counting
  alone cannot bound wall clock (iterated squaring builds astronomically
  large ints in a handful of steps), so succ, add and mul check operand
  sizes and raise ResourceExhaustedError before computing an oversized
  result, with the steps used so far.

A precnat whose step is one leaf, or one succ, add or mul node over
leaves, runs in closed form with the loop's accounting; the form is
chosen from the step's term when the precnat is compiled. Such a step
spends the same steps in every iteration (1 for a leaf, 1 + arity for a
node), so the fuel reaches iteration jump = min(count, left // cost) - 1
in full, where left is the fuel as the loop starts. Acc entering it
comes from a formula of jump picked at compile time (acc itself for a
step that does not read acc, acc + jump(jump - 1)/2 for (add acc idx),
acc * c^jump for (mul acc c), ...), used only where it stays within the
cap, and the loop runs from there: only the last iteration when the fuel
covers the loop, else the last full iteration and the one that runs out
of steps. The step's operands never shrink from one iteration to the
next (a mul by zero or idx drops acc to 0 once, which the formula's
bound covers), so its value-bits check passes throughout if it passes at
iteration jump, and a steps error from there is the loop's own. A
formula in doubt or a value-bits error runs the loop from the start, so
value, reason and steps used are always the loop's.

A term with no binder can also be run over whole probe columns at once
(probe_outputs): each node's rule is applied to its arguments' columns,
and subterms shared between terms are computed once. It gives what
run_probes gives, and runs probe by probe wherever the two could differ:
at a binder, a term of more nodes than max_steps, or a value-bits check
that fails on some probe.

Totality defaults: first of an empty list is 0, rest of an empty list is
the empty list.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import ResourceExhaustedError
from .kernel import Record, Sort, Term, TypedProgram, VAR_SORTS, Value, is_nat, size

DEFAULT_MAX_STEPS = 1_000_000
DEFAULT_MAX_VALUE_BITS = 1 << 16


class EvalBudget(Record):
    __slots__ = _fields = ("max_steps", "max_value_bits")

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS, max_value_bits: int = DEFAULT_MAX_VALUE_BITS):
        self.max_steps = max_steps
        self.max_value_bits = max_value_bits
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.max_value_bits < 1:
            raise ValueError("max_value_bits must be >= 1")


DEFAULT_BUDGET = EvalBudget()

# Positions of the variables in a slot vector.
_SLOTS = ("n", "x", "acc", "idx", "pivot", "l", "r")
_X, _ACC, _IDX, _PIVOT, _L, _R = range(1, 7)
_NAT, _LIST_NAT = Sort.NAT, Sort.LIST_NAT  # read once: an enum member is slow to look up


class _Fuel:
    __slots__ = ("left", "max_steps", "max_bits")

    def __init__(self, budget: EvalBudget):
        self.left = budget.max_steps
        self.max_steps = budget.max_steps
        self.max_bits = budget.max_value_bits


def _out_of_steps(f: _Fuel) -> ResourceExhaustedError:
    return ResourceExhaustedError(f.max_steps, reason="steps")


def _out_of_bits(f: _Fuel) -> ResourceExhaustedError:
    return ResourceExhaustedError(f.max_steps - f.left, reason="value-bits")


# A compiled term: called with a slot vector and the fuel, returns the value.
Code = Callable[[list, _Fuel], Value]


# ---------------------------------------------------------------------------
# Rules: one closure factory per constructor. Each closure spends its own
# step before evaluating its arguments, in argument order. It holds its
# arguments' code as default arguments, not in closure cells: code kept on
# a Term lives as long as the term (a Base machine keeps every program it
# reads), and a cell per argument would more than double the objects the
# cyclic collector rescans in each full collection.


def _const(value: Value) -> Code:
    def run(s, f, value=value):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        return value

    return run


def _var(slot: int) -> Code:
    def run(s, f, slot=slot):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        return s[slot]

    return run


def _succ(a: Code) -> Code:
    def run(s, f, a=a):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        v = a(s, f)
        if v.bit_length() + 1 > f.max_bits:
            raise _out_of_bits(f)
        return v + 1

    return run


def _add(a: Code, b: Code) -> Code:
    def run(s, f, a=a, b=b):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        u = a(s, f)
        v = b(s, f)
        if max(u.bit_length(), v.bit_length()) + 1 > f.max_bits:
            raise _out_of_bits(f)
        return u + v

    return run


def _mul(a: Code, b: Code) -> Code:
    def run(s, f, a=a, b=b):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        u = a(s, f)
        v = b(s, f)
        if u.bit_length() + v.bit_length() > f.max_bits:
            raise _out_of_bits(f)
        return u * v

    return run


def _precnat(base: Code, step: Code, target: Code, form: tuple | None) -> Code:
    # With a closed form (_closed_form, read from the step's term), the loop
    # runs from the last iteration the fuel reaches (see the module
    # docstring); without one, or with its formula in doubt, from the start.
    cost, after, other = form or (1, None, None)

    def run(s, f, target=target, base=base, step=step, cost=cost, after=after, other=other):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        count = target(s, f)
        acc = base(s, f)
        left = f.left
        jump = min(count, left // cost) - 1 if after else 0
        if jump > 0:
            before = after(acc, jump, other(s), f.max_bits)
            if before is not None:
                f.left = left - jump * cost
                try:
                    return _loop(step, s, f, before, jump, count)
                except ResourceExhaustedError as exc:
                    if exc.reason == "steps":
                        raise
                f.left = left
        return _loop(step, s, f, acc, 0, count)

    return run


def _loop(step: Code, s: list, f: _Fuel, acc: Value, start: int, stop: int) -> Value:
    saved_acc, saved_idx = s[_ACC], s[_IDX]
    for i in range(start, stop):
        s[_ACC] = acc
        s[_IDX] = i
        acc = step(s, f)
    s[_ACC], s[_IDX] = saved_acc, saved_idx
    return acc


def _cons(a: Code, b: Code) -> Code:
    def run(s, f, a=a, b=b):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        h = a(s, f)
        return (h,) + b(s, f)

    return run


def _first(a: Code) -> Code:
    def run(s, f, a=a):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        xs = a(s, f)
        return xs[0] if xs else 0

    return run


def _rest(a: Code) -> Code:
    def run(s, f, a=a):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        return a(s, f)[1:]

    return run


def _append(a: Code, b: Code) -> Code:
    def run(s, f, a=a, b=b):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        xs = a(s, f)
        return xs + b(s, f)

    return run


def _len(a: Code) -> Code:
    def run(s, f, a=a):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        return len(a(s, f))

    return run


def _lt(a: Code, b: Code) -> Code:
    def run(s, f, a=a, b=b):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        u = a(s, f)
        return u < b(s, f)

    return run


def _if(cond: Code, then: Code, other: Code) -> Code:
    def run(s, f, cond=cond, then=then, other=other):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        return (then if cond(s, f) else other)(s, f)

    return run


def _filter(items: Code, pred: Code) -> Code:
    def run(s, f, items=items, pred=pred):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        xs = items(s, f)
        saved_x = s[_X]
        kept = []
        for v in xs:
            s[_X] = v
            if pred(s, f):
                kept.append(v)
        s[_X] = saved_x
        return tuple(kept)

    return run


def _pivotrec(items: Code, pred_left: Code, pred_right: Code, combine: Code) -> Code:
    def partition(xs, s, f):
        # One step per partition call, as for a node.
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        if not xs:
            return ()
        pivot, tail = xs[0], xs[1:]
        left = []
        right = []
        saved_x, saved_pivot = s[_X], s[_PIVOT]
        s[_PIVOT] = pivot
        for v in tail:
            s[_X] = v
            if pred_left(s, f):
                left.append(v)
            if pred_right(s, f):
                right.append(v)
        s[_X], s[_PIVOT] = saved_x, saved_pivot
        sorted_left = partition(tuple(left), s, f)
        sorted_right = partition(tuple(right), s, f)
        saved_l, saved_r = s[_L], s[_R]
        s[_L], s[_PIVOT], s[_R] = sorted_left, pivot, sorted_right
        out = combine(s, f)
        s[_L], s[_PIVOT], s[_R] = saved_l, saved_pivot, saved_r
        return out

    def run(s, f, items=items):
        f.left -= 1
        if f.left < 0:
            raise _out_of_steps(f)
        return partition(items(s, f), s, f)

    return run


# Each leaf's code, and its reader: the leaf's value in a slot vector, read
# without spending a step, for probe columns and a closed form's operand.
_LEAVES: dict[str, tuple[Code, Callable[[list], Value]]] = {
    "zero": (_const(0), lambda s: 0),
    "nil": (_const(()), lambda s: ()),
}
_LEAVES.update((name, (_var(slot), operator.itemgetter(slot))) for slot, name in enumerate(_SLOTS))


def _acc_unread(a, k, c, bits):
    return a  # a leaf, or a step that does not read acc, leaves acc as it entered


# For a one-node step that reads acc, keyed by its operator and its
# operands' kinds, acc first (succ's operand twice): acc after k iterations
# from a, given the constant operand's value c, or None where that value
# could pass the value-bits cap (the loop then runs, and fails where it
# must). Every intermediate value stays within the cap too.
_ACC_AFTER: dict[tuple[str, str, str], Callable[[int, int, int, int], int | None]] = {
    ("succ", "acc", "acc"): lambda a, k, c, bits: a + k if max(a.bit_length(), k.bit_length()) < bits else None,
    ("add", "acc", "acc"): lambda a, k, c, bits: a << k if not a or a.bit_length() + k <= bits else None,
    ("add", "acc", "c"): lambda a, k, c, bits: (
        a + k * c if max(a.bit_length(), k.bit_length() + c.bit_length()) < bits else None
    ),
    ("add", "acc", "idx"): lambda a, k, c, bits: (
        a + k * (k - 1) // 2 if max(a.bit_length(), 2 * k.bit_length()) < bits else None
    ),
    ("mul", "acc", "acc"): lambda a, k, c, bits: a if a < 2 else None,
    # Acc 0 stays 0, and c = 0 or 1 drops acc to 0 once or keeps it: the
    # first iteration's bound is every one's.
    ("mul", "acc", "c"): lambda a, k, c, bits: (
        a and a * c**k if a.bit_length() + (k if a and c > 1 else 1) * c.bit_length() <= bits else None
    ),
    # idx is 0 at the first iteration, which checks acc alone and drops it to 0.
    ("mul", "acc", "idx"): lambda a, k, c, bits: 0 if a.bit_length() <= bits else None,
}

_KINDS = {"acc": "acc", "idx": "idx"}  # any other leaf is a constant operand, "c"


def _closed_form(step: Term) -> tuple[int, Callable, Callable[[list], Value]] | None:
    """For a precnat step that is one leaf, or one succ, add or mul node
    over leaves: the steps one iteration spends, acc's formula with acc as
    the first operand, and the reader of the other. None for any other."""
    a = b = step
    if step.head in ("succ", "add", "mul"):
        a, b = step.args[0], step.args[-1]
    if a.args or b.args:
        return None
    if b.head == "acc":
        a, b = b, a
    shape = (step.head, _KINDS.get(a.head, "c"), _KINDS.get(b.head, "c"))
    return 1 + len(step.args), _ACC_AFTER.get(shape, _acc_unread), _LEAVES[b.head][1]


_RULES: dict[str, Callable[..., Code]] = {
    "succ": _succ,
    "add": _add,
    "mul": _mul,
    "cons": _cons,
    "first": _first,
    "rest": _rest,
    "append": _append,
    "len": _len,
    "lt": _lt,
    "if": _if,
    "filter": _filter,
    "pivotrec": _pivotrec,
}


# ---------------------------------------------------------------------------
# Compiling and running


def compile_node(head: str, args: Sequence[Code] = ()) -> Code:
    """The code of one node whose arguments are already compiled. A precnat
    takes its closed form from its step's term, so only compile_term
    compiles one."""
    if head == "precnat":
        raise ValueError("a precnat is compiled from its term, by compile_term")
    return _RULES[head](*args) if args else _LEAVES[head][0]


def keep_code(t: Term) -> Term:
    """t, with its code kept on it, built from its arguments' kept code."""
    args = [a._code for a in t.args]
    if not args:
        t._code = _LEAVES[t.head][0]
    elif t.head == "precnat":
        t._code = _precnat(*args, _closed_form(t.args[1]))
    else:
        t._code = _RULES[t.head](*args)
    return t


def compile_term(t: Term) -> Code:
    """The term's kept code, or else each node's built and kept, children
    first, on an explicit stack (no recursion), as Term.__hash__ does."""
    if t._code is None:
        stack = [t]
        while stack:
            node = stack[-1]
            for a in node.args:
                if a._code is None:
                    stack.append(a)
            if stack[-1] is node:
                stack.pop()
                keep_code(node)
    return t._code


def slot_vector(env: dict[str, Value]) -> list:
    """A slot vector binding env's variables (other slots hold None)."""
    return [env.get(name) for name in _SLOTS]


def probe_vectors(free_vars: tuple[str, ...], probes: Sequence) -> list[list]:
    """One slot vector per probe. A single variable takes bare values;
    several take one assignment tuple per probe, aligned with free_vars."""
    if len(free_vars) == 1:
        var = free_vars[0]
        return [slot_vector({var: probe}) for probe in probes]
    vectors = []
    for probe in probes:
        if not isinstance(probe, tuple) or len(probe) != len(free_vars):
            raise ValueError(f"probe {probe!r} does not match signature {free_vars}")
        vectors.append(slot_vector(dict(zip(free_vars, probe))))
    return vectors


def run_probes(code: Code, vectors: Iterable[list], budget: EvalBudget | None = None) -> Iterator[Value]:
    """Run compiled code on each slot vector in turn, lazily.

    One slot vector and one fuel object serve every probe; the fuel is
    reset to the full budget before each, so every probe is accounted as
    a separate evaluate call would be, and the first failing probe raises
    what that call would raise, with its position in `probe_index`.
    """
    fuel = _Fuel(budget or DEFAULT_BUDGET)
    full = fuel.max_steps
    slots: list = []
    for index, vector in enumerate(vectors):
        slots[:] = vector
        fuel.left = full
        try:
            value = code(slots, fuel)
        except ResourceExhaustedError as exc:
            exc.probe_index = index
            raise
        yield value


# ---------------------------------------------------------------------------
# Whole probe columns
#
# A term with no binder spends one step per node it evaluates and evaluates
# each node at most once, so with at most max_steps nodes it cannot run out
# of steps on any probe; it can only fail a value-bits check of succ, add or
# mul. Its values on every probe are then computed a node at a time, each
# rule applied to its arguments' whole columns. A column rule returns None
# where the node's closure would raise on some probe (for `if`, possibly
# only in the branch not taken); the term is then run probe by probe.


def _succ_column(bits: int, u: tuple) -> tuple | None:
    if any(a.bit_length() + 1 > bits for a in u):
        return None
    return tuple([a + 1 for a in u])


def _add_column(bits: int, u: tuple, v: tuple) -> tuple | None:
    if any(max(a.bit_length(), b.bit_length()) + 1 > bits for a, b in zip(u, v)):
        return None
    return tuple(map(operator.add, u, v))


def _mul_column(bits: int, u: tuple, v: tuple) -> tuple | None:
    if any(a.bit_length() + b.bit_length() > bits for a, b in zip(u, v)):
        return None
    return tuple(map(operator.mul, u, v))


# The operators whose rules check value bits.
BITS_CHECKED = frozenset({"succ", "add", "mul"})

_COLUMN_RULES: dict[str, Callable[..., tuple | None]] = {
    "succ": _succ_column,
    "add": _add_column,
    "mul": _mul_column,
    "cons": lambda bits, u, v: tuple([(a,) + b for a, b in zip(u, v)]),
    "first": lambda bits, u: tuple([a[0] if a else 0 for a in u]),
    "rest": lambda bits, u: tuple(map(operator.itemgetter(slice(1, None)), u)),
    "append": lambda bits, u, v: tuple(map(operator.add, u, v)),
    "len": lambda bits, u: tuple(map(len, u)),
    "lt": lambda bits, u, v: tuple(map(operator.lt, u, v)),
    "if": lambda bits, c, u, v: tuple([a if k else b for k, a, b in zip(c, u, v)]),
}


def _columns(t: Term, vectors: Sequence[list], max_bits: int, memo: dict[Term, tuple]) -> tuple | None:
    """t's column, or None at a binder or a failing column rule."""
    done: list[tuple] = []
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            k = len(node.args)
            column = _COLUMN_RULES[node.head](max_bits, *done[-k:])
            if column is None:
                return None
            done[-k:] = [memo.setdefault(node, column)]
            continue
        column = memo.get(node)
        if column is None and not node.args:
            column = memo[node] = tuple(map(_LEAVES[node.head][1], vectors))
        if column is not None:
            done.append(column)
        elif node.head not in _COLUMN_RULES:
            return None
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(node.args))
    return done[0]


def probe_outputs(t: Term, vectors: Sequence[list], budget: EvalBudget | None, memo: dict[Term, tuple]) -> tuple:
    """t's values on every slot vector: what tuple(run_probes(compile_term(t),
    vectors, budget)) returns or raises.

    A binder-free term of at most max_steps nodes is computed over whole
    columns (see above), faster than probe by probe; any other term is
    compiled and run on each probe. `memo` maps terms to their columns for
    these vectors and this budget, and keeps the columns computed here, so
    subterms shared between calls are computed once.
    """
    budget = budget or DEFAULT_BUDGET
    if size(t) <= budget.max_steps:
        column = _columns(t, vectors, budget.max_value_bits, memo)
        if column is not None:
            return column
    return tuple(run_probes(compile_term(t), vectors, budget))


def evaluate(program: TypedProgram, value: Value, budget: EvalBudget | None = None) -> Value:
    """Evaluate a single-input program on one input value.

    The program's free variables must all be the same input variable
    (n for naturals, l for lists); the input is bound to it, and must be a
    kernel value of that variable's sort (ValueError otherwise). Evaluation
    is pure and deterministic: identical inputs yield identical outputs.
    """
    if len(program.free_vars) > 1:
        raise ValueError(f"program is not single-input: free variables {sorted(program.free_vars)}")
    slots = [None] * len(_SLOTS)
    for var in program.free_vars:
        sort = VAR_SORTS.get(var)
        if sort is _NAT and not is_nat(value):
            raise ValueError(f"input for {var!r} must be a non-negative int, got {value!r}")
        if sort is _LIST_NAT and not (isinstance(value, tuple) and all(is_nat(v) for v in value)):
            raise ValueError(f"input for {var!r} must be a tuple of non-negative ints, got {value!r}")
        if sort:
            slots[_SLOTS.index(var)] = value
    return compile_term(program.term)(slots, _Fuel(budget or DEFAULT_BUDGET))
