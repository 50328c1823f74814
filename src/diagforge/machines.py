"""Machines producing function streams, and the diagonal escape against them.

A machine is a language tier (its stream is the enumeration, seen as
functions), a finite subsequence of a tier (given programs with their
tier indices, such as a classifier's accepted prefix), or an extension of
a machine by prepended functions. The diagonal of a machine m is
g(n) = f_n(n) + 1 where f_1, f_2, ... is m's stream; g differs from every
stream element, and extending m by g yields a machine whose own diagonal
differs from g again. Machine indices are 1-based to match the stream
f_1, f_2, ...; g(0) is defined as g(1) so oracle functions are total on all
naturals.

Every machine keeps each diagonal value f_n(n) in one memo of plain
ints. A witness table runs the kept code of its tier or subsequence
programs (an extension's past its prepended functions) through its own
interp.runner, and its rows are ints: g_at_n is f_n(n) + 1, the
diagonal's definition. `function_at` builds one OracleFn per program when
asked, over interp.evaluate, holding the program and budget, not the
machine; it and the memo read each other's f_n(n), so each f_n(n) is
evaluated once per machine. A tier machine keeps the terms it reads from
the tier's stream, which tables read ahead, and unranks only an index
past them.
"""

from __future__ import annotations

import _thread
from collections.abc import Callable, Iterator
from functools import partial
from itertools import islice, starmap

from .errors import ResourceExhaustedError
from .enumeration import ROOT_SCOPE, ROOT_SORT, Tier, compiled_terms, program_at
from .interp import EvalBudget, compile_term, evaluate, runner
from .kernel import Record, Term, TypedProgram, pretty


class OracleFn:
    """A total Nat -> Nat function, memoized by argument.

    Not necessarily expressible in the enumerated tier (the diagonal never
    is). A stream element of a Base or a Subsequence holds its program and
    budget in partials, never the machine, so a machine is no reference
    cycle. Values are deterministic, so concurrent queries may race on the
    cache.
    """

    __slots__ = ("_fn", "_name", "_cache")

    def __init__(self, fn: Callable[[int], int], name: str | Callable[[], str]):
        self._fn = fn
        self._name = name
        self._cache: dict[int, int] = {}

    @property
    def name(self) -> str:
        """The display name; a callable given for it is called on each read."""
        return self._name if isinstance(self._name, str) else self._name()

    def __call__(self, n: int) -> int:
        value = self._cache.get(n)
        if value is None:
            value = self._cache[n] = self._fn(n)
        return value

    def __repr__(self) -> str:
        return f"OracleFn<{self.name}>"


class Base(Record):
    """The tier's whole enumeration, evaluated under `budget`."""

    _fields = ("tier", "budget")
    __slots__ = _fields + ("_fns", "_memo", "_terms", "_stream", "_lock")

    def __init__(self, tier: Tier, budget: EvalBudget | None = None):
        self.tier = tier
        self.budget = budget
        self._fns: dict[int, OracleFn] = {}
        self._memo: dict[int, int] = {}  # f_i(i) by index i
        self._terms: list[Term] = []  # read from the stream so far, each with its code
        self._stream: Iterator[Term] | None = None
        # One generator cannot be advanced by two threads at once.
        self._lock = _thread.allocate_lock()

    def _program(self, i: int, ahead: int = 0) -> TypedProgram:
        """The i-th program: read from the stream, up to index `ahead` too,
        when i is at most one past the terms read or `ahead`, else unranked."""
        terms = self._terms
        if i == len(terms) + 1 or i <= ahead:
            with self._lock:
                if self._stream is None:
                    self._stream = compiled_terms(self.tier)
                terms.extend(islice(self._stream, max(0, max(i, ahead) - len(terms))))
        return TypedProgram(terms[i - 1], ROOT_SORT, ROOT_SCOPE) if i <= len(terms) else program_at(self.tier, i)


class Subsequence(Record):
    """A finite machine: `programs` are (tier index, program) pairs in
    stream order, evaluated under `budget`."""

    _fields = ("programs", "label", "budget")
    __slots__ = _fields + ("_fns", "_memo", "_terms")

    def __init__(self, programs: tuple[tuple[int, TypedProgram], ...], label: str, budget: EvalBudget | None = None):
        self.programs = programs
        self.label = label
        self.budget = budget
        self._fns: dict[int, OracleFn] = {}
        self._memo: dict[int, int] = {}
        self._terms = [program.term for _, program in programs]

    def _program(self, i: int, ahead: int = 0) -> TypedProgram:
        if i > len(self.programs):
            raise ValueError(f"stream index {i} is past the end of {self.label}")
        return self.programs[i - 1][1]


class Extend(Record):
    """inner's stream after the functions `prepended`. It keeps every
    level's prepended functions, outermost first, the innermost machine,
    whose terms it shares, and its own f_n(n) memo."""

    _fields = ("inner", "prepended")
    __slots__ = _fields + ("_head", "_base", "_memo", "_terms")

    def __init__(self, inner: Machine, prepended: tuple[OracleFn, ...]):
        self.inner = inner
        self.prepended = prepended
        nested = isinstance(inner, Extend)
        self._head, self._base = (prepended + inner._head, inner._base) if nested else (prepended, inner)
        self._memo: dict[int, int] = {}
        self._terms = self._base._terms


Machine = Base | Subsequence | Extend


def describe(m: Machine) -> str:
    if isinstance(m, Base):
        return f"base({m.tier.value})"
    if isinstance(m, Subsequence):
        return m.label
    return f"extend({describe(m.inner)}, +{len(m.prepended)})"


def function_at(m: Machine, i: int) -> OracleFn:
    """The i-th function (1-based) of the machine's stream."""
    if i < 1:
        raise ValueError(f"stream index must be >= 1, got {i}")
    n, memo = i, m._memo
    if isinstance(m, Extend):
        if i <= len(m._head):
            return m._head[i - 1]
        i, m = i - len(m._head), m._base
    fn = m._fns.get(i)
    if fn is None:
        program = m._program(i)
        # setdefault keeps one function per index when threads race here.
        fn = m._fns.setdefault(i, OracleFn(partial(evaluate, program, budget=m.budget), partial(pretty, program.term)))
    value = memo.get(n)  # a table computed f_n(n) first
    if value is not None:
        fn._cache[n] = value
    return fn


def diagonal(m: Machine) -> OracleFn:
    """g with g(n) = f_n(n) + 1 against m's stream; g(0) = g(1). Running
    out names index n."""

    def fn(n: int) -> int:
        n = max(n, 1)
        try:
            return function_at(m, n)(n) + 1
        except ResourceExhaustedError as exc:
            raise ResourceExhaustedError(exc.steps_used, exc.reason, at=f"index {n}") from exc

    return OracleFn(fn, name=lambda: f"diag({describe(m)})")


def extend(m: Machine, f: OracleFn) -> Machine:
    """Incorporate f into m: the new stream is f, then m's stream."""
    return Extend(inner=m, prepended=(f,))


class Witness(Record):
    """One row of pointwise escape: g differs from f_n at n by exactly +1."""

    __slots__ = _fields = ("index", "fn_at_n", "g_at_n")

    def __init__(self, index: int, fn_at_n: int, g_at_n: int):
        self.index = index
        self.fn_at_n = fn_at_n
        self.g_at_n = g_at_n
        if self.g_at_n != self.fn_at_n + 1:
            raise ValueError(f"witness row {self.index} violates g = f + 1")


def witness_values(m: Machine, count: int) -> Iterator[tuple[int, int, int]]:
    """The rows certifying that diagonal(m) escapes m's first `count`
    functions, as ints (n, f_n(n), f_n(n) + 1), each yielded as soon as it
    is proved; each f_n(n) is evaluated once per machine."""
    if count < 1:
        raise ValueError(f"witness count must be >= 1, got {count}")
    head, base = (m._head, m._base) if isinstance(m, Extend) else ((), m)
    run, memo, fns, terms, skip = runner(base.budget), m._memo, base._fns, m._terms, len(head)
    try:
        for n in range(1, count + 1):
            value = memo.get(n)
            if value is None:
                i = n - skip  # the row's index in base's stream
                fn = head[n - 1] if i < 1 else fns.get(i)  # function_at asked first, and evaluates
                if fn is None and i > len(terms):  # a Base reads ahead; past a Subsequence's end, this raises
                    base._program(i, min(count - skip, 2 * i))
                value = memo[n] = fn(n) if fn is not None else run(compile_term(terms[i - 1]), n)
            yield n, value, value + 1
    except ResourceExhaustedError as exc:
        raise ResourceExhaustedError(exc.steps_used, exc.reason, at=f"index {n}") from exc


def witness_rows(m: Machine, count: int) -> Iterator[Witness]:
    """witness_values(m, count) as Witness rows, yielded one by one."""
    return starmap(Witness, witness_values(m, count))


def iterate(m0: Machine, depth: int) -> Iterator[tuple[Machine, OracleFn]]:
    """Repeatedly extend a machine by its own diagonal: yields (m_0, g_1),
    (m_1, g_2), ..., (m_{depth-1}, g_depth), where g_k = diagonal(m_{k-1})
    and m_k = extend(m_{k-1}, g_k)."""
    if depth < 1:
        raise ValueError(f"iteration depth must be >= 1, got {depth}")
    machine = m0
    for _ in range(depth):
        g = diagonal(machine)
        yield machine, g
        machine = extend(machine, g)
