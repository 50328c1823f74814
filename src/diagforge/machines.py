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

A tier or subsequence machine keeps each diagonal value f_n(n) in one
memo of plain ints, which witness rows and the diagonal read, so a row
builds no function object. `function_at` builds one OracleFn per index
when asked, holding the program and budget, not the machine; its cache
starts from the memo, so each f_n(n) is evaluated once per machine. A tier
machine keeps the programs it reads from the tier's stream while indices
are asked for in order, as rows ask, and unranks only an index past them.
"""

from __future__ import annotations

import _thread
from collections.abc import Callable, Iterator

from .errors import ResourceExhaustedError
from .enumeration import Tier, compiled_stream, program_at
from .interp import EvalBudget, evaluate
from .kernel import Record, TypedProgram, pretty


class OracleFn:
    """A total Nat -> Nat function, memoized by argument.

    Not necessarily expressible in the enumerated tier (the diagonal never
    is). A stream element of a Base or a Subsequence holds its program and
    budget, never the machine, so a machine is no reference cycle. Values
    are deterministic, so concurrent queries may race on the cache.
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


class _ProgramFn(OracleFn):
    """f_i of a Base or a Subsequence, kept as its program and the machine's budget."""

    __slots__ = ("program", "budget")

    def __init__(self, program: TypedProgram, budget: EvalBudget | None, cache: dict[int, int]):
        self.program, self.budget, self._cache = program, budget, cache

    @property
    def name(self) -> str:
        return pretty(self.program.term)

    def __call__(self, n: int) -> int:
        value = self._cache.get(n)
        if value is None:
            value = self._cache[n] = evaluate(self.program, n, self.budget)
        return value


class Base(Record):
    """The tier's whole enumeration, evaluated under `budget`."""

    _fields = ("tier", "budget")
    __slots__ = _fields + ("_fns", "_memo", "_programs", "_stream", "_lock")

    def __init__(self, tier: Tier, budget: EvalBudget | None = None):
        self.tier = tier
        self.budget = budget
        self._fns: dict[int, OracleFn] = {}
        self._memo: dict[int, int] = {}  # f_i(i) by index i
        self._programs: list[TypedProgram] = []  # read from the stream so far
        self._stream: Iterator[TypedProgram] | None = None
        # One generator cannot be advanced by two threads at once.
        self._lock = _thread.allocate_lock()

    def _program(self, i: int) -> TypedProgram:
        """The i-th program: read from the stream when i is at most one past
        the programs read so far, else unranked."""
        programs = self._programs
        with self._lock:
            if i == len(programs) + 1:
                if self._stream is None:
                    self._stream = compiled_stream(self.tier)
                programs.append(next(self._stream))
        return programs[i - 1] if i <= len(programs) else program_at(self.tier, i)


class Subsequence(Record):
    """A finite machine: `programs` are (tier index, program) pairs in
    stream order, evaluated under `budget`."""

    _fields = ("programs", "label", "budget")
    __slots__ = _fields + ("_fns", "_memo")

    def __init__(self, programs: tuple[tuple[int, TypedProgram], ...], label: str, budget: EvalBudget | None = None):
        self.programs = programs
        self.label = label
        self.budget = budget
        self._fns: dict[int, OracleFn] = {}
        self._memo: dict[int, int] = {}

    def _program(self, i: int) -> TypedProgram:
        if i > len(self.programs):
            raise ValueError(f"stream index {i} is past the end of {self.label}")
        return self.programs[i - 1][1]


class Extend(Record):
    __slots__ = _fields = ("inner", "prepended")

    def __init__(self, inner: Machine, prepended: tuple[OracleFn, ...]):
        self.inner = inner
        self.prepended = prepended


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
    while isinstance(m, Extend):
        if i <= len(m.prepended):
            return m.prepended[i - 1]
        i -= len(m.prepended)
        m = m.inner
    fn = m._fns.get(i)
    if fn is None:
        value = m._memo.get(i)
        # setdefault keeps one function per index when threads race here.
        fn = m._fns.setdefault(i, _ProgramFn(m._program(i), m.budget, {} if value is None else {i: value}))
    return fn


def _diagonal_value(m: Machine, n: int) -> int:
    """f_n(n), from m's memo unless m is an Extend, evaluated by whichever of
    the rows and function_at(m, n) asks first; running out names index n."""
    try:
        if isinstance(m, Extend):
            return function_at(m, n)(n)
        value = m._memo.get(n)
        if value is None:
            fn = m._fns.get(n)
            value = m._memo[n] = fn(n) if fn is not None else evaluate(m._program(n), n, m.budget)
        return value
    except ResourceExhaustedError as exc:
        raise ResourceExhaustedError(exc.steps_used, exc.reason, at=f"index {n}") from exc


def diagonal(m: Machine) -> OracleFn:
    """g with g(n) = f_n(n) + 1 against m's stream; g(0) = g(1)."""

    def fn(n: int) -> int:
        return _diagonal_value(m, n if n >= 1 else 1) + 1

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


def witness_rows(m: Machine, count: int) -> Iterator[Witness]:
    """The rows certifying that diagonal(m) escapes m's first `count` functions,
    yielded one by one as each is proved. Each f_n(n) is evaluated once: g
    reads it back."""
    if count < 1:
        raise ValueError(f"witness count must be >= 1, got {count}")
    g = diagonal(m)
    for n in range(1, count + 1):
        yield Witness(n, _diagonal_value(m, n), g(n))


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
