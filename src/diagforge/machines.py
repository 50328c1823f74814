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

A tier or subsequence machine owns its functions: it hands out one
OracleFn per index, built on first use and evaluated under the budget the
machine was built with, so each f_n(n) is evaluated once per machine. A
tier machine reads its programs from the tier's stream while indices are
asked for in order, as witness rows ask for them, and unranks only an
index that skips ahead of the stream.
"""

from __future__ import annotations

import _thread
from collections.abc import Callable, Iterator
from functools import cached_property

from .errors import ResourceExhaustedError
from .enumeration import Tier, enumerate_stream, program_at
from .interp import EvalBudget, evaluate
from .kernel import Record, TypedProgram, pretty


class OracleFn:
    """A total Nat -> Nat function, memoized by argument.

    Not necessarily expressible in the enumerated tier (the diagonal never
    is). Memoization is idempotent: values are deterministic, so concurrent
    queries may race on the cache without changing any result.
    """

    def __init__(self, fn: Callable[[int], int], name: str | Callable[[], str]):
        self._fn = fn
        self._name = name
        self._cache: dict[int, int] = {}

    @cached_property
    def name(self) -> str:
        """The display name; a callable given for it is called on first read."""
        return self._name if isinstance(self._name, str) else self._name()

    def __call__(self, n: int) -> int:
        cached = self._cache.get(n)
        if cached is not None:
            return cached
        value = self._fn(n)
        self._cache[n] = value
        return value

    def __repr__(self) -> str:
        return f"OracleFn<{self.name}>"


class Base(Record):
    """The tier's whole enumeration, evaluated under `budget`."""

    _fields = ("tier", "budget")
    __slots__ = _fields + ("_fns", "_stream", "_streamed", "_lock")

    def __init__(self, tier: Tier, budget: EvalBudget | None = None):
        self.tier = tier
        self.budget = budget
        self._fns: dict[int, OracleFn] = {}
        self._stream: Iterator[TypedProgram] | None = None
        self._streamed = 0  # programs read from the stream so far
        # One generator cannot be advanced by two threads at once.
        self._lock = _thread.allocate_lock()

    def _program(self, i: int) -> TypedProgram:
        """The i-th program: the stream's next one when i follows the last
        index read from it, else unranked."""
        with self._lock:
            if i == self._streamed + 1:
                if self._stream is None:
                    self._stream = enumerate_stream(self.tier)
                self._streamed = i
                return next(self._stream)
        return program_at(self.tier, i)


class Subsequence(Record):
    """A finite machine: `programs` are (tier index, program) pairs in
    stream order, evaluated under `budget`."""

    _fields = ("programs", "label", "budget")
    __slots__ = _fields + ("_fns",)

    def __init__(self, programs: tuple[tuple[int, TypedProgram], ...], label: str, budget: EvalBudget | None = None):
        self.programs = programs
        self.label = label
        self.budget = budget
        self._fns: dict[int, OracleFn] = {}


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
        if isinstance(m, Subsequence):
            if i > len(m.programs):
                raise ValueError(f"stream index {i} is past the end of {m.label}")
            program = m.programs[i - 1][1]
        else:
            program = m._program(i)
        # setdefault keeps one function per index when threads race here.
        fn = m._fns.setdefault(i, OracleFn(lambda n: evaluate(program, n, m.budget), name=lambda: pretty(program.term)))
    return fn


def _apply_indexed(f: OracleFn, index: int) -> int:
    try:
        return f(index)
    except ResourceExhaustedError as exc:
        raise ResourceExhaustedError(exc.steps_used, exc.reason, index=index) from exc


def diagonal(m: Machine) -> OracleFn:
    """g with g(n) = f_n(n) + 1 against m's stream; g(0) = g(1)."""

    def fn(n: int) -> int:
        k = n if n >= 1 else 1
        return _apply_indexed(function_at(m, k), k) + 1

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
    reads it back from f_n's memo."""
    if count < 1:
        raise ValueError(f"witness count must be >= 1, got {count}")
    g = diagonal(m)
    for n in range(1, count + 1):
        fn_value = _apply_indexed(function_at(m, n), n)
        yield Witness(n, fn_value, g(n))


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
