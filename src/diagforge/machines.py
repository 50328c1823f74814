"""Machines producing function streams, and the diagonal escape against them.

A machine is a language tier (its stream is the enumeration, seen as
functions), a finite subsequence of a tier (the programs at fixed indices,
such as a classifier's accepted prefix), or an extension of a machine by
prepended functions. The diagonal of a machine m is g(n) = f_n(n) + 1 where
f_1, f_2, ... is m's stream; g differs from every stream element, and
extending m by g yields a machine whose own diagonal differs from g again.
Machine indices are 1-based to match the stream f_1, f_2, ...; g(0) is
defined as g(1) so oracle functions are total on all naturals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Union

from .errors import ResourceExhaustedError
from .enumeration import Tier, program_at
from .interp import EvalBudget, evaluate
from .kernel import TypedProgram, pretty


@dataclass(frozen=True)
class ProgramBacked:
    """Provenance: the function evaluates an enumerated program."""

    program: TypedProgram
    tier: Tier


@dataclass(frozen=True)
class DiagonalOf:
    """Provenance: the function was constructed by diagonalizing a machine."""

    machine: str


class OracleFn:
    """A total Nat -> Nat function, memoized by argument.

    Not necessarily expressible in the enumerated tier (the diagonal never
    is). Memoization is idempotent: values are deterministic, so concurrent
    queries may race on the cache without changing any result.
    """

    def __init__(self, fn: Callable[[int], int], provenance, name: str | Callable[[], str]):
        self._fn = fn
        self.provenance = provenance
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


@dataclass(frozen=True)
class Base:
    tier: Tier


@dataclass(frozen=True)
class Subsequence:
    """A finite machine: the tier's programs at `indices`, in that order."""

    tier: Tier
    indices: tuple[int, ...]
    label: str


@dataclass(frozen=True)
class Extend:
    inner: "Machine"
    prepended: tuple[OracleFn, ...]


Machine = Union[Base, Subsequence, Extend]


def describe(m: Machine) -> str:
    if isinstance(m, Base):
        return f"base({m.tier.value})"
    if isinstance(m, Subsequence):
        return m.label
    return f"extend({describe(m.inner)}, +{len(m.prepended)})"


@lru_cache(maxsize=None)
def _program_fn(tier: Tier, i: int, budget: EvalBudget | None) -> OracleFn:
    program = program_at(tier, i)
    return OracleFn(
        lambda n: evaluate(program, n, budget),
        ProgramBacked(program, tier),
        name=lambda: f"{tier.value}[{i}]={pretty(program.term)}",
    )


def function_at(m: Machine, i: int, budget: EvalBudget | None = None) -> OracleFn:
    """The i-th function (1-based) of the machine's stream."""
    if i < 1:
        raise ValueError(f"stream index must be >= 1, got {i}")
    while isinstance(m, Extend):
        if i <= len(m.prepended):
            return m.prepended[i - 1]
        i -= len(m.prepended)
        m = m.inner
    if isinstance(m, Subsequence):
        if i > len(m.indices):
            raise ValueError(f"stream index {i} is past the end of {m.label}")
        i = m.indices[i - 1]
    return _program_fn(m.tier, i, budget)


def machine_stream(m: Machine, budget: EvalBudget | None = None):
    """Unbounded stream f_1, f_2, ... of the machine's functions."""
    i = 1
    while True:
        yield function_at(m, i, budget)
        i += 1


def _apply_indexed(f: OracleFn, index: int) -> int:
    try:
        return f(index)
    except ResourceExhaustedError as exc:
        raise ResourceExhaustedError(exc.steps_used, exc.reason, index=index) from exc


def diagonal(m: Machine, budget: EvalBudget | None = None) -> OracleFn:
    """g with g(n) = f_n(n) + 1 against m's stream; g(0) = g(1)."""

    def fn(n: int) -> int:
        k = n if n >= 1 else 1
        return _apply_indexed(function_at(m, k, budget), k) + 1

    return OracleFn(fn, DiagonalOf(describe(m)), name=f"diag({describe(m)})")


def extend(m: Machine, f: OracleFn) -> Machine:
    """Incorporate f into m: the new stream is f, then m's stream."""
    return Extend(inner=m, prepended=(f,))


@dataclass(frozen=True)
class Witness:
    """One row of pointwise escape: g differs from f_n at n by exactly +1."""

    index: int
    fn_at_n: int
    g_at_n: int

    def __post_init__(self):
        if self.g_at_n != self.fn_at_n + 1:
            raise ValueError(f"witness row {self.index} violates g = f + 1")


def witness_rows(m: Machine, count: int, budget: EvalBudget | None = None) -> Iterator[Witness]:
    """The rows certifying that diagonal(m) escapes m's first `count` functions,
    yielded one by one as each is proved. Each f_n(n) is evaluated once: g
    reads it back from f_n's memo."""
    if count < 1:
        raise ValueError(f"witness count must be >= 1, got {count}")
    g = diagonal(m, budget)
    for n in range(1, count + 1):
        fn_value = _apply_indexed(function_at(m, n, budget), n)
        yield Witness(n, fn_value, g(n))


def witness_table(m: Machine, count: int, budget: EvalBudget | None = None) -> list[Witness]:
    """The finite certificate that diagonal(m) escapes m's first `count` functions."""
    return list(witness_rows(m, count, budget))


def iterate(m0: Machine, depth: int, budget: EvalBudget | None = None) -> tuple[Machine, list[OracleFn]]:
    """Repeatedly extend m by its own diagonal; returns m_depth and [g_1..g_depth]."""
    if depth < 1:
        raise ValueError(f"iteration depth must be >= 1, got {depth}")
    machine = m0
    gs: list[OracleFn] = []
    for _ in range(depth):
        g = diagonal(machine, budget)
        gs.append(g)
        machine = extend(machine, g)
    return machine, gs
