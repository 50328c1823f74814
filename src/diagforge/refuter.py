"""Refute classifiers that claim to select total functions.

A classifier judges enumeration indices (the enumeration is the numbering).
Whatever subsequence it accepts, the diagonal over that subsequence is a
total function disagreeing with every accepted function on the prefix, so
no classifier can have accepted a family containing it. The accepted
prefix is itself a finite machine (machines.Subsequence): a refutation is
witness_rows and diagonal on it, over accepted positions, not tier indices.
Program-backed deciders live inside the kernel language itself: decider d
accepts index i iff d(i) != 0. A scan compiles the decider once and runs
it on each index under the full budget, through one runner.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import islice

from .errors import EmptyClassifierError, ResourceExhaustedError
from .enumeration import Tier, sized_stream
from .interp import EvalBudget, compile_term, runner
from .kernel import Record, TypedProgram, pretty
from .machines import Subsequence

DEFAULT_HORIZON = 100_000


class MaxSize(Record):
    """Accept exactly the programs of size <= bound."""

    __slots__ = _fields = ("bound",)

    def __init__(self, bound: int):
        self.bound = bound


class AcceptAll(Record):
    __slots__ = ()


class AcceptNone(Record):
    __slots__ = ()


class ProgramDecider(Record):
    """A kernel program as its own decider: accept index i iff decider(i) != 0."""

    __slots__ = _fields = ("decider",)

    def __init__(self, decider: TypedProgram):
        self.decider = decider


Classifier = MaxSize | AcceptAll | AcceptNone | ProgramDecider


def describe_classifier(c: Classifier) -> str:
    if isinstance(c, MaxSize):
        return f"maxsize:{c.bound}"
    if isinstance(c, AcceptAll):
        return "all"
    if isinstance(c, AcceptNone):
        return "none"
    return f"program:{pretty(c.decider.term)}"


def _acceptor(c: Classifier, budget: EvalBudget | None) -> Callable[[int, int], bool]:
    """The classifier's verdict on a program, given its index and size; a
    decider is compiled here, once, and an exhausted budget names the index
    it was deciding."""
    if isinstance(c, MaxSize):
        return lambda index, size_: size_ <= c.bound
    if isinstance(c, AcceptAll):
        return lambda index, size_: True
    if isinstance(c, AcceptNone):
        return lambda index, size_: False
    if not c.decider.free_vars <= {"n"}:
        raise ValueError(f"a decider's only input is n, got free variables {sorted(c.decider.free_vars)}")
    code, run = compile_term(c.decider.term), runner(budget)

    def accepts(index: int, size_: int) -> bool:
        try:
            return run(code, index) != 0
        except ResourceExhaustedError as exc:
            raise ResourceExhaustedError(exc.steps_used, exc.reason, at=f"index {index}") from exc

    return accepts


def accepted_prefix(
    c: Classifier,
    tier: Tier,
    count: int,
    horizon: int = DEFAULT_HORIZON,
    budget: EvalBudget | None = None,
) -> Subsequence:
    """The machine of the first `count` programs the classifier accepts,
    evaluated under `budget` as the classifier's decider is.

    Raises EmptyClassifierError when fewer than `count` programs are
    accepted within the first `horizon` enumeration indices.
    """
    if count < 1:
        raise ValueError(f"witness count must be >= 1, got {count}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    # The horizon bounds the scan of the underlying enumeration, not the
    # accepted subsequence (which may be empty).
    accepts = _acceptor(c, budget)
    accepted: list[tuple[int, TypedProgram]] = []
    for index, (size_, program) in islice(enumerate(sized_stream(tier), start=1), horizon):
        if accepts(index, size_):
            accepted.append((index, program))
            if len(accepted) == count:
                break
    if len(accepted) < count:
        raise EmptyClassifierError(len(accepted), count, horizon)
    return Subsequence(tuple(accepted), f"accepted({describe_classifier(c)}, {tier.value})", budget)
