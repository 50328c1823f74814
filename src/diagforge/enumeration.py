"""Effective enumeration of well-formed programs.

Programs are streamed size-ascending, tie-broken inside each size class by
lexicographic comparison of pre-order constructor-rank sequences. Indices
are 1-based. Ill-typed descriptions are never assigned indices, so every
stream element denotes a total function.

One set of counting tables per (operator set, scope, sort) is the only
source of that order. `program_at` and `index_of` rank and unrank by
counting completions, the recursive method of Nijenhuis and Wilf: a
pre-order walk over the stack of argument slots still to fill picks, at
each node, the constructor whose completions cover the index, so no layer
is built and both cost polynomial time in term size. Streams, tier layers
and synthesis candidate pools walk the same tables depth-first, visiting
only constructors that can be completed, so they hold one term at a time
and their canonical orders agree by construction.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from enum import Enum
from functools import lru_cache

from .errors import NotInTierError, TypeCheckError
from .kernel import (
    OPS,
    OP_TABLE,
    OpSpec,
    Sort,
    Term,
    TypedProgram,
    infer_sort,
    size,
    subterms,
)


class Tier(Enum):
    NATFN = "natfn"
    FULL = "full"


# Operator inventories exclude variables: variable occurrences are licensed
# by the scope (binders introduce them), not by the tier.
TIER_OPS: dict[Tier, frozenset[str]] = {
    Tier.NATFN: frozenset({"zero", "succ", "add", "mul", "precnat"}),
    Tier.FULL: frozenset(spec.name for spec in OP_TABLE if not spec.is_variable),
}

ROOT_SORT = Sort.NAT
ROOT_SCOPE = frozenset({"n"})


# A position in a term still to be filled: the variables in scope there and
# the sort it must have.
_Slot = tuple[frozenset[str], Sort]


def _fillers(ops: frozenset[str], scope: frozenset[str], sort: Sort) -> list[tuple[OpSpec, tuple[_Slot, ...]]]:
    """Constructors that can fill a slot of this scope and sort, in rank
    order, each with the slots its arguments open."""
    out = []
    for spec in sorted(OP_TABLE, key=lambda spec: spec.rank):
        if spec.is_variable:
            if spec.name in scope and spec.var_sort is sort:
                out.append((spec, ()))
        elif spec.name in ops and (spec.result is None or spec.result is sort):
            slots = tuple(
                (scope | frozenset(p.binders) if p.binders else scope, p.sort if p.sort is not None else sort)
                for p in spec.params
            )
            out.append((spec, slots))
    return out


def _typed(t: Term) -> TypedProgram:
    return TypedProgram(t, ROOT_SORT, ROOT_SCOPE)


# One constructor that can fill a slot: head, arity, the slots its
# arguments open in push order (first argument last), and for a leaf the
# one Term every walk shares.
_Choice = tuple[str, int, tuple[int, ...], "Term | None"]


class _Counts:
    """Counting tables for the terms of one root slot (ops, scope, sort).

    Slots are interned as small ints, the root slot as 0. A pending stack
    is a tuple of slots, next one last. The tables hold the number of
    terms per (slot, size), the number of ways to fill a pending stack
    with exactly k nodes, and per (pending stack, remaining size) the
    constructors that can fill its top slot with their cumulative
    completion counts, so each step of a walk is one lookup and one bisect.
    """

    def __init__(self, ops: frozenset[str], scope: frozenset[str], sort: Sort):
        work = [(scope, sort)]
        ids = {work[0]: 0}
        # Per slot, in rank order.
        self._choices: list[tuple[_Choice, ...]] = []
        for slot_scope, slot_sort in work:
            row = []
            for spec, slots in _fillers(ops, slot_scope, slot_sort):
                for slot in slots:
                    if slot not in ids:
                        ids[slot] = len(ids)
                        work.append(slot)
                args = tuple(ids[slot] for slot in reversed(slots))
                row.append((spec.name, spec.arity, args, None if slots else Term(spec.name)))
            self._choices.append(tuple(row))
        self._by_size: list[list[int]] = [[0] for _ in work]  # terms per slot and size
        self._cumulative = [0]  # root terms of size <= s
        self._fill: dict[tuple[tuple[int, ...], int], int] = {}
        self.steps: dict[tuple[tuple[int, ...], int], tuple[list[int], list[_Choice]]] = {}

    def _grow(self, size_: int) -> None:
        """Extend the per-slot counts through this size, smallest size first."""
        for k in range(len(self._by_size[0]), size_ + 1):
            for slot, row in enumerate(self._choices):
                self._by_size[slot].append(sum(self.fill(choice[2], k - 1) for choice in row))

    def fill(self, pending: tuple[int, ...], k: int) -> int:
        """Ways to fill every slot of the pending stack with exactly k nodes."""
        n = len(pending)
        if n <= 1:
            return self._by_size[pending[0]][k] if n else int(k == 0)
        if k < n:
            return 0
        key = (pending, k)
        found = self._fill.get(key)
        if found is None:
            top, rest = self._by_size[pending[-1]], pending[:-1]
            found = self._fill[key] = sum(top[j] * self.fill(rest, k - j) for j in range(1, k - n + 2))
        return found

    def step(self, pending: tuple[int, ...], remaining: int) -> tuple[list[int], list[_Choice]]:
        """Constructors completable in the top slot, with cumulative counts.

        Memoized in `steps`, which the walks read first.
        """
        rest = pending[:-1]
        bounds, choices = [], []
        total = 0
        for choice in self._choices[pending[-1]]:
            ways = self.fill(rest + choice[2], remaining - 1)
            if ways:
                total += ways
                bounds.append(total)
                choices.append(choice)
        found = self.steps[(pending, remaining)] = (bounds, choices)
        return found

    def before(self, size_: int) -> int:
        """Number of root terms smaller than this size; counts grow through it."""
        cumulative = self._cumulative
        for s in range(len(cumulative), size_ + 1):
            self._grow(s)
            cumulative.append(cumulative[-1] + self._by_size[0][s])
        return cumulative[size_ - 1]

    def locate(self, i: int) -> tuple[int, int]:
        """The size of the i-th program and its 1-based position in that size."""
        cumulative = self._cumulative
        while cumulative[-1] < i:
            self.before(len(cumulative))
        size_ = bisect_left(cumulative, i)
        return size_, i - cumulative[size_ - 1]


@lru_cache(maxsize=None)
def _counts(ops: frozenset[str], scope: frozenset[str], sort: Sort) -> _Counts:
    return _Counts(ops, scope, sort)


def _tier_counts(tier: Tier) -> _Counts:
    return _counts(TIER_OPS[tier], ROOT_SCOPE, ROOT_SORT)


# A term being built in pre-order is a chain of its open nodes, innermost
# first: (parent, head, arguments still missing, arguments so far), with
# None above the root. Nodes are never changed, so walk frames share them
# and backing up is free.
def _push(open_: tuple | None, choice: _Choice) -> tuple | Term:
    """Add the next constructor in pre-order, closing every node it
    completes; the whole term once the root closes."""
    head, arity, _, term = choice
    if term is None:
        return (open_, head, arity, ())
    while open_ is not None:
        parent, head, missing, args = open_
        if missing > 1:
            return (parent, head, missing - 1, args + (term,))
        term = Term(head, args + (term,))
        open_ = parent
    return term


def _walk(counts: _Counts, size_: int) -> Iterator[Term]:
    """Every term of the root slot with exactly this size, in canonical order.

    Depth-first over the `steps` memo: a frame holds a pending stack, the
    remaining size, the partly built term and an iterator over the
    constructors that can complete it, so no dead end is entered.
    """
    if size_ < 1:
        return
    counts.before(size_)
    steps = counts.steps
    frames = [((0,), size_, None, iter(counts.step((0,), size_)[1]))]
    while frames:
        pending, remaining, open_, choices = frames[-1]
        for choice in choices:
            built = _push(open_, choice)
            rest = pending[:-1] + choice[2]
            if rest:
                key = (rest, remaining - 1)
                frames.append((rest, remaining - 1, built, iter((steps.get(key) or counts.step(*key))[1])))
                break
            yield built
        else:
            frames.pop()


def walk_layer(ops: frozenset[str], scope: frozenset[str], sort: Sort, size_: int) -> Iterator[Term]:
    """Every term of this size, sort and scope over the non-variable
    operators `ops`, in canonical order, one at a time."""
    return _walk(_counts(ops, scope, sort), size_)


def tier_layer(tier: Tier, size_: int) -> tuple[Term, ...]:
    return tuple(_walk(_tier_counts(tier), size_))


def enumerate_stream(tier: Tier) -> Iterator[TypedProgram]:
    """Every well-formed program of the tier, exactly once, in canonical order."""
    counts = _tier_counts(tier)
    size_ = 1
    while True:
        for t in _walk(counts, size_):
            yield _typed(t)
        size_ += 1


def program_at(tier: Tier, i: int) -> TypedProgram:
    """The i-th element (1-based) of the tier's stream."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    counts = _tier_counts(tier)
    steps = counts.steps
    remaining, pos = counts.locate(i)
    pending: tuple[int, ...] = (0,)
    built = None
    while pending:
        bounds, choices = steps.get((pending, remaining)) or counts.step(pending, remaining)
        k = bisect_left(bounds, pos)
        if k:
            pos -= bounds[k - 1]
        choice = choices[k]
        built = _push(built, choice)
        pending = pending[:-1] + choice[2]
        remaining -= 1
    return _typed(built)


def index_of(tier: Tier, p: TypedProgram | Term) -> int:
    """The unique index with program_at(tier, index) == p.

    Raises NotInTierError when p uses operators outside the tier, uses
    the wrong free variables, or is ill-typed at the tier's sort.
    """
    term = p.term if isinstance(p, TypedProgram) else p
    allowed = TIER_OPS[tier]
    for node in subterms(term):
        spec = OPS.get(node.head)
        if spec is None or (not spec.is_variable and node.head not in allowed):
            raise NotInTierError(f"operator {node.head!r} is outside tier {tier.value}")
    try:
        found = infer_sort(term, ROOT_SCOPE)
    except TypeCheckError as exc:
        raise NotInTierError(f"not well-formed in tier {tier.value}: {exc}") from exc
    if found is not ROOT_SORT:
        raise NotInTierError(f"programs of tier {tier.value} have sort {ROOT_SORT.value}")
    counts = _tier_counts(tier)
    steps = counts.steps
    remaining = size(term)
    index = counts.before(remaining) + 1
    pending: tuple[int, ...] = (0,)
    for node in subterms(term):
        bounds, choices = steps.get((pending, remaining)) or counts.step(pending, remaining)
        # The term is well-formed in the tier, so its head is among the choices.
        k = next(k for k, choice in enumerate(choices) if choice[0] == node.head)
        if k:
            index += bounds[k - 1]
        pending = pending[:-1] + choices[k][2]
        remaining -= 1
    return index
