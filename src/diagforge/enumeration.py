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
is built and both cost polynomial time in term size. Streams and
synthesis candidate pools walk the same tables depth-first, visiting only
constructors that can be completed, so they hold one term at a time and
their canonical orders agree by construction. The tables are built on
demand: a slot's constructors and counts, and the counts of each stack of
pending slots, only as far as some rank or walk has read them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from enum import Enum
from functools import lru_cache
from operator import itemgetter, mul

from .errors import NotInTierError
from .kernel import OP_TABLE, Sort, Term, TypedProgram, size, subterms


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


def _typed(t: Term) -> TypedProgram:
    return TypedProgram(t, ROOT_SORT, ROOT_SCOPE)


# One constructor that can fill a slot: head, arity, the slots its
# arguments open in push order (first argument last), and for a leaf the
# one Term every walk shares.
_Choice = tuple[str, int, tuple[int, ...], "Term | None"]


class _Counts:
    """Counting tables for the terms of one root slot (ops, scope, sort),
    built as reads reach them.

    Slots are interned as small ints, the root slot as 0, and a slot's
    row of constructors is built when first read. A pending stack is a
    tuple of slots, next one last. Its series counts the ways to fill it
    with exactly k nodes, for k = 0, 1, ...; a one-slot stack's series is
    the slot's number of terms per size. A series grows only through the
    largest size read from it. Per (pending stack, remaining size) the
    tables also hold the constructors that can fill its top slot with
    their cumulative completion counts, so each step of a walk is one
    lookup and one bisect.
    """

    def __init__(self, ops: frozenset[str], scope: frozenset[str], sort: Sort):
        self._ops = ops
        self._slots: list[_Slot] = [(scope, sort)]
        self._ids = {(scope, sort): 0}
        self._rows: list[tuple[_Choice, ...] | None] = [None]
        # Per slot with a row: the stacks its non-leaf constructors open.
        self._opens: list[tuple[tuple[int, ...], ...]] = [()]
        self._series: dict[tuple[int, ...], list[int]] = {}
        self._cumulative = [0]  # root terms of size <= s
        self.steps: dict[tuple[tuple[int, ...], int], tuple[list[int], list[_Choice]]] = {}

    def _slot(self, scope: frozenset[str], sort: Sort) -> int:
        """The slot's id, interned on first sight."""
        key = (scope, sort)
        found = self._ids.get(key)
        if found is None:
            found = self._ids[key] = len(self._slots)
            self._slots.append(key)
            self._rows.append(None)
            self._opens.append(())
        return found

    def _row(self, slot: int) -> tuple[_Choice, ...]:
        """The constructors that can fill the slot, in rank order (the
        order of OP_TABLE), each with the slots its arguments open."""
        row = self._rows[slot]
        if row is not None:
            return row
        scope, sort = self._slots[slot]
        built = []
        for spec in OP_TABLE:
            if spec.var_sort is not None:
                if spec.name in scope and spec.var_sort is sort:
                    built.append((spec.name, 0, (), Term(spec.name)))
            elif spec.name in self._ops and (spec.result is None or spec.result is sort):
                args = tuple(
                    self._slot(
                        scope | frozenset(p.binders) if p.binders else scope,
                        sort if p.sort is None else p.sort,
                    )
                    for p in reversed(spec.params)
                )
                built.append((spec.name, len(args), args, None if args else Term(spec.name)))
        row = self._rows[slot] = tuple(built)
        self._opens[slot] = tuple(choice[2] for choice in row if choice[2])
        return row

    def fill(self, pending: tuple[int, ...], k: int) -> list[int]:
        """The series of a non-empty pending stack, grown through k nodes.

        Reads wait on an explicit stack until every series they read is
        long enough, so no recursion grows with the pending stack or the
        size.
        """
        series = self._series
        found = series.get(pending)
        if found is not None and len(found) > k:
            return found
        todo = [(pending, k)]
        while todo:
            stack, k = todo.pop()
            own = series.get(stack)
            n = len(stack)
            if own is None:
                own = series[stack] = [0] * n
            if len(own) > k:
                continue
            if n > 1:
                # The top slot takes j nodes, the rest of the stack the others.
                top, rest = stack[-1:], stack[:-1]
                short = [(q, j) for q, j in ((top, k - n + 1), (rest, k - 1)) if len(series.get(q, ())) <= j]
            else:
                # A term takes one node and its arguments the others; the
                # slot's own series grows one size at a time below.
                if self._rows[stack[0]] is None:
                    self._row(stack[0])
                opens = self._opens[stack[0]]
                short = [(args, k - 1) for args in opens if args != stack and len(series.get(args, ())) < k]
            if short:
                todo.append((stack, k))
                todo += short
            elif n > 1:
                top, rest = series[top], series[rest]
                for t in range(len(own), k + 1):
                    own.append(sum(map(mul, top[1 : t - n + 2], rest[t - 1 : n - 2 : -1])))
            else:
                parts = [series[args] for args in opens]
                if len(own) == 1:
                    own.append(len(self._rows[stack[0]]) - len(parts))  # the leaves
                for t in range(len(own), k + 1):
                    own.append(sum(map(itemgetter(t - 1), parts)))
        return series[pending]

    def step(self, pending: tuple[int, ...], remaining: int) -> tuple[list[int], list[_Choice]]:
        """Constructors completable in the top slot, with cumulative counts.

        Memoized in `steps`, which the walks read first.
        """
        rest = pending[:-1]
        bounds, choices = [], []
        total = 0
        for choice in self._row(pending[-1]):
            stack = rest + choice[2]
            ways = self.fill(stack, remaining - 1)[remaining - 1] if stack else int(remaining == 1)
            if ways:
                total += ways
                bounds.append(total)
                choices.append(choice)
        found = self.steps[(pending, remaining)] = (bounds, choices)
        return found

    def before(self, size_: int) -> int:
        """Number of root terms smaller than this size."""
        cumulative = self._cumulative
        if len(cumulative) < size_:
            counts = self.fill((0,), size_ - 1)
            for s in range(len(cumulative), size_):
                cumulative.append(cumulative[-1] + counts[s])
        return cumulative[size_ - 1]

    def locate(self, i: int) -> tuple[int, int]:
        """The size of the i-th program and its 1-based position in that size."""
        cumulative = self._cumulative
        while cumulative[-1] < i:
            self.before(len(cumulative) + 1)
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


def sized_stream(tier: Tier) -> Iterator[tuple[int, TypedProgram]]:
    """Every well-formed program of the tier with its size, exactly once,
    in canonical order."""
    counts = _tier_counts(tier)
    size_ = 1
    while True:
        for t in _walk(counts, size_):
            yield size_, _typed(t)
        size_ += 1


def enumerate_stream(tier: Tier) -> Iterator[TypedProgram]:
    """Every well-formed program of the tier, exactly once, in canonical order."""
    return (program for _, program in sized_stream(tier))


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

    Raises NotInTierError at the first node, in pre-order, whose head and
    arity no program of the term's size has there after the same nodes. A
    slot admits only the tier's operators and the variables in its scope.
    """
    term = p.term if isinstance(p, TypedProgram) else p
    counts = _tier_counts(tier)
    steps = counts.steps
    total = remaining = size(term)
    index = counts.before(remaining) + 1
    pending: tuple[int, ...] = (0,)
    for position, node in enumerate(subterms(term)):
        bounds, choices = steps.get((pending, remaining)) or counts.step(pending, remaining)
        arity = len(node.args)
        k = next((k for k, choice in enumerate(choices) if choice[0] == node.head and choice[1] == arity), None)
        if k is None:
            raise NotInTierError(
                f"not a program of tier {tier.value}: node {position} in pre-order"
                f" ({node.head!r}, {arity} arguments) fits no program of size {total}"
            )
        if k:
            index += bounds[k - 1]
        pending = pending[:-1] + choices[k][2]
        remaining -= 1
    return index
