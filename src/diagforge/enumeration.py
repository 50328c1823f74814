"""Effective enumeration of well-formed programs.

Programs are streamed size-ascending, tie-broken inside each size class by
lexicographic comparison of pre-order constructor-rank sequences. Indices
are 1-based. Ill-typed descriptions are never assigned indices, so every
stream element denotes a total function.

`program_at` and `index_of` rank and unrank by counting completions, the
recursive method of Nijenhuis and Wilf: a pre-order walk over the stack of
argument slots still to fill picks, at each node, the constructor whose
completions cover the index, so no layer is built and both cost polynomial
time in term size. Streams and synthesis candidate pools still read the
size layers in order: both are parameterized by an allowed operator set
and a variable scope, so their canonical orders agree by construction.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Iterator

from .errors import NotInTierError, TypeCheckError
from .kernel import (
    OPS,
    OP_TABLE,
    OpSpec,
    Sort,
    Term,
    TypedProgram,
    infer_sort,
    rank_seq,
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


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum of `parts` positive ints."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


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


@lru_cache(maxsize=None)
def terms_of_size(ops: frozenset[str], scope: frozenset[str], sort: Sort, size_: int) -> tuple[Term, ...]:
    """All well-formed terms of exactly this size, canonically ordered.

    `ops` is the allowed non-variable operator set; variables come from
    `scope` and binders extend it for the relevant subtrees. Construction
    is sort- and scope-directed, so no post-hoc filtering is needed.
    """
    out: list[Term] = []
    for spec, slots in _fillers(ops, scope, sort):
        if not slots:
            if size_ == 1:
                out.append(Term(spec.name))
            continue
        if size_ - 1 < len(slots):
            continue
        for split in _compositions(size_ - 1, len(slots)):
            pools = [terms_of_size(ops, arg_scope, arg_sort, k) for (arg_scope, arg_sort), k in zip(slots, split)]
            if any(not pool for pool in pools):
                continue
            _product_into(out, spec.name, pools)
    out.sort(key=rank_seq)
    return tuple(out)


def _product_into(out: list[Term], head: str, pools: list[tuple[Term, ...]]) -> None:
    if len(pools) == 1:
        out.extend(Term(head, (a,)) for a in pools[0])
    elif len(pools) == 2:
        out.extend(Term(head, (a, b)) for a in pools[0] for b in pools[1])
    else:
        out.extend(Term(head, combo) for combo in product(*pools))


def tier_layer(tier: Tier, size_: int) -> tuple[Term, ...]:
    return terms_of_size(TIER_OPS[tier], ROOT_SCOPE, ROOT_SORT, size_)


def _typed(t: Term) -> TypedProgram:
    return TypedProgram(t, ROOT_SORT, ROOT_SCOPE)


def enumerate_stream(tier: Tier) -> Iterator[TypedProgram]:
    """Every well-formed program of the tier, exactly once, in canonical order."""
    size_ = 1
    while True:
        for t in tier_layer(tier, size_):
            yield _typed(t)
        size_ += 1


class EnumCursor:
    """Single-consumer cursor over a tier's stream; `next_index` is 1-based.

    Independent cursors over the same tier agree element-wise.
    """

    def __init__(self, tier: Tier):
        self.tier = tier
        self.next_index = 1
        self._stream = enumerate_stream(tier)

    def take(self) -> tuple[int, TypedProgram]:
        index = self.next_index
        program = next(self._stream)
        self.next_index += 1
        return index, program


# One constructor that can fill a slot: head, arity, the slots its
# arguments open in push order (first argument last), and for a leaf the
# one Term every walk shares.
_Choice = tuple[str, int, tuple[int, ...], "Term | None"]


class _Counts:
    """Counting tables for ranking and unranking one tier's programs.

    Slots are interned as small ints, the root slot as 0. A pending stack
    is a tuple of slots, next one last. The tables hold the number of
    terms per (slot, size), the number of ways to fill a pending stack
    with exactly k nodes, and per (pending stack, remaining size) the
    constructors that can fill its top slot with their cumulative
    completion counts, so each step of a walk is one lookup and one bisect.
    """

    def __init__(self, ops: frozenset[str]):
        ids = {(ROOT_SCOPE, ROOT_SORT): 0}
        work = [(ROOT_SCOPE, ROOT_SORT)]
        # Per slot, in rank order.
        self._choices: list[tuple[_Choice, ...]] = []
        for scope, sort in work:
            row = []
            for spec, slots in _fillers(ops, scope, sort):
                for slot in slots:
                    if slot not in ids:
                        ids[slot] = len(ids)
                        work.append(slot)
                args = tuple(ids[slot] for slot in reversed(slots))
                row.append((spec.name, spec.arity, args, None if slots else Term(spec.name)))
            self._choices.append(tuple(row))
        self._by_size: list[list[int]] = [[0] for _ in work]  # terms per slot and size
        self._cumulative = [0]  # programs of size <= s
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
        """Number of programs smaller than this size; counts grow through it."""
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
def _tier_counts(tier: Tier) -> _Counts:
    return _Counts(TIER_OPS[tier])


def _from_preorder(nodes: list[_Choice]) -> Term:
    """The term whose constructors, in pre-order, these are."""
    stack: list[Term] = []
    for head, arity, _, leaf in reversed(nodes):
        if leaf is not None:
            stack.append(leaf)
        elif arity == 1:
            stack[-1] = Term(head, (stack[-1],))
        else:
            args = tuple(stack[: -arity - 1 : -1])
            del stack[-arity:]
            stack.append(Term(head, args))
    return stack[0]


def program_at(tier: Tier, i: int) -> TypedProgram:
    """The i-th element (1-based) of the tier's stream."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    counts = _tier_counts(tier)
    steps = counts.steps
    remaining, pos = counts.locate(i)
    pending: tuple[int, ...] = (0,)
    nodes = []
    while pending:
        bounds, choices = steps.get((pending, remaining)) or counts.step(pending, remaining)
        k = bisect_left(bounds, pos)
        if k:
            pos -= bounds[k - 1]
        choice = choices[k]
        nodes.append(choice)
        pending = pending[:-1] + choice[2]
        remaining -= 1
    return _typed(_from_preorder(nodes))


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
