"""Independent reference for checking diagforge outputs.

Nothing here imports diagforge. It holds its own copy of the grammar (ranks,
sorts, binders), counts terms per size with a dynamic program, ranks and
unranks terms of a tier by counting completions of the pending argument
slots, and evaluates terms by direct recursion. The benchmark's generator
draws its inputs from here and its checks compare the program's outputs
against it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

NAT, BOOL, LIST = "nat", "bool", "listnat"


class T(NamedTuple):
    """A term: constructor name and argument terms."""

    head: str
    args: tuple = ()


class Op(NamedTuple):
    name: str
    rank: int
    result: str | None  # None: the sort of the whole `if`
    params: tuple  # ((sort or None, binders), ...)
    var: str | None = None  # sort of a variable occurrence


GRAMMAR = (
    Op("n", 0, NAT, (), NAT),
    Op("zero", 1, NAT, ()),
    Op("succ", 2, NAT, ((NAT, ()),)),
    Op("add", 3, NAT, ((NAT, ()), (NAT, ()))),
    Op("mul", 4, NAT, ((NAT, ()), (NAT, ()))),
    Op("precnat", 5, NAT, ((NAT, ()), (NAT, ("acc", "idx")), (NAT, ()))),
    Op("nil", 6, LIST, ()),
    Op("cons", 7, LIST, ((NAT, ()), (LIST, ()))),
    Op("first", 8, NAT, ((LIST, ()),)),
    Op("rest", 9, LIST, ((LIST, ()),)),
    Op("append", 10, LIST, ((LIST, ()), (LIST, ()))),
    Op("len", 11, NAT, ((LIST, ()),)),
    Op("lt", 12, BOOL, ((NAT, ()), (NAT, ()))),
    Op("if", 13, None, ((BOOL, ()), (None, ()), (None, ()))),
    Op("filter", 14, LIST, ((LIST, ()), (BOOL, ("x",)))),
    Op("pivotrec", 15, LIST, ((LIST, ()), (BOOL, ("x", "pivot")), (BOOL, ("x", "pivot")), (LIST, ("l", "pivot", "r")))),
    Op("x", 16, NAT, (), NAT),
    Op("acc", 17, NAT, (), NAT),
    Op("idx", 18, NAT, (), NAT),
    Op("pivot", 19, NAT, (), NAT),
    Op("l", 20, LIST, (), LIST),
    Op("r", 21, LIST, (), LIST),
)
OPS = {op.name: op for op in GRAMMAR}
TIERS = {
    "natfn": frozenset({"zero", "succ", "add", "mul", "precnat"}),
    "full": frozenset(op.name for op in GRAMMAR if op.var is None),
}
ROOT = (NAT, frozenset({"n"}))


# ---------------------------------------------------------------------------
# Syntax


def parse(text: str) -> T:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    term, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return term


def _read(tokens, pos):
    tok = tokens[pos]
    if tok != "(":
        if tok not in OPS or OPS[tok].params:
            raise ValueError(f"bad atom {tok!r}")
        return T(tok), pos + 1
    head = tokens[pos + 1]
    if head not in OPS or not OPS[head].params:
        raise ValueError(f"bad head {head!r}")
    args = []
    pos += 2
    while tokens[pos] != ")":
        arg, pos = _read(tokens, pos)
        args.append(arg)
    if len(args) != len(OPS[head].params):
        raise ValueError(f"{head} takes {len(OPS[head].params)} arguments")
    return T(head, tuple(args)), pos + 1


def pretty(t: T) -> str:
    if not t.args:
        return t.head
    return "(" + t.head + " " + " ".join(pretty(a) for a in t.args) + ")"


def size(t: T) -> int:
    return 1 + sum(size(a) for a in t.args)


def parse_value(text: str):
    text = text.strip()
    if text.startswith("("):
        return tuple(int(x) for x in text[1:-1].split())
    return int(text)


def format_value(v) -> str:
    if isinstance(v, tuple):
        return "(" + " ".join(str(x) for x in v) + ")"
    return str(v)


# ---------------------------------------------------------------------------
# Counting, ranking and unranking within a tier


def _choices(tier: str, sort: str, scope: frozenset):
    """Constructors that fill a slot of this sort and scope, in rank order,
    each with the slots its arguments open."""
    out = []
    for op in GRAMMAR:
        if op.var is not None:
            if op.name in scope and op.var == sort:
                out.append((op, ()))
        elif op.name in TIERS[tier] and (op.result is None or op.result == sort):
            slots = tuple((s if s is not None else sort, scope | frozenset(b)) for s, b in op.params)
            out.append((op, slots))
    return out


_CHOICES: dict = {}


def choices(tier, sort, scope):
    key = (tier, sort, scope)
    found = _CHOICES.get(key)
    if found is None:
        found = _CHOICES[key] = _choices(tier, sort, scope)
    return found


@lru_cache(maxsize=None)
def count(tier: str, sort: str, scope: frozenset, size_: int) -> int:
    """Number of well-formed terms of exactly this size."""
    if size_ < 1:
        return 0
    return sum(fill_count(tier, slots, size_ - 1) for _, slots in choices(tier, sort, scope))


@lru_cache(maxsize=None)
def fill_count(tier: str, slots: tuple, total: int) -> int:
    """Ways to fill the slots, in order, with exactly `total` nodes."""
    if not slots:
        return 1 if total == 0 else 0
    if total < len(slots):
        return 0
    (sort, scope), rest = slots[0], slots[1:]
    return sum(
        count(tier, sort, scope, k) * fill_count(tier, rest, total - k)
        for k in range(1, total - len(rest) + 1)
    )


def cumulative(tier: str, size_: int) -> int:
    """Number of tier programs of size <= size_."""
    return sum(count(tier, ROOT[0], ROOT[1], s) for s in range(1, size_ + 1))


def index_of(tier: str, t: T) -> int:
    """1-based index of t in the tier's size-then-rank-sequence order."""
    s = size(t)
    before = 0
    pending = [ROOT]
    remaining = s
    stack = [t]
    while stack:
        node = stack.pop()
        sort, scope = pending.pop()
        for op, slots in choices(tier, sort, scope):
            if op.name == node.head:
                break
            before += fill_count(tier, slots + tuple(reversed(pending)), remaining - 1)
        else:
            raise ValueError(f"{pretty(t)} is not in tier {tier}")
        remaining -= 1
        pending.extend(reversed(slots))
        stack.extend(reversed(node.args))
    return cumulative(tier, s - 1) + before + 1


def program_at(tier: str, i: int) -> T:
    """The term at 1-based index i of the tier's order."""
    s = 1
    while cumulative(tier, s) < i:
        s += 1
    pos = i - cumulative(tier, s - 1)
    heads = []
    pending = [ROOT]
    remaining = s
    while pending:
        sort, scope = pending.pop()
        for op, slots in choices(tier, sort, scope):
            ways = fill_count(tier, slots + tuple(reversed(pending)), remaining - 1)
            if pos <= ways:
                break
            pos -= ways
        heads.append(op)
        remaining -= 1
        pending.extend(reversed(slots))
    return _build(heads)


def _build(heads):
    it = iter(heads)

    def node():
        op = next(it)
        return T(op.name, tuple(node() for _ in op.params))

    return node()


def random_term(rng, tier: str, size_: int) -> T:
    """A term drawn uniformly from the tier's layer of this size."""
    return program_at(tier, cumulative(tier, size_ - 1) + rng.randint(1, count(tier, ROOT[0], ROOT[1], size_)))


# ---------------------------------------------------------------------------
# Evaluation


class TooBig(Exception):
    """Raised when evaluation passes the caller's step or bit limit."""


def evaluate(t: T, env: dict, max_steps: int | None = None, max_bits: int | None = None):
    """Direct recursive semantics; optional limits raise TooBig."""
    steps = [max_steps if max_steps is not None else -1]
    return _ev(t, env, steps, max_bits)


def _ev(t, env, steps, max_bits):
    if steps[0] >= 0:
        steps[0] -= 1
        if steps[0] < 0:
            raise TooBig("steps")
    h, a = t.head, t.args
    if not a:
        if h == "zero":
            return 0
        if h == "nil":
            return ()
        return env[h]
    if h in ("succ", "add", "mul"):
        vals = [_ev(x, env, steps, max_bits) for x in a]
        out = vals[0] + 1 if h == "succ" else vals[0] + vals[1] if h == "add" else vals[0] * vals[1]
        if max_bits is not None and out.bit_length() > max_bits:
            raise TooBig("bits")
        return out
    if h == "precnat":
        n = _ev(a[2], env, steps, max_bits)
        acc = _ev(a[0], env, steps, max_bits)
        for i in range(n):
            acc = _ev(a[1], {**env, "acc": acc, "idx": i}, steps, max_bits)
        return acc
    if h == "cons":
        return (_ev(a[0], env, steps, max_bits),) + _ev(a[1], env, steps, max_bits)
    if h == "first":
        xs = _ev(a[0], env, steps, max_bits)
        return xs[0] if xs else 0
    if h == "rest":
        return _ev(a[0], env, steps, max_bits)[1:]
    if h == "append":
        return _ev(a[0], env, steps, max_bits) + _ev(a[1], env, steps, max_bits)
    if h == "len":
        return len(_ev(a[0], env, steps, max_bits))
    if h == "lt":
        return _ev(a[0], env, steps, max_bits) < _ev(a[1], env, steps, max_bits)
    if h == "if":
        return _ev(a[1] if _ev(a[0], env, steps, max_bits) else a[2], env, steps, max_bits)
    if h == "filter":
        xs = _ev(a[0], env, steps, max_bits)
        return tuple(v for v in xs if _ev(a[1], {**env, "x": v}, steps, max_bits))
    if h == "pivotrec":
        return _pivot(_ev(a[0], env, steps, max_bits), a[1], a[2], a[3], env, steps, max_bits)
    raise ValueError(f"no rule for {h!r}")


def _pivot(xs, left, right, combine, env, steps, max_bits):
    if not xs:
        return ()
    pivot, tail = xs[0], xs[1:]
    lo = tuple(v for v in tail if _ev(left, {**env, "x": v, "pivot": pivot}, steps, max_bits))
    hi = tuple(v for v in tail if _ev(right, {**env, "x": v, "pivot": pivot}, steps, max_bits))
    return _ev(
        combine,
        {
            **env,
            "l": _pivot(lo, left, right, combine, env, steps, max_bits),
            "pivot": pivot,
            "r": _pivot(hi, left, right, combine, env, steps, max_bits),
        },
        steps,
        max_bits,
    )
