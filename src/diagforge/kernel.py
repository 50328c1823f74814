"""The total kernel language: terms, sorts, S-expression syntax, typing.

Every constructor has a fixed rank; the pre-order sequence of ranks is the
tie-breaking key the enumeration and synthesis modules use inside a size
class, so the rank table here is normative for program indices.

Values are plain Python data: naturals are non-negative ints, booleans are
bools, and number lists are tuples of ints (tuples so values are hashable
and usable as fingerprint components).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from enum import Enum

from .errors import (
    ParseError,
    SortMismatchError,
    UnboundVariableError,
    UnknownConstructorError,
)


class Sort(Enum):
    NAT = "nat"
    BOOL = "bool"
    LIST_NAT = "listnat"


Value = int | bool | tuple


class Record:
    """A small value record. The fields named in `_fields` are compared,
    hashed and shown, as a frozen dataclass would; records compare equal
    only to records of the same class. Other slots are private state.
    Records are not changed after construction."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


class Term:
    """One node of the abstract syntax tree.

    Equality and hashing are structural and walk the term with explicit
    stacks, so they hold at any depth. The hash equals that of the tuple
    (head, args); it is computed on first use and kept.
    """

    __slots__ = ("head", "args", "_hash")

    def __init__(self, head: str, args: tuple[Term, ...] = ()):
        self.head = head
        self.args = args
        self._hash = None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Term:
            return NotImplemented
        if self.head != other.head:
            return False
        stack = [(self.args, other.args)]
        while stack:
            xs, ys = stack.pop()
            if len(xs) != len(ys):
                return False
            for x, y in zip(xs, ys):
                if x is not y:
                    if x.head != y.head:
                        return False
                    stack.append((x.args, y.args))
        return True

    def __hash__(self) -> int:
        if self._hash is None:
            # Children before parents, so each tuple hash reads kept hashes.
            stack = [self]
            while stack:
                node = stack[-1]
                for a in node.args:
                    if a._hash is None:
                        stack.append(a)
                if stack[-1] is node:
                    stack.pop()
                    node._hash = hash((node.head, node.args))
        return self._hash

    def __repr__(self) -> str:
        return f"Term<{pretty(self)}>"


class Param(Record):
    """One argument position: its sort and the variables it binds.

    ``sort`` is None for the branches of ``if``, which share the sort of
    the whole expression.
    """

    __slots__ = _fields = ("sort", "binders")

    def __init__(self, sort: Sort | None, binders: tuple[str, ...] = ()):
        self.sort = sort
        self.binders = binders


class OpSpec(Record):
    __slots__ = _fields = ("name", "rank", "result", "params", "var_sort")

    def __init__(
        self,
        name: str,
        rank: int,
        result: Sort | None,  # None: polymorphic (if)
        params: tuple[Param, ...] = (),
        var_sort: Sort | None = None,  # set for variable occurrences
    ):
        self.name = name
        self.rank = rank
        self.result = result
        self.params = params
        self.var_sort = var_sort

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def is_variable(self) -> bool:
        return self.var_sort is not None


_N, _B, _L = Sort.NAT, Sort.BOOL, Sort.LIST_NAT

OP_TABLE: tuple[OpSpec, ...] = (
    OpSpec("n", 0, _N, (), var_sort=_N),
    OpSpec("zero", 1, _N),
    OpSpec("succ", 2, _N, (Param(_N),)),
    OpSpec("add", 3, _N, (Param(_N), Param(_N))),
    OpSpec("mul", 4, _N, (Param(_N), Param(_N))),
    OpSpec("precnat", 5, _N, (Param(_N), Param(_N, ("acc", "idx")), Param(_N))),
    OpSpec("nil", 6, _L),
    OpSpec("cons", 7, _L, (Param(_N), Param(_L))),
    OpSpec("first", 8, _N, (Param(_L),)),
    OpSpec("rest", 9, _L, (Param(_L),)),
    OpSpec("append", 10, _L, (Param(_L), Param(_L))),
    OpSpec("len", 11, _N, (Param(_L),)),
    OpSpec("lt", 12, _B, (Param(_N), Param(_N))),
    OpSpec("if", 13, None, (Param(_B), Param(None), Param(None))),
    OpSpec("filter", 14, _L, (Param(_L), Param(_B, ("x",)))),
    OpSpec(
        "pivotrec",
        15,
        _L,
        (
            Param(_L),
            Param(_B, ("x", "pivot")),
            Param(_B, ("x", "pivot")),
            Param(_L, ("l", "pivot", "r")),
        ),
    ),
    OpSpec("x", 16, _N, (), var_sort=_N),
    OpSpec("acc", 17, _N, (), var_sort=_N),
    OpSpec("idx", 18, _N, (), var_sort=_N),
    OpSpec("pivot", 19, _N, (), var_sort=_N),
    OpSpec("l", 20, _L, (), var_sort=_L),
    OpSpec("r", 21, _L, (), var_sort=_L),
)

OPS: dict[str, OpSpec] = {spec.name: spec for spec in OP_TABLE}
VAR_SORTS: dict[str, Sort] = {s.name: s.var_sort for s in OP_TABLE if s.is_variable}

# Input variable per program input sort; `l` doubles as the input of
# list-consuming programs (it is the only list-sorted variable).
INPUT_VARS: dict[Sort, str] = {Sort.NAT: "n", Sort.LIST_NAT: "l"}


def size(t: Term) -> int:
    """Node count, variable occurrences included."""
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.args)
    return count


def rank_seq(t: Term) -> tuple[int, ...]:
    """Pre-order sequence of constructor ranks; the intra-size sort key."""
    out: list[int] = []
    stack = [t]
    while stack:
        node = stack.pop()
        out.append(OPS[node.head].rank)
        stack.extend(reversed(node.args))
    return tuple(out)


def canonical_key(t: Term) -> tuple[int, tuple[int, ...]]:
    return (size(t), rank_seq(t))


def subterms(t: Term) -> Iterator[Term]:
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.args))


# ---------------------------------------------------------------------------
# S-expression syntax


def _read_form(text: str, what: str):
    """The first form of text, an atom or a list of forms, and the tokens
    after it; `what` names the text in errors. Open lists wait on an
    explicit stack."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ParseError(f"empty {what}")
    stack: list[list] = []
    for pos, form in enumerate(tokens):
        if form == "(":
            stack.append([])
            continue
        if form == ")":
            if not stack:
                raise ParseError("unexpected ')'")
            form = stack.pop()
        if not stack:
            return form, tokens[pos + 1 :]
        stack[-1].append(form)
    raise ParseError("unbalanced form: missing ')'")


def _form_to_term(form) -> Term:
    """The term a form spells. Each form is checked before its arguments,
    and terms are built bottom-up, on explicit stacks."""
    done: list[Term] = []
    stack = [form]
    while stack:
        form = stack.pop()
        if form.__class__ is tuple:  # (head, arity), once its arguments are built
            head, k = form
            done[-k:] = [Term(head, tuple(done[-k:]))]
            continue
        if form.__class__ is str:
            head, args = form, None
        elif not form:
            raise ParseError("empty form '()'")
        elif not isinstance(form[0], str):
            raise ParseError("form head must be a constructor name")
        else:
            head, args = form[0], form[1:]
        spec = OPS.get(head)
        if spec is None:
            raise UnknownConstructorError(head)
        if args is None:
            if spec.arity != 0:
                raise ParseError(f"{head!r} takes {spec.arity} arguments, got none")
            done.append(Term(head))
        elif spec.arity == 0:
            raise ParseError(f"{head!r} takes no arguments; write it bare")
        elif len(args) != spec.arity:
            raise ParseError(f"{head!r} takes {spec.arity} arguments, got {len(args)}")
        else:
            stack.append((head, len(args)))
            stack += args[::-1]
    return done[0]


def parse(text: str) -> Term:
    """Parse a canonical S-expression into a term.

    Arity is enforced structurally; scoping and sorts are the job of
    check_well_formed.
    """
    form, rest = _read_form(text, "input")
    if rest:
        raise ParseError(f"trailing tokens after form: {' '.join(rest)!r}")
    return _form_to_term(form)


def pretty(t: Term) -> str:
    """Canonical single-spaced S-expression; parse(pretty(t)) == t.

    Arguments wait on an explicit stack, so any depth prints."""
    if not t.args:
        return t.head
    out = ["(" + t.head]
    stack = [")", *t.args[::-1]]
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            out.append(node)
        elif node.args:
            out.append(" (" + node.head)
            stack.append(")")
            stack += node.args[::-1]
        else:
            out.append(" " + node.head)
    return "".join(out)


# ---------------------------------------------------------------------------
# Values


def is_nat(v) -> bool:
    """A natural: a non-negative int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def sort_of_value(v: Value) -> Sort:
    if isinstance(v, bool):
        return Sort.BOOL
    if is_nat(v):
        return Sort.NAT
    if isinstance(v, tuple) and all(is_nat(x) for x in v):
        return Sort.LIST_NAT
    raise ParseError(f"not a kernel value: {v!r}")


# Numerals in text keep CPython's default int/str digit limit on every
# Python, whatever limit the caller has set.
NUMERAL_DIGITS = 4300


def _numeral(form: str) -> int:
    if len(form) > NUMERAL_DIGITS:
        raise ParseError(f"numeral of {len(form)} digits, past the limit of {NUMERAL_DIGITS}")
    return int(form)


def _form_to_value(form) -> Value:
    if isinstance(form, str):
        if form == "true":
            return True
        if form == "false":
            return False
        if form.isascii() and form.isdigit():
            return _numeral(form)
        raise ParseError(f"not a value atom: {form!r}")
    out = []
    for item in form:
        if not (isinstance(item, str) and item.isascii() and item.isdigit()):
            raise ParseError("list values hold plain naturals")
        out.append(_numeral(item))
    return tuple(out)


def parse_value(text: str) -> Value:
    """Read one value: a natural, true/false, or a list like (3 1 2)."""
    form, rest = _read_form(text, "value")
    if rest:
        raise ParseError(f"trailing tokens after value: {' '.join(rest)!r}")
    return _form_to_value(form)


def parse_value_list(text: str) -> tuple[Value, ...]:
    """Read a parenthesized list of values, e.g. "(0 1 2)" or "((0 1) ())"."""
    form, rest = _read_form(text, "value list")
    if rest or isinstance(form, str):
        raise ParseError("expected a parenthesized list of values")
    return tuple(_form_to_value(item) for item in form)


def format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        try:
            return str(v)
        except ValueError:  # past sys.get_int_max_str_digits(), which Decimal ignores
            from decimal import Decimal  # imported here, off every command's start-up

            return str(Decimal(v))
    return "(" + " ".join(map(format_value, v)) + ")"


# ---------------------------------------------------------------------------
# Typing


class TypedProgram(Record):
    """A term together with its checked sort and allowed free variables."""

    __slots__ = _fields = ("term", "sort", "free_vars")

    def __init__(self, term: Term, sort: Sort, free_vars: frozenset[str]):
        self.term = term
        self.sort = sort
        self.free_vars = free_vars

    def __repr__(self) -> str:
        return f"TypedProgram<{pretty(self.term)} : {self.sort.value}>"


def infer_sort(t: Term, scope: frozenset[str] | set[str]) -> Sort:
    """Infer the unique sort of a term, checking arity and scoping along the way.

    Binders extend the ambient scope lexically (inner binders shadow), so
    e.g. a precnat step may still mention n. Each argument is checked as
    soon as its sort is known, left to right, on an explicit stack.
    """
    # One frame per open node: [node, spec, scope, index of the argument
    # being checked, the node's sort], which for `if` is its first branch's.
    # An error's path is the frames' argument indices.
    frames: list[list] = []
    node = t
    while True:
        spec = OPS.get(node.head)
        if spec is None:
            raise UnknownConstructorError(node.head)
        if len(node.args) != spec.arity:
            raise ParseError(f"{node.head!r} takes {spec.arity} arguments, got {len(node.args)}")
        if spec.is_variable and node.head not in scope:
            raise UnboundVariableError(node.head, tuple([frame[3] for frame in frames]))
        if node.args:
            frames.append([node, spec, scope, 0, spec.result])
            scope = scope.union(spec.params[0].binders)
            node = node.args[0]
            continue
        found = spec.result
        while frames:
            parent, spec, scope, i, result = frame = frames[-1]
            want = spec.params[i].sort or result
            if want is None:
                frame[4] = found
            elif found is not want:
                raise SortMismatchError(tuple([frame[3] for frame in frames]), want, found)
            if i + 1 < spec.arity:
                frame[3] = i = i + 1
                scope = scope.union(spec.params[i].binders)
                node = parent.args[i]
                break
            found = frame[4]
            frames.pop()
        else:
            return found


def check_well_formed(t: Term, expected: Sort, free_vars: Iterable[str]) -> TypedProgram:
    """Accept t iff it has sort `expected` using only the given free variables."""
    allowed = frozenset(free_vars)
    unknown = allowed - VAR_SORTS.keys()
    if unknown:
        raise ValueError(f"not kernel variables: {sorted(unknown)}")
    found = infer_sort(t, allowed)
    if found is not expected:
        raise SortMismatchError((), expected, found)
    return TypedProgram(t, expected, allowed)
