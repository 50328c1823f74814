"""Syntax, sizes, and typing of the kernel language."""

import pytest
from hypothesis import given

from diagforge.enumeration import Tier, index_of
from diagforge.errors import (
    DiagforgeError,
    NotInTierError,
    ParseError,
    SortMismatchError,
    UnboundVariableError,
    UnknownConstructorError,
)
from diagforge.kernel import (
    OP_TABLE,
    RANKS,
    Sort,
    Term,
    check_well_formed,
    format_value,
    infer_sort,
    parse,
    parse_value,
    parse_value_list,
    pretty,
    rank_seq,
    size,
    sort_of_value,
)
from diagforge.interp import EvalBudget, compile_term
from diagforge.machines import Base, Subsequence, Witness
from diagforge.refuter import AcceptAll, AcceptNone, MaxSize
from diagforge.spaces import absorb, new_space
from diagforge.synthesis import GoalSpec
from oracles import OPERATORS, VARIABLES
from strategies import terms


def test_ranks_are_the_documented_table():
    # A rank is a position in OP_TABLE; the reference grammar states each one.
    documented = {name: spec[0] for name, spec in {**VARIABLES, **OPERATORS}.items()}
    assert RANKS == documented == {spec.name: i for i, spec in enumerate(OP_TABLE)}
    assert [spec.name for spec in OP_TABLE] == [
        "n", "zero", "succ", "add", "mul", "precnat", "nil", "cons", "first",
        "rest", "append", "len", "lt", "if", "filter", "pivotrec",
        "x", "acc", "idx", "pivot", "l", "r",
    ]


def test_parse_simple_forms():
    assert parse("(succ n)") == Term("succ", (Term("n"),))
    assert parse("(append l (cons pivot r))") == Term(
        "append", (Term("l"), Term("cons", (Term("pivot"), Term("r"))))
    )


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse("(succ")
    with pytest.raises(ParseError):
        parse("(succ n))")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("()")
    with pytest.raises(UnknownConstructorError):
        parse("(frobnicate n)")
    with pytest.raises(ParseError):
        parse("(zero)")  # nullary constructors are written bare
    with pytest.raises(ParseError):
        parse("(succ n zero)")  # arity


def test_pretty_is_canonical():
    assert pretty(parse("(succ n)")) == "(succ n)"
    assert pretty(Term("zero")) == "zero"
    assert pretty(parse("(precnat zero (succ (succ acc)) n)")) == "(precnat zero (succ (succ acc)) n)"
    assert pretty(parse("  ( succ   ( succ n ) ) ")) == "(succ (succ n))"


def test_pretty_prints_any_depth():
    depth = 10**4
    term = Term("n")
    for _ in range(depth):
        term = Term("succ", (term,))
    assert pretty(term) == "(succ " * depth + "n" + ")" * depth


def test_size_counts_every_node():
    assert size(parse("n")) == 1
    assert size(parse("(succ n)")) == 2
    assert size(parse("(append l (cons pivot r))")) == 5
    assert size(parse("(pivotrec l (lt x pivot) (lt pivot x) (append l (cons pivot r)))")) == 13


def test_rank_seq_is_preorder():
    assert rank_seq(parse("(add n zero)")) == (3, 0, 1)
    assert rank_seq(parse("(precnat zero (succ acc) n)")) == (5, 1, 2, 17, 0)


def test_check_well_formed_accepts():
    p = check_well_formed(parse("(succ n)"), Sort.NAT, {"n"})
    assert p.sort is Sort.NAT and p.free_vars == frozenset({"n"})
    check_well_formed(parse("(lt x pivot)"), Sort.BOOL, {"x", "pivot"})
    check_well_formed(
        parse("(pivotrec l (lt x pivot) (lt pivot x) (append l (cons pivot r)))"),
        Sort.LIST_NAT,
        {"l"},
    )
    # binders extend the ambient scope: a precnat step may mention n
    check_well_formed(parse("(precnat zero (add acc n) n)"), Sort.NAT, {"n"})


def test_unbound_variables_are_rejected():
    with pytest.raises(UnboundVariableError):
        check_well_formed(parse("(lt x pivot)"), Sort.BOOL, set())
    # filter binds x only; pivot stays unbound in its predicate
    with pytest.raises(UnboundVariableError):
        check_well_formed(parse("(filter l (lt x pivot))"), Sort.LIST_NAT, {"l"})
    with pytest.raises(ValueError):
        check_well_formed(parse("n"), Sort.NAT, {"n", "bogus"})


def test_sort_mismatches_are_rejected():
    with pytest.raises(SortMismatchError) as excinfo:
        check_well_formed(parse("(append n nil)"), Sort.LIST_NAT, {"n"})
    assert excinfo.value.expected is Sort.LIST_NAT
    assert excinfo.value.found is Sort.NAT
    assert excinfo.value.path == (0,)
    with pytest.raises(SortMismatchError):
        check_well_formed(parse("(succ n)"), Sort.LIST_NAT, {"n"})
    with pytest.raises(SortMismatchError):
        check_well_formed(parse("(if (lt n zero) n nil)"), Sort.NAT, {"n"})
    # if branches may take any sort as long as they agree
    check_well_formed(parse("(if (lt n zero) nil (cons n nil))"), Sort.LIST_NAT, {"n"})


# Ill-formed terms: (term, expected sort, free variables, exception class,
# its path or None, its message). Each is the first error in pre-order,
# with each argument checked as soon as its sort is known.
ILL_FORMED = [
    (Term("frob", (Term("n"),)), Sort.NAT, {"n"}, UnknownConstructorError, None, "unknown constructor: 'frob'"),
    ("x", Sort.NAT, {"n"}, UnboundVariableError, (), "unbound variable 'x' at []"),
    ("(precnat zero (add acc x) n)", Sort.NAT, {"n"}, UnboundVariableError, (1, 1), "unbound variable 'x' at [1, 1]"),
    ("(filter l (lt x pivot))", Sort.LIST_NAT, {"l"}, UnboundVariableError, (1, 1),
     "unbound variable 'pivot' at [1, 1]"),
    ("(pivotrec l (lt x pivot) (lt pivot x) (cons idx r))", Sort.LIST_NAT, {"l"}, UnboundVariableError, (3, 0),
     "unbound variable 'idx' at [3, 0]"),
    # pivotrec's pivot does not reach its first argument, where a filter
    # binds x alone.
    ("(pivotrec (filter l (lt x pivot)) (lt x pivot) (lt pivot x) l)", Sort.LIST_NAT, {"l"}, UnboundVariableError,
     (0, 1, 1), "unbound variable 'pivot' at [0, 1, 1]"),
    ("(succ (add n (first (cons n n))))", Sort.NAT, {"n"}, SortMismatchError, (0, 1, 0, 1),
     "sort mismatch at [0, 1, 0, 1]: expected listnat, found nat"),
    ("(if n zero n)", Sort.NAT, {"n"}, SortMismatchError, (0,), "sort mismatch at [0]: expected bool, found nat"),
    ("(if (lt n n) zero nil)", Sort.NAT, {"n"}, SortMismatchError, (2,),
     "sort mismatch at [2]: expected nat, found listnat"),
    (Term("add", (Term("n"),)), Sort.NAT, {"n"}, ParseError, None, "'add' takes 2 arguments, got 1"),
    ("(add (succ n) nil)", Sort.NAT, {"n"}, SortMismatchError, (1,), "sort mismatch at [1]: expected nat, found listnat"),
    (Term("add", (Term("nil"), Term("frob"))), Sort.NAT, {"n"}, SortMismatchError, (0,),
     "sort mismatch at [0]: expected nat, found listnat"),
    (Term("add", (Term("frob"), Term("nil"))), Sort.NAT, {"n"}, UnknownConstructorError, None,
     "unknown constructor: 'frob'"),
    ("(cons n nil)", Sort.NAT, {"n"}, SortMismatchError, (), "sort mismatch at []: expected nat, found listnat"),
]


@pytest.mark.parametrize("row", ILL_FORMED, ids=lambda row: pretty(row[0]) if isinstance(row[0], Term) else row[0])
def test_ill_formed_terms_raise_their_first_error(row):
    term, expected, free_vars, error, path, message = row
    term = parse(term) if isinstance(term, str) else term
    checks = [lambda: check_well_formed(term, expected, free_vars)]
    if not (error is SortMismatchError and path == ()):  # check_well_formed's own
        checks.append(lambda: infer_sort(term, frozenset(free_vars)))
    for check in checks:
        with pytest.raises(DiagforgeError) as excinfo:
            check()
        assert type(excinfo.value) is error
        assert getattr(excinfo.value, "path", None) == path
        assert str(excinfo.value) == message


# Malformed texts: (reader, text, message). Every one raises ParseError
# itself, except where the row names UnknownConstructorError.
MALFORMED_TEXTS = [
    (parse, "(succ", "unbalanced form: missing ')'"),
    (parse, ")", "unexpected ')'"),
    (parse, "(succ n))", "trailing tokens after form: ')'"),
    (parse, "", "empty input"),
    (parse, "(succ n) zero", "trailing tokens after form: 'zero'"),
    (parse, "()", "empty form '()'"),
    (parse, "((succ) n)", "form head must be a constructor name"),
    (parse, "(zero n)", "'zero' takes no arguments; write it bare"),
    (parse, "(succ n zero)", "'succ' takes 1 arguments, got 2"),
    (parse, "succ", "'succ' takes 1 arguments, got none"),
    # The whole form is read before any node is converted.
    (parse, "(frob n) zero", "trailing tokens after form: 'zero'"),
    (parse, "(add (frob n) (zero n))", "unknown constructor: 'frob'"),
    (parse, "(add (succ n zero) (frob n))", "'succ' takes 1 arguments, got 2"),
    (parse_value, "", "empty value"),
    (parse_value, "(1 (2))", "list values hold plain naturals"),
    (parse_value, "1 2", "trailing tokens after value: '2'"),
    (parse_value, "-3", "not a value atom: '-3'"),
    (parse_value, "((1)", "unbalanced form: missing ')'"),
    (parse_value_list, "", "empty value list"),
    (parse_value_list, "3", "expected a parenthesized list of values"),
    (parse_value_list, "(1) 2", "expected a parenthesized list of values"),
    (parse_value_list, ")", "unexpected ')'"),
    (parse_value_list, "((1 (2)))", "list values hold plain naturals"),
    # Numerals are ASCII digits: int() would read these, or fail with a
    # Python message.
    (parse_value, "\u0663", "not a value atom: '\u0663'"),
    (parse_value, "\u00b2", "not a value atom: '\u00b2'"),
    (parse_value, "(1 \u0663)", "list values hold plain naturals"),
    (parse_value_list, "((\u00b2))", "list values hold plain naturals"),
]


@pytest.mark.parametrize("reader, text, message", MALFORMED_TEXTS, ids=lambda x: getattr(x, "__name__", None))
def test_malformed_texts_raise_their_first_error(reader, text, message):
    with pytest.raises(ParseError) as excinfo:
        reader(text)
    unknown = message.startswith("unknown constructor")
    assert type(excinfo.value) is (UnknownConstructorError if unknown else ParseError)
    assert str(excinfo.value) == message


@given(terms(max_size=12))
def test_round_trip_nat_programs(t):
    assert parse(pretty(t)) == t


@given(terms(sort=Sort.LIST_NAT, scope=frozenset({"l"}), max_size=12))
def test_round_trip_list_programs(t):
    assert parse(pretty(t)) == t


def test_value_syntax_round_trip():
    for text, value in [("5", 5), ("0", 0), ("true", True), ("false", False),
                        ("()", ()), ("(3 1 2)", (3, 1, 2))]:
        assert parse_value(text) == value
        assert parse_value(format_value(value)) == value
    assert parse_value_list("(0 1 2)") == (0, 1, 2)
    assert parse_value_list("((0 1) ())") == ((0, 1), ())
    with pytest.raises(ParseError):
        parse_value("(1 (2))")
    with pytest.raises(ParseError):
        parse_value("-3")


def test_sort_of_value_accepts_only_kernel_values():
    assert sort_of_value(0) is Sort.NAT and sort_of_value(True) is Sort.BOOL
    assert sort_of_value(()) is sort_of_value((3, 0)) is Sort.LIST_NAT
    for bad in (-1, (1, "b"), (-1, 2), (True,), ((1,),), [1], "1", None):
        with pytest.raises(ParseError):
            sort_of_value(bad)


def _succ_chain(depth, leaf):
    term = Term(leaf)
    for _ in range(depth):
        term = Term("succ", (term,))
    return term


def test_deep_terms_parse_and_type():
    term = _succ_chain(10**4, "n")
    assert parse(pretty(term)) == term
    assert infer_sort(term, {"n"}) is Sort.NAT
    assert check_well_formed(term, Sort.NAT, {"n"}).term is term


def test_variable_with_arguments_is_rejected():
    # Only a term built without parse can give a variable arguments.
    term = Term("succ", (Term("n", (Term("zero"),)),))
    message = "'n' takes 0 arguments, got 1"
    with pytest.raises(ParseError, match=message):
        check_well_formed(term, Sort.NAT, {"n"})
    with pytest.raises(NotInTierError):
        index_of(Tier.NATFN, term)
    with pytest.raises(ParseError, match=message):
        absorb(new_space((0, 1)), term)


def test_deep_terms_compare_and_hash():
    a, b = _succ_chain(10_000, "zero"), _succ_chain(10_000, "zero")
    other = _succ_chain(10_000, "n")
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


def test_records_keep_dataclass_semantics():
    assert AcceptAll() != AcceptNone() and AcceptAll() == AcceptAll()
    assert MaxSize(3) != (3,) and MaxSize(bound=3) == MaxSize(3)
    # A term's kept code is not compared or hashed.
    term, copy = parse("(precnat n (add acc idx) n)"), parse("(precnat n (add acc idx) n)")
    code = compile_term(term)
    assert compile_term(term) is code and compile_term(copy) is not code
    assert term == copy and hash(term) == hash(copy)
    base = Base(Tier.NATFN)
    base._fns[1] = None
    assert base == Base(tier=Tier.NATFN) and repr(base) == "Base(tier=<Tier.NATFN: 'natfn'>, budget=None)"
    subsequence = Subsequence((), "s")
    subsequence._fns[1] = None
    assert subsequence == Subsequence(programs=(), label="s")
    with pytest.raises(ValueError):
        EvalBudget(max_steps=0)
    with pytest.raises(ValueError):
        GoalSpec(Sort.NAT, Sort.NAT, ((1, 2),), (0,))
    with pytest.raises(ValueError):
        Witness(1, 2, 4)
    assert repr(parse("(succ n)")) == "Term<(succ n)>"
