"""Refutation of total-function classifiers by diagonalization."""

from itertools import islice

import pytest

from diagforge import enumeration, machines, refuter
from diagforge.enumeration import Tier
from diagforge.errors import EmptyClassifierError, ResourceExhaustedError
from diagforge.interp import EvalBudget, compile_term, evaluate
from diagforge.kernel import Sort, check_well_formed, parse, pretty
from diagforge.machines import Base, diagonal, witness_rows
from diagforge.refuter import (
    AcceptAll,
    AcceptNone,
    MaxSize,
    ProgramDecider,
    accepted_prefix,
)


def decider(text):
    return ProgramDecider(check_well_formed(parse(text), Sort.NAT, {"n"}))


def witnesses(c, count):
    """The refutation's rows: witness_rows on the accepted prefix, as the
    refute command prints them."""
    return list(witness_rows(accepted_prefix(c, Tier.NATFN, count), count))


def test_maxsize_accepts_exactly_the_small_programs():
    machine = accepted_prefix(MaxSize(1), Tier.NATFN, 2)
    assert [(i, pretty(p.term)) for i, p in machine.programs] == [(1, "n"), (2, "zero")]
    assert machine.label == "accepted(maxsize:1, natfn)"
    # nothing of size 1 remains: the third accepted program does not exist
    with pytest.raises(EmptyClassifierError):
        accepted_prefix(MaxSize(1), Tier.NATFN, 3, horizon=200)


def test_accept_all_is_the_plain_enumeration():
    accepted = accepted_prefix(AcceptAll(), Tier.NATFN, 50).programs
    stream = list(islice(enumeration.enumerate_stream(Tier.NATFN), 50))
    assert [i for i, _ in accepted] == list(range(1, 51))
    assert [p for _, p in accepted] == stream


def test_accept_none_is_empty():
    # nothing is ever accepted, so emptiness is observed through the
    # bounded scan of the underlying enumeration
    with pytest.raises(EmptyClassifierError) as excinfo:
        accepted_prefix(AcceptNone(), Tier.NATFN, 1, horizon=300)
    assert excinfo.value.horizon == 300
    assert excinfo.value.found == 0


def test_refute_maxsize_1():
    machine = accepted_prefix(MaxSize(1), Tier.NATFN, 2)
    assert [(w.index, w.fn_at_n, w.g_at_n) for w in witness_rows(machine, 2)] == [(1, 1, 2), (2, 0, 1)]
    assert [pretty(p.term) for _, p in machine.programs] == ["n", "zero"]


def test_refute_diag_runs_over_accepted_positions():
    # maxsize:2 accepts n, zero, (succ n), (succ zero); position 3 is (succ n)
    machine = accepted_prefix(MaxSize(2), Tier.NATFN, 4)
    rows = list(witness_rows(machine, 4))
    assert [w.fn_at_n for w in rows] == [1, 0, 4, 1]
    assert all(w.g_at_n == w.fn_at_n + 1 for w in rows)
    assert diagonal(machine)(3) == 5


def test_constant_reject_decider_is_empty():
    with pytest.raises(EmptyClassifierError):
        accepted_prefix(decider("zero"), Tier.NATFN, 1, horizon=500)


def test_constant_accept_decider_reproduces_plain_diagonal():
    assert witnesses(decider("(succ zero)"), 40) == list(witness_rows(Base(Tier.NATFN), 40))


def test_program_backed_deciders_filter_by_output():
    # accept even indices only: n mod 2 via precnat flip-flop is overkill;
    # use (mul n n) != 0 <=> n != 0, so this accepts every index >= 1
    assert [w.index for w in witnesses(decider("(mul n n)"), 3)] == [1, 2, 3]


def test_monotone_consistency():
    assert witnesses(MaxSize(3), 14)[:4] == witnesses(MaxSize(3), 4)


def test_refute_rejects_bad_count():
    with pytest.raises(ValueError):
        accepted_prefix(AcceptAll(), Tier.NATFN, 0)


def test_refute_evaluates_each_accepted_program_once(monkeypatch):
    calls = []

    def counting(program, n, budget=None):
        calls.append(n)
        return evaluate(program, n, budget)

    def unranking(tier, i):
        raise AssertionError(f"refute unranked index {i}")

    monkeypatch.setattr(machines, "evaluate", counting)
    monkeypatch.setattr(machines, "program_at", unranking)
    machine = accepted_prefix(AcceptAll(), Tier.FULL, 400)
    assert len(list(witness_rows(machine, 400))) == 400
    assert calls == list(range(1, 401))
    assert machine.programs == tuple(enumerate(islice(enumeration.enumerate_stream(Tier.FULL), 400), start=1))


def test_a_scan_compiles_its_decider_once(monkeypatch):
    compiled = []

    def counting(term):
        compiled.append(term)
        return compile_term(term)

    monkeypatch.setattr(refuter, "compile_term", counting)
    c = decider("(precnat zero (if (lt acc (succ zero)) (succ zero) zero) n)")  # accepts odd indices
    machine = accepted_prefix(c, Tier.FULL, 50)
    assert compiled == [c.decider.term]
    assert [i for i, _ in machine.programs] == list(range(1, 100, 2))
    assert [i for i in range(1, 100) if evaluate(c.decider, i)] == list(range(1, 100, 2))


def test_decider_budget_is_spent_per_index():
    # each index runs the decider under the full budget, as evaluate would
    steps = EvalBudget(max_steps=40)
    c = decider("(precnat zero (succ acc) n)")  # 2n + 3 steps, index i accepted iff i > 0
    evaluate(c.decider, 18, steps)
    with pytest.raises(ResourceExhaustedError):
        evaluate(c.decider, 19, steps)
    assert [i for i, _ in accepted_prefix(c, Tier.NATFN, 18, budget=steps).programs] == list(range(1, 19))
    with pytest.raises(ResourceExhaustedError):
        accepted_prefix(c, Tier.NATFN, 19, budget=steps)


def test_refute_diag_is_the_accepted_prefix_diagonal():
    diag = diagonal(accepted_prefix(MaxSize(2), Tier.NATFN, 4))
    assert diag.name == "diag(accepted(maxsize:2, natfn))"
    assert diag(0) == diag(1)
    with pytest.raises(ValueError):
        diag(5)
