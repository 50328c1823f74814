"""Diagonal construction, machine extension, and witness rows."""

import sys

import pytest

from diagforge import machines
from diagforge.enumeration import Tier, program_at
from diagforge.errors import ResourceExhaustedError
from diagforge.interp import EvalBudget, evaluate
from diagforge.kernel import pretty
from diagforge.machines import (
    Base,
    Extend,
    Witness,
    diagonal,
    extend,
    function_at,
    iterate,
    witness_rows,
)

BASE = Base(Tier.NATFN)


def test_base_stream_starts_with_identity_and_zero():
    f1 = function_at(BASE, 1)
    f2 = function_at(BASE, 2)
    assert [f1(k) for k in range(5)] == [0, 1, 2, 3, 4]
    assert [f2(k) for k in range(5)] == [0, 0, 0, 0, 0]
    assert (f1.name, f2.name, function_at(BASE, 3).name) == ("n", "zero", "(succ n)")


def test_diagonal_values_against_base():
    g = diagonal(BASE)
    assert g(1) == 2  # f_1 is the identity
    assert g(2) == 1  # f_2 is constant zero
    assert g(0) == g(1)
    assert g.name == "diag(base(natfn))"


def test_diagonal_is_plus_one_pointwise():
    g = diagonal(BASE)
    for n in range(1, 201):
        assert g(n) == function_at(BASE, n)(n) + 1


def test_witness_table_rows():
    rows = list(witness_rows(BASE, 2))
    assert [(w.index, w.fn_at_n, w.g_at_n) for w in rows] == [(1, 1, 2), (2, 0, 1)]
    for w in witness_rows(BASE, 500):
        assert w.g_at_n == w.fn_at_n + 1
        assert w.g_at_n != w.fn_at_n


def test_witness_row_invariant_is_enforced():
    with pytest.raises(ValueError):
        Witness(1, 3, 3)


def test_extend_prepends():
    g = diagonal(BASE)
    m = extend(BASE, g)
    assert function_at(m, 1) is g
    for k in range(1, 101):
        assert function_at(m, k + 1)(k) == function_at(BASE, k)(k)
    g2 = diagonal(m)
    assert g2(1) == g(1) + 1
    assert list(witness_rows(m, 1)) == [Witness(1, g(1), g(1) + 1)]


def test_extend_twice_prepends_in_order():
    g1 = diagonal(BASE)
    m1 = extend(BASE, g1)
    g2 = diagonal(m1)
    m2 = extend(m1, g2)
    assert function_at(m2, 1) is g2
    assert function_at(m2, 2) is g1
    assert function_at(m2, 3)(7) == function_at(BASE, 1)(7)


def test_iterate_unrolls_extension():
    (m0, g1), (m1, g2) = iterate(BASE, 2)
    assert m0 is BASE and g1(1) == diagonal(BASE)(1)
    assert isinstance(m1, Extend) and m1.inner is BASE and m1.prepended == (g1,)
    assert g2.name == "diag(extend(base(natfn), +1))"

    gs = [g for _, g in iterate(BASE, 5)]
    for i in range(1, 5):
        assert gs[i](1) == gs[i - 1](1) + 1
    tables = [[g(n) for n in range(1, 6)] for g in gs]
    for i in range(5):
        for j in range(i + 1, 5):
            assert tables[i] != tables[j]


def test_memoization_is_transparent():
    g = diagonal(BASE)
    assert g(7) == g(7)
    assert list(witness_rows(BASE, 10)) == list(witness_rows(BASE, 10))


def test_concurrent_queries_agree():
    from concurrent.futures import ThreadPoolExecutor

    g = diagonal(BASE)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(g, [n % 40 for n in range(400)]))
    assert results == [g(n % 40) for n in range(400)]


def _names(tier, indices):
    return [pretty(program_at(tier, i).term) for i in indices]


@pytest.mark.parametrize("tier", list(Tier))
def test_streamed_base_equals_unranking(tier, monkeypatch):
    unranked = []

    def counting_program_at(tier, i):
        unranked.append(i)
        return program_at(tier, i)

    monkeypatch.setattr(machines, "program_at", counting_program_at)
    m = Base(tier)
    assert [function_at(m, i).name for i in range(1, 301)] == _names(tier, range(1, 301))
    assert unranked == []  # in order, every program comes from the stream
    # a skip ahead unranks, and the stream goes on where it stopped
    order = [400, 301, 302, 350, 303, 304]
    assert [function_at(m, i).name for i in order] == _names(tier, order)
    assert unranked == [400, 350]
    assert [function_at(m, i)(i) for i in order] == [evaluate(program_at(tier, i), i) for i in order]


def test_concurrent_queries_on_a_fresh_base_agree():
    from concurrent.futures import ThreadPoolExecutor

    indices = [i for i in range(1, 601) for _ in range(3)]
    expected = _names(Tier.FULL, range(1, 601))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            m = Base(Tier.FULL)
            with ThreadPoolExecutor(max_workers=8) as pool:
                fns = list(pool.map(lambda i: function_at(m, i), indices, timeout=60))
            assert [f.name for f in fns[::3]] == expected
            # one function per index, whichever thread made it
            assert all(fns[k] is fns[k + 1] is fns[k + 2] is function_at(m, indices[k]) for k in range(0, len(fns), 3))
    finally:
        sys.setswitchinterval(interval)


def test_budget_exhaustion_reports_index():
    with pytest.raises(ResourceExhaustedError) as excinfo:
        list(witness_rows(Base(Tier.NATFN, EvalBudget(max_steps=1)), 3))
    assert excinfo.value.index == 3  # f_3 = (succ n) needs two steps
