"""Diagonal construction, machine extension, and witness rows."""

import gc
import sys
from itertools import islice

import pytest

from diagforge import interp, machines
from diagforge.enumeration import Tier, program_at
from diagforge.errors import ResourceExhaustedError
from diagforge.interp import EvalBudget, compile_node, compile_term, evaluate, run_probes, runner, slot_vector
from diagforge.kernel import parse, pretty
from diagforge.machines import (
    Base,
    Extend,
    Subsequence,
    Witness,
    describe,
    diagonal,
    extend,
    function_at,
    iterate,
    witness_rows,
)
from oracles import Exhausted, eval_budgeted

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


def _outcomes(code, budget, vectors):
    """code's value on each slot vector, or (reason, steps used) where it runs out."""
    try:
        return list(run_probes(code, vectors, budget))
    except ResourceExhaustedError:
        pass
    out = []
    for vector in vectors:
        try:
            out.append(next(run_probes(code, [vector], budget)))
        except ResourceExhaustedError as exc:
            out.append((exc.reason, exc.steps_used))
    return out


def _looped(term):
    """The term's code with every precnat run as a plain loop, with no closed form."""
    args = [_looped(a) for a in term.args]
    return interp._precnat(*args, None) if term.head == "precnat" else compile_node(term.head, args)


@pytest.mark.parametrize("tier", list(Tier))
def test_streamed_code_runs_as_a_fresh_compile(tier):
    # Each program a Base machine reads from its stream comes with code the
    # walk built node by node, which compile_term returns. On inputs 0-12
    # it runs as compile_term of an equal, freshly parsed term, under the
    # default budget and a small one; under the small one both run as the
    # term with every precnat looped, so a closed form chosen from the wrong
    # argument shows on either side.
    vectors = [slot_vector({"n": n}) for n in range(13)]
    small = EvalBudget(50, 64)
    m = Base(tier)
    for i in range(1, 20_001):
        term = m._program(i).term
        assert term._code is not None, i
        fresh = parse(pretty(term))
        for budget in (None, small):
            want = _outcomes(compile_term(fresh), budget, vectors)
            assert _outcomes(compile_term(term), budget, vectors) == want, (i, pretty(term), budget)
        assert _outcomes(_looped(fresh), small, vectors) == want, (i, pretty(term))


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


def test_concurrent_rows_and_functions_on_a_fresh_base_agree():
    # Each witness table runs on its own runner: a slot vector or fuel
    # object shared between threads would give some row another row's value.
    from concurrent.futures import ThreadPoolExecutor

    expected = [(w.index, w.fn_at_n, w.g_at_n) for w in witness_rows(Base(Tier.FULL), 600)]

    def read(m, k):
        if k % 2:
            return [(w.index, w.fn_at_n, w.g_at_n) for w in witness_rows(m, 600)]
        return [(n, function_at(m, n)(n), function_at(m, n)(n) + 1) for n in range(1, 601)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            m = Base(Tier.FULL)
            with ThreadPoolExecutor(max_workers=8) as pool:
                tables = list(pool.map(lambda k: read(m, k), range(8), timeout=60))
            assert all(table == expected for table in tables)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_rows_and_functions_on_a_fresh_extension_agree():
    # An extension's rows fill its own memo and its base's functions read it
    # back: eight threads on one fresh extension must each see the same rows.
    from concurrent.futures import ThreadPoolExecutor

    def rows(m):
        return [(w.index, w.fn_at_n, w.g_at_n) for w in witness_rows(m, 300)]

    def read(m, k):
        if k % 2:
            return rows(m)
        return [(n, function_at(m, n)(n), function_at(m, n)(n) + 1) for n in range(1, 301)]

    expected = rows(_extended_twice())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            m = _extended_twice()
            with ThreadPoolExecutor(max_workers=8) as pool:
                tables = list(pool.map(lambda k: read(m, k), range(8), timeout=60))
            assert all(table == expected for table in tables)
    finally:
        sys.setswitchinterval(interval)


def _extended_twice():
    (_, _), (m1, g2) = iterate(Base(Tier.FULL), 2)
    return extend(m1, g2)


def _outcome(run):
    """A value, or the exhaustion as (reason, steps_used, at)."""
    try:
        return run()
    except (ResourceExhaustedError, Exhausted) as exc:
        return (exc.reason, exc.steps_used, exc.at)


def _row_cases(budget):
    """(machine, its rows' (program, argument, added) triples): a Base in
    each tier, a Subsequence and an Extend, whose first row is the inner
    diagonal's g(1) = f_1(1) + 1."""
    programs = _subsequence().programs
    inner = Base(Tier.NATFN, budget)
    return [
        (Base(Tier.NATFN, budget), [(program_at(Tier.NATFN, n), n, 0) for n in range(1, 301)]),
        (Base(Tier.FULL, budget), [(program_at(Tier.FULL, n), n, 0) for n in range(1, 301)]),
        (Subsequence(programs, "every fourth", budget), [(p, n, 0) for n, (_, p) in enumerate(programs, 1)]),
        (extend(inner, diagonal(inner)), [(program_at(Tier.NATFN, max(n - 1, 1)), n, n == 1) for n in range(1, 301)]),
    ]


@pytest.mark.parametrize("budget", [EvalBudget(1), EvalBudget(2), EvalBudget(3), EvalBudget(5), EvalBudget(12),
                                    EvalBudget(60), EvalBudget(1000, 12), EvalBudget(1000), None])
def test_witness_rows_evaluate_as_evaluate_and_the_reference(budget):
    # Each row's value, or the exhaustion that ends the rows, is what
    # interp.evaluate gives on its program, and what the independent tree
    # walk gives, running out at the row's index.
    limits = budget or EvalBudget()
    for m, triples in _row_cases(budget):
        got = []
        try:
            for w in witness_rows(m, len(triples)):
                got.append((w.fn_at_n, w.g_at_n))
        except ResourceExhaustedError as exc:
            got.append((exc.reason, exc.steps_used, exc.at))
        want, reference = [], []
        for n, (program, argument, added) in enumerate(triples, 1):
            value = _outcome(lambda: evaluate(program, argument, budget) + added)
            oracle = _outcome(
                lambda: eval_budgeted(program.term, {"n": argument}, limits.max_steps, limits.max_value_bits) + added
            )
            if isinstance(value, int):
                want.append((value, value + 1))
                reference.append((oracle, oracle + 1) if isinstance(oracle, int) else oracle)
            else:
                want.append(value[:2] + (f"index {n}",))
                reference.append(oracle[:2] + (f"index {n}",))
                break
        assert got == want == reference, (describe(m), budget)


def test_rows_past_the_end_of_a_subsequence_name_the_index():
    rows = witness_rows(_subsequence(), 61)
    assert [w.index for w in islice(rows, 60)] == list(range(1, 61))
    with pytest.raises(ValueError, match="stream index 61 is past the end of every fourth"):
        next(rows)


def test_budget_exhaustion_reports_index():
    with pytest.raises(ResourceExhaustedError) as excinfo:
        list(witness_rows(Base(Tier.NATFN, EvalBudget(max_steps=1)), 3))
    assert excinfo.value.at == "index 3"  # f_3 = (succ n) needs two steps


def _subsequence():
    return Subsequence(tuple((i, program_at(Tier.FULL, i)) for i in range(1, 241, 4)), "every fourth")


def _extended_base():
    base = Base(Tier.NATFN)
    return extend(base, diagonal(base))


@pytest.mark.parametrize("make", [lambda: Base(Tier.FULL), _subsequence, _extended_base], ids=["base", "subsequence", "extend"])
@pytest.mark.parametrize("rows_first", [True, False], ids=["rows-first", "function-first"])
def test_each_stream_value_is_evaluated_once(make, rows_first, monkeypatch):
    # Whichever of the rows and function_at asks for f_n(n) first evaluates
    # it, the other reads it back, and neither unranks. Rows run kept code
    # through a runner, each named here by the term that keeps it;
    # function_at, and an Extend's prepended diagonal, evaluate.
    m = make()
    calls = []

    def counting(program, n, budget=None):
        calls.append((pretty(program.term), n))
        return evaluate(program, n, budget)

    def counting_runner(budget):
        run = runner(budget)

        def counted(code, n):
            calls.append((next(pretty(t) for t in m._terms if t._code is code), n))
            return run(code, n)

        return counted

    def unranking(tier, i):
        raise AssertionError(f"unranked index {i}")

    monkeypatch.setattr(machines, "evaluate", counting)
    monkeypatch.setattr(machines, "runner", counting_runner)
    monkeypatch.setattr(machines, "program_at", unranking)
    rows = lambda: [w.fn_at_n for w in witness_rows(m, 60)]
    functions = lambda: [function_at(m, n)(n) for n in range(1, 61)]
    first, second = (rows, functions) if rows_first else (functions, rows)
    values = first()
    assert len(calls) == len(set(calls)) == 60
    assert second() == values and len(calls) == 60
    assert [n for _, n in calls] == list(range(1, 61))
    assert [function_at(m, n).name for n in range(2, 61)] == [text for text, _ in calls[1:]]


def test_a_machine_is_not_a_reference_cycle():
    # A machine, with every program, value and function it keeps, is freed
    # by reference counting alone: the collector finds nothing to do.
    gc.collect()
    gc.disable()
    try:
        m = Base(Tier.NATFN)
        rows = list(witness_rows(m, 300))
        names = [function_at(m, i).name for i in range(1, 301)]
        del m
        collected = gc.collect()
    finally:
        gc.enable()
    assert (len(rows), len(names), collected) == (300, 300, 0)
