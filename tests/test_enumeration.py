"""Canonical enumeration: ordering, bijection, completeness, stability."""

import hashlib
import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diagforge import enumeration
from diagforge.enumeration import (
    ROOT_SCOPE,
    ROOT_SORT,
    TIER_OPS,
    Tier,
    enumerate_stream,
    index_of,
    program_at,
    sized_stream,
    sized_texts,
    walk_layer,
)
from diagforge.errors import NotInTierError
from diagforge.kernel import Sort, Term, canonical_key, infer_sort, parse, pretty, rank_seq, size
from diagforge.synthesis import LIST_BASE, NAT_BASE
from oracles import all_nat_terms, canonical_terms, nat_terms_of_size


def stream_prefix(tier, count):
    return [p.term for p in islice(enumerate_stream(tier), count)]


def test_stream_prefix_is_the_documented_one():
    got = [pretty(t) for t in stream_prefix(Tier.NATFN, 14)]
    assert got == [
        "n",
        "zero",
        "(succ n)",
        "(succ zero)",
        # all size-3 terms, in rank order
        "(succ (succ n))",
        "(succ (succ zero))",
        "(add n n)",
        "(add n zero)",
        "(add zero n)",
        "(add zero zero)",
        "(mul n n)",
        "(mul n zero)",
        "(mul zero n)",
        "(mul zero zero)",
    ]


def test_program_at_first_indices():
    assert pretty(program_at(Tier.NATFN, 1).term) == "n"
    assert pretty(program_at(Tier.NATFN, 2).term) == "zero"
    assert pretty(program_at(Tier.NATFN, 3).term) == "(succ n)"
    with pytest.raises(ValueError):
        program_at(Tier.NATFN, 0)


def test_index_of_examples():
    assert index_of(Tier.NATFN, parse("n")) == 1
    assert index_of(Tier.NATFN, program_at(Tier.NATFN, 137)) == 137
    with pytest.raises(NotInTierError):
        index_of(Tier.NATFN, parse("(first nil)"))
    with pytest.raises(NotInTierError, match=r"natfn: node 1 in pre-order \('x', 0 arguments\) fits no program of size 2"):
        index_of(Tier.NATFN, parse("(succ x)"))  # wrong free variable
    # but (first nil) is a Nat program of the full tier
    assert index_of(Tier.FULL, parse("(first nil)")) >= 1


@given(st.integers(1, 3000))
def test_bijection_index_to_program(i):
    assert index_of(Tier.NATFN, program_at(Tier.NATFN, i)) == i


def test_bijection_program_to_index_small_sizes():
    for s in range(1, 5):
        for t in walk_layer(TIER_OPS[Tier.NATFN], ROOT_SCOPE, ROOT_SORT, s):
            i = index_of(Tier.NATFN, t)
            assert program_at(Tier.NATFN, i).term == t


def test_stream_is_duplicate_free_and_size_monotone():
    prefix = stream_prefix(Tier.NATFN, 10_000)
    assert len(set(prefix)) == len(prefix)
    sizes = [size(t) for t in prefix]
    assert sizes == sorted(sizes)


def test_matches_brute_force_generator_up_to_size_4():
    ours = {pretty(t) for s in range(1, 5) for t in walk_layer(TIER_OPS[Tier.NATFN], ROOT_SCOPE, ROOT_SORT, s)}
    assert ours == set(all_nat_terms(4))


def test_layer_sizes_match_brute_force_counts():
    for s in range(1, 7):
        assert sum(1 for _ in walk_layer(TIER_OPS[Tier.NATFN], ROOT_SCOPE, ROOT_SORT, s)) == len(nat_terms_of_size(s))


def test_full_tier_contains_natfn():
    natfn = {pretty(t) for s in range(1, 4) for t in walk_layer(TIER_OPS[Tier.NATFN], ROOT_SCOPE, ROOT_SORT, s)}
    full = {pretty(t) for s in range(1, 4) for t in walk_layer(TIER_OPS[Tier.FULL], ROOT_SCOPE, ROOT_SORT, s)}
    assert natfn < full
    assert "(first nil)" in full


def test_stream_restarts_identically():
    first = stream_prefix(Tier.NATFN, 10_000)
    second = stream_prefix(Tier.NATFN, 10_000)
    assert first == second


@pytest.mark.parametrize("tier, top", [(Tier.NATFN, 8), (Tier.FULL, 7)])
def test_counting_agrees_with_materialized_layers(tier, top):
    # The oracle's layers are built from its own grammar and sorted by
    # rank sequence, so stream, unranking and ranking are all checked
    # against an order the package did not compute.
    expected = canonical_terms(TIER_OPS[tier], {"n"}, "nat", top)
    assert len(expected) == {Tier.NATFN: 33_072, Tier.FULL: 12_226}[tier]
    streamed = [pretty(p.term) for p in islice(enumerate_stream(tier), len(expected))]
    assert streamed == expected
    for index, text in enumerate(expected, start=1):
        assert pretty(program_at(tier, index).term) == text
        assert index_of(tier, parse(text)) == index


@pytest.mark.parametrize(
    "ops, scope, sort",
    [
        pytest.param(NAT_BASE, ("n",), Sort.NAT, id="nat"),
        pytest.param(LIST_BASE, ("x", "pivot"), Sort.BOOL, id="predicate"),
        pytest.param(LIST_BASE, ("l", "pivot", "r"), Sort.LIST_NAT, id="combiner"),
    ],
)
def test_pool_layers_match_the_oracle(ops, scope, sort):
    ours = [pretty(t) for s in range(1, 7) for t in walk_layer(ops, frozenset(scope), sort, s)]
    sort_name = {Sort.NAT: "nat", Sort.BOOL: "bool", Sort.LIST_NAT: "list"}[sort]
    assert ours == canonical_terms(ops, scope, sort_name, 6)


@pytest.mark.parametrize("tier", list(Tier))
def test_sized_texts_are_the_pretty_stream(tier):
    texts = islice(sized_texts(tier), 20_000)
    assert list(texts) == [(s, pretty(p.term)) for s, p in islice(sized_stream(tier), 20_000)]


@pytest.mark.parametrize("tier", list(Tier))
def test_canonical_key_strictly_increases_along_the_stream(tier):
    # The walk follows OP_TABLE's order and canonical_key reads RANKS, so
    # the stream's order is the key's; the key is (size, rank_seq) from one walk.
    keys = []
    for s, p in islice(sized_stream(tier), 20_000):
        keys.append(canonical_key(p.term))
        assert keys[-1] == (size(p.term), rank_seq(p.term)) and s == size(p.term)
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_rank_and_unrank_far_past_materializable_layers(monkeypatch):
    def no_walk(*args):
        raise AssertionError("ranking walked a layer")

    monkeypatch.setattr(enumeration, "_walk", no_walk)
    for tier, index in ((Tier.NATFN, 10**20), (Tier.FULL, 10**40)):
        program = program_at(tier, index)
        assert size(program.term) > 20
        assert index_of(tier, program) == index


def test_unranking_at_large_indices_is_pinned():
    # Round trips cannot see an off-by-one that program_at and index_of
    # share, so the programs themselves are pinned: one sha256 over the
    # programs at 10**3, 10**12, ..., 10**120 in each tier.
    digest = hashlib.sha256()
    for tier in (Tier.NATFN, Tier.FULL):
        for k in range(3, 121, 9):
            digest.update(f"{pretty(program_at(tier, 10**k).term)}\n".encode())
    assert digest.hexdigest() == "87d431419e3fc697755557fcc42bf9946a7f5a023175c2fe2cfaa61335599994"


def _recursion_limit_above_caller(frames):
    """A recursion limit this many frames above the caller's depth."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth + frames


def test_parse_type_and_rank_do_not_recurse_per_level():
    # A 300-node chain, far past the materializable layers.
    text = "(succ " * 299 + "n" + ")" * 299
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_limit_above_caller(60))
    try:
        chain = parse(text)
        found = infer_sort(chain, ROOT_SCOPE)
        index = index_of(Tier.NATFN, chain)
    finally:
        sys.setrecursionlimit(limit)
    assert found is ROOT_SORT
    assert program_at(Tier.NATFN, index).term == chain
    assert index_of(Tier.NATFN, program_at(Tier.NATFN, index + 1)) == index + 1


def test_tables_answer_alike_in_any_access_order():
    # The counting tables grow only as reads reach them, so each order
    # starts from empty tables and reads far ahead first.
    full = canonical_terms(TIER_OPS[Tier.FULL], {"n"}, "nat", 6)
    enumeration._counts.cache_clear()
    assert size(program_at(Tier.FULL, 10**40).term) > 40
    assert [pretty(program_at(Tier.FULL, i).term) for i in range(1, len(full) + 1)] == full

    natfn = canonical_terms(TIER_OPS[Tier.NATFN], {"n"}, "nat", 8)
    late = "(add (mul n (succ zero)) (succ (succ n)))"
    enumeration._counts.cache_clear()
    assert index_of(Tier.NATFN, parse(late)) == natfn.index(late) + 1
    through_6 = len(canonical_terms(TIER_OPS[Tier.NATFN], {"n"}, "nat", 6))
    assert [pretty(program_at(Tier.NATFN, i).term) for i in range(1, through_6 + 1)] == natfn[:through_6]

    scope = frozenset({"l", "pivot", "r"})
    enumeration._counts.cache_clear()
    last = [pretty(t) for t in walk_layer(LIST_BASE, scope, Sort.LIST_NAT, 6)]
    first = [pretty(t) for s in range(1, 6) for t in walk_layer(LIST_BASE, scope, Sort.LIST_NAT, s)]
    assert first + last == canonical_terms(LIST_BASE, scope, "list", 6)


def test_unranking_does_not_recurse_per_pending_slot():
    # A left-nested add chain keeps 100 argument slots pending at once.
    chain = Term("n")
    for _ in range(100):
        chain = Term("add", (chain, Term("n")))
    index = index_of(Tier.NATFN, chain)
    # The walk reaches its deep stacks one slot at a time; a read of 100
    # pending root slots (slot 0) from empty tables reaches one at once.
    deep = (0,) * 100
    warm = enumeration._tier_counts(Tier.NATFN).fill(deep, 200)[200]
    enumeration._counts.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_limit_above_caller(60))
    try:
        program = program_at(Tier.NATFN, index)
        enumeration._counts.cache_clear()
        cold = enumeration._tier_counts(Tier.NATFN).fill(deep, 200)[200]
    finally:
        sys.setrecursionlimit(limit)
    assert rank_seq(program.term) == rank_seq(chain)
    assert cold == warm


def test_stream_holds_no_layer():
    # Indices 33,073 on are the first programs of size 9, a layer of
    # 156,130 terms; the stream reaches them holding one term at a time.
    first, last = 33_073, 33_100
    tracemalloc.start()
    try:
        streamed = list(islice(enumerate_stream(Tier.NATFN), first - 1, last))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert [size(p.term) for p in streamed] == [9] * (last - first + 1)
    assert [p.term for p in streamed] == [program_at(Tier.NATFN, i).term for i in range(first, last + 1)]
