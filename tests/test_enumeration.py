"""Canonical enumeration: ordering, bijection, completeness, stability."""

from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diagforge.enumeration import (
    EnumCursor,
    Tier,
    enumerate_stream,
    index_of,
    program_at,
    terms_of_size,
    tier_layer,
)
from diagforge.errors import NotInTierError
from diagforge.kernel import Term, parse, pretty, rank_seq, size
from oracles import all_nat_terms, nat_terms_of_size


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
    with pytest.raises(NotInTierError):
        index_of(Tier.NATFN, parse("(succ x)"))  # wrong free variable
    # but (first nil) is a Nat program of the full tier
    assert index_of(Tier.FULL, parse("(first nil)")) >= 1


@given(st.integers(1, 3000))
def test_bijection_index_to_program(i):
    assert index_of(Tier.NATFN, program_at(Tier.NATFN, i)) == i


def test_bijection_program_to_index_small_sizes():
    for s in range(1, 5):
        for t in tier_layer(Tier.NATFN, s):
            i = index_of(Tier.NATFN, t)
            assert program_at(Tier.NATFN, i).term == t


def test_stream_is_duplicate_free_and_size_monotone():
    prefix = stream_prefix(Tier.NATFN, 10_000)
    assert len(set(prefix)) == len(prefix)
    sizes = [size(t) for t in prefix]
    assert sizes == sorted(sizes)


def test_matches_brute_force_generator_up_to_size_4():
    ours = {pretty(t) for s in range(1, 5) for t in tier_layer(Tier.NATFN, s)}
    assert ours == set(all_nat_terms(4))


def test_layer_sizes_match_brute_force_counts():
    for s in range(1, 7):
        assert len(tier_layer(Tier.NATFN, s)) == len(nat_terms_of_size(s))


def test_full_tier_contains_natfn():
    natfn = {pretty(t) for s in range(1, 4) for t in tier_layer(Tier.NATFN, s)}
    full = {pretty(t) for s in range(1, 4) for t in tier_layer(Tier.FULL, s)}
    assert natfn < full
    assert "(first nil)" in full


def test_independent_cursors_agree():
    a = EnumCursor(Tier.NATFN)
    b = EnumCursor(Tier.NATFN)
    for expected_index in range(1, 2001):
        ia, pa = a.take()
        ib, pb = b.take()
        assert ia == ib == expected_index
        assert pa == pb


def test_stream_restarts_identically():
    first = stream_prefix(Tier.NATFN, 10_000)
    second = stream_prefix(Tier.NATFN, 10_000)
    assert first == second


@pytest.mark.parametrize("tier, top", [(Tier.NATFN, 8), (Tier.FULL, 7)])
def test_counting_agrees_with_materialized_layers(tier, top):
    index = 0
    for s in range(1, top + 1):
        for t in tier_layer(tier, s):
            index += 1
            assert program_at(tier, index).term == t
            assert index_of(tier, t) == index
    assert index == {Tier.NATFN: 33_072, Tier.FULL: 12_226}[tier]


def test_rank_and_unrank_far_past_materializable_layers():
    cached = terms_of_size.cache_info().currsize
    for tier, index in ((Tier.NATFN, 10**20), (Tier.FULL, 10**40)):
        program = program_at(tier, index)
        assert size(program.term) > 20
        assert index_of(tier, program) == index
    # A 300-node chain, built and compared without parse, pretty or Term
    # equality, which all recurse once per level.
    chain = Term("n")
    for _ in range(299):
        chain = Term("succ", (chain,))
    index = index_of(Tier.NATFN, chain)
    assert rank_seq(program_at(Tier.NATFN, index).term) == rank_seq(chain)
    assert index_of(Tier.NATFN, program_at(Tier.NATFN, index + 1)) == index + 1
    assert terms_of_size.cache_info().currsize == cached
