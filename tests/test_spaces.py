"""Analytical spaces: absorption, unification, domain expansion."""

import json
import random
import sys

import pytest

from diagforge import interp, spaces
from diagforge.errors import DuplicateProbeError, EmptyProbesError, ParseError, ResourceExhaustedError
from diagforge.interp import DEFAULT_MAX_STEPS, DEFAULT_MAX_VALUE_BITS
from diagforge.kernel import canonical_key, format_value, parse, pretty, rank_seq, size
from diagforge.spaces import (
    absorb,
    expand_domain,
    export_summary,
    load_snapshot,
    new_space,
    snapshot,
    unify,
)
from oracles import eval_budgeted
from strategies import random_term


def test_new_space():
    space = new_space((0, 1, 2))
    assert space.classes == ()
    assert len(space.history) == 1
    with pytest.raises(EmptyProbesError):
        new_space(())
    with pytest.raises(DuplicateProbeError):
        new_space((0, 0))
    with pytest.raises(ValueError):
        new_space((0, (1, 2)))  # one input sort per space


@pytest.fixture
def default_digit_limit():
    """CPython's default int/str digit limit, 4,300, where the Python has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def test_probes_past_the_default_digit_limit(default_digit_limit):
    big = 10**5000
    assert format_value(big) == "1" + "0" * 5000
    assert format_value((big, 3)) == "(1" + "0" * 5000 + " 3)"
    space = new_space((big, 1))
    assert space.history[0][1] == (format_value(big), "1")
    assert unify(space, new_space((2,))).probes == (big, 1, 2)
    with pytest.raises(DuplicateProbeError) as caught:
        expand_domain(space, (1,))
    assert str(caught.value) == "duplicate probe in (1" + "0" * 55 + "..."
    with pytest.raises(ResourceExhaustedError) as caught:
        absorb(space, parse("(precnat zero (succ acc) n)"))
    assert caught.value.at == "probe 1" + "0" * 56 + "... for (precnat zero (succ acc) n)"
    with pytest.raises(DuplicateProbeError) as caught:
        new_space(((1, 2), (3,), (1, 2)))
    assert str(caught.value) == "duplicate probe in ((1 2) (3) (1 2))"


def test_absorb_runs_a_failing_term_once(monkeypatch):
    # The term runs out of steps on its second probe only; the error names
    # that probe from the one run that failed (one fuel per run).
    runs = []

    class CountingFuel(interp._Fuel):
        __slots__ = ()

        def __init__(self, budget):
            runs.append(budget)
            super().__init__(budget)

    monkeypatch.setattr(interp, "_Fuel", CountingFuel)
    term = parse("(precnat zero (if (lt acc n) (succ acc) acc) n)")
    with pytest.raises(ResourceExhaustedError) as caught:
        absorb(new_space((1, 1000)), term, interp.EvalBudget(max_steps=1000))
    assert len(runs) == 1
    assert str(caught.value) == ("evaluation budget exhausted (steps, 1000 steps used at probe 1000"
                                 " for (precnat zero (if (lt acc n) (succ acc) acc) n))")

def test_absorb_first_term_founds_a_class():
    space = absorb(new_space((0, 1, 2)), parse("(succ n)"))
    assert len(space.classes) == 1
    assert pretty(space.classes[0].representative) == "(succ n)"


def test_absorb_types_the_term_once(monkeypatch):
    typed = []
    infer_sort = spaces.infer_sort
    monkeypatch.setattr(spaces, "infer_sort", lambda t, scope: typed.append(t) or infer_sort(t, scope))
    term = parse("(add n (succ n))")
    assert absorb(new_space((0, 1)), term).classes[0].fingerprint == ("nat", (1, 3))
    assert typed == [term]


def test_space_verbs_compile_each_member_once(monkeypatch):
    # A member's code is kept on its term when absorb fingerprints it, so
    # expand_domain and unify, which fingerprint every member again, build
    # no code for a member already fingerprinted. Binder-free members run
    # over probe columns and are never compiled.
    built = []
    keep_code = interp.keep_code
    monkeypatch.setattr(interp, "keep_code", lambda t: built.append(t) or keep_code(t))
    left, right = new_space((0, 1)), new_space((2, 3))
    for text in ("(precnat n (add acc idx) n)", "(precnat zero (succ acc) n)", "(succ n)"):
        left = absorb(left, parse(text))
    for text in ("(precnat n (mul acc (succ n)) n)", "(add n n)", "(precnat (succ n) (succ acc) n)"):
        right = absorb(right, parse(text))
    assert {pretty(t) for t in built} >= {"(precnat n (add acc idx) n)", "(precnat n (mul acc (succ n)) n)"}
    built.clear()
    space = unify(expand_domain(left, (4, 5)), right)
    assert sum(len(c.members) for c in space.classes) == 6
    assert built == []


def test_absorb_keeps_the_cheaper_representative():
    space = absorb(new_space((0, 1, 2)), parse("(succ n)"))
    space = absorb(space, parse("(add n (succ zero))"))
    assert len(space.classes) == 1
    cls = space.classes[0]
    assert cls.fingerprint == ("nat", (1, 2, 3))
    assert pretty(cls.representative) == "(succ n)"  # cost 2 beats cost 4
    assert len(cls.members) == 2
    # arrival order does not matter
    other = absorb(new_space((0, 1, 2)), parse("(add n (succ zero))"))
    other = absorb(other, parse("(succ n)"))
    assert pretty(other.classes[0].representative) == "(succ n)"


def test_absorbing_the_representative_again_only_logs():
    space = absorb(new_space((0, 1, 2)), parse("(succ n)"))
    again = absorb(space, parse("(succ n)"))
    assert again.classes == space.classes
    assert len(again.history) == len(space.history) + 1


def test_absorb_outcomes_and_members():
    # Outcome: new for a new behaviour, displaced for a cheaper equivalent,
    # and kept for a costlier one, an equal copy of the representative, or
    # the very same term object again.
    cheap, costly = parse("(succ n)"), parse("(add n (succ zero))")
    space = absorb(new_space((0, 1, 2)), costly)
    assert (space.history[-1][2], space.classes[0].members) == ("new", (costly,))
    space = absorb(space, cheap)
    assert (space.history[-1][2], space.classes[0].members) == ("displaced", (cheap, costly))
    for term in (parse("(add (succ zero) n)"), parse("(succ n)"), cheap, cheap):
        before = space.classes[0].members
        space = absorb(space, term)
        assert space.history[-1][2] == "kept", pretty(term)
        assert space.classes[0].members == tuple(sorted({*before, term}, key=canonical_key))
        assert space.classes[0].representative is cheap
    assert len(space.classes[0].members) == 3


def test_absorb_matches_a_reference_over_size_and_rank_seq():
    # A seeded run of absorbs, some of them equal copies or the same term
    # object again, against a model that fingerprints with the reference
    # evaluator and orders members by (size, rank_seq).
    rng = random.Random(27)
    probes = (0, 1, 2, 5)
    population = [random_term(rng, max_size=7) for _ in range(150)]
    space, classes, history = new_space(probes), {}, [["created", [format_value(p) for p in probes]]]

    def key(t):
        return (size(t), rank_seq(t))

    for _ in range(400):
        term = rng.choice(population)
        if rng.random() < 0.3:
            term = parse(pretty(term))  # an equal copy, not the same object
        space = absorb(space, term)
        outputs = tuple(eval_budgeted(term, {"n": p}, DEFAULT_MAX_STEPS, DEFAULT_MAX_VALUE_BITS) for p in probes)
        members = classes.setdefault(outputs, [])
        if not members:
            outcome = "new"
        elif key(term) < key(members[0]):
            outcome = "displaced"
        else:
            outcome = "kept"
        if term not in members:
            members.append(term)
            members.sort(key=key)
        history.append(["absorbed", pretty(term), outcome])
        order = sorted(classes.items(), key=lambda item: key(item[1][0]))
        assert json.loads(json.dumps(snapshot(space))) == {
            "probes": list(probes),
            "classes": [
                {"fingerprint": {"sort": "nat", "outputs": list(outputs)}, "representative": pretty(members[0]),
                 "members": [pretty(m) for m in members]}
                for outputs, members in order
            ],
            "history": history,
        }
    assert {"new", "displaced", "kept"} <= {event[2] for event in history[1:]}


def test_unify_with_fresh_space_is_identity_like():
    space = absorb(new_space((0, 1, 2)), parse("(succ n)"))
    merged = unify(space, new_space((0, 1, 2)))
    assert merged.probes == space.probes
    assert merged.classes == space.classes


def test_unify_splits_collided_terms():
    a = absorb(absorb(new_space((0, 1)), parse("n")), parse("(mul n n)"))
    assert len(a.classes) == 1  # n and n*n agree on 0 and 1
    merged = unify(a, new_space((2,)))
    assert merged.probes == (0, 1, 2)
    assert len(merged.classes) == 2  # outputs at 2 differ: 2 vs 4


def test_unify_is_symmetric_up_to_probe_order():
    a = absorb(absorb(new_space((0, 1)), parse("n")), parse("(mul n n)"))
    b = absorb(new_space((2, 3)), parse("(succ n)"))
    ab = unify(a, b)
    ba = unify(b, a)
    assert set(ab.probes) == set(ba.probes)
    members_ab = {frozenset(c.members) for c in ab.classes}
    members_ba = {frozenset(c.members) for c in ba.classes}
    assert members_ab == members_ba
    reps_ab = {c.representative for c in ab.classes}
    assert reps_ab == {c.representative for c in ba.classes}


def test_unify_preserves_every_member():
    terms = [parse(t) for t in ("n", "(mul n n)", "(succ n)", "(add n n)", "zero")]
    a = new_space((0, 1))
    for t in terms[:3]:
        a = absorb(a, t)
    b = new_space((2,))
    for t in terms[3:]:
        b = absorb(b, t)
    merged = unify(a, b)
    all_members = [m for c in merged.classes for m in c.members]
    assert sorted(all_members, key=canonical_key) == sorted(set(terms), key=canonical_key)
    # exactly one class holds each term
    for t in terms:
        assert sum(t in c.members for c in merged.classes) == 1


def test_expand_domain_splits_classes():
    space = absorb(absorb(new_space((0, 1)), parse("n")), parse("(mul n n)"))
    assert len(space.classes) == 1
    expanded = expand_domain(space, (2,))
    assert expanded.probes == (0, 1, 2)
    assert len(expanded.classes) == 2
    with pytest.raises(DuplicateProbeError):
        expand_domain(space, (1,))
    assert expand_domain(new_space((0, 1)), (5,)).classes == ()


def test_history_is_append_only():
    space = new_space((0, 1))
    events = [space.history[0][0]]
    space = absorb(space, parse("n"))
    events.append(space.history[-1][0])
    space = expand_domain(space, (4,))
    events.append(space.history[-1][0])
    assert events == ["created", "absorbed", "expanded"]
    assert len(space.history) == 3


def test_every_history_event_kind_round_trips():
    a = expand_domain(absorb(new_space((0, 1)), parse("(succ n)")), (4,))
    space = unify(a, absorb(new_space((2,)), parse("zero")))
    history = a.history + space.history
    assert sorted({event[0] for event in history}) == ["absorbed", "created", "expanded", "unified"]
    for kept in (a, space):
        assert load_snapshot(json.loads(json.dumps(snapshot(kept)))).history == kept.history


def test_snapshot_round_trip_and_export():
    space = absorb(absorb(new_space((0, 1, 2)), parse("(succ n)")), parse("(add n (succ zero))"))
    data = json.loads(json.dumps(snapshot(space)))
    loaded = load_snapshot(data)
    assert loaded.probes == space.probes
    assert loaded.classes == space.classes
    assert loaded.history == space.history
    summary = export_summary(space)
    assert summary["classes"][0]["member_count"] == 2
    assert summary["history_length"] == len(space.history)
    # probes that are not kernel values, or repeat or are missing, make the
    # snapshot malformed
    for probes in ([], [0, 0], [-1], [[1, "b"]], [[[1]]]):
        with pytest.raises(ParseError, match="^malformed space snapshot: "):
            load_snapshot({**data, "probes": probes})


def test_list_input_spaces():
    space = new_space(((), (1,), (2, 1)))
    space = absorb(space, parse("(rest l)"))
    space = absorb(space, parse("l"))
    assert len(space.classes) == 2
    space = absorb(space, parse("(len l)"))  # nat-valued members are fine
    assert len(space.classes) == 3
    with pytest.raises(ValueError, match="different input sorts"):
        unify(absorb(new_space((0, 1)), parse("(succ n)")), space)


def test_random_operations_keep_invariants():
    rng = random.Random(11)
    population = [random_term(rng, max_size=5) for _ in range(60)]
    space = new_space((0, 1, 2))
    spaces = [space]
    for _ in range(300):
        action = rng.random()
        if action < 0.7:
            space = absorb(space, rng.choice(population))
        elif action < 0.85 and len(spaces) > 1:
            space = unify(space, rng.choice(spaces))
        else:
            fresh = [p for p in range(20) if p not in space.probes]
            if fresh:
                before = len(space.classes)
                space = expand_domain(space, (rng.choice(fresh),))
                assert len(space.classes) >= before  # refinement monotonicity
        spaces.append(space)

    seen = set()
    for cls in space.classes:
        out_sort, _ = cls.fingerprint
        for member in cls.members:
            # The reference evaluator, not the one spaces fingerprint with.
            recomputed = tuple(
                eval_budgeted(member, {"n": p}, DEFAULT_MAX_STEPS, DEFAULT_MAX_VALUE_BITS) for p in space.probes
            )
            assert (out_sort, recomputed) == (cls.fingerprint[0], cls.fingerprint[1])
            assert size(cls.representative) <= size(member)
            assert member not in seen
            seen.add(member)
        assert cls.representative in cls.members
        assert size(cls.representative) == min(size(m) for m in cls.members)
