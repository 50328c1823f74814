"""Analytical spaces: evolving behavior-equivalence classes over probes.

A space is partial knowledge whose domain of application is its probe list.
Terms absorbed into a space are grouped by fingerprint (output vector over
the probes); each class keeps its members in canonical order, and the
first, which has minimal cost, represents it, so economical variants
survive and uneconomical ones are displaced. Domains expand explicitly: new probes refine the equivalence and
may split classes; unification merges two spaces over the union of their
probes. Spaces are values: every operation returns a new space.
"""

from __future__ import annotations

from .errors import DiagforgeError, DuplicateProbeError, EmptyProbesError, ParseError, ResourceExhaustedError, cut
from .interp import EvalBudget, probe_outputs, probe_vectors
from .kernel import (
    INPUT_VARS,
    Record,
    Sort,
    Term,
    Value,
    canonical_key,
    format_value,
    infer_sort,
    parse,
    pretty,
    sort_of_value,
)


class SpaceClass(Record):
    __slots__ = _fields = ("fingerprint", "members")

    def __init__(self, fingerprint: tuple, members: tuple[Term, ...]):
        self.fingerprint = fingerprint  # (output sort tag, output vector) over the space's probes
        self.members = members  # in canonical order

    @property
    def representative(self) -> Term:
        return self.members[0]


class AnalyticalSpace(Record):
    __slots__ = _fields = ("probes", "classes", "history")

    def __init__(self, probes: tuple[Value, ...], classes: tuple[SpaceClass, ...], history: tuple[tuple, ...]):
        self.probes = probes
        self.classes = classes
        self.history = history

    @property
    def input_sort(self) -> Sort:
        return sort_of_value(self.probes[0])

    @property
    def input_var(self) -> str:
        return INPUT_VARS[self.input_sort]


def _check_probes(probes: tuple[Value, ...]) -> None:
    if not probes:
        raise EmptyProbesError("a space needs at least one probe")
    # Sorts first: sort_of_value rejects what is not a kernel value, such
    # as a list inside a list, which could not even be hashed.
    first = sort_of_value(probes[0])
    if first not in INPUT_VARS:
        raise ValueError(f"no input variable for probes of sort {first.value}")
    for p in probes[1:]:
        if sort_of_value(p) is not first:
            raise ValueError("a space has a single input sort; probes disagree")
    if len(set(probes)) != len(probes):
        raise DuplicateProbeError(f"duplicate probe in {cut(format_value(probes))}")


def _fingerprint(
    term: Term, probes: tuple[Value, ...], vectors: list[list], var: str, budget: EvalBudget | None, memo: dict
) -> tuple:
    # The output sort tags the key: True and 1 are equal (and hash alike)
    # in Python, so raw vectors of mixed-sort outputs could collide. `memo`
    # keeps subterm columns for these vectors and this budget.
    out_sort = infer_sort(term, frozenset({var}))
    try:
        return (out_sort.value, probe_outputs(term, vectors, budget, memo))
    except ResourceExhaustedError as exc:
        at = f"probe {cut(format_value(probes[exc.probe_index]))} for {cut(pretty(term))}"
        raise ResourceExhaustedError(exc.steps_used, exc.reason, at=at) from exc


def _class(fingerprint: tuple, members) -> SpaceClass:
    """The class of these members; the canonically least one represents it."""
    return SpaceClass(fingerprint, tuple(sorted(set(members), key=canonical_key)))


def _rebuild(
    probes: tuple[Value, ...],
    members: list[Term],
    history: tuple[tuple, ...],
    budget: EvalBudget | None,
) -> AnalyticalSpace:
    """Group members by fingerprint over `probes`; minimal-cost representatives."""
    var = INPUT_VARS[sort_of_value(probes[0])]
    vectors = probe_vectors((var,), probes)
    grouped: dict[tuple, list[Term]] = {}
    memo: dict = {}
    for term in members:
        grouped.setdefault(_fingerprint(term, probes, vectors, var, budget, memo), []).append(term)
    classes = [_class(fingerprint, group) for fingerprint, group in grouped.items()]
    classes.sort(key=lambda c: canonical_key(c.representative))
    return AnalyticalSpace(probes, tuple(classes), history)


def _probes_event(probes: tuple[Value, ...]) -> tuple[str, ...]:
    return tuple(format_value(p) for p in probes)


def new_space(probes: tuple[Value, ...] | list[Value]) -> AnalyticalSpace:
    probes = tuple(probes)
    _check_probes(probes)
    return AnalyticalSpace(probes, (), (("created", _probes_event(probes)),))


def absorb(space: AnalyticalSpace, term: Term, budget: EvalBudget | None = None) -> AnalyticalSpace:
    """Add one term: new class, displaced representative, or kept as member.

    Probes do not change, so existing fingerprints stay valid; only the
    touched class is recomputed.
    """
    var = space.input_var
    # A fresh memo: a space keeps no columns, so its memory stays its members'.
    fingerprint = _fingerprint(term, space.probes, probe_vectors((var,), space.probes), var, budget, {})
    existing = next((c for c in space.classes if c.fingerprint == fingerprint), None)
    updated = _class(fingerprint, (existing.members if existing else ()) + (term,))
    # The set in `_class` keeps a member over an equal term, so a copy of the
    # representative, or the same term again, is kept.
    if existing is None:
        outcome = "new"
    else:
        outcome = "kept" if updated.representative is existing.representative else "displaced"
    classes = [c for c in space.classes if c is not existing] + [updated]
    classes.sort(key=lambda c: canonical_key(c.representative))
    history = space.history + (("absorbed", pretty(term), outcome),)
    return AnalyticalSpace(space.probes, tuple(classes), history)


def unify(a: AnalyticalSpace, b: AnalyticalSpace, budget: EvalBudget | None = None) -> AnalyticalSpace:
    """Merge two spaces over the union of their probes (a's order first).

    Every member of either space lands in exactly one class of the result;
    finer probes may split classes, so the class count can exceed both
    inputs'. The result is a fresh space whose log records the unification
    with both parents' log lengths (embedding whole parent logs would blow
    up under repeated unification).
    """
    if a.input_sort is not b.input_sort:
        raise ValueError("cannot unify spaces over different input sorts")
    known = set(a.probes)
    probes = a.probes + tuple(p for p in b.probes if p not in known)
    members = [m for c in a.classes for m in c.members] + [m for c in b.classes for m in c.members]
    history = (
        ("created", _probes_event(probes)),
        ("unified", _probes_event(probes), len(a.history), len(b.history)),
    )
    return _rebuild(probes, members, history, budget)


def expand_domain(
    space: AnalyticalSpace,
    new_probes: tuple[Value, ...] | list[Value],
    budget: EvalBudget | None = None,
) -> AnalyticalSpace:
    """Append probes; re-fingerprint members, splitting classes that disagree."""
    new_probes = tuple(new_probes)
    probes = space.probes + new_probes
    _check_probes(probes)
    members = [m for c in space.classes for m in c.members]
    history = space.history + (
        ("expanded", _probes_event(new_probes), len(space.classes)),
    )
    return _rebuild(probes, members, history, budget)


# ---------------------------------------------------------------------------
# Snapshots (full state, for the CLI) and exports (summary view)


def _value_json(v: Value):
    if isinstance(v, tuple):
        return list(v)
    return v


def _class_json(c: SpaceClass) -> dict:
    """A class's fingerprint and representative, as snapshots and exports write them."""
    out_sort, outputs = c.fingerprint
    fingerprint = {"sort": out_sort, "outputs": [_value_json(v) for v in outputs]}
    return {"fingerprint": fingerprint, "representative": pretty(c.representative)}


def snapshot(space: AnalyticalSpace) -> dict:
    return {
        "probes": [_value_json(p) for p in space.probes],
        "classes": [_class_json(c) | {"members": [pretty(m) for m in c.members]} for c in space.classes],
        "history": [list(event) for event in space.history],
    }


def _event(event) -> tuple:
    """A history event as `snapshot` writes it: a list of strings, integers
    and lists of strings, read one level deep."""
    if type(event) is list:
        fields = tuple(tuple(f) if type(f) is list else f for f in event)
        if all(type(f) in (str, int) or type(f) is tuple and all(type(x) is str for x in f) for f in fields):
            return fields
    raise ParseError("malformed space snapshot: a history event is not a list of strings, ints and string lists")


def _listed(data, key: str, owner: str) -> list:
    """data[key], which a snapshot requires to be a list."""
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, list):
        raise ParseError(f"malformed space snapshot: {owner} has no {key!r} list")
    return value


def load_snapshot(data: dict, budget: EvalBudget | None = None) -> AnalyticalSpace:
    probes = tuple(tuple(p) if isinstance(p, list) else p for p in _listed(data, "probes", "the snapshot"))
    try:
        _check_probes(probes)
    except (DiagforgeError, ValueError) as exc:
        raise ParseError(f"malformed space snapshot: {exc}") from None
    members = [m for c in _listed(data, "classes", "the snapshot") for m in _listed(c, "members", "a class")]
    if not all(isinstance(m, str) for m in members):
        raise ParseError("malformed space snapshot: a member is not an S-expression string")
    history = tuple(_event(event) for event in _listed(data, "history", "the snapshot"))
    return _rebuild(probes, [parse(m) for m in members], history, budget)


def export_summary(space: AnalyticalSpace) -> dict:
    return {
        "probes": [_value_json(p) for p in space.probes],
        "classes": [_class_json(c) | {"member_count": len(c.members)} for c in space.classes],
        "history_length": len(space.history),
    }
