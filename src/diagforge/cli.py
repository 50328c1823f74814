"""Batch command-line front end.

Exit codes: 0 success, 1 domain outcome (nothing synthesized, empty
classifier, duplicate probe), 2 usage or malformed input, 3 evaluation
budget exhausted, or a term too deep or too large for the interpreter
(RecursionError, MemoryError). Records go to stdout, diagnostics to stderr;
identical invocations produce byte-identical output. Witness rows are
printed as each is proved, so a run that exhausts its budget keeps the
rows before the failing index. DIAGFORGE_BUDGET overrides the default step
budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import machines, refuter, spaces, synthesis
from .enumeration import Tier, enumerate_stream, program_at
from .errors import (
    DiagforgeError,
    DuplicateProbeError,
    EmptyClassifierError,
    EmptyProbesError,
    NotInTierError,
    ParseError,
    ResourceExhaustedError,
    TypeCheckError,
)
from .interp import DEFAULT_MAX_STEPS, EvalBudget
from .kernel import check_well_formed, parse, parse_value_list, pretty, size, Sort

ENV_BUDGET = "DIAGFORGE_BUDGET"


def _budget(steps: int | None) -> EvalBudget:
    if steps is None:
        steps = int(os.environ.get(ENV_BUDGET, DEFAULT_MAX_STEPS))
    return EvalBudget(max_steps=steps)


def _parse_classifier(text: str) -> refuter.Classifier:
    if text == "all":
        return refuter.AcceptAll()
    if text == "none":
        return refuter.AcceptNone()
    if text.startswith("maxsize:"):
        return refuter.MaxSize(int(text.split(":", 1)[1]))
    if text.startswith("program:"):
        path = text.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as handle:
            term = parse(handle.read().strip())
        return refuter.ProgramDecider(check_well_formed(term, Sort.NAT, {"n"}))
    raise ParseError(f"unknown classifier spec: {text!r}")


def _cmd_enum(args) -> int:
    if args.count < 1:
        raise ValueError(f"enumeration count must be >= 1, got {args.count}")
    stream = enumerate_stream(Tier(args.tier))
    for index in range(1, args.count + 1):
        program = next(stream)
        print(f"{index}\t{size(program.term)}\t{pretty(program.term)}")
    return 0


def _cmd_show(args) -> int:
    program = program_at(Tier(args.tier), args.index)
    print(f"{args.index}\t{size(program.term)}\t{pretty(program.term)}")
    return 0


def _print_rows(machine: machines.Machine, count: int, **fields) -> None:
    """One JSON line per witness row, printed as soon as the row is proved."""
    for w in machines.witness_rows(machine, count):
        print(json.dumps({**fields, "index": w.index, "fn_at_n": w.fn_at_n, "g_at_n": w.g_at_n}))


def _cmd_diag(args) -> int:
    _print_rows(machines.Base(Tier(args.tier), _budget(args.budget)), args.witness)
    return 0


def _cmd_iterate(args) -> int:
    levels = machines.iterate(machines.Base(Tier.NATFN, _budget(args.budget)), args.depth)
    for level, (machine, _) in enumerate(levels, start=1):
        _print_rows(machine, args.witness, level=level)
    return 0


def _cmd_refute(args) -> int:
    classifier = _parse_classifier(args.classifier)
    tier = Tier(args.tier)
    machine = refuter.accepted_prefix(classifier, tier, args.count, args.horizon, _budget(args.budget))
    print(json.dumps({"classifier": refuter.describe_classifier(classifier), "tier": tier.value, "N": args.count}))
    _print_rows(machine, args.count)
    return 0


def _cmd_synth(args) -> int:
    goal = synthesis.load_goal(args.goal)
    if goal.input_sort is Sort.NAT and goal.output_sort is Sort.NAT:
        ops = synthesis.NAT_BASE
    else:
        ops = synthesis.LIST_BASE
    program = synthesis.synthesize(ops, goal, args.schema, args.budget, _budget(args.budget_steps))
    if program is None:
        print("no program found within budget", file=sys.stderr)
        return 1
    print(pretty(program.term))
    return 0


def _load_space(path: str) -> spaces.AnalyticalSpace:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ParseError("malformed space snapshot: JSON nested too deeply") from None
    return spaces.load_snapshot(data)


def _save_space(space: spaces.AnalyticalSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spaces.snapshot(space), handle)
        handle.write("\n")


def _cmd_space(args) -> int:
    if args.verb == "new":
        space = spaces.new_space(parse_value_list(args.probes))
        _save_space(space, args.out)
    elif args.verb == "absorb":
        space = spaces.absorb(_load_space(args.space), parse(args.term), _budget(None))
        _save_space(space, args.out)
    elif args.verb == "unify":
        space = spaces.unify(_load_space(args.left), _load_space(args.right), _budget(None))
        _save_space(space, args.out)
    elif args.verb == "expand":
        space = spaces.expand_domain(_load_space(args.space), parse_value_list(args.probes), _budget(None))
        _save_space(space, args.out)
    else:  # export
        print(json.dumps(spaces.export_summary(_load_space(args.space))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagforge",
        description="Enumerate a total program language, diagonalize against it, "
        "refute deciders, and synthesize programs from component facts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="print an enumeration prefix")
    p.add_argument("--tier", choices=["natfn", "full"], default="natfn")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(run=_cmd_enum)

    p = sub.add_parser("show", help="print the program at one index")
    p.add_argument("--tier", choices=["natfn", "full"], default="natfn")
    p.add_argument("--index", type=int, required=True)
    p.set_defaults(run=_cmd_show)

    p = sub.add_parser("diag", help="witness table of the diagonal against a tier")
    p.add_argument("--tier", choices=["natfn"], default="natfn")
    p.add_argument("--witness", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(run=_cmd_diag)

    p = sub.add_parser("iterate", help="repeatedly extend the machine by its diagonal")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--witness", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(run=_cmd_iterate)

    p = sub.add_parser("refute", help="diagonalize over a classifier's accepted programs")
    p.add_argument("--classifier", required=True, help="maxsize:B | all | none | program:FILE")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--horizon", type=int, default=refuter.DEFAULT_HORIZON)
    p.add_argument("--tier", choices=["natfn", "full"], default="natfn")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(run=_cmd_refute)

    p = sub.add_parser("synth", help="synthesize a program from a goal file")
    p.add_argument("--schema", choices=["bottomup", "pivotdc"], required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--budget", type=int, required=True, help="term/hole size bound")
    p.add_argument("--budget-steps", type=int, default=None, dest="budget_steps")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("space", help="operate on analytical-space snapshot files")
    verbs = p.add_subparsers(dest="verb", required=True)
    v = verbs.add_parser("new")
    v.add_argument("--probes", required=True, help='e.g. "(0 1 2)" or "((0 1) ())"')
    v.add_argument("--out", required=True)
    v = verbs.add_parser("absorb")
    v.add_argument("--space", required=True)
    v.add_argument("--term", required=True)
    v.add_argument("--out", required=True)
    v = verbs.add_parser("unify")
    v.add_argument("--left", required=True)
    v.add_argument("--right", required=True)
    v.add_argument("--out", required=True)
    v = verbs.add_parser("expand")
    v.add_argument("--space", required=True)
    v.add_argument("--probes", required=True)
    v.add_argument("--out", required=True)
    v = verbs.add_parser("export")
    v.add_argument("--space", required=True)
    p.set_defaults(run=_cmd_space)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ResourceExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        # The parser and the evaluator recurse once per nesting level, so a
        # deep enough term overflows the stack before any budget is reached.
        print(f"error: interpreter resources exhausted ({type(exc).__name__})", file=sys.stderr)
        return 3
    except (EmptyClassifierError, DuplicateProbeError, EmptyProbesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, TypeCheckError, NotInTierError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiagforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
