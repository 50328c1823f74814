"""Batch command-line front end.

Exit codes: 0 success, also when the reader closes stdout early, 1 domain
outcome (nothing synthesized, empty classifier, duplicate probe), 2 usage
or malformed input, 3 evaluation budget exhausted, or a term too deep or
too large to evaluate (RecursionError, MemoryError). Records go to
stdout, diagnostics to stderr; identical invocations produce
byte-identical output. Witness rows are
printed as each is proved, so a run that exhausts its budget keeps the
rows before the failing index. A command converts every value the value
cap admits between int and str, past CPython's default limit of 4,300
digits; numerals in text (options, DIAGFORGE_BUDGET, probes, goal files)
keep 4,300 digits on every Python. No command makes a reference cycle,
so a command runs with the cyclic collector paused. DIAGFORGE_BUDGET
overrides the default step budget.
"""

from __future__ import annotations

import gc
import json
import os
import sys

from . import machines, refuter, spaces, synthesis
from .enumeration import Tier, program_at, sized_texts
from .errors import DiagforgeError, NotInTierError, ParseError, ResourceExhaustedError, TypeCheckError
from .interp import DEFAULT_MAX_STEPS, DEFAULT_MAX_VALUE_BITS, EvalBudget
from .kernel import NUMERAL_DIGITS, check_well_formed, parse, parse_value_list, pretty, size, Sort

ENV_BUDGET = "DIAGFORGE_BUDGET"
# A natural of b bits has fewer than b / 3 digits, as log10(2) < 1/3.
_VALUE_DIGITS = DEFAULT_MAX_VALUE_BITS // 3


def _int(text: str | int, source: str) -> int:
    """int(text), of at most NUMERAL_DIGITS digits; a bad value is a usage
    error that names its source."""
    try:
        if sum(map(str.isdigit, str(text))) <= NUMERAL_DIGITS:
            return int(text)
    except ValueError:
        pass
    raise ParseError(f"{source}: invalid int value {text!r}")


def _budget(steps: int | None, option: str = "--budget") -> EvalBudget:
    """The steps `option` gave, or else DIAGFORGE_BUDGET's; below 1 is a usage error naming the source."""
    if steps is None:
        option, steps = ENV_BUDGET, _int(os.environ.get(ENV_BUDGET, DEFAULT_MAX_STEPS), ENV_BUDGET)
    if steps < 1:
        raise ParseError(f"{option}: must be >= 1, got {steps}")
    return EvalBudget(max_steps=steps)


def _parse_classifier(text: str) -> refuter.Classifier:
    if text == "all":
        return refuter.AcceptAll()
    if text == "none":
        return refuter.AcceptNone()
    if text.startswith("maxsize:"):
        return refuter.MaxSize(_int(text.split(":", 1)[1], "--classifier maxsize"))
    if text.startswith("program:"):
        path = text.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as handle:
            term = parse(handle.read().strip())
        return refuter.ProgramDecider(check_well_formed(term, Sort.NAT, {"n"}))
    raise ParseError(f"unknown classifier spec: {text!r}")


def _cmd_enum(tier: str, count: int) -> None:
    if count < 1:
        raise ValueError(f"enumeration count must be >= 1, got {count}")
    write = sys.stdout.write
    for index, (size_, text) in zip(range(1, count + 1), sized_texts(Tier(tier))):
        write(f"{index}\t{size_}\t{text}\n")


def _cmd_show(tier: str, index: int) -> None:
    program = program_at(Tier(tier), index)
    print(f"{index}\t{size(program.term)}\t{pretty(program.term)}")


def _print_rows(machine: machines.Machine, count: int, **fields: int) -> None:
    """One JSON line per witness row, printed as soon as the row is proved.
    Every field is an int, so the line is formatted directly."""
    head = "{" + "".join(f'"{name}": {value}, ' for name, value in fields.items())
    write = sys.stdout.write
    for n, fn_at_n, g_at_n in machines.witness_values(machine, count):
        write(f'{head}"index": {n}, "fn_at_n": {fn_at_n}, "g_at_n": {g_at_n}}}\n')


def _cmd_diag(tier: str, witness: int, budget: int | None) -> None:
    _print_rows(machines.Base(Tier(tier), _budget(budget)), witness)


def _cmd_iterate(depth: int, witness: int, budget: int | None) -> None:
    levels = machines.iterate(machines.Base(Tier.NATFN, _budget(budget)), depth)
    for level, (machine, _) in enumerate(levels, start=1):
        _print_rows(machine, witness, level=level)


def _cmd_refute(classifier: str, count: int, horizon: int, tier: str, budget: int | None) -> None:
    accepts = _parse_classifier(classifier)
    machine = refuter.accepted_prefix(accepts, Tier(tier), count, horizon, _budget(budget))
    print(json.dumps({"classifier": refuter.describe_classifier(accepts), "tier": tier, "N": count}))
    _print_rows(machine, count)


def _cmd_synth(schema: str, goal: str, budget: int, budget_steps: int | None) -> int | None:
    if budget < 1:
        raise ParseError(f"--budget: must be >= 1, got {budget}")
    spec = synthesis.load_goal(goal)
    if spec.input_sort is Sort.NAT and spec.output_sort is Sort.NAT:
        ops = synthesis.NAT_BASE
    else:
        ops = synthesis.LIST_BASE
    program = synthesis.synthesize(ops, spec, schema, budget, _budget(budget_steps, "--budget-steps"))
    if program is None:
        print("no program found within budget", file=sys.stderr)
        return 1
    print(pretty(program.term))


def _load_space(path: str) -> spaces.AnalyticalSpace:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ParseError("malformed space snapshot: JSON nested too deeply") from None
    return spaces.load_snapshot(data, _budget(None))


def _save_space(space: spaces.AnalyticalSpace, path: str) -> None:
    # Encoded whole before the file is opened, so a failure leaves it intact.
    text = json.dumps(spaces.snapshot(space))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _space_new(probes: str, out: str) -> None:
    _save_space(spaces.new_space(parse_value_list(probes)), out)


def _space_absorb(space: str, term: str, out: str) -> None:
    _save_space(spaces.absorb(_load_space(space), parse(term), _budget(None)), out)


def _space_unify(left: str, right: str, out: str) -> None:
    _save_space(spaces.unify(_load_space(left), _load_space(right), _budget(None)), out)


def _space_expand(space: str, probes: str, out: str) -> None:
    _save_space(spaces.expand_domain(_load_space(space), parse_value_list(probes), _budget(None)), out)


def _space_export(space: str) -> None:
    print(json.dumps(spaces.export_summary(_load_space(space))))


# An option is (type, default or REQUIRED, allowed values or None).
REQUIRED = object()
INT, STR, MAYBE_INT = (int, REQUIRED, None), (str, REQUIRED, None), (int, None, None)
TIER = (str, "natfn", ("natfn", "full"))

# Each command, or `space <verb>`, mapped to its handler and its options.
# A handler takes the options as keyword arguments (`--budget-steps` as
# `budget_steps`) and returns the exit code, or None for 0.
COMMANDS = {
    "enum": (_cmd_enum, {"--tier": TIER, "--count": INT}),
    "show": (_cmd_show, {"--tier": TIER, "--index": INT}),
    "diag": (_cmd_diag, {"--tier": (str, "natfn", ("natfn",)), "--witness": INT, "--budget": MAYBE_INT}),
    "iterate": (_cmd_iterate, {"--depth": INT, "--witness": INT, "--budget": MAYBE_INT}),
    "refute": (_cmd_refute, {"--classifier": STR, "--count": INT, "--horizon": (int, refuter.DEFAULT_HORIZON, None),
                             "--tier": TIER, "--budget": MAYBE_INT}),
    "synth": (_cmd_synth, {"--schema": (str, REQUIRED, ("bottomup", "pivotdc")), "--goal": STR, "--budget": INT,
                           "--budget-steps": MAYBE_INT}),
    "space new": (_space_new, {"--probes": STR, "--out": STR}),
    "space absorb": (_space_absorb, {"--space": STR, "--term": STR, "--out": STR}),
    "space unify": (_space_unify, {"--left": STR, "--right": STR, "--out": STR}),
    "space expand": (_space_expand, {"--space": STR, "--probes": STR, "--out": STR}),
    "space export": (_space_export, {"--space": STR}),
}
HELP = ("-h", "--help")


def _print_usage(prefix: str) -> None:
    """One usage line per command whose name starts with the words of prefix."""
    for command, (_, options) in COMMANDS.items():
        if (command + " ").startswith(prefix):
            line = f"usage: diagforge {command}"
            for name, (_, default, choices) in options.items():
                word = f"{name} {{{','.join(choices)}}}" if choices else f"{name} {name[2:].upper()}"
                line += f" {word}" if default is REQUIRED else f" [{word}]"
            print(line)


def parse_argv(argv: list[str]):
    """The handler that argv names in COMMANDS and its keyword arguments.

    `--opt value` and `--opt=value` both set an option; the word after an
    option is always its value, and a repeated option keeps its last value.
    `-h` or `--help` yields the usage printer. Every usage error raises
    ParseError.
    """
    words, command = list(argv), ""
    while command not in COMMANDS:
        prefix = command + " " if command else ""
        names = dict.fromkeys(c[len(prefix):].split()[0] for c in COMMANDS if c.startswith(prefix))
        word = words.pop(0) if words else None
        if word in HELP:
            return _print_usage, {"prefix": prefix}
        if word not in names:
            what = "missing command" if word is None else f"unknown command {prefix + word!r}"
            raise ParseError(f"{what}: choose {prefix}{{{','.join(names)}}}")
        command = prefix + word
    handler, options = COMMANDS[command]
    values = {}
    while words:
        word = words.pop(0)
        if word in HELP:
            return _print_usage, {"prefix": command + " "}
        name, eq, value = word.partition("=")
        if name not in options:
            raise ParseError(f"{command}: unrecognized argument {word!r}")
        if not eq:
            if not words:
                raise ParseError(f"{name}: expected a value")
            value = words.pop(0)
        kind, _, choices = options[name]
        values[name] = _int(value, name) if kind is int else value
        if choices and value not in choices:
            raise ParseError(f"{name}: invalid choice {value!r} (choose from {', '.join(choices)})")
    missing = [name for name, (_, default, _) in options.items() if default is REQUIRED and name not in values]
    if missing:
        raise ParseError(f"{command}: missing required options: {', '.join(missing)}")
    return handler, {name[2:].replace("-", "_"): values.get(name, default) for name, (_, default, _) in options.items()}


def main(argv: list[str] | None = None) -> int:
    # For the whole command, raise CPython's int/str digit limit to what
    # the value cap admits; 0 (no limit) or a higher one is left alone.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if 0 < limit < _VALUE_DIGITS:
        sys.set_int_max_str_digits(_VALUE_DIGITS)
    # Pause the cyclic collector too: reference counting frees all a command drops.
    collecting = gc.isenabled()
    if collecting:
        gc.disable()
    try:
        handler, options = parse_argv(sys.argv[1:] if argv is None else argv)
        code = handler(**options) or 0
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: stop with success, and
        # point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ResourceExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        # Compiled evaluation recurses once per nesting level, so a deep
        # enough term overflows the stack before any budget is reached.
        print(f"error: interpreter resources exhausted ({type(exc).__name__})", file=sys.stderr)
        return 3
    except (DiagforgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, TypeCheckError, NotInTierError, ValueError, OSError)) else 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
