"""Exception types shared across the workbench."""


class DiagforgeError(Exception):
    """Base class for all workbench errors."""


class ParseError(DiagforgeError):
    """Malformed S-expression or malformed value text."""


class UnknownConstructorError(ParseError):
    """An S-expression head that names no kernel constructor."""

    def __init__(self, name: str):
        super().__init__(f"unknown constructor: {name!r}")
        self.name = name


class TypeCheckError(DiagforgeError):
    """Base class for well-formedness failures."""


class SortMismatchError(TypeCheckError):
    def __init__(self, path: tuple, expected, found):
        super().__init__(f"sort mismatch at {list(path)}: expected {expected.value}, found {found.value}")
        self.path = path
        self.expected = expected
        self.found = found


class UnboundVariableError(TypeCheckError):
    def __init__(self, name: str, path: tuple):
        super().__init__(f"unbound variable {name!r} at {list(path)}")
        self.name = name
        self.path = path


class ResourceExhaustedError(DiagforgeError):
    """Evaluation budget exceeded (step count or value-size cap).

    `at` names where a command failed, when known: "index n" for the n-th
    function of a machine stream, or a space's probe and term. `probe_index`
    is the position of the probe that ran out in interp.run_probes, else None.
    """

    def __init__(self, steps_used: int, reason: str = "steps", at: str | None = None):
        where = f" at {at}" if at else ""
        super().__init__(f"evaluation budget exhausted ({reason}, {steps_used} steps used{where})")
        self.steps_used = steps_used
        self.reason = reason
        self.at = at
        self.probe_index: int | None = None


class NotInTierError(DiagforgeError):
    """Program is not a well-formed member of the requested tier."""


class EmptyClassifierError(DiagforgeError):
    """Classifier accepted fewer programs than requested within the horizon."""

    def __init__(self, found: int, requested: int, horizon: int):
        super().__init__(
            f"classifier accepted only {found} of {requested} requested programs "
            f"within the first {horizon} enumeration indices"
        )
        self.found = found
        self.requested = requested
        self.horizon = horizon


class DuplicateProbeError(DiagforgeError):
    """A probe value occurs twice in a space's domain."""


class EmptyProbesError(DiagforgeError):
    """A space needs at least one probe value."""
