"""diagforge: an executable counterpart of the diagonal incompleteness argument.

A total term language is enumerated effectively; the diagonal function
g(n) = f_n(n) + 1 escapes any machine producing the stream, extension by g
yields a machine escaped again by its own diagonal, and any classifier of
total functions is refuted the same way. The same enumeration machinery
drives bottom-up program synthesis from a reflection base (a set of kernel
operators, whose component facts are the kernel typing table), organized
into analytical spaces of behavior-equivalence classes.
"""

from .enumeration import Tier, enumerate_stream, index_of, program_at
from .errors import (
    DiagforgeError,
    DuplicateProbeError,
    EmptyClassifierError,
    EmptyProbesError,
    NotInTierError,
    ParseError,
    ResourceExhaustedError,
    SortMismatchError,
    TypeCheckError,
    UnboundVariableError,
    UnknownConstructorError,
)
from .interp import EvalBudget, evaluate
from .kernel import (
    Sort,
    Term,
    TypedProgram,
    Value,
    check_well_formed,
    format_value,
    parse,
    parse_value,
    pretty,
    size,
)
from .machines import (
    Base,
    Extend,
    Machine,
    OracleFn,
    Witness,
    diagonal,
    extend,
    function_at,
    iterate,
    witness_rows,
)
from .refuter import (
    AcceptAll,
    AcceptNone,
    MaxSize,
    ProgramDecider,
    accepted_prefix,
)
from .spaces import AnalyticalSpace, absorb, expand_domain, new_space, unify
from .synthesis import (
    LIST_BASE,
    NAT_BASE,
    GoalSpec,
    Pool,
    make_goal,
    synthesize,
)

__version__ = "0.1.0"
