"""Error types shared across the package.

The CLI maps these onto exit codes: SchemaError (malformed input) -> 2,
EpimorphismError / FiniteQuotientError (valid input, inapplicable
analysis) -> 3, InternalDefect (a failed self-check) -> 4.  Plain
ValueError covers violated operation preconditions and also exits 2.
"""


class SchemaError(ValueError):
    """Input document does not match the expected schema."""


class EpimorphismError(ValueError):
    """Character is identically zero, so it defines no epimorphism."""


class FiniteQuotientError(ValueError):
    """Defining matrix has rank 0, so the quotient is finite."""


class InternalDefect(RuntimeError):
    """A runtime self-check failed: a bug in the program, never a verdict.

    Raised explicitly rather than by ``assert`` so that ``python -O``
    keeps the check.
    """
