"""Exception hierarchy for the LPS reproduction.

Every error raised by the library derives from :class:`LPSError`, so callers
can catch one type.  Subclasses mark the subsystem at fault: sort discipline
(:class:`SortError`), malformed clauses (:class:`ClauseError`), unsafe rules
the bottom-up engine refuses to run (:class:`SafetyError`), stratification
failures (:class:`StratificationError`), surface-syntax problems
(:class:`ParseError`) and engine resource limits (:class:`EvaluationError`).
"""

from __future__ import annotations


class LPSError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SortError(LPSError):
    """A term or declaration violates the two-sorted discipline.

    Raised, for instance, when a user function symbol is declared with range
    sort ``s`` — the situation Example 8 of the paper shows would break the
    Herbrand-model property.
    """


class ClauseError(LPSError):
    """A clause is syntactically malformed as an LPS/ELPS/LDL clause.

    Examples: a special predicate (``=`` or ``in``) in the head
    (Definition 5 requires the head to be non-special), a restricted
    quantifier whose bound variable is not of sort ``a``, or a grouping
    clause with more than one grouped variable.
    """


class ArityError(ClauseError):
    """A predicate used at a second arity — in a program, a fact, a store
    or a logged record: in the paper's language L it has one."""

    code = "arity_conflict"


class SafetyError(LPSError):
    """A rule cannot be evaluated finitely under the configured policy."""


class StratificationError(LPSError):
    """The program has no stratification (negation/grouping in a cycle)."""


class ParseError(LPSError):
    """Surface-syntax error, with position information.

    Attributes
    ----------
    line, column:
        1-based position of the offending token in the source text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class EvaluationError(LPSError):
    """The engine hit a resource bound (domain blow-up, depth limit, ...)."""


class UnificationError(LPSError):
    """Internal signal: two terms do not unify.

    The public unification API returns ``None``/empty iterators instead of
    raising; this class is used by helpers that prefer exceptions.
    """
