"""The two-sorted type discipline of LPS (Definition 1).

LPS is based on a logic with two sorts:

* ``a`` — atomic (individual) objects,
* ``s`` — finite sets of atomic objects.

ELPS (Section 5 of the paper) drops the stratified typing and works in an
untyped universe of atoms and arbitrarily nested finite sets; we model that
with a third pseudo-sort ``u`` ("untyped") used for ELPS variables, plus a
nesting-depth notion on ground values.

This module centralises sort names, predicate/function signatures and the
checks that keep models Herbrand-friendly:

* non-special function symbols must have range sort ``a`` (the paper's
  Example 8 shows the semantics breaks otherwise), and
* the special predicates ``=a``, ``=s`` and ``∈`` have fixed signatures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SortError

#: Sort of atomic (individual) objects.
SORT_A = "a"
#: Sort of sets of atomic objects (one nesting level in LPS).
SORT_S = "s"
#: Pseudo-sort for ELPS's untyped variables (atoms or arbitrarily nested sets).
SORT_U = "u"

ALL_SORTS = (SORT_A, SORT_S, SORT_U)

#: Name of the built-in membership predicate.
MEMBER = "in"
#: Name used for both equality predicates; the sort decoration (``=a`` vs
#: ``=s`` in the paper) is recovered from the argument sorts.
EQUALS = "="

SPECIAL_PREDICATES = frozenset({MEMBER, EQUALS})


def is_special_predicate(name: str) -> bool:
    """Return ``True`` for the built-in ``=`` and ``in`` predicates."""
    return name in SPECIAL_PREDICATES


def check_sort(sort: str) -> str:
    """Validate a sort name, returning it; raise :class:`SortError` if bad."""
    if sort not in ALL_SORTS:
        raise SortError(f"unknown sort {sort!r}; expected one of {ALL_SORTS}")
    return sort


def sorts_compatible(expected: str, actual: str) -> bool:
    """Whether a value of sort ``actual`` may appear where ``expected`` is required.

    The untyped pseudo-sort ``u`` is compatible with everything (ELPS mode);
    otherwise sorts must match exactly.
    """
    return expected == SORT_U or actual == SORT_U or expected == actual


@dataclass(frozen=True)
class PredicateSignature:
    """Signature ``p^{alpha}`` of a predicate (Definition 1, item 1).

    ``arg_sorts`` is the string of sorts the paper writes as a superscript,
    e.g. ``("a", "s")`` for the unnest example's ``R(x, Y)``.
    """

    name: str
    arg_sorts: tuple[str, ...]

    def __post_init__(self) -> None:
        for sort in self.arg_sorts:
            check_sort(sort)

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}^{''.join(self.arg_sorts)}"


@dataclass(frozen=True)
class FunctionSignature:
    """Signature of a non-special function symbol ``f : a^n -> a``.

    Definition 1 (item 2) restricts every user function symbol to map atoms
    to atoms; the set constructors ``{n : a^n -> s`` are built in and are the
    only symbols producing sets.  Attempting to declare any other range sort
    raises :class:`SortError` — this is the Example 8 guard.
    """

    name: str
    arity: int
    range_sort: str = SORT_A

    def __post_init__(self) -> None:
        check_sort(self.range_sort)
        if self.range_sort != SORT_A:
            raise SortError(
                f"function symbol {self.name!r} declared with range sort "
                f"{self.range_sort!r}: non-special function symbols must map "
                "into sort 'a' (paper, Definition 1 / Example 8)"
            )
        if self.arity < 0:
            raise SortError(f"function {self.name!r} has negative arity")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}/{self.arity}"

