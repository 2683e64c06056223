"""Body formulas: conjunction, disjunction, restricted quantifiers, negation.

Core LPS bodies are quantifier-prefixed conjunctions of atoms (Definition 5),
but Section 4.1 works with the richer class of **positive formulas**
(Definition 12): atoms closed under ``∧``, ``∨``, ``(∃x ∈ X)`` and
``(∀x ∈ X)``.  Theorem 6 compiles any positive-formula body back into pure
LPS; that compiler (``repro.transform.positive``) consumes the AST defined
here.

Negation (:class:`NotF`) is included for the stratified extension of
Sections 4.2 / 6.2 — a formula containing it is *not* positive.

The module also implements **model checking** of closed formulas against a
"holds" oracle (:func:`evaluate`).  Because LPS quantifiers are *restricted*
(they range over the elements of a ground set value), closed formulas are
decidable without reference to any domain: ``(∀x ∈ {a,b}) φ`` unfolds to
``φ[x/a] ∧ φ[x/b]`` and ``(∀x ∈ ∅) φ`` is *true* — the empty-set subtlety
that Definition 4 and Section 4.1 stress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .atoms import Atom
from .errors import ClauseError, SortError
from .sorts import EQUALS, MEMBER, SORT_A, SORT_S, SORT_U
from .substitution import Subst
from .terms import SetValue, Term, Var


class Formula:
    """Abstract base class of body formulas."""

    __slots__ = ()

    def free_vars(self) -> set[Var]:
        raise NotImplementedError

    def substitute(self, theta: Subst) -> "Formula":
        raise NotImplementedError

    def is_positive(self) -> bool:
        """Whether this is a positive formula in the sense of Definition 12."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class TrueF(Formula):
    """The trivially true body (used for facts)."""

    def free_vars(self) -> set[Var]:
        return set()

    def substitute(self, theta: Subst) -> "Formula":
        return self

    def is_positive(self) -> bool:
        return True

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True, slots=True)
class AtomF(Formula):
    """An atomic formula used as a body formula."""

    atom: Atom

    def free_vars(self) -> set[Var]:
        return self.atom.free_vars()

    def substitute(self, theta: Subst) -> "Formula":
        return AtomF(self.atom.substitute(theta))

    def is_positive(self) -> bool:
        return True

    def __str__(self) -> str:
        return str(self.atom)


@dataclass(frozen=True, slots=True)
class NotF(Formula):
    """Negation — only meaningful in the stratified extension."""

    sub: Formula

    def free_vars(self) -> set[Var]:
        return self.sub.free_vars()

    def substitute(self, theta: Subst) -> "Formula":
        return NotF(self.sub.substitute(theta))

    def is_positive(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"not ({self.sub})"


@dataclass(frozen=True, slots=True)
class AndF(Formula):
    """Conjunction of zero or more formulas (empty conjunction is true)."""

    parts: tuple[Formula, ...]

    def free_vars(self) -> set[Var]:
        out: set[Var] = set()
        for p in self.parts:
            out |= p.free_vars()
        return out

    def substitute(self, theta: Subst) -> "Formula":
        return AndF(tuple(p.substitute(theta) for p in self.parts))

    def is_positive(self) -> bool:
        return all(p.is_positive() for p in self.parts)

    def __str__(self) -> str:
        return " and ".join(_paren(p) for p in self.parts) if self.parts else "true"


@dataclass(frozen=True, slots=True)
class OrF(Formula):
    """Disjunction of formulas."""

    parts: tuple[Formula, ...]

    def free_vars(self) -> set[Var]:
        out: set[Var] = set()
        for p in self.parts:
            out |= p.free_vars()
        return out

    def substitute(self, theta: Subst) -> "Formula":
        return OrF(tuple(p.substitute(theta) for p in self.parts))

    def is_positive(self) -> bool:
        return all(p.is_positive() for p in self.parts)

    def __str__(self) -> str:
        return " or ".join(_paren(p) for p in self.parts) if self.parts else "false"


def _check_quantifier(var: Var, source: Term) -> None:
    if var.sort == SORT_S:
        raise ClauseError(
            f"restricted quantifier binds {var} of sort 's'; Definition 4 "
            "requires the bound variable to be of sort 'a' (or untyped in ELPS)"
        )
    if source.sort == SORT_A:
        raise SortError(
            f"restricted quantifier ranges over {source} of sort 'a'; the "
            "range must be a set-sorted term"
        )


@dataclass(frozen=True, slots=True)
class ForallIn(Formula):
    """Restricted universal quantification ``(∀var ∈ source) body``.

    Abbreviates ``(∀var)(var ∈ source → body)`` (Definition 4); in
    particular it is **true when source is empty**.
    """

    var: Var
    source: Term
    body: Formula

    def __post_init__(self) -> None:
        _check_quantifier(self.var, self.source)

    def free_vars(self) -> set[Var]:
        out = set(self.body.free_vars())
        out.discard(self.var)
        from .terms import free_vars as tfv
        out |= tfv(self.source)
        return out

    def substitute(self, theta: Subst) -> "Formula":
        if self.var in theta:
            inner = Subst._make(
                {v: t for v, t in theta.items() if v != self.var}
            )
        else:
            inner = theta
        return ForallIn(self.var, theta.apply(self.source), self.body.substitute(inner))

    def is_positive(self) -> bool:
        return self.body.is_positive()

    def __str__(self) -> str:
        return f"forall {self.var} in {self.source} ({self.body})"


@dataclass(frozen=True, slots=True)
class ExistsIn(Formula):
    """Restricted existential quantification ``(∃var ∈ source) body``.

    Part of the positive-formula class of Definition 12; equivalent to the
    LPS body ``var ∈ source ∧ body`` with ``var`` fresh.
    """

    var: Var
    source: Term
    body: Formula

    def __post_init__(self) -> None:
        _check_quantifier(self.var, self.source)

    def free_vars(self) -> set[Var]:
        out = set(self.body.free_vars())
        out.discard(self.var)
        from .terms import free_vars as tfv
        out |= tfv(self.source)
        return out

    def substitute(self, theta: Subst) -> "Formula":
        if self.var in theta:
            inner = Subst._make(
                {v: t for v, t in theta.items() if v != self.var}
            )
        else:
            inner = theta
        return ExistsIn(self.var, theta.apply(self.source), self.body.substitute(inner))

    def is_positive(self) -> bool:
        return self.body.is_positive()

    def __str__(self) -> str:
        return f"exists {self.var} in {self.source} ({self.body})"


def _paren(f: Formula) -> str:
    if isinstance(f, (AtomF, TrueF, NotF)):
        return str(f)
    return f"({f})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

TRUE = TrueF()


def conj(*parts: Formula) -> Formula:
    """N-ary conjunction, flattening nested conjunctions."""
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, AndF):
            flat.extend(p.parts)
        elif isinstance(p, TrueF):
            continue
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return AndF(tuple(flat))


def disj(*parts: Formula) -> Formula:
    """N-ary disjunction, flattening nested disjunctions."""
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, OrF):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return OrF(tuple(flat))


def atomf(a: Atom) -> AtomF:
    return AtomF(a)


# ---------------------------------------------------------------------------
# Model checking of closed formulas
# ---------------------------------------------------------------------------

HoldsOracle = Callable[[Atom], bool]


def evaluate(formula: Formula, holds: HoldsOracle) -> bool:
    """Truth value of a **closed** formula.

    ``holds`` decides ground non-special atoms (an interpretation).  The
    special predicates are interpreted structurally, per Definition 3:
    equality is identity of canonical ground terms, membership is membership
    in a :class:`SetValue`.  Restricted quantifiers unfold over the elements
    of their (necessarily ground) range set.

    Raises :class:`ClauseError` if the formula is not closed.
    """
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, AtomF):
        return evaluate_ground_atom(formula.atom, holds)
    if isinstance(formula, NotF):
        return not evaluate(formula.sub, holds)
    if isinstance(formula, AndF):
        return all(evaluate(p, holds) for p in formula.parts)
    if isinstance(formula, OrF):
        return any(evaluate(p, holds) for p in formula.parts)
    if isinstance(formula, (ForallIn, ExistsIn)):
        source = formula.source
        if not isinstance(source, SetValue):
            raise ClauseError(
                f"cannot evaluate quantifier over non-ground range {source}"
            )
        instances = (
            evaluate(
                formula.body.substitute(Subst._checked({formula.var: e})),
                holds,
            )
            for e in source.sorted_elems()
        )
        if isinstance(formula, ForallIn):
            return all(instances)
        return any(instances)
    raise TypeError(f"not a formula: {formula!r}")


def evaluate_ground_atom(a: Atom, holds: HoldsOracle) -> bool:
    """Truth of a ground atom: built-ins structurally, others via ``holds``."""
    if not a.is_ground():
        raise ClauseError(f"atom {a} is not ground")
    if a.pred == EQUALS:
        return a.args[0] == a.args[1]
    if a.pred == MEMBER:
        container = a.args[1]
        if not isinstance(container, SetValue):
            raise SortError(f"membership in non-set value {container}")
        return a.args[0] in container
    return holds(a)


def walk(formula: Formula) -> Iterator[Formula]:
    """Yield the formula and all subformulas, outermost first."""
    yield formula
    if isinstance(formula, (AndF, OrF)):
        for p in formula.parts:
            yield from walk(p)
    elif isinstance(formula, NotF):
        yield from walk(formula.sub)
    elif isinstance(formula, (ForallIn, ExistsIn)):
        yield from walk(formula.body)


def atoms_of(formula: Formula) -> Iterator[Atom]:
    """Yield every atom occurring in the formula."""
    for f in walk(formula):
        if isinstance(f, AtomF):
            yield f.atom


def predicates_of(formula: Formula) -> set[str]:
    """Names of non-special predicates occurring in the formula."""
    return {a.pred for a in atoms_of(formula) if not a.is_special()}


def signed_atoms(
    formula: Formula, positive: bool = True
) -> Iterator[tuple[Atom, bool]]:
    """Yield ``(atom, positive)`` for every atom of the formula; an atom
    under any ``¬`` is negative (its predicate must be complete first)."""
    if isinstance(formula, AtomF):
        yield formula.atom, positive
    elif isinstance(formula, NotF):
        yield from signed_atoms(formula.sub, False)
    elif isinstance(formula, (AndF, OrF)):
        for p in formula.parts:
            yield from signed_atoms(p, positive)
    elif isinstance(formula, (ForallIn, ExistsIn)):
        yield from signed_atoms(formula.body, positive)


def terms_of(formula: Formula) -> Iterator[Term]:
    """The argument and range terms of the formula, outermost first."""
    for f in walk(formula):
        if isinstance(f, AtomF):
            yield from f.atom.args
        elif isinstance(f, (ForallIn, ExistsIn)):
            yield f.source


def has_quantifier(formula: Formula) -> bool:
    return any(isinstance(f, (ForallIn, ExistsIn)) for f in walk(formula))


def map_atoms(formula: Formula, fn: Callable[[Atom], Atom]) -> Formula:
    """The formula with every atom replaced by ``fn(atom)``."""
    if isinstance(formula, AtomF):
        return AtomF(fn(formula.atom))
    if isinstance(formula, NotF):
        return NotF(map_atoms(formula.sub, fn))
    if isinstance(formula, (AndF, OrF)):
        return type(formula)(tuple(map_atoms(p, fn) for p in formula.parts))
    if isinstance(formula, (ForallIn, ExistsIn)):
        return type(formula)(
            formula.var, formula.source, map_atoms(formula.body, fn)
        )
    return formula
