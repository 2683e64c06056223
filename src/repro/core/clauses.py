"""Clauses: LPS clauses, generalized rules, and LDL grouping clauses.

**LPS clause** (Definition 5)::

    A :- (forall x1 in X1) ... (forall xn in Xn) (B1 and ... and Bm)

where ``A`` is a non-special atom, each ``Bi`` an atom, each ``xi`` a sort-a
variable and each ``Xi`` a sort-s variable.  ``n = 0`` gives an ordinary Horn
clause, ``m = 0`` a fact.  We additionally allow negative literals among the
``Bi`` for the stratified extension of Sections 4.2/6.2 — core-LPS
validation (:meth:`LPSClause.check_core`) rejects them.

**Lemma 4** — every *ground instance* of an LPS clause is equivalent to a
ground Horn clause: each quantifier ``(∀x ∈ {u1,…,uk})`` unfolds into the
conjunction over the elements.  :meth:`LPSClause.ground_instances` implements
exactly that unfolding and is the bridge between the declarative semantics
(``T_P`` in ``repro.semantics.fixpoint``) and the theory tests.

**Rule** is the generalized form ``A :- φ`` with ``φ`` an arbitrary body
formula; Theorem 6's compiler turns positive-formula rules into LPS clauses,
and a program keeps the rules whose auxiliaries would not be
range-restricted as written, for the engine to solve.

**GroupingClause** is LDL's ``A(x̄, ⟨x⟩) :- B1 ∧ … ∧ Bm`` (Definition 14):
the grouped position collects *all* values of ``x`` satisfying the body.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .atoms import Atom, Literal, pos
from .errors import ClauseError, SortError
from .sorts import SORT_A, SORT_S, SORT_U
from .substitution import Subst
from .terms import SetValue, Term, Var, bind_args, free_vars as term_free_vars
from .formulas import (
    AndF,
    AtomF,
    Formula,
    ForallIn,
    NotF,
    TRUE,
    TrueF,
    conj,
    walk,
)


@dataclass(frozen=True, slots=True)
class LPSClause:
    """An LPS clause ``head :- (∀x1∈X1)…(∀xn∈Xn)(L1 ∧ … ∧ Lm)``.

    ``quantifiers`` is the prefix as (bound-variable, range-term) pairs; the
    paper requires the range to be a set *variable*, but we also accept a
    ground set term (useful for the ``sum`` base case ``X = {n}`` style of
    rules after parsing).  ``body`` is the matrix as a tuple of literals.
    """

    head: Atom
    quantifiers: tuple[tuple[Var, Term], ...] = ()
    body: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        if self.head.is_special():
            raise ClauseError(
                f"clause head {self.head} uses special predicate "
                f"{self.head.pred!r}; Definition 5 forbids redefining "
                "equality or membership"
            )
        head_vars = self.head.free_vars() if self.quantifiers else ()
        for bound, source in self.quantifiers:
            if bound.sort == SORT_S:
                raise ClauseError(
                    f"quantified variable {bound} has sort 's'; restricted "
                    "quantifiers bind sort-'a' variables (Definition 5)"
                )
            if source.sort == SORT_A:
                raise SortError(
                    f"quantifier range {source} has sort 'a'; must be set-sorted"
                )
            if bound in head_vars:
                raise ClauseError(
                    f"quantified variable {bound} occurs in the head "
                    f"{self.head}; heads must use only free variables"
                )

    # -- basic structure ------------------------------------------------------

    @property
    def is_fact(self) -> bool:
        return not self.body and not self.quantifiers

    @property
    def is_horn(self) -> bool:
        """Whether the clause is an ordinary Horn clause (no quantifiers)."""
        return not self.quantifiers

    def quantified_vars(self) -> set[Var]:
        return {v for v, _ in self.quantifiers}

    def free_vars(self) -> set[Var]:
        """Free variables of the clause (head + body + ranges − bound vars)."""
        out = self.head.free_vars()
        for _, source in self.quantifiers:
            out |= term_free_vars(source)
        for lit in self.body:
            out |= lit.free_vars()
        return out - self.quantified_vars()

    def body_atoms(self) -> Iterator[Atom]:
        for lit in self.body:
            yield lit.atom

    def has_negation(self) -> bool:
        return any(not lit.positive for lit in self.body)

    def check_core(self) -> None:
        """Raise unless this is a *core* LPS clause (no negative literals)."""
        if self.has_negation():
            raise ClauseError(
                f"clause {self} uses negation; core LPS bodies are "
                "conjunctions of atoms (Definition 5)"
            )

    # -- conversions -----------------------------------------------------------

    def body_formula(self) -> Formula:
        """The body as a formula: quantifier prefix over the conjunction."""
        matrix: Formula = conj(*(
            AtomF(l.atom) if l.positive else NotF(AtomF(l.atom))
            for l in self.body
        ))
        for bound, source in reversed(self.quantifiers):
            matrix = ForallIn(bound, source, matrix)
        return matrix

    def bind(self, params: Sequence[Term]) -> "LPSClause":
        """The clause with each body :class:`~repro.core.terms.Param`
        bound to its constant (a goal shape's template, instantiated)."""
        return LPSClause(self.head, self.quantifiers, tuple(
            Literal(Atom(l.atom.pred, bind_args(l.atom.args, params)),
                    l.positive)
            for l in self.body
        ))

    def substitute(self, theta: Subst) -> "LPSClause":
        """Apply a substitution, avoiding capture of the quantified variables."""
        quantified = self.quantified_vars()
        if quantified and any(v in theta for v in quantified):
            outer = Subst._make({v: t for v, t in theta.items()
                                 if v not in quantified})
        else:
            outer = theta
        return LPSClause(
            head=self.head.substitute(outer),
            quantifiers=tuple(
                (bound, outer.apply(source)) for bound, source in self.quantifiers
            ),
            body=tuple(lit.substitute(outer) for lit in self.body),
        )

    def ground_instances(self, theta: Subst) -> "HornGround":
        """Lemma 4: the ground Horn clause equivalent to this instance.

        ``theta`` must ground every free variable of the clause.  Each
        quantifier range becomes a :class:`SetValue`; the matrix is expanded
        over the product of the ranges.  A non-ground instantiation raises
        :class:`ClauseError`.
        """
        inst = self.substitute(theta)
        if inst.head.free_vars() - inst.quantified_vars():
            raise ClauseError(f"substitution does not ground the head of {self}")
        ranges: list[list[Term]] = []
        for bound, source in inst.quantifiers:
            if not isinstance(source, SetValue):
                raise ClauseError(
                    f"substitution does not ground quantifier range {source}"
                )
            ranges.append(source.sorted_elems())
        bound_vars = [v for v, _ in inst.quantifiers]
        literals: list[Literal] = []
        for combo in itertools.product(*ranges):
            rho = Subst._checked(dict(zip(bound_vars, combo)))
            for lit in inst.body:
                glit = lit.substitute(rho)
                if not glit.is_ground():
                    raise ClauseError(
                        f"substitution does not ground body literal {lit}"
                    )
                literals.append(glit)
        return HornGround(head=inst.head, body=tuple(literals))

    def __str__(self) -> str:
        prefix = "".join(
            f"forall {v} in {s} " for v, s in self.quantifiers
        )
        if not self.body and not self.quantifiers:
            return f"{self.head}."
        body = ", ".join(str(l) for l in self.body)
        if self.quantifiers:
            return f"{self.head} :- {prefix}({body})."
        return f"{self.head} :- {body}."


@dataclass(frozen=True, slots=True)
class HornGround:
    """A ground Horn clause (possibly with negative literals) — Lemma 4 output."""

    head: Atom
    body: tuple[Literal, ...]

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(l) for l in self.body)}."


def fact(head: Atom) -> LPSClause:
    """A unit clause."""
    if not head.is_ground():
        raise ClauseError(f"fact {head} is not ground")
    return LPSClause(head=head)


def horn(head: Atom, *body: Literal | Atom) -> LPSClause:
    """An ordinary Horn clause (no quantifier prefix)."""
    lits = tuple(l if isinstance(l, Literal) else pos(l) for l in body)
    return LPSClause(head=head, body=lits)


def clause(
    head: Atom,
    quantifiers: Iterable[tuple[Var, Term]] = (),
    body: Iterable[Literal | Atom] = (),
) -> LPSClause:
    """General LPS clause constructor accepting bare atoms in the body."""
    lits = tuple(l if isinstance(l, Literal) else pos(l) for l in body)
    return LPSClause(head=head, quantifiers=tuple(quantifiers), body=lits)


@dataclass(frozen=True, slots=True)
class Rule:
    """A generalized rule ``head :- formula`` (Theorem 6 input form).

    A program keeps a rule in this form, as parsed, when the auxiliaries
    Theorem 6 would lift out of it range over the active domain
    (:func:`repro.lang.parser.parse_program`); the engine then solves the
    formula over the bindings its own conjuncts give.  ``body`` is a
    :class:`~repro.core.formulas.Formula`, never a tuple of literals.
    """

    head: Atom
    body: Formula = TRUE

    def __post_init__(self) -> None:
        if self.head.is_special():
            raise ClauseError(
                f"rule head {self.head} uses a special predicate"
            )

    def is_positive(self) -> bool:
        return self.body.is_positive()

    @property
    def is_fact(self) -> bool:
        return isinstance(self.body, TrueF)

    def has_negation(self) -> bool:
        return any(isinstance(f, NotF) for f in walk(self.body))

    def body_formula(self) -> Formula:
        return self.body

    def free_vars(self) -> set[Var]:
        return self.head.free_vars() | self.body.free_vars()

    def __str__(self) -> str:
        if isinstance(self.body, type(TRUE)):
            return f"{self.head}."
        return f"{self.head} :- {self.body}."


@dataclass(frozen=True, slots=True)
class GroupingClause:
    """An LDL grouping clause ``p(t1,…,⟨x⟩,…,tn) :- L1 ∧ … ∧ Lm``.

    ``group_pos`` is the index of the grouped argument in the head and
    ``group_var`` the grouped variable ``x``.  Semantics (Definition 14): for
    each binding of the *other* head variables, the grouped position holds
    the set of all values of ``x`` for which the body is derivable.  Note the
    grouped set may be empty only if we chose to derive heads for non-matched
    bindings — following LDL we only derive heads when at least one body
    instance holds, and we treat grouping as negation for stratification.
    """

    pred: str
    head_args: tuple[Term, ...]
    group_pos: int
    group_var: Var
    body: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if not (0 <= self.group_pos < len(self.head_args) + 1):
            raise ClauseError("grouping position out of range")
        if self.group_var.sort == SORT_S:
            raise ClauseError(
                f"grouped variable {self.group_var} has sort 's'; LDL groups "
                "individual values (Definition 14)"
            )
        for t in self.head_args:
            for v in term_free_vars(t):
                if v == self.group_var:
                    raise ClauseError(
                        f"grouped variable {self.group_var} also appears as a "
                        "plain head argument"
                    )

    def free_vars(self) -> set[Var]:
        out: set[Var] = set()
        for t in self.head_args:
            out |= term_free_vars(t)
        for lit in self.body:
            out |= lit.free_vars()
        return out

    def __str__(self) -> str:
        args = [str(t) for t in self.head_args]
        args.insert(self.group_pos, f"<{self.group_var}>")
        body = ", ".join(str(l) for l in self.body)
        return f"{self.pred}({', '.join(args)}) :- {body}."
