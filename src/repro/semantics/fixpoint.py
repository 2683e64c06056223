"""The immediate-consequence operator ``T_P`` and its least fixpoint.

Definition 11 of the paper: ``T_P(M)`` is the set of atoms ``A`` in the
Herbrand base for which some ground instance ``A :- B1 ∧ … ∧ Bk`` of a
clause of ``P`` (after Lemma-4 unfolding of the restricted quantifiers) has
all ``Bi`` true in ``M``.  Theorem 5: ``M_P = lfp(T_P) = T_P ↑ ω``.

This module implements ``T_P`` **exactly over a finite universe**: ground
instances are enumerated by assigning the clause's free variables over the
carriers, then each instance's body formula is decided under Definition 3,
its restricted quantifiers unfolding over their ground ranges — literally
Lemma 4.  A rule the program keeps as a positive formula
(:class:`~repro.core.clauses.Rule`) is decided the same way.
It is deliberately brute force; its purpose is to be an obviously correct
reference against which the optimised engine (``repro.engine``) is tested.
Only positive programs are accepted — ``T_P`` for programs with negation is
not monotone and is handled by the stratified engine instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.atoms import Atom
from ..core.clauses import GroupingClause
from ..core.errors import EvaluationError
from ..core.formulas import evaluate
from ..core.program import Program
from .herbrand import Universe
from .interpretation import Interpretation, assignments


class TpOperator:
    """``T_P`` over a fixed finite universe (Definition 11).

    The operator is monotone (each application can only add atoms), which the
    property tests verify explicitly as part of reproducing Theorem 5.
    """

    def __init__(self, program: Program, universe: Universe) -> None:
        for c in program.clauses:
            if isinstance(c, GroupingClause):
                raise EvaluationError(
                    "T_P is defined for LPS clauses only; grouping clauses "
                    "need the stratified engine (Section 6)"
                )
            if c.has_negation():
                raise EvaluationError(
                    f"T_P is monotone only for positive programs; clause "
                    f"{c} uses negation"
                )
        self.program = program
        self.universe = universe

    def step(self, interp: Interpretation) -> Interpretation:
        """One application of ``T_P``."""
        out = Interpretation()
        for a in self.derived(interp):
            out.add(a)
        return out

    def derived(self, interp: Interpretation) -> Iterator[Atom]:
        """Atoms derivable in one step from ``interp``."""
        for c in self.program.clauses:
            free = sorted(c.free_vars(), key=lambda v: (v.sort, v.name))
            body = c.body_formula()
            for theta in assignments(free, self.universe):
                if evaluate(body.substitute(theta), interp.holds):
                    yield c.head.substitute(theta)

    def is_prefixpoint(self, interp: Interpretation) -> bool:
        """Whether ``T_P(interp) ⊆ interp`` (interp is a model of P's rules)."""
        return all(a in interp for a in self.derived(interp))


@dataclass
class FixpointResult:
    """The least fixpoint together with the iteration trace.

    ``stages[i]`` is ``T_P ↑ i`` (``stages[0]`` is empty); ``rounds`` is the
    ordinal at which the fixpoint was reached.
    """

    interpretation: Interpretation
    rounds: int
    stages: list[Interpretation]


def least_fixpoint(
    program: Program,
    universe: Universe,
    max_rounds: Optional[int] = None,
    keep_stages: bool = False,
) -> FixpointResult:
    """Compute ``T_P ↑ ω`` over the finite universe (Theorem 5).

    Over a finite universe the ascending Kleene chain stabilises after
    finitely many rounds; ``max_rounds`` guards against misuse with huge
    carriers.
    """
    op = TpOperator(program, universe)
    current = Interpretation()
    stages: list[Interpretation] = [current.copy()] if keep_stages else []
    rounds = 0
    while True:
        nxt = op.step(current)
        merged = current | nxt
        rounds += 1
        if keep_stages:
            stages.append(merged.copy())
        if len(merged) == len(current):
            return FixpointResult(merged, rounds - 1, stages)
        current = merged
        if max_rounds is not None and rounds > max_rounds:
            raise EvaluationError(
                f"fixpoint did not stabilise within {max_rounds} rounds"
            )
