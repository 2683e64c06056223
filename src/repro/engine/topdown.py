"""A goal-directed (SLD-style) prover for LPS programs.

Section 3.2 of the paper remarks that "the standard procedural semantics can
also be extended to LPS.  However, to do so, we have to use arbitrary
unifiers, rather than the most specific one.  For this reason, it is no
longer a practical decision procedure."  This module realises exactly that:

* clause application uses :func:`repro.core.unify.unify_atoms`, which
  enumerates a complete finite set of unifiers (set terms are non-unitary);
* restricted quantifiers in a clause body are *delayed* until their range
  set is instantiated, then unfolded per Lemma 4;
* the search is depth-bounded and loop-checked on ground subgoals, so it is
  a sound but — as the paper predicts — incomplete decision procedure.

The prover is compared against the bottom-up engine in the tests (they must
agree on ground queries whenever the prover terminates) and in benchmark B3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from ..core.atoms import Atom, Literal, atom_order_key
from ..core.clauses import GroupingClause, LPSClause
from ..core.errors import EvaluationError
from ..core.formulas import Formula, evaluate
from ..core.program import Program
from ..core.sorts import EQUALS, MEMBER
from ..core.substitution import Subst
from ..core.terms import SetValue, Term, Var, free_vars
from ..core.unify import unify, unify_atoms
from ..semantics.interpretation import Interpretation
from .builtins import DEFAULT_BUILTINS, Builtin
from .database import Database


@dataclass(frozen=True)
class _Goal:
    """A pending proof obligation.

    ``quantifiers`` is the not-yet-unfolded prefix for goals spawned from a
    clause body; a goal is *ready* once enough of the environment is known
    (its quantifier sources resolve to ground sets, or it has none).
    ``ancestors`` holds the ground goal atoms on this goal's own derivation
    path — the loop check compares against them only, so repeated *sibling*
    subgoals (e.g. ``p(b) :- p(a), p(a)``) are unaffected.
    """

    literal: Literal
    quantifiers: tuple[tuple[Var, Term], ...] = ()
    ancestors: frozenset = frozenset()


class TopDownProver:
    """Depth-bounded SLD proof search with set unification."""

    def __init__(
        self,
        program: Program,
        database: Optional[Database] = None,
        builtins: Mapping[str, Builtin] = DEFAULT_BUILTINS,
        max_depth: int = 400,
    ) -> None:
        for c in program.clauses:
            if isinstance(c, GroupingClause):
                raise EvaluationError(
                    "the top-down prover handles LPS clauses only"
                )
        # Rules kept as positive formulas resolve as their Theorem 6
        # clauses.
        from ..transform.positive import lps_program

        program = lps_program(program)
        self.builtins = builtins
        self.max_depth = max_depth
        # Ground unit clauses are facts: they go to an indexed store (shared
        # machinery with the bottom-up engine — see DESIGN.md) rather than
        # the clause list, so goal resolution against a large EDB is a hash
        # lookup on the goal's bound argument positions instead of a linear
        # scan that unifies with every unit clause.
        self._by_pred: dict[str, list[LPSClause]] = {}
        self._facts = Interpretation()
        fact_atoms: list[Atom] = []
        for c in program.lps_clauses():
            if c.is_fact and c.head.is_ground() and not c.head.is_special():
                fact_atoms.append(c.head)
            else:
                self._by_pred.setdefault(c.head.pred, []).append(c)
        if database is not None:
            fact_atoms.extend(database.facts())
        # Deterministic fact order (database iteration order is not).
        for a in sorted(fact_atoms, key=atom_order_key):
            self._facts.add(a)
        self._fresh = itertools.count()

    # -- public API -----------------------------------------------------------

    def prove(self, goal: Atom, env: Subst = Subst()) -> Iterator[Subst]:
        """Enumerate answer substitutions for a single goal atom."""
        goals = [_Goal(Literal(goal, True))]
        goal_vars = sorted(goal.free_vars(), key=lambda v: v.name)
        for sigma in self._solve(goals, env, depth=0):
            # Resolve chains through renamed clause variables before
            # projecting onto the query variables.
            yield Subst({v: sigma.apply(v) for v in goal_vars
                         if sigma.apply(v) != v})

    def holds(self, goal: Atom) -> bool:
        """Whether a ground goal is provable."""
        return next(self.prove(goal), None) is not None

    def ask(self, goal: Atom, limit: Optional[int] = None) -> list[Subst]:
        """Collect up to ``limit`` answers."""
        out = []
        for sigma in self.prove(goal):
            out.append(sigma)
            if limit is not None and len(out) >= limit:
                break
        return out

    # -- search -----------------------------------------------------------------

    def _solve(
        self,
        goals: list[_Goal],
        env: Subst,
        depth: int,
    ) -> Iterator[Subst]:
        if not goals:
            yield env
            return
        if depth > self.max_depth:
            return
        idx = self._select(goals, env)
        if idx is None:
            # Every remaining goal is delayed on an uninstantiated set; the
            # paper's "no longer a practical decision procedure" in action.
            return
        goal = goals[idx]
        rest = goals[:idx] + goals[idx + 1:]
        for env2, new_goals in self._expand(goal, env):
            yield from self._solve(new_goals + rest, env2, depth + 1)

    def _select(self, goals: list[_Goal], env: Subst) -> Optional[int]:
        for i, g in enumerate(goals):
            if self._ready(g, env):
                return i
        return None

    def _ready(self, g: _Goal, env: Subst) -> bool:
        if g.quantifiers:
            # Pending prefix: the goal is ready to *unfold* as soon as every
            # range set is instantiated; the literal itself is only
            # inspected after expansion grounds the bound variables.
            return all(
                isinstance(env.apply(source), SetValue)
                for _, source in g.quantifiers
            )
        a = g.literal.atom
        if not g.literal.positive:
            return a.substitute(env).is_ground()
        if a.pred == MEMBER:
            return isinstance(env.apply(a.args[1]), SetValue)
        if a.pred == EQUALS:
            l, r = (env.apply(t) for t in a.args)
            return l.is_ground() or r.is_ground() or isinstance(
                l, Var
            ) or isinstance(r, Var)
        if a.pred in self.builtins:
            args = tuple(env.apply(t) for t in a.args)
            return self.builtins[a.pred].ready(args)
        return True

    def _expand(
        self, goal: _Goal, env: Subst
    ) -> Iterator[tuple[Subst, list[_Goal]]]:
        # Unfold the (now ground) quantifier prefix first: Lemma 4.
        if goal.quantifiers:
            (var, source), remaining = goal.quantifiers[0], goal.quantifiers[1:]
            sv = env.apply(source)
            assert isinstance(sv, SetValue)
            # The goal multiplies into one copy per element; the empty set
            # discharges it entirely (vacuous truth).
            goals_out: list[_Goal] = []
            for e in sv.sorted_elems():
                lit = goal.literal.substitute(Subst({var: e}))
                goals_out.append(_Goal(lit, remaining, goal.ancestors))
            yield env, goals_out
            return

        lit = goal.literal
        a = lit.atom.substitute(env)

        if not lit.positive:
            # Negation as failure on ground literals.
            if self.holds_closed(a):
                return
            yield env, []
            return

        if a.pred == EQUALS:
            for sigma in unify(a.args[0], a.args[1], env):
                yield sigma, []
            return
        if a.pred == MEMBER:
            container = env.apply(a.args[1])
            if isinstance(container, SetValue):
                for e in container.sorted_elems():
                    for sigma in unify(a.args[0], e, env):
                        yield sigma, []
            return
        if a.pred in self.builtins:
            b = self.builtins[a.pred]
            for sigma in b.solve(tuple(a.args), env):
                yield sigma, []
            return

        if a.is_ground() and a in goal.ancestors:
            return  # loop check on the goal's own derivation path
        child_ancestors = (
            goal.ancestors | {a} if a.is_ground() else goal.ancestors
        )
        for fct in self._fact_candidates(a):
            for sigma in unify_atoms(a, fct, env):
                yield sigma, []
        for c in self._by_pred.get(a.pred, ()):
            renamed = self._rename(c)
            for sigma in unify_atoms(a, renamed.head, env):
                body_goals = [
                    _Goal(l, renamed.quantifiers, child_ancestors)
                    for l in renamed.body
                ]
                if not renamed.body and renamed.quantifiers:
                    # A clause whose entire body is quantified over possibly
                    # empty sets with no literals is just true.
                    body_goals = []
                yield sigma, body_goals

    def _fact_candidates(self, a: Atom):
        """Facts that can resolve the (env-applied) goal atom ``a``.

        Uses the interpretation's shared candidate policy (single-position
        indexes, most selective bound position first — see
        :meth:`Interpretation.candidates_for_pattern`); small relations
        and all-unbound goals scan the insertion-ordered fact map
        directly.  Facts were inserted in ``atom_order_key`` order, so
        enumeration order is deterministic regardless of how the database
        iterated.
        """
        return self._facts.candidates_for_pattern(a.pred, a.args)

    def holds_closed(self, a: Atom) -> bool:
        """Ground-atom provability (used for negation as failure)."""
        return next(self.prove(a), None) is not None

    def _rename(self, c: LPSClause) -> LPSClause:
        """Rename clause variables apart with a fresh suffix."""
        n = next(self._fresh)
        mapping = {
            v: Var(f"{v.name}__r{n}", v.var_sort)
            for v in (c.free_vars() | c.quantified_vars())
        }
        theta = Subst(mapping)
        return LPSClause(
            head=c.head.substitute(theta),
            quantifiers=tuple(
                (mapping.get(v, v), theta.apply(s)) for v, s in c.quantifiers
            ),
            body=tuple(l.substitute(theta) for l in c.body),
        )
