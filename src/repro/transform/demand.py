"""Demand transformation: goal-directed bottom-up evaluation of set recursions.

The paper's Example 5/6 recursions (``sum``, ``sum-costs``) decompose a
*given* set into smaller ones.  Evaluated naively bottom-up, such rules
never fire: the smaller sets are not in the active domain until something
puts them there.  The examples hand-write a demand predicate::

    need(S) :- parts(P, S).
    need(Y) :- need(Z), choose_min(X, Y, Z).

This module mechanises that pattern — a single-argument restriction of the
magic-sets technique ([BMSU86], which the paper cites for exactly this
purpose): :func:`add_demand` rewrites a program so that one argument of a
recursive predicate is computed *on demand*:

* every clause defining ``pred`` gets an extra body literal
  ``need_pred(t)`` guarding its ``arg_pos`` argument;
* every body occurrence of ``pred`` in any clause contributes a demand rule
  ``need_pred(t) :- <the literals to its left>`` (left-to-right sideways
  information passing, the classical SIP);
* seed demands come from ``seeds`` (ground terms or unary seed predicates).

The result is semantically equivalent on the demanded atoms (tested against
the undemanded program over materialised domains) and turns the Example 5/6
exponential-or-stuck recursions into linear ones.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from ..core.atoms import Atom, Literal, pos
from ..core.clauses import GroupingClause, LPSClause
from ..core.errors import ClauseError
from ..core.program import AnyClause, Program
from ..core.terms import Term
from .fresh import FreshNames
from .positive import lps_program


def demand_predicate_name(pred: str, arg_pos: int, fresh: FreshNames) -> str:
    return fresh.predicate(f"need_{pred}_{arg_pos}")


def add_demand(
    program: Program,
    pred: str,
    arg_pos: int,
    seeds: Iterable[Union[Term, str]] = (),
    fresh: Optional[FreshNames] = None,
) -> tuple[Program, str]:
    """Rewrite ``program`` so argument ``arg_pos`` of ``pred`` is demand-driven.

    ``seeds`` may contain ground terms (each becomes a demand fact) and/or
    names of unary predicates whose extension seeds the demand (a rule
    ``need(t) :- seed(t)`` is added per name).  Returns the rewritten
    program and the generated demand predicate's name.  Rules kept as
    positive formulas are compiled to LPS first (Theorem 6).
    """
    program = lps_program(program)
    arities = program.predicates()
    if pred not in arities:
        raise ClauseError(f"predicate {pred!r} does not occur in the program")
    if not (0 <= arg_pos < arities[pred]):
        raise ClauseError(
            f"argument position {arg_pos} out of range for {pred!r}/"
            f"{arities[pred]}"
        )
    fresh = fresh or FreshNames(program, prefix="mg")
    need = demand_predicate_name(pred, arg_pos, fresh)

    out: list[AnyClause] = []
    for c in program.clauses:
        if isinstance(c, GroupingClause):
            out.append(c)
            out.extend(_demand_rules_for_body(c.body, pred, arg_pos, need, ()))
            continue
        body = c.body
        # Guard clauses that define the demanded predicate.
        if c.head.pred == pred:
            guard = pos(Atom(need, (c.head.args[arg_pos],)))
            body = (guard,) + body
            out.append(LPSClause(c.head, c.quantifiers, body))
        else:
            out.append(c)
        # Demand rules from body occurrences, with the guard (for clauses
        # defining pred, demand propagates only under the clause's own
        # demand — that's what makes the recursion terminate).
        quantified = c.quantified_vars()
        for lit in c.body:
            if lit.positive and lit.atom.pred == pred:
                from ..core.terms import free_vars as tfv

                if tfv(lit.atom.args[arg_pos]) & quantified:
                    raise ClauseError(
                        f"cannot demand-transform {pred!r}: occurrence "
                        f"{lit.atom} has a quantified variable in the "
                        "demanded position"
                    )
        prefix: tuple[Literal, ...] = ()
        if c.head.pred == pred:
            prefix = (pos(Atom(need, (c.head.args[arg_pos],))),)
        out.extend(_demand_rules_for_body(c.body, pred, arg_pos, need, prefix))

    arg_sort = _demanded_arg_sort(program, pred, arg_pos)
    for seed in seeds:
        if isinstance(seed, str):
            seed_var = fresh.var(arg_sort, "Sd" if arg_sort == "s" else "sd")
            out.append(
                LPSClause(
                    head=Atom(need, (seed_var,)),
                    body=(pos(Atom(seed, (seed_var,))),),
                )
            )
        else:
            if not seed.is_ground():
                raise ClauseError(f"demand seed {seed} is not ground")
            out.append(LPSClause(head=Atom(need, (seed,))))
    return Program(tuple(out), mode=program.mode), need


def _demanded_arg_sort(program: Program, pred: str, arg_pos: int) -> str:
    """Sort of the demanded argument, read off any occurrence (LPS mode
    needs typed seed variables; ELPS occurrences may stay untyped)."""
    from ..core.sorts import SORT_U

    for c in program.clauses:
        atoms = []
        if isinstance(c, LPSClause):
            atoms.append(c.head)
            atoms.extend(l.atom for l in c.body)
        else:
            atoms.extend(l.atom for l in c.body)
        for a in atoms:
            if a.pred == pred and len(a.args) > arg_pos:
                sort = a.args[arg_pos].sort
                if sort != SORT_U:
                    return sort
    return SORT_U if program.mode == "elps" else "s"


def _demand_rules_for_body(
    body: Sequence[Literal],
    pred: str,
    arg_pos: int,
    need: str,
    prefix: tuple[Literal, ...],
) -> list[LPSClause]:
    """One demand rule per positive body occurrence of ``pred``.

    The rule's body is ``prefix`` plus every literal strictly to the left
    of the occurrence — the left-to-right SIP."""
    rules: list[LPSClause] = []
    for i, lit in enumerate(body):
        if not lit.positive or lit.atom.pred != pred:
            continue
        target = lit.atom.args[arg_pos]
        sip_body = prefix + tuple(body[:i])
        rules.append(
            LPSClause(head=Atom(need, (target,)), body=sip_body)
        )
    return rules


def demanded_sum_program(
    target_pred: str = "target",
    sum_pred: str = "sum",
) -> Program:
    """The paper's Example 5, pre-packaged with the demand transformation.

    ``target_pred(S)`` supplies the sets to sum; ``sum_pred(S, K)`` holds
    for the demanded sets.  Run with the set builtins registry."""
    from ..lang import parse_program

    base = parse_program(f"""
        {sum_pred}({{}}, 0).
        {sum_pred}(Z, K) :- choose_min(X, Y, Z), {sum_pred}(Y, M), M + X = K.
        total(K) :- {target_pred}(Z), {sum_pred}(Z, K).
    """)
    program, _need = add_demand(base, sum_pred, 0, seeds=[target_pred])
    return program
