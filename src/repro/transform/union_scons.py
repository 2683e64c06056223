"""Theorem 10: ELPS ≡ Horn + union ≡ Horn + scons.

Definition 15 extends a logic ``L`` with a fixed-interpretation predicate
``union(x, y, z)`` (``z = x ∪ y``) or ``scons(x, y, z)`` (``z = {x} ∪ y``).
Theorem 10 proves the three program classes equivalent; this module
implements all the translations constructively:

**Direction 1** (:func:`from_horn_union`): a Horn program over ``L+union``
becomes an ELPS program over ``L`` by renaming ``union`` to a fresh
predicate ``p`` and axiomatising it::

    p(x, y, z) :- (∀w∈z)(w∈x ∨ w∈y) ∧ (∀w∈x)(w∈z) ∧ (∀w∈y)(w∈z)

The disjunction is removed with Theorem 6 (the paper notes "we have to use
Theorem 6 to eliminate the disjunction, and this construction introduces
additional auxiliary predicates").

**Direction 2** (:func:`from_horn_scons`): likewise for ``scons`` via::

    r(x, y, z) :- (∀w∈y)(w∈z) ∧ x ∈ z ∧ (∀w∈z)(w∈y ∨ w = x)

**Direction 3** (:func:`to_horn_union` / :func:`to_horn_scons`): an ELPS
clause ``A :- (∀x1∈Y1)…(∀xn∈Yn)(B1 ∧ … ∧ Bm)`` becomes recursive Horn
clauses that *iterate* over the quantified sets by element decomposition —
the paper's ``A :- scons(y1, X1, Y1) ∧ …`` recursion with its singleton
base case.  We eliminate quantifiers innermost-first; each elimination
introduces one recursive auxiliary predicate ``q`` with

    q(v̄, ∅)                                        (empty-set base)
    q(v̄, Y) :- union({x}, X, Y) ∧ M[x] ∧ q(v̄, X)   (peel one element)

(or ``scons(x, X, Y)`` in the scons variant) and replaces the quantified
subformula by ``q(v̄, Y)``.  Note: the paper's sketch uses a singleton base
case ``X1 = {y1}``; we use the empty set as base instead, which also covers
the vacuous-quantification case ``Y = ∅`` that the singleton base misses —
see EXPERIMENTS.md (E14) for the machine-checked equivalence.
"""

from __future__ import annotations

from typing import Optional

from ..core.atoms import Atom, Literal, atom, equals, member, pos
from ..core.clauses import GroupingClause, LPSClause, Rule
from ..core.errors import ClauseError
from ..core.formulas import AtomF, ForallIn, OrF, conj, disj
from ..core.program import AnyClause, MODE_ELPS, Program, rename_predicates
from ..core.sorts import SORT_A, SORT_S
from ..core.terms import EMPTY_SET, SetExpr, Term, Var
from .fresh import FreshNames
from .positive import compile_program, lps_program

#: The reserved names of the Definition 15 predicates.
UNION, SCONS = "union", "scons"


# ---------------------------------------------------------------------------
# Horn + union / Horn + scons  →  ELPS  (Theorem 10, parts 1 and 2)
# ---------------------------------------------------------------------------

def union_axiom(pred: str) -> Rule:
    """The defining positive-formula rule for a union predicate."""
    x, y, z = Var("ax_x", SORT_S), Var("ax_y", SORT_S), Var("ax_z", SORT_S)
    w = Var("ax_w", SORT_A)
    body = conj(
        ForallIn(w, z, disj(AtomF(member(w, x)), AtomF(member(w, y)))),
        ForallIn(w, x, AtomF(member(w, z))),
        ForallIn(w, y, AtomF(member(w, z))),
    )
    return Rule(head=atom(pred, x, y, z), body=body)


def scons_axiom(pred: str) -> Rule:
    """The defining positive-formula rule for a scons predicate."""
    x = Var("ax_e", SORT_A)
    y, z = Var("ax_y", SORT_S), Var("ax_z", SORT_S)
    w = Var("ax_w", SORT_A)
    body = conj(
        ForallIn(w, y, AtomF(member(w, z))),
        AtomF(member(x, z)),
        ForallIn(w, z, disj(AtomF(member(w, y)), AtomF(equals(w, x)))),
    )
    return Rule(head=atom(pred, x, y, z), body=body)


def from_horn_union(program: Program, faithful: bool = False) -> Program:
    """Translate a Horn-over-``L+union`` program to pure ELPS (Theorem 10(1)).

    Every occurrence of the ``union`` predicate is renamed to a fresh
    predicate, which is then axiomatised; the axiom's disjunction is
    compiled away via Theorem 6.
    """
    return _from_horn(program, UNION, union_axiom, faithful)


def from_horn_scons(program: Program, faithful: bool = False) -> Program:
    """Translate a Horn-over-``L+scons`` program to pure ELPS (Theorem 10(2))."""
    return _from_horn(program, SCONS, scons_axiom, faithful)


def _from_horn(
    program: Program, special: str, axiom, faithful: bool
) -> Program:
    program = lps_program(program)
    for c in program.lps_clauses():
        if c.head.pred == special:
            raise ClauseError(
                f"{special!r} may not appear in a clause head (Definition 15)"
            )
    fresh = FreshNames(program, reserved={special}, prefix="t10")
    new_pred = fresh.predicate(special)
    renamed = rename_predicates(program, {special: new_pred})
    rules: list[Rule | AnyClause] = list(renamed.clauses)
    rules.append(axiom(new_pred))
    return compile_program(rules, mode=MODE_ELPS, faithful=faithful, fresh=fresh)


# ---------------------------------------------------------------------------
# ELPS  →  Horn + union / Horn + scons  (Theorem 10, parts 3 and 4)
# ---------------------------------------------------------------------------

def to_horn_union(program: Program) -> Program:
    """Eliminate restricted quantifiers in favour of ``union`` recursion."""
    return _to_horn(program, use_scons=False)


def to_horn_scons(program: Program) -> Program:
    """Eliminate restricted quantifiers in favour of ``scons`` recursion."""
    return _to_horn(program, use_scons=True)


def _to_horn(program: Program, use_scons: bool) -> Program:
    program = lps_program(program)
    fresh = FreshNames(program, reserved={UNION, SCONS}, prefix="it")
    out: list[AnyClause] = []
    for c in program.clauses:
        if isinstance(c, GroupingClause):
            out.append(c)
            continue
        out.extend(_eliminate_clause(c, fresh, use_scons))
    return Program(tuple(out), mode=program.mode)


def _eliminate_clause(
    c: LPSClause, fresh: FreshNames, use_scons: bool
) -> list[LPSClause]:
    if not c.quantifiers:
        return [c]
    out: list[LPSClause] = []
    # Innermost-first: the matrix starts as the literal conjunction and each
    # elimination wraps it in a recursive-iteration predicate call.
    matrix: tuple[Literal, ...] = c.body
    for bound_var, source in reversed(c.quantifiers):
        matrix = _eliminate_one(
            bound_var, source, matrix, fresh, use_scons, out
        )
    out.append(LPSClause(head=c.head, body=matrix))
    return out


def _eliminate_one(
    bound_var: Var,
    source: Term,
    matrix: tuple[Literal, ...],
    fresh: FreshNames,
    use_scons: bool,
    sink: list[LPSClause],
) -> tuple[Literal, ...]:
    """Replace ``(∀ bound_var ∈ source) matrix`` by a recursion literal.

    Returns the literal tuple that stands for the quantified subformula in
    the enclosing context.
    """
    free: set[Var] = set()
    for lit in matrix:
        free |= lit.free_vars()
    free.discard(bound_var)
    # Parameters are the variables the matrix needs besides the iteration
    # element; the quantifier's source only enters as the (last) iteration
    # argument of the call literal.  If the matrix itself mentions the
    # source variable, it stays a parameter as well and is passed through
    # the recursion unchanged.
    params = tuple(sorted(free, key=lambda v: (v.sort, v.name)))
    q_pred = fresh.predicate("iter")

    iter_set = fresh.set_var("It")
    rest_set = fresh.set_var("Rest")
    elem = Var(bound_var.name, bound_var.var_sort)

    # Base case: q(v̄, ∅).
    sink.append(
        LPSClause(head=Atom(q_pred, params + (EMPTY_SET,)))
    )
    # Recursive case: q(v̄, Y) :- decomp(x, X, Y) ∧ M[x] ∧ q(v̄, X).
    if use_scons:
        decomp = pos(atom(SCONS, elem, rest_set, iter_set))
    else:
        decomp = pos(atom(UNION, SetExpr((elem,)), rest_set, iter_set))
    rec_body = (decomp,) + matrix + (
        pos(Atom(q_pred, params + (rest_set,))),
    )
    sink.append(
        LPSClause(head=Atom(q_pred, params + (iter_set,)), body=rec_body)
    )
    return (pos(Atom(q_pred, params + (source,))),)
