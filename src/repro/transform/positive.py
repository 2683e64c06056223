"""Theorem 6: compiling positive-formula rules into pure LPS.

Definition 12 defines **positive formulas**: atoms closed under ``∧``,
``∨``, ``(∃x ∈ X)`` and ``(∀x ∈ X)``.  Theorem 6 proves that a program of
rules ``A :- B`` with positive bodies is equivalent — over the original
language ``L`` — to an LPS program ``P*`` over an extension ``L*`` with
auxiliary predicates, constructed by induction on ``B``:

1. ``B`` atomic                 →  the clause itself;
2. ``B = C1 ∧ C2``              →  ``A :- N1(x̄) ∧ N2(ȳ)`` plus the
   recursive translations of ``N1 :- C1`` and ``N2 :- C2``;
3. ``B = C1 ∨ C2``              →  ``A :- N1(x̄)``, ``A :- N2(ȳ)`` plus
   recursive translations;
4. ``B = (∃x ∈ X) C``           →  ``A :- N(x̄, x) ∧ x ∈ X`` plus the
   translation of ``N(x̄, x) :- C``;
5. ``B = (∀x ∈ X) C``           →  ``A :- (∀x ∈ X) N(x̄, x)`` plus the
   translation of ``N(x̄, x) :- C``.

Two modes are provided:

* ``faithful=True`` follows the proof *literally* — every non-atomic
  subformula gets an auxiliary predicate (Example 9 shows this yields an
  11-clause program for ``union``);
* ``faithful=False`` (default) applies the obvious simplifications the
  paper itself uses for its hand-written ``union`` program: conjunctions
  of literals stay inline, and auxiliaries are introduced only where the
  LPS clause shape demands them (a disjunction, or a quantifier that is
  not already an outermost prefix).

As an extension beyond the paper, negative literals ``¬p(t̄)`` are treated
as atomic leaves (and a negated *compound* formula gets an auxiliary which
is then negated), so the stratified programs of Sections 4.2 / 6.2 can be
compiled with the same machinery.  The resulting program is equivalent
under stratified semantics; for positive inputs the construction is exactly
Theorem 6's.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.atoms import Atom, Literal, neg, pos
from ..core.clauses import GroupingClause, LPSClause, Rule
from ..core.errors import ClauseError
from ..core.formulas import (
    AndF,
    AtomF,
    ExistsIn,
    ForallIn,
    Formula,
    NotF,
    OrF,
    TrueF,
    atoms_of,
)
from ..core.program import AnyClause, Program
from ..core.substitution import Subst
from ..core.terms import Term, Var
from .fresh import FreshNames


def compile_program(
    rules: Iterable[Rule | AnyClause],
    mode: str = "lps",
    faithful: bool = False,
    fresh: Optional[FreshNames] = None,
) -> Program:
    """Compile a mixed list of rules/clauses into an LPS program.

    ``Rule`` items are translated per Theorem 6; ``LPSClause`` and
    ``GroupingClause`` items pass through unchanged.
    """
    items = list(rules)
    if fresh is None and any(isinstance(r, Rule) for r in items):
        fresh = fresh_names(items, mode)
    out: list[AnyClause] = []
    for r in items:
        if isinstance(r, Rule):
            out.extend(compile_rule(r, fresh, faithful=faithful))
        else:
            out.append(r)
    return Program(tuple(out), mode=mode)


def lps_program(program: Program) -> Program:
    """The program with every rule it keeps as a positive formula
    compiled per Theorem 6, i.e. as pure LPS (``P*``); a program without
    one is returned as it is.  For consumers that read clause literals."""
    if not any(isinstance(c, Rule) for c in program.rules()):
        return program
    return compile_program(program.clauses, program.mode)


def fresh_names(
    items: Iterable[Rule | AnyClause], mode: str = "lps",
    reserved: Iterable[str] = (),
) -> FreshNames:
    """Auxiliary names for compiling ``items``: disjoint from every name
    the items use and from the ``reserved`` predicates."""
    items = list(items)
    base = Program(
        tuple(c for c in items if isinstance(c, (LPSClause, GroupingClause))),
        mode=mode,
    )
    fresh = FreshNames(base, reserved=reserved, prefix="n")
    for r in items:
        if isinstance(r, Rule):
            fresh.reserve(r.head.pred)
            for a in atoms_of(r.body):
                fresh.reserve(a.pred)
    return fresh


def compile_rule(
    rule: Rule, fresh: Optional[FreshNames] = None, faithful: bool = False
) -> list[LPSClause]:
    """Translate one rule ``A :- B`` into LPS clauses (Theorem 6's ``f``)."""
    if fresh is None:
        fresh = FreshNames(reserved={rule.head.pred}, prefix="n")
    if faithful:
        return _compile_faithful(rule.head, rule.body, fresh)
    return _compile_simplified(rule.head, rule.body, fresh)


# ---------------------------------------------------------------------------
# The literal proof construction
# ---------------------------------------------------------------------------

def _sorted_free(f: Formula) -> tuple[Var, ...]:
    return tuple(sorted(f.free_vars(), key=lambda v: (v.sort, v.name)))


def _compile_faithful(
    head: Atom, body: Formula, fresh: FreshNames
) -> list[LPSClause]:
    if isinstance(body, TrueF):
        return [LPSClause(head=head)]
    if isinstance(body, AtomF):
        return [LPSClause(head=head, body=(pos(body.atom),))]
    if isinstance(body, NotF):
        return _compile_negation(head, body, fresh, faithful=True)
    if isinstance(body, AndF):
        return _compile_binary(
            head, body.parts, fresh, disjunctive=False, faithful=True
        )
    if isinstance(body, OrF):
        return _compile_binary(
            head, body.parts, fresh, disjunctive=True, faithful=True
        )
    if isinstance(body, ExistsIn):
        return _compile_exists(head, body, fresh, faithful=True)
    if isinstance(body, ForallIn):
        return _compile_forall(head, body, fresh, faithful=True)
    raise ClauseError(f"cannot compile body formula {body!r}")


def _compile_binary(
    head: Atom,
    parts: tuple[Formula, ...],
    fresh: FreshNames,
    disjunctive: bool,
    faithful: bool,
) -> list[LPSClause]:
    """Cases 2 and 3 of the proof, n-ary via left-nesting."""
    if len(parts) == 0:
        return [LPSClause(head=head)]
    if len(parts) == 1:
        return _dispatch(head, parts[0], fresh, faithful)
    out: list[LPSClause] = []
    subs: list[Atom] = []
    for part in parts:
        free = _sorted_free(part)
        n_pred = fresh.predicate("or" if disjunctive else "and")
        n_atom = Atom(n_pred, tuple(free))
        subs.append(n_atom)
        out.extend(_dispatch(n_atom, part, fresh, faithful))
    if disjunctive:
        for s in subs:
            out.append(LPSClause(head=head, body=(pos(s),)))
    else:
        out.append(LPSClause(head=head, body=tuple(pos(s) for s in subs)))
    return out


def _rename_binder(body, fresh: FreshNames):
    """α-rename a quantifier whose bound variable shadows a free variable
    of the context (the paper implicitly assumes distinct names)."""
    renamed = fresh.var(body.var.var_sort, hint=body.var.name)
    new_inner = body.body.substitute(Subst({body.var: renamed}))
    return type(body)(renamed, body.source, new_inner)


def _compile_exists(
    head: Atom, body: ExistsIn, fresh: FreshNames, faithful: bool
) -> list[LPSClause]:
    """Case 4: ``A :- N(x̄, x) ∧ x ∈ X``."""
    from ..core.atoms import member

    if body.var in head.free_vars():
        body = _rename_binder(body, fresh)
    inner_free = _sorted_free(body.body)
    if body.var not in inner_free:
        inner_free = inner_free + (body.var,)
    n_pred = fresh.predicate("ex")
    n_atom = Atom(n_pred, tuple(inner_free))
    out = _dispatch(n_atom, body.body, fresh, faithful)
    out.append(
        LPSClause(
            head=head,
            body=(pos(n_atom), pos(member(body.var, body.source))),
        )
    )
    return out


def _compile_forall(
    head: Atom, body: ForallIn, fresh: FreshNames, faithful: bool
) -> list[LPSClause]:
    """Case 5: ``A :- (∀x ∈ X) N(x̄, x)``."""
    if body.var in head.free_vars():
        body = _rename_binder(body, fresh)
    inner_free = _sorted_free(body.body)
    if body.var not in inner_free:
        inner_free = inner_free + (body.var,)
    n_pred = fresh.predicate("all")
    n_atom = Atom(n_pred, tuple(inner_free))
    out = _dispatch(n_atom, body.body, fresh, faithful)
    out.append(
        LPSClause(
            head=head,
            quantifiers=((body.var, body.source),),
            body=(pos(n_atom),),
        )
    )
    return out


def _compile_negation(
    head: Atom, body: NotF, fresh: FreshNames, faithful: bool
) -> list[LPSClause]:
    """Extension: ``¬`` of an atom is a literal; of a compound, an auxiliary."""
    if isinstance(body.sub, AtomF):
        return [LPSClause(head=head, body=(neg(body.sub.atom),))]
    free = _sorted_free(body.sub)
    n_pred = fresh.predicate("not")
    n_atom = Atom(n_pred, tuple(free))
    out = _dispatch(n_atom, body.sub, fresh, faithful)
    out.append(LPSClause(head=head, body=(neg(n_atom),)))
    return out


def _dispatch(
    head: Atom, body: Formula, fresh: FreshNames, faithful: bool
) -> list[LPSClause]:
    if faithful:
        return _compile_faithful(head, body, fresh)
    return _compile_simplified(head, body, fresh)


# ---------------------------------------------------------------------------
# The simplified construction (what the paper's hand-written union uses)
# ---------------------------------------------------------------------------

def _compile_simplified(
    head: Atom, body: Formula, fresh: FreshNames
) -> list[LPSClause]:
    """Theorem 6 with the obvious economies.

    Strategy: flatten the body into prefix-form candidates.  A body compiles
    directly to one LPS clause when it is a (possibly empty) chain of
    outermost universal quantifiers over a conjunction of literals.
    Subformulas that break the shape (disjunctions, inner quantifiers,
    compound negations) get auxiliary predicates, recursively.
    """
    out: list[LPSClause] = []
    quantifiers: list[tuple[Var, Term]] = []
    matrix = body
    bound: set[Var] = set()
    head_vars = head.free_vars()
    while isinstance(matrix, ForallIn):
        var, inner = matrix.var, matrix.body
        if var in bound or var in head_vars:
            # α-rename a shadowing binder so Definition 5's "head uses only
            # free variables" holds for the generated clause.
            renamed = fresh.var(var.var_sort, hint=var.name)
            inner = inner.substitute(Subst({var: renamed}))
            var = renamed
        quantifiers.append((var, matrix.source))
        bound.add(var)
        matrix = inner

    parts = list(matrix.parts) if isinstance(matrix, AndF) else [matrix]
    literals: list[Literal] = []
    for part in parts:
        lit, extra = _to_literal(part, fresh, out)
        literals.append(lit)
        out.extend(extra)
    out.append(
        LPSClause(head=head, quantifiers=tuple(quantifiers), body=tuple(literals))
    )
    return out


def _to_literal(
    part: Formula, fresh: FreshNames, sink: list[LPSClause]
) -> tuple[Literal, list[LPSClause]]:
    """Reduce one conjunct to a literal, producing auxiliary clauses."""
    if isinstance(part, AtomF):
        return pos(part.atom), []
    if isinstance(part, NotF) and isinstance(part.sub, AtomF):
        return neg(part.sub.atom), []
    if isinstance(part, TrueF):
        # A trivially true conjunct: use a 0-ary auxiliary fact.
        n_pred = fresh.predicate("true")
        n_atom = Atom(n_pred, ())
        return pos(n_atom), [LPSClause(head=n_atom)]
    if isinstance(part, ExistsIn):
        # (∃x∈X)C as a conjunct: x ∈ X ∧ C with x fresh-renamed, inline
        # when C reduces to literals, else via auxiliary.
        from ..core.atoms import member

        free = _sorted_free(part)
        n_pred = fresh.predicate("ex")
        n_atom = Atom(n_pred, tuple(free))
        inner_free = _sorted_free(part.body)
        if part.var not in inner_free:
            inner_free = inner_free + (part.var,)
        c_pred = fresh.predicate("exbody")
        c_atom = Atom(c_pred, tuple(inner_free))
        sink.extend(_compile_simplified(c_atom, part.body, fresh))
        sink.append(
            LPSClause(
                head=n_atom,
                body=(pos(c_atom), pos(member(part.var, part.source))),
            )
        )
        return pos(n_atom), []
    if isinstance(part, NotF):
        free = _sorted_free(part.sub)
        n_pred = fresh.predicate("not")
        n_atom = Atom(n_pred, tuple(free))
        sink.extend(_compile_simplified(n_atom, part.sub, fresh))
        return neg(n_atom), []
    # OrF, ForallIn (inner), AndF (nested under e.g. Or) — auxiliary.
    free = _sorted_free(part)
    hint = "or" if isinstance(part, OrF) else "sub"
    n_pred = fresh.predicate(hint)
    n_atom = Atom(n_pred, tuple(free))
    if isinstance(part, OrF):
        for d in part.parts:
            sink.extend(_compile_simplified(n_atom, d, fresh))
    else:
        sink.extend(_compile_simplified(n_atom, part, fresh))
    return pos(n_atom), []
