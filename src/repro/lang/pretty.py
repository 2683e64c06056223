"""Pretty-printer for programs, clauses and formulas.

Produces text in the concrete syntax of :mod:`repro.lang.parser`, so that
``parse_program(pretty(p))`` round-trips (the property tests check this).
"""

from __future__ import annotations

from ..core.atoms import Atom, Literal
from ..core.clauses import GroupingClause, LPSClause, Rule
from ..core.formulas import (
    AndF,
    AtomF,
    ExistsIn,
    ForallIn,
    Formula,
    NotF,
    OrF,
    TrueF,
)
from ..core.program import Program
from ..core.sorts import EQUALS, MEMBER
from ..core.terms import App, Const, SetExpr, SetValue, Term, Var
from .lexer import ANONYMOUS, IDENT_PATTERN, KEYWORDS

_COMPARISON_NAMES = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def _quote(value: str) -> str:
    """Quote a string payload, doubling embedded quotes (lexer folds back)."""
    return "'" + value.replace("'", "''") + "'"


def pretty_term(t: Term) -> str:
    if isinstance(t, Var):
        return "_" if t.name.startswith(ANONYMOUS) else t.name
    if isinstance(t, Const):
        if isinstance(t.value, int):
            return str(t.value)
        # Bare only when it re-lexes as a plain IDENT: keywords would come
        # back as KEYWORD tokens and fail to parse in term position.
        if IDENT_PATTERN.fullmatch(t.value) and t.value not in KEYWORDS:
            return t.value
        return _quote(t.value)
    if isinstance(t, App):
        return f"{t.fname}({', '.join(pretty_term(a) for a in t.args)})"
    if isinstance(t, SetExpr):
        return "{" + ", ".join(pretty_term(e) for e in t.elems) + "}"
    if isinstance(t, SetValue):
        return "{" + ", ".join(pretty_term(e) for e in t.sorted_elems()) + "}"
    raise TypeError(f"not a term: {t!r}")


def pretty_atom(a: Atom) -> str:
    if a.pred == EQUALS and a.arity == 2:
        return f"{pretty_term(a.args[0])} = {pretty_term(a.args[1])}"
    if a.pred == MEMBER and a.arity == 2:
        return f"{pretty_term(a.args[0])} in {pretty_term(a.args[1])}"
    if a.pred == "neq" and a.arity == 2:
        return f"{pretty_term(a.args[0])} != {pretty_term(a.args[1])}"
    if a.pred in _COMPARISON_NAMES and a.arity == 2:
        op = _COMPARISON_NAMES[a.pred]
        return f"{pretty_term(a.args[0])} {op} {pretty_term(a.args[1])}"
    if not a.args:
        return a.pred
    return f"{a.pred}({', '.join(pretty_term(t) for t in a.args)})"


def pretty_literal(l: Literal) -> str:
    body = pretty_atom(l.atom)
    if l.positive:
        return body
    if l.atom.pred in (EQUALS, MEMBER, "neq") or l.atom.pred in _COMPARISON_NAMES:
        return f"not ({body})"
    return f"not {body}"


def pretty_formula(f: Formula) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, AtomF):
        return pretty_atom(f.atom)
    if isinstance(f, NotF):
        inner = pretty_formula(f.sub)
        if isinstance(f.sub, AtomF) and not _is_operator_atom(f.sub.atom):
            return f"not {inner}"
        return f"not ({inner})"
    if isinstance(f, AndF):
        return ", ".join(_wrap(p) for p in f.parts) if f.parts else "true"
    if isinstance(f, OrF):
        return " or ".join(_wrap(p) for p in f.parts)
    if isinstance(f, ForallIn):
        return (
            f"forall {f.var.name} in {pretty_term(f.source)} "
            f"({pretty_formula(f.body)})"
        )
    if isinstance(f, ExistsIn):
        return (
            f"exists {f.var.name} in {pretty_term(f.source)} "
            f"({pretty_formula(f.body)})"
        )
    raise TypeError(f"not a formula: {f!r}")


def _is_operator_atom(a: Atom) -> bool:
    return a.pred in (EQUALS, MEMBER, "neq") or a.pred in _COMPARISON_NAMES


def _wrap(f: Formula) -> str:
    if isinstance(f, (AndF, OrF)):
        return f"({pretty_formula(f)})"
    return pretty_formula(f)


def pretty_clause(c) -> str:
    if isinstance(c, LPSClause):
        head = pretty_atom(c.head)
        if c.is_fact:
            return f"{head}."
        body = ", ".join(pretty_literal(l) for l in c.body) or "true"
        for v, s in reversed(c.quantifiers):
            body = f"forall {v.name} in {pretty_term(s)} ({body})"
        return f"{head} :- {body}."
    if isinstance(c, GroupingClause):
        args = [pretty_term(t) for t in c.head_args]
        args.insert(c.group_pos, f"<{c.group_var.name}>")
        body = ", ".join(pretty_literal(l) for l in c.body)
        return f"{c.pred}({', '.join(args)}) :- {body}."
    if isinstance(c, Rule):
        if isinstance(c.body, TrueF):
            return f"{pretty_atom(c.head)}."
        return f"{pretty_atom(c.head)} :- {pretty_formula(c.body)}."
    raise TypeError(f"not a clause: {c!r}")


def pretty_program(p: Program) -> str:
    lines = []
    if p.mode == "elps":
        lines.append("#elps")
    lines.extend(pretty_clause(c) for c in p.clauses)
    return "\n".join(lines)
