"""Recursive-descent parser for the LPS/ELPS/LDL surface syntax.

Grammar (see :mod:`repro.lang.lexer` for tokens)::

    program    := (directive | clause)*
    directive  := '#' name                      -- '#elps' or '#lps'
    clause     := head [ ':-' body ] '.'
    head       := ident [ '(' headarg (',' headarg)* ')' ]
    headarg    := '<' VARIABLE '>' | term       -- '<X>' is LDL grouping
    body       := or_expr
    or_expr    := and_expr (('or' | ';') and_expr)*
    and_expr   := unary ((',' | 'and') unary)*
    unary      := 'not' unary | quantifier | primary
    quantifier := ('forall' | 'exists') VARIABLE 'in' term qbody
    qbody      := quantifier | '(' body ')'
    primary    := '(' body ')' | 'true' | comparison
    comparison := expr [ ('=' | '!=' | 'in' | '<' | '<=' | '>' | '>=') expr ]
    expr       := mul (('+' | '-') mul)*        -- arithmetic sugar
    mul        := term ('*' term)*
    term       := VARIABLE | INT | quoted | ident [ '(' expr,* ')' ]
                | '{' [ expr,* ] '}'

A ``comparison`` without an operator must be a predicate atom.  Arithmetic
operators are sugar: ``M + N = K`` becomes the builtin atom ``plus(M,N,K)``,
and nested expressions are flattened with fresh temporaries.

Variables are capitalised; their sort (``a`` vs ``s``) is inferred by
:mod:`repro.lang.sortinfer` in LPS mode, or left untyped in ELPS mode.
Rules whose bodies are not already in Definition 5's prefix form are
compiled to pure LPS clauses via the Theorem 6 transformation when every
auxiliary it lifts out binds its own variables; any other such rule stays
one :class:`~repro.core.clauses.Rule`, solved as written.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.atoms import Atom, Literal, neg, pos
from ..core.clauses import GroupingClause, LPSClause, Rule
from ..core.errors import ParseError, SortError
from ..core.formulas import (
    AndF,
    AtomF,
    ExistsIn,
    ForallIn,
    Formula,
    NotF,
    OrF,
    TRUE,
    TrueF,
    conj,
    disj,
)
from ..core.program import MODE_ELPS, MODE_LPS, Program, ProgramBuilder
from ..core.sorts import EQUALS, MEMBER, SORT_U
from ..core.terms import TERM_DICT, App, Const, SetExpr, Term, Var, canonicalize
from ..transform.positive import compile_rule, fresh_names
from .lexer import (
    ANONYMOUS,
    DIRECTIVE,
    EOF,
    FACT,
    IDENT,
    INT,
    KEYWORD,
    PUNCT,
    STRING,
    Token,
    VARIABLE,
    flat_atom,
    tokenize,
)
from .sortinfer import infer_sorts

_COMPARISONS = {
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
}

_ARITH = {"+": "plus", "-": "minus", "*": "times"}


@dataclass
class _BinOp:
    """A transient arithmetic node, flattened before formula construction."""

    op: str
    left: "Term | _BinOp"
    right: "Term | _BinOp"


@dataclass
class _Apply:
    """A transient ``name(args)`` node: becomes an Atom in formula position
    or an App (with the Example 8 sort check) in term position."""

    name: str
    args: tuple

    line: int = 0
    column: int = 0


@dataclass
class ParsedRule:
    head: Atom
    body: Formula


@dataclass
class ParsedGrouping:
    pred: str
    head_args: tuple[Term, ...]
    group_pos: int
    group_var: Var
    body: Formula


@dataclass
class FactRun:
    """Consecutive ``FACT`` lexemes of one predicate and sort pattern:
    ``key`` is ``(pred, sorts)``, ``rows`` the facts' term-ID rows."""

    key: tuple[str, str]
    rows: list[tuple[int, ...]]

    def first_atom(self) -> Atom:
        """The run's first fact, built (what sort inference reads)."""
        return Atom(self.key[0], tuple(map(TERM_DICT.terms.__getitem__,
                                           self.rows[0])))


Statement = "ParsedRule | ParsedGrouping | FactRun"


class Parser:
    """One-pass parser producing untyped statements."""

    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._pos = 0
        self._tmp = itertools.count(1)
        self._anonymous = itertools.count(1)
        self.directives: list[str] = []

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        t = self._tokens[self._pos]
        self._pos += 1
        return t

    def _at_punct(self, text: str) -> bool:
        t = self._peek()
        return t.kind == PUNCT and t.text == text

    def _at_keyword(self, text: str) -> bool:
        t = self._peek()
        return t.kind == KEYWORD and t.text == text

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self._peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.column
            )
        return self._next()

    def _error(self, message: str) -> ParseError:
        t = self._peek()
        return ParseError(message, t.line, t.column)

    # -- program ----------------------------------------------------------------

    def parse_statements(self) -> list:
        """The statements in source order; consecutive facts of one
        predicate and sort pattern come as one :class:`FactRun`."""
        out: list = []
        tokens = self._tokens
        run = None
        while True:
            t = tokens[self._pos]
            if t.kind == FACT:
                self._pos += 2                  # the fact and its '.'
                key, ids = t.text
                if run is not None and run.key == key:
                    run.rows.append(ids)
                else:
                    run = FactRun(key, [ids])
                    out.append(run)
                continue
            run = None
            if t.kind == DIRECTIVE:
                self.directives.append(self._next().text)
                if self._at_punct("."):
                    self._next()
            elif t.kind == EOF:
                return out
            else:
                out.append(self._parse_clause())

    def _parse_clause(self):
        # Numbered per clause, so a clause reparsed alone or in its
        # program (``encode_program``'s round trip) names them alike.
        self._anonymous = itertools.count(1)
        head_tok = self._peek()
        pred, args, group = self._parse_head()
        body: Formula = TRUE
        if self._at_punct(":-"):
            self._next()
            body = self._parse_body()
        self._expect(PUNCT, ".")
        if group is not None:
            group_pos, group_var = group
            if isinstance(body, TrueF):
                raise ParseError(
                    "grouping clause requires a body", head_tok.line, head_tok.column
                )
            return ParsedGrouping(
                pred=pred,
                head_args=tuple(args),
                group_pos=group_pos,
                group_var=group_var,
                body=body,
            )
        return ParsedRule(head=Atom(pred, tuple(args)), body=body)

    def _parse_head(self):
        t = self._expect(IDENT)
        pred = t.text
        args: list[Term] = []
        group: Optional[tuple[int, Var]] = None
        if self._at_punct("("):
            self._next()
            index = 0
            while True:
                if self._at_punct("<"):
                    self._next()
                    v = self._expect(VARIABLE)
                    self._expect(PUNCT, ">")
                    if group is not None:
                        raise ParseError(
                            "at most one grouped argument per clause",
                            v.line, v.column,
                        )
                    group = (index, Var(v.text, SORT_U))
                else:
                    term, aux = self._parse_expr_term()
                    if aux:
                        raise self._error(
                            "arithmetic expressions are not allowed in heads"
                        )
                    args.append(self._resolve(term))
                index += 1
                if self._at_punct(","):
                    self._next()
                    continue
                break
            self._expect(PUNCT, ")")
        return pred, args, group

    # -- body formulas -------------------------------------------------------------

    def _parse_body(self) -> Formula:
        return self._parse_or()

    def _parse_or(self) -> Formula:
        parts = [self._parse_and()]
        while self._at_keyword("or") or self._at_punct(";"):
            self._next()
            parts.append(self._parse_and())
        return disj(*parts) if len(parts) > 1 else parts[0]

    def _parse_and(self) -> Formula:
        parts = [self._parse_unary()]
        while self._at_punct(",") or self._at_keyword("and"):
            self._next()
            parts.append(self._parse_unary())
        return conj(*parts) if len(parts) > 1 else parts[0]

    def _parse_unary(self) -> Formula:
        if self._at_keyword("not"):
            self._next()
            return NotF(self._parse_unary())
        if self._at_keyword("forall") or self._at_keyword("exists"):
            return self._parse_quantifier()
        return self._parse_primary()

    def _parse_quantifier(self) -> Formula:
        kw = self._next()
        v = self._expect(VARIABLE)
        self._expect(KEYWORD, "in")
        source, aux = self._parse_expr_term()
        if aux:
            raise self._error("arithmetic is not allowed in quantifier ranges")
        source = self._resolve(source)
        if self._at_keyword("forall") or self._at_keyword("exists"):
            body = self._parse_quantifier()
        else:
            self._expect(PUNCT, "(")
            body = self._parse_body()
            self._expect(PUNCT, ")")
        var = Var(v.text, SORT_U)
        if kw.text == "forall":
            return ForallIn(var, source, body)
        return ExistsIn(var, source, body)

    def _parse_primary(self) -> Formula:
        if self._at_punct("("):
            self._next()
            f = self._parse_body()
            self._expect(PUNCT, ")")
            return f
        if self._at_keyword("true"):
            self._next()
            return TRUE
        left, aux = self._parse_expr()
        op_tok = self._peek()
        op: Optional[str] = None
        if op_tok.kind == PUNCT and op_tok.text in ("=", "!=", "<", "<=", ">", ">="):
            op = op_tok.text
            self._next()
        elif op_tok.kind == KEYWORD and op_tok.text == "in":
            op = "in"
            self._next()
        if op is None:
            atom = self._term_to_atom(left)
            return conj(*aux, AtomF(atom)) if aux else AtomF(atom)
        right, aux2 = self._parse_expr()
        aux = aux + aux2
        if op == "=":
            # Sugar: a single top-level arithmetic node on one side becomes
            # the corresponding builtin atom directly (`M + N = K`).
            if isinstance(left, _BinOp) and not isinstance(right, _BinOp):
                l2, aux_l = self._flatten_children(left)
                atom = Atom(_ARITH[left.op], (l2[0], l2[1], right))
                return conj(*aux, *aux_l, AtomF(atom))
            if isinstance(right, _BinOp) and not isinstance(left, _BinOp):
                r2, aux_r = self._flatten_children(right)
                atom = Atom(_ARITH[right.op], (r2[0], r2[1], left))
                return conj(*aux, *aux_r, AtomF(atom))
            lt, aux_l = self._flatten(left)
            rt, aux_r = self._flatten(right)
            return conj(*aux, *aux_l, *aux_r, AtomF(Atom(EQUALS, (lt, rt))))
        lt, aux_l = self._flatten(left)
        rt, aux_r = self._flatten(right)
        aux = aux + aux_l + aux_r
        if op == "!=":
            return conj(*aux, AtomF(Atom("neq", (lt, rt))))
        if op == "in":
            return conj(*aux, AtomF(Atom(MEMBER, (lt, rt))))
        return conj(*aux, AtomF(Atom(_COMPARISONS[op], (lt, rt))))

    def _term_to_atom(self, t) -> Atom:
        if isinstance(t, _BinOp):
            raise self._error("arithmetic expression used where an atom is expected")
        if isinstance(t, _Apply):
            return Atom(t.name, tuple(self._resolve(a) for a in t.args))
        if isinstance(t, App):
            return Atom(t.fname, t.args)
        if isinstance(t, Const) and isinstance(t.value, str):
            return Atom(t.value, ())
        raise self._error(f"{t} is not an atom")

    # -- terms and arithmetic --------------------------------------------------------

    def _parse_expr(self):
        """Additive expression; returns (Term | _BinOp, aux_formulas)."""
        left, aux = self._parse_mul()
        while self._at_punct("+") or self._at_punct("-"):
            op = self._next().text
            right, aux2 = self._parse_mul()
            aux = aux + aux2
            left = _BinOp(op, left, right)
        return left, aux

    def _parse_mul(self):
        left, aux = self._parse_expr_term()
        while self._at_punct("*"):
            self._next()
            right, aux2 = self._parse_expr_term()
            aux = aux + aux2
            left = _BinOp("*", left, right)
        return left, aux

    def _parse_expr_term(self):
        """A basic term; returns (Term, aux_formulas)."""
        t = self._peek()
        if t.kind == VARIABLE:
            self._next()
            if t.text == "_":
                # Each ``_`` is a variable of its own.
                return Var(f"{ANONYMOUS}{next(self._anonymous)}", SORT_U), []
            return Var(t.text, SORT_U), []
        if t.kind == INT:
            self._next()
            return Const(int(t.text)), []
        if (
            t.kind == PUNCT
            and t.text == "-"
            and self._tokens[self._pos + 1].kind == INT
        ):
            # A leading minus at term start is a negative integer literal
            # (the pretty-printer emits them); binary minus never reaches
            # here because _parse_expr consumes the operator first.
            self._next()
            return Const(-int(self._next().text)), []
        if t.kind == STRING:
            self._next()
            return Const(t.text), []
        if t.kind == FACT:
            # Input that starts ``atom.`` (parse_term / parse_atom): the
            # term the atom's characters spell; the '.' is left trailing.
            self._next()
            (pred, _), ids = t.text
            if not ids:
                return Const(pred), []
            args = tuple(map(TERM_DICT.terms.__getitem__, ids))
            return _Apply(pred, args, t.line, t.column), []
        if t.kind == IDENT:
            self._next()
            if self._at_punct("("):
                self._next()
                args: list[Term] = []
                aux: list[Formula] = []
                if not self._at_punct(")"):
                    while True:
                        raw, aux2 = self._parse_expr()
                        aux = aux + aux2
                        term, aux3 = self._flatten(raw)
                        aux = aux + aux3
                        args.append(term)
                        if self._at_punct(","):
                            self._next()
                            continue
                        break
                self._expect(PUNCT, ")")
                return _Apply(t.text, tuple(args), t.line, t.column), aux
            return Const(t.text), []
        if t.kind == PUNCT and t.text == "{":
            self._next()
            elems: list[Term] = []
            aux: list[Formula] = []
            if not self._at_punct("}"):
                while True:
                    raw, aux2 = self._parse_expr()
                    aux = aux + aux2
                    term, aux3 = self._flatten(raw)
                    aux = aux + aux3
                    elems.append(term)
                    if self._at_punct(","):
                        self._next()
                        continue
                    break
            self._expect(PUNCT, "}")
            return canonicalize(SetExpr(tuple(elems))), aux
        raise ParseError(
            f"expected a term, found {t.text or t.kind!r}", t.line, t.column
        )

    def _resolve(self, node) -> Term:
        """Convert a transient _Apply into a real App term (term position)."""
        if isinstance(node, _Apply):
            try:
                return App(node.name, tuple(self._resolve(a) for a in node.args))
            except SortError as exc:
                raise ParseError(str(exc), node.line, node.column) from exc
        if isinstance(node, _BinOp):
            raise self._error("arithmetic expression used where a term is expected")
        return node

    def _flatten(self, node):
        """Flatten an arithmetic tree to a term plus builtin conjuncts."""
        if not isinstance(node, _BinOp):
            return self._resolve(node), []
        (lchild, rchild), aux = self._flatten_children(node)
        tmp = Var(f"Tmp_{next(self._tmp)}", SORT_U)
        atom = Atom(_ARITH[node.op], (lchild, rchild, tmp))
        return tmp, aux + [AtomF(atom)]

    def _flatten_children(self, node: _BinOp):
        lt, aux_l = self._flatten(node.left)
        rt, aux_r = self._flatten(node.right)
        return (lt, rt), aux_l + aux_r


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def parse_program(
    source: str,
    mode: Optional[str] = None,
    faithful: bool = False,
    signatures: Optional[dict] = None,
    split: bool = True,
) -> Program:
    """Parse a program text into a :class:`~repro.core.program.Program`.

    ``mode`` overrides the ``#lps`` / ``#elps`` directive (default LPS).
    Sort inference runs in LPS mode; rule bodies not already in Definition 5
    prefix form are compiled away per Theorem 6 where its auxiliaries are
    range-restricted (:func:`_lifts_bound`), and kept as written otherwise;
    ``faithful`` compiles every one, literally, and ``split=False`` none
    that would need an auxiliary (a query's goal is solved as written).
    ``signatures`` are the predicate sorts of a program this text is
    parsed against (see :func:`~repro.lang.sortinfer.predicate_sorts`).
    """
    parser = Parser(source)
    statements = parser.parse_statements()
    if mode is None:
        if "elps" in parser.directives:
            mode = MODE_ELPS
        else:
            mode = MODE_LPS
    if mode == MODE_LPS:
        statements = infer_sorts(statements, signatures)
    return _assemble(statements, mode, faithful, split)


def _assemble(
    statements: Sequence, mode: str, faithful: bool, split: bool
) -> Program:
    items: list = []
    for s in statements:
        if s.__class__ is FactRun:
            items.append(s)
        elif s.__class__ is ParsedRule and s.body is TRUE:
            items.append(LPSClause(s.head))
        elif isinstance(s, ParsedGrouping):
            items.append(_to_grouping(s))
        else:
            clause = _try_prefix_clause(s)
            items.append(clause if clause is not None else Rule(s.head, s.body))
    fresh = None
    if any(isinstance(it, Rule) for it in items):
        fresh = fresh_names(
            [it for it in items if it.__class__ is not FactRun], mode,
            reserved={it.key[0] for it in items if it.__class__ is FactRun},
        )
    builder = ProgramBuilder()
    for it in items:
        if it.__class__ is FactRun:
            builder.rows(it.key, it.rows)
        elif isinstance(it, Rule):
            clauses = compile_rule(it, fresh, faithful=faithful)
            if faithful or len(clauses) == 1 or (
                split and _lifts_bound(it, clauses)
            ):
                for c in clauses:
                    builder.clause(c)
            else:
                builder.clause(it)
        else:
            builder.clause(it)
    program = builder.program(mode)
    program.validate()
    return program


def _lifts_bound(rule: Rule, clauses: Sequence[LPSClause]) -> bool:
    """Whether each auxiliary clause Theorem 6 lifted out of ``rule``
    binds its own variables (the planner's readiness test, under the
    default builtins) and carries no ``_`` in its head.  One that does
    not bind them (a quantifier prefix, say, whose range only the
    caller's conjuncts bind) would be enumerated over the active domain
    and stored; one whose head has a ``_`` puts that ``_`` in two
    clauses, which re-parse as two variables.  Either way the rule stays
    whole instead."""
    from ..engine.builtins import DEFAULT_BUILTINS
    from ..engine.planner import range_restricted

    head = rule.head.pred
    return all(
        range_restricted(c, DEFAULT_BUILTINS) and not any(
            v.name.startswith(ANONYMOUS) for v in c.head.free_vars()
        )
        for c in clauses if c.head.pred != head
    )


def _try_prefix_clause(s: ParsedRule) -> Optional[LPSClause]:
    """Recognise Definition 5 prefix form directly, avoiding auxiliaries."""
    quantifiers: list[tuple[Var, Term]] = []
    body = s.body
    seen: set[Var] = set()
    while isinstance(body, ForallIn):
        if body.var in seen:
            return None
        quantifiers.append((body.var, body.source))
        seen.add(body.var)
        body = body.body
    literals: list[Literal] = []
    parts = body.parts if isinstance(body, AndF) else (body,)
    for p in parts:
        if isinstance(p, AtomF):
            literals.append(pos(p.atom))
        elif isinstance(p, NotF) and isinstance(p.sub, AtomF):
            literals.append(neg(p.sub.atom))
        elif isinstance(p, TrueF):
            continue
        else:
            return None
    return LPSClause(
        head=s.head, quantifiers=tuple(quantifiers), body=tuple(literals)
    )


def _to_grouping(s: ParsedGrouping) -> GroupingClause:
    body = s.body
    literals: list[Literal] = []
    parts = body.parts if isinstance(body, AndF) else (body,)
    for p in parts:
        if isinstance(p, AtomF):
            literals.append(pos(p.atom))
        elif isinstance(p, NotF) and isinstance(p.sub, AtomF):
            literals.append(neg(p.sub.atom))
        else:
            raise ParseError(
                "grouping clause bodies must be conjunctions of literals"
            )
    return GroupingClause(
        pred=s.pred,
        head_args=s.head_args,
        group_pos=s.group_pos,
        group_var=s.group_var,
        body=tuple(literals),
    )


def parse_term(source: str) -> Term:
    """Parse a single term (variables come out untyped)."""
    parser = Parser(source)
    raw, aux = parser._parse_expr_term()
    if aux:
        raise ParseError("arithmetic is not allowed in standalone terms")
    if parser._peek().kind != EOF:
        raise parser._error("trailing input after term")
    return parser._resolve(raw)


def parse_atom(source: str) -> Atom:
    """Parse a single atom (e.g. for queries); variables come out untyped.

    A flat ground atom (the fact lexeme without its ``.``) is built
    directly; anything else takes recursive descent.
    """
    a = flat_atom(source)
    if a is not None:
        return a
    parser = Parser(source)
    f = parser._parse_primary()
    if parser._peek().kind != EOF:
        raise parser._error("trailing input after atom")
    if isinstance(f, AtomF):
        return f.atom
    raise ParseError(f"{source!r} is not a single atom")

