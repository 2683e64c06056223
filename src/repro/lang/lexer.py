"""Tokenizer for the concrete LPS/ELPS/LDL syntax.

The surface syntax is Prolog-flavoured::

    % facts and Horn rules
    edge(a, b).
    path(X, Z) :- edge(X, Y), path(Y, Z).

    % the paper's Example 1, with restricted quantifiers
    disj(S, T) :- forall X in S (forall Y in T (X != Y)).

    % LDL grouping (Definition 14)
    parts(P, <C>) :- component(P, C).

Identifiers starting with an upper-case letter are variables (their sort is
inferred — see :mod:`repro.lang.sortinfer`); lower-case identifiers are
constants or predicate/function symbols; ``{...}`` builds set terms;
``%`` starts a line comment; ``#elps`` selects ELPS mode.

A program is mostly ground facts, so at a statement start (the input start,
after ``.``, after a directive) the lexer first tries :data:`_FACT`: a flat
ground fact ``pred(arg, ...).`` or ``pred.`` on one line, each argument a
lower-case ASCII identifier, an ASCII integer, a quoted string or a
``{...}`` of those.  A match is one ``FACT`` token whose ``text`` is the
fact as a row of term IDs, ``((pred, sorts), ids)``: ``ids`` are the
:data:`~repro.core.terms.TERM_DICT` IDs of the terms recursive descent
would build from the same characters, ``sorts`` their sorts (``"a"`` or
``"s"`` per argument).  No :class:`~repro.core.atoms.Atom` is built.  The
fact's ``.`` token follows.  Anything else falls through to the ordinary
tokens at the same offset, so errors keep their text and position.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from ..core.atoms import Atom
from ..core.errors import ParseError
from ..core.terms import TERM_DICT, Const, SetValue

KEYWORDS = {"forall", "exists", "in", "not", "or", "and", "true"}

#: Token kinds.
IDENT = "IDENT"          # lower-case identifier
VARIABLE = "VARIABLE"    # upper-case identifier
INT = "INT"
STRING = "STRING"
PUNCT = "PUNCT"
KEYWORD = "KEYWORD"
DIRECTIVE = "DIRECTIVE"  # '#name'
FACT = "FACT"            # a flat ground fact, up to its '.'; see below
EOF = "EOF"


class Token(NamedTuple):
    kind: str
    text: str           # for FACT, ``((pred, sorts), ids)``
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


#: One token of the general path; group names are token kinds.  ``\w`` is
#: exactly ``str.isalnum()`` or ``_``, and a WORD must also *start* with a
#: letter or ``_`` (checked in :func:`tokenize`).  Quoted constants double
#: an embedded quote (SQL style, as the pretty-printer writes it) and may
#: span lines.  A closing quote is never followed by another one, so an
#: unclosed quote is reported at its opening, never split into a string
#: and a new quote.
_TOKEN = re.compile(r"""
    (?P<SPACE>[ \t\r]+|%[^\n]*)
  | (?P<NEWLINE>\n)
  | (?P<PUNCT>:-|!=|<=|>=|[(){},.=<>+\-*;])
  | \#(?P<DIRECTIVE>\w*)
  | '(?P<STRING>(?:[^']|'')*)'(?!')
  | (?P<INT>[0-9]+)
  | (?P<WORD>\w+)
""", re.VERBOSE)

#: A lower-case identifier of the fact lexeme.  Every match that is not a
#: keyword also lexes as one ``IDENT`` on the general path, so the
#: pretty-printer writes a string constant bare exactly when it matches.
_IDENT = r"[a-z][A-Za-z0-9_]*"
IDENT_PATTERN = re.compile(_IDENT)

_INT = r"-?[0-9]+"
_PAYLOAD = r"(?:[^'\n]|'')*"           # a one-line quoted constant's text
_CONST = rf"(?:{_IDENT}|{_INT}|'{_PAYLOAD}'(?!'))"
_ARG = rf"(?:{_CONST}|\{{[ \t]*(?:{_CONST}(?:[ \t]*,[ \t]*{_CONST})*[ \t]*)?\}})"
_ATOM_SRC = rf"({_IDENT})(?:[ \t]*\([ \t]*({_ARG}(?:[ \t]*,[ \t]*{_ARG})*)[ \t]*\))?"
#: A flat ground fact, ``.`` included; spaces and tabs only, so it never
#: moves the line count.
_FACT = re.compile(_ATOM_SRC + r"[ \t]*\.")
_ATOM = re.compile(_ATOM_SRC)
#: The pieces of a matched argument list (commas and blanks fall between).
_PIECE = re.compile(rf"({_INT})|'({_PAYLOAD})'(?!')|({_IDENT})|(\{{)|\}}")


def _build_args(args_text: str) -> Optional[tuple]:
    """The argument terms of a fact-pattern match; ``None`` when a keyword
    makes it something recursive descent must judge."""
    args: list = []
    out = args
    for m in _PIECE.finditer(args_text):
        i = m.lastindex
        if i == 1:
            out.append(Const(int(m.group(1))))
        elif i == 2:
            out.append(Const(m.group(2).replace("''", "'")))
        elif i == 3:
            word = m.group(3)
            if word in KEYWORDS:
                return None
            out.append(Const(word))
        elif i == 4:
            out = []
        else:
            args.append(SetValue(frozenset(out)))
            out = args
    return tuple(args)


def flat_atom(source: str) -> Optional[Atom]:
    """The atom if all of ``source`` is a flat ground atom (no ``.``)."""
    m = _ATOM.fullmatch(source)
    if m is None or m.group(1) in KEYWORDS:
        return None
    if m.group(2) is None:
        return Atom(m.group(1), ())
    args = _build_args(m.group(2))
    return None if args is None else Atom(m.group(1), args)


def _const_id(piece: str) -> Optional[int]:
    """The term ID of one unquoted constant argument (blanks around it
    allowed); ``None`` for a keyword."""
    word = piece.strip(" \t")
    if word[0] in "-0123456789":
        return TERM_DICT.id_of(Const(int(word)))
    return None if word in KEYWORDS else TERM_DICT.id_of(Const(word))


def _fact_row(
    pred: str, args_text: Optional[str], seen: dict[str, Optional[int]]
) -> Optional[tuple]:
    """The ``FACT`` token text of a fact-pattern match, ``((pred, sorts),
    ids)``; ``None`` when a keyword makes it something recursive descent
    must judge.  ``seen`` maps an unquoted argument's text to its ID
    (``None`` for a keyword), so a constant repeated through a program is
    looked up once."""
    if pred in KEYWORDS:
        return None
    if args_text is None:
        return (pred, ""), ()
    if "{" in args_text or "'" in args_text:
        args = _build_args(args_text)
        if args is None:
            return None
        return (pred, "".join([t.sort for t in args])), tuple(
            map(TERM_DICT.id_of, args)
        )
    pieces = args_text.split(",")
    try:
        ids = tuple(map(seen.__getitem__, pieces))
    except KeyError:
        for piece in pieces:
            if piece not in seen:
                seen[piece] = _const_id(piece)
        ids = tuple(map(seen.__getitem__, pieces))
    if None in ids:
        return None
    return (pred, "a" * len(ids)), ids


#: Name prefix of the variable each ``_`` in term position stands for: a
#: name the lexer cannot produce (``§`` is not a word character), so it
#: never meets a user's ``_1``; the pretty-printer writes it back as ``_``.
ANONYMOUS = "_§"

#: A goal's tokens, spaces dropped, for :func:`goal_shape`: the lexemes of
#: :data:`_TOKEN` without their kinds, and any other character alone.
_GOAL_TOKEN = re.compile(
    r"[0-9]+|\w+|'(?:[^']|'')*'(?!')|:-|!=|<=|>=|%[^\n]*|\#\w*|[^ \t\r\n]"
)
_PUNCT = frozenset(("(", ")", "{", "}", ",", ".", "=", "<", ">", "+", "-",
                    "*", ";", ":-", "!=", "<=", ">="))
_DIGITS = frozenset("0123456789")

#: Tokens around which a constant is an operand, not a 0-ary atom.
_OPERANDS = frozenset(("=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "in"))

#: What ends a term (a ``-`` after one is binary).
_TERM_END = frozenset((VARIABLE, IDENT, INT, STRING, ")", "}"))


def goal_shape(goal: str) -> Optional[tuple[tuple, tuple, list[str]]]:
    """The shape of a goal text — what its plan depends on — in one pass:
    ``(key, constants, names)``, or ``None`` when the text does not lex.

    ``key`` is the token sequence with each variable renamed by first
    occurrence, each ``_`` kept as itself, each constant that is an
    argument replaced by a typed slot (``§n0``, ``§i1``: name or integer,
    numbered by first occurrence of its value, so ``t(v1, v1)`` and
    ``t(v1, v2)`` differ), and last the order of the variables' names.
    ``constants`` holds each slot's constant; ``names`` each variable's
    name, first occurrence first (an ``_`` gets its :data:`ANONYMOUS`
    name).  A goal with a set literal, a function term or a signed
    number gets no slots: its constants stay in the key and
    ``constants`` is empty.
    """
    toks = _GOAL_TOKEN.findall(goal)
    if "%" in goal:
        toks = [t for t in toks if t[0] != "%"]
    toks.append("")
    punct, operands, term_end = _PUNCT, _OPERANDS, _TERM_END
    key: list = []
    names: list[str] = []
    var_of: dict[str, int] = {}
    consts: list = []             # (key index, Const)
    calls: list[bool] = []        # open parentheses: an argument list?
    in_args = False               # inside an atom's or function's arguments
    slotted = True
    anonymous = 0
    # The previous token: its text if punctuation or a keyword, else its
    # kind ("name": a predicate or function name).
    prev = None
    for i in range(len(toks) - 1):
        text = toks[i]
        if text in punct:
            if text == "(":
                in_args = prev == "name"
                calls.append(in_args)
            elif text == ")":
                if calls:
                    calls.pop()
                in_args = bool(calls) and calls[-1]
            elif text == "{" or text == "}":
                slotted = False
            elif text == "-" and prev not in term_end \
                    and toks[i + 1][:1] in _DIGITS:
                slotted = False   # a signed number
            key.append(text)
            prev = text
            continue
        c = text[0]
        if c.isalpha() or c == "_":
            if text in KEYWORDS:
                key.append(text)
                prev = text
                continue
            if c.isupper() or c == "_":
                if text == "_":
                    anonymous += 1
                    key.append("_")
                    names.append(f"{ANONYMOUS}{anonymous}")
                else:
                    j = var_of.get(text)
                    if j is None:
                        j = var_of[text] = len(names)
                        names.append(text)
                    key.append(j)
                prev = VARIABLE
                continue
            nxt = toks[i + 1]
            operand = in_args or prev in operands
            if nxt == "(":
                if operand:
                    slotted = False   # a function term
                key.append(text)
                prev = "name"
                continue
            if not operand and nxt not in operands:
                key.append(text)      # a 0-ary atom
                prev = IDENT
                continue
            value = Const(text)
            prev = IDENT
        elif c in _DIGITS:
            value = Const(int(text))
            prev = INT
        elif c == "'" and len(text) > 1:
            value = Const(text[1:-1].replace("''", "'"))
            prev = STRING
        elif c == "#" and len(text) > 1:
            key.append(text)
            prev = DIRECTIVE
            continue
        else:
            return None
        consts.append((len(key), value))
        key.append(None)
    if not slotted:
        for at, value in consts:
            key[at] = value
        consts = []
    elif consts:
        slot_of: dict = {}
        for at, value in consts:
            k = slot_of.get(value)
            if k is None:
                k = slot_of[value] = len(slot_of)
            key[at] = f"§i{k}" if value.value.__class__ is int else f"§n{k}"
        consts = list(slot_of)
    if len(names) > 1:
        key.append(tuple(sorted(range(len(names)), key=names.__getitem__)))
    return tuple(key), tuple(consts), names


def tokenize(source: str) -> list[Token]:
    """Tokenize a program text; raises :class:`ParseError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    pos, n = 0, len(source)
    at_start = True
    seen: dict[str, Optional[int]] = {}
    fact, token = _FACT.match, tuple.__new__
    while pos < n:
        col = pos - line_start + 1
        if at_start:
            m = fact(source, pos)
            row = None if m is None else _fact_row(m[1], m[2], seen)
            if row is not None:
                pos = m.end()
                append(token(Token, (FACT, row, line, col)))
                append(token(Token, (PUNCT, ".", line, pos - line_start)))
                if pos < n and source[pos] == "\n":     # the usual line end
                    pos += 1
                    line, line_start = line + 1, pos
                continue
        m = _TOKEN.match(source, pos)
        if m is None:
            if source[pos] == "'":
                raise ParseError("unterminated quoted constant", line, col)
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind, text, pos = m.lastgroup, m.group(m.lastgroup), m.end()
        if kind == "SPACE":
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, pos
            continue
        if kind == "WORD":
            first = text[0]
            if not (first.isalpha() or first == "_"):
                raise ParseError(f"unexpected character {first!r}", line, col)
            if text in KEYWORDS:
                kind = KEYWORD
            elif first.isupper() or first == "_":
                kind = VARIABLE
            else:
                kind = IDENT
        elif kind == STRING:
            append(Token(STRING, text.replace("''", "'"), line, col))
            at_start = False
            if "\n" in text:
                line += text.count("\n")
                line_start = source.rindex("\n", 0, pos) + 1
            continue
        elif kind == DIRECTIVE and not text:
            raise ParseError("empty directive after '#'", line, col)
        append(Token(kind, text, line, col))
        at_start = kind == DIRECTIVE or (kind == PUNCT and text == ".")
    append(Token(EOF, "", line, pos - line_start + 1))
    return tokens
