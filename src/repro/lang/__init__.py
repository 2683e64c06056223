"""Concrete syntax: lexer, parser, sort inference, pretty-printer."""

from .lexer import ANONYMOUS, Token, goal_shape, tokenize
from .parser import Parser, parse_atom, parse_program, parse_term
from .pretty import (
    pretty_atom,
    pretty_clause,
    pretty_formula,
    pretty_program,
    pretty_term,
)
from .sortinfer import (
    BUILTIN_SORTS,
    SortInference,
    infer_sorts,
    predicate_sorts,
)

__all__ = [
    "tokenize",
    "Token",
    "ANONYMOUS",
    "goal_shape",
    "Parser",
    "parse_program",
    "parse_atom",
    "parse_term",
    "pretty_term",
    "pretty_atom",
    "pretty_clause",
    "pretty_formula",
    "pretty_program",
    "BUILTIN_SORTS",
    "SortInference",
    "infer_sorts",
    "predicate_sorts",
]
