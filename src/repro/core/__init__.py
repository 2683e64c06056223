"""Core logic of LPS/ELPS: terms, atoms, formulas, clauses, programs.

This package implements Section 2 of Kuper's *Logic Programming with Sets*:
the two-sorted language (Definitions 1–2), LPS clauses and programs
(Definitions 4–6), plus the generalized rule and LDL grouping-clause forms
used by Sections 4 and 6.
"""

from .errors import (
    ArityError,
    ClauseError,
    EvaluationError,
    LPSError,
    ParseError,
    SafetyError,
    SortError,
    StratificationError,
    UnificationError,
)
from .sorts import (
    EQUALS,
    MEMBER,
    SORT_A,
    SORT_S,
    SORT_U,
    FunctionSignature,
    PredicateSignature,
    is_special_predicate,
)
from .terms import (
    EMPTY_SET,
    App,
    Const,
    SetExpr,
    SetValue,
    Term,
    Var,
    app,
    canonicalize,
    const,
    free_vars,
    mkset,
    nesting_depth,
    order_key,
    setvalue,
    subterms,
    var_a,
    var_s,
    var_u,
)
from .substitution import EMPTY_SUBST, Subst
from .atoms import Atom, Literal, atom, atom_order_key, equals, member, neg, pos
from .formulas import (
    AndF,
    AtomF,
    ExistsIn,
    ForallIn,
    Formula,
    NotF,
    OrF,
    TRUE,
    TrueF,
    atomf,
    atoms_of,
    conj,
    disj,
    evaluate,
    evaluate_ground_atom,
    predicates_of,
    walk,
)
from .clauses import (
    GroupingClause,
    HornGround,
    LPSClause,
    Rule,
    clause,
    fact,
    horn,
)
from .program import MODE_ELPS, MODE_LPS, Program, rename_predicates
from .unify import (
    MAX_SET_WIDTH,
    first_unifier,
    match,
    match_atom,
    unify,
    unify_atoms,
)

__all__ = [
    # errors
    "LPSError", "SortError", "ClauseError", "ArityError", "SafetyError",
    "StratificationError", "ParseError", "EvaluationError", "UnificationError",
    # sorts
    "SORT_A", "SORT_S", "SORT_U", "EQUALS", "MEMBER",
    "PredicateSignature", "FunctionSignature", "is_special_predicate",
    # terms
    "Term", "Var", "Const", "App", "SetExpr", "SetValue", "EMPTY_SET",
    "var_a", "var_s", "var_u", "const", "app", "mkset", "setvalue",
    "canonicalize", "free_vars", "subterms", "nesting_depth", "order_key",
    # substitution
    "Subst", "EMPTY_SUBST",
    # atoms
    "Atom", "Literal", "atom", "atom_order_key", "equals", "member",
    "pos", "neg",
    # formulas
    "Formula", "TrueF", "TRUE", "AtomF", "NotF", "AndF", "OrF",
    "ForallIn", "ExistsIn", "atomf", "conj", "disj", "walk", "atoms_of",
    "predicates_of", "evaluate", "evaluate_ground_atom",
    # clauses
    "LPSClause", "HornGround", "Rule", "GroupingClause",
    "fact", "horn", "clause",
    # program
    "Program", "MODE_LPS", "MODE_ELPS", "rename_predicates",
    # unify
    "unify", "unify_atoms", "first_unifier", "match", "match_atom",
    "MAX_SET_WIDTH",
]
