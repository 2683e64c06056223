"""LPS programs (Definition 6) and program-level analyses.

A :class:`Program` is a finite set of clauses — LPS clauses plus, in the LDL
comparison of Section 6, grouping clauses.  The class provides:

* validation of the sort discipline per language *mode* (``"lps"`` enforces
  one level of set nesting, ``"elps"`` allows arbitrary nesting — Section 5),
* predicate inventory, EDB/IDB split,
* the predicate dependency graph with polarity (negative edges from negated
  literals and from grouping, used by stratification), and
* structural helpers (renaming, union) used by the Section 4/6 program
  transformations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Union

from .atoms import Atom, Literal
from .clauses import GroupingClause, LPSClause
from .errors import ClauseError, SortError
from .sorts import SORT_S, SORT_U, is_special_predicate
from .terms import (
    App,
    Const,
    SetExpr,
    SetValue,
    Term,
    Var,
    nesting_depth,
    subterms,
)

AnyClause = Union[LPSClause, GroupingClause]

#: Language modes.
MODE_LPS = "lps"
MODE_ELPS = "elps"


@dataclass(frozen=True)
class Program:
    """A finite set of clauses with a language mode.

    ``clauses`` preserves source order (useful for printing); semantics does
    not depend on the order.
    """

    clauses: tuple[AnyClause, ...] = ()
    mode: str = MODE_LPS

    def __post_init__(self) -> None:
        if self.mode not in (MODE_LPS, MODE_ELPS):
            raise ClauseError(f"unknown language mode {self.mode!r}")

    # -- construction ----------------------------------------------------------

    @staticmethod
    def of(*clauses: AnyClause, mode: str = MODE_LPS) -> "Program":
        return Program(tuple(clauses), mode=mode)

    def __add__(self, other: "Program") -> "Program":
        mode = MODE_ELPS if MODE_ELPS in (self.mode, other.mode) else MODE_LPS
        return Program(self.clauses + other.clauses, mode=mode)

    def with_clauses(self, extra: Iterable[AnyClause]) -> "Program":
        return Program(self.clauses + tuple(extra), mode=self.mode)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[AnyClause]:
        return iter(self.clauses)

    # -- inventory ---------------------------------------------------------------

    def lps_clauses(self) -> Iterator[LPSClause]:
        for c in self.clauses:
            if isinstance(c, LPSClause):
                yield c

    def grouping_clauses(self) -> Iterator[GroupingClause]:
        for c in self.clauses:
            if isinstance(c, GroupingClause):
                yield c

    def head_pred(self, c: AnyClause) -> str:
        return c.head.pred if isinstance(c, LPSClause) else c.pred

    def predicates(self) -> dict[str, int]:
        """All non-special predicates with their arities."""
        out: dict[str, int] = {}

        def note(pred: str, arity: int) -> None:
            if is_special_predicate(pred):
                return
            prev = out.setdefault(pred, arity)
            if prev != arity:
                raise ClauseError(
                    f"predicate {pred!r} used with arities {prev} and {arity}"
                )

        for c in self.clauses:
            if isinstance(c, LPSClause):
                note(c.head.pred, c.head.arity)
                for a in c.body_atoms():
                    note(a.pred, a.arity)
            else:
                note(c.pred, len(c.head_args) + 1)
                for lit in c.body:
                    note(lit.atom.pred, lit.atom.arity)
        return out

    def idb_predicates(self) -> set[str]:
        """Predicates defined by at least one rule."""
        return self.rules().head_predicates()

    def head_predicates(self) -> set[str]:
        return {self.head_pred(c) for c in self.clauses}

    def facts(self) -> Iterator[Atom]:
        """The heads of the ground fact clauses: data, which every load
        boundary moves into the EDB."""
        for c in self.clauses:
            if _is_data(c):
                yield c.head

    def rules(self) -> "Program":
        """The program without its ground facts.  Non-ground unit clauses
        (Theorem 10's ∅ base cases) are rules over the active domain."""
        return Program(
            tuple(c for c in self.clauses if not _is_data(c)), mode=self.mode
        )

    def constants(self) -> set[Term]:
        """All ground sort-a terms (constants, ground function terms) occurring
        anywhere in the program, plus elements of ground sets."""
        out: set[Term] = set()
        for t in self.all_terms():
            for s in subterms(t):
                if isinstance(s, (Const, App)) and s.is_ground():
                    out.add(s)
        return out

    def set_values(self) -> set[SetValue]:
        """All ground set values occurring in the program."""
        out: set[SetValue] = set()
        for t in self.all_terms():
            for s in subterms(t):
                if isinstance(s, SetValue):
                    out.add(s)
        return out

    def function_symbols(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.all_terms():
            for s in subterms(t):
                if isinstance(s, App):
                    prev = out.setdefault(s.fname, len(s.args))
                    if prev != len(s.args):
                        raise ClauseError(
                            f"function {s.fname!r} used with arities "
                            f"{prev} and {len(s.args)}"
                        )
        return out

    def all_terms(self) -> Iterator[Term]:
        for c in self.clauses:
            if isinstance(c, LPSClause):
                yield from c.head.args
                for _, source in c.quantifiers:
                    yield source
                for lit in c.body:
                    yield from lit.atom.args
            else:
                yield from c.head_args
                for lit in c.body:
                    yield from lit.atom.args

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Check the sort discipline for the program's mode.

        In LPS mode every term must have nesting depth ≤ 1 and untyped
        variables are rejected; ELPS mode only enforces the function-range
        restriction (which :class:`~repro.core.terms.App` enforces by
        construction).
        """
        self.predicates()  # consistent arities
        if self.mode == MODE_ELPS:
            return
        for t in self.all_terms():
            if t.__class__ is Const:
                continue            # depth 0, no variables, no elements
            if nesting_depth(t) > 1:
                raise SortError(
                    f"term {t} has nesting depth {nesting_depth(t)} > 1; "
                    "LPS allows one level of set nesting (use ELPS mode)"
                )
            for s in subterms(t):
                if isinstance(s, Var) and s.sort == SORT_U:
                    raise SortError(
                        f"untyped variable {s} in LPS mode; untyped variables "
                        "belong to ELPS (Section 5)"
                    )
                if isinstance(s, (SetExpr, SetValue)):
                    elems = s.elems
                    for e in elems:
                        if e.sort == SORT_S:
                            raise SortError(
                                f"set term {s} contains a set-sorted element "
                                f"{e}; LPS sets contain atoms only"
                            )

    def has_negation(self) -> bool:
        return any(
            isinstance(c, LPSClause) and c.has_negation() for c in self.clauses
        )

    def has_grouping(self) -> bool:
        return any(isinstance(c, GroupingClause) for c in self.clauses)

    # -- dependency graph ------------------------------------------------------

    def dependency_edges(self) -> Iterator[tuple[str, str, bool]]:
        """Yield edges ``(head_pred, body_pred, positive)``.

        Grouping clauses contribute *negative* edges (grouping needs the full
        extension of its body predicates, like negation — Section 6 /
        [BNR*87]).  Special predicates never appear as nodes.
        """
        for c in self.clauses:
            if isinstance(c, LPSClause):
                for lit in c.body:
                    if not lit.atom.is_special():
                        yield (c.head.pred, lit.atom.pred, lit.positive)
            else:
                for lit in c.body:
                    if not lit.atom.is_special():
                        yield (c.pred, lit.atom.pred, False)

    def pretty(self) -> str:
        """Multi-line source-order rendering of the program."""
        return "\n".join(str(c) for c in self.clauses)

    def __str__(self) -> str:
        return self.pretty()


def _is_data(c: AnyClause) -> bool:
    """Whether a clause is a ground fact (what a database fact means)."""
    return isinstance(c, LPSClause) and c.is_fact and c.head.is_ground()


def rename_predicates(program: Program, mapping: Mapping[str, str]) -> Program:
    """Rename non-special predicates throughout a program.

    Used by the Section 6 translations, which replace ``union``/``scons`` by
    fresh predicate names before axiomatising them.
    """

    def ren_atom(a: Atom) -> Atom:
        if a.pred in mapping:
            if is_special_predicate(mapping[a.pred]):
                raise ClauseError(
                    f"cannot rename {a.pred!r} to special predicate"
                )
            return Atom(mapping[a.pred], a.args)
        return a

    def ren_clause(c: AnyClause) -> AnyClause:
        if isinstance(c, LPSClause):
            return LPSClause(
                head=ren_atom(c.head),
                quantifiers=c.quantifiers,
                body=tuple(
                    Literal(ren_atom(l.atom), l.positive) for l in c.body
                ),
            )
        return GroupingClause(
            pred=mapping.get(c.pred, c.pred),
            head_args=c.head_args,
            group_pos=c.group_pos,
            group_var=c.group_var,
            body=tuple(Literal(ren_atom(l.atom), l.positive) for l in c.body),
        )

    return Program(tuple(ren_clause(c) for c in program.clauses), mode=program.mode)
