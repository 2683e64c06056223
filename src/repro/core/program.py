"""LPS programs (Definition 6) and program-level analyses.

A :class:`Program` is a finite set of clauses — LPS clauses plus, in the LDL
comparison of Section 6, grouping clauses, and the positive-formula rules
(:class:`~repro.core.clauses.Rule`) the parser keeps as written.  Its
ground facts are data, held as term-ID columns (:class:`FactGroup`) and
built into clauses only when read.  The class provides:

* validation of the sort discipline per language *mode* (``"lps"`` enforces
  one level of set nesting, ``"elps"`` allows arbitrary nesting — Section 5),
* predicate inventory, EDB/IDB split,
* the predicate dependency graph with polarity (negative edges from negated
  literals and from grouping, used by stratification), and
* structural helpers (renaming, union) used by the Section 4/6 program
  transformations.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .atoms import Atom, Literal
from .clauses import GroupingClause, LPSClause, Rule
from .errors import ArityError, ClauseError, SortError
from .formulas import atoms_of, map_atoms, signed_atoms, terms_of
from .sorts import SORT_S, SORT_U, is_special_predicate
from .terms import (
    TERM_DICT,
    App,
    Const,
    SetExpr,
    SetValue,
    Term,
    Var,
    nesting_depth,
    subterms,
)

AnyClause = Union[LPSClause, GroupingClause, Rule]

_TERMS = TERM_DICT.terms

#: Language modes.
MODE_LPS = "lps"
MODE_ELPS = "elps"


def check_arity(arities: dict[str, int], pred: str, arity: int) -> None:
    """Note ``pred`` at ``arity`` in ``arities`` (predicate -> arity), or
    refuse it (:class:`ArityError`) when they hold it at another: the one
    arity check, made wherever a clause or a fact comes in."""
    prev = arities.setdefault(pred, arity)
    if prev != arity:
        raise ArityError(
            f"predicate {pred!r} used with arities {prev} and {arity}"
        )


class FactGroup:
    """The ground facts of one predicate with one argument-sort pattern,
    as term-ID columns in source order.

    ``sorts`` holds one sort (``"a"`` or ``"s"``) per argument position;
    ``cols`` one ``array('q')`` of :data:`~repro.core.terms.TERM_DICT`
    IDs per position, row ``i`` being ``cols[j][i]`` for each ``j``.
    Repeated rows are kept, as the text repeats them.
    """

    __slots__ = ("pred", "sorts", "n", "cols")

    def __init__(
        self, pred: str, sorts: str, rows: Sequence[tuple[int, ...]]
    ) -> None:
        self.pred = pred
        self.sorts = sorts
        self.n = len(rows)
        self.cols = tuple(array("q", c) for c in zip(*rows))

    @property
    def arity(self) -> int:
        return len(self.sorts)

    def ids(self, lo: int, hi: int) -> Iterable[int]:
        """The IDs of rows ``[lo, hi)``, row by row."""
        return itertools.chain.from_iterable(
            zip(*[c[lo:hi] for c in self.cols])
        )

    def atoms(self, lo: int, hi: int) -> list[Atom]:
        """The atoms of rows ``[lo, hi)``, built now."""
        if not self.cols:
            return [Atom(self.pred, ())] * (hi - lo)
        term = _TERMS.__getitem__
        rows = zip(*[map(term, c[lo:hi]) for c in self.cols])
        return list(map(Atom, itertools.repeat(self.pred), rows))


#: The program in source order: ``(group, count)`` runs, ``group`` an
#: index into the fact groups or ``-1`` for the next ``count`` rules.
Layout = tuple[tuple[int, int], ...]


class Program:
    """A finite set of clauses with a language mode.

    A program is its rules (every clause that is not a ground fact) and
    its ground facts, held as :class:`FactGroup` ID columns, plus the
    layout that interleaves them in source order.  :attr:`clauses`
    (source order, useful for printing) and :meth:`facts` build the fact
    clauses and atoms when read; the analyses read one signature per fact
    group and each distinct fact term once.  Semantics does not depend on
    the order.  A program built from clauses keeps them and splits off
    its facts when something first asks for the parts.

    Immutable: equal programs have equal clause sequences and modes.
    """

    __slots__ = ("mode", "_clauses", "_parts", "_valid")

    def __init__(
        self, clauses: Iterable[AnyClause] = (), mode: str = MODE_LPS
    ) -> None:
        if mode not in (MODE_LPS, MODE_ELPS):
            raise ClauseError(f"unknown language mode {mode!r}")
        self.mode = mode
        self._clauses: Optional[tuple[AnyClause, ...]] = tuple(clauses)
        #: ``(rules, fact groups, layout)``, split off on first use.
        self._parts: Optional[tuple] = None
        self._valid = False

    @staticmethod
    def _of_parts(
        rules: tuple[AnyClause, ...], groups: tuple[FactGroup, ...],
        layout: Layout, mode: str,
    ) -> "Program":
        p = Program((), mode)
        p._clauses = None if groups else rules
        p._parts = (rules, groups, layout)
        return p

    def _split(self) -> tuple:
        parts = self._parts
        if parts is None:
            b = ProgramBuilder()
            for c in self._clauses:
                b.clause(c)
            parts = self._parts = b.parts()
        return parts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        if self.mode != other.mode:
            return False
        (r1, g1, l1), (r2, g2, l2) = self._split(), other._split()
        return r1 == r2 and l1 == l2 and [
            (g.pred, g.sorts, g.cols) for g in g1
        ] == [(g.pred, g.sorts, g.cols) for g in g2]

    def __hash__(self) -> int:
        rules, _, layout = self._split()
        return hash((self.mode, rules, layout))

    def __reduce__(self):
        # Term IDs are process-local: a pickle carries the clauses.
        return (Program, (self.clauses, self.mode))

    def __repr__(self) -> str:
        return f"Program(clauses={self.clauses!r}, mode={self.mode!r})"

    # -- construction ----------------------------------------------------------

    @staticmethod
    def of(*clauses: AnyClause, mode: str = MODE_LPS) -> "Program":
        return Program(tuple(clauses), mode=mode)

    def __add__(self, other: "Program") -> "Program":
        mode = MODE_ELPS if MODE_ELPS in (self.mode, other.mode) else MODE_LPS
        return Program(self.clauses + other.clauses, mode=mode)

    def with_clauses(self, extra: Iterable[AnyClause]) -> "Program":
        return Program(self.clauses + tuple(extra), mode=self.mode)

    @property
    def clauses(self) -> tuple[AnyClause, ...]:
        """Every clause, in source order (fact clauses built on first
        read, then kept)."""
        out = self._clauses
        if out is None:
            built: list[AnyClause] = []
            for group, lo, hi in self._runs():
                if group is None:
                    built += self._parts[0][lo:hi]
                else:
                    built += map(LPSClause, group.atoms(lo, hi))
            out = self._clauses = tuple(built)
        return out

    @property
    def fact_groups(self) -> tuple[FactGroup, ...]:
        """The ground facts, as ID columns per predicate and sort pattern."""
        return self._split()[1]

    def _runs(self) -> Iterator[tuple[Optional[FactGroup], int, int]]:
        """The program in source order as runs: ``(None, lo, hi)`` for
        rules ``[lo, hi)``, ``(group, lo, hi)`` for a group's rows."""
        _, groups, layout = self._split()
        at = [0] * (len(groups) + 1)        # per group; at[-1]: the rules
        for g, n in layout:
            lo = at[g]
            at[g] = lo + n
            yield (None if g < 0 else groups[g]), lo, lo + n

    def __len__(self) -> int:
        rules, groups, _ = self._split()
        return len(rules) + sum(g.n for g in groups)

    def __iter__(self) -> Iterator[AnyClause]:
        return iter(self.clauses)

    # -- inventory ---------------------------------------------------------------

    def lps_clauses(self) -> Iterator[LPSClause]:
        for c in self.clauses:
            if isinstance(c, LPSClause):
                yield c

    def head_pred(self, c: AnyClause) -> str:
        return c.pred if isinstance(c, GroupingClause) else c.head.pred

    def predicates(self) -> dict[str, int]:
        """All non-special predicates with their arities."""
        out: dict[str, int] = {}

        def note(pred: str, arity: int) -> None:
            if not is_special_predicate(pred):
                check_arity(out, pred, arity)

        rules = self._split()[0]
        for group, lo, hi in self._runs():
            if group is not None:
                note(group.pred, group.arity)
                continue
            for c in rules[lo:hi]:
                if isinstance(c, LPSClause):
                    note(c.head.pred, c.head.arity)
                    for a in c.body_atoms():
                        note(a.pred, a.arity)
                elif isinstance(c, Rule):
                    note(c.head.pred, c.head.arity)
                    for a in atoms_of(c.body):
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
        rules, groups, _ = self._split()
        return {self.head_pred(c) for c in rules} | {g.pred for g in groups}

    def facts(self) -> Iterator[Atom]:
        """The heads of the ground fact clauses, in source order: data,
        which every load boundary moves into the EDB."""
        if self._clauses is not None:
            for c in self._clauses:
                if _is_data(c):
                    yield c.head
            return
        for group, lo, hi in self._runs():
            if group is not None:
                yield from group.atoms(lo, hi)

    def rules(self) -> "Program":
        """The program without its ground facts.  Non-ground unit clauses
        (Theorem 10's ∅ base cases) are rules over the active domain."""
        rules = self._split()[0]
        p = Program._of_parts(
            rules, (), ((-1, len(rules)),) if rules else (), self.mode
        )
        p._valid = self._valid
        return p

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
        """The argument and range terms of every clause, in source order;
        a fact term is yielded at its first occurrence only."""
        rules = self._split()[0]
        seen: set[int] = set()
        for group, lo, hi in self._runs():
            if group is not None:
                fresh = [i for i in dict.fromkeys(group.ids(lo, hi))
                         if i not in seen]
                seen.update(fresh)
                yield from map(_TERMS.__getitem__, fresh)
                continue
            for c in rules[lo:hi]:
                if isinstance(c, LPSClause):
                    yield from c.head.args
                    for _, source in c.quantifiers:
                        yield source
                    for lit in c.body:
                        yield from lit.atom.args
                elif isinstance(c, Rule):
                    yield from c.head.args
                    yield from terms_of(c.body)
                else:
                    yield from c.head_args
                    for lit in c.body:
                        yield from lit.atom.args

    # -- validation ---------------------------------------------------------------

    @property
    def validated(self) -> bool:
        """Whether :meth:`validate` has passed on this program."""
        return self._valid

    def validate(self) -> None:
        """Check the sort discipline for the program's mode.

        In LPS mode every term must have nesting depth ≤ 1 and untyped
        variables are rejected; ELPS mode only enforces the function-range
        restriction (which :class:`~repro.core.terms.App` enforces by
        construction).
        """
        self.predicates()  # consistent arities
        if self.mode == MODE_ELPS:
            self._valid = True
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
        self._valid = True

    def has_negation(self) -> bool:
        return any(
            not isinstance(c, GroupingClause) and c.has_negation()
            for c in self._split()[0]
        )

    def has_grouping(self) -> bool:
        return any(isinstance(c, GroupingClause) for c in self._split()[0])

    # -- dependency graph ------------------------------------------------------

    def dependency_edges(self) -> Iterator[tuple[str, str, bool]]:
        """Yield edges ``(head_pred, body_pred, positive)``.

        Grouping clauses contribute *negative* edges (grouping needs the full
        extension of its body predicates, like negation — Section 6 /
        [BNR*87]), as does an atom under ``¬`` in a rule's formula.
        Special predicates never appear as nodes.
        """
        for c in self._split()[0]:
            if isinstance(c, LPSClause):
                for lit in c.body:
                    if not lit.atom.is_special():
                        yield (c.head.pred, lit.atom.pred, lit.positive)
            elif isinstance(c, Rule):
                for a, positive in signed_atoms(c.body):
                    if not a.is_special():
                        yield (c.head.pred, a.pred, positive)
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


class ProgramBuilder:
    """Assembles a :class:`Program` in source order: a clause at a time,
    or ground facts a run of ID rows at a time (the parser's ``FACT``
    lexemes), each fact joining the group of its predicate and sorts."""

    def __init__(self) -> None:
        self._rules: list[AnyClause] = []
        self._groups: dict[tuple[str, str], int] = {}
        self._rows: list[list[tuple[int, ...]]] = []
        self._layout: list[tuple[int, int]] = []

    def clause(self, c: AnyClause) -> None:
        if _is_data(c):
            args = c.head.args
            self.rows(
                (c.head.pred, "".join([t.sort for t in args])),
                [tuple(map(TERM_DICT.id_of, args))],
            )
        else:
            self._rules.append(c)
            self._run(-1, 1)

    def rows(self, key: tuple[str, str], rows: list[tuple[int, ...]]) -> None:
        """Append ground facts ``key[0](...)`` of sorts ``key[1]``, given
        as rows of term IDs."""
        g = self._groups.get(key)
        if g is None:
            g = self._groups[key] = len(self._rows)
            self._rows.append([])
        self._rows[g] += rows
        self._run(g, len(rows))

    def _run(self, g: int, n: int) -> None:
        layout = self._layout
        if layout and layout[-1][0] == g:
            layout[-1] = (g, layout[-1][1] + n)
        else:
            layout.append((g, n))

    def parts(self) -> tuple:
        return (
            tuple(self._rules),
            tuple(FactGroup(pred, sorts, self._rows[g])
                  for (pred, sorts), g in self._groups.items()),
            tuple(self._layout),
        )

    def program(self, mode: str = MODE_LPS) -> Program:
        return Program._of_parts(*self.parts(), mode)


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
        if isinstance(c, Rule):
            return Rule(ren_atom(c.head), map_atoms(c.body, ren_atom))
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
