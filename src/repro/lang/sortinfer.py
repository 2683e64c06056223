"""Sort inference for parsed LPS programs.

The paper's typography distinguishes sort-a variables (``x, y, z``) from
sort-s variables (``X, Y, Z``) by case; a practical Prolog-style syntax
capitalises *all* variables, so the parser emits untyped variables and this
module recovers Definition 1's two-sorted discipline by constraint
propagation:

* quantifier bound variables are sort ``a``, their ranges sort ``s``;
* ``e in S`` forces ``e : a`` and ``S : s``; set-term elements are ``a``
  and set terms are ``s``; function arguments and results are ``a``;
* the two sides of an equality share a sort; every occurrence of a
  predicate argument position shares a sort across the program (one global
  signature per predicate, as in Definition 1);
* builtins have fixed signatures (``plus : aaa``, ``card : sa``,
  ``union : sss``, ``scons : ass``, ...).

Constraints are solved by union-find; conflicts raise
:class:`~repro.core.errors.SortError` with the offending clause, and any
variable left unconstrained defaults to sort ``a``.  ELPS mode skips
inference entirely (Section 5 is untyped by design).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.atoms import Atom
from ..core.errors import SortError
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
    walk,
)
from ..core.sorts import EQUALS, MEMBER, SORT_A, SORT_S, SORT_U
from ..core.terms import App, Const, SetExpr, SetValue, Term, Var, free_vars, setvalue

#: Fixed signatures of the engine builtins (``None`` = unconstrained).
BUILTIN_SORTS: dict[str, tuple[Optional[str], ...]] = {
    "plus": (SORT_A, SORT_A, SORT_A),
    "minus": (SORT_A, SORT_A, SORT_A),
    "times": (SORT_A, SORT_A, SORT_A),
    "lt": (SORT_A, SORT_A),
    "le": (SORT_A, SORT_A),
    "gt": (SORT_A, SORT_A),
    "ge": (SORT_A, SORT_A),
    "neq": (None, None),
    "card": (SORT_S, SORT_A),
    "union": (SORT_S, SORT_S, SORT_S),
    "scons": (SORT_A, SORT_S, SORT_S),
    "choose_min": (SORT_A, SORT_S, SORT_S),
    "setdiff": (SORT_S, SORT_S, SORT_S),
    "intersect": (SORT_S, SORT_S, SORT_S),
    "subset_enum": (SORT_S, SORT_S),
}


class _UnionFind:
    """Union-find over sort slots, each optionally pinned to a sort."""

    def __init__(self) -> None:
        self._parent: dict = {}
        self._sort: dict = {}

    def find(self, node):
        self._parent.setdefault(node, node)
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, n1, n2, context: str) -> None:
        r1, r2 = self.find(n1), self.find(n2)
        if r1 == r2:
            return
        s1, s2 = self._sort.get(r1), self._sort.get(r2)
        if s1 is not None and s2 is not None and s1 != s2:
            raise SortError(
                f"sort conflict ({s1} vs {s2}) between {n1} and {n2} in {context}"
            )
        self._parent[r1] = r2
        if s1 is not None:
            self._sort[r2] = s1

    def pin(self, node, sort: str, context: str) -> None:
        root = self.find(node)
        existing = self._sort.get(root)
        if existing is not None and existing != sort:
            raise SortError(
                f"sort conflict for {node}: {existing} vs {sort} in {context}"
            )
        self._sort[root] = sort

    def sort_of(self, node) -> Optional[str]:
        return self._sort.get(self.find(node))

    def known(self, node) -> bool:
        """Whether any constraint has mentioned the node."""
        return node in self._parent


class SortInference:
    """Collects constraints from parsed statements and solves them."""

    def __init__(self) -> None:
        self.uf = _UnionFind()

    # Node constructors -------------------------------------------------------

    @staticmethod
    def vnode(clause_i: int, name: str):
        return ("v", clause_i, name)

    @staticmethod
    def pnode(pred: str, pos: int):
        return ("p", pred, pos)

    # Constraint collection -----------------------------------------------------

    def constrain_term(self, t: Term, ci: int, expect, context: str) -> None:
        """``expect`` is a sort string, a UF node, or ``None``."""
        if isinstance(t, Var):
            node = self.vnode(ci, t.name)
            if isinstance(expect, str):
                self.uf.pin(node, expect, context)
            elif expect is not None:
                self.uf.union(node, expect, context)
            return
        if isinstance(t, Const):
            self._expect_concrete(expect, SORT_A, t, context)
            return
        if isinstance(t, App):
            self._expect_concrete(expect, SORT_A, t, context)
            for a in t.args:
                self.constrain_term(a, ci, SORT_A, context)
            return
        if isinstance(t, (SetExpr, SetValue)):
            self._expect_concrete(expect, SORT_S, t, context)
            if isinstance(t, SetExpr):
                for e in t.elems:
                    self.constrain_term(e, ci, SORT_A, context)
            return
        raise SortError(f"unexpected term {t!r} in {context}")

    def _expect_concrete(self, expect, actual: str, t: Term, context: str) -> None:
        if expect is None:
            return
        if isinstance(expect, str):
            if expect != actual:
                raise SortError(
                    f"term {t} has sort {actual}, expected {expect} in {context}"
                )
        else:
            self.uf.pin(expect, actual, context)

    def constrain_atom(self, a: Atom, ci: int, context: str) -> None:
        if a.pred == EQUALS and a.arity == 2:
            l, r = a.args
            hint = _sort_hint(l) or _sort_hint(r)
            if isinstance(l, Var) and isinstance(r, Var):
                self.uf.union(self.vnode(ci, l.name), self.vnode(ci, r.name), context)
            self.constrain_term(l, ci, hint, context)
            self.constrain_term(r, ci, hint, context)
            return
        if a.pred == MEMBER and a.arity == 2:
            self.constrain_term(a.args[0], ci, SORT_A, context)
            self.constrain_term(a.args[1], ci, SORT_S, context)
            return
        sig = BUILTIN_SORTS.get(a.pred)
        if sig is not None:
            if len(sig) != a.arity:
                raise SortError(
                    f"builtin {a.pred!r} used with arity {a.arity} in {context}"
                )
            for t, s in zip(a.args, sig):
                self.constrain_term(t, ci, s, context)
            return
        for i, t in enumerate(a.args):
            self.constrain_term(t, ci, self.pnode(a.pred, i), context)

    def constrain_formula(self, f: Formula, ci: int, context: str) -> None:
        if isinstance(f, (TrueF,)):
            return
        if isinstance(f, AtomF):
            self.constrain_atom(f.atom, ci, context)
            return
        if isinstance(f, NotF):
            self.constrain_formula(f.sub, ci, context)
            return
        if isinstance(f, (AndF, OrF)):
            for p in f.parts:
                self.constrain_formula(p, ci, context)
            return
        if isinstance(f, (ForallIn, ExistsIn)):
            self.constrain_term(f.var, ci, SORT_A, context)
            self.constrain_term(f.source, ci, SORT_S, context)
            self.constrain_formula(f.body, ci, context)
            return
        raise SortError(f"unexpected formula {f!r} in {context}")

    # Solution ------------------------------------------------------------------

    def var_sort(self, ci: int, name: str) -> str:
        return self.uf.sort_of(self.vnode(ci, name)) or SORT_A

    def signature(self, pred: str, arity: int) -> tuple[str, ...]:
        return tuple(
            self.uf.sort_of(self.pnode(pred, i)) or SORT_A for i in range(arity)
        )


# ---------------------------------------------------------------------------
# Retyping (rewrite untyped variables with their inferred sorts)
# ---------------------------------------------------------------------------

def _retype_term(t: Term, sorts: dict[str, str]) -> Term:
    if isinstance(t, Var):
        return Var(t.name, sorts.get(t.name, SORT_A))
    if isinstance(t, App):
        return App(t.fname, tuple(_retype_term(a, sorts) for a in t.args))
    if isinstance(t, SetExpr):
        return SetExpr(tuple(_retype_term(e, sorts) for e in t.elems))
    return t


def _retype_atom(a: Atom, sorts: dict[str, str]) -> Atom:
    return Atom(a.pred, tuple(_retype_term(t, sorts) for t in a.args))


def _retype_formula(f: Formula, sorts: dict[str, str]) -> Formula:
    if isinstance(f, TrueF):
        return f
    if isinstance(f, AtomF):
        return AtomF(_retype_atom(f.atom, sorts))
    if isinstance(f, NotF):
        return NotF(_retype_formula(f.sub, sorts))
    if isinstance(f, AndF):
        return AndF(tuple(_retype_formula(p, sorts) for p in f.parts))
    if isinstance(f, OrF):
        return OrF(tuple(_retype_formula(p, sorts) for p in f.parts))
    if isinstance(f, ForallIn):
        return ForallIn(
            Var(f.var.name, sorts.get(f.var.name, SORT_A)),
            _retype_term(f.source, sorts),
            _retype_formula(f.body, sorts),
        )
    if isinstance(f, ExistsIn):
        return ExistsIn(
            Var(f.var.name, sorts.get(f.var.name, SORT_A)),
            _retype_term(f.source, sorts),
            _retype_formula(f.body, sorts),
        )
    raise SortError(f"unexpected formula {f!r}")


def _sort_hint(t: Term) -> Optional[str]:
    if isinstance(t, (Const, App)):
        return SORT_A
    if isinstance(t, (SetExpr, SetValue)):
        return SORT_S
    return None


def _fact_shape(head: Atom) -> Optional[tuple[str, str]]:
    """``(pred, argument sorts)`` of a head whose arguments are all
    constants or set values (a :class:`~repro.lang.parser.FactRun`'s
    key), else ``None``."""
    args = head.args
    if not {Const, SetValue}.issuperset(map(type, args)):
        return None
    return head.pred, "".join([t.sort for t in args])


def _collect_var_names(f: Formula, out: set[str]) -> None:
    for sub in walk(f):
        if isinstance(sub, AtomF):
            for t in sub.atom.args:
                out |= {v.name for v in free_vars(t)}
        elif isinstance(sub, (ForallIn, ExistsIn)):
            out.add(sub.var.name)
            out |= {v.name for v in free_vars(sub.source)}


def predicate_sorts(program) -> dict[tuple[str, int], str]:
    """``(predicate, argument position) -> sort`` as a typed program's
    clauses fix it — the signatures text parsed *against* that program
    (a query goal, a standing query) must agree with.

    Only the two LPS sorts are reported: an ELPS program is untyped and
    constrains nothing.
    """
    from ..core.clauses import GroupingClause, Rule
    from ..core.formulas import atoms_of

    sorts: dict[tuple[str, int], str] = {}

    def note(pred: str, args: Sequence[Term]) -> None:
        if pred in BUILTIN_SORTS:
            return
        for i, t in enumerate(args):
            if t.sort in (SORT_A, SORT_S):
                sorts.setdefault((pred, i), t.sort)

    for c in program.clauses:
        if isinstance(c, GroupingClause):
            # The full head: the grouped slot holds a set.
            head = list(c.head_args)
            head.insert(c.group_pos, setvalue(()))
            note(c.pred, head)
        else:
            note(c.head.pred, c.head.args)
        body = (atoms_of(c.body) if isinstance(c, Rule)
                else (lit.atom for lit in c.body))
        for a in body:
            if not a.is_special():
                note(a.pred, a.args)
    return sorts


def infer_sorts(
    statements: Sequence,
    signatures: Optional[dict[tuple[str, int], str]] = None,
) -> list:
    """Infer sorts for a list of parsed statements and retype them.

    ``signatures`` (see :func:`predicate_sorts`) pins predicate argument
    positions beforehand, so a fragment mentioning a predicate only in a
    position the fragment itself does not constrain (``succ(a, S)``)
    still gets the sort the defining program gave it.
    """
    from .parser import FactRun, ParsedGrouping, ParsedRule

    inf = SortInference()
    # A ground fact of constants and set values has no variables to type:
    # it only pins its predicate's positions, and a second fact with the
    # same predicate and argument sorts pins nothing new.
    pinned: set = set()
    # Each statement with its clause index; a FactRun stands for its
    # rows' clauses and takes the index of the first.
    numbered, ci = [], 0
    for s in statements:
        numbered.append((ci, s))
        ci += len(s.rows) if s.__class__ is FactRun else 1
    for ci, s in numbered:
        if s.__class__ is FactRun:
            if s.key not in pinned:
                pinned.add(s.key)
                inf.constrain_atom(s.first_atom(), ci, f"clause {ci + 1}")
            continue
        if s.body is TRUE:
            shape = _fact_shape(s.head)
            if shape is not None:
                if shape in pinned:
                    continue
                pinned.add(shape)
        context = f"clause {ci + 1}"
        if isinstance(s, ParsedRule):
            inf.constrain_atom(s.head, ci, context)
            inf.constrain_formula(s.body, ci, context)
        elif isinstance(s, ParsedGrouping):
            inf.constrain_term(s.group_var, ci, SORT_A, context)
            # Reconstruct the full head signature with the grouped slot.
            arg_terms = list(s.head_args)
            for i, t in enumerate(arg_terms):
                pos = i if i < s.group_pos else i + 1
                inf.constrain_term(t, ci, inf.pnode(s.pred, pos), context)
            inf.uf.pin(inf.pnode(s.pred, s.group_pos), SORT_S, context)
            inf.constrain_formula(s.body, ci, context)
    for (pred, i), sort in (signatures or {}).items():
        node = inf.pnode(pred, i)
        if inf.uf.known(node):      # only what the statements mention
            inf.uf.pin(node, sort, f"the signature of {pred!r}")

    out: list = []
    for ci, s in numbered:
        if s.__class__ is FactRun:
            out.append(s)           # nothing to retype
            continue
        if isinstance(s, ParsedRule):
            if s.body is TRUE and s.head.is_ground():
                out.append(s)       # nothing to retype
                continue
            names: set[str] = set()
            for t in s.head.args:
                names |= {v.name for v in free_vars(t)}
            _collect_var_names(s.body, names)
            sorts = {n: inf.var_sort(ci, n) for n in names}
            out.append(
                ParsedRule(
                    head=_retype_atom(s.head, sorts),
                    body=_retype_formula(s.body, sorts),
                )
            )
        else:
            names = {s.group_var.name}
            for t in s.head_args:
                names |= {v.name for v in free_vars(t)}
            _collect_var_names(s.body, names)
            sorts = {n: inf.var_sort(ci, n) for n in names}
            out.append(
                ParsedGrouping(
                    pred=s.pred,
                    head_args=tuple(_retype_term(t, sorts) for t in s.head_args),
                    group_pos=s.group_pos,
                    group_var=Var(s.group_var.name, sorts[s.group_var.name]),
                    body=_retype_formula(s.body, sorts),
                )
            )
    return out
