"""Atomic formulas and literals.

An :class:`Atom` is ``p(t1, ..., tn)`` for a predicate symbol ``p``; the
built-in predicates are equality (``=``) and membership (``in``), which
Definition 5 forbids in clause heads.  A :class:`Literal` is an atom with a
polarity; negative literals belong to the stratified-negation extension of
Sections 4.2 and 6.2, not to core LPS.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SortError
from .sorts import EQUALS, MEMBER, SORT_A, SORT_S, is_special_predicate, sorts_compatible
from .substitution import Subst
from .terms import Term, Var, _collect_vars, cached_order_key


class Atom:
    """An atomic formula ``p(t1, ..., tn)``.

    Atoms are the unit of storage in interpretations and the unit of work in
    matching, so (like the term nodes — see DESIGN.md) they cache their hash,
    groundness and free variables in slots.  Immutable by contract.
    """

    __slots__ = ("pred", "args", "_hash", "_ground", "_fv")

    def __init__(self, pred: str, args: tuple[Term, ...]) -> None:
        self.pred = pred
        self.args = args
        self._hash = -1
        self._ground = None
        self._fv = None

    def __reduce__(self):
        # Rebuild through __init__ so cached slots (``_hash``, ``_ground``,
        # ``_fv``) — and the args' process-local ``_tid`` id slots — are
        # recomputed on unpickle instead of restored from foreign state.
        return (type(self), (self.pred, self.args))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Atom:
            return NotImplemented
        if (
            self._hash != -1
            and other._hash != -1
            and self._hash != other._hash
        ):
            return False
        return self.pred == other.pred and self.args == other.args

    def __hash__(self) -> int:
        h = self._hash
        if h == -1:
            h = hash((Atom, self.pred, self.args))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"Atom(pred={self.pred!r}, args={self.args!r})"

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_special(self) -> bool:
        """Whether the predicate is built-in (``=`` or ``in``)."""
        return is_special_predicate(self.pred)

    def is_ground(self) -> bool:
        g = self._ground
        if g is None:
            g = all(a.is_ground() for a in self.args)
            self._ground = g
        return g

    def free_vars(self) -> frozenset[Var]:
        fv = self._fv
        if fv is None:
            out: set[Var] = set()
            for a in self.args:
                _collect_vars(a, out)
            fv = frozenset(out)
            self._fv = fv
        return fv

    def substitute(self, theta: Subst) -> "Atom":
        apply = theta.apply
        out = []
        changed = False
        for a in self.args:
            b = apply(a)
            if b is not a:
                changed = True
            out.append(b)
        if not changed:
            # Unchanged atoms keep their identity — and with it their cached
            # hash, groundness and free variables.
            return self
        return Atom(self.pred, tuple(out))

    def __str__(self) -> str:
        if self.pred == EQUALS and len(self.args) == 2:
            return f"{self.args[0]} = {self.args[1]}"
        if self.pred == MEMBER and len(self.args) == 2:
            return f"{self.args[0]} in {self.args[1]}"
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"


def atom(pred: str, *args: Term) -> Atom:
    """Convenience constructor for an atom."""
    return Atom(pred, tuple(args))


def atom_order_key(a: Atom):
    """A total-order key over ground atoms (predicate, then argument order).

    Deterministic without stringifying, unlike ``key=str`` — use this for
    stable fact orderings in query results and pretty-printing.
    """
    return (a.pred, len(a.args), tuple(map(cached_order_key, a.args)))


def equals(left: Term, right: Term) -> Atom:
    """The built-in equality atom; the ``=a`` / ``=s`` distinction of the
    paper is recovered from the argument sorts."""
    if not sorts_compatible(left.sort, right.sort):
        raise SortError(
            f"ill-sorted equality {left} = {right} "
            f"({left.sort} vs {right.sort})"
        )
    return Atom(EQUALS, (left, right))


def member(elem: Term, container: Term) -> Atom:
    """The built-in membership atom ``elem in container``."""
    if elem.sort == SORT_S:
        raise SortError(f"membership left operand {elem} has sort 's'; LPS "
                        "membership relates atoms to sets")
    if container.sort == SORT_A:
        raise SortError(f"membership right operand {container} has sort 'a'")
    return Atom(MEMBER, (elem, container))


@dataclass(frozen=True, slots=True)
class Literal:
    """An atom with a polarity.  ``Literal(a, False)`` is ``not a``."""

    atom: Atom
    positive: bool = True

    def is_ground(self) -> bool:
        return self.atom.is_ground()

    def free_vars(self) -> set[Var]:
        return self.atom.free_vars()

    def substitute(self, theta: Subst) -> "Literal":
        return Literal(self.atom.substitute(theta), self.positive)

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


def pos(a: Atom) -> Literal:
    """A positive literal."""
    return Literal(a, True)


def neg(a: Atom) -> Literal:
    """A negative literal (stratified-negation extension)."""
    return Literal(a, False)
