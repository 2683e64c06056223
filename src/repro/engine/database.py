"""EDB storage and Python-value conversion.

A :class:`Database` is a bag of ground facts — the extensional database the
paper's examples assume (``R(x, Y)`` in Example 4, ``parts``/``cost`` in
Example 6).  Facts can be loaded from plain Python values; the conversion
rules are:

* ``str`` / ``int``       →  constant of sort ``a``
* ``frozenset`` / ``set`` / iterables →  canonical :class:`SetValue`
  (recursively, so nested frozensets give ELPS values)
* :class:`~repro.core.terms.Term` —  passed through.

The inverse mapping turns ``SetValue`` back into ``frozenset`` and constants
back into their payloads, so query results read naturally in Python.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from ..core.atoms import Atom, atom_order_key
from ..core.clauses import LPSClause, fact
from ..core.errors import EvaluationError
from ..core.program import Program, check_arity
from ..core.terms import App, Const, SetValue, Term, setvalue


def to_term(value: Any) -> Term:
    """Convert a Python value to a ground term (see module docstring)."""
    if isinstance(value, Term):
        if not value.is_ground():
            raise EvaluationError(f"database value {value} is not ground")
        return value
    if isinstance(value, bool):
        return Const("true" if value else "false")
    if isinstance(value, (str, int)):
        return Const(value)
    if isinstance(value, (set, frozenset, list, tuple)):
        return setvalue(to_term(v) for v in value)
    raise EvaluationError(f"cannot convert {value!r} to an LPS term")


def as_fact(spec: Any) -> Atom:
    """Normalize a fact spec — an :class:`Atom` or a ``(pred, args...)``
    tuple of Python values — into a ground atom."""
    if isinstance(spec, Atom):
        if not spec.is_ground():
            raise EvaluationError(f"fact {spec} is not ground")
        return spec
    if isinstance(spec, tuple) and spec and isinstance(spec[0], str):
        return Atom(spec[0], tuple(to_term(v) for v in spec[1:]))
    raise EvaluationError(f"cannot interpret {spec!r} as a fact")


def from_term(term: Term) -> Any:
    """Convert a ground term back to a Python value."""
    if isinstance(term, Const):
        return term.value
    if isinstance(term, SetValue):
        return frozenset(from_term(e) for e in term.elems)
    if isinstance(term, App):
        return (term.fname, *[from_term(a) for a in term.args])
    raise EvaluationError(f"cannot convert {term} to a Python value")


class Database:
    """A mutable collection of ground facts, keyed by predicate.

    :meth:`snapshot` returns an immutable O(#predicates) view sharing the
    per-predicate fact sets; the writable original copies a predicate's
    set on its next mutation (copy-on-write), mirroring
    :meth:`repro.semantics.interpretation.Interpretation.snapshot`.

    :attr:`signatures` maps ``(pred, position)`` to the sort there of a
    predicate's first fact: what text parsed against the EDB is typed
    by; :attr:`arities` gives each held predicate's arity, and a fact at
    another is refused.  Both are replaced, never mutated, and snapshots
    share them.
    """

    def __init__(self) -> None:
        self._facts: dict[str, set[Atom]] = {}
        self._frozen = False
        #: Predicates whose fact set is shared with a snapshot.
        self._shared: set[str] = set()
        self.signatures: dict[tuple[str, int], str] = {}
        self.arities: dict[str, int] = {}

    # -- snapshots / copy-on-write ------------------------------------------------

    @property
    def frozen(self) -> bool:
        """Whether this database is an immutable snapshot."""
        return self._frozen

    def snapshot(self) -> "Database":
        """An immutable O(#predicates) snapshot of the current facts."""
        snap = Database.__new__(Database)
        snap._facts = dict(self._facts)
        snap._frozen = True
        snap._shared = set()
        snap.signatures = self.signatures
        snap.arities = self.arities
        if not self._frozen:
            self._shared = set(self._facts)
        return snap

    def _mutable_bucket(self, pred: str):
        """The predicate's fact set, un-shared and safe to mutate."""
        if self._frozen:
            raise EvaluationError(
                "database is a frozen snapshot and cannot be mutated"
            )
        shared = self._shared
        if shared and pred in shared:
            shared.discard(pred)
            bucket = self._facts.get(pred)
            if bucket is not None:
                bucket = self._facts[pred] = set(bucket)
            return bucket
        return self._facts.get(pred)

    # -- mutation ----------------------------------------------------------------

    def add(self, pred: str, *args: Any) -> Atom:
        """Assert ``pred(args...)``, converting Python values to terms."""
        a = Atom(pred, tuple(to_term(v) for v in args))
        self.add_atom(a)
        return a

    def add_atom(self, a: Atom) -> None:
        if not a.is_ground():
            raise EvaluationError(f"fact {a} is not ground")
        bucket = self._mutable_bucket(a.pred)
        if bucket is not None:
            check_arity(self.arities, a.pred, len(a.args))
        else:
            bucket = self._facts[a.pred] = set()
            self.arities = {**self.arities, a.pred: len(a.args)}
            sorts = {(a.pred, i): t.sort for i, t in enumerate(a.args)}
            if not sorts.items() <= self.signatures.items():
                self.signatures = {**self.signatures, **sorts}
        bucket.add(a)

    def retract(self, pred: str, *args: Any) -> bool:
        """Retract ``pred(args...)``; returns ``True`` if it was present."""
        return self.retract_atom(Atom(pred, tuple(to_term(v) for v in args)))

    def retract_atom(self, a: Atom) -> bool:
        bucket = self._facts.get(a.pred)
        if bucket is None or a not in bucket:
            return False
        bucket = self._mutable_bucket(a.pred)
        bucket.discard(a)
        if not bucket:
            del self._facts[a.pred]
            self.arities = dict(self.arities)   # snapshots hold the old
            del self.arities[a.pred]
        return True

    def apply_delta(
        self,
        adds: Iterable[Any] = (),
        dels: Iterable[Any] = (),
    ) -> tuple[frozenset[Atom], frozenset[Atom]]:
        """Batch update: the database becomes ``(db − dels) ∪ adds``.

        ``adds``/``dels`` accept :class:`~repro.core.atoms.Atom` objects or
        ``(pred, arg, ...)`` tuples of Python values.  Returns the **net**
        ``(added, removed)`` atom sets: a fact both deleted and re-asserted
        in one batch appears in neither.  A batch that adds a predicate at
        two arities, or at another than the facts held, is refused whole.
        """
        adds = [as_fact(spec) for spec in adds]
        arities = dict(self.arities)
        for a in adds:
            check_arity(arities, a.pred, len(a.args))
        removed: set[Atom] = set()
        added: set[Atom] = set()
        for spec in dels:
            a = as_fact(spec)
            if self.retract_atom(a):
                removed.add(a)
        for a in adds:
            if a not in self:
                self.add_atom(a)
                added.add(a)
        return frozenset(added - removed), frozenset(removed - added)

    def extend(self, pred: str, rows: Iterable[tuple]) -> None:
        """Bulk-load rows of Python values into one predicate."""
        for row in rows:
            self.add(pred, *row)

    def check_program(self, program: Program) -> None:
        """Refuse a program that names a predicate at another arity than
        the facts held (:class:`~repro.core.errors.ArityError`)."""
        arities = dict(self.arities)
        for pred, n in program.predicates().items():
            check_arity(arities, pred, n)

    def facts(self) -> Iterator[Atom]:
        for atoms in self._facts.values():
            yield from atoms

    def facts_of(self, pred: str) -> frozenset[Atom]:
        """The current fact atoms of one predicate."""
        return frozenset(self._facts.get(pred, ()))

    def relation(self, pred: str) -> set[tuple]:
        """The extension of a predicate as Python-value tuples."""
        return {
            tuple(from_term(t) for t in a.args)
            for a in self._facts.get(pred, ())
        }

    def predicates(self) -> set[str]:
        return set(self._facts)

    def __contains__(self, a: Atom) -> bool:
        return a in self._facts.get(a.pred, ())

    def __len__(self) -> int:
        return sum(len(s) for s in self._facts.values())

    def as_program(self) -> Program:
        """The database as a program of unit clauses."""
        return Program(tuple(fact(a) for a in sorted(
            self.facts(), key=atom_order_key)))

    @staticmethod
    def from_mapping(data: Mapping[str, Iterable[tuple]]) -> "Database":
        db = Database()
        for pred, rows in data.items():
            db.extend(pred, rows)
        return db
