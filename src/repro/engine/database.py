"""EDB storage and Python-value conversion.

A :class:`Database` is a set of ground facts — the extensional database the
paper's examples assume (``R(x, Y)`` in Example 4, ``parts``/``cost`` in
Example 6) — stored as the model is, in an
:class:`~repro.semantics.interpretation.Interpretation`.  Facts can be
loaded from plain Python values; the conversion rules are:

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
from ..core.clauses import fact
from ..core.errors import EvaluationError
from ..core.formulas import evaluate_ground_atom
from ..core.program import Program, check_arity
from ..core.substitution import Subst
from ..core.terms import App, Const, SetValue, Term, setvalue
from ..core.unify import match_atom
from ..semantics.interpretation import Interpretation


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


class FactReads:
    """The reads of a set of ground facts held in :attr:`interpretation`:
    one implementation for :class:`Database`, the evaluator's
    :class:`~repro.engine.evaluation.Model`, the
    :class:`~repro.engine.maintenance.MaterializedModel` and its served
    :class:`~repro.engine.maintenance.ModelSnapshot`."""

    interpretation: Interpretation

    def holds(self, a: Atom) -> bool:
        """Whether a ground atom holds (``=`` and ``in`` structurally)."""
        return evaluate_ground_atom(a, self.interpretation.holds)

    def query(self, pattern: Atom) -> Iterator[Subst]:
        """All substitutions matching a pattern atom, in deterministic order."""
        for f in sorted(
            self.interpretation.facts_of(pattern.pred), key=atom_order_key
        ):
            yield from match_atom(pattern, f)

    def relation(self, pred: str) -> set[tuple]:
        """A predicate's extension as Python-value tuples."""
        return {
            tuple(from_term(t) for t in a.args)
            for a in self.interpretation.facts_of(pred)
        }

    def pretty(self) -> str:
        return self.interpretation.pretty()

    def __len__(self) -> int:
        return len(self.interpretation)


class Database(FactReads):
    """The extensional database: ground facts, keyed by predicate, held
    in one :class:`~repro.semantics.interpretation.Interpretation` — the
    store the model's facts live in.  :meth:`snapshot` is that store's
    snapshot: immutable, O(#predicates), and a frozen database refuses
    every write.

    :attr:`signatures` maps ``(pred, position)`` to the sort there of a
    predicate's first fact: what text parsed against the EDB is typed
    by; :attr:`arities` gives each held predicate's arity, and a fact at
    another is refused.  Both are replaced, never mutated, and snapshots
    share them.
    """

    def __init__(self) -> None:
        self._rows = Interpretation()
        self.signatures: dict[tuple[str, int], str] = {}
        self.arities: dict[str, int] = {}

    @property
    def interpretation(self) -> Interpretation:
        """The fact store (read it; write through this database)."""
        return self._rows

    @property
    def frozen(self) -> bool:
        """Whether this database is an immutable snapshot."""
        return self._rows.frozen

    def snapshot(self) -> "Database":
        """An immutable O(#predicates) snapshot of the current facts."""
        snap = Database.__new__(Database)
        snap._rows = self._rows.snapshot()
        snap.signatures, snap.arities = self.signatures, self.arities
        return snap

    # -- mutation ----------------------------------------------------------------

    def add(self, pred: str, *args: Any) -> Atom:
        """Assert ``pred(args...)``, converting Python values to terms."""
        a = Atom(pred, tuple(to_term(v) for v in args))
        self.add_atom(a)
        return a

    def add_atom(self, a: Atom) -> bool:
        """Assert a ground atom; returns ``True`` if it was new."""
        new = a.pred not in self.arities
        if not new:
            check_arity(self.arities, a.pred, len(a.args))
        if not self._rows.add(a):
            return False
        if new:
            self.arities = {**self.arities, a.pred: len(a.args)}
            sorts = {(a.pred, i): t.sort for i, t in enumerate(a.args)}
            if not sorts.items() <= self.signatures.items():
                self.signatures = {**self.signatures, **sorts}
        return True

    def retract(self, pred: str, *args: Any) -> bool:
        """Retract ``pred(args...)``; returns ``True`` if it was present."""
        return self.retract_atom(Atom(pred, tuple(to_term(v) for v in args)))

    def retract_atom(self, a: Atom) -> bool:
        if not self._rows.remove(a):
            return False
        if not self._rows.facts_of(a.pred):
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
        removed = {a for a in map(as_fact, dels) if self.retract_atom(a)}
        added = {a for a in adds if self.add_atom(a)}
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
        return iter(self._rows)

    def facts_of(self, pred: str) -> frozenset[Atom]:
        """The current fact atoms of one predicate."""
        return self._rows.by_pred(pred)

    def predicates(self) -> set[str]:
        return self._rows.predicates()

    def __contains__(self, a: Atom) -> bool:
        return a in self._rows

    def as_program(self) -> Program:
        """The database as a program of unit clauses."""
        return Program(tuple(map(fact, self._rows.sorted_atoms())))

    @staticmethod
    def from_mapping(data: Mapping[str, Iterable[tuple]]) -> "Database":
        db = Database()
        for pred, rows in data.items():
            db.extend(pred, rows)
        return db
