"""Tests for the Database and Python-value conversion layer."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
)

from repro.core import App, Const, EvaluationError, SetValue, setvalue, var_a
from repro.core.errors import ArityError, LPSError
from repro.engine import Database, from_term, to_term


class TestConversion:
    def test_scalars(self):
        assert to_term("a") == Const("a")
        assert to_term(7) == Const(7)
        assert from_term(Const("a")) == "a"
        assert from_term(Const(7)) == 7

    def test_bool(self):
        assert to_term(True) == Const("true")

    def test_sets(self):
        t = to_term({1, 2})
        assert isinstance(t, SetValue)
        assert from_term(t) == frozenset({1, 2})

    def test_nested_sets(self):
        t = to_term(frozenset({frozenset({1})}))
        assert from_term(t) == frozenset({frozenset({1})})

    def test_lists_become_sets(self):
        assert from_term(to_term([1, 1, 2])) == frozenset({1, 2})

    def test_terms_pass_through(self):
        c = Const("x")
        assert to_term(c) is c

    def test_non_ground_term_rejected(self):
        with pytest.raises(EvaluationError):
            to_term(var_a("x"))

    def test_unconvertible(self):
        with pytest.raises(EvaluationError):
            to_term(object())

    def test_app_to_python(self):
        from repro.core import app

        assert from_term(app("f", Const("a"))) == ("f", "a")


class TestDatabase:
    def test_add_and_relation(self):
        db = Database()
        db.add("e", "a", "b")
        db.add("e", "a", "c")
        assert db.relation("e") == {("a", "b"), ("a", "c")}
        assert len(db) == 2

    def test_extend(self):
        db = Database()
        db.extend("s", [({"x", "y"},), ({"z"},)])
        assert len(db.relation("s")) == 2

    def test_from_mapping(self):
        db = Database.from_mapping({"e": [("a", "b")], "n": [("a",)]})
        assert db.predicates() == {"e", "n"}

    def test_as_program(self):
        db = Database()
        db.add("p", "a")
        program = db.as_program()
        assert len(program.clauses) == 1
        assert program.clauses[0].is_fact

    def test_non_ground_atom_rejected(self):
        from repro.core import atom

        db = Database()
        with pytest.raises(EvaluationError):
            db.add_atom(atom("p", var_a("x")))

    def test_dedup(self):
        db = Database()
        db.add("p", "a")
        db.add("p", "a")
        assert len(db) == 1


# ---------------------------------------------------------------------------
# The store against a reference: random writes, snapshots taken between them
# ---------------------------------------------------------------------------

PREDS = ("p", "q")
VALUES = ("a", "b", frozenset({"a"}), frozenset())


def fact_specs():
    """A fact spec ``(pred, *args)`` of arity 1 or 2, so that arity
    conflicts are drawn as often as not."""
    return st.tuples(
        st.sampled_from(PREDS),
        st.lists(st.sampled_from(VALUES), min_size=1, max_size=2),
    ).map(lambda t: (t[0], *t[1]))


def key(spec):
    """A fact spec as the reference holds it."""
    return spec[0], tuple(spec[1:])


def held(atoms):
    """Atoms as the reference holds them."""
    return {(a.pred, tuple(map(from_term, a.args))) for a in atoms}


class DatabaseAgainstReference(RuleBasedStateMachine):
    """``Database`` writes and snapshots against a dict of sets: the net
    effect of every write, ``ArityError`` for a fact at a second arity
    (a batch refused whole), and every earlier snapshot — facts,
    ``arities``, ``signatures`` — as it was when taken, refusing writes."""

    def __init__(self):
        super().__init__()
        self.db = Database()
        self.ref: dict[str, set[tuple]] = {}
        self.signatures: dict[tuple[str, int], str] = {}
        self.snaps = []

    def facts(self):
        return {(p, row) for p, rows in self.ref.items() for row in rows}

    def arities(self):
        return {p: len(next(iter(rows))) for p, rows in self.ref.items()}

    def conflicts(self, adds):
        arities = self.arities()
        for pred, row in map(key, adds):
            if arities.setdefault(pred, len(row)) != len(row):
                return True
        return False

    def put(self, pred, row):
        if pred not in self.ref:
            self.ref[pred] = set()
            for i, v in enumerate(row):
                self.signatures[pred, i] = to_term(v).sort
        self.ref[pred].add(row)

    def take(self, pred, row):
        rows = self.ref.get(pred, set())
        if row not in rows:
            return False
        rows.discard(row)
        if not rows:
            del self.ref[pred]
        return True

    @rule(spec=fact_specs())
    def add(self, spec):
        if self.conflicts([spec]):
            with pytest.raises(ArityError):
                self.db.add(*spec)
            return
        self.db.add(*spec)
        self.put(*key(spec))

    @rule(spec=fact_specs())
    def retract(self, spec):
        assert self.db.retract(*spec) == self.take(*key(spec))

    @rule(
        adds=st.lists(fact_specs(), max_size=4),
        dels=st.lists(fact_specs(), max_size=4),
    )
    def apply_delta(self, adds, dels):
        if self.conflicts(adds):
            with pytest.raises(ArityError):
                self.db.apply_delta(adds, dels)
            return
        added, removed = self.db.apply_delta(adds, dels)
        gone = {k for k in map(key, dels) if self.take(*k)}
        new = set()
        for k in map(key, adds):
            if k not in self.facts():
                self.put(*k)
                new.add(k)
        assert held(added) == new - gone
        assert held(removed) == gone - new

    @rule()
    def snapshot(self):
        self.snaps.append((
            self.db.snapshot(), self.facts(), self.arities(),
            dict(self.signatures),
        ))

    @precondition(lambda self: self.snaps)
    @rule(data=st.data(), spec=fact_specs(), write=st.sampled_from(
        ("add", "retract", "apply_delta")
    ))
    def write_to_snapshot(self, data, spec, write):
        snap = data.draw(st.sampled_from(self.snaps))[0]
        with pytest.raises(LPSError):
            if write == "apply_delta":
                snap.apply_delta([spec], [spec])
            else:
                getattr(snap, write)(*spec)

    @invariant()
    def matches_reference(self):
        assert not self.db.frozen
        assert held(self.db.facts()) == self.facts()
        assert self.db.arities == self.arities()
        assert self.db.signatures == self.signatures
        assert len(self.db) == len(self.facts())
        assert self.db.predicates() == set(self.ref)
        for snap, facts_then, arities_then, signatures_then in self.snaps:
            assert snap.frozen
            assert held(snap.facts()) == facts_then
            assert snap.arities == arities_then
            assert snap.signatures == signatures_then


TestDatabaseAgainstReference = DatabaseAgainstReference.TestCase
TestDatabaseAgainstReference.settings = settings(
    max_examples=100, stateful_step_count=25
)
