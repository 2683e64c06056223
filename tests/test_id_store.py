"""The ID store: relations are term-ID columns, atoms are built on demand.

Counts, not clocks (in the style of ``tests/test_set_costs.py``):

* evaluating a closure builds no atom for what it derives — the
  constructions during ``Evaluator.run()`` are a constant, whatever the
  graph's size;
* a retraction and the columns read after it encode no cell;
* a pinned snapshot's columns, facts and answers stay what they were
  through later commits and removals (a removal moves the writer's last
  row into the hole, never the snapshot's);
* an index a snapshot's reader builds is built by the writer once, at its
  next ``snapshot()``, and shared from then on — not rebuilt on every
  snapshot;
* a probe whose key binds every position is one key-map lookup, never a
  composite index;
* a written fact whose sort conflicts with the rules is refused, on every
  write path, while the same fact in the program text is typed with the
  rules and answered;
* a predicate has one arity: a fact, a staged line, a program extension
  or a replaced program that names one at another arity than the rules,
  the EDB or its own batch is refused with ``arity_conflict`` and changes
  nothing, on a recovered store too; a store written with two arities is
  refused by recovery.
"""

import sys

import pytest

from paths import PATHS, forced
from repro import parse_program
from repro.core import ArityError, const
from repro.core.atoms import Atom, atom_order_key
from repro.engine import Database, Evaluator
from repro.engine.maintenance import FactSortError, VersionedModel
from repro.semantics import interpretation
from repro.server import QueryService
from repro.storage import DurableModel, WriteAheadLog
from repro.storage.checkpoint import checkpoint_name, write_image
from repro.storage.codec import RecoveryError, encode_record
from repro.workloads import random_graph

TC = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
""")


def edge_db(edges):
    db = Database()
    for u, v in edges:
        db.add("e", u, v)
    return db


def no_encode(term):
    raise AssertionError(f"{term} encoded")


@pytest.fixture
def builds(monkeypatch):
    """Every argument-index build, as ``(pred, positions, on a frozen
    snapshot)``."""
    seen = []
    real = interpretation._built_index

    def spy(table, positions):
        owner = sys._getframe(1).f_locals["self"]
        seen.append((table.pred if table else None, positions, owner.frozen))
        return real(table, positions)

    monkeypatch.setattr(interpretation, "_built_index", spy)
    return seen


# ---------------------------------------------------------------------------
# Atoms are built on demand
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", [p for p in PATHS if p != "solver"])
def test_a_closure_builds_no_atom_for_what_it_derives(monkeypatch, path):
    """``Atom`` constructions during ``Evaluator.run()`` on ``tc`` are the
    same at two graph sizes: the EDB's atoms exist before the run, and no
    derived row becomes one.  (The tuple solver, forced on the remaining
    arm, reads atoms by design.)"""
    made = []
    init = Atom.__init__

    def counting(self, pred, args):
        made.append(pred)
        init(self, pred, args)

    counts = []
    for n_nodes, n_edges in [(40, 120), (120, 480)]:
        db = edge_db(random_graph(n_nodes, n_edges, seed=2))
        with forced(path) as options:
            evaluator = Evaluator(TC, db, options=options)
            made.clear()
            monkeypatch.setattr(Atom, "__init__", counting)
            model = evaluator.run()
            monkeypatch.setattr(Atom, "__init__", init)
        counts.append(len(made))
        assert len(model.relation("t")) > n_edges
    assert counts[0] == counts[1] < 40, counts


def test_a_retract_then_id_columns_encodes_no_cell(monkeypatch):
    model = Evaluator(TC, edge_db(random_graph(30, 90, seed=1))).run()
    interp = model.interpretation
    victims = list(interp.facts_of("t"))[::7]
    monkeypatch.setattr(interpretation, "_ID_OF", no_encode)
    for a in victims:
        assert interp.remove(a)
    arity, n, _bufs = interp.id_columns("t")
    assert (arity, n) == (2, len(interp.facts_of("t")))
    assert not any(a in interp for a in victims)


def test_a_pinned_snapshot_stays_identical_through_commits():
    vm = VersionedModel(TC, edge_db(random_graph(30, 90, seed=3)))
    snap = vm.current
    interp = snap.interpretation
    before = (
        interp.id_columns("t"), interp.id_columns("e"),
        list(interp.facts_of("t")),
        sorted(interp.facts_of("e"), key=atom_order_key),
        snap.relation("t"),
    )
    edges = sorted(snap.relation("e"))
    for u, v in edges[:10]:
        vm.retract("e", u, v)
    vm.add("e", "v0", "fresh")
    for u, v in edges[:5]:
        vm.add("e", u, v)
    assert vm.current.relation("t") != before[-1]
    assert (
        interp.id_columns("t"), interp.id_columns("e"),
        list(interp.facts_of("t")),
        sorted(interp.facts_of("e"), key=atom_order_key),
        snap.relation("t"),
    ) == before


# ---------------------------------------------------------------------------
# Indexes: the writer keeps what its readers build; full keys need none
# ---------------------------------------------------------------------------


def commit_under_subscription(goal, n_facts, n_commits):
    """``n_commits`` one-fact commits against one standing query; returns
    the service, the session and the subscription's last rows."""
    db = Database()
    for i in range(n_facts):
        db.add("e", f"a{i}", f"a{(i * 7 + 1) % n_facts}")
    svc = QueryService("t(X, Y) :- e(X, Y).", database=db)
    session = svc.open_session()
    assert session.subscribe(goal).ok
    for i in range(n_commits):
        svc.apply_delta(adds=[("e", f"a{i}", f"n{i}")])
        assert svc.subscriptions.wait_caught_up(svc.model.version)
    return svc, session


def test_an_index_a_reader_builds_is_built_once_by_the_writer(builds):
    svc, session = commit_under_subscription("t(X, Y), e(Y, Z)", 1000, 50)
    try:
        by_sig = {}
        for pred, positions, frozen in builds:
            side = by_sig.setdefault((pred, positions), [0, 0])
            side[frozen] += 1
        assert by_sig, "the standing query probed no index"
        # Once on the snapshot that first asked, once on the writer — not
        # once per commit.
        assert all(w <= 1 and f <= 1 for w, f in by_sig.values()), by_sig
        assert session.take_push_frames()
    finally:
        svc.shutdown()


def test_a_fully_bound_probe_builds_no_composite_index(builds):
    svc, session = commit_under_subscription("e(X, Y), t(X, Y)", 300, 20)
    try:
        assert session.execute("?- e(X, a5), t(X, a5).").ok
        assert [b for b in builds if len(b[1]) > 1] == []
        assert session.take_push_frames()
    finally:
        svc.shutdown()


def test_lookup_of_a_full_key_reads_the_key_map(builds):
    interp = Evaluator(TC, edge_db(random_graph(30, 90, seed=1))).run() \
        .interpretation
    held = next(iter(interp.facts_of("t")))
    builds.clear()
    assert interp.candidates("t", (0, 1), held.args) == [held]
    missing = (const("nowhere"), held.args[1])
    assert interp.candidates("t", (0, 1), missing) == []
    assert not interp.has_index("t", (0, 1)) and builds == []


# ---------------------------------------------------------------------------
# A written fact must have the sorts the rules read
# ---------------------------------------------------------------------------

RULES = "q(X) :- sf(X).\n"


class TestSortConflicts:
    def test_an_asserted_fact(self):
        with QueryService(RULES) as svc:
            s = svc.open_session()
            version = svc.model.version
            r = s.execute("+sf({a, b}).")
            assert not r.ok and r.code == "sort_conflict"
            assert svc.model.version == version
            assert s.execute("+sf(c).").data == {"applied": 1}
            assert s.execute("?- q(S).").data["rows"] == [{"S": "c"}]

    def test_a_staged_line(self):
        with QueryService(RULES) as svc:
            s = svc.open_session()
            version = svc.model.version
            assert s.execute(":begin").ok
            assert s.execute("+sf(c).").ok
            r = s.execute("+sf({a}).")
            assert not r.ok and r.code == "sort_conflict"
            assert svc.model.version == version
            assert s.execute(":commit").data == {"applied": 1}
            fresh = svc.open_session()
            assert fresh.execute("?- sf(S).").data["rows"] == [{"S": "c"}]

    def test_facts_added_through_extend_program(self):
        with QueryService(RULES) as svc:
            version = svc.model.version
            with pytest.raises(Exception, match="sort"):
                svc.extend_program("sf({a, b}).")
            assert svc.model.version == version
            assert svc.model.current.relation("sf") == set()

    def test_the_library_write_path(self):
        vm = VersionedModel(parse_program(RULES))
        version = vm.version
        with pytest.raises(FactSortError):
            vm.add("sf", frozenset({"a"}))
        assert vm.version == version

    def test_the_same_fact_in_the_program_text_is_answered(self):
        with QueryService(RULES + "sf({a, b}).\n") as svc:
            s = svc.open_session()
            rows = s.execute("?- q(S).").data["rows"]
            assert rows == [{"S": "{a, b}"}]
            assert s.execute("+sf({c}).").data == {"applied": 1}


# ---------------------------------------------------------------------------
# One arity per predicate
# ---------------------------------------------------------------------------

ARITY_RULES = "t(X, Y) :- e(X, Y).\n"


def model_text(s):
    return s.execute(":model").data


def wal_bytes(data_dir):
    return b"".join(p.read_bytes() for p in WriteAheadLog(data_dir).segments())


class TestArityConflicts:
    def probe_writes_are_refused(self, svc):
        """``+e(a).`` beside ``e/2`` facts and ``+t(c).`` into the binary
        head ``t`` change neither the version nor the model."""
        s = svc.open_session()
        version, model = svc.model.version, model_text(s)
        for line in ("+e(a).", "+t(c).", "+e(a, b, c)."):
            r = s.execute(line)
            assert not r.ok and r.code == "arity_conflict", line
        assert svc.model.version == version
        assert model_text(s) == model

    def test_the_probe_writes(self):
        with QueryService(ARITY_RULES) as svc:
            assert svc.open_session().execute("+e(a, b).").ok
            self.probe_writes_are_refused(svc)

    def test_a_staged_line(self):
        with QueryService(ARITY_RULES + "e(a, b).\n") as svc:
            s = svc.open_session()
            version = svc.model.version
            assert s.execute(":begin").ok
            assert s.execute("+e(c, d).").ok
            assert s.execute("+e(c).").code == "arity_conflict"
            # A predicate the store does not know yet takes the arity of
            # its first staged fact.
            assert s.execute("+n(c).").ok
            assert s.execute("+n(c, d).").code == "arity_conflict"
            assert svc.model.version == version
            assert s.execute(":commit").data == {"applied": 2}
            assert model_text(s) == (
                "e(a, b).\ne(c, d).\nn(c).\nt(a, b).\nt(c, d)."
            )

    def test_the_extension_probe(self):
        with QueryService("t(X) :- f(X).") as svc:
            s = svc.open_session()
            assert s.execute("+e(a, b).").ok
            version, model = svc.model.version, model_text(s)
            for text in ("q(X) :- e(X).", "e(c). q(X) :- f(X)."):
                with pytest.raises(ArityError, match="'e' used with arities"):
                    s.add_clause(text)
            assert svc.model.version == version
            assert model_text(s) == model
            assert svc.model.program == parse_program("t(X) :- f(X).")

    def test_a_program_replaced_under_the_edb(self):
        vm = VersionedModel(parse_program(ARITY_RULES + "e(a, b).\n"))
        version, rules = vm.version, vm.program
        with pytest.raises(ArityError):
            vm.replace_program(parse_program("t(X) :- e(X)."))
        assert (vm.version, vm.program) == (version, rules)
        assert vm.current.relation("t") == {("a", "b")}

    def test_the_library_write_path(self):
        vm = VersionedModel(parse_program(ARITY_RULES))
        version = vm.version
        for spec in (("e", "a"), ("t", "c")):
            with pytest.raises(ArityError):
                vm.add(*spec)
        with pytest.raises(ArityError, match="'n' used with arities 1 and 2"):
            vm.apply_delta(adds=[("n", "a"), ("n", "a", "b")])
        assert vm.version == version and len(vm.current.interpretation) == 0

    def test_a_batch_database(self):
        db = Database()
        db.add("p", "a")
        with pytest.raises(ArityError):
            db.add("p", "a", "b")
        with pytest.raises(ArityError):
            db.apply_delta(adds=[("q", "a"), ("p", "b", "c")])
        assert set(db.facts()) == {Atom("p", (const("a"),))}
        db.retract("p", "a")
        db.add("p", "a", "b")       # no fact holds ``p`` at arity 1 now
        with pytest.raises(ArityError):
            Evaluator(parse_program("r(X) :- p(X)."), db).run()

    def test_a_durable_program_replaced_under_the_edb_logs_nothing(
        self, tmp_path
    ):
        with DurableModel(parse_program(ARITY_RULES + "e(a, b).\n"),
                          tmp_path, fsync="never") as m:
            version, log = m.version, wal_bytes(tmp_path)
            with pytest.raises(ArityError):
                m.replace_program(parse_program("t(X) :- e(X)."))
            assert m.version == version and wal_bytes(tmp_path) == log

    def test_after_recovery(self, tmp_path):
        with QueryService(ARITY_RULES, data_dir=tmp_path) as svc:
            assert svc.open_session().execute("+e(a, b).").ok
        with QueryService(data_dir=tmp_path) as svc:
            self.probe_writes_are_refused(svc)

    def test_a_store_holding_two_arities_is_refused(self, tmp_path):
        """An image written before the store refused a second arity."""
        lines = [
            encode_record(kind, data).encode("ascii") + b"\n"
            for kind, data in (
                ("checkpoint-header", {
                    "version": 4, "epoch": 0, "mode": "lps",
                    "program": ARITY_RULES, "facts": 2,
                }),
                ("fact", {"atom": "e(a, b)"}),
                ("fact", {"atom": "e(c)"}),
                ("checkpoint-footer", {"facts": 2}),
            )
        ]
        write_image(tmp_path, 4, lines)
        with pytest.raises(RecoveryError, match="version 4: predicate 'e'"):
            DurableModel.recover(tmp_path)
        assert (tmp_path / checkpoint_name(4)).exists()    # not quarantined
