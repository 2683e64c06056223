"""Snapshot/copy-on-write semantics (`Interpretation`, `Database`,
`VersionedModel`).

The contract the whole service layer rests on: a snapshot is an immutable
O(#predicates) view that stays **bit-identical** to the state at taking
time no matter what the writable original does afterwards — including
through the incrementally-maintained argument indexes, which are shared
until the first post-snapshot mutation of each predicate.
"""

from array import array
from unittest import mock

import pytest

from repro import parse_program
from repro.core import atom, const
from repro.core.errors import EvaluationError
from repro.core.terms import term_id
from repro.engine import Database
from repro.engine.maintenance import (
    MaterializedModel,
    ModelSnapshot,
    RetiredVersionError,
    VersionedModel,
)
from repro.semantics.interpretation import Interpretation, row_key


def a(pred, *names):
    return atom(pred, *[const(n) for n in names])


class TestInterpretationSnapshot:
    def test_snapshot_is_equal_then_diverges(self):
        interp = Interpretation([a("e", "x", "y"), a("p", "x")])
        snap = interp.snapshot()
        assert snap.frozen and not interp.frozen
        assert snap.sorted_atoms() == interp.sorted_atoms()
        interp.add(a("e", "y", "z"))
        interp.remove(a("p", "x"))
        assert snap.holds(a("p", "x"))
        assert not snap.holds(a("e", "y", "z"))
        assert len(snap) == 2 and len(interp) == 2
        assert a("e", "x", "y") in snap

    def test_frozen_refuses_mutation(self):
        snap = Interpretation([a("p", "x")]).snapshot()
        with pytest.raises(EvaluationError, match="frozen"):
            snap.add(a("p", "y"))
        with pytest.raises(EvaluationError, match="frozen"):
            snap.remove(a("p", "x"))

    def test_shared_indexes_stay_exact_after_cow(self):
        """An index built before the snapshot is shared; post-snapshot
        mutation must not corrupt the snapshot's view of it."""
        interp = Interpretation(
            [a("e", f"v{i}", f"v{i+1}") for i in range(10)]
        )
        # Build the position-0 index before snapshotting.
        before = list(interp.candidates("e", (0,), (const("v3"),)))
        snap = interp.snapshot()
        interp.remove(a("e", "v3", "v4"))
        interp.add(a("e", "v3", "v9"))
        assert list(snap.candidates("e", (0,), (const("v3"),))) == before
        # And the writer's own index reflects the mutation exactly.
        writer_now = {
            f.args[1].value
            for f in interp.candidates("e", (0,), (const("v3"),))
        }
        assert writer_now == {"v9"}

    def test_index_handover_keeps_both_sides_exact(self):
        """COW conformance for the bucket-level index hand-over: across a
        chain of snapshots and mutations, every built signature — on
        every snapshot and on the writer — answers exactly what a fresh
        linear scan of that side's facts answers, the side's ID columns
        and key map hold exactly its facts, and no side ever builds a
        signature again (``_built_index`` is the one build path)."""
        import repro.semantics.interpretation as module

        def scan(interp, positions):
            index = {}
            for f in interp.facts_of("e"):
                key = tuple(f.args[i] for i in positions)
                index.setdefault(key, set()).add(f)
            return index

        def assert_exact(interp):
            table = interp.facts_of("e")
            built = interp._indexes.get("e", {})
            assert set(built) >= {(0,), (1,)}
            for positions, index in built.items():
                want = scan(interp, positions)
                assert {
                    k: {table.atom(s) for s in b} for k, b in index.items()
                } == {row_key(map(term_id, k)): v for k, v in want.items()}
                for key, facts in want.items():
                    assert set(interp.candidates("e", positions, key)) \
                        == facts
            # ... and the ID columns and the key map are the side's facts.
            arity, n, bufs = interp.id_columns("e")
            cols = []
            for b in bufs:
                cols.append(array("q"))
                cols[-1].frombytes(b)
            rows = list(zip(*cols))
            assert n == len(table) and set(rows) == {
                tuple(map(term_id, f.args)) for f in table
            }
            assert table.keys == {row_key(r): s for s, r in enumerate(rows)}

        interp = Interpretation(
            [a("e", f"v{i % 5}", f"v{i}") for i in range(40)]
        )
        interp.candidates("e", (0,), (const("v1"),))
        interp.candidates("e", (1,), (const("v7"),))
        frozen = []
        with mock.patch.object(
            module, "_built_index", autospec=True,
            side_effect=module._built_index,
        ) as builds:
            for round_no in range(4):
                frozen.append((interp.snapshot(), interp.sorted_atoms()))
                interp.remove(a("e", f"v{round_no}", f"v{round_no}"))
                interp.add(a("e", f"v{round_no}", f"new{round_no}"))
                interp.add(a("e", "fresh", f"v{round_no}"))
                # A bucket that empties and comes back within one round.
                interp.remove(a("e", "fresh", f"v{round_no}"))
                interp.add(a("e", "fresh", f"v{round_no}"))
                # The bulk paths hand over like ``add``: one held atom is
                # skipped, four rows arrive as ID columns.
                assert interp.update(
                    [a("e", "v4", "v4"), a("e", "bulk", f"u{round_no}")]
                ) == [a("e", "bulk", f"u{round_no}")]
                interp.id_columns("e")
                rows = [
                    (const(f"bulk{round_no}"), const(f"v{i}"))
                    for i in range(1, 5)
                ]
                ids = [array("q", map(term_id, col)) for col in zip(*rows)]
                gained = interp.extend("e", 4, ids)
                assert gained.start == 42 + 6 * round_no
                assert gained.id_cols == ids
                assert [f.args for f in gained] == rows
                assert_exact(interp)
                for snap, atoms in frozen:
                    assert snap.sorted_atoms() == atoms
                    assert_exact(snap)
        assert builds.call_count == 0

    def test_lazy_index_on_snapshot_matches_scan(self):
        interp = Interpretation(
            [a("e", f"v{i % 4}", f"v{i}") for i in range(12)]
        )
        snap = interp.snapshot()
        interp.add(a("e", "v0", "extra"))
        got = {
            f.args[1].value
            for f in snap.candidates("e", (0,), (const("v0"),))
        }
        want = {
            f.args[1].value for f in snap if f.args[0].value == "v0"
        }
        assert got == want and "extra" not in got

    def test_snapshot_of_snapshot(self):
        snap = Interpretation([a("p", "x")]).snapshot()
        again = snap.snapshot()
        assert again.frozen and again.sorted_atoms() == snap.sorted_atoms()

    def test_copy_is_independent_and_mutable(self):
        interp = Interpretation([a("p", "x")])
        dup = interp.copy()
        dup.add(a("p", "y"))
        assert len(interp) == 1 and len(dup) == 2


class TestDatabaseSnapshot:
    def test_snapshot_isolated_from_writer(self):
        db = Database()
        db.add("e", "x", "y")
        snap = db.snapshot()
        db.add("e", "y", "z")
        db.retract("e", "x", "y")
        assert snap.relation("e") == {("x", "y")}
        assert db.relation("e") == {("y", "z")}

    def test_frozen_database_refuses_mutation(self):
        db = Database()
        db.add("e", "x", "y")
        snap = db.snapshot()
        with pytest.raises(EvaluationError, match="frozen"):
            snap.add("e", "u", "v")
        with pytest.raises(EvaluationError, match="frozen"):
            snap.retract("e", "x", "y")


TC = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
""")


def edges_db(edges):
    db = Database()
    for u, v in edges:
        db.add("e", u, v)
    return db


class TestVersionedModel:
    def test_versions_advance_and_snapshots_freeze(self):
        vm = VersionedModel(TC, edges_db([("a", "b")]))
        v1 = vm.current
        assert v1.version == 1 and v1.interpretation.frozen
        v2 = vm.add("e", "b", "c")
        assert v2.version == 2
        assert v2.holds(a("t", "a", "c"))
        assert not v1.holds(a("t", "a", "c"))       # old snapshot immutable
        assert vm.current is v2

    def test_noop_delta_does_not_publish(self):
        vm = VersionedModel(TC, edges_db([("a", "b")]))
        snap = vm.apply_delta(dels=[("e", "zz", "zz")])
        assert snap.version == 1 and vm.version == 1

    def test_retirement_and_retired_error(self):
        vm = VersionedModel(TC, edges_db([("a", "b")]), keep_versions=2)
        for i in range(4):
            vm.add("e", f"n{i}", f"m{i}")
        assert vm.version == 5
        assert vm.at(5) is vm.current
        with pytest.raises(RetiredVersionError):
            vm.at(1)
        assert vm.at(4).version == 4

    def test_pin_survives_retirement_until_release(self):
        vm = VersionedModel(TC, edges_db([("a", "b")]), keep_versions=1)
        pinned = vm.pin()                       # pins version 1
        for i in range(3):
            vm.add("e", f"n{i}", f"m{i}")
        assert vm.at(1) is pinned               # kept alive by the pin
        vm.release(1)
        with pytest.raises(RetiredVersionError):
            vm.at(1)

    def test_replace_program_publishes_over_same_database(self):
        vm = VersionedModel(TC, edges_db([("a", "b"), ("b", "c")]))
        snap = vm.replace_program(parse_program(
            "t(X, Y) :- e(X, Y).\n"
            "t(X, Z) :- e(X, Y), t(Y, Z).\n"
            "sym(X, Y) :- t(X, Y), t(Y, X).\n"
            "loop(X) :- e(X, X).\n"
        ))
        assert snap.version == 2
        assert snap.holds(a("t", "a", "c"))
        assert snap.relation("loop") == set()

    def test_maintained_equals_recompute_per_version(self):
        """Every published snapshot is exactly the model of its database."""
        from repro.engine import Evaluator

        vm = VersionedModel(TC, edges_db([("a", "b"), ("b", "c")]))
        snaps = [vm.current]
        snaps.append(vm.add("e", "c", "d"))
        snaps.append(vm.retract("e", "b", "c"))
        snaps.append(vm.apply_delta(
            adds=[("e", "b", "c")], dels=[("e", "a", "b")]
        ))
        for snap in snaps:
            scratch = Evaluator(TC, _thaw(snap.database)).run()
            assert (snap.interpretation.sorted_atoms()
                    == scratch.interpretation.sorted_atoms())


def _thaw(db: Database) -> Database:
    out = Database()
    for f in db.facts():
        out.add_atom(f)
    return out


def test_materialized_model_unaffected_by_snapshots():
    """MaterializedModel alone (no snapshots) must never pay COW costs —
    the maintenance benchmarks depend on it; this just pins behaviour."""
    m = MaterializedModel(TC, edges_db([("a", "b"), ("b", "c")]))
    m.apply_delta(adds=[("e", "c", "d")])
    assert m.last_report.strategy == "incremental"
    assert ("a", "d") in m.relation("t")
