"""Semi-naive rounds that stay in ID space (DESIGN.md, "Execution pipeline").

On the columnar path a round of ``Evaluator._fixpoint`` subtracts the head
relation inside the plan (``Distinct(Project(body)) ▷ head``), decodes only
the rows that survive, bulk-inserts them (``Interpretation.extend``) and
hands the next round that insert's row range as its delta.  Two kinds of
test, no clocks:

* **counts** on ``tc`` over ``random_graph(160, 800)`` — what crosses the
  plan boundary, and that ``_fixpoint`` itself probes nothing (these need
  the vector kernels and skip without numpy);
* **equivalence** on every forced path of ``tests/paths.py`` (and against
  ``T_P`` where it is defined) for the inputs whose rounds leave the
  common case: two applications reaching one new head, non-Datalog heads
  beside Datalog-shaped ones, seeds from a lower stratum, a mixed-arity
  head relation, re-closure after a removal dropped the column cache,
  sharded workers.
"""

import sys
from array import array

import pytest

from paths import MODEL_PATHS, forced, same_on_every_path, tp_model
from repro import parse_program
from repro.core import atom, const
from repro.core.terms import term_id
from repro.engine import Database, Evaluator, MaterializedModel
from repro.engine.columnar import HAS_NUMPY, make_executor
from repro.engine.ir import ExecStats
from repro.engine.planner import compile_rule, head_plan
from repro.engine.setops import with_set_builtins
from repro.semantics.interpretation import Interpretation
from repro.workloads import chain_graph, random_graph

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="counts observe the vector kernels"
)

TC = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
""")


def database(facts):
    db = Database()
    for spec in facts:
        db.add(spec[0], *spec[1:])
    return db


def edge_facts(edges):
    return [("e", u, v) for u, v in edges]


#: Dense enough that every round's delta clears the vector size gate.
DENSE = random_graph(24, 100, seed=2)


def closure(edges):
    reach = set(edges)
    while True:
        more = {(a, d) for a, b in reach for c, d in edges if b == c} - reach
        if not more:
            return reach
        reach |= more


def model_on_every_path(program, facts, paths=None):
    """The model's sorted atoms, asserted equal on every arm."""
    def run(options):
        ev = Evaluator(program, database(facts),
                       builtins=with_set_builtins(), options=options)
        try:
            return ev.run().interpretation.sorted_atoms()
        finally:
            ev.close()
    if paths is None:
        return same_on_every_path(run)
    return same_on_every_path(run, paths)


# ---------------------------------------------------------------------------
# Counts: what crosses the plan boundary
# ---------------------------------------------------------------------------


@needs_numpy
def test_tc_rounds_decode_only_new_rows(monkeypatch):
    edges = random_graph(160, 800, seed=1)
    probes = []
    contains = Interpretation.__contains__

    def counted(self, a):
        if sys._getframe(1).f_code.co_name == "_fixpoint":
            probes.append(a)
        return contains(self, a)

    monkeypatch.setattr(Interpretation, "__contains__", counted)
    model = Evaluator(TC, database(edge_facts(edges))).run()
    report = model.report
    assert report.derived == len(model.relation("t"))
    # Every head row that is decoded is a new atom.  The one other decode
    # is the first, naive round's scan of ``e`` for the recursive rule,
    # whose join then meets a still-empty ``t`` on the row path.
    assert report.exec.rows_decoded == report.derived + len(edges)
    # Deltas are row ranges of ``t``'s own ID columns: nothing a round
    # derived is encoded again.
    assert report.exec.rows_encoded <= len(edges)
    assert probes == []


class CountingNumpy:
    """Stands in for ``columnar._np``: forwards everything, notes the
    ``unique`` and ``argsort`` calls the radix kernels must not make."""

    def __init__(self, np):
        self.np = np
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.np, name)

    def unique(self, *args, **kwargs):
        self.calls.append("unique")
        return self.np.unique(*args, **kwargs)

    def argsort(self, *args, **kwargs):
        self.calls.append(f"argsort(kind={kwargs.get('kind')})")
        return self.np.argsort(*args, **kwargs)


#: ``report.exec`` of the closure below, recorded before the kernels
#: keyed on radix-packed int64 codes: the same plans, the same rows.
TC_EXEC = ExecStats(
    batches=51, rows_in=455968, rows_out=380644, col_nodes=41,
    row_nodes=10, rows_encoded=0, rows_decoded=26400,
    per_op={
        "Scan": [16, 32000, 32000], "Project": [9, 128800, 128800],
        "Distinct": [9, 128800, 66244], "AntiJoin": [9, 135096, 25600],
        "Join": [8, 31272, 128000],
    },
)


@needs_numpy
def test_tc_kernels_sort_once_and_gains_hash_once(monkeypatch):
    """Keys are radix-packed and sorted plainly — no ``np.unique`` hash
    table, no stable argsort — and ``_fixpoint`` hands its gains back as
    the lists the bulk inserts built, so each derived atom is hashed once
    (by the bucket it is inserted into) and never by ``_fixpoint``."""
    import numpy

    from repro.core.atoms import Atom
    from repro.engine import columnar

    counting = CountingNumpy(numpy)
    monkeypatch.setattr(columnar, "_np", counting)
    hashed = []                 # (atom, caller); holding the atom pins its id
    atom_hash = Atom.__hash__

    def counted(self):
        hashed.append((self, sys._getframe(1).f_code.co_name))
        return atom_hash(self)

    monkeypatch.setattr(Atom, "__hash__", counted)
    model = Evaluator(
        TC, database(edge_facts(random_graph(160, 800, seed=1)))
    ).run()
    monkeypatch.undo()
    assert counting.calls == []
    report = model.report
    assert report.exec == TC_EXEC
    derived = list(model.interpretation.facts_of("t"))
    assert report.derived == len(derived) == 25600
    times = {}
    for a, _caller in hashed:
        times[id(a)] = times.get(id(a), 0) + 1
    assert all(times.get(id(a)) == 1 for a in derived)
    assert [c for _a, c in hashed if c == "_fixpoint"] == []


@needs_numpy
def test_deep_recursion_rounds_cost_their_deltas():
    """The other side of the closure above: 201 rounds whose deltas clear
    the vector gate for 136 of them while ``t`` grows to a hundred times
    a delta.  A round must cost its delta — the head anti-join probes the
    relation row by row once sorting it would cost more than the rows,
    and the delta scan reads the IDs its slice was stored with — not the
    relation: sorting ``t`` every round would read 1.2 M relation rows
    here instead of the 23 k below."""
    edges = chain_graph(200)
    model = Evaluator(TC, database(edge_facts(edges))).run()
    report = model.report
    assert report.rounds == 201 and report.derived == 200 * 201 // 2
    assert report.exec.col_nodes > 4 * 136     # the vector path did run
    _batches, rows_in, rows_out = report.exec.per_op["AntiJoin"]
    assert rows_out == report.derived
    assert rows_in <= 3 * report.derived
    assert report.exec.rows_encoded <= len(edges)


@needs_numpy
def test_size_gate_reads_the_plans_own_delta():
    """One large and one small delta in a round: the plan pinned on the
    large one vectorizes, whatever the other predicate gained."""
    interp = Interpretation(
        [atom("e", const(f"v{i}"), const(f"v{i + 1}")) for i in range(100)]
        + [atom("t", const(f"v{i + 1}"), const(f"v{i + 2}"))
           for i in range(100)]
        + [atom("small", const("v0"))]
    )
    delta = {
        "t": frozenset(interp.facts_of("t")),
        "small": frozenset(interp.facts_of("small")),
    }
    node = head_plan(compile_rule(TC.clauses[1], {}, 1))
    ex = make_executor(interp, {}, delta=delta)
    rows, _ids = ex.shaped_batch(node, (0, 1))
    assert len(rows) == 100
    assert ex.stats.col_nodes > 0
    # ... and the plan that reads the small delta stays on the row path.
    reader = parse_program("r(X, Y) :- small(X), e(X, Y).").clauses[0]
    ex = make_executor(interp, {}, delta=delta)
    rows, _ids = ex.shaped_batch(
        head_plan(compile_rule(reader, {}, 0)), (0, 1)
    )
    assert len(rows) == 1
    assert ex.stats.col_nodes == 0


# ---------------------------------------------------------------------------
# Equivalence: rounds off the common case
# ---------------------------------------------------------------------------


def test_two_rules_reach_the_same_new_head_in_one_round():
    """``r`` gains the same atoms from two rules and from both pins of the
    doubly recursive one: the round's batches are merged before the one
    bulk insert."""
    program = parse_program("""
    r(X, Y) :- e(X, Y).
    r(X, Y) :- f(X, Y).
    r(X, Z) :- r(X, Y), r(Y, Z).
    """)
    small = edge_facts(chain_graph(5)) + [
        ("f", u, v) for u, v in chain_graph(5)[1:]
    ] + [("f", "v4", "v0")]
    got = model_on_every_path(program, small)
    assert got == tp_model(program, database(small)).sorted_atoms()
    # Above the size gate, so the default arm merges ID-carrying batches.
    big = edge_facts(DENSE) + [("f", u, v) for u, v in DENSE[20:]]
    got = model_on_every_path(program, big)
    assert len(got) == len(big) + len(closure(DENSE))


def test_merged_batches_in_a_deep_recursion():
    """Two linear rules feed ``t`` every round of a 201-round closure, so
    every delta is a slice stored without IDs; once ``t`` has outgrown a
    slice 16-fold the delta scan encodes the slice instead of bringing
    the whole relation's column cache up to date."""
    program = parse_program("""
    t(X, Y) :- e(X, Y).
    t(X, Y) :- f(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    t(X, Z) :- f(X, Y), t(Y, Z).
    """)
    facts = [("ef"[i % 2], u, v) for i, (u, v) in enumerate(chain_graph(200))]
    # The plan arms; provenance (solver only) takes a minute here and
    # never sees a slice.
    got = model_on_every_path(
        program, facts, ("default", "vector", "no-numpy")
    )
    t = {(a.args[0].value, a.args[1].value) for a in got if a.pred == "t"}
    assert t == {(f"v{i}", f"v{j}")
                 for i in range(201) for j in range(i + 1, 201)}
    if HAS_NUMPY:
        report = Evaluator(program, database(facts)).run().report
        assert report.rounds == 201
        assert 0 < report.exec.rows_encoded <= 2 * report.derived
        assert report.exec.per_op["AntiJoin"][1] <= 3 * report.derived


def test_non_datalog_heads_beside_a_datalog_shaped_one():
    """Rules for one predicate whose heads carry a constant or a
    structured argument are filtered atom by atom; their batches meet the
    plan-subtracted ones of the Datalog-shaped rule in the same round."""
    with_constant = parse_program("""
    p(X, Y) :- e(X, Y).
    p(X, k) :- e(X, Y).
    p(X, Z) :- p(X, Y), e(Y, Z).
    """)
    small = edge_facts(chain_graph(5)) + [("e", "v2", "k")]
    got = model_on_every_path(with_constant, small)
    assert got == tp_model(with_constant, database(small)).sorted_atoms()
    structured = parse_program("""
    p(X, Y) :- e(X, Y).
    p(X, f(Y)) :- e(X, Y).
    p(X, Z) :- p(X, Y), e(Y, Z).
    """)
    got = model_on_every_path(structured, edge_facts(DENSE))
    assert len(got) == 2 * len(DENSE) + len(closure(DENSE))


DEAD = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
dead(X) :- n(X), not t(X, X).
""")


def maintained_on_every_path(program, facts, batches):
    """``batches`` of ``(adds, dels)`` through a maintained model on every
    arm; after each the model must equal from-scratch evaluation."""
    def run(options):
        m = MaterializedModel(program, database(facts),
                              builtins=with_set_builtins(), options=options)
        live, models = set(facts), []
        for adds, dels in batches:
            m.apply_delta(adds=adds, dels=dels)
            live = (live - set(dels)) | set(adds)
            scratch = Evaluator(
                program, database(sorted(live)), builtins=with_set_builtins()
            ).run()
            assert (m.interpretation.sorted_atoms()
                    == scratch.interpretation.sorted_atoms())
            models.append(m.interpretation.sorted_atoms())
        return models
    return same_on_every_path(run, MODEL_PATHS)


def test_seeds_from_a_lower_stratum_then_row_ranges():
    """A bulk batch (above the vector and rederive gates) seeds ``t``'s
    re-closure with lower-stratum ``e`` atoms: the first round pins an
    atom set, the following ones the row ranges the bulk inserts return."""
    edges = edge_facts(random_graph(40, 160, seed=6))
    nodes = [("n", f"v{i}") for i in range(0, 40, 3)]
    maintained_on_every_path(
        DEAD, edges[:80] + nodes,
        [(edges[80:], []), ([("e", "v0", "v0")], [])],
    )


def test_reclosure_after_a_removal_dropped_the_column_cache():
    """DRed removes over-deleted ``t`` atoms (the column cache goes with
    them) and re-closes from the rescued ones in the same batch."""
    edges = edge_facts(DENSE)
    maintained_on_every_path(
        DEAD, edges + [("n", "v3"), ("n", "v20")],
        [([("e", "v3", "v3")], edges[:1]), (edges[:1], edges[5:8])],
    )


def test_mixed_arity_head_relation():
    """``p`` holds EDB facts of another arity, so it has no column cache:
    the head anti-join decides row by row and the bulk insert leaves the
    cache alone."""
    program = parse_program("""
    p(X, Y) :- e(X, Y).
    p(X, Z) :- p(X, Y), e(Y, Z).
    """)
    facts = edge_facts(DENSE) + [("p", "v0"), ("p", "v1", "v2")]
    got = model_on_every_path(program, facts)
    assert len(got) == len(DENSE) + len(
        closure(DENSE + [("v1", "v2")])
    ) + 1
    db = database(facts)
    interp = Evaluator(program, db).run().interpretation
    assert interp.id_columns("p") is None


def test_sharded_rounds():
    edges = random_graph(30, 80, seed=4)
    single = model_on_every_path(TC, edge_facts(edges), paths=("default",))
    for path in MODEL_PATHS:
        with forced(path, shards=2) as options:
            ev = Evaluator(TC, database(edge_facts(edges)), options=options)
            try:
                assert ev.run().interpretation.sorted_atoms() == single
                assert ev._coordinator is not None, "sharding gated off"
            finally:
                ev.close()


# ---------------------------------------------------------------------------
# The bulk insert against a loop of ``add``
# ---------------------------------------------------------------------------


def test_bulk_insert_equals_a_loop_of_add():
    def atoms(lo, hi):
        return [atom("e", const(f"v{i % 7}"), const(f"v{i}"))
                for i in range(lo, hi)]

    looped, bulk = Interpretation(), Interpretation()
    for interp in (looped, bulk):
        interp.update(atoms(0, 20))
        interp.candidates("e", (0,), (const("v1"),))
        interp.candidates("e", (1,), (const("v5"),))
        interp.candidates("e", (0, 1), (const("v1"), const("v8")))
        interp.id_columns("e")
    for a in atoms(20, 60):
        assert looped.add(a)
    gained = bulk.extend("e", [a.args for a in atoms(20, 60)])
    assert list(gained) == atoms(20, 60) and gained.start == 20
    # ``update`` skips what is held or repeated and reports the rest.
    again = atoms(50, 70)
    assert bulk.update(again + again) == atoms(60, 70)
    for a in atoms(60, 70):
        looped.add(a)
    assert bulk == looped and len(bulk) == len(looped) == 70
    assert list(bulk.facts_of("e")) == list(looped.facts_of("e"))
    assert set(bulk._indexes["e"]) == {(0,), (1,), (0, 1)}
    for positions, index in looped._indexes["e"].items():
        assert {k: list(b) for k, b in index.items()} == {
            k: list(b) for k, b in bulk._indexes["e"][positions].items()
        }
    assert bulk.id_columns("e") == looped.id_columns("e")
    # A rejected batch leaves everything as it was: rows already held or
    # repeated, ID columns that are not the rows' (shifted, short, floats).
    before = (list(bulk.facts_of("e")), len(bulk), bulk.id_columns("e"))
    fresh = [a.args for a in atoms(70, 74)]
    ids = [array("q", map(term_id, col)) for col in zip(*fresh)]
    for rows, id_cols, message in [
        ([atoms(0, 1)[0].args], None, "repeated or already held"),
        (fresh + [atoms(5, 6)[0].args], None, "repeated or already held"),
        (fresh + fresh[:1], None, "repeated or already held"),
        (fresh[::-1], ids, "ID columns do not match"),
        (fresh, [c[:3] for c in ids], "ID columns do not match"),
        (fresh, ids[:1], "ID columns do not match"),
        (fresh, [array("d", c) for c in ids], "ID columns do not match"),
    ]:
        with pytest.raises(Exception, match=message):
            bulk.extend("e", rows, id_cols)
        assert (list(bulk.facts_of("e")), len(bulk),
                bulk.id_columns("e")) == before
        for positions, index in looped._indexes["e"].items():
            assert {k: list(b) for k, b in index.items()} == {
                k: list(b)
                for k, b in bulk._indexes["e"][positions].items()
            }
    # A batch that is small beside the relation keeps its own IDs but
    # does not copy the relation's column cache to extend it: the cache
    # falls behind and catches up, exactly, when it is asked for.
    gained = bulk.extend("e", fresh, ids)
    assert gained.start == 70
    assert gained.id_cols == tuple(c.tobytes() for c in ids)
    assert bulk._columns["e"][1] == 70
    for a in atoms(70, 74):
        looped.add(a)
    assert bulk.id_columns("e") == looped.id_columns("e")
    assert bulk._columns["e"][1] == 74
    for bad in (atom("=", const("a"), const("a")),
                parse_program("p(X) :- q(X).").clauses[0].head):
        with pytest.raises(Exception) as one:
            Interpretation().add(bad)
        with pytest.raises(Exception) as many:
            Interpretation().update([atom("ok", const("a")), bad])
        assert str(one.value) == str(many.value)
