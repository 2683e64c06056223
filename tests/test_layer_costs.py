"""The system layers cost what changes (DESIGN.md, "Maintenance
architecture", "Plan IR and executor", "Columnar execution", "Service
layer", "Durability", "Live subscription queries").  Counts, no clocks, in
the style of ``tests/test_fixpoint_rounds.py``: executor rows read
(``ExecStats.rows_in``), ``MaintenanceReport`` fields and call spies.
Where a claim is about growth it is asserted at two sizes.  The serving
program's one-edge commits are counted in ``tests/test_maintenance.py``.
"""

import functools
import random
import threading

import pytest

from repro import parse_program
from repro.engine import Database, Evaluator, MaterializedModel
from repro.engine.columnar import HAS_NUMPY
from repro.engine.evaluation import Solver
from repro.engine.setops import with_set_builtins
from repro.server import QueryService
from repro.storage import DurableModel
from repro.storage.wal import WriteAheadLog
from repro.workloads import (
    chain_graph,
    grid_graph,
    parts_database,
    parts_world,
    random_graph,
    random_sets,
)
from test_formula_rules import QUANT_RULES
from test_set_costs import PARTS_RULES

TC_SOURCE = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""
TC = parse_program(TC_SOURCE)


def edge_db(edges):
    db = Database()
    for u, v in edges:
        db.add("e", u, v)
    return db


# -- maintenance ---------------------------------------------------------------


@functools.cache
def chain_commit_costs(n):
    """A chain of ``n`` edges: (rows read evaluating it from scratch, atoms
    it derives, atoms moved by deleting and re-adding its last edge, rows
    that commit pair read, the pair's stratum plans)."""
    db = edge_db(chain_graph(n))
    scratch = Evaluator(TC, db).run().report
    m = MaterializedModel(TC, db)
    tail = ("e", f"v{n - 1}", f"v{n}")
    before = m.exec_stats.rows_in
    gone, back = m.apply_delta(dels=[tail]), m.apply_delta(adds=[tail])
    return (scratch.exec.rows_in, scratch.derived,
            gone.atoms_removed + back.atoms_added,
            m.exec_stats.rows_in - before,
            [p.plan for r in (gone, back) for p in r.stratum_plans])


@pytest.mark.parametrize("n", [64, 128])
def test_one_fact_commit_reads_what_it_moves(n):
    """Deleting and re-adding the last edge of a chain moves the n + 1
    closure atoms that end at its last node; DRed reads a few rows per
    moved atom."""
    _, _, moved, rows, plans = chain_commit_costs(n)
    assert moved == 2 * (n + 1)
    assert moved <= rows <= 6 * moved
    assert plans == ["dred", "dred"]


@pytest.mark.parametrize("n", [64, 128])
def test_recompute_reads_the_whole_closure(n):
    scratch, derived, _, _, _ = chain_commit_costs(n)
    assert derived == n * (n + 1) // 2
    assert scratch >= derived


def test_one_fact_commit_reads_a_fraction_of_a_recompute():
    """A recompute reads more than three times as many rows when the
    chain doubles; the commit's rows grow with what it moves, so it
    reads at least five times fewer at either length."""
    (small, *_, small_rows, _), (large, *_, large_rows, _) = (
        chain_commit_costs(64), chain_commit_costs(128)
    )
    assert large > 3 * small
    assert 5 * small_rows <= small and 5 * large_rows <= large


# -- durability ----------------------------------------------------------------


def test_durable_commit_appends_one_record_and_evaluates_nothing(
    tmp_path, monkeypatch
):
    records, runs = [], []
    append, run = WriteAheadLog.append_line, Evaluator.run
    monkeypatch.setattr(WriteAheadLog, "append_line", lambda self, v, line:
                        records.append(line) or append(self, v, line))
    monkeypatch.setattr(Evaluator, "run",
                        lambda self: runs.append(self) or run(self))
    sizes = []
    for n_nodes, n_edges in ((24, 60), (96, 240)):
        model = DurableModel(
            TC, tmp_path / str(n_nodes),
            edge_db(random_graph(n_nodes, n_edges, seed=3)),
            fsync="never", checkpoint_every=None,
        )
        records.clear()
        runs.clear()
        model.apply_delta(adds=[("e", "x", "y")])
        model.close()
        assert len(records) == 1 and runs == []
        sizes.append(len(records[0]))
    assert sizes[0] == sizes[1]


# -- plans and kernels -----------------------------------------------------------


def unnest_db():
    db = Database()
    for i, elems in enumerate(random_sets(300, 200, 12, 12)):
        db.add("r", f"x{i}", frozenset(f"e{j}" for j in elems))
    return db


PLAN_WORKLOADS = {
    "tc-chain-48": lambda: (TC, edge_db(chain_graph(48))),
    "tc-chain-64": lambda: (TC, edge_db(chain_graph(64))),
    "tc-grid": lambda: (TC, edge_db(grid_graph(6, 6))),
    "parts": lambda: (
        parse_program(PARTS_RULES),
        parts_database(parts_world(depth=3, fanout=2, seed=5)),
    ),
    "unnest": lambda: (
        parse_program("s(X, E) :- r(X, Y), E in Y."), unnest_db()
    ),
}


@pytest.mark.parametrize("name", PLAN_WORKLOADS)
def test_plans_run_every_body_without_the_tuple_solver(name, monkeypatch):
    solve, solves = Solver.solve, []
    monkeypatch.setattr(Solver, "solve", lambda self, *a, **k:
                        solves.append(a) or solve(self, *a, **k))
    program, db = PLAN_WORKLOADS[name]()
    report = Evaluator(program, db, builtins=with_set_builtins()).run().report
    assert solves == [] and report.stats.matches == 0
    assert 0 < report.derived
    assert report.exec.rows_in <= 20 * report.derived


@functools.cache
def join_db():
    db = Database()
    for pred, seed in (("r", 0), ("s", 1)):
        for u, v in random_graph(200, 2000, seed=seed):
            db.add(pred, u, v)
    return db


def selective_join():
    sx = Evaluator(
        parse_program("q(X) :- r(X, Y), s(Y, Z)."), join_db()
    ).run().report.exec
    assert sx.col_nodes > 0 and sx.row_nodes == 0
    assert sx.rows_encoded == sx.rows_decoded == 0


def multi_query():
    """The fourth rule's ``X = Z`` is a ``Compute`` binding ``Z``: a
    column copy, so no row of any rule is decoded or encoded."""
    mx = Evaluator(parse_program("""
        q1(X) :- r(X, Y), s(Y, Z).
        q2(Z) :- r(X, Y), s(Y, Z).
        q3(Y) :- r(X, Y), s(Y, X).
        q4(Y) :- r(X, Y), s(Y, Z), X = Z.
    """), join_db()).run().report.exec
    assert mx.col_nodes > 0 and mx.per_op["Compute"][0] == 1
    assert mx.row_nodes == 0
    assert mx.rows_encoded == mx.rows_decoded == 0


def random_closure():
    """Only the naive round's row-path scan of ``e`` is decoded: every
    head is stored as the ID columns it was made as."""
    edges = random_graph(160, 800, seed=1)
    tc = Evaluator(TC, edge_db(edges)).run()
    tx = tc.report.exec
    assert tx.col_nodes > tx.row_nodes and tx.rows_encoded == 0
    assert tx.rows_decoded == len(edges) <= tc.report.derived


@pytest.mark.skipif(not HAS_NUMPY, reason="counts observe the vector kernels")
@pytest.mark.parametrize("check", [selective_join, multi_query,
                                   random_closure],
                         ids=["join-select", "multi-query", "tc-random"])
def test_vector_kernels_keep_join_rows_in_id_space(check):
    """Every relation here clears the vector size gate.  Joins run their
    nodes columnar and cross the encode/decode boundary only where a
    node has no vector kernel."""
    check()


# -- the tuple solver ----------------------------------------------------------


def quant_family(seed):
    """The family of sets ``bench/inputs.sets_program(seed)`` gives
    Examples 1-3: three pairs of disjoint 3-sets with their unions, and
    one set across them, over a relabelled 16-element universe."""
    rng = random.Random(seed)
    label = rng.sample(range(16), 16)
    family = []
    for k in range(3):
        left = frozenset(label[5 * k:5 * k + 3])
        right = frozenset(label[5 * k + 3:5 * k + 6])
        family += [left, right, left | right]
    return family + [frozenset(label[1::5][:3])]


def test_closed_formulas_are_decided_not_searched(monkeypatch):
    """Once a quantified rule's ``s`` conjuncts bind its sets, each
    ``forall`` is closed: it is decided in one pass over its range, not
    unfolded and searched (which ranked every conjunct of the unfolding
    at each step: 14 541 rankings and 1 683 unfoldings per run)."""
    calls = {"_priority": 0, "_solve_forall": 0}
    for name in calls:
        method = getattr(Solver, name)

        def spy(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(Solver, name, spy)
    db = Database()
    for s in quant_family(1):
        db.add("s", s)
    model = Evaluator(
        parse_program(QUANT_RULES), db, builtins=with_set_builtins()
    ).run()
    assert len(model.interpretation) == 104
    assert calls["_solve_forall"] == 0
    assert calls["_priority"] < 3000


# -- serving -------------------------------------------------------------------


@functools.cache
def subscribed_dispatch_rows(n, k=100):
    """Dispatcher rows read (executor rows plus tuple-solver matches) per
    commit for ``k`` standing ``t(v_i, X)`` queries over a DAG of ``n``
    nodes whose one churned edge moves two answers; returns them with
    the total size of the answer sets."""
    rng = random.Random(7)
    edges = set(chain_graph(n - 1)) | {("v1", "sink")}
    while len(edges) < 3 * n:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((f"v{a}", f"v{b}"))
    svc = QueryService(TC_SOURCE, database=edge_db(sorted(edges)))
    try:
        session = svc.open_session()
        goals = [f"t(v{i}, X)" for i in range(k)]
        for goal in goals:
            assert session.subscribe(goal).ok
        subs, rows = svc.subscriptions, []
        for change in ({"dels": [("e", "v1", "sink")]},
                       {"adds": [("e", "v1", "sink")]}):
            read = subs._exec_stats.rows_in + subs._solver_stats.matches
            svc.apply_delta(**change)
            assert subs.wait_caught_up(svc.model.version)
            assert len(session.take_push_frames()) == 2
            rows.append(
                subs._exec_stats.rows_in + subs._solver_stats.matches - read
            )
        answers = sum(len(session.query(g).rows) for g in goals)
        return tuple(rows), answers
    finally:
        svc.shutdown()


def test_subscription_dispatch_does_not_grow_with_the_answer_sets():
    small, small_answers = subscribed_dispatch_rows(112)
    large, large_answers = subscribed_dispatch_rows(224)
    assert large_answers > 2 * small_answers
    for a, b in zip(small, large):
        assert 0 < a and abs(a - b) <= 16


@pytest.mark.parametrize("k", [100])
def test_subscription_dispatch_reads_a_fraction_of_the_answers(k):
    """Evaluating each standing query again and diffing reads at least
    every answer of every set; the delta path reads five times fewer
    rows per commit."""
    rows, answers = subscribed_dispatch_rows(112, k)
    assert all(5 * r <= answers for r in rows)


def test_a_read_answers_while_a_writer_holds_the_lock():
    svc = QueryService(TC_SOURCE)
    svc.apply_delta(adds=[("e", u, v) for u, v in chain_graph(8)])
    session = svc.open_session()
    held, release, answered = (threading.Event() for _ in range(3))

    def writer():
        with svc.model.lock:
            held.set()
            release.wait(30)

    def reader():
        if len(session.query("t(v0, X)").rows) == 8:
            answered.set()

    holder = threading.Thread(target=writer)
    read = threading.Thread(target=reader)
    holder.start()
    try:
        assert held.wait(10)
        read.start()
        assert answered.wait(10), "the read waited on the write lock"
    finally:
        release.set()
        for t in (holder, read):
            if t.ident is not None:
                t.join(10)
                assert not t.is_alive()
        svc.shutdown()
