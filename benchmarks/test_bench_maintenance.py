"""B-maint — incremental maintenance vs from-scratch recomputation.

The headline claim of the maintenance subsystem: absorbing a small EDB
delta through ``MaterializedModel.apply_delta`` beats re-running the
evaluator by an order of magnitude on the transitive-closure workload,
and stays ahead on the parts/cost roll-up (Example 6) under leaf
repricing churn.  ``test_single_fact_speedup`` enforces the ≥5× floor
from the issue's acceptance criteria; the ``benchmark`` cases record the
actual numbers in BENCH_results.json.

Deltas here are *churn pairs* (delete + re-insert of the same fact), so
every benchmark round starts and ends on the same model and rounds are
comparable; one reported round therefore times **two** maintenance calls.

The ``serving-program`` arm churns one edge of the program every server
benchmark serves (closure + a negation stratum + a grouping stratum,
behind per-commit snapshots) as shipped — those strata re-derive their
candidates — and, in timed runs only, with the size gate forced to zero
so they are recomputed per commit; ``test_serving_program_speedup_floor``
holds the ratio at ≥ 3×.  Record under the ``maintenance`` label::

    python benchmarks/run_benchmarks.py --label maintenance \\
        --files test_bench_maintenance.py
"""

import os
import time

import pytest

from repro import parse_program
from repro.engine import Database, Evaluator, MaterializedModel
from repro.engine.maintenance import VersionedModel
from repro.engine.setops import with_set_builtins
from repro.workloads import (
    CRASH_RECOVERY_PROGRAM,
    chain_graph,
    cost_churn,
    edge_churn,
    parts_database,
    parts_world,
    random_graph,
)

#: Arm -> the ``tests/paths.py`` path that forces it (``conftest.py``).
MODES = {"rederive": "default", "recompute": "recompute"}

TC = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
""")

PARTS = parse_program("""
item_cost(P, C) :- cost(P, C).
item_cost(P, C) :- obj_cost(P, C).
need(S) :- parts(P, S).
need(Y) :- need(Z), choose_min(X, Y, Z).
sum_costs({}, 0).
sum_costs(Z, K) :- need(Z), choose_min(P, Y, Z),
                   item_cost(P, C), sum_costs(Y, M), M + C = K.
obj_cost(P, C) :- parts(P, S), sum_costs(S, C).
""")


def graph_db(edges):
    db = Database()
    for u, v in edges:
        db.add("e", u, v)
    return db


def materialize(program, db):
    return MaterializedModel(program, db, builtins=with_set_builtins())


@pytest.mark.parametrize("n", [64, 96])
def test_tc_single_fact_delta(benchmark, n):
    """One deleted + re-inserted chain edge, maintained incrementally."""
    m = materialize(TC, graph_db(chain_graph(n)))
    tail = ("e", f"v{n-1}", f"v{n}")

    def churn():
        m.apply_delta(dels=[tail])
        m.apply_delta(adds=[tail])

    benchmark(churn)
    assert m.model.holds_str(f"t(v0, v{n})")
    assert m.last_report.strategy == "incremental"


@pytest.mark.parametrize("n", [64, 96])
def test_tc_recompute_baseline(benchmark, evaluate, n):
    """The from-scratch cost the maintenance path is measured against."""
    db = graph_db(chain_graph(n))
    result = benchmark(lambda: evaluate(TC, db))
    assert len(result.relation("t")) == n * (n + 1) // 2


def test_tc_random_graph_churn(benchmark):
    """Mixed insert/delete batches on a random graph, reverted per round.

    Every round applies one churn batch and its exact inverse, so the
    model always returns to the base state: the batches stay valid net
    changes no matter how many rounds pytest-benchmark runs, and one
    reported round times **two** genuine maintenance calls.
    """
    edges = random_graph(32, 90, seed=3)
    m = materialize(TC, graph_db(edges))
    batches = edge_churn(edges, n_batches=1, batch_size=1,
                         n_nodes=32, seed=11)
    batch = batches[0]

    def churn():
        fwd = m.apply_delta(adds=batch.adds, dels=batch.dels)
        back = m.apply_delta(adds=batch.dels, dels=batch.adds)
        assert fwd.strategy == back.strategy == "incremental"

    benchmark(churn)
    assert m.relation("t")


def test_tc_random_graph_recompute_baseline(benchmark, evaluate):
    """From-scratch cost of the random-graph workload above."""
    db = graph_db(random_graph(32, 90, seed=3))
    result = benchmark(lambda: evaluate(TC, db))
    assert result.relation("t")


def test_parts_cost_churn(benchmark):
    """Leaf repricing maintained through the Example 6 roll-up program.

    Reprice one leaf and revert it within each round (two maintenance
    calls), keeping every round identical and genuinely incremental.
    """
    world = parts_world(depth=3, fanout=2, seed=5)
    m = materialize(PARTS, parts_database(world))
    batch = cost_churn(world, n_batches=1, seed=7)[0]

    def reprice():
        fwd = m.apply_delta(adds=batch.adds, dels=batch.dels)
        back = m.apply_delta(adds=batch.dels, dels=batch.adds)
        assert fwd.strategy == back.strategy == "incremental"

    benchmark(reprice)
    assert m.relation("obj_cost")


def serving_churn(n_nodes=600, n_edges=360):
    """One-edge churn over the serving program, behind snapshots: returns
    ``(model, churn)`` where ``churn()`` inserts and deletes one absent
    edge (two commits, two published versions)."""
    db = graph_db(random_graph(n_nodes, n_edges, seed=1))
    for i in range(0, n_nodes, 3):
        db.add("n", f"v{i}")
    vm = VersionedModel(
        parse_program(CRASH_RECOVERY_PROGRAM), db,
        builtins=with_set_builtins(),
    )
    edge = ("e", "v1", f"v{n_nodes - 1}")
    assert edge[1:] not in vm.current.relation("e")

    def churn():
        vm.apply_delta(adds=[edge])
        vm.apply_delta(dels=[edge])

    churn()     # builds the index signatures the joins probe, once
    return vm, churn


def test_serving_program_churn(benchmark, mode):
    vm, churn = serving_churn()
    benchmark(churn)
    assert vm.last_report.stratum_plans[-1].plan == mode
    assert vm.current.relation("succ") and vm.current.relation("dead")


@pytest.mark.skipif(
    os.environ.get("SKIP_TIMING_ASSERTS") == "1",
    reason="wall-clock assertion disabled (coverage-instrumented CI job; "
           "the dedicated benchmarks job still enforces it)",
)
def test_serving_program_speedup_floor(speedups):
    """Re-deriving the negation and grouping strata from a one-edge delta
    is ≥ 3× faster than recomputing them (committed ``maintenance``
    label: see DESIGN.md, "Measured effect")."""
    _, small = serving_churn(600, 360)
    _, large = serving_churn(2000, 1200)
    measured = speedups({"fanout-sized": small, "mixed-sized": large})
    assert all(s >= 3.0 for s in measured.values()), (
        f"rederive under 3x over per-commit recompute: {measured}"
    )


@pytest.mark.skipif(
    os.environ.get("SKIP_TIMING_ASSERTS") == "1",
    reason="wall-clock assertion disabled (coverage-instrumented CI job; "
           "the dedicated benchmarks job still enforces it)",
)
def test_single_fact_speedup():
    """Acceptance floor: maintenance ≥5× faster than recomputation for
    single-fact deltas on the transitive-closure workload.

    Measured in-process back to back with min-of-k on both sides, so
    scheduler noise cancels; the observed ratio is ~12–18× (see
    BENCH_results.json), leaving ample margin above the asserted floor.
    """
    n = 128
    edges = chain_graph(n)
    db = graph_db(edges)
    builtins = with_set_builtins()

    # min-of-k on BOTH sides: scheduler noise inflates means, not minima,
    # and an asymmetric comparison could fail CI on an unrelated stall.
    recompute = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        Evaluator(TC, db, builtins=builtins).run()
        recompute = min(recompute, time.perf_counter() - t0)

    m = MaterializedModel(TC, db, builtins=builtins)
    tail = ("e", f"v{n-1}", f"v{n}")
    per_delta = float("inf")
    for _ in range(6):
        t0 = time.perf_counter()
        m.apply_delta(dels=[tail])
        m.apply_delta(adds=[tail])
        per_delta = min(per_delta, (time.perf_counter() - t0) / 2)

    assert m.model.holds_str(f"t(v0, v{n})")
    speedup = recompute / per_delta
    assert speedup >= 5.0, (
        f"maintenance speedup {speedup:.1f}x below the 5x acceptance floor "
        f"(recompute {recompute*1e3:.1f}ms, delta {per_delta*1e3:.1f}ms)"
    )
