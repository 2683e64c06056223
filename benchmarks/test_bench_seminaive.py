"""B2 — semi-naive fixpoint evaluation.

Transitive closure on chains and grids: many rounds of delta-pinned joins
(chains are the worst case for re-firing whole rules every round).  Also
includes a set-heavy workload (quantified rules), where the engine falls
back to change-detection re-evaluation — the honest cost of quantifiers
under semi-naive.
"""

import pytest

from repro import parse_program
from repro.engine import Database
from repro.workloads import chain_graph, grid_graph, set_database


TC = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
""")


def graph_db(edges):
    db = Database()
    for u, v in edges:
        db.add("e", u, v)
    return db


@pytest.mark.parametrize("n", [16, 32, 64])
def test_chain_closure(benchmark, evaluate, n):
    db = graph_db(chain_graph(n))
    result = benchmark(lambda: evaluate(TC, db))
    assert len(result.relation("t")) == n * (n + 1) // 2


@pytest.mark.parametrize("side", [4, 6])
def test_grid_closure(benchmark, evaluate, side):
    db = graph_db(grid_graph(side, side))
    result = benchmark(lambda: evaluate(TC, db))
    assert result.relation("t")


SETS = parse_program("""
disj(X, Y) :- s(X), s(Y), forall A in X (forall B in Y (A != B)).
chainable(X, Z) :- disj(X, Y), disj(Y, Z).
""")


def test_quantified_workload(benchmark, evaluate):
    db = set_database("s", 14, universe=18, max_size=4, seed=9)
    result = benchmark(lambda: evaluate(SETS, db))
    assert result.relation("chainable")
