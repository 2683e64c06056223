"""B-columnar — vectorized ID-column kernels vs the row executor.

The columnar executor (``engine/columnar.py``) must earn its keep where
set-at-a-time plans are join-bound: the same compiled plans evaluated as
shipped and with numpy masked (``make_executor`` then hands out the row
``Executor``; the ``row`` arms and the floor run in timed runs only), on

* a selective join projection (``q(X) :- r(X,Y), s(Y,Z)`` — the head
  projects away the join width, so the ID-side dedup collapses the
  output before any decode),
* a multi-query program (four selective rules over the same two
  relations — the relation columns are encoded once and reused),
* transitive closure of a dense random digraph (a few semi-naive rounds
  of delta-pinned joins, each delta a large share of the relation: the
  rounds stay on sorted ID columns),
* transitive closure of a 300-edge chain (301 rounds whose deltas clear
  the vector gate but shrink to 1/150 of the growing relation: the other
  side of the anti-join's kernel choice, where a round must cost its
  delta and the columnar arm can only match per-atom rounds),
* a wide-output join (``q(X, Z)``) where decode cost bounds the win —
  kept as coverage that output-heavy plans do not regress,
* repeated session queries against a warm query-service model (the
  relation columns are already cached, so this isolates plan execution
  from evaluator construction and bulk fact loading).

``test_columnar_speedup_floor`` enforces the acceptance criterion — the
columnar path at least 2× faster than the row executor on at least two
of the ``run()`` workloads.
Record results under the ``columnar`` label::

    python benchmarks/run_benchmarks.py --label columnar --files test_bench_columnar.py
"""

import random

import pytest

from repro import parse_program
from repro.engine import Database, Evaluator
from repro.engine.columnar import HAS_NUMPY
from repro.engine.setops import with_set_builtins
from repro.workloads import chain_graph

#: Arm -> the ``tests/paths.py`` path that forces it (``conftest.py``).
MODES = {"columnar": "default", "row": "no-numpy"}

JOIN_SELECT = parse_program("q(X) :- r(X, Y), s(Y, Z).")
JOIN_WIDE = parse_program("q(X, Z) :- r(X, Y), s(Y, Z).")
MULTI = parse_program("""
q1(X) :- r(X, Y), s(Y, Z).
q2(Z) :- r(X, Y), s(Y, Z).
q3(Y) :- r(X, Y), s(Y, X).
q4(Y) :- r(X, Y), s(Y, Z), X = Z.
""")
TC = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
""")


def join_db(n, keys, seed=0):
    rng = random.Random(seed)
    db = Database()
    for _ in range(n):
        db.add("r", f"a{rng.randrange(keys)}", f"b{rng.randrange(keys)}")
        db.add("s", f"b{rng.randrange(keys)}", f"c{rng.randrange(keys)}")
    return db


def rand_graph_db(n_nodes, n_edges, seed=2):
    rng = random.Random(seed)
    db = Database()
    for _ in range(n_edges):
        db.add("e", f"n{rng.randrange(n_nodes)}", f"n{rng.randrange(n_nodes)}")
    return db


def run(program, db):
    return Evaluator(program, db, builtins=with_set_builtins()).run()


SERVER_QUERIES = [
    "r(X, Y), s(Y, X)",
    "r(X, Y), s(Y, Z), u(Z, X)",
]


def triple_db(n, keys, seed=1):
    rng = random.Random(seed)
    db = Database()
    for _ in range(n):
        db.add("r", f"k{rng.randrange(keys)}", f"k{rng.randrange(keys)}")
        db.add("s", f"k{rng.randrange(keys)}", f"k{rng.randrange(keys)}")
        db.add("u", f"k{rng.randrange(keys)}", f"k{rng.randrange(keys)}")
    return db


def open_service(db):
    from repro.server import QueryService

    svc = QueryService("p(a) :- r(a, a).", database=db)
    session = svc.open_session()
    for q in SERVER_QUERIES:  # warm the model's relation columns
        session.query(q)
    return svc, session


def test_join_select(benchmark, mode):
    db = join_db(20000, 2000)
    result = benchmark(lambda: run(JOIN_SELECT, db))
    assert result.relation("q")


def test_join_wide(benchmark, mode):
    db = join_db(12000, 1500)
    result = benchmark(lambda: run(JOIN_WIDE, db))
    assert result.relation("q")


def test_multi_query(benchmark, mode):
    db = join_db(20000, 2000)
    result = benchmark(lambda: run(MULTI, db))
    assert result.relation("q1") and result.relation("q2")


def test_tc_random(benchmark, mode):
    db = rand_graph_db(350, 1200)
    result = benchmark(lambda: run(TC, db))
    assert result.relation("t")


def test_tc_chain(benchmark, mode):
    db = Database()
    for u, v in chain_graph(300):
        db.add("e", u, v)
    result = benchmark(lambda: run(TC, db))
    assert len(result.relation("t")) == 300 * 301 // 2


def test_server_queries(benchmark, mode):
    svc, session = open_service(triple_db(20000, 1000))
    try:
        result = benchmark(
            lambda: [len(session.query(q).rows) for q in SERVER_QUERIES]
        )
        assert all(result)
    finally:
        svc.shutdown()


@pytest.mark.skipif(not HAS_NUMPY, reason="columnar kernels need numpy")
def test_columnar_speedup_floor(speedups):
    """Acceptance floor: ≥2× over the row executor on ≥2 workloads."""
    join, graph = join_db(20000, 2000), rand_graph_db(350, 1200)
    measured = speedups({
        "join-select": lambda: run(JOIN_SELECT, join),
        "multi-query": lambda: run(MULTI, join),
        "tc-random": lambda: run(TC, graph),
    })
    assert sum(s >= 2.0 for s in measured.values()) >= 2, (
        "columnar executor beat the row executor 2x on fewer than two "
        f"workloads: {measured}"
    )
