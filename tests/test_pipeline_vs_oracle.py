"""The one execution pipeline against the paper's ``T_P`` — on every path.

The engine's argument indexes, the selectivity-driven join planner, the
compiled set-at-a-time plans and their columnar kernels are pure
optimisations of Kuper's semantics.  For the workload generators in
``repro.workloads.generators`` and for random set programs this file
checks the computed model against the brute-force
``semantics.fixpoint.least_fixpoint`` wherever ``T_P`` is defined
(positive clauses without built-ins; ``disj`` uses ``!=`` and is checked
against plain Python sets, the parts explosion against the generator's
analytic costs) — once per forced path of ``tests/paths.py``.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from paths import PATHS, forced, same_on_every_path, tp_model
from repro import parse_program
from repro.core import atom, const, setvalue, fact, Program
from repro.engine import Database, Evaluator
from repro.engine.columnar import HAS_NUMPY
from repro.engine.database import from_term
from repro.engine.setops import with_set_builtins
from repro.workloads import (
    chain_graph,
    cycle_graph,
    grid_graph,
    parts_database,
    parts_world,
    random_graph,
    random_sets,
    set_database,
)


def model_atoms(program, db=None, path=None):
    """The model's sorted atoms on one forced path — or, without one,
    on every path, asserted all the same."""
    def run(options):
        return Evaluator(
            program, db, builtins=with_set_builtins(), options=options
        ).run().interpretation.sorted_atoms()

    if path is None:
        return same_on_every_path(run)
    with forced(path) as options:
        return run(options)


def tp_atoms(program, db=None):
    return tp_model(program, db).sorted_atoms()


TC = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
""")


def graph_db(edges):
    db = Database()
    for u, v in edges:
        db.add("e", u, v)
    return db


GRAPHS = {
    "chain": chain_graph(12),     # T_P is cubic in the nodes per round
    "cycle": cycle_graph(12),
    "grid": grid_graph(4, 4),
    "random16": random_graph(16, 40, seed=3),
    "random10": random_graph(10, 25, seed=7),
}


@lru_cache(maxsize=None)
def closure_oracle(graph):
    return tp_atoms(TC, graph_db(GRAPHS[graph]))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("graph", GRAPHS)
def test_transitive_closure_workloads(graph, path):
    db = graph_db(GRAPHS[graph])
    assert model_atoms(TC, db, path) == closure_oracle(graph)


def test_every_arm_forces_its_path():
    """The arms of ``tests/paths.py`` reach the paths they name."""
    db = graph_db(chain_graph(6))
    reports = {}
    for path in PATHS:
        with forced(path) as options:
            reports[path] = Evaluator(TC, db, options=options).run().report
    if HAS_NUMPY:
        # Six edges are below the size gate: the shipped run stays on rows.
        assert reports["default"].exec.col_nodes == 0
        assert reports["default"].exec.row_nodes > 0
        assert reports["vector"].exec.col_nodes > 0
    # Without numpy the row executor never counts a node either way.
    assert reports["no-numpy"].exec.batches > 0
    assert reports["no-numpy"].exec.col_nodes == 0
    assert reports["no-numpy"].exec.row_nodes == 0
    assert reports["solver"].exec.batches == 0
    assert reports["solver"].stats.matches > 0
    assert reports["default"].stats.matches == 0


SETPREDS = parse_program("""
disj(X, Y) :- s(X), s(Y), forall A in X (forall B in Y (A != B)).
subset(X, Y) :- s(X), s(Y), forall A in X (A in Y).
over(X, Y) :- s(X), s(Y), A in X, A in Y.
""")
#: The part of it in ``T_P``'s fragment (``disj`` needs ``!=``).
POSITIVE_SETPREDS = parse_program("""
subset(X, Y) :- s(X), s(Y), forall A in X (A in Y).
over(X, Y) :- s(X), s(Y), A in X, A in Y.
""")


def check_set_predicates(facts: Program, path=None):
    """``facts`` holds ``s({...})`` unit clauses only."""
    got = model_atoms(Program.of(*facts.clauses, *SETPREDS.clauses), path=path)
    oracle = tp_atoms(Program.of(*facts.clauses, *POSITIVE_SETPREDS.clauses))
    for pred in ("subset", "over"):
        assert [a for a in got if a.pred == pred] \
            == [a for a in oracle if a.pred == pred]
    sets = [c.head.args[0] for c in facts.clauses]
    assert {a.args for a in got if a.pred == "disj"} == {
        (x, y) for x in sets for y in sets if not (x.elems & y.elems)
    }


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_set_predicate_workloads(seed, path):
    db = set_database("s", 10, universe=12, max_size=4, seed=seed)
    check_set_predicates(Program.of(*(fact(a) for a in db.facts())), path)


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


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("depth,fanout", [(2, 2), (3, 2)])
def test_parts_workload(depth, fanout, path):
    world = parts_world(depth=depth, fanout=fanout, seed=5)
    db = parts_database(world)
    # Built-ins and arithmetic are outside T_P: the oracle is the
    # generator's analytic cost of every object.
    derived = {
        from_term(a.args[0]): from_term(a.args[1])
        for a in model_atoms(PARTS, db, path) if a.pred == "obj_cost"
    }
    for obj, expected in world.expected.items():
        if obj in world.parts:
            assert derived[obj] == expected


@settings(max_examples=25)
@given(
    n_sets=st.integers(2, 8),
    universe=st.integers(3, 10),
    seed=st.integers(0, 1000),
)
def test_random_set_databases(n_sets, universe, seed):
    sets = random_sets(n_sets, universe, max_size=4, seed=seed)
    check_set_predicates(Program.of(*(
        fact(atom("s", setvalue([const(e) for e in s]))) for s in sets
    )))


# ---------------------------------------------------------------------------
# Index consistency under interleaved add/remove (incremental maintenance
# relies on `Interpretation.remove` keeping every built index exact).
# ---------------------------------------------------------------------------

from itertools import combinations

from repro.semantics.interpretation import Interpretation

_CS = [const(c) for c in ("a", "b", "c")]
ATOM_SPACE = (
    [atom("p", u, v) for u in _CS for v in _CS]
    + [atom("q", u) for u in _CS]
    + [atom("p3", u, v, w) for u in _CS for v in _CS for w in _CS][:10]
)


def _position_signatures(arity):
    positions = range(arity)
    return [
        tuple(c) for r in range(1, arity + 1)
        for c in combinations(positions, r)
    ]


def _assert_indexes_match_scan(interp):
    """Every (pred, positions, key) bucket equals a fresh linear scan."""
    for pred in {"p", "q", "p3"}:
        facts = list(interp.facts_of(pred))
        arities = {f.arity for f in facts} or {1}
        for arity in arities:
            for positions in _position_signatures(arity):
                keys = {tuple(f.args[i] for i in positions)
                        for f in facts if f.arity == arity}
                keys.add(tuple(_CS[0] for _ in positions))  # absent key
                for key in keys:
                    scan = [
                        f for f in facts
                        if f.arity == arity
                        and tuple(f.args[i] for i in positions) == key
                    ]
                    got = list(interp.candidates(pred, positions, key))
                    assert sorted(map(str, got)) == sorted(map(str, scan))
                    assert (interp.candidate_count(pred, positions, key)
                            == len(scan))


# ---------------------------------------------------------------------------
# Most-selective-position candidate choice (the skewed-relation regression:
# the solver must not commit to a fixed bound position when another bound
# position's index bucket is far smaller).
# ---------------------------------------------------------------------------

from repro.semantics.interpretation import Interpretation as _Interp


def _skewed_interpretation(n=200):
    """``r(hub, i)`` for many i (position 0 is useless) plus a handful of
    ``r(x_j, probe)`` rows (position 1 is highly selective)."""
    interp = _Interp()
    for i in range(n):
        interp.add(atom("r", const("hub"), const(f"v{i}")))
    for j in range(3):
        interp.add(atom("r", const(f"x{j}"), const("probe")))
    interp.add(atom("r", const("hub"), const("probe")))
    return interp


def test_candidates_choose_most_selective_bound_position():
    interp = _skewed_interpretation()
    pattern = atom("r", const("hub"), const("probe"))
    candidates = list(interp.candidates_for_pattern("r", pattern.args))
    # Position 0 ("hub") matches 201 facts; position 1 ("probe") matches 4.
    # A first-bound-position choice would scan the 201-row bucket.
    assert len(candidates) <= 4
    assert atom("r", const("hub"), const("probe")) in candidates
    # The estimate the join planner sees agrees with the chosen bucket.
    assert interp.estimate_for_pattern("r", pattern.args) <= 4


def test_skewed_pattern_models_agree():
    db = Database()
    for i in range(40):
        db.add("r", "hub", f"v{i}")
    for j in range(3):
        db.add("r", f"x{j}", "probe")
    program = parse_program("""
    hit(X) :- r(hub, Y), r(X, probe), r(X, Y).
    """)
    assert model_atoms(program, db) == tp_atoms(program, db)


@settings(max_examples=30)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, len(ATOM_SPACE) - 1)),
        min_size=1, max_size=50,
    ),
    probe_at=st.integers(0, 10),
)
def test_remove_keeps_indexes_consistent(ops, probe_at):
    """candidates()/candidate_count() == linear scan after add/remove churn.

    The ``probe_at`` query forces index construction mid-sequence, so later
    adds *and removes* exercise the incremental index-maintenance paths,
    not the lazy rebuild."""
    interp = Interpretation()
    live: set = set()
    for step, (is_add, idx) in enumerate(ops):
        a = ATOM_SPACE[idx]
        if is_add:
            assert interp.add(a) == (a not in live)
            live.add(a)
        else:
            assert interp.remove(a) == (a in live)
            live.discard(a)
        if step == probe_at:
            # Build several indexes now; they must stay exact afterwards.
            interp.candidates("p", (0,), (_CS[0],))
            interp.candidates("p", (0, 1), (_CS[0], _CS[1]))
            interp.candidates("q", (0,), (_CS[2],))
            interp.candidates("p3", (1,), (_CS[1],))
    assert set(interp.atoms()) == live
    assert len(interp) == len(live)
    _assert_indexes_match_scan(interp)
