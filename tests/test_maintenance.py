"""Incremental model maintenance (`repro.engine.maintenance`).

The contract under test: after any stream of insert/delete batches,
``MaterializedModel.apply_delta`` leaves the interpretation **identical**
to a from-scratch ``Evaluator.run()`` over the final database — for every
program the engine accepts, and on every forced path of the execution
pipeline (``tests/paths.py``).  Incrementality (counting / DRed /
per-stratum recompute) is a pure optimisation; these tests are the oracle
for that claim.

The regression classes target the classic maintenance traps:

* counting: an atom with a surviving alternative derivation must not die
  when one of its derivations does;
* DRed: transitive closure must re-derive overdeleted atoms reachable
  through surviving paths;
* stratified negation and set construction (grouping, ``union``, the
  Theorem-8 ``setof`` compilation): deletions can *grow* higher strata and
  must regroup rather than over-delete.
"""

import pytest
from hypothesis import given, settings, strategies as st

from paths import MODEL_PATHS, forced
from repro import parse_program
from repro.core import Program, atom, const, fact, var_a
from repro.core.atoms import pos
from repro.core.clauses import GroupingClause
from repro.engine import Database, Evaluator, MaterializedModel
from repro.engine.evaluation import EvalOptions
from repro.engine.setops import with_set_builtins
from repro.workloads import (
    chain_graph,
    cost_churn,
    edge_churn,
    parts_database,
    parts_world,
)

def fresh_eval(program, facts):
    db = Database()
    for spec in facts:
        db.add(spec[0], *spec[1:])
    return Evaluator(program, db, builtins=with_set_builtins()).run()


def assert_matches_scratch(materialized, program, facts):
    fresh = fresh_eval(program, facts)
    assert (materialized.interpretation.sorted_atoms()
            == fresh.interpretation.sorted_atoms())


def materialize(program, facts=(), options=None):
    db = Database()
    for spec in facts:
        db.add(spec[0], *spec[1:])
    return MaterializedModel(program, db, builtins=with_set_builtins(),
                             options=options)


# ---------------------------------------------------------------------------
# The property: apply_delta ≡ from-scratch evaluation, on random programs
# and random interleaved insert/delete batches.
# ---------------------------------------------------------------------------

#: Rule templates drawn from to make random programs: positive recursion,
#: builtins, and stratified negation at several depths.  Any subset is a
#: stratifiable program over the EDB predicates ``e/2`` and ``n/1``.
RULE_POOL = [
    "t(X, Y) :- e(X, Y).",
    "t(X, Z) :- e(X, Y), t(Y, Z).",
    "r(X) :- n(X), e(X, Y).",
    "p(X) :- e(X, X).",
    "q(X) :- t(X, Y), n(Y).",
    "v(X, Y) :- e(X, Y), X != Y.",
    "s(X) :- n(X), not t(X, X).",
    "u(X, Y) :- t(X, Y), not e(X, Y).",
    "w(X) :- r(X), not s(X).",
]

_CONSTS = ["a", "b", "c", "d"]
FACT_SPACE = (
    [("e", u, v) for u in _CONSTS for v in _CONSTS]
    + [("n", u) for u in _CONSTS]
)


@settings(max_examples=20, deadline=None)
@given(
    rule_idx=st.sets(
        st.integers(0, len(RULE_POOL) - 1), min_size=1, max_size=5
    ),
    initial=st.sets(st.sampled_from(FACT_SPACE), max_size=8),
    batches=st.lists(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(FACT_SPACE)),
            min_size=1, max_size=4,
        ),
        min_size=1, max_size=3,
    ),
)
def test_apply_delta_equals_recompute(rule_idx, initial, batches):
    program = parse_program(
        "\n".join(RULE_POOL[i] for i in sorted(rule_idx))
    )
    # The oracle: the shipped engine, from scratch, after every batch.
    stream, expected, facts = [], [], set(initial)
    for batch in batches:
        adds = [spec for is_add, spec in batch if is_add]
        dels = [spec for is_add, spec in batch if not is_add]
        facts = (facts - set(dels)) | set(adds)
        stream.append((adds, dels))
        expected.append(
            fresh_eval(program, sorted(facts)).interpretation.sorted_atoms()
        )
    for path in MODEL_PATHS:
        with forced(path) as options:
            m = materialize(program, sorted(initial), options)
            for (adds, dels), want in zip(stream, expected):
                m.apply_delta(adds=adds, dels=dels)
                assert m.interpretation.sorted_atoms() == want, path


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(4, 10),
    seed=st.integers(0, 1000),
)
def test_edge_churn_stream_matches_recompute(n, seed):
    """The workload generator's churn streams maintain exactly."""
    program = parse_program("""
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    """)
    edges = chain_graph(n)
    facts = {("e", u, v) for u, v in edges}
    batches = edge_churn(edges, n_batches=4, batch_size=2,
                         n_nodes=n + 1, seed=seed)
    m = materialize(program, sorted(facts))
    for batch in batches:
        facts = (facts - set(batch.dels)) | set(batch.adds)
        m.apply_delta(adds=batch.adds, dels=batch.dels)
        assert_matches_scratch(m, program, sorted(facts))


def test_parts_cost_churn_matches_recompute():
    """Leaf repricing on the paper's Example 6 roll-up program."""
    program = parse_program("""
    item_cost(P, C) :- cost(P, C).
    item_cost(P, C) :- obj_cost(P, C).
    need(S) :- parts(P, S).
    need(Y) :- need(Z), choose_min(X, Y, Z).
    sum_costs({}, 0).
    sum_costs(Z, K) :- need(Z), choose_min(P, Y, Z),
                       item_cost(P, C), sum_costs(Y, M), M + C = K.
    obj_cost(P, C) :- parts(P, S), sum_costs(S, C).
    """)
    world = parts_world(depth=3, fanout=2, seed=5)
    db = parts_database(world)
    m = MaterializedModel(program, db, builtins=with_set_builtins())
    facts = (
        {("parts", o, s) for o, s in world.parts.items()}
        | {("cost", l, c) for l, c in world.cost.items()}
    )
    for batch in cost_churn(world, n_batches=5, seed=7):
        facts = (facts - set(batch.dels)) | set(batch.adds)
        report = m.apply_delta(adds=batch.adds, dels=batch.dels)
        assert report.strategy == "incremental"
        assert_matches_scratch(m, program, sorted(facts))


# ---------------------------------------------------------------------------
# Counting and DRed regression traps.
# ---------------------------------------------------------------------------

TC = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
""")

DIAMOND = [("e", "a", "b"), ("e", "b", "d"), ("e", "a", "c"),
           ("e", "c", "d"), ("e", "d", "z")]


def test_dred_rederives_surviving_paths():
    """Deleting one diamond edge must not kill paths through the other."""
    m = materialize(TC, DIAMOND)
    report = m.apply_delta(dels=[("e", "b", "d")])
    assert report.strategy == "incremental"
    assert not m.model.holds_str("t(b, d)")
    # t(a, d) and t(a, z) were overdeletion candidates: both reach d only
    # through b or c, and the c-path survives.
    assert m.model.holds_str("t(a, d)")
    assert m.model.holds_str("t(a, z)")
    assert_matches_scratch(m, TC, [f for f in DIAMOND
                                   if f != ("e", "b", "d")])


def test_counting_keeps_alternative_derivations():
    program = parse_program("out(X) :- e(X, Y).")
    facts = [("e", "c", "d"), ("e", "c", "e"), ("e", "b", "d")]
    m = materialize(program, facts)
    report = m.apply_delta(dels=[("e", "c", "d")])
    assert report.strategy == "incremental"
    assert dict(report.stratum_plans)[
        max(dict(report.stratum_plans))] == "counting"
    assert m.model.holds_str("out(c)")      # survives via e(c, e)
    report = m.apply_delta(dels=[("e", "b", "d")])
    assert not m.model.holds_str("out(b)")  # last derivation gone
    assert_matches_scratch(m, program, [("e", "c", "e")])


def test_edb_fact_with_idb_derivation_survives_retraction():
    """A fact that is both given and derivable keeps its derived support."""
    program = parse_program("""
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    """)
    facts = [("e", "a", "b"), ("e", "b", "c"), ("t", "a", "c")]
    m = materialize(program, facts)
    m.apply_delta(dels=[("t", "a", "c")])   # EDB support gone, path remains
    assert m.model.holds_str("t(a, c)")
    assert_matches_scratch(m, program, facts[:2])


def test_program_fact_clauses_are_never_deleted():
    program = parse_program("""
    e(a, b).
    t(X, Y) :- e(X, Y).
    """)
    m = materialize(program, [("e", "b", "c")])
    m.apply_delta(dels=[("e", "a", "b")])   # only the (absent) EDB copy
    assert m.model.holds_str("e(a, b)")
    assert m.model.holds_str("t(a, b)")
    assert_matches_scratch(m, program, [("e", "b", "c")])


# ---------------------------------------------------------------------------
# Deletion under stratified negation and set construction.
# ---------------------------------------------------------------------------

def test_deletion_under_stratified_negation_grows_upper_stratum():
    program = parse_program("""
    out(X) :- e(X, Y).
    sink(X) :- n(X), not out(X).
    """)
    facts = [("e", "c", "d"), ("e", "c", "e"),
             ("n", "c"), ("n", "d")]
    m = materialize(program, facts)
    assert m.model.holds_str("sink(d)")
    assert not m.model.holds_str("sink(c)")
    # One of c's two derivations dies: out(c) survives, sink unchanged.
    m.apply_delta(dels=[("e", "c", "d")])
    assert not m.model.holds_str("sink(c)")
    # The second dies: out(c) gone, the negation now *adds* sink(c).
    report = m.apply_delta(dels=[("e", "c", "e")])
    assert report.strategy == "incremental"
    assert m.model.holds_str("sink(c)")
    assert_matches_scratch(m, program, [("n", "c"), ("n", "d")])


def test_deletion_with_negation_over_recursion():
    program = parse_program("""
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    u(X, Y) :- t(X, Y), not e(X, Y).
    """)
    facts = list(DIAMOND)
    m = materialize(program, facts)
    assert m.model.holds_str("u(a, d)")
    m.apply_delta(dels=[("e", "b", "d")], adds=[("e", "a", "d")])
    # t(a, d) still holds (via c) but is now also an edge: u(a, d) dies.
    assert m.model.holds_str("t(a, d)")
    assert not m.model.holds_str("u(a, d)")
    final = [f for f in facts if f != ("e", "b", "d")] + [("e", "a", "d")]
    assert_matches_scratch(m, program, final)


def test_deletion_under_grouping_regroups():
    x, y = var_a("x"), var_a("y")
    program = Program.of(
        GroupingClause(pred="bom", head_args=(x,), group_pos=1, group_var=y,
                       body=(pos(atom("comp", x, y)),)),
    )
    facts = [("comp", "a", "b"), ("comp", "a", "c"), ("comp", "b", "c")]
    m = materialize(program, facts)
    assert m.relation("bom") == {("a", frozenset({"b", "c"})),
                                 ("b", frozenset({"c"}))}
    m.apply_delta(dels=[("comp", "a", "c")])
    # The group must shrink, not vanish — and the stale set must go.
    assert m.relation("bom") == {("a", frozenset({"b"})),
                                 ("b", frozenset({"c"}))}
    assert_matches_scratch(m, program, facts[:1] + facts[2:])


def test_deletion_under_union_keeps_alternative_constructions():
    program = parse_program("both(Z) :- s1(X), s2(Y), union(X, Y, Z).")
    facts = [("s1", frozenset([1, 2])), ("s1", frozenset([1, 3])),
             ("s2", frozenset([3])), ("s2", frozenset([2]))]
    m = materialize(program, facts)
    assert ((frozenset({1, 2, 3}),) in m.relation("both"))
    report = m.apply_delta(dels=[("s1", frozenset([1, 2]))])
    assert report.strategy == "incremental"
    # {1,2,3} still constructible as {1,3} ∪ {2}.
    assert ((frozenset({1, 2, 3}),) in m.relation("both"))
    assert_matches_scratch(m, program, facts[1:])


def test_deletion_under_setof_compilation():
    from repro.transform import setof_program

    program = setof_program("a", "b")
    facts = [("a", "x"), ("a", "y")]
    m = materialize(program, facts)
    assert (frozenset({"x", "y"}),) in m.relation("b")
    m.apply_delta(dels=[("a", "y")])
    assert m.relation("b") == {(frozenset({"x"}),)}
    assert_matches_scratch(m, program, facts[:1])


# ---------------------------------------------------------------------------
# Gate behaviour and API surface.
# ---------------------------------------------------------------------------

def test_domain_dependent_program_falls_back_to_recompute():
    """A non-range-restricted rule ranges over the active domain: adding an
    unrelated constant changes its extension, so the maintainer must detect
    the fallback and recompute."""
    program = parse_program("all(X) :- flag(Y).")
    facts = [("flag", "on"), ("c", "z1")]
    m = materialize(program, facts)
    report = m.apply_delta(adds=[("c", "z2")])
    assert report.strategy == "recompute"
    assert m.model.holds_str("all(z2)")
    assert_matches_scratch(m, program, facts + [("c", "z2")])


def test_domain_consultation_during_maintenance_recomputes():
    """With no ``flag`` fact the initial run never reaches the domain; the
    delta join on the new ``flag`` fact does, and says so in its own words
    (not as a disabled ``allow_fallback``, which the caller left on)."""
    program = parse_program("all(X) :- flag(Y).")
    m = materialize(program, [("c", "z1")])
    report = m.apply_delta(adds=[("flag", "on")])
    assert report.strategy == "recompute"
    assert report.fallback_reason == "maintenance join needs the active domain"
    assert_matches_scratch(m, program, [("c", "z1"), ("flag", "on")])


def test_provenance_tracking_recomputes_and_stays_explainable():
    m = materialize(TC, [("e", "a", "b")],
                    EvalOptions(track_provenance=True))
    report = m.apply_delta(adds=[("e", "b", "c")])
    assert report.strategy == "recompute"
    tree = m.model.explain_str("t(a, c)")
    assert "e(b, c)" in tree


def test_builtin_and_special_facts_are_rejected():
    from repro.core.errors import EvaluationError

    m = materialize(TC, [("e", "a", "b")])
    with pytest.raises(EvaluationError):
        m.apply_delta(adds=[("plus", 1, 2, 3)])
    with pytest.raises(EvaluationError):
        m.apply_delta(dels=[("=", "a", "a")])


def test_noop_delta_reports_noop():
    m = materialize(TC, DIAMOND)
    report = m.apply_delta(adds=[DIAMOND[0]])       # already present
    assert report.strategy == "noop"
    report = m.apply_delta(dels=[("e", "q", "q")])  # never present
    assert report.strategy == "noop"
    # Delete-then-reassert of a present fact cancels out...
    report = m.apply_delta(adds=[DIAMOND[0]], dels=[DIAMOND[0]])
    assert report.strategy == "noop"
    # ...but for an absent fact the batch semantics (db − dels) ∪ adds
    # means the assert wins.
    report = m.apply_delta(adds=[("e", "x", "y")], dels=[("e", "x", "y")])
    assert report.net_added == 1
    assert m.model.holds_str("t(x, y)")
    m.apply_delta(dels=[("e", "x", "y")])


def test_add_retract_convenience_and_reports():
    m = materialize(TC, [("e", "a", "b")])
    report = m.add("e", "b", "c")
    assert report.net_added == 1 and report.atoms_added >= 2
    assert m.model.holds_str("t(a, c)")
    report = m.retract("e", "b", "c")
    assert report.net_removed == 1
    assert not m.model.holds_str("t(a, c)")
    assert_matches_scratch(m, TC, [("e", "a", "b")])


def test_maintained_database_is_the_source_of_truth():
    db = Database()
    db.add("e", "a", "b")
    m = MaterializedModel(TC, db, builtins=with_set_builtins())
    m.apply_delta(adds=[("e", "b", "c")], dels=[("e", "a", "b")])
    assert db.relation("e") == {("b", "c")}
    assert not m.model.holds_str("t(a, b)")
    assert m.model.holds_str("t(b, c)")
