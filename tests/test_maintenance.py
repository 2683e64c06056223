"""Incremental model maintenance (`repro.engine.maintenance`).

The contract under test: after any stream of insert/delete batches,
``MaterializedModel.apply_delta`` leaves the interpretation **identical**
to a from-scratch ``Evaluator.run()`` over the final database — for every
program the engine accepts, and on every forced path of the execution
pipeline (``tests/paths.py``).  Incrementality (DRed / rederive /
per-stratum recompute) is a pure optimisation; these tests are the oracle
for that claim.

The regression classes target the classic maintenance traps:

* counting: an atom with a surviving alternative derivation must not die
  when one of its derivations does (a nonrecursive stratum's probe must
  find the survivor);
* DRed: transitive closure must re-derive overdeleted atoms reachable
  through surviving paths;
* stratified negation and set construction (grouping, ``union``, the
  Theorem-8 ``setof`` compilation): deletions can *grow* higher strata and
  must regroup rather than over-delete;
* rederive: the candidate set must reach every head a mixed batch can
  move (through positive *and* negated occurrences), a group must be
  replaced or dropped whole, base support must survive, and the work must
  be bounded by the change, not by the model.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.evaluation as evaluation
import repro.engine.maintenance as maintenance
import repro.semantics.interpretation as interpretation
from paths import PATHS, forced, same_on_every_path
from repro import parse_program
from repro.core import Program, atom, const, fact, var_a
from repro.core.atoms import pos
from repro.core.clauses import GroupingClause
from repro.engine import Database, Evaluator, MaterializedModel
from repro.engine.evaluation import EvalOptions
from repro.engine.maintenance import VersionedModel
from repro.engine.stratify import stratify
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

def fresh_eval(program, facts):
    db = Database()
    for spec in facts:
        db.add(spec[0], *spec[1:])
    return Evaluator(program, db, builtins=with_set_builtins()).run()


def assert_matches_scratch(materialized, program, facts):
    fresh = fresh_eval(program, facts)
    assert (materialized.interpretation.sorted_atoms()
            == fresh.interpretation.sorted_atoms())


def materialize(program, facts=()):
    db = Database()
    for spec in facts:
        db.add(spec[0], *spec[1:])
    return MaterializedModel(program, db, builtins=with_set_builtins())


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
    for path in PATHS:
        with forced(path):
            m = materialize(program, sorted(initial))
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
    assert max(report.stratum_plans).plan == "rederive"   # highest stratum
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


def test_program_fact_clauses_are_retracted_like_edb_facts():
    program = parse_program("""
    e(a, b).
    t(X, Y) :- e(X, Y).
    """)
    m = materialize(program, [("e", "b", "c")])
    report = m.apply_delta(dels=[("e", "a", "b")])   # a file fact is data
    assert report.net_removed == 1
    assert not m.model.holds_str("e(a, b)")
    assert not m.model.holds_str("t(a, b)")
    assert_matches_scratch(m, program.rules(), [("e", "b", "c")])


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
# The rederive plan: nonrecursive negation and grouping strata.
# ---------------------------------------------------------------------------

def assert_changes_are_the_diff(report, before, after):
    """The emitted ``ModelChanges`` are exactly the snapshot diff."""
    adds = {a for s in report.changes.adds.values() for a in s}
    dels = {a for s in report.changes.dels.values() for a in s}
    assert adds == after - before and dels == before - after


def maintained_on_every_path(program, facts, batches, plan="rederive"):
    """Run ``batches`` of ``(adds, dels)`` through a maintained model on
    every arm.  After each batch the model must equal from-scratch
    evaluation, the reported changes must equal the snapshot diff, and a
    stratum must have taken ``plan``; returns the models, batch by batch."""
    def run(_options):
        m = materialize(program, facts)
        live, models = set(facts), []
        for adds, dels in batches:
            before = set(m.interpretation.atoms())
            report = m.apply_delta(adds=adds, dels=dels)
            live = (live - set(dels)) | set(adds)
            assert report.strategy == "incremental"
            assert plan in [sp.plan for sp in report.stratum_plans]
            assert_matches_scratch(m, program, list(live))
            assert_changes_are_the_diff(
                report, before, set(m.interpretation.atoms())
            )
            models.append([str(a) for a in m.interpretation.sorted_atoms()])
        return models
    return same_on_every_path(run)


DEAD = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
dead(X) :- n(X), not t(X, X).
""")

SUCC = parse_program("succ(X, <Y>) :- e(X, Y).")

SINK = parse_program("sink(X) :- n(X), not bad(X).")


def test_rederive_deletion_below_grows_the_stratum():
    facts = [("e", "a", "b"), ("e", "b", "a"), ("n", "a"), ("n", "c")]
    (model,) = maintained_on_every_path(
        DEAD, facts, [([], [("e", "b", "a")])]
    )
    # The cycle through a is gone: t(a, a) left, so dead(a) *appeared*.
    assert "dead(a)" in model and "dead(c)" in model
    assert "t(a, a)" not in model


def test_rederive_group_that_empties_disappears():
    facts = [("e", "a", "b"), ("e", "a", "c"), ("e", "b", "c")]
    (model,) = maintained_on_every_path(
        SUCC, facts, [([], [("e", "b", "c")])]
    )
    assert "succ(a, {b, c})" in model
    assert not any(a.startswith("succ(b") for a in model)


def test_rederive_add_and_delete_into_one_group_in_one_batch():
    facts = [("e", "a", "b"), ("e", "a", "c")]
    (model,) = maintained_on_every_path(
        SUCC, facts, [([("e", "a", "d")], [("e", "a", "b")])]
    )
    # One set atom replaced by one set atom; the stale one is gone.
    assert [a for a in model if a.startswith("succ")] == ["succ(a, {c, d})"]


def test_rederive_negated_atom_gained_and_lost_in_one_batch():
    program = parse_program("""
    out(X) :- e(X, Y).
    sink(X) :- n(X), not out(X).
    """)
    facts = [("e", "c", "d"), ("n", "c"), ("n", "d")]
    # out(c) loses its only derivation and gains another: net zero below,
    # while n(z) makes sure the negation stratum is maintained at all.
    first, second = maintained_on_every_path(
        program, facts,
        [([("e", "c", "e"), ("n", "z")], [("e", "c", "d")]),
         ([("n", "y")], [])],
    )
    assert "sink(c)" not in first and "sink(z)" in first
    assert "sink(y)" in second


def test_rederive_positive_and_negated_deltas_hit_one_rule():
    facts = [("n", "a"), ("bad", "a"), ("n", "b")]
    one, two, three = maintained_on_every_path(
        SINK, facts,
        [
            # Both occurrences gain the same constant: no sink(c).
            ([("n", "c"), ("bad", "c")], []),
            # One candidate through each occurrence: n(d)+ and bad(a)-.
            ([("n", "d")], [("bad", "a")]),
            # Both occurrences lose b / gain it: sink(b) must go.
            ([("bad", "b")], [("n", "a")]),
        ],
    )
    assert [a for a in one if a.startswith("sink")] == ["sink(b)"]
    assert [a for a in two if a.startswith("sink")] == \
        ["sink(a)", "sink(b)", "sink(d)"]
    assert [a for a in three if a.startswith("sink")] == ["sink(d)"]


def test_rederive_base_support_survives():
    """An atom that is both derived and an asserted EDB fact stays until
    both supports are gone — for plain heads and for grouped sets."""
    facts = [("n", "a"), ("sink", "a")]
    one, two = maintained_on_every_path(
        SINK, facts,
        [([("bad", "a")], []), ([], [("sink", "a")])],
    )
    assert "sink(a)" in one and "sink(a)" not in two

    b, z = frozenset({"b"}), frozenset({"z"})
    facts = [("e", "a", "b"), ("succ", "a", b), ("succ", "a", z)]
    one, two, three = maintained_on_every_path(
        SUCC, facts,
        [
            ([], [("e", "a", "b")]),            # the group empties
            ([("e", "a", "c")], []),            # and comes back different
            ([], [("succ", "a", b), ("succ", "a", z)]),
        ],
    )
    assert [a for a in one if a.startswith("succ")] == \
        ["succ(a, {b})", "succ(a, {z})"]
    assert [a for a in two if a.startswith("succ")] == \
        ["succ(a, {b})", "succ(a, {c})", "succ(a, {z})"]
    assert [a for a in three if a.startswith("succ")] == ["succ(a, {c})"]


def test_rederive_grouping_beside_a_plain_rule_for_the_same_predicate():
    program = parse_program("""
    succ(X, <Y>) :- e(X, Y).
    succ(X, S) :- fixed(X, S).
    """)
    b = frozenset({"b"})
    facts = [("e", "a", "b"), ("fixed", "a", b)]
    one, two = maintained_on_every_path(
        program, facts,
        [([], [("e", "a", "b")]), ([], [("fixed", "a", b)])],
    )
    assert "succ(a, {b})" in one
    assert not any(a.startswith("succ") for a in two)


def test_rederive_grouping_with_negation_and_structured_keys():
    program = parse_program("""
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    far(p(X), <Y>) :- t(X, Y), not e(X, Y).
    none(<X>) :- n(X), not t(X, X).
    """)
    facts = [("e", "a", "b"), ("e", "b", "c"), ("e", "c", "a"),
             ("n", "a"), ("n", "d")]
    one, two = maintained_on_every_path(
        program, facts,
        [([], [("e", "c", "a")]), ([("e", "a", "c")], [])],
    )
    assert "far(p(a), {c})" in one and "none({a, d})" in one
    assert not any(a.startswith("far") for a in two)


#: Rules with negation or grouping over the groups below them, and two
#: positive readers of a grouped predicate: each rule is a dependency
#: component of its own, so on top of the closure rules every group but
#: the closure's is a ``rederive`` group.
REDERIVE_POOL = [
    "s(X) :- n(X), not t(X, X).",
    "u(X, Y) :- t(X, Y), not e(X, Y).",
    "w(X) :- n(X), not s(X), not p(X).",
    "g(X, <Y>) :- e(X, Y).",
    "h(X, <Y>) :- t(X, Y), not e(Y, X).",
    "k(<X>) :- n(X), e(X, Y).",
    "p(X) :- e(X, X).",
    "c(X) :- g(X, S), Y in S, n(Y).",
    "d(X, S) :- g(X, S), not h(X, S).",
]
_CLOSURE = "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).\n"


@settings(max_examples=25, deadline=None)
@given(
    rule_idx=st.sets(
        st.integers(0, len(REDERIVE_POOL) - 1), min_size=1, max_size=5
    ),
    initial=st.sets(st.sampled_from(FACT_SPACE), max_size=10),
    batches=st.lists(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(FACT_SPACE)),
            min_size=1, max_size=5,
        ),
        min_size=1, max_size=4,
    ),
)
def test_rederive_strata_equal_recompute_under_mixed_batches(
    rule_idx, initial, batches
):
    program = parse_program(
        _CLOSURE + "\n".join(REDERIVE_POOL[i] for i in sorted(rule_idx))
    )
    groups = stratify(program).groups
    assert [g.plan for g in groups if g.head_preds != {"t"}] == \
        ["rederive"] * len(rule_idx)
    stream, expected, facts = [], [], set(initial)
    for batch in batches:
        adds = [spec for is_add, spec in batch if is_add]
        dels = [spec for is_add, spec in batch if not is_add]
        facts = (facts - set(dels)) | set(adds)
        stream.append((adds, dels))
        expected.append(
            fresh_eval(program, sorted(facts)).interpretation.sorted_atoms()
        )
    for path in PATHS:
        with forced(path):
            m = materialize(program, sorted(initial))
            for (adds, dels), want in zip(stream, expected):
                before = set(m.interpretation.atoms())
                report = m.apply_delta(adds=adds, dels=dels)
                assert m.interpretation.sorted_atoms() == want, path
                if report.changes is not None:
                    assert_changes_are_the_diff(
                        report, before, set(want)
                    )
                # Small inputs never reach the size gate.
                assert not any(
                    sp.reason and sp.reason.startswith("delta")
                    for sp in report.stratum_plans
                ), path


def serving_model(n_nodes, n_edges, seed=3):
    """``CRASH_RECOVERY_PROGRAM`` over a random graph, behind snapshots."""
    db = Database()
    for u, v in random_graph(n_nodes, n_edges, seed=seed):
        db.add("e", u, v)
    for i in range(0, n_nodes, 3):
        db.add("n", f"v{i}")
    return VersionedModel(
        parse_program(CRASH_RECOVERY_PROGRAM), db,
        builtins=with_set_builtins(),
    )


def counted(owner, name):
    """Patch ``owner.name`` with a call-counting pass-through."""
    return mock.patch.object(
        owner, name, autospec=True, side_effect=getattr(owner, name)
    )


def one_edge_commit_costs(n_nodes, n_edges):
    """Per commit: (atoms changed, index insertions, point probes,
    executor rows read); no commit builds an index."""
    vm = serving_model(n_nodes, n_edges)
    edges = [(f"v{i}", f"v{(i * 7 + 1) % n_nodes}") for i in range(12)]
    # The first insertion and the first deletion build, once, the index
    # signatures their joins probe; the writer keeps them from then on.
    vm.add("e", "v0", "warm")
    vm.retract("e", "v0", "warm")
    costs = []
    for k, (u, v) in enumerate(edges * 2):
        write = vm.add if k < len(edges) else vm.retract
        read = vm.exec_stats.rows_in
        with counted(interpretation, "_index_add") as inserts, \
                counted(interpretation, "_built_index") as builds, \
                counted(evaluation._CompiledRule, "solutions") as probes:
            snap = write("e", u, v)
        assert builds.call_count == 0
        report = snap.report
        if report is None or snap is not vm.current:
            continue        # the edge was already there: a no-op commit
        assert report.strategy == "incremental"
        assert [sp.plan for sp in report.stratum_plans] == \
            ["dred", "rederive", "rederive"]
        costs.append((report.atoms_added + report.atoms_removed,
                      inserts.call_count, probes.call_count,
                      vm.exec_stats.rows_in - read))
    assert len(costs) >= 12
    return costs


def test_one_edge_commit_costs_its_delta_not_the_model():
    """No clocks: index insertions and point probes per one-edge commit
    are bounded by a small multiple of the atoms the commit changed, at
    either graph size — the copy-on-write hand-over keeps the writer's
    indexes, and rederive probes candidates only.  A removal moves its
    table's last row into the hole, which files that row under its new
    slot in each built index: insertions count those too."""
    for n_nodes, n_edges in [(500, 300), (2000, 1200)]:
        for changed, inserts, probes, _ in one_edge_commit_costs(
            n_nodes, n_edges
        ):
            assert inserts <= 6 * changed + 8, (n_nodes, changed, inserts)
            assert probes <= 3 * changed + 8, (n_nodes, changed, probes)


def test_serving_program_commit_rows_do_not_grow_with_the_graph():
    """Executor rows read per one-edge commit are a small multiple of the
    atoms it changed, and per changed atom the same within a constant
    on a graph four times larger.  Recomputing the negation and grouping
    strata per commit reads thousands of rows here, more on the larger
    graph."""
    per_atom = []
    for n_nodes, n_edges in [(500, 300), (2000, 1200)]:
        costs = one_edge_commit_costs(n_nodes, n_edges)
        for changed, _, _, rows in costs:
            assert rows <= 8 * changed + 16, (n_nodes, changed, rows)
        per_atom.append(sum(c[3] for c in costs) / sum(c[0] for c in costs))
    assert per_atom[1] <= per_atom[0] + 2, per_atom


#: ``<Y>`` grouping followed by an unnest (Example 4 read backwards):
#: two dependency components, neither recursive.
NEST_RULES = """\
owns(K, <V>) :- r(K, V).
flat(K, V) :- owns(K, S), V in S.
"""


def nest_commit_costs(n_keys):
    """One-fact commits on ``NEST_RULES`` over ``n_keys`` × 8 ``r``
    facts, behind snapshots: per commit (stratum plans, atoms changed,
    executor rows read); the model ends equal to a fresh evaluation."""
    db = Database()
    for i in range(n_keys):
        for j in range(8):
            db.add("r", f"k{i}", 1000 + (i * 7 + j * 53) % 400)
    vm = VersionedModel(
        parse_program(NEST_RULES), db, builtins=with_set_builtins()
    )
    costs = []
    for k in range(10):
        for write in (vm.add, vm.retract):
            read = vm.exec_stats.rows_in
            report = write("r", f"k{k * 17 % n_keys}", 999).report
            costs.append((report.stratum_plans,
                          report.atoms_added + report.atoms_removed,
                          vm.exec_stats.rows_in - read))
    fresh = Evaluator(
        parse_program(NEST_RULES), vm._materialized.database,
        builtins=with_set_builtins(),
    ).run()
    assert (vm._materialized.interpretation.sorted_atoms()
            == fresh.interpretation.sorted_atoms())
    return costs


def test_one_fact_commit_on_nest_rederives_both_groups():
    """The grouping and its positive reader are two groups, each
    ``rederive``: a one-fact commit reads a small multiple of the atoms
    it changed, at 1 600 and at 6 400 ``r`` facts."""
    for n_keys in (200, 800):
        for plans, changed, rows in nest_commit_costs(n_keys):
            assert plans == ((0, "rederive", None), (1, "rederive", None))
            assert rows <= 8 * changed + 16, (n_keys, changed, rows)


#: A conjunctive-only stratum: nothing in it negates or groups.
CONJ = parse_program("r(X) :- n(X), e(X, Y).")


def first_commit_costs(n_nodes, n_edges, write):
    """The first one-fact commit on a conjunctive stratum: (atoms
    changed, ``bindings`` calls, point probes, stratum plans)."""
    db = Database()
    edges = random_graph(n_nodes, n_edges, seed=3)
    for u, v in edges:
        db.add("e", u, v)
    for i in range(0, n_nodes, 2):
        db.add("n", f"v{i}")
    m = MaterializedModel(CONJ, db, builtins=with_set_builtins())
    u, v = next((u, v) for u, v in edges if int(u[1:]) % 2 == 0)
    with counted(evaluation._CompiledRule, "bindings") as bindings, \
            counted(evaluation._CompiledRule, "solutions") as probes:
        report = (m.add("e", u, "fresh") if write == "add"
                  else m.retract("e", u, v))
    return (report.atoms_added + report.atoms_removed,
            bindings.call_count, probes.call_count, report.stratum_plans)


def test_first_commit_on_a_conjunctive_stratum_costs_its_delta():
    """No clocks: the first commit after a load runs no whole-stratum
    pass (no ``bindings`` call) and probes a small multiple of the atoms
    it changed, at either EDB size."""
    for n_nodes, n_edges in [(500, 300), (2000, 1200)]:
        for write in ("add", "retract"):
            changed, bindings, probes, plans = first_commit_costs(
                n_nodes, n_edges, write
            )
            assert bindings == 0, (n_nodes, write)
            assert probes <= 3 * changed + 8, (n_nodes, write, probes)
            assert plans == ((0, "rederive", None),)


def test_size_gate_picks_recompute_above_and_rederive_below():
    vm = serving_model(200, 120)
    m = vm._materialized
    dead = m._evaluator.stratification.stratum_of["dead"]
    inputs = sum(len(m.interpretation.facts_of(p)) for p in ("n", "t"))
    gate = max(maintenance.REDERIVE_MIN_GATE,
               inputs // maintenance.REDERIVE_INPUT_RATIO)
    small = [("e", "v1", "v199")]
    report = vm.apply_delta(adds=small).report
    assert [sp.plan for sp in report.stratum_plans] == \
        ["dred", "rederive", "rederive"]
    # A batch of new markers alone, which only ``dead`` reads: the delta
    # is exactly its size (and it grows the inputs, hence the gate, by an
    # eighth of itself).
    big = [("n", f"m{i}") for i in range(2 * gate)]
    report = vm.apply_delta(adds=big).report
    [(index, plan, reason)] = report.stratum_plans
    assert (index, plan) == (dead, "recompute")
    assert reason.startswith(f"delta {len(big)} ≥ gate ")
    report = vm.apply_delta(dels=big[:3]).report
    assert report.stratum_plans == ((dead, "rederive", None),)
    fresh = Evaluator(
        parse_program(CRASH_RECOVERY_PROGRAM), m.database,
        builtins=with_set_builtins(),
    ).run()
    assert (m.interpretation.sorted_atoms()
            == fresh.interpretation.sorted_atoms())

    # A conjunctive-only stratum crosses the same gate, on every arm.
    facts = [("e", f"v{i}", f"v{(i * 7 + 1) % 200}") for i in range(200)]
    facts += [("n", f"v{i}") for i in range(0, 200, 3)]
    markers = [("n", f"v{i}") for i in range(1, 200, 3)]

    def run(_options):
        m = materialize(CONJ, facts)
        gate = max(maintenance.REDERIVE_MIN_GATE,
                   len(facts) // maintenance.REDERIVE_INPUT_RATIO)
        big = markers[:2 * gate]
        report = m.apply_delta(adds=big)
        # The gate reads the inputs after the batch's markers went in.
        after = (len(facts) + len(big)) // maintenance.REDERIVE_INPUT_RATIO
        assert report.stratum_plans == (
            (0, "recompute", f"delta {len(big)} ≥ gate {after}"),
        )
        assert_matches_scratch(m, CONJ, facts + big)
        report = m.apply_delta(dels=big[:3])
        assert report.stratum_plans == ((0, "rederive", None),)
        assert_matches_scratch(m, CONJ, facts + big[3:])
        return [str(a) for a in m.interpretation.sorted_atoms()]

    same_on_every_path(run)


def test_recompute_reasons_are_reported():
    m = materialize(
        parse_program("p(X) :- n(X), not q(X).\nr(X) :- p(X)."),
        [("n", "a"), ("q", "a")],
    )
    report = m.apply_delta(dels=[("q", "a")])
    assert report.stratum_plans == (
        (0, "rederive", None), (1, "rederive", None),
    )
    assert m.model.holds_str("r(a)")
    m = materialize(
        parse_program("p(X) :- q(X).\nq(X) :- p(X), not r(X).\n"
                      "p(X) :- n(X)."),
        [("n", "a"), ("r", "a")],
    )
    report = m.apply_delta(dels=[("r", "a")])
    assert report.stratum_plans == ((0, "recompute", "recursive negation"),)
    assert m.model.holds_str("q(a)")
    m = materialize(
        parse_program("allok(z) :- forall A in {a, b} (ok(A))."),
        [("ok", "a")],
    )
    report = m.apply_delta(adds=[("ok", "b")])
    assert report.stratum_plans == \
        ((0, "recompute", "restricted quantifier"),)
    assert m.model.holds_str("allok(z)")


def test_steady_state_commits_compile_nothing():
    """The evaluator keeps one compiled rule per clause and maintenance
    shares it: after warm-up, commits never reach the planner."""
    vm = serving_model(60, 90)
    edges = [(f"v{i}", f"v{(i * 11 + 5) % 60}") for i in range(33)]
    for u, v in edges[:5]:
        vm.add("e", u, v)
        vm.retract("e", u, v)
    with counted(evaluation, "compile_rule") as rules, \
            counted(evaluation, "compile_grouping") as groupings:
        commits = 0
        for u, v in edges[5:]:
            commits += vm.add("e", u, v).report is not None
            commits += vm.retract("e", u, v).report is not None
        assert commits >= 50
    assert rules.call_count == 0 and groupings.call_count == 0


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


def test_abandoned_sweep_reports_changes_against_the_pre_batch_model():
    """The sweep has already added ``flag(on)`` when the delta join gives
    up; the reported changes must still be the whole diff, or a standing
    query on ``flag`` would never hear of it."""
    program = parse_program("all(X) :- flag(Y).")
    m = materialize(program, [("c", "z1")])
    before = set(m.interpretation.atoms())
    report = m.apply_delta(adds=[("flag", "on")])
    assert report.strategy == "recompute"
    assert_changes_are_the_diff(
        report, before, set(m.interpretation.atoms())
    )
    assert {str(a) for a in report.changes.adds["flag"]} == {"flag(on)"}


def test_maintained_model_explains_at_its_current_version():
    """Explaining is a query on the maintained model, so it follows an
    incremental add and a delete, and maintenance stays incremental."""
    from repro.core.errors import EvaluationError

    m = materialize(TC, [("e", "a", "b")])
    report = m.apply_delta(adds=[("e", "b", "c")])
    assert report.strategy == "incremental"
    assert "e(b, c) (given)" in m.model.explain_str("t(a, c)")
    report = m.apply_delta(adds=[("e", "a", "c")], dels=[("e", "a", "b")])
    assert report.strategy == "incremental"
    assert m.model.explain_str("t(a, c)") == (
        "t(a, c)    [t(X, Y) :- e(X, Y).]\n  e(a, c) (given)"
    )
    with pytest.raises(EvaluationError):
        m.model.explain_str("t(a, b)")


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
