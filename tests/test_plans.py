"""The plan IR pipeline: compilation shapes, executor semantics, fallbacks.

Covers the planner/executor split of DESIGN.md "Plan IR and executor":

* structural tests — what rule bodies compile to (Scan/Join trees, delta
  variants, AntiJoin, Unnest, Compute, GroupBy) and which bodies stay on
  the tuple path (quantifiers, active-domain heads);
* **AntiJoin under stratified negation** — negation-bearing strata agree
  with the tuple path and with hand-computed extensions;
* **Distinct under set-valued columns** — set cells deduplicate
  canonically through Project/Distinct;
* **delta-substituted Scans** — a pinned occurrence reads the delta
  relation while other occurrences of the same predicate read the full
  interpretation;
* the ``PlanInapplicable`` runtime fallback (ELPS ``u`` variables bound
  to non-sets) keeps the model identical to the tuple path;
* Example 4 round-trips: the value-level algebra and the compiled-plan
  engine compute the same nested relations.
"""

import pytest

from paths import PATHS, forced
from repro import parse_program
from repro.core import (
    Program,
    atom,
    clause,
    const,
    fact,
    member,
    setvalue,
    var_a,
)
from repro.core.terms import Var
from repro.engine import Database, Evaluator
from repro.engine.executor import Executor
from repro.engine.ir import (
    AntiJoin,
    Compute,
    Distinct,
    GroupBy,
    Join,
    Scan,
    Unnest,
    walk_plan,
)
from repro.engine.planner import compile_grouping, compile_rule, head_plan
from repro.engine.setops import with_set_builtins
from repro.semantics.interpretation import Interpretation


def models_agree(program, db=None):
    """The shipped model, asserted equal on every forced path (the
    ``solver`` arm runs every rule on the tuple solver)."""
    models = {}
    for path in PATHS:
        with forced(path) as options:
            models[path] = Evaluator(
                program, db, builtins=with_set_builtins(), options=options
            ).run()
    shipped = models["default"]
    for path, model in models.items():
        assert model.interpretation.atoms() \
            == shipped.interpretation.atoms(), path
    return shipped


TC = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
""")


class TestCompilation:
    def test_join_tree_shape(self):
        cp = compile_rule(TC.clauses[1], {})
        assert cp.is_set
        ops = [n.__class__ for n in walk_plan(cp.root)]
        assert ops.count(Join) == 1
        assert ops.count(Scan) == 2

    def test_head_plan_projects_and_dedupes(self):
        node = head_plan(compile_rule(TC.clauses[1], {}))
        kinds = [n.__class__.__name__ for n in walk_plan(node)]
        assert kinds[0] == "Distinct"
        assert "Project" in kinds

    def test_delta_variant_pins_one_scan(self):
        # Occurrence 1 is t(Y, Z); its Scan must be delta-flagged and the
        # e(X, Y) occurrence must read the full relation.
        cp = compile_rule(TC.clauses[1], {}, delta_index=1)
        scans = [n for n in walk_plan(cp.root) if isinstance(n, Scan)]
        flags = {str(s.atom): s.delta for s in scans}
        assert flags == {"e(X, Y)": False, "t(Y, Z)": True}

    def test_quantifier_body_is_tuple_mode(self):
        p = parse_program("subset(X, Y) :- forall A in X (A in Y).")
        (c,) = p.clauses
        assert "quantifier" in compile_rule(c, {}).reason
        # A formula body the program keeps whole stays on the solver too.
        p = parse_program("subset(X, Y) :- s(X), s(Y), forall A in X (A in Y).")
        (c,) = p.clauses
        assert "formula" in compile_rule(c, {}).reason

    def test_active_domain_head_is_tuple_mode(self):
        p = parse_program("p(X, Y) :- q(X).")
        cp = compile_rule(p.clauses[0], {})
        assert not cp.is_set
        assert "active domain" in cp.reason

    def test_builtin_compute_and_member_unnest(self):
        p = parse_program("s(X, N1) :- r(X, S), E in S, N1 = 1.")
        cp = compile_rule(p.clauses[0], with_set_builtins())
        kinds = {n.__class__ for n in walk_plan(cp.root)}
        assert Unnest in kinds

    def test_grouping_compiles_to_groupby(self):
        p = parse_program("all_y(X, <Y>) :- e(X, Y).")
        g = p.clauses[0]
        cp = compile_grouping(g, {})
        assert cp.is_set
        assert isinstance(cp.root, GroupBy)


class TestAntiJoinStratifiedNegation:
    PROGRAM = parse_program("""
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    node(X) :- e(X, Y).
    node(Y) :- e(X, Y).
    unreached(X) :- node(X), not reach(X).
    """)

    def db(self):
        db = Database()
        for u, v in [("a", "b"), ("b", "c"), ("d", "e")]:
            db.add("e", u, v)
        db.add("start", "a")
        return db

    def test_compiles_to_anti_join(self):
        rule = next(
            c for c in self.PROGRAM.clauses if c.head.pred == "unreached"
        )
        cp = compile_rule(rule, {})
        assert cp.is_set
        assert any(isinstance(n, AntiJoin) for n in walk_plan(cp.root))

    def test_model_matches_tuple_path(self):
        model = models_agree(self.PROGRAM, self.db())
        assert model.relation("unreached") == {("d",), ("e",)}
        assert model.relation("reach") == {("a",), ("b",), ("c",)}

    def test_negated_builtin_in_anti_join(self):
        p = parse_program("""
        keep(X, Y) :- e(X, Y), not gt(X, Y).
        """)
        db = Database()
        for u, v in [(1, 2), (3, 1), (2, 2)]:
            db.add("e", u, v)
        model = models_agree(p, db)
        assert model.relation("keep") == {(1, 2), (2, 2)}


class TestDistinctSetColumns:
    def test_set_valued_projection_dedupes(self):
        # Several owners share the same set value; projecting the set
        # column must deduplicate canonical SetValues.
        db = Database()
        db.add("has", "alice", frozenset({"a", "b"}))
        db.add("has", "bob", frozenset({"b", "a"}))
        db.add("has", "carol", frozenset({"c"}))
        from repro.core import var_s

        S = var_s("S")
        p = Program.of(
            clause(atom("keep", S), body=[atom("has", var_a("X"), S)])
        )
        model = models_agree(p, db)
        assert model.relation("keep") == {
            (frozenset({"a", "b"}),), (frozenset({"c"}),)
        }

    def test_distinct_after_unnest(self):
        db = Database()
        db.add("has", "alice", frozenset({"a", "b"}))
        db.add("has", "bob", frozenset({"a"}))
        p = parse_program("elem(E) :- has(X, S), E in S.")
        model = models_agree(p, db)
        assert model.relation("elem") == {("a",), ("b",)}


class TestDeltaScans:
    def test_delta_scan_reads_delta_only(self):
        interp = Interpretation()
        for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
            interp.add(atom("e", const(u), const(v)))
        for u, v in [("b", "c"), ("b", "d"), ("c", "d")]:
            interp.add(atom("t", const(u), const(v)))
        rule = TC.clauses[1]
        node = head_plan(compile_rule(rule, {}, delta_index=1))
        # Only t(c, d) is in the delta: the pinned scan must ignore the
        # other two t facts even though they are in the interpretation.
        executor = Executor(
            interp, delta={"t": frozenset({atom("t", const("c"), const("d"))})}
        )
        heads = executor.heads(node, rule.head)
        assert set(map(str, heads)) == {"t(b, d)"}

    def test_executor_stats_populated(self):
        db = Database()
        for i in range(12):
            db.add("e", f"v{i}", f"v{i+1}")
        model = Evaluator(TC, db).run()
        stats = model.report.exec
        assert stats.batches > 0
        assert stats.rows_out > 0
        assert "Scan" in stats.per_op
        assert "Join" in stats.per_op


class TestRuntimeFallback:
    def test_u_variable_member_falls_back(self):
        # ELPS: U ranges over atoms *and* sets.  The planner predicts the
        # membership is executable; at run time the atom-valued rows raise
        # PlanInapplicable and the rule re-runs on the tuple path, so the
        # model is identical either way.
        from repro.core import MODE_ELPS

        U = Var("U", "u")
        x = var_a("x")
        p = Program.of(
            fact(atom("p", const("a"))),
            fact(atom("p", setvalue([const("b")]))),
            clause(atom("m", x), body=[atom("p", U), member(x, U)]),
            mode=MODE_ELPS,
        )
        on = Evaluator(p).run()
        with forced("solver") as options:
            off = Evaluator(p, options=options).run()
        assert on.interpretation.atoms() == off.interpretation.atoms()
        assert on.report.exec.batches > 0 and on.report.stats.matches > 0
        assert on.holds_str("m(b)")
        assert not on.holds_str("m(a)")


class TestExample4RoundTrip:
    def schema_rel(self):
        from repro.nested.relation import NestedRelation
        from repro.nested.schema import ATOMIC, SETOF, Attribute, Schema

        schema = Schema((
            Attribute("who", ATOMIC), Attribute("items", SETOF),
        ))
        rel = NestedRelation(schema)
        rel.insert("alice", {"apple", "pear"})
        rel.insert("bob", {"apple"})
        return rel

    def test_unnest_algebra_vs_engine(self):
        from repro.nested import algebra
        from repro.nested.bridge import unnest_via_engine

        rel = self.schema_rel()
        assert unnest_via_engine(rel, "items") == algebra.unnest(rel, "items")

    def test_nest_algebra_vs_engine(self):
        from repro.nested import algebra
        from repro.nested.bridge import nest_via_engine

        rel = self.schema_rel()
        flat = algebra.unnest(rel, "items")
        assert nest_via_engine(flat, "items") == algebra.nest(flat, "items")

    def test_unnest_nest_identity_on_flat(self):
        from repro.nested import algebra

        flat = algebra.unnest(self.schema_rel(), "items")
        assert algebra.unnest(algebra.nest(flat, "items"), "items") == flat


class TestMixedWorkloads:
    def test_parts_explosion_agrees(self):
        from repro.workloads import parts_database, parts_world

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
        world = parts_world(depth=2, fanout=2, seed=11)
        model = models_agree(PARTS, parts_database(world))
        derived = dict(model.relation("obj_cost"))
        for obj, expected in world.expected.items():
            if obj in world.parts:
                assert derived[obj] == expected

    def test_grouping_with_negation_body(self):
        p = parse_program("""
        good(X) :- e(X, Y).
        blocked(b).
        all_y(X, <Y>) :- e(X, Y), not blocked(X).
        """)
        db = Database()
        for u, v in [("a", "b"), ("a", "c"), ("b", "d")]:
            db.add("e", u, v)
        model = models_agree(p, db)
        assert model.relation("all_y") == {("a", frozenset({"b", "c"}))}
