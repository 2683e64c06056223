"""End-to-end integration scenarios combining parser, transforms, engine,
prover, grouping and nested relations — the workloads the paper's
introduction motivates (nested-relation querying with recursion).
"""

import pytest

from repro import parse_program
from repro.core import atom, const
from repro.engine import Database, Evaluator, TopDownProver
from repro.engine.evaluation import EvalOptions
from repro.engine.setops import with_set_builtins
from repro.lang import parse_atom


def run(source, db=None, **opts):
    program = parse_program(source)
    options = EvalOptions(**opts) if opts else EvalOptions()
    return Evaluator(program, db, builtins=with_set_builtins(),
                     options=options).run()


class TestCourseCatalogue:
    """A nested course catalogue: prerequisites are SETS of courses."""

    SOURCE = """
        % prereq(Course, SetOfPrerequisites)
        prereq(intro, {}).
        prereq(logic, {intro}).
        prereq(db, {intro}).
        prereq(advanced_db, {db, logic}).
        prereq(research, {advanced_db}).

        % a student's completed courses
        done(ann, {intro, logic, db}).
        done(bob, {intro}).

        % eligibility: all prerequisites completed
        eligible(S, C) :- done(S, D), prereq(C, P),
                          forall Q in P (Q in D).

        % transitive requirement closure, per course
        requires(C, Q) :- prereq(C, P), Q in P.
        requires(C, Q) :- requires(C, M), requires(M, Q).

        % the full requirement set, via grouping
        closure(C, <Q>) :- requires(C, Q).
    """

    def test_eligibility(self):
        m = run(self.SOURCE)
        assert m.holds_str("eligible(ann, advanced_db)")
        assert not m.holds_str("eligible(bob, advanced_db)")
        # vacuous prerequisites: everyone is eligible for intro
        assert m.holds_str("eligible(ann, intro)")
        assert m.holds_str("eligible(bob, intro)")

    def test_requirement_closure(self):
        m = run(self.SOURCE)
        rows = dict(m.relation("closure"))
        assert rows["research"] == frozenset(
            {"advanced_db", "db", "logic", "intro"}
        )
        assert rows["logic"] == frozenset({"intro"})

    def test_topdown_agrees_on_ground_goals(self):
        program = parse_program(self.SOURCE)
        # The grouping clause is not supported top-down; strip it.
        from repro.core import GroupingClause, Program

        lps_only = Program(
            tuple(c for c in program.clauses
                  if not isinstance(c, GroupingClause)),
            mode=program.mode,
        )
        m = Evaluator(program, builtins=with_set_builtins()).run()
        td = TopDownProver(lps_only, builtins=with_set_builtins())
        for text in [
            "eligible(ann, advanced_db)",
            "eligible(bob, db)",
            "requires(research, intro)",
        ]:
            goal = parse_atom(text)
            assert td.holds(goal) == m.holds(goal), text


class TestSocialGroups:
    """Set-valued analytics: cliques-as-sets with stratified negation."""

    SOURCE = """
        member_of(g1, {ann, bob, eve}).
        member_of(g2, {bob, eve}).
        member_of(g3, {dan}).

        % groups that share nobody
        independent(G, H) :- member_of(G, X), member_of(H, Y),
                             forall A in X (forall B in Y (A != B)).

        % subgroup relation between groups
        subgroup(G, H) :- member_of(G, X), member_of(H, Y),
                          forall A in X (A in Y).

        % proper subgroup needs negation
        proper_subgroup(G, H) :- subgroup(G, H), not subgroup(H, G).
    """

    def test_independence(self):
        m = run(self.SOURCE)
        assert m.holds_str("independent(g3, g1)")
        assert not m.holds_str("independent(g1, g2)")

    def test_proper_subgroup(self):
        m = run(self.SOURCE)
        assert m.holds_str("proper_subgroup(g2, g1)")
        assert not m.holds_str("proper_subgroup(g1, g2)")
        assert not m.holds_str("proper_subgroup(g1, g1)")


class TestInventoryRollup:
    """Example 6 at integration level: parts + prices from a Database, the
    demand transformation applied mechanically, provenance on top."""

    RULES = """
        item_cost(P, C) :- cost(P, C).
        item_cost(P, C) :- obj_cost(P, C).
        sum_costs({}, 0).
        sum_costs(Z, K) :- choose_min(P, Y, Z),
                           item_cost(P, C), sum_costs(Y, M), M + C = K.
        obj_cost(P, C) :- parts(P, S), sum_costs(S, C).
        part_sets(S) :- parts(P, S).
    """

    def database(self):
        db = Database()
        db.add("parts", "bike", frozenset({"frame", "wheelset"}))
        db.add("parts", "wheelset", frozenset({"front", "rear"}))
        db.add("cost", "frame", 100)
        db.add("cost", "front", 40)
        db.add("cost", "rear", 45)
        return db

    def test_with_mechanical_demand(self):
        from repro.transform import add_demand

        base = parse_program(self.RULES)
        program, _need = add_demand(base, "sum_costs", 0,
                                    seeds=["part_sets"])
        m = Evaluator(program, self.database(),
                      builtins=with_set_builtins()).run()
        costs = dict(m.relation("obj_cost"))
        assert costs == {"wheelset": 85, "bike": 185}

    def test_provenance_of_rollup(self):
        from repro.transform import add_demand

        base = parse_program(self.RULES)
        program, _ = add_demand(base, "sum_costs", 0, seeds=["part_sets"])
        m = Evaluator(
            program, self.database(), builtins=with_set_builtins(),
        ).run()
        tree = m.explain(parse_atom("obj_cost(bike, 185)"))
        rendered = tree.pretty()
        assert "parts(bike," in rendered
        assert "sum_costs(" in rendered
        assert tree.depth() >= 3
