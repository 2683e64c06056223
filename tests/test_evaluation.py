"""Tests for the bottom-up engine: solver scheduling, quantifiers (incl. the
vacuous branch), negation, grouping, semi-naive rounds vs ``T_P``, safety."""

import pytest

from paths import PATHS, forced
from repro.core import (
    Atom,
    GroupingClause,
    Program,
    SafetyError,
    atom,
    clause,
    const,
    equals,
    fact,
    horn,
    member,
    mkset,
    neg,
    pos,
    setvalue,
    var_a,
    var_s,
)
from repro.engine import Database, EvalOptions, Evaluator, solve
from repro.engine.setops import with_set_builtins
from repro.semantics import Universe, least_fixpoint

x, y, z = var_a("x"), var_a("y"), var_a("z")
X, Y, Z = var_s("X"), var_s("Y"), var_s("Z")
a, b, c = const("a"), const("b"), const("c")


class TestHornEvaluation:
    def test_transitive_closure(self):
        p = Program.of(
            fact(atom("e", a, b)),
            fact(atom("e", b, c)),
            horn(atom("t", x, y), atom("e", x, y)),
            horn(atom("t", x, z), atom("e", x, y), atom("t", y, z)),
        )
        m = solve(p)
        assert m.relation("t") == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_database_facts(self):
        db = Database()
        db.add("e", "a", "b")
        p = Program.of(horn(atom("t", x, y), atom("e", x, y)))
        m = Evaluator(p, db).run()
        assert m.relation("t") == {("a", "b")}

    def test_equality_in_body(self):
        p = Program.of(
            fact(atom("q", a)),
            horn(atom("p", x, y), atom("q", x), equals(y, x)),
        )
        m = solve(p)
        assert m.relation("p") == {("a", "a")}

    def test_set_construction_in_head(self):
        """Heads may build sets from bound element variables."""
        from repro.core import SetExpr

        p = Program.of(
            fact(atom("q", a)),
            fact(atom("q", b)),
            horn(Atom("pair", (SetExpr((x, y)),)), atom("q", x), atom("q", y)),
        )
        m = solve(p)
        assert (frozenset({"a", "b"}),) in m.relation("pair")
        assert (frozenset({"a"}),) in m.relation("pair")

    def test_membership_generates_elements(self):
        p = Program.of(
            fact(atom("s", setvalue([a, b]))),
            horn(atom("elem", x), atom("s", X), member(x, X)),
        )
        m = solve(p)
        assert m.relation("elem") == {("a",), ("b",)}

    def test_builtin_heads_rejected(self):
        p = Program.of(horn(atom("plus", x, x, x), atom("q", x)))
        from repro.core import EvaluationError

        with pytest.raises(EvaluationError):
            Evaluator(p)


class TestQuantifiers:
    def test_subset_over_active_domain(self):
        p = Program.of(
            fact(atom("s", setvalue([a]))),
            fact(atom("s", setvalue([a, b]))),
            clause(atom("subset", X, Y), [(x, X)], [member(x, Y)]),
        )
        m = solve(p)
        rel = m.relation("subset")
        assert (frozenset({"a"}), frozenset({"a", "b"})) in rel
        assert (frozenset({"a", "b"}), frozenset({"a"})) not in rel
        # Reflexive pairs and the empty set appear too.
        assert (frozenset(), frozenset({"a"})) in rel

    def test_vacuous_branch_ignores_other_conjuncts(self):
        """Section 4.1: (∀x∈X)(q(y) ∧ p(x)) with X=∅ is true even though
        q(y) is false — the engine must derive the head for X=∅."""
        p = Program.of(
            fact(atom("s", setvalue([]))),
            fact(atom("d", a)),
            clause(
                atom("h", X, y),
                [(x, X)],
                [atom("qq", y), atom("p", x)],
            ),
        )
        m = solve(p)
        # For X=∅ the body holds for EVERY y in the active domain.
        assert m.holds(atom("h", setvalue([]), a))

    def test_nonvacuous_branch_respects_conjuncts(self):
        p = Program.of(
            fact(atom("s", setvalue([a]))),
            fact(atom("p", a)),
            clause(atom("h", X, y), [(x, X)], [atom("qq", y), atom("p", x)]),
        )
        m = solve(p)
        # X={a}: body requires qq(y) which never holds.
        assert not m.holds(atom("h", setvalue([a]), a))

    def test_agreement_with_reference_fixpoint(self):
        """Engine result == reference T_P lfp on the active-domain universe."""
        p = Program.of(
            fact(atom("p", a)),
            fact(atom("s", setvalue([a, b]))),
            fact(atom("s", setvalue([]))),
            clause(atom("allp", X), [(x, X)], [atom("p", x)]),
        )
        m = solve(p)
        u = Universe(
            (a, b), (setvalue([]), setvalue([a, b])),
        )
        ref = least_fixpoint(p, u).interpretation
        for at in ref:
            assert m.holds(at), f"engine missing {at}"
        for at in m.interpretation:
            # engine may know more sets (none here)
            assert ref.holds(at), f"engine over-derived {at}"


class TestNegation:
    def test_stratified_negation(self):
        p = Program.of(
            fact(atom("node", a)),
            fact(atom("node", b)),
            fact(atom("e", a, b)),
            horn(atom("reach", x), atom("e", a, x)),
            horn(atom("unreach", x), pos(atom("node", x)), neg(atom("reach", x))),
        )
        m = solve(p)
        assert m.relation("unreach") == {("a",)}

    def test_negation_on_builtin_style_atom(self):
        p = Program.of(
            fact(atom("q", a)),
            fact(atom("q", b)),
            horn(atom("p", x, y), pos(atom("q", x)), pos(atom("q", y)),
                 neg(equals(x, y))),
        )
        m = solve(p)
        assert m.relation("p") == {("a", "b"), ("b", "a")}


class TestGroupingEvaluation:
    def test_basic_grouping(self):
        p = Program.of(
            fact(atom("comp", a, b)),
            fact(atom("comp", a, c)),
            fact(atom("comp", b, c)),
            GroupingClause(
                pred="bom", head_args=(x,), group_pos=1, group_var=y,
                body=(pos(atom("comp", x, y)),),
            ),
        )
        m = solve(p)
        assert m.relation("bom") == {
            ("a", frozenset({"b", "c"})),
            ("b", frozenset({"c"})),
        }

    def test_grouping_feeds_higher_stratum(self):
        p = Program.of(
            fact(atom("comp", a, b)),
            GroupingClause(
                pred="bom", head_args=(x,), group_pos=1, group_var=y,
                body=(pos(atom("comp", x, y)),),
            ),
            horn(atom("width", x, z), atom("bom", x, X), atom("card", X, z)),
        )
        m = solve(p)
        assert m.relation("width") == {("a", 1)}

    def test_no_empty_groups(self):
        """LDL grouping derives heads only for matched bindings."""
        p = Program.of(
            fact(atom("item", a)),
            GroupingClause(
                pred="g", head_args=(x,), group_pos=1, group_var=y,
                body=(pos(atom("never", x, y)),),
            ),
        )
        m = solve(p)
        assert m.relation("g") == set()


class TestSemiNaive:
    def chain(self, n):
        clauses = [fact(atom("e", const(f"v{i}"), const(f"v{i+1}")))
                   for i in range(n)]
        clauses += [
            horn(atom("t", x, y), atom("e", x, y)),
            horn(atom("t", x, z), atom("e", x, y), atom("t", y, z)),
        ]
        return Program.of(*clauses)

    def test_agreement_with_quantified_rules(self):
        sets = (setvalue([a, b]), setvalue([c]))
        p = Program.of(
            fact(atom("s", sets[0])),
            fact(atom("s", sets[1])),
            clause(atom("disj", X, Y), [(x, X), (y, Y)],
                   [atom("neq", x, y)]),
            horn(atom("both", X, Y), atom("disj", X, Y), atom("disj", Y, X)),
        )
        # ``neq`` is a built-in, so T_P does not apply; X and Y range over
        # the active domain: the fact sets and {}.
        carrier = (setvalue([]),) + sets
        disjoint = {
            (X_, Y_) for X_ in carrier for Y_ in carrier
            if not (X_.elems & Y_.elems)
        }
        m = solve(p)
        assert {t.args for t in m.interpretation.by_pred("disj")} == disjoint
        assert {t.args for t in m.interpretation.by_pred("both")} == disjoint

    def test_work_is_proportional_to_the_output(self):
        """Differentiation: after the first round a rule joins only the
        previous round's delta, so the closure of a chain is derived with
        work linear in its size.  (Re-firing each rule over the whole
        relation every round is cubic in the chain length: 28 951 rows
        for this input.)"""
        p = self.chain(30)
        m = solve(p)
        n_t = len(m.relation("t"))
        assert n_t == 30 * 31 // 2
        assert m.report.stats.matches == 0
        assert m.report.exec.rows_in <= 8 * n_t
        # The solver fallback differentiates too: one match per derivation.
        with forced("solver") as options:
            m = Evaluator(p, options=options).run()
        assert m.report.exec.rows_in == 0
        assert m.report.stats.matches <= 2 * n_t

    def test_derivations_are_counted_on_every_path(self):
        """On a chain every ``t`` fact has exactly one derivation, so the
        counter reads the size of the closure on the plan executor and on
        the solver alike."""
        p = self.chain(12)
        for path in PATHS:
            with forced(path) as options:
                m = Evaluator(p, options=options).run()
            assert m.report.stats.derivations == len(m.relation("t")), path


class TestSafetyControls:
    def test_fallback_disabled_raises(self):
        p = Program.of(
            fact(atom("s", setvalue([a]))),
            clause(atom("subset", X, Y), [(x, X)], [member(x, Y)]),
        )
        with pytest.raises(SafetyError):
            solve(p, allow_fallback=False)

    def test_fallback_limit(self):
        from repro.core import EvaluationError

        facts = [fact(atom("s", setvalue([const(i)]))) for i in range(12)]
        p = Program.of(
            *facts,
            clause(atom("subset", X, Y), [(x, X)], [member(x, Y)]),
        )
        with pytest.raises(EvaluationError):
            solve(p, fallback_limit=10)

    def test_range_restricted_program_runs_without_fallback(self):
        p = Program.of(
            fact(atom("e", a, b)),
            horn(atom("t", x, y), atom("e", x, y)),
        )
        m = solve(p, allow_fallback=False)
        assert m.relation("t") == {("a", "b")}


class TestModelAPI:
    def test_query_bindings(self):
        p = Program.of(fact(atom("e", a, b)), fact(atom("e", a, c)))
        m = solve(p)
        rows = m.query_str("e(a, W)")
        assert {r["W"] for r in rows} == {"b", "c"}

    def test_holds_str_with_sets(self):
        p = Program.of(fact(atom("s", setvalue([a, b]))))
        m = solve(p)
        assert m.holds_str("s({a, b})")
        assert m.holds_str("s({b, a})")
        assert not m.holds_str("s({a})")

    def test_special_atoms_in_holds(self):
        m = solve(Program.of(fact(atom("p", a))))
        assert m.holds(equals(mkset(a), mkset(a)))
        assert m.holds(member(a, mkset(a, b)))

    def test_report_populated(self):
        p = Program.of(
            fact(atom("e", a, b)),
            horn(atom("t", x, y), atom("e", x, y)),
        )
        m = solve(p)
        assert m.report.rounds >= 1
        # The fact clause is EDB, inserted before any stratum: only
        # t(a, b) is derived.
        assert m.report.derived == 1
        assert m.report.strata >= 1
