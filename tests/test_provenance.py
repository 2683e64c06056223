"""Tests for why-provenance (derivation trees)."""

import time

import pytest

from repro import parse_program
from repro.core import EvaluationError
from repro.engine import Database, Evaluator
from repro.engine.provenance import DERIVED, GIVEN, GROUPED
from repro.engine.setops import with_set_builtins
from repro.lang import parse_atom


def run(source, db=None):
    program = parse_program(source)
    return Evaluator(program, db, builtins=with_set_builtins()).run()


class TestBasics:
    def test_explain_works_on_a_default_solve(self):
        from repro.engine import solve

        m = solve(parse_program("""
            e(a, b).
            t(X, Y) :- e(X, Y).
        """))
        tree = m.explain(parse_atom("t(a, b)"))
        assert tree.kind == DERIVED
        assert [(c.atom, c.kind) for c in tree.children] == [
            (parse_atom("e(a, b)"), GIVEN)
        ]

    def test_given_fact(self):
        m = run("p(a).")
        tree = m.explain(parse_atom("p(a)"))
        assert tree.kind == GIVEN
        assert tree.children == []

    def test_missing_atom_rejected(self):
        m = run("p(a).")
        with pytest.raises(EvaluationError):
            m.explain(parse_atom("p(b)"))

    def test_horn_chain(self):
        m = run("""
            e(a, b). e(b, c).
            t(X, Y) :- e(X, Y).
            t(X, Z) :- e(X, Y), t(Y, Z).
        """)
        tree = m.explain(parse_atom("t(a, c)"))
        assert tree.kind == DERIVED
        premises = {str(c.atom) for c in tree.children}
        assert premises == {"e(a, b)", "t(b, c)"}
        # Recursive premise explained in turn.
        (t_bc,) = [c for c in tree.children if str(c.atom) == "t(b, c)"]
        assert {str(c.atom) for c in t_bc.children} == {"e(b, c)"}

    def test_tree_metrics_and_pretty(self):
        m = run("""
            e(a, b). e(b, c).
            t(X, Y) :- e(X, Y).
            t(X, Z) :- e(X, Y), t(Y, Z).
        """)
        tree = m.explain(parse_atom("t(a, c)"))
        assert tree.size() >= 4
        assert tree.depth() >= 3
        text = m.explain_str("t(a, c)")
        assert "t(a, c)" in text and "(given)" in text


class TestQuantifiedRules:
    def test_forall_premises_unfold(self):
        """Lemma 4 in the provenance: one premise per range element.

        The mixed body stays one rule, so the quantified premises sit
        directly under the head, beside the caller's conjunct."""
        m = run("""
            s({1, 2}). p(1). p(2).
            allp(X) :- s(X), forall A in X (p(A)).
        """)
        tree = m.explain(parse_atom("allp({1, 2})"))
        assert tree.kind == DERIVED
        top = {str(c.atom) for c in tree.children}
        assert top == {"s({1, 2})", "p(1)", "p(2)"}

    def test_vacuous_application_has_no_quantified_premises(self):
        m = run("""
            s({}).
            allp(X) :- s(X), forall A in X (p(A)).
        """)
        tree = m.explain(parse_atom("allp({})"))
        # Empty range: zero quantified premises.
        assert {str(c.atom) for c in tree.children} == {"s({})"}


class TestGroupingProvenance:
    def test_grouped_atom(self):
        m = run("""
            comp(car, wheel). comp(car, engine).
            bom(P, <C>) :- comp(P, C).
        """)
        tree = m.explain(parse_atom("bom(car, {wheel, engine})"))
        assert tree.kind == GROUPED
        premises = {str(c.atom) for c in tree.children}
        assert premises == {"comp(car, wheel)", "comp(car, engine)"}


class TestDatabaseProvenance:
    def test_db_facts_are_given(self):
        db = Database()
        db.add("e", "a", "b")
        program = parse_program("t(X, Y) :- e(X, Y).")
        m = Evaluator(program, db).run()
        tree = m.explain(parse_atom("t(a, b)"))
        (leaf,) = tree.children
        assert leaf.kind == GIVEN


class TestSearch:
    def test_failed_branches_are_not_searched_again(self):
        """A complete digraph on k nodes hanging off the root's own
        derivation: every ``t(ui, b)`` needs ``t(v1, b)``, so a depth-first
        search that only remembers successes walks each simple path
        through the u's, about (k-1)! of them, before ``t(u1, b)`` fails.
        The search meets each atom once, whatever order the solver
        returns the nodes in."""
        k = 10
        us = [f"u{i}" for i in range(1, k + 1)]
        edges = [("v1", "u1")]
        edges += [(x, y) for x in us for y in us if x != y]
        edges += [(u, "v1") for u in us]
        edges += [("v1", "a"), ("a", "b")]  # after u1: tried second
        facts = " ".join(f"e({x}, {y})." for x, y in edges)
        m = run(facts + """
            t(X, Y) :- e(X, Y).
            t(X, Z) :- e(X, Y), t(Y, Z).
        """)
        started = time.perf_counter()
        for x in ["v1", *us]:
            tree = m.explain(parse_atom(f"t({x}, b)"))
            assert tree.kind == DERIVED
        assert time.perf_counter() - started < 10

    def test_explain_runs_under_the_models_options(self):
        """A domain-dependent body falls back to the active domain in the
        search as in the evaluation, against the limit the model was
        evaluated with."""
        from dataclasses import replace

        from repro.engine import solve

        m = solve(parse_program(
            " ".join(f"s({{{i}}})." for i in range(6))
            + " q(X) :- s(X), not member(A, X), s(Z)."
        ), fallback_limit=300)
        assert m.options.fallback_limit == 300
        assert m.explain(parse_atom("q({3})")).kind == DERIVED
        m.options = replace(m.options, fallback_limit=1)
        with pytest.raises(EvaluationError, match="fallback_limit"):
            m.explain(parse_atom("q({3})"))

    def test_a_step_set_aside_completes_when_its_premise_is_proved(self):
        """``h(k)`` is first met under ``a(k)``, whose proof it cannot
        use, so its step waits on ``y(k)`` (searched and unproved there)
        with ``f(k)`` not yet searched.  The root needs that very step
        once ``a(k)`` is proved another way."""
        m = run("""
            g(k). g2(k).
            r(X) :- a(X), h(X).
            a(X) :- h(X).
            a(X) :- g(X).
            h(X) :- y(X), f(X).
            y(X) :- a(X).
            f(X) :- g2(X).
        """)
        assert m.explain_str("r(k)") == "\n".join([
            "r(k)    [r(X) :- a(X), h(X).]",
            "  a(k)    [a(X) :- g(X).]",
            "    g(k) (given)",
            "  h(k)    [h(X) :- y(X), f(X).]",
            "    y(k)    [y(X) :- a(X).]",
            "      a(k)    [a(X) :- g(X).]",
            "        g(k) (given)",
            "    f(k)    [f(X) :- g2(X).]",
            "      g2(k) (given)",
        ])
