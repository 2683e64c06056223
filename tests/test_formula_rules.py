"""Rules kept as positive formulas (DESIGN.md, "Front end").

Theorem 6 compiles a rule whose body is not in Definition 5's prefix form
into LPS clauses over auxiliary predicates.  Where an auxiliary would not
bind its own variables — a quantifier whose range only the caller's
conjuncts bind, a disjunct that leaves one of them free — the program
keeps the rule whole instead, and the solver answers its formula over the
bindings its own conjuncts give.  The contracts:

* **which rules stay whole**: Examples 1-3 as written; a rule whose
  auxiliaries bind their variables compiles as before, and
  ``faithful=True`` still builds the theorem's ``P*``;
* **the program is its text**: ``parse(pretty(p)) == p``, so the store's
  codec persists it — ``_`` under a quantifier included — and a durable
  service recovers it;
* **the model is the program's own predicates**: ``lps run`` and
  ``:model`` print no auxiliary;
* **served Examples 1-3**: single-fact commits are maintained (the
  stratum recomputes over the caller's bindings, with no active-domain
  fallback) and equal a from-scratch evaluation at every version;
* **stratification reads the formula**: an atom under ``not`` is a
  negative edge;
* **a goal may be a formula**: ``?-`` and ``:subscribe`` take the body
  a rule would keep whole, and answer it as that rule would; a goal is
  never split into auxiliaries, even where its rule would be.
"""

import random

import pytest

from repro import parse_program
from repro.core.clauses import LPSClause, Rule
from repro.engine import Database, Evaluator
from repro.engine.maintenance import STRATEGY_INCREMENTAL, MaterializedModel
from repro.engine.setops import with_set_builtins
from repro.engine.stratify import PLAN_RECOMPUTE, stratify
from repro.lang.pretty import pretty_program
from repro.repl.cli import main
from repro.server import QueryService
from repro.server.subscriptions import SubscriptionManager
from repro.storage.codec import encode_program

#: Examples 1-3 as the ``batch_fixpoint`` benchmark runs them.
QUANT_RULES = """\
disj(X, Y) :- s(X), s(Y), forall A in X (forall B in Y (A != B)).
subset(X, Y) :- s(X), s(Y), forall A in X (A in Y).
un(X, Y, Z) :- s(X), s(Y), s(Z),
               forall A in X (A in Z), forall B in Y (B in Z),
               forall C in Z (C in X or C in Y).
"""

#: A quantifier over the caller's set with ``_`` in its body: Theorem 6
#: lifts an auxiliary whose head carries the ``_``.
ANONYMOUS_TEXTS = [
    "q(X) :- s(X), forall A in X (r(A, _)).",
    "q(X) :- s(X), forall A in X (r(A, _) or p(A)).",
    "q(X) :- s(X), forall A in X (r(A, _), r(_, A)).",
    "q(X, Y) :- s(X), s(Y), forall A in X (A in Y, r(A, _)).",
]

ALLP = "s({a}). s({a, b}). s({}). p(a).\n" \
       "allp(X) :- s(X), forall A in X (p(A)).\n"

#: A negated conjunction with ``_``: Theorem 6's auxiliary would bind its
#: own variables, but its head would carry the ``_`` into two clauses.
NEGATED_ANONYMOUS = "q(X) :- s(X), not (r(X, _), p(X)).\n"
NEGATED_FACTS = "s(a). s(c). r(a, b). p(a). r(c, d).\n"


def model_lines(program, db=None):
    model = Evaluator(program, db, builtins=with_set_builtins()).run()
    return sorted(str(a) for a in model.interpretation)


class TestWhichRulesStayWhole:
    def test_examples_1_to_3_stay_as_written(self):
        p = parse_program(QUANT_RULES)
        rules = list(p.rules())
        assert len(rules) == 3 and all(isinstance(r, Rule) for r in rules)
        assert {r.head.pred for r in rules} == {"disj", "subset", "un"}
        assert set(p.predicates()) == {"disj", "subset", "un", "s", "neq"}

    def test_faithful_parse_still_builds_p_star(self):
        p = parse_program(QUANT_RULES, faithful=True)
        assert all(isinstance(c, LPSClause) for c in p.clauses)
        assert set(p.predicates()) > {"disj", "subset", "un", "s"}

    def test_bound_auxiliaries_compile_as_before(self):
        p = parse_program("q(X) :- r(X), (p(X) or t(X)).")
        assert all(isinstance(c, LPSClause) for c in p.clauses)
        assert len(p.clauses) == 3       # q :- r, n_or; two n_or clauses

    def test_a_prefix_body_is_one_lps_clause(self):
        (c,) = parse_program("sub(X, Y) :- forall A in X (A in Y).").clauses
        assert isinstance(c, LPSClause) and c.quantifiers

    def test_the_solver_answers_without_the_active_domain(self):
        p = parse_program(QUANT_RULES + "s({a}). s({b}). s({a, b}). s({}).")
        model = Evaluator(p, builtins=with_set_builtins()).run()
        assert model.report.stats.fallbacks == 0
        assert model.holds_str("un({a}, {b}, {a, b})")
        assert model.holds_str("disj({}, {})")
        assert not model.holds_str("disj({a}, {a, b})")
        assert len(model.relation("subset")) == 9


class TestTheProgramIsItsText:
    @pytest.mark.parametrize("text", ANONYMOUS_TEXTS)
    def test_anonymous_variables_round_trip(self, text):
        p = parse_program(text)
        assert parse_program(encode_program(p)) == p
        assert parse_program(pretty_program(p)) == p
        assert isinstance(p.clauses[0], Rule)

    def test_a_durable_service_loads_and_recovers_it(self, tmp_path):
        text = ANONYMOUS_TEXTS[0] + "\ns({a}). s({b}). s({}). r(a, c).\n"
        opts = dict(builtins=with_set_builtins(), fsync="never",
                    checkpoint_every=None)
        svc = QueryService(text, data_dir=tmp_path, **opts)
        try:
            before = sorted(str(a) for a in svc.model.current.interpretation)
            answer = svc.open_session().execute("?- q(X).")
            assert answer.ok and answer.data["rows"] == [
                {"X": "{}"}, {"X": "{a}"},
            ]
        finally:
            svc.shutdown()
        back = QueryService(text, data_dir=tmp_path, **opts)
        try:
            assert list(back.model.program.rules()) == list(
                parse_program(ANONYMOUS_TEXTS[0]).rules()
            )
            assert sorted(
                str(a) for a in back.model.current.interpretation
            ) == before
        finally:
            back.shutdown()

    def test_a_negated_conjunction_with_anonymous_variables(self, tmp_path):
        p = parse_program(NEGATED_ANONYMOUS + NEGATED_FACTS)
        assert [type(c) for c in p.rules()] == [Rule]
        assert parse_program(encode_program(p)) == p
        # The model Theorem 6's split gave, over the user's predicates.
        assert [line for line in model_lines(p) if line.startswith("q(")] \
            == ["q(a)", "q(c)"]
        opts = dict(fsync="never", checkpoint_every=None)
        text = NEGATED_ANONYMOUS + NEGATED_FACTS
        svc = QueryService(text, data_dir=tmp_path, **opts)
        try:
            before = sorted(str(a) for a in svc.model.current.interpretation)
        finally:
            svc.shutdown()
        back = QueryService(text, data_dir=tmp_path, **opts)
        try:
            assert list(back.model.program.rules()) == list(p.rules())
            assert sorted(
                str(a) for a in back.model.current.interpretation
            ) == before
        finally:
            back.shutdown()


class TestTheModelIsTheProgramsOwn:
    EXPECTED = [
        "allp({a}).", "allp({}).", "p(a).", "s({a, b}).", "s({a}).",
        "s({}).",
    ]

    def test_lps_run_prints_no_auxiliary(self, tmp_path, capsys):
        prog = tmp_path / "allp.lps"
        prog.write_text(ALLP)
        assert main(["run", str(prog)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(lines) == sorted(self.EXPECTED)

    def test_repl_model_prints_no_auxiliary(self, monkeypatch, capsys):
        lines = iter([*ALLP.split("\n")[:2], ":model", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        printed = [line for line in out.split("\n") if line.endswith(").")]
        assert sorted(printed) == sorted(self.EXPECTED)


class TestServedExamples:
    """Examples 1-3 as a maintained model: 40 seeded single-fact
    toggles over a small family of sets."""

    UNIVERSE = ["a", "b", "c", "d"]

    def family(self, rng):
        return [frozenset(rng.sample(self.UNIVERSE, rng.randint(0, 3)))
                for _ in range(12)]

    def test_every_version_equals_a_from_scratch_evaluation(self):
        rng = random.Random(7)
        pool = self.family(rng)
        start = set(pool[:5])
        db = Database()
        for s in start:
            db.add("s", s)
        rules = parse_program(QUANT_RULES)
        m = MaterializedModel(rules, db, builtins=with_set_builtins())
        assert m.model.report.stats.fallbacks == 0
        live = set(start)
        for _ in range(40):
            s = rng.choice(pool)
            if s in live:
                live.discard(s)
                report = m.retract("s", s)
            else:
                live.add(s)
                report = m.add("s", s)
            assert report.strategy == STRATEGY_INCREMENTAL, \
                report.fallback_reason
            assert report.fallback_reason is None
            # One group per rule, each recomputed.
            assert [(p.plan, p.reason) for p in report.stratum_plans] == \
                [(PLAN_RECOMPUTE, "restricted quantifier")] * 3
            fresh = Database()
            for t in live:
                fresh.add("s", t)
            assert sorted(str(a) for a in m.interpretation) == \
                model_lines(rules, fresh)


class TestStratification:
    def test_an_atom_under_not_is_a_negative_edge(self):
        p = parse_program("""
            r(X) :- s(X), forall A in X (not bad(A) or ok(A)).
            bad(A) :- flag(A).
        """)
        assert isinstance(p.rules().clauses[0], Rule)
        edges = set(p.dependency_edges())
        assert ("r", "bad", False) in edges
        assert ("r", "ok", True) in edges
        st = stratify(p)
        assert st.stratum_of["r"] > st.stratum_of["bad"]

    def test_negation_under_a_quantifier_is_stratified(self):
        p = parse_program("""
            s({a, b}). s({a}). s({}). flag(b).
            r(X) :- s(X), forall A in X (not bad(A)).
            bad(A) :- flag(A).
        """)
        assert model_lines(p) == sorted([
            "bad(b)", "flag(b)", "r({a})", "r({})", "s({a, b})", "s({a})",
            "s({})",
        ])


class TestFormulaGoals:
    GOAL = "s(X), forall A in X (p(A))"

    def test_a_formula_goal_answers_as_its_rule(self):
        with QueryService(ALLP) as svc:
            session = svc.open_session()
            rule = session.execute("?- allp(X).")
            goal = session.execute(f"?- {self.GOAL}.")
            assert goal.ok, goal.error
            assert goal.data["rows"] == rule.data["rows"] == [
                {"X": "{}"}, {"X": "{a}"},
            ]
            assert session.execute(f"?- {self.GOAL}, X = {{a}}.").data[
                "rows"] == [{"X": "{a}"}]

    def test_a_standing_formula_goal_is_evaluated_and_diffed(
        self, monkeypatch
    ):
        def no_delta_path(*args):
            raise AssertionError("a formula goal has no delta plan")

        monkeypatch.setattr(SubscriptionManager, "_delta_diff", no_delta_path)
        with QueryService(ALLP) as svc:
            session = svc.open_session()
            response = session.subscribe(f"{self.GOAL}.")
            assert response.ok, response.error
            assert sorted(map(tuple, response.data["rows"])) == [
                ("{a}",), ("{}",),
            ]
            svc.apply_delta(adds=[("p", "b")])
            assert svc.subscriptions.wait_caught_up(svc.model.version)
            (frame,) = session.take_push_frames()
            assert frame["adds"] == [["{a, b}"]] and frame["dels"] == []


class TestSplitGoals:
    """A goal whose body Theorem 6 would split into auxiliaries that bind
    their own variables is kept whole too, and answered as its rule."""

    PROGRAM = "r(a). r(b). r(c). p(a). t(b).\n" \
              "q(X) :- r(X), (p(X) or t(X)).\n"
    GOAL = "r(X), (p(X) or t(X))"

    def test_a_disjunctive_goal_answers_as_its_rule(self):
        with QueryService(self.PROGRAM) as svc:
            session = svc.open_session()
            rule = session.execute("?- q(X).")
            goal = session.execute(f"?- {self.GOAL}.")
            assert goal.ok, goal.error
            assert goal.data["rows"] == rule.data["rows"] == [
                {"X": "a"}, {"X": "b"},
            ]

    def test_a_standing_disjunctive_goal_is_evaluated_and_diffed(self):
        with QueryService(self.PROGRAM) as svc:
            session = svc.open_session()
            response = session.subscribe(f"{self.GOAL}.")
            assert response.ok, response.error
            assert sorted(map(tuple, response.data["rows"])) == [
                ("a",), ("b",),
            ]
            svc.apply_delta(adds=[("t", "c")], dels=[("p", "a")])
            assert svc.subscriptions.wait_caught_up(svc.model.version)
            (frame,) = session.take_push_frames()
            assert frame["adds"] == [["c"]] and frame["dels"] == [["a"]]
