"""Goal shapes: a served goal is planned once per shape, not per text.

A session keys its compiled goals on the goal's *shape*
(:func:`repro.lang.goal_shape`): the token sequence with each argument
constant a typed slot and each variable renamed by first occurrence.  A
text of a known shape runs its shape's plan with its own constants bound
at execution.  The contracts:

* **Equivalence** — every answer line is byte-identical to the line of a
  session whose caches are cleared before every goal, on every arm of
  ``tests/paths.py``, across shapes that share and shapes that must not
  share a plan (set literals, signed numbers, ``_``), errors included.
* **Once per shape** — fresh texts of known shapes parse and plan nothing.
* **No cross-talk** — standing queries of one shape with different
  constants each get only their own diffs.

Also here: ``_`` is an anonymous variable (each one its own), and a goal
takes exactly one trailing dot.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.evaluation as evaluation
import repro.server.session as session_mod
from paths import PATHS, forced
from repro import parse_program
from repro.engine import Database, solve
from repro.engine.setops import with_set_builtins
from repro.lang import goal_shape, pretty_program
from repro.server import E_EVAL, E_PARSE, E_UNSAFE, QueryService
from repro.storage import DurableModel
from repro.storage.codec import encode_program

PROGRAM = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
succ(X, <Y>) :- e(X, Y).
"""

NODES = ["v0", "v1", "v2", "v3", "v4"]

EDGES = [("v0", "v1"), ("v1", "v2"), ("v2", "v0"), ("v2", "v3"),
         ("v3", "v3"), ("v0", "in"), ("in", "v4")]


def database():
    db = Database()
    for u, v in EDGES:
        db.add("e", u, v)
    for i, n in enumerate(NODES):
        db.add("w", n, i % 3)
    db.add_atom(parse_program("sf({v0}).").clauses[0].head)
    db.add_atom(parse_program("sf({v1, v2}).").clauses[0].head)
    db.add("v1")
    return db


def service():
    return QueryService(PROGRAM, database=database())


#: Goal templates: ``{c0}``/``{c1}`` name constants (``{n0}``: ``{c0}``
#: unquoted), ``{i0}`` an integer, ``{V0}``/``{V1}`` variables.
TEMPLATES = [
    "t({c0}, {c1})",                          # read_serve: point
    "t({c0}, {V0})",                          # prefix
    "t({c0}, {V0}), e({V0}, {V1})",           # join
    "succ({c0}, {V0}), {V1} in {V0}",         # set-valued
    "t({V0}, {V1})",                          # scan
    "t({c0}, {c0})",                          # a repeated constant
    "t({V0}, {V0})",                          # a repeated variable
    "t({V1}, {V0}), e({V0}, {V1})",           # names against occurrence
    "w({V0}, {i0})",                          # an integer
    "t({V0}, {V1}), {V0} != {c0}",
    "t({V0}, {V1}), not e({V0}, {c0})",
    "{V0} = {c0}, t({V0}, {V1})",
    "{c0} = {V0}, e({V0}, {c1})",
    "succ({c0}, {V0}), card({V0}, {i0})",
    "t({c0}, {V0}), sf({{{c0}}})",            # the set-literal trap
    "sf({{{c0}, {c1}}})",
    "w({V0}, -{i0})",                         # a signed number
    "t(_, {V0})",
    "t({c0}, _), e(_, {c0})",
    "t(_, _)",
    "'{n0}', t({c0}, {V0})",                  # a constant as a predicate
    "{V0} != {c0}",                           # unsafe: names its variable
    "succ({c0}, {c1})",                       # ill-sorted
]

#: ``in`` and ``not`` must be quoted; the others are quoted at random.
CONSTANTS = NODES + ["in", "not"]
VARIABLES = ["X", "Y", "Z", "A", "B", "S", "Xs", "_Q", "M1"]


@st.composite
def goals(draw):
    template = draw(st.sampled_from(TEMPLATES))
    names = [draw(st.sampled_from(CONSTANTS)) for _ in range(2)]
    consts = []
    for c in names:
        quoted = c in ("in", "not") or draw(st.booleans())
        consts.append(f"'{c}'" if quoted else c)
    v0, v1 = draw(st.lists(
        st.sampled_from(VARIABLES), min_size=2, max_size=2, unique=True
    ))
    i0 = draw(st.integers(0, 3))
    return template.format(
        c0=consts[0], c1=consts[1], n0=names[0], i0=i0, V0=v0, V1=v1
    )


class TestEquivalence:
    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=30, deadline=None)
    @given(texts=st.lists(goals(), min_size=1, max_size=12))
    def test_lines_match_a_session_that_forgets(self, path, texts):
        """... and a session that compiles every text on its own, with
        its constants in the plan (no shapes, no Params)."""
        with forced(path):
            svc = service()
            try:
                cached = svc.open_session()
                fresh = svc.open_session()
                alone = svc.open_session()
                for text in texts + texts:
                    fresh._texts.clear()
                    fresh._shapes.clear()
                    want = fresh.execute(f"?- {text}.").to_json()
                    assert cached.execute(f"?- {text}.").to_json() == want
                    with mock.patch.object(
                        session_mod, "goal_shape", lambda text: None
                    ):
                        assert alone.execute(f"?- {text}.").to_json() == want
            finally:
                svc.shutdown()

    def test_the_set_literal_trap(self):
        with service() as svc:
            s = svc.open_session()
            a = s.execute("?- t(v0, X), sf({v0}).")
            c = s.execute("?- t(v3, X), sf({v3}).")
            assert a.data["rows"] and not c.data["rows"]
            assert goal_shape("t(a, X), sf({a})")[0] \
                != goal_shape("t(c, X), sf({c})")[0]

    def test_a_constant_that_is_also_a_predicate_is_no_slot(self):
        with service() as svc:
            s = svc.open_session()
            assert s.execute("?- 'v1', t(v1, X).").data["truth"]
            assert not s.execute("?- 'v3', t(v3, X).").data["truth"]
            assert s.execute("?- 'v1', t('v1', X).").data["truth"]

    def test_shapes_keep_the_pattern_of_equal_constants(self):
        with service() as svc:
            s = svc.open_session()
            assert s.execute("?- t(v3, v3).").data["truth"]
            assert not s.execute("?- t(v3, v4).").data["truth"]
            assert s.execute("?- t(v0, v0).").data["truth"]
            assert len(s._shapes) == 2


class TestOncePerShape:
    def test_fresh_texts_parse_and_plan_once_per_shape(self, monkeypatch):
        parses, plans = [], []
        real_parse = session_mod.parse_program
        real_compile = evaluation.compile_rule

        def parse(*args, **kw):
            parses.append(args[0])
            return real_parse(*args, **kw)

        def compile_rule(*args, **kw):
            if args[0].head.pred == session_mod.QUERY_PRED:
                plans.append(args[0])
            return real_compile(*args, **kw)

        monkeypatch.setattr(session_mod, "parse_program", parse)
        monkeypatch.setattr(evaluation, "compile_rule", compile_rule)
        shapes = [
            "t({a}, {b})",
            "t({a}, X{k})",
            "t({a}, Y{k}), e(Y{k}, Z{k})",
            "succ({a}, S{k}), M{k} in S{k}",
        ]
        with service() as svc:
            s = svc.open_session()
            for k in range(50):
                for shape in shapes:
                    a, b = NODES[k % 5], NODES[(k // 5) % 5]
                    text = shape.format(a=f"'{a}{k}'", b=b, k=k)
                    assert s.execute(f"?- {text}.").ok
            assert len(s._texts) == 200
        assert len(parses) == 4 and len(plans) == 4

    def test_an_ill_sorted_goal_errors_on_every_text(self):
        with service() as svc:
            s = svc.open_session()
            for c in NODES:
                r = s.execute(f"?- succ(v0, {c}).")
                assert r.code == E_EVAL and "sort conflict" in r.error
            assert not s._shapes and not s._texts

    def test_an_unsafe_goal_names_each_texts_own_variable(self):
        with service() as svc:
            s = svc.open_session()
            for v, c in [("X", "v0"), ("Y", "v1"), ("Zed", "v2")]:
                r = s.execute(f"?- {v} != {c}.")
                assert r.code == E_UNSAFE
                assert f"'{v}'" in r.error and f"neq({v}, {c})" in r.error

    def test_a_program_change_retypes_known_shapes(self):
        with service() as svc:
            s = svc.open_session()
            assert s.execute("?- p(v0, S), M in S.").data["rows"] == []
            s.execute("p(X, <Y>) :- e(X, Y).")
            assert s.execute("?- p(v1, S), M in S.").data["rows"] \
                == [{"M": "v2", "S": "{v2}"}]

    def test_an_asserted_set_fact_no_rule_reads_is_typed_by_the_edb(self):
        with QueryService("q(X) :- r(X).") as svc:
            s = svc.open_session()
            assert s.execute("+sf({a, b}).").data == {"applied": 1}
            r = s.execute("?- sf(S).")
            assert r.data["truth"] and r.data["rows"] == [{"S": "{a, b}"}]
            assert len(s.execute("?- sf(S), X in S.").data["rows"]) == 2


class TestSubscriptions:
    def test_one_shape_two_constants_two_diff_streams(self):
        with service() as svc:
            s = svc.open_session()
            a = s.execute(":subscribe t(v4, X).")
            b = s.execute(":subscribe t(v3, Y).")
            assert a.data["vars"] == ["X"] and b.data["vars"] == ["Y"]
            assert a.data["rows"] == [] and b.data["rows"] == [["v3"]]
            assert s.execute("+e(v4, n1).").ok
            assert svc.subscriptions.wait_caught_up(svc.model.version)
            assert s.execute("+e(v3, n2).").ok
            assert svc.subscriptions.wait_caught_up(svc.model.version)
            frames = {}
            for f in s.take_push_frames():
                frames.setdefault(f["sub"], []).append(
                    (f["vars"], f["adds"], f["dels"])
                )
            sa, sb = a.data["sub"], b.data["sub"]
            assert frames[sa] == [(["X"], [["n1"]], [])]
            assert frames[sb] == [(["Y"], [["n2"]], [])]


class TestTrailingDots:
    def test_a_goal_takes_exactly_one_dot(self):
        with service() as svc:
            s = svc.open_session()
            assert s.execute("?- t(v0, X).").ok
            assert s.execute("?- t(v0, X)..").code == E_PARSE
            assert s.execute(":subscribe t(v0, X).").ok
            assert s.execute(":subscribe t(v0, X)...").code == E_PARSE
            assert s.execute("+e(b, c)..").code == E_PARSE

    def test_the_repl_takes_exactly_one_dot(self, monkeypatch, capsys):
        from repro.repl.cli import main

        lines = iter(["e(a, b).", "?- e(a, X).", "?- e(a, X)..", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        captured = capsys.readouterr()
        assert "X = b" in captured.out
        assert captured.err.count("error") == 1


class TestAnonymousVariables:
    def test_each_underscore_is_its_own_variable(self):
        model = solve(parse_program("e(a, b).\nq :- e(_, _)."))
        assert "q" in {a.pred for a in model.interpretation}

    def test_goals(self):
        with QueryService("t(a, b).") as svc:
            s = svc.open_session()
            r = s.execute("?- t(_, _).")
            assert r.data["truth"] and r.data["vars"] == []
            r = s.execute("?- t(_, X).")
            assert r.data["vars"] == ["X"] and r.data["rows"] == [{"X": "b"}]
            r = s.execute("?- t(_1, _).")
            assert r.data["vars"] == ["_1"] and r.data["rows"] == [{"_1": "a"}]

    def test_a_program_with_underscores_round_trips(self, tmp_path):
        source = "e(a, b).\nq :- e(_, _).\nr(X) :- e(X, _), not e(X, X).\n"
        program = parse_program(source)
        assert "e(_, _)" in pretty_program(program)
        assert parse_program(encode_program(program)) == program
        m = DurableModel(
            program, tmp_path, Database(), builtins=with_set_builtins(),
            fsync="never", checkpoint_every=None,
        )
        m.replace_program(parse_program(source + "s :- e(_, b).\n"))
        m.apply_delta(adds=parse_program("e(b, c).").facts(), dels=[])
        want = sorted(str(a) for a in m.current.interpretation)
        m.close()
        back = DurableModel.recover(
            tmp_path, builtins=with_set_builtins(), fsync="never",
            checkpoint_every=None,
        )
        try:
            assert back.program == m.program
            assert sorted(str(a) for a in back.current.interpretation) == want
            assert {"q", "s", "r(a)"} <= set(want)
        finally:
            back.close()
