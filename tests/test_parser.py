"""Tests for the lexer, parser and sort inference."""

import pytest

from repro.core import (
    EMPTY_SET,
    App,
    Const,
    GroupingClause,
    LPSClause,
    ParseError,
    SetValue,
    SortError,
    Var,
)
from repro.core.sorts import SORT_A, SORT_S
from repro.lang import parse_atom, parse_program, parse_term, tokenize


class TestLexer:
    def test_token_kinds(self):
        toks = tokenize("p(X, a, 42) :- q. % comment\n")
        kinds = [t.kind for t in toks]
        assert kinds == ["IDENT", "PUNCT", "VARIABLE", "PUNCT", "IDENT",
                         "PUNCT", "INT", "PUNCT", "PUNCT", "IDENT",
                         "PUNCT", "EOF"]

    def test_keywords(self):
        toks = tokenize("forall exists in not or and true")
        assert all(t.kind == "KEYWORD" for t in toks[:-1])

    def test_directive(self):
        toks = tokenize("#elps")
        assert toks[0].kind == "DIRECTIVE" and toks[0].text == "elps"

    def test_quoted_constant(self):
        toks = tokenize("'Hello World'")
        assert toks[0].kind == "STRING"

    def test_unterminated_quote(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_positions(self):
        toks = tokenize("p.\nq.")
        assert toks[2].line == 2

    def test_bad_character(self):
        with pytest.raises(ParseError):
            tokenize("p :- q @ r.")


class TestTerms:
    def test_constants(self):
        assert parse_term("a") == Const("a")
        assert parse_term("42") == Const(42)
        assert parse_term("'weird name'") == Const("weird name")

    def test_variable_untyped(self):
        t = parse_term("Xs")
        assert isinstance(t, Var) and t.sort == "u"

    def test_function_term(self):
        t = parse_term("f(a, g(b))")
        assert t == App("f", (Const("a"), App("g", (Const("b"),))))

    def test_set_term_canonical(self):
        t = parse_term("{a, b, a}")
        assert isinstance(t, SetValue) and len(t) == 2

    def test_empty_set(self):
        assert parse_term("{}") == EMPTY_SET

    def test_function_of_set_rejected(self):
        with pytest.raises(ParseError):
            parse_term("f({a})")


class TestAtoms:
    def test_atom_with_set(self):
        a = parse_atom("disj({1, 2}, {3})")
        assert a.pred == "disj"
        assert isinstance(a.args[0], SetValue)

    def test_propositional_atom(self):
        assert parse_atom("go").pred == "go"

    def test_operators(self):
        assert parse_atom("X = Y").pred == "="
        assert parse_atom("X != Y").pred == "neq"
        assert parse_atom("X in Y").pred == "in"
        assert parse_atom("X < Y").pred == "lt"


class TestPrograms:
    def test_facts_and_rules(self):
        p = parse_program("e(a, b). t(X, Y) :- e(X, Y).")
        assert len(p.clauses) == 2
        assert all(isinstance(c, LPSClause) for c in p.clauses)

    def test_prefix_quantifiers_stay_native(self):
        p = parse_program(
            "disj(X, Y) :- forall A in X (forall B in Y (A != B))."
        )
        (c,) = p.clauses
        assert isinstance(c, LPSClause)
        assert len(c.quantifiers) == 2

    def test_non_prefix_body_compiles_via_theorem6(self):
        p = parse_program(
            "p(X) :- q(X) or r(X)."
        )
        assert len(p.clauses) >= 3  # two aux clauses + the head clause
        assert all(isinstance(c, LPSClause) for c in p.clauses)

    def test_grouping_clause(self):
        p = parse_program("bom(P, <C>) :- component(P, C).")
        (g,) = p.clauses
        assert isinstance(g, GroupingClause)
        assert g.group_pos == 1

    def test_grouping_requires_body(self):
        with pytest.raises(ParseError):
            parse_program("bom(P, <C>).")

    def test_two_grouped_args_rejected(self):
        with pytest.raises(ParseError):
            parse_program("g(<A>, <B>) :- p(A, B).")

    def test_arithmetic_sugar(self):
        p = parse_program("s(K) :- n(M), n(N), M + N = K.")
        (c,) = [c for c in p.clauses if c.head.pred == "s"]
        body_preds = [l.atom.pred for l in c.body]
        assert "plus" in body_preds

    def test_nested_arithmetic_flattens(self):
        p = parse_program("s(K) :- n(M), M + 2 * M = K.")
        (c,) = [c for c in p.clauses if c.head.pred == "s"]
        body_preds = [l.atom.pred for l in c.body]
        assert "times" in body_preds and "plus" in body_preds

    def test_negation(self):
        p = parse_program("p(X) :- q(X), not r(X).")
        (c,) = p.clauses
        assert any(not l.positive for l in c.body)

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_program("p(a)")

    def test_elps_directive(self):
        p = parse_program("#elps\np({{a}}).")
        assert p.mode == "elps"

    def test_nested_set_rejected_in_lps(self):
        with pytest.raises(SortError):
            parse_program("p({{a}}).")

    def test_semicolon_disjunction(self):
        p = parse_program("p(X) :- q(X); r(X).")
        heads = [c.head.pred for c in p.clauses]
        assert heads.count("p") >= 1


class TestSortInference:
    def sorts_of(self, source, pred):
        p = parse_program(source)
        for c in p.lps_clauses():
            if c.head.pred == pred:
                return tuple(a.sort for a in c.head.args)
        raise AssertionError(f"no clause for {pred}")

    def test_membership_constrains(self):
        assert self.sorts_of("p(X, Y) :- X in Y.", "p") == (SORT_A, SORT_S)

    def test_quantifier_constrains(self):
        src = "p(X) :- forall A in X (q(A))."
        assert self.sorts_of(src, "p") == (SORT_S,)

    def test_propagation_through_predicates(self):
        src = """
            base(S) :- E in S.
            derived(T) :- base(T).
        """
        assert self.sorts_of(src, "derived") == (SORT_S,)

    def test_equality_links_sides(self):
        src = "p(X, Y) :- X = Y, E in X."
        assert self.sorts_of(src, "p") == (SORT_S, SORT_S)

    def test_builtin_signatures(self):
        src = "p(X, N) :- card(X, N)."
        assert self.sorts_of(src, "p") == (SORT_S, SORT_A)

    def test_default_sort_is_a(self):
        assert self.sorts_of("p(X) :- q(X).", "p") == (SORT_A,)

    def test_conflict_detected(self):
        with pytest.raises(SortError):
            parse_program("p(X) :- X in X.")

    def test_set_literal_constrains(self):
        src = "p(X) :- X = {a}."
        assert self.sorts_of(src, "p") == (SORT_S,)

    def test_grouped_position_is_set_downstream(self):
        src = """
            bom(P, <C>) :- component(P, C).
            big(P) :- bom(P, S), card(S, N), N > 2.
        """
        p = parse_program(src)
        (big,) = [c for c in p.lps_clauses() if c.head.pred == "big"]
        (bom_lit,) = [l for l in big.body if l.atom.pred == "bom"]
        assert bom_lit.atom.args[1].sort == SORT_S


# -- the fact lexeme ------------------------------------------------------------
#
# At a statement start the lexer reads a flat ground fact as one FACT token
# that carries its built atom; everything else takes recursive descent.
# ``p(..) :- true.`` is never a fact lexeme, so writing each fact that way
# compares the two paths with no switch between them.

from collections import Counter  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core import LPSError  # noqa: E402
from repro.core.atoms import atom_order_key  # noqa: E402
from repro.engine import Evaluator  # noqa: E402
from repro.lang import pretty_program  # noqa: E402
from repro.lang.parser import Parser  # noqa: E402
from repro.lang.sortinfer import SortInference  # noqa: E402
from repro.transform.fresh import FreshNames  # noqa: E402
from repro.workloads import random_graph  # noqa: E402

#: Names the lexeme takes (weighted 4:1) and names it must leave to
#: recursive descent: keywords, variables, non-ASCII identifiers and digits.
_NAMES = st.sampled_from(4 * ["a", "b_1", "zZ9", "item"] + [
    "in", "not", "true", "Var", "_x", "é", "ab\u0301", "a²", "x١", "中", "²",
])
_TEXT = st.text(alphabet="az AZ09'%{},.:-_é\u0301²١中\t\n", max_size=6)
_SCALARS = st.one_of(
    _NAMES,
    st.integers(-120, 120).map(str),
    _TEXT.map(lambda s: "'" + s.replace("'", "''") + "'"),
)
_SEP = st.sampled_from([", ", ",", " , ", ",\t"])


@st.composite
def _set_texts(draw, elems):
    items = draw(st.lists(elems, max_size=3))
    return "{" + draw(_SEP).join(items) + "}"


_FLAT = _set_texts(_SCALARS)
_ARGS = st.one_of(_SCALARS, _FLAT, _set_texts(st.one_of(_SCALARS, _FLAT)))
#: Predicates with fixed arities (so most draws are valid programs), and
#: less often a keyword, a variable or a non-ASCII name as the predicate.
_ARITY = {"p": 1, "q2": 2, "e_x": 2, "zero": 0, "s": 1,
          "true": 1, "Up": 1, "_u": 1, "né": 1}
_PREDS = st.sampled_from(
    4 * ["p", "q2", "e_x", "zero", "s"] + ["true", "Up", "_u", "né"]
)


@st.composite
def _fact_texts(draw):
    pred = draw(_PREDS)
    arity = _ARITY[pred]
    if not arity:
        return pred
    args = [draw(_ARGS) for _ in range(arity)]
    return f"{pred}({draw(_SEP).join(args)})"


def _model(program):
    """The evaluated model as sorted atoms."""
    return sorted(Evaluator(program).run().interpretation, key=atom_order_key)


def _outcome(parse, text):
    try:
        return parse(text)
    except LPSError as exc:
        return type(exc), str(exc)


class TestFactLexeme:
    @settings(max_examples=300, deadline=None)
    @given(facts=st.lists(_fact_texts(), min_size=1, max_size=5))
    def test_facts_parse_as_general_rules(self, facts):
        """Same program, same printed text and same model, whether each
        fact is a ``FACT`` lexeme (ID rows) or a general clause."""
        lexeme = "\n".join(f"{f}." for f in facts)
        general = "\n".join(f"{f} :- true." for f in facts)
        fast = _outcome(parse_program, lexeme)
        assert fast == _outcome(parse_program, general)
        if isinstance(fast, tuple):
            return
        slow = parse_program(general)
        assert pretty_program(fast) == pretty_program(slow)
        assert _model(fast) == _model(slow)

    @settings(max_examples=300, deadline=None)
    @given(text=_fact_texts())
    def test_atoms_parse_as_parenthesised(self, text):
        direct = _outcome(parse_atom, text)
        wrapped = _outcome(parse_atom, "(" + text + ")")
        if isinstance(direct, tuple):       # the column differs by the '('
            assert isinstance(wrapped, tuple) and wrapped[0] is direct[0]
        else:
            assert direct == wrapped

    def test_set_facts_canonicalise(self):
        (c,) = parse_program("s({b, a, b}).").clauses
        assert c.head.args == (parse_term("{a, b}"),)
        assert parse_atom("s({ }, -7, 'it''s')").args == (
            EMPTY_SET, Const(-7), Const("it's"),
        )

    def test_keyword_tokens_unchanged(self):
        toks = tokenize("p(a).\nq :- p(a).")
        assert [t.kind for t in toks] == [
            "FACT", "PUNCT", "IDENT", "PUNCT", "IDENT", "PUNCT", "IDENT",
            "PUNCT", "PUNCT", "EOF",
        ]
        assert (toks[1].line, toks[1].column) == (1, 5)

    def test_multiline_quote_advances_line(self):
        with pytest.raises(ParseError) as info:
            parse_program("p('two\nlines').\nq(b).\nr(@).")
        assert (info.value.line, info.value.column) == (4, 3)

    @pytest.mark.parametrize("text, column", [
        ("p(²)", 3), ("p(١)", 3), ("p(1٣)", 4), ("p(½)", 3),
    ])
    def test_integers_are_ascii(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_atom(text)
        assert (info.value.line, info.value.column) == (1, column)
        assert "unexpected character" in str(info.value)
        with pytest.raises(ParseError):
            parse_program(text + ".")


#: Malformed inputs with the error text, line and column recorded from the
#: recursive-descent front end before the fact lexeme existed.
MALFORMED_PROGRAMS = [
    ('p(a', "1:4: expected ')', found 'EOF'", 1, 4),
    ('p(a).\nq(b', "2:4: expected ')', found 'EOF'", 2, 4),
    ('p(a, ).', "1:6: expected a term, found ')'", 1, 6),
    ('p().', "1:3: expected a term, found ')'", 1, 3),
    ('p(a) q(b).', "1:6: expected '.', found 'q'", 1, 6),
    ('p(a)..', "1:6: expected 'IDENT', found '.'", 1, 6),
    ('p(a).\n.', "2:1: expected 'IDENT', found '.'", 2, 1),
    ('p(true).', "1:3: expected a term, found 'true'", 1, 3),
    ('true.', "1:1: expected 'IDENT', found 'true'", 1, 1),
    ('in(a).', "1:1: expected 'IDENT', found 'in'", 1, 1),
    ("p(a, 'oops).", '1:6: unterminated quoted constant', 1, 6),
    ("p('a''b').\nq('x).", '2:3: unterminated quoted constant', 2, 3),
    ("p('line\none').\nq(@).", "3:3: unexpected character '@'", 3, 3),
    ('p(a) :- q(b).\n  r(c) @', "2:8: unexpected character '@'", 2, 8),
    ('p(12ab).', "1:5: expected ')', found 'ab'", 1, 5),
    ('p(1 2).', "1:5: expected ')', found '2'", 1, 5),
    ('p({a, {b}, ).', "1:12: expected a term, found ')'", 1, 12),
    ('p({a b}).', "1:6: expected '}', found 'b'", 1, 6),
    ('p(a),\nq(b).', "1:5: expected '.', found ','", 1, 5),
    ('p(- a).', "1:3: expected a term, found '-'", 1, 3),
    ('p(a) :- .', "1:9: expected a term, found '.'", 1, 9),
    ('#', "1:1: empty directive after '#'", 1, 1),
    ('# elps\np(a).', "1:1: empty directive after '#'", 1, 1),
    ('p(a).\n:- q(b).', "2:1: expected 'IDENT', found ':-'", 2, 1),
    ('P(a).', "1:1: expected 'IDENT', found 'P'", 1, 1),
    ('_p(a).', "1:1: expected 'IDENT', found '_p'", 1, 1),
    ('p(a).%c\nq(b) r.', "2:6: expected '.', found 'r'", 2, 6),
    ('p(\ta,\t).', "1:7: expected a term, found ')'", 1, 7),
    ('p(a)\n.\nq(', "3:3: expected a term, found 'EOF'", 3, 3),
    ('p(<X>).', '1:1: grouping clause requires a body', 1, 1),
    ('p(X, <Y>).', '1:1: grouping clause requires a body', 1, 1),
    ('p(1 + 2).', "1:5: expected ')', found '+'", 1, 5),
    ('p(f({a})).', "1:3: function 'f' applied to a set-sorted argument {a}; "
     "function symbols take sort-'a' arguments only", 1, 3),
    ('p(a)\r\n.q(b', "2:5: expected ')', found 'EOF'", 2, 5),
]

MALFORMED_ATOMS = [
    ('p(a', "1:4: expected ')', found 'EOF'", 1, 4),
    ('p(a).', '1:5: trailing input after atom', 1, 5),
    ('p(a) q', '1:6: trailing input after atom', 1, 6),
    ('p(true)', "1:3: expected a term, found 'true'", 1, 3),
    ('true', "'true' is not a single atom", 0, 0),
    ('p(a, )', "1:6: expected a term, found ')'", 1, 6),
    ('p({a)', "1:5: expected '}', found ')'", 1, 5),
    ('X', '1:2: X is not an atom', 1, 2),
    ('', "1:1: expected a term, found 'EOF'", 1, 1),
    ('p(1.5)', "1:4: expected ')', found '.'", 1, 4),
]


@pytest.mark.parametrize(
    "parse, text, message, line, column",
    [(parse_program, *row) for row in MALFORMED_PROGRAMS]
    + [(parse_atom, *row) for row in MALFORMED_ATOMS],
)
def test_malformed_input_errors_unchanged(parse, text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (str(info.value), info.value.line, info.value.column) == (
        message, line, column,
    )


TC_RULES = """\
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""


def test_facts_skip_descent_sorting_and_fresh_names(monkeypatch):
    """Counts, not clocks: a fact costs no recursive descent, no Theorem 6
    bookkeeping, and one sort constraint per predicate and sort pattern."""
    calls = Counter()

    def count(cls, name):
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    for cls, name in [(Parser, "_parse_head"), (Parser, "_parse_expr_term"),
                      (FreshNames, "__init__"),
                      (SortInference, "constrain_atom")]:
        count(cls, name)
    parse_program(TC_RULES)
    rules_only = Counter(calls)
    calls.clear()
    facts = "".join(f"e({u}, {v}).\n" for u, v in random_graph(160, 800))
    shapes = "s({a, b}).\ns({c}).\nw(a, {b}).\nw(c, {}).\nv(d, 4).\n"
    p = parse_program(TC_RULES + facts + shapes)
    assert len(p.clauses) == 2 + 800 + 5
    assert calls["_parse_head"] == rules_only["_parse_head"] == 2
    assert calls["_parse_expr_term"] == rules_only["_parse_expr_term"]
    assert calls["__init__"] == rules_only["__init__"] == 0
    # e(a, a), s(s), w(a, s), v(a, a): four shapes, each pinned once.
    assert calls["constrain_atom"] == rules_only["constrain_atom"] + 4
    with pytest.raises(SortError, match="clause 808"):
        parse_program(TC_RULES + facts + shapes + "e(a, {b}).\n")
