"""A program's facts load as ID columns (DESIGN.md, "File facts are data").

Counts, not clocks.  Parsing and evaluating the transitive-closure rules
with 800 ``e`` facts and a few set-valued facts:

* builds no :class:`LPSClause` for a fact, and no :class:`Atom` beyond
  the one per fact group that sort inference reads, until something
  reads ``Program.clauses`` or ``Program.facts()``; then it builds each
  once, in source order;
* validates the program once, at parse time;
* notes nothing into the active domain, since no rule consults it; a
  rule that does builds it, noting each distinct term once, not once per
  occurrence.
"""

import pytest

from repro import parse_program
from repro.core import LPSClause, Program
from repro.core.atoms import Atom
from repro.engine import Evaluator
from repro.engine.evaluation import ActiveDomain
from repro.workloads import random_graph

TC_RULES = """\
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""

EDGES = random_graph(160, 800, seed=4)

SETS = "s({a, b}).\ns({c}).\nw(a, {b}).\nw(c, {}).\nv(d, 4).\n"

TEXT = TC_RULES + "".join(f"e({u}, {v}).\n" for u, v in EDGES) + SETS

FACT_PREDS = {"e", "s", "w", "v"}


@pytest.fixture
def constructions(monkeypatch):
    """Every ground ``Atom`` and every ``LPSClause`` with a ground head
    of a fact predicate built while the fixture is live, as ``"atom"`` or
    ``"clause"`` (rule atoms such as ``e(X, Y)`` are not facts)."""
    made = []
    atom_init, clause_init = Atom.__init__, LPSClause.__init__

    def atom(self, pred, args):
        atom_init(self, pred, args)
        if pred in FACT_PREDS and self.is_ground():
            made.append("atom")

    def clause(self, head, *args, **kwargs):
        clause_init(self, head, *args, **kwargs)
        if head.pred in FACT_PREDS and head.is_ground():
            made.append("clause")

    monkeypatch.setattr(Atom, "__init__", atom)
    monkeypatch.setattr(LPSClause, "__init__", clause)
    return made


def test_no_fact_becomes_an_atom_or_a_clause_until_read(constructions):
    program = parse_program(TEXT)
    model = Evaluator(program).run()
    # Sort inference reads the first fact of each group, as an atom.
    assert constructions == ["atom"] * 4
    assert len(program.fact_groups) == 4
    assert len(model.relation("e")) == len(EDGES)
    del constructions[:]
    # Read: each fact is built once, in source order, and kept.
    clauses = program.clauses
    assert len(clauses) == 2 + len(EDGES) + 5
    assert constructions.count("clause") == len(EDGES) + 5
    assert program.clauses is clauses
    assert [str(c) for c in clauses[2:4]] == [
        f"e({u}, {v})." for u, v in EDGES[:2]
    ]
    assert list(program.facts()) == [c.head for c in clauses[2:]]


def test_facts_read_without_clauses_build_atoms_only(constructions):
    program = parse_program(TEXT)
    del constructions[:]
    facts = list(program.facts())
    assert [str(a) for a in facts[-5:]] == [
        "s({a, b})", "s({c})", "w(a, {b})", "w(c, {})", "v(d, 4)",
    ]
    assert constructions == ["atom"] * (len(EDGES) + 5)


def test_a_load_validates_once(monkeypatch):
    calls = []
    validate = Program.validate

    def counted(self):
        calls.append(len(self))
        validate(self)

    monkeypatch.setattr(Program, "validate", counted)
    Evaluator(parse_program(TEXT)).run()
    assert calls == [2 + len(EDGES) + 5]


def test_each_term_is_noted_into_the_domain_once(monkeypatch):
    noted = []
    note_term = ActiveDomain.note_term

    def counted(self, t):
        noted.append(t)
        note_term(self, t)

    monkeypatch.setattr(ActiveDomain, "note_term", counted)
    model = Evaluator(parse_program(TEXT)).run()
    assert len(model.relation("t")) > len(EDGES)
    assert noted == []          # no rule consults the domain
    # ``X`` is left to the domain: the first consultation builds it.
    text = TEXT + "loopless(X) :- not e(X, X).\n"
    model = Evaluator(parse_program(text)).run()
    assert len(noted) == len(set(noted))
    nodes = {u for edge in EDGES for u in edge}
    assert nodes <= set(map(str, noted))
    assert {a for (a,) in model.relation("loopless")} >= nodes - {
        u for u, v in EDGES if u == v
    }


def test_fact_columns_are_the_clauses_a_clause_list_makes():
    """The parsed program equals the program built from its own clause
    list: same rules, fact groups and layout, so the same model."""
    program = parse_program(TEXT)
    rebuilt = Program(tuple(program.clauses))
    assert rebuilt == program and hash(rebuilt) == hash(program)
    assert [(g.pred, g.sorts, g.n) for g in program.fact_groups] == [
        ("e", "aa", len(EDGES)), ("s", "s", 2), ("w", "as", 2),
        ("v", "aa", 1),
    ]
    assert Evaluator(rebuilt).run().interpretation == \
        Evaluator(program).run().interpretation
