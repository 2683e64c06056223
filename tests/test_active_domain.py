"""The active domain is built only when a rule consults it.

Kuper's active-domain semantics (Definition 4) matters only to a rule
that leaves a variable for the domain to enumerate, and every such read
goes through ``ActiveDomain.carrier``/``carrier_size``.  The contracts:

* **a pass that consulted nothing is the last**: the range-restricted
  ``sets`` programs (Examples 1-3 and 6, the grouping program) and the
  closure take one pass and note nothing into the domain, although
  they derive new sets and numbers;
* **a pass that consulted repeats while the domain grows**: the
  Section 4.2 set construction and a program whose consulting stratum
  sees another stratum's numbers only in the next pass keep their
  models, on every ``tests/paths.py`` arm;
* **a domain built mid-pass holds what the pass derived before it**, so
  it needs no second pass to catch up;
* **maintenance keeps no domain**: a maintained model over the crash
  recovery program notes nothing through a bulk load and its commits,
  and recovery evaluates one pass;
* **provenance** builds the domain only for a step that consults it.
"""

import random

import pytest

from paths import PATHS, forced, same_on_every_path
from repro import parse_program
from repro.core import Program, atom, const, fact, horn, var_a
from repro.engine import Database, Evaluator, MaterializedModel
from repro.engine.evaluation import ActiveDomain
from repro.engine.setops import with_set_builtins
from repro.lang import parse_atom
from repro.storage import DurableModel
from repro.transform import setof_program
from repro.workloads import (
    CRASH_RECOVERY_PROGRAM,
    crash_recovery,
    random_graph,
)
from test_formula_rules import QUANT_RULES
from test_layer_costs import quant_family
from test_set_costs import parts_text

TC_RULES = """\
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""

#: ``<Y>`` grouping followed by an unnest (Example 4 read backwards).
NEST_RULES = """\
owns(K, <V>) :- r(K, V).
flat(K, V) :- owns(K, S), V in S.
"""


@pytest.fixture
def noted(monkeypatch):
    """Every term noted into any active domain while the fixture is live
    (each noting path ends in ``note_term``)."""
    terms = []
    note_term = ActiveDomain.note_term

    def counted(self, t):
        terms.append(t)
        note_term(self, t)

    monkeypatch.setattr(ActiveDomain, "note_term", counted)
    return terms


def run(text, db=None, options=None):
    return Evaluator(
        parse_program(text), db, builtins=with_set_builtins(),
        options=options,
    ).run()


# -- range-restricted programs: one pass, no domain ---------------------------


def tc_case():
    edges = random_graph(40, 120, seed=1)
    text = TC_RULES + "".join(f"e({u}, {v}).\n" for u, v in edges)
    closure = set(edges)
    while True:
        more = {(a, d) for a, b in closure for c, d in edges if b == c}
        if more <= closure:
            break
        closure |= more

    def check(model):
        assert model.relation("t") == closure
    return text, check


def quant_case():
    text = QUANT_RULES + "".join(
        "s({%s}).\n" % ", ".join(map(str, sorted(s))) for s in quant_family(1)
    )

    def check(model):
        assert len(model.interpretation) == 104
    return text, check


def parts_case():
    text, world = parts_text()

    def check(model):
        assert dict(model.relation("obj_cost")) == {
            p: world.expected[p] for p in world.parts
        }
    return text, check


def nest_case(rows=200, width=8):
    """The grouping program's shape: ``rows`` keys of ``width`` values."""
    rng = random.Random(1)
    pairs = {
        (f"k{i}", v) for i in range(rows)
        for v in rng.sample(range(1000, 1400), width)
    }
    text = NEST_RULES + "".join(f"r({k}, {v}).\n" for k, v in sorted(pairs))

    def check(model):
        assert model.relation("flat") == pairs
    return text, check


@pytest.mark.parametrize("case", [tc_case, quant_case, parts_case, nest_case],
                         ids=["tc", "quant", "parts", "nest"])
def test_a_program_that_consults_nothing_takes_one_pass(case, noted):
    """``parts`` derives numbers and ``nest`` sets, which grew the domain
    and cost a second pass while every derived term was noted."""
    text, check = case()
    model = run(text)
    check(model)
    assert model.report.stats.fallbacks == 0
    assert model.report.passes == 1
    assert noted == []


# -- consulting programs: passes while the domain grows -----------------------


a, b, c = const("a"), const("b"), const("c")

SETOF_BASES = {
    "two": (Program.of(fact(atom("a", a)), fact(atom("a", b))), {"a", "b"}),
    "one": (Program.of(fact(atom("a", a))), {"a"}),
    "derived": (Program.of(
        fact(atom("raw", a)), fact(atom("raw", c)),
        horn(atom("a", var_a("x")), atom("raw", var_a("x"))),
    ), {"a", "c"}),
}


@pytest.mark.parametrize("base", sorted(SETOF_BASES))
def test_the_set_construction_takes_its_second_pass(base):
    """Section 4.2's candidates are subsets the first pass derives; the
    construction consults them, so a second pass runs over them."""
    program, expected = SETOF_BASES[base]
    construction = setof_program("a", "b", base=program)

    def b_sets(options):
        model = Evaluator(
            construction, builtins=with_set_builtins(), options=options
        ).run()
        assert model.report.passes >= 2
        return {row[0] for row in model.relation("b")}

    assert same_on_every_path(b_sets) == {frozenset(expected)}


#: ``cand`` consults the domain for ``X``; ``nxt`` derives the next number
#: two strata higher, which ``cand`` sees in the next pass only.
CHAIN = """\
d(1). lim(4). nope(x).
cand(X) :- not nope(X).
grp(<X>) :- cand(X).
nxt(K) :- grp(S), X in S, d(D), X + D = K, lim(L), K <= L.
"""


@pytest.mark.parametrize("path", PATHS)
def test_each_pass_that_consults_is_counted(path):
    """Pass n's ``cand`` reaches the number pass n - 1 derived: four
    passes, each consulting the domain, until nothing new appears."""
    with forced(path) as options:
        model = run(CHAIN, options=options)
    assert model.report.passes == 4
    assert model.relation("cand") == {(1,), (2,), (3,), (4,)}
    assert model.relation("nxt") == {(2,), (3,), (4,)}


def test_a_domain_built_mid_pass_holds_what_the_pass_derived(noted):
    """``lacks`` consults the set carrier after ``owns`` derived its sets
    (and from a database, not the program): the domain built then holds
    them, so one pass gives the whole model."""
    db = Database()
    for k, v in (("k1", 1), ("k1", 2), ("k2", 3)):
        db.add("r", k, v)
    db.add("key", "k1")
    db.add("key", "k2")
    model = run(
        "owns(K, <V>) :- r(K, V).\n"
        "lacks(K, S) :- key(K), not owns(K, S).\n", db,
    )
    assert model.relation("lacks") == {
        ("k1", frozenset()), ("k1", frozenset({3})),
        ("k2", frozenset()), ("k2", frozenset({1, 2})),
    }
    assert model.report.passes == 1
    assert len(noted) == len(set(noted))


# -- maintenance and recovery -------------------------------------------------


def plan_facts(specs):
    db = Database()
    for spec in specs:
        db.add(*spec)
    return db


def test_a_maintained_model_keeps_no_domain(noted):
    plan = crash_recovery(n_batches=20, seed=5)
    program = parse_program(CRASH_RECOVERY_PROGRAM)
    builtins = with_set_builtins()
    m = MaterializedModel(program, builtins=builtins)
    m.apply_delta(adds=plan.initial_facts)      # the bulk load
    for batch in plan.batches:
        m.apply_delta(adds=batch.adds, dels=batch.dels)
        scratch = Evaluator(program, m.database, builtins).run()
        assert m.interpretation == scratch.interpretation
        assert scratch.report.passes == 1
    assert len(plan.batches) == 20
    assert noted == []


def test_recovery_evaluates_one_pass(tmp_path, monkeypatch):
    """``succ(X, <Y>)`` derives sets: recovery's one evaluation was two
    passes while derived terms grew the domain."""
    plan = crash_recovery(n_batches=20, seed=5)
    opts = dict(builtins=with_set_builtins(), fsync="never",
                checkpoint_every=None)
    m = DurableModel(
        parse_program(CRASH_RECOVERY_PROGRAM), tmp_path,
        plan_facts(plan.initial_facts), **opts,
    )
    for batch in plan.batches:
        m.apply_delta(adds=batch.adds, dels=batch.dels)
    live = m.current.interpretation.sorted_atoms()
    m.close()
    passes = []
    real = Evaluator.run

    def counted(self):
        model = real(self)
        passes.append(model.report.passes)
        return model
    monkeypatch.setattr(Evaluator, "run", counted)
    recovered = DurableModel.recover(tmp_path, **opts)
    try:
        assert passes == [1]
        assert recovered.current.interpretation.sorted_atoms() == live
    finally:
        recovered.close()


# -- provenance ---------------------------------------------------------------


def test_explain_builds_no_domain_for_a_closure(noted):
    text, _ = tc_case()
    model = run(text)
    for t in sorted(model.interpretation.facts_of("t"), key=str)[:20]:
        assert model.explain(t).atom == t
    assert noted == []


def test_explain_builds_the_domain_for_a_step_that_consults_it(noted):
    model = run("s({1}). s({2}). q(X) :- s(X), not member(A, X), s(Z).\n")
    before = len(noted)
    assert model.explain(parse_atom("q({1})")).children
    assert len(noted) > before
