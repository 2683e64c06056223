"""Cross-validation: the optimised engine against the brute-force ``T_P``.

The engine (joins, indexes, semi-naive, vacuous-branch handling — on every
forced path of ``tests/paths.py``) and the
reference operator (literal Lemma-4 grounding over an explicit finite
universe) are independent implementations of the same semantics.  On random
programs whose active domain we pin to a fixed universe, they must agree
exactly.  This is the strongest single guard against engine bugs.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from paths import same_on_every_path
from repro.core import (
    Atom,
    Program,
    atom,
    clause,
    const,
    equals,
    fact,
    horn,
    member,
    pos,
    setvalue,
    var_a,
    var_s,
)
from repro.engine import Evaluator
from repro.engine.builtins import default_builtins
from repro.semantics import Universe, least_fixpoint

x, y = var_a("x"), var_a("y")
X, Y = var_s("X"), var_s("Y")
a, b = const("a"), const("b")

#: All sets over {a, b}; facts below mention every one of them, so the
#: engine's active domain equals this fixed universe.
ALL_SETS = [
    setvalue([]), setvalue([a]), setvalue([b]), setvalue([a, b]),
]
UNIVERSE = Universe((a, b), tuple(ALL_SETS))

#: Inert facts pinning the active domain to the universe.
DOMAIN_FACTS = [fact(atom("dom", s)) for s in ALL_SETS] + [
    fact(atom("doma", a)), fact(atom("doma", b)),
]


def agree(program: Program):
    program = program.with_clauses(DOMAIN_FACTS)
    ref = least_fixpoint(program, UNIVERSE, max_rounds=80).interpretation
    engine = same_on_every_path(
        lambda options: Evaluator(
            program, builtins=default_builtins(), options=options
        ).run().interpretation
    )
    assert engine == ref, (
        f"engine disagrees with reference on:\n"
        f"{program.pretty()}\n"
        f"engine-only: {sorted(map(str, set(engine.atoms()) - set(ref.atoms())))}\n"
        f"ref-only: {sorted(map(str, set(ref.atoms()) - set(engine.atoms())))}"
    )


class TestHandPicked:
    def test_subset(self):
        agree(Program.of(
            clause(atom("subs", X, Y), [(x, X)], [member(x, Y)]),
        ))

    def test_disj(self):
        agree(Program.of(
            clause(atom("disj", X, Y), [(x, X), (y, Y)],
                   [pos(equals(x, x))]),  # degenerate: always true
        ))

    def test_vacuous_with_side_conjunct(self):
        agree(Program.of(
            fact(atom("p", a)),
            clause(atom("h", X, y), [(x, X)], [atom("qq", y), atom("p", x)]),
        ))

    def test_recursive_membership(self):
        agree(Program.of(
            fact(atom("seed", a)),
            horn(atom("reach", x), atom("seed", x)),
            horn(atom("reach", y), atom("reach", x), atom("dom", X),
                 member(x, X), member(y, X)),
        ))

    def test_equality_generation(self):
        agree(Program.of(
            fact(atom("p", a)),
            horn(atom("q", X), atom("dom", X), equals(X, setvalue([a]))),
        ))

    def test_set_constructor_head(self):
        from repro.core import SetExpr

        agree(Program.of(
            fact(atom("p", a)),
            fact(atom("p", b)),
            horn(Atom("mk", (SetExpr((x, y)),)), atom("p", x), atom("p", y)),
        ))


# -- random programs ----------------------------------------------------------

head_preds = st.sampled_from(["h1", "h2"])
body_preds = st.sampled_from(["h1", "h2", "dom", "doma", "p0"])
a_terms = st.sampled_from([a, b, x, y])
s_terms = st.sampled_from(ALL_SETS + [X, Y])


@st.composite
def random_literal(draw):
    kind = draw(st.sampled_from(["rel_a", "rel_s", "member", "equals"]))
    if kind == "rel_a":
        p = draw(st.sampled_from(["doma", "p0", "h1"]))
        return pos(atom(p, draw(a_terms)))
    if kind == "rel_s":
        return pos(atom("dom", draw(s_terms)))
    if kind == "member":
        return pos(member(draw(a_terms), draw(s_terms)))
    lhs = draw(a_terms)
    rhs = draw(a_terms)
    return pos(equals(lhs, rhs))


@st.composite
def random_clause(draw):
    head_kind = draw(st.sampled_from(["a", "s"]))
    if head_kind == "a":
        head = atom(draw(head_preds), draw(st.sampled_from([a, b, x])))
    else:
        head = atom(draw(head_preds), draw(st.sampled_from(ALL_SETS + [X])))
    body = [draw(random_literal()) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        try:
            return clause(head, [(y, draw(st.sampled_from([X] + ALL_SETS)))],
                          body)
        except Exception:
            pass
    return horn(head, *body)


@st.composite
def random_programs(draw):
    clauses = [fact(atom("p0", a))]
    # Keep head predicates sort-consistent: h1 gets 'a' args, h2 gets 's'.
    for _ in range(draw(st.integers(1, 3))):
        c = draw(random_clause())
        clauses.append(c)
    # Normalise arities/sorts: rebuild heads so h1:a, h2:s.
    fixed = []
    for c in clauses:
        if c.head.pred == "h1" and c.head.args[0].sort == "s":
            continue
        if c.head.pred == "h2" and c.head.args[0].sort == "a":
            continue
        fixed.append(c)
    return Program.of(*fixed)


@settings(max_examples=40, deadline=None)
@given(p=random_programs())
def test_engine_agrees_with_reference(p):
    try:
        p.predicates()
    except Exception:
        return  # arity clash in generated program: skip
    agree(p)
