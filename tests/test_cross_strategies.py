"""Three-way agreement on random programs: the brute-force ``T_P`` least
fixpoint, the bottom-up engine (on every forced path of ``tests/paths.py``)
and the top-down prover must answer ground queries identically whenever
the prover's search terminates (its loop check makes it sound and complete
on these function-free programs)."""

import itertools

import pytest
from hypothesis import given, seed, settings, strategies as st

from paths import same_on_every_path, tp_model
from repro.core import (
    Atom,
    Program,
    atom,
    clause,
    const,
    fact,
    horn,
    member,
    pos,
    setvalue,
    var_a,
    var_s,
)
from repro.engine import Evaluator, TopDownProver
from repro.engine.evaluation import EvalOptions

x, y, z = var_a("x"), var_a("y"), var_a("z")
X = var_s("X")
a, b, c = const("a"), const("b"), const("c")
CONSTS = [a, b, c]
SETS = [setvalue([]), setvalue([a]), setvalue([a, b]), setvalue([b, c])]

pred1 = st.sampled_from(["p", "q", "r"])
terms = st.sampled_from(CONSTS + [x, y])


@st.composite
def horn_clause(draw):
    head = atom(draw(pred1), draw(st.sampled_from(CONSTS + [x])))
    n = draw(st.integers(0, 2))
    body = [pos(atom(draw(pred1), draw(terms))) for _ in range(n)]
    if head.free_vars() and not body:
        body = [pos(atom("p", next(iter(head.free_vars()))))]
    return horn(head, *body)


@st.composite
def horn_programs(draw):
    clauses = [fact(atom("p", a)), fact(atom("q", b))]
    clauses += draw(st.lists(horn_clause(), min_size=1, max_size=5))
    return Program.of(*clauses)


def engine_model(program):
    """The engine's model: the same on every path, and equal to T_P's."""
    interp = same_on_every_path(
        lambda options: Evaluator(program, options=options).run().interpretation
    )
    assert interp == tp_model(program), program.pretty()
    return interp


def ground_queries(program):
    """Ground goals over the program's own constants.

    The prover answers w.r.t. the full Herbrand universe while the engine
    is active-domain-relativised, so queries about constants foreign to
    the program (where an unrestricted head variable makes the prover say
    yes) are out of scope by design — see the engine's module docstring.
    """
    consts = sorted(program.constants(), key=str)
    for p in ("p", "q", "r"):
        for t in consts:
            yield atom(p, t)


# Pinned draws: the derandomized profile (conftest.py) seeds from the test's
# source, and most seeds draw a program the prover's SLD search is
# exponential on (4 of seeds 0-5 ran past 30 s).
@seed(0)
@settings(max_examples=40, deadline=None)
@given(program=horn_programs())
def test_three_way_agreement(program):
    model = engine_model(program)
    prover = TopDownProver(program, max_depth=200)
    for goal in ground_queries(program):
        assert prover.holds(goal) == model.holds(goal), (
            f"{goal} on\n{program.pretty()}"
        )


@st.composite
def set_programs(draw):
    """Programs mixing set facts, membership and one quantified rule."""
    clauses = [fact(atom("s", draw(st.sampled_from(SETS))))
               for _ in range(draw(st.integers(1, 3)))]
    clauses.append(fact(atom("p", a)))
    clauses.append(
        clause(atom("allp", X), [(x, X)], [atom("s", X), atom("p", x)])
    )
    if draw(st.booleans()):
        clauses.append(horn(atom("elem", y), atom("s", X), member(y, X)))
    return Program.of(*clauses)


@settings(max_examples=40, deadline=None)
@given(program=set_programs())
def test_set_program_agreement(program):
    model = engine_model(program)
    prover = TopDownProver(program, max_depth=200)
    for s in SETS:
        goal = atom("allp", s)
        # The top-down prover proves the quantified goal for ground sets;
        # but the bottom-up rule also requires s(X), which the prover
        # checks identically.
        assert prover.holds(goal) == model.holds(goal), (
            f"{goal} on\n{program.pretty()}"
        )


@settings(max_examples=25, deadline=None)
@given(program=horn_programs())
def test_provenance_covers_whole_model(program):
    """With tracking on, every model atom has a derivation record and its
    tree's leaves are given facts or structural truths."""
    m = Evaluator(
        program, options=EvalOptions(track_provenance=True)
    ).run()
    for ground in m.interpretation:
        tree = m.explain(ground)
        stack = [tree]
        while stack:
            node = stack.pop()
            if not node.children:
                assert node.kind in ("given", "structural", "derived",
                                     "grouped")
            stack.extend(node.children)
