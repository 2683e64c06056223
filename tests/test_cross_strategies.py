"""Three-way agreement on random programs: the brute-force ``T_P`` least
fixpoint, the bottom-up engine (on every forced path of ``tests/paths.py``)
and the top-down prover must answer ground queries identically whenever
the prover's search terminates (its loop check makes it sound and complete
on these function-free programs)."""

import itertools

import pytest
from hypothesis import given, seed, settings, strategies as st

import test_paper_examples as paper
from paths import PATHS, forced, same_on_every_path, tp_model
from test_set_models import programs as rule_programs
from repro import parse_program
from repro.core import (
    App,
    Atom,
    Const,
    GroupingClause,
    LPSClause,
    Rule,
    SetValue,
    Subst,
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
from repro.core.formulas import evaluate, evaluate_ground_atom
from repro.core.terms import subterms
from repro.core.unify import match_atom
from repro.engine import DEFAULT_BUILTINS, Evaluator, TopDownProver
from repro.engine.provenance import DERIVED, GIVEN, GROUPED, STRUCTURAL
from repro.engine.setops import with_set_builtins

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


# ---------------------------------------------------------------------------
# Derivation trees, checked against the model without the search
# ---------------------------------------------------------------------------

#: Negated and grouping rules over the relations ``test_set_models``
#: programs hold (a group is taken whole, like theirs).
NEGATION_AND_GROUPING = (
    "lone(X) :- n(X), not w(X, 1).",
    "fresh(K) :- n(K), not sm(K).",
    "byc(C, <P>) :- w(P, C).",
    "elems(<X>) :- s(Z), X in Z, not n(X).",
    "nonempty(Z) :- s(Z), X in Z.\n"
    "ids(<X>) :- n(X), not lone(X), s(Z), nonempty(Z).",
    # two groups under one key: each atom has exactly one clause
    "two(<P>) :- w(P, C).\n"
    "two(<X>) :- n(X).",
)


@st.composite
def mixed_programs(draw):
    """``test_set_models`` programs (set builtins, arithmetic, demand
    recursion) with negation and grouping on top."""
    extra = draw(st.lists(st.sampled_from(NEGATION_AND_GROUPING),
                          min_size=1, max_size=3, unique=True))
    return parse_program("\n".join(extra) + "\n" + draw(rule_programs()))


def check_explanations(model, program, builtins=DEFAULT_BUILTINS):
    """Explain every atom of ``model`` and check each tree against the
    model alone: the search is not consulted."""
    interp = model.interpretation
    given = {c.head for c in program.lps_clauses()
             if c.is_fact and c.head.is_ground()}
    terms = {t for c in program.all_terms() for t in subterms(c)}
    terms |= {t for a in interp for arg in a.args for t in subterms(arg)}
    carriers = {
        "a": [t for t in terms
              if isinstance(t, (Const, App)) and t.is_ground()],
        "s": [t for t in terms if isinstance(t, SetValue)] + [setvalue([])],
    }
    carriers["u"] = carriers["a"] + carriers["s"]

    def relational(a):
        return not a.is_special() and a.pred not in builtins

    def holds(a):
        if a.pred in builtins:
            return next(iter(builtins[a.pred].solve(a.args, Subst())),
                        None) is not None
        return evaluate_ground_atom(a, interp.holds)

    def solutions(free, head, target, literals, facts):
        """Ground substitutions of ``free`` that map ``head`` to
        ``target``: ``literals`` are matched against ``facts(pred)``,
        whatever else is free ranges over the domain."""
        def join(todo, theta):
            if not todo:
                yield theta
                return
            for f in facts(todo[0].pred):
                for t in match_atom(todo[0], f, theta):
                    yield from join(todo[1:], t)
        for theta in match_atom(head, target):
            for theta in join(literals, theta):
                rest = sorted((v for v in free if v not in theta), key=str)
                for combo in itertools.product(
                    *(carriers[v.sort] for v in rest)
                ):
                    yield theta.extend(dict(zip(rest, combo)))

    def check_formula(node, kids):
        """A rule kept as a positive formula: some instance of it has the
        atom as head and a body that holds in the model, and, when the
        formula is positive, holds with its relations read off the
        premises alone."""
        c = node.clause
        only_kids = (lambda a: a in kids if relational(a) else holds(a))
        for theta in solutions(c.free_vars(), c.head, node.atom, [], None):
            body = c.body.substitute(theta)
            if evaluate(body, holds) and (
                not c.is_positive() or evaluate(body, only_kids)
            ):
                return
        raise AssertionError(f"no instance of {c} derives {node.atom} "
                             f"from {sorted(map(str, kids))}")

    def check_derived(node, kids):
        c = node.clause
        if isinstance(c, Rule) and c in program.clauses:
            return check_formula(node, kids)
        assert isinstance(c, LPSClause) and c in program.clauses
        bound = c.quantified_vars()
        literals = [l.atom for l in c.body if l.positive
                    and relational(l.atom) and not l.atom.free_vars() & bound]
        for theta in solutions(
            c.free_vars(), c.head, node.atom, literals,
            lambda pred: [k for k in kids if k.pred == pred],
        ):
            g = c.ground_instances(theta)
            if g.head == node.atom \
                    and all(holds(l.atom) == l.positive for l in g.body) \
                    and {l.atom for l in g.body
                         if l.positive and relational(l.atom)} == kids:
                return
        raise AssertionError(f"no instance of {c} derives {node.atom} "
                             f"from {sorted(map(str, kids))}")

    def check_grouped(node, kids):
        g = node.clause
        assert isinstance(g, GroupingClause) and g in program.clauses
        at = g.group_pos
        key = Atom("key", node.atom.args[:at] + node.atom.args[at + 1:])
        values, premises = set(), set()
        for theta in solutions(
            g.free_vars(), Atom("key", g.head_args), key,
            [l.atom for l in g.body if l.positive and relational(l.atom)],
            interp.facts_of,
        ):
            body = [l.atom.substitute(theta) for l in g.body]
            if all(holds(a) == l.positive for a, l in zip(body, g.body)):
                values.add(theta.apply(g.group_var))
                premises |= {a for a, l in zip(body, g.body)
                             if l.positive and relational(a)}
        assert values == node.atom.args[at].elems, node.atom
        assert premises == kids, node.atom

    for ground in interp:
        # A path repeats no atom, so no tree is deeper than the model.
        stack = [(model.explain(ground, max_depth=len(interp)), frozenset())]
        while stack:
            node, above = stack.pop()
            assert node.atom not in above, f"{node.atom} is its own premise"
            assert holds(node.atom)
            kids = {k.atom for k in node.children}
            assert len(kids) == len(node.children), node.atom
            if node.kind == STRUCTURAL:
                assert node.atom.is_special() and not kids
            elif node.kind == GIVEN:
                assert node.atom in given and not kids, node.atom
            elif node.kind == DERIVED:
                check_derived(node, kids)
            else:
                assert node.kind == GROUPED
                check_grouped(node, kids)
            stack.extend((k, above | {node.atom}) for k in node.children)


def explained_on_every_path(program, builtins=DEFAULT_BUILTINS):
    for path in PATHS:
        with forced(path) as options:
            ev = Evaluator(program, builtins=builtins, options=options)
            try:
                check_explanations(ev.run(), program, builtins)
            finally:
                ev.close()


@settings(max_examples=25, deadline=None)
@given(program=horn_programs())
def test_provenance_covers_whole_model(program):
    """Every model atom has a derivation tree, and every step of it is a
    clause instance that holds in the model."""
    explained_on_every_path(program)


@settings(max_examples=30, deadline=None)
@given(program=mixed_programs())
def test_provenance_covers_set_negation_and_grouping(program):
    explained_on_every_path(program, with_set_builtins())


@pytest.mark.parametrize("example", [
    paper.TestExample1Disj, paper.TestExample2Subset,
    paper.TestExample3Union, paper.TestExample6PartsExplosion,
], ids=["example1", "example2", "example3", "example6"])
def test_provenance_covers_paper_examples(example):
    explained_on_every_path(parse_program(example.SOURCE),
                            with_set_builtins())
