"""Closed formulas are decided, not searched (DESIGN.md, "A boundness-
driven join planner").

Once a conjunct's free variables are bound the tuple solver decides it
with a closure compiled once per formula (``Solver._decider``): one pass
over each quantifier's range, the bound variable set in a scratch map.
The decision must be the answer the search gave when it substituted each
range element into the body, conjoined the copies and solved them.
``unfolded`` below is that search, kept here as the reference:

* a positive formula: membership in a non-set value (an ELPS ``u``
  variable bound to an atom) is **false**, and so is a quantifier over
  one;
* under ``not``: :func:`~repro.core.formulas.evaluate`, which raises
  ``SortError`` there;
* a range element the quantified variable's sort refuses raises
  ``SortError``, as ``Subst._checked`` does.

Formulas are drawn over a small interpretation with nested ``forall`` /
``exists`` over empty and non-empty sets, ``or``, ``not``, ``=``, ``in``,
``!=``, a comparison builtin and two stored relations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    EQUALS,
    EMPTY_SUBST,
    MEMBER,
    AndF,
    AtomF,
    ExistsIn,
    ForallIn,
    NotF,
    OrF,
    SetValue,
    SortError,
    Subst,
    TRUE,
    TrueF,
    atom,
    const,
    equals,
    evaluate,
    member,
    setvalue,
    var_a,
    var_s,
    var_u,
)
from repro.engine.builtins import DEFAULT_BUILTINS
from repro.engine.evaluation import ActiveDomain, Solver
from repro.semantics.interpretation import Interpretation

a, b, c, one, two = (const(v) for v in ("a", "b", "c", 1, 2))
ATOMS = [a, b, c, one, two]
FLAT_SETS = [
    setvalue(()), setvalue([a]), setvalue([a, b]), setvalue([b, c]),
    setvalue([one, two]), setvalue([a, one]),
]
#: ELPS values: sets with sets among their elements.
NESTED_SETS = [setvalue([setvalue([a]), b]), setvalue([setvalue(())])]

X, Y = var_s("X"), var_s("Y")
V, U = var_a("V"), var_u("U")
A, B, E = var_a("A"), var_a("B"), var_u("E")

FACTS = [
    atom("p", a), atom("p", b), atom("p", one), atom("p", setvalue([a])),
    atom("r", a, b), atom("r", b, c), atom("r", one, a),
    atom("r", setvalue([a]), a),
]


def solver():
    return Solver(
        Interpretation(FACTS), ActiveDomain(), DEFAULT_BUILTINS,
        allow_fallback=False,
    )


def unfolded(f, env, s):
    """The unfolding search's answer for ``f``, closed under ``env``, its
    parts taken in written order: each quantifier substitutes every range
    element for its variable (``Subst._checked``) before solving the
    copies under ``env``; a negation substitutes ``env`` and evaluates."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, AtomF):
        pred, args = f.atom.pred, tuple(env.apply(t) for t in f.atom.args)
        if pred == EQUALS:
            return args[0] == args[1]
        if pred in s.builtins:
            bi = s.builtins[pred]
            return bi.ready(args) and \
                next(iter(bi.solve(args, EMPTY_SUBST)), None) is not None
        if pred == MEMBER:
            return isinstance(args[1], SetValue) and args[0] in args[1].elems
        return s.interp.holds(f.atom.substitute(env))
    if isinstance(f, NotF):
        return not evaluate(f.sub.substitute(env), s._oracle)
    if isinstance(f, AndF):
        return all(unfolded(p, env, s) for p in f.parts)
    if isinstance(f, OrF):
        return any(unfolded(p, env, s) for p in f.parts)
    source = env.apply(f.source)
    if not isinstance(source, SetValue):
        return False
    copies = [
        f.body.substitute(Subst._checked({f.var: e}))
        for e in source.sorted_elems()
    ]
    answers = (unfolded(g, env, s) for g in copies)
    return all(answers) if isinstance(f, ForallIn) else any(answers)


def outcome(decide):
    """``decide()``'s answer, or the error it raised."""
    try:
        return decide()
    except SortError as e:
        return str(e)


# -- drawing closed formulas ---------------------------------------------------


@st.composite
def leaves(draw, scope, strict):
    elems = ATOMS + [V, U] + scope
    sets = [X, Y] + FLAT_SETS
    kind = draw(st.sampled_from(
        ["in", "=", "!=", "lt", "p", "r", "true"]
    ))
    if kind == "in":
        containers = sets + NESTED_SETS
        if not strict:
            # Values that may be atoms: false when positive (an error
            # under ``not``, checked by name below).
            containers += [U] + [v for v in scope if v.sort != "a"]
        return AtomF(member(draw(st.sampled_from(elems)),
                            draw(st.sampled_from(containers))))
    if kind == "=":
        left = draw(st.sampled_from(elems + sets))
        right = draw(st.sampled_from([
            t for t in elems + sets
            if left.sort == "u" or t.sort in (left.sort, "u")
        ]))
        return AtomF(equals(left, right))
    if kind in ("!=", "lt"):
        pred = "neq" if kind == "!=" else "lt"
        return AtomF(atom(pred, *draw(st.lists(
            st.sampled_from(elems + sets), min_size=2, max_size=2))))
    if kind == "p":
        return AtomF(atom("p", draw(st.sampled_from(elems + sets))))
    if kind == "r":
        return AtomF(atom("r", *draw(st.lists(
            st.sampled_from(elems), min_size=2, max_size=2))))
    return TRUE


@st.composite
def formulas(draw, scope=(), strict=False, depth=3):
    scope = list(scope)
    kind = "leaf" if depth == 0 else draw(st.sampled_from(
        ["leaf", "and", "or", "not", "forall", "exists"]
    ))
    if kind == "leaf":
        return draw(leaves(scope, strict))
    if kind in ("and", "or"):
        parts = tuple(draw(st.lists(
            formulas(scope, strict, depth - 1), min_size=0, max_size=3
        )))
        return AndF(parts) if kind == "and" else OrF(parts)
    if kind == "not":
        return NotF(draw(formulas(scope, True, depth - 1)))
    var = draw(st.sampled_from([A, B, E]))
    ranges = [X, Y] + FLAT_SETS
    if var.sort == "u":
        ranges += NESTED_SETS
        if not strict:
            ranges += [U] + [v for v in scope if v.sort == "u"]
    body = draw(formulas(scope + [var], strict, depth - 1))
    quantifier = ForallIn if kind == "forall" else ExistsIn
    return quantifier(var, draw(st.sampled_from(ranges)), body)


envs = st.builds(
    lambda x, y, v, u: Subst({X: x, Y: y, V: v, U: u}),
    st.sampled_from(FLAT_SETS), st.sampled_from(FLAT_SETS),
    st.sampled_from(ATOMS), st.sampled_from(ATOMS + FLAT_SETS + NESTED_SETS),
)


# -- the parity property -------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(f=formulas(), env=envs)
def test_the_decision_is_the_unfolding_searchs_answer(f, env):
    s = solver()
    decided = outcome(lambda: s._decider(f)(env._map))
    assert decided == outcome(lambda: unfolded(f, env, s))
    if isinstance(decided, str):
        return
    # The solver's own entry agrees, whichever of its paths it takes.
    assert decided == (next(s.solve(f, env), None) is not None)
    # And so does the fixpoint operator's oracle, wherever it answers.
    try:
        oracle = evaluate(f.substitute(env), s._oracle)
    except SortError:
        return      # a non-set where the oracle needs a set
    assert decided == oracle


@settings(max_examples=100, deadline=None)
@given(f=formulas(scope=[A], depth=2), env=envs,
       source=st.sampled_from(NESTED_SETS),
       quantifier=st.sampled_from([ForallIn, ExistsIn]))
def test_a_refused_range_element_raises(f, env, source, quantifier):
    """A sort-``a`` variable over a set holding a set: the unfolding
    raised before solving any copy, whatever the body."""
    g = quantifier(A, source, f)
    with pytest.raises(SortError, match="cannot bind A"):
        unfolded(g, env, solver())
    with pytest.raises(SortError, match="cannot bind A"):
        solver()._decider(g)(env._map)


# -- the parity rules, by name -------------------------------------------------


def decide(f, **bindings):
    env = Subst({v: bindings[v.name] for v in f.free_vars()})
    return solver()._decider(f)(env._map)


def test_membership_in_a_u_value_bound_to_an_atom_is_false():
    """The search found no element, so no solution: false, not an
    error (``tests/test_plans.py``'s ELPS ``m(b)`` program relies on it)."""
    assert decide(AtomF(member(V, U)), V=a, U=a) is False
    assert decide(AtomF(member(V, U)), V=a, U=setvalue([a])) is True
    assert decide(ForallIn(E, U, TRUE), U=a) is False
    assert decide(ExistsIn(E, U, TRUE), U=a) is False


def test_under_not_a_non_set_raises_as_the_oracle_does():
    with pytest.raises(SortError, match="membership in non-set value a"):
        decide(NotF(AtomF(member(V, U))), V=b, U=a)
    with pytest.raises(SortError, match="ranges over a of sort 'a'"):
        decide(NotF(ForallIn(E, U, TRUE)), U=a)
    # Substituting into the negated formula refuses the range before
    # anything is evaluated, a false conjunct before it included.
    false_first = AndF((AtomF(atom("p", c)), ForallIn(E, U, TRUE)))
    with pytest.raises(SortError, match="ranges over a of sort 'a'"):
        decide(NotF(false_first), U=a)
    with pytest.raises(SortError, match="ranges over a of sort 'a'"):
        unfolded(NotF(false_first), Subst({U: a}), solver())


def test_a_copy_left_ranging_over_an_atom_raises():
    """``forall F in E`` inside ``forall E in U``: the copy for an atom
    element of ``U`` ranges over that atom, which building it refused,
    even where an earlier copy is already false."""
    inner = ForallIn(E, U, ForallIn(A, E, AtomF(atom("p", c))))
    for u in (setvalue([a, setvalue([b])]), setvalue([setvalue([b]), a])):
        with pytest.raises(SortError, match="ranges over a of sort 'a'"):
            decide(inner, U=u)
    assert decide(inner, U=setvalue([setvalue(())])) is True


def test_a_refused_element_raises_under_not_when_reached():
    nested = setvalue([setvalue([a])])
    f = NotF(ForallIn(A, nested, AtomF(atom("p", A))))
    with pytest.raises(SortError, match="cannot bind A"):
        decide(f)
    with pytest.raises(SortError):
        unfolded(f, EMPTY_SUBST, solver())


def test_an_empty_range_is_vacuous():
    empty = setvalue(())
    assert decide(ForallIn(A, X, AtomF(atom("p", c))), X=empty) is True
    assert decide(ExistsIn(A, X, TRUE), X=empty) is False
    assert decide(ForallIn(A, X, AtomF(atom("p", A))), X=setvalue([a, b]))
    assert not decide(ForallIn(A, X, AtomF(atom("p", A))), X=FLAT_SETS[3])


def test_a_shadowed_variable_takes_the_inner_element():
    inner = ForallIn(A, Y, AtomF(atom("r", A, b)))
    f = ForallIn(A, X, inner)
    assert decide(f, X=setvalue([c]), Y=setvalue([a])) is True
