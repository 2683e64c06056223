"""Same models: random programs that mix set builtins, arithmetic,
relational atoms with disjoint variables and ground checks compute one
model on every forced path of ``tests/paths.py``.

These are the bodies the planner may now reorder (a cross product it can
avoid by scanning another relation first), whose builtin answers a
stratum fixpoint caches, and whose ground conjuncts the tuple solver
answers with one probe.  The ``solver`` arm runs every rule on the tuple
solver, so it is the reference the plan arms are held to.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from paths import same_on_every_path
from repro import parse_program
from repro.engine import Evaluator
from repro.engine.setops import with_set_builtins

#: Rule groups a program draws from (a group is taken whole).
RULES = (
    # relational atoms with disjoint variables: an unavoidable cross
    "pair(X, Y) :- s(X), n(Y).",
    # a decomposition joined back to a relation
    "low(Y) :- s(Z), choose_min(X, Y, Z), n(X).",
    "un(Z) :- s(X), s(Y), union(X, Y, Z).\n"
    "top(Y) :- un(Z), choose_min(X, Y, Z).",
    "df(Z) :- s(X), s(Y), setdiff(X, Y, Z).",
    "sm(K) :- n(M), n(C), M + C = K.",
    # ground checks, one of them possibly absent
    "chk(X) :- s(X), e(a, b).",
    "chk2(X, Y) :- n(X), e(b, a), n(Y).",
    # Example 6's shape: demand, decomposition, a pinned delta that
    # would cross with the demand if it were scanned first
    "d(Z) :- s(Z).\n"
    "d(Y) :- d(Z), choose_min(X, Y, Z).\n"
    "sc({}, 0).\n"
    "sc(Z, K) :- d(Z), choose_min(P, Y, Z), w(P, C), sc(Y, M), M + C = K.",
)

_INTS = st.integers(0, 4)


@st.composite
def programs(draw):
    sets = draw(st.lists(st.frozensets(_INTS, max_size=3), min_size=1,
                         max_size=4))
    ns = draw(st.frozensets(_INTS, min_size=1, max_size=4))
    costs = draw(st.dictionaries(_INTS, st.integers(1, 3), max_size=5))
    rules = draw(st.lists(st.sampled_from(RULES), min_size=1, max_size=4,
                          unique=True))
    facts = [f"s({{{', '.join(map(str, sorted(s)))}}})." for s in sets]
    facts += [f"n({i})." for i in sorted(ns)]
    facts += [f"w({p}, {c})." for p, c in sorted(costs.items())]
    facts += ["e(a, b)."] if draw(st.booleans()) else []
    facts += ["e(b, a)."] if draw(st.booleans()) else []
    return "\n".join([*rules, *facts]) + "\n"


@settings(max_examples=60)
@given(text=programs())
def test_every_path_computes_the_same_model(text):
    program = parse_program(text)

    def run(options):
        ev = Evaluator(program, builtins=with_set_builtins(), options=options)
        try:
            return ev.run().interpretation.sorted_atoms()
        finally:
            ev.close()

    same_on_every_path(run)
