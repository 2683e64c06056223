"""The paper's set programs cost their output (DESIGN.md, "Delta-rule
compilation", "Plan IR and executor", "Execution pipeline").  Counts, no
clocks, in the style of ``tests/test_fixpoint_rounds.py``:

* **no avoidable cross product** — no compiled variant of Example 6
  joins two relations without a shared variable when some order of its
  conjuncts would not;
* **one builtin solve per input per fixpoint** — across every round of
  a stratum fixpoint, ``choose_min`` is solved once per distinct set,
  however many rules, delta variants and rounds ask for it;
* **one probe per ground check** — a fully ground relational conjunct
  costs the tuple solver one ``SolverStats.matches``;
* **the builtin memo dies with its fixpoint** — one dict per
  ``_fixpoint`` call, shared by its rounds, held by no executor after.
"""

import gc
import itertools
import sys

import pytest

from repro import parse_program
from repro.core import atom, const, setvalue, var_a
from repro.core.clauses import LPSClause
from repro.core.formulas import AtomF
from repro.core.substitution import Subst
from repro.engine import Evaluator
from repro.engine.builtins import Builtin
from repro.engine.evaluation import ActiveDomain, Solver
from repro.engine.executor import Executor
from repro.engine.ir import Join, walk_plan
from repro.engine.planner import _classify, _ready, compile_rule
from repro.engine.setops import with_set_builtins
from repro.lang import pretty_atom
from repro.semantics.interpretation import Interpretation
from repro.workloads import parts_database, parts_world

#: Example 6 as the ``batch_fixpoint`` benchmark runs it.
PARTS_RULES = """\
item_cost(P, C) :- cost(P, C).
item_cost(P, C) :- obj_cost(P, C).
need(S) :- parts(P, S).
need(Y) :- need(Z), choose_min(X, Y, Z).
sum_costs({}, 0).
sum_costs(Z, K) :- need(Z), choose_min(P, Y, Z),
                   item_cost(P, C), sum_costs(Y, M), M + C = K.
obj_cost(P, C) :- parts(P, S), sum_costs(S, C).
"""

#: The same recursion with the demand, the decomposition and the cost
#: join written in other orders (the planner must not care).
PARTS_REORDERED = """\
item_cost(P, C) :- cost(P, C).
item_cost(P, C) :- obj_cost(P, C).
need(S) :- parts(P, S).
need(Y) :- choose_min(X, Y, Z), need(Z).
sum_costs({}, 0).
sum_costs(Z, K) :- item_cost(P, C), sum_costs(Y, M), need(Z),
                   M + C = K, choose_min(P, Y, Z).
obj_cost(P, C) :- sum_costs(S, C), parts(P, S).
"""


def parts_text(seed=1, depth=3, fanout=4):
    world = parts_world(depth=depth, fanout=fanout, seed=seed)
    facts = sorted(parts_database(world).facts(), key=str)
    return PARTS_RULES + "".join(f"{pretty_atom(a)}.\n" for a in facts), world


# -- no avoidable cross product --------------------------------------------------


def cross_joins(root):
    return sum(
        1 for n in walk_plan(root) if n.__class__ is Join and not n.shared
    )


def fewest_cross_joins(body, builtins):
    """The fewest cross joins of any order of the body in which every
    conjunct is ready (planner readiness) when it is placed — brute force."""
    conjuncts = _classify(body, builtins)
    best = None
    for order in itertools.permutations(conjuncts):
        bound, placed, crosses = set(), False, 0
        for c in order:
            if _ready(c, bound, builtins) is None:
                break
            fv = c.lit.atom.free_vars()
            if c.kind == "rel" and placed and not fv & bound:
                crosses += 1
            placed = True
            bound |= fv
        else:
            best = crosses if best is None else min(best, crosses)
    return best


def variants(text, builtins):
    for c in parse_program(text).clauses:
        if not isinstance(c, LPSClause) or not c.body:
            continue
        n = sum(1 for k in _classify(c.body, builtins) if k.kind == "rel")
        for pin in [None, *range(n)]:
            yield c, pin, compile_rule(c, builtins, pin)


@pytest.mark.parametrize("text", [
    PARTS_RULES, parts_text()[0], PARTS_REORDERED,
], ids=["rules", "benchmark-text", "reordered"])
def test_no_variant_crosses_when_an_order_would_not(text):
    builtins = with_set_builtins()
    seen = 0
    for clause, pin, cp in variants(text, builtins):
        assert cp.is_set, (clause, pin, cp.reason)
        fewest = fewest_cross_joins(clause.body, builtins)
        assert cross_joins(cp.root) == fewest == 0, (clause, pin, cp.pretty())
        seen += 1
    assert seen == 15


def test_the_pinned_scan_moves_only_to_avoid_a_cross_join():
    builtins = with_set_builtins()
    (c,) = parse_program(
        "s(Z, K) :- n(Z), choose_min(P, Y, Z), w(P, C), s(Y, M), M + C = K."
    ).clauses
    plans = {pin: compile_rule(c, builtins, pin) for pin in (None, 0, 1, 2)}
    for pin, cp in plans.items():
        assert cross_joins(cp.root) == 0
        deltas = [n.atom.pred for n in walk_plan(cp.root)
                  if getattr(n, "delta", False)]
        assert deltas == ([] if pin is None else [["n", "w", "s"][pin]])
    # After another first scan, a pinned scan that is not yet connected
    # waits for one that is: ``p(Y)`` connects only once ``a`` and ``b``
    # have both fed ``A + B = Y``.
    (c,) = parse_program(
        "h(Y) :- a(A, K), b(B, K), A + B = Y, p(Y)."
    ).clauses
    root = compile_rule(c, builtins, 2).root
    assert cross_joins(root) == 0
    assert root.right.atom.pred == "p" and root.right.delta
    # Where no order avoids the cross product the greedy plan stays:
    # the pinned scan first.
    (c,) = parse_program("p(X, Y) :- a(X), b(Y).").clauses
    for pin, first in ((0, "a"), (1, "b")):
        root = compile_rule(c, builtins, pin).root
        assert cross_joins(root) == 1
        assert root.left.atom.pred == first and root.left.delta


# -- one builtin solve per input per fixpoint ------------------------------------


class Counting(Builtin):
    """Wraps a builtin; records each ``solve`` under the current fixpoint
    and the memo dict of the executor that asked (if one did)."""

    def __init__(self, inner, log):
        self.inner, self.name, self.arity = inner, inner.name, inner.arity
        self.log = log

    def ready(self, args):
        return self.inner.ready(args)

    def solve(self, args, env):
        frame, memo = sys._getframe(1), None
        while frame is not None:
            if frame.f_code is Executor._compute.__code__:
                memo = frame.f_locals["self"].memo
                break
            frame = frame.f_back
        self.log[-1].append((args[-1], None if memo is None else id(memo)))
        return self.inner.solve(args, env)


class MarkingEvaluator(Evaluator):
    """Starts a new log entry per stratum fixpoint."""

    def __init__(self, *args, log, **kwargs):
        super().__init__(*args, **kwargs)
        self._log = log

    def _fixpoint(self, *args, **kwargs):
        self._log.append([])
        return super()._fixpoint(*args, **kwargs)


def run_counted(text):
    log = [[]]
    builtins = with_set_builtins()
    builtins["choose_min"] = Counting(builtins["choose_min"], log)
    ev = MarkingEvaluator(parse_program(text), builtins=builtins, log=log)
    try:
        model = ev.run()
    finally:
        ev.close()
    return model, [calls for calls in log if calls]


def test_choose_min_is_solved_once_per_set_per_fixpoint():
    text, world = parts_text()
    model, fixpoints = run_counted(text)
    assert {
        a.args[0].value: a.args[1].value
        for a in model.interpretation if a.pred == "obj_cost"
    } == {p: world.expected[p] for p in world.parts}
    assert model.report.rounds > 40     # every round asks again
    assert len(fixpoints) == model.report.passes
    needed = {a.args[0] for a in model.interpretation if a.pred == "need"}
    for calls in fixpoints:
        sets = [z for z, _ in calls]
        assert len(sets) == len(set(sets)) == len(needed)
        assert set(sets) == needed


# -- the memo dies with its fixpoint ---------------------------------------------


def test_one_memo_per_fixpoint_and_none_after_run():
    # That a memo does not reach the next fixpoint is the test above:
    # the second pass solves every set again.
    _, fixpoints = run_counted(parts_text()[0])
    for calls in fixpoints:
        memos = {memo for _, memo in calls}
        assert len(memos) == 1 and None not in memos
    gc.collect()
    holders = [
        o for o in gc.get_objects()
        if isinstance(o, Executor) and o.memo is not None
    ]
    assert holders == []


def test_executors_outside_a_fixpoint_hold_no_memo():
    from repro.server import QueryService

    svc = QueryService(
        "d(Y) :- s(Z), choose_min(X, Y, Z).\n"
        "s({1, 2, 3}).\ns({2, 3}).\n"
    )
    session = svc.open_session()
    try:
        rows = session.query("s(Z), choose_min(X, Y, Z)").rows
        assert len(rows) == 2
    finally:
        session.close()
    gc.collect()
    assert not any(
        isinstance(o, Executor) and o.memo is not None
        for o in gc.get_objects()
    )


# -- one probe per ground check --------------------------------------------------


def bucket_interp():
    interp = Interpretation()
    interp.update(atom("p", const("a"), const(i)) for i in range(50))
    interp.update(atom("p", const("b"), const(i)) for i in range(50))
    return interp


@pytest.mark.parametrize("goal, held", [
    (atom("p", const("a"), const(7)), True),
    (atom("p", const("a"), const(70)), False),
    (atom("p", const("c"), const(7)), False),
    (atom("q", const("a")), False),
])
def test_a_ground_conjunct_is_one_match(goal, held):
    solver = Solver(bucket_interp(), ActiveDomain())
    answers = list(solver.solve(AtomF(goal)))
    assert answers == ([Subst()] if held else [])
    assert solver.stats.matches == 1


def test_a_conjunct_ground_under_its_environment_is_one_match():
    x = var_a("X")
    solver = Solver(bucket_interp(), ActiveDomain())
    env = Subst().bind(x, const(7))
    assert list(solver.solve(AtomF(atom("p", const("b"), x)), env)) == [env]
    assert solver.stats.matches == 1
    # A non-ground pattern still reads its bucket, one match per fact.
    solver = Solver(bucket_interp(), ActiveDomain())
    assert len(list(solver.solve(AtomF(atom("p", const("b"), x))))) == 50
    assert solver.stats.matches == 50


def test_set_valued_ground_conjunct_is_one_match():
    interp = Interpretation()
    interp.update(atom("s", setvalue([const(i), const(i + 1)]))
                  for i in range(20))
    solver = Solver(interp, ActiveDomain())
    goal = atom("s", setvalue([const(4), const(3)]))
    assert list(solver.solve(AtomF(goal))) == [Subst()]
    assert solver.stats.matches == 1
