"""Same plans: the compiled plan of every clause and pin of the closure,
the served program and the served goal shapes, as recorded before the
planner learned to move a pinned scan off the front (DESIGN.md,
"Delta-rule compilation").

Bodies whose greedy join order has no cross join must compile exactly as
they did; only Example 6's two ``sum_costs`` variants that joined a delta
with ``need(Z)`` as a cross product change (``PARTS``, pins 1 and 2).
Each table is ``== clause | base`` or ``== clause | pin i`` followed by
``compile_rule(clause, builtins, pin).pretty()``.
"""

import pytest

from repro import parse_program
from repro.core.clauses import LPSClause
from repro.engine.planner import compile_rule
from repro.engine.setops import with_set_builtins
from repro.server import QueryService
from repro.workloads import CRASH_RECOVERY_PROGRAM

TC_RULES = """\
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""

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

#: The read and subscription goal shapes of the served program: point,
#: prefix, join, set value, scan, the standing join and the witness.
GOALS = (
    "t(v1, v2)", "t(v3, X)", "t(v4, Y), e(Y, Z)", "succ(v5, S), M in S",
    "t(X, Y)", "e(X, Y)", "t(X, Y), e(Y, Z)",
)

TC_PLANS = """\
== t(X, Y) :- e(X, Y). | base
Scan[e(X, Y)]
== t(X, Y) :- e(X, Y). | pin 0
Scan[Δe(X, Y)]
== t(X, Z) :- e(X, Y), t(Y, Z). | base
Join[Y]
  Scan[e(X, Y)]
  Scan[t(Y, Z)]
== t(X, Z) :- e(X, Y), t(Y, Z). | pin 0
Join[Y]
  Scan[Δe(X, Y)]
  Scan[t(Y, Z)]
== t(X, Z) :- e(X, Y), t(Y, Z). | pin 1
Join[Y]
  Scan[Δt(Y, Z)]
  Scan[e(X, Y)]
"""

CRASH_RECOVERY_PLANS = """\
== t(X, Y) :- e(X, Y). | base
Scan[e(X, Y)]
== t(X, Y) :- e(X, Y). | pin 0
Scan[Δe(X, Y)]
== t(X, Z) :- e(X, Y), t(Y, Z). | base
Join[Y]
  Scan[e(X, Y)]
  Scan[t(Y, Z)]
== t(X, Z) :- e(X, Y), t(Y, Z). | pin 0
Join[Y]
  Scan[Δe(X, Y)]
  Scan[t(Y, Z)]
== t(X, Z) :- e(X, Y), t(Y, Z). | pin 1
Join[Y]
  Scan[Δt(Y, Z)]
  Scan[e(X, Y)]
== dead(X) :- n(X), not t(X, X). | base
AntiJoin[not t(X, X)]
  Scan[n(X)]
== dead(X) :- n(X), not t(X, X). | pin 0
AntiJoin[not t(X, X)]
  Scan[Δn(X)]
== mem(X) :- sf(S), X in S. | base
Unnest[expand: X in S]
  Scan[sf(S)]
== mem(X) :- sf(S), X in S. | pin 0
Unnest[expand: X in S]
  Scan[Δsf(S)]
"""

GOAL_PLANS = """\
== t(v1, v2) | base
Scan[t(v1, v2)]
== t(v1, v2) | pin 0
Scan[Δt(v1, v2)]
== t(v3, X) | base
Scan[t(v3, X)]
== t(v3, X) | pin 0
Scan[Δt(v3, X)]
== t(v4, Y), e(Y, Z) | base
Join[Y]
  Scan[t(v4, Y)]
  Scan[e(Y, Z)]
== t(v4, Y), e(Y, Z) | pin 0
Join[Y]
  Scan[Δt(v4, Y)]
  Scan[e(Y, Z)]
== t(v4, Y), e(Y, Z) | pin 1
Join[Y]
  Scan[Δe(Y, Z)]
  Scan[t(v4, Y)]
== succ(v5, S), M in S | base
Unnest[expand: M in S]
  Scan[succ(v5, S)]
== succ(v5, S), M in S | pin 0
Unnest[expand: M in S]
  Scan[Δsucc(v5, S)]
== t(X, Y) | base
Scan[t(X, Y)]
== t(X, Y) | pin 0
Scan[Δt(X, Y)]
== e(X, Y) | base
Scan[e(X, Y)]
== e(X, Y) | pin 0
Scan[Δe(X, Y)]
== t(X, Y), e(Y, Z) | base
Join[Y]
  Scan[t(X, Y)]
  Scan[e(Y, Z)]
== t(X, Y), e(Y, Z) | pin 0
Join[Y]
  Scan[Δt(X, Y)]
  Scan[e(Y, Z)]
== t(X, Y), e(Y, Z) | pin 1
Join[Y]
  Scan[Δe(Y, Z)]
  Scan[t(X, Y)]
"""

PARTS_PLANS = """\
== item_cost(P, C) :- cost(P, C). | base
Scan[cost(P, C)]
== item_cost(P, C) :- cost(P, C). | pin 0
Scan[Δcost(P, C)]
== item_cost(P, C) :- obj_cost(P, C). | base
Scan[obj_cost(P, C)]
== item_cost(P, C) :- obj_cost(P, C). | pin 0
Scan[Δobj_cost(P, C)]
== need(S) :- parts(P, S). | base
Scan[parts(P, S)]
== need(S) :- parts(P, S). | pin 0
Scan[Δparts(P, S)]
== need(Y) :- need(Z), choose_min(X, Y, Z). | base
Compute[builtin: choose_min(X, Y, Z) → X, Y]
  Scan[need(Z)]
== need(Y) :- need(Z), choose_min(X, Y, Z). | pin 0
Compute[builtin: choose_min(X, Y, Z) → X, Y]
  Scan[Δneed(Z)]
== sum_costs({}, 0). | base
tuple-mode (empty body (active-domain rule))
== sum_costs(Z, K) :- need(Z), choose_min(P, Y, Z), item_cost(P, C), sum_costs(Y, M), plus(M, C, K). | base
Compute[builtin: plus(M, C, K) → K]
  Join[Y]
    Join[P]
      Compute[builtin: choose_min(P, Y, Z) → P, Y]
        Scan[need(Z)]
      Scan[item_cost(P, C)]
    Scan[sum_costs(Y, M)]
== sum_costs(Z, K) :- need(Z), choose_min(P, Y, Z), item_cost(P, C), sum_costs(Y, M), plus(M, C, K). | pin 0
Compute[builtin: plus(M, C, K) → K]
  Join[Y]
    Join[P]
      Compute[builtin: choose_min(P, Y, Z) → P, Y]
        Scan[Δneed(Z)]
      Scan[item_cost(P, C)]
    Scan[sum_costs(Y, M)]
== sum_costs(Z, K) :- need(Z), choose_min(P, Y, Z), item_cost(P, C), sum_costs(Y, M), plus(M, C, K). | pin 1
Compute[builtin: plus(M, C, K) → K]
  Join[Y]
    Join[P]
      Compute[builtin: choose_min(P, Y, Z) → P, Y]
        Scan[need(Z)]
      Scan[Δitem_cost(P, C)]
    Scan[sum_costs(Y, M)]
== sum_costs(Z, K) :- need(Z), choose_min(P, Y, Z), item_cost(P, C), sum_costs(Y, M), plus(M, C, K). | pin 2
Compute[builtin: plus(M, C, K) → K]
  Join[P]
    Join[Y]
      Compute[builtin: choose_min(P, Y, Z) → P, Y]
        Scan[need(Z)]
      Scan[Δsum_costs(Y, M)]
    Scan[item_cost(P, C)]
== obj_cost(P, C) :- parts(P, S), sum_costs(S, C). | base
Join[S]
  Scan[parts(P, S)]
  Scan[sum_costs(S, C)]
== obj_cost(P, C) :- parts(P, S), sum_costs(S, C). | pin 0
Join[S]
  Scan[Δparts(P, S)]
  Scan[sum_costs(S, C)]
== obj_cost(P, C) :- parts(P, S), sum_costs(S, C). | pin 1
Join[S]
  Scan[Δsum_costs(S, C)]
  Scan[parts(P, S)]
"""

BUILTINS = with_set_builtins()


def table(text):
    """``{(clause text, pin): pretty plan}`` from one of the tables."""
    out = {}
    for block in text.split("== ")[1:]:
        header, _, plan = block.partition("\n")
        clause, _, which = header.rpartition(" | ")
        pin = None if which == "base" else int(which.removeprefix("pin "))
        out[clause, pin] = plan.rstrip("\n")
    return out


def pins(relational):
    return [None, *range(relational)]


def rule_plans(text):
    plans = {}
    for c in parse_program(text).clauses:
        if not isinstance(c, LPSClause):
            continue
        n = sum(
            1 for l in c.body
            if l.positive and not l.atom.is_special()
            and l.atom.pred not in BUILTINS
        )
        for pin in pins(n):
            plans[str(c), pin] = compile_rule(c, BUILTINS, pin).pretty()
    return plans


@pytest.mark.parametrize("rules, golden", [
    (TC_RULES, TC_PLANS),
    (CRASH_RECOVERY_PROGRAM, CRASH_RECOVERY_PLANS),
    (PARTS_RULES, PARTS_PLANS),
], ids=["tc", "crash-recovery", "parts"])
def test_rule_plans_are_the_recorded_ones(rules, golden):
    assert rule_plans(rules) == table(golden)


def test_goal_plans_are_the_recorded_ones():
    session = QueryService(CRASH_RECOVERY_PROGRAM).open_session()
    try:
        plans = {}
        for goal in GOALS:
            rule = session._compiled_query(goal)
            for pin in pins(len(rule.relational)):
                plans[goal, pin] = rule.plan(pin).pretty()
    finally:
        session.close()
    assert plans == table(GOAL_PLANS)
