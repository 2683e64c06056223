"""Compile rule bodies to relational-algebra plans.

This is the planning half of the plan-IR pipeline (see
:mod:`repro.engine.ir` for the operator set and DESIGN.md, "Plan IR and
executor", for the architecture).  It lifts the tuple-at-a-time solver's
scheduling discipline — ``Solver._priority``'s readiness tiers and its
boundness/selectivity heuristics — out of the per-substitution hot loop
and into **one compilation per rule**:

* each positive relational conjunct becomes a :class:`~repro.engine.ir.Scan`
  joined into a left-deep tree of hash :class:`~repro.engine.ir.Join` nodes;
* equality / builtin / membership conjuncts attach at the earliest point
  where the tuple path would consider them *ready* (their inputs bound),
  as :class:`~repro.engine.ir.Select`, :class:`~repro.engine.ir.Compute`
  or :class:`~repro.engine.ir.Unnest` nodes;
* negative literals become :class:`~repro.engine.ir.AntiJoin` nodes once
  fully bound (stratified negation: the check reads the completed lower
  stratum, never a delta).

Readiness is decided **statically** from which variables are bound at
each point; the executor re-checks the type-sensitive cases (builtin
modes, membership in a non-set ``u`` value) at run time and raises
``PlanInapplicable``, falling the single rule application back to the
tuple path — compilation is a prediction, the tuple solver remains the
semantic ground truth.

A body that cannot be fully scheduled — restricted quantifiers, a
positive-formula body kept as written, head or body variables no
conjunct constrains (the active-domain fallback cases), builtin modes
that never become ready — compiles to
:data:`~repro.engine.ir.MODE_TUPLE` with a human-readable ``reason``;
the evaluator then uses the backtracking solver exactly as before.

**Semi-naive delta variants.**  ``compile_rule(..., delta_index=i)``
compiles the same body with the *i*-th relational occurrence pinned: that
one Scan is flagged ``delta`` (the executor reads it from the round's
delta relation), mirroring the differentiation
``Δ(B1 ⋈ … ⋈ Bn) = Σ_i Bs ⋈ ΔB_i``, and goes to the front of the join
order.  The fixpoint loop and the incremental-maintenance subsystem share
these variants, so join order is derived once per rule rather than once
per batch.

**No avoidable cross product.**  When the greedy order (pinned scan
first, then readiness tiers and :func:`_scan_order_key`) contains a cross
join, :func:`compile_body` tries every relational conjunct as the first
scan and keeps the order with the fewest cross joins; ties keep the
greedy order, then the candidates in ``_scan_order_key`` order.  In such
an order the pinned scan joins where it is first connected (the earliest
among equally connected scans), still flagged ``delta`` —
differentiation does not depend on its position.  Bodies whose greedy
order has no cross join are scheduled once, as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..core.atoms import Atom, Literal
from ..core.clauses import GroupingClause, LPSClause, Rule
from ..core.formulas import Formula
from ..core.sorts import EQUALS, MEMBER, SORT_A, SORT_S, SORT_U
from ..core.terms import Const, SetExpr, Term, Var, free_vars, setvalue
from .builtins import Builtin
from .ir import (
    MODE_SET,
    MODE_TUPLE,
    AntiJoin,
    Compute,
    Distinct,
    GroupBy,
    Join,
    PlanNode,
    Project,
    Scan,
    Select,
    Unit,
    Unnest,
)

#: Placeholder ground terms used to probe builtin readiness at compile
#: time: a bound variable of each sort is represented by a dummy value of
#: that sort.  Builtins' ``ready`` only inspects groundness and value
#: *kind* (SetValue vs atom), so the probe is exact for a/s variables; a
#: ``u`` variable is probed as an atom, which is conservative — the
#: executor re-checks ``ready`` on real values and falls back if needed.
_DUMMY = {
    SORT_A: Const("§dummy_a"),
    SORT_U: Const("§dummy_u"),
    SORT_S: setvalue(()),
}


@dataclass
class CompiledPlan:
    """The result of compiling one rule (or grouping) body."""

    mode: str                      # MODE_SET | MODE_TUPLE
    root: Optional[PlanNode]       # full-width body rows (SET mode only)
    clause: object                 # the LPSClause / GroupingClause compiled
    reason: Optional[str] = None   # why the body stayed on the tuple path
    bound_vars: frozenset = frozenset()

    @property
    def is_set(self) -> bool:
        return self.mode == MODE_SET

    def pretty(self) -> str:
        if self.root is None:
            return f"tuple-mode ({self.reason})"
        return self.root.pretty()


def _tuple_plan(clause: object, reason: str) -> CompiledPlan:
    return CompiledPlan(MODE_TUPLE, None, clause, reason=reason)


def _sorted_vars(vs) -> tuple[Var, ...]:
    return tuple(sorted(vs, key=lambda v: (v.var_sort, v.name)))


def _dummy_args(a: Atom, bound: set[Var]) -> tuple[Term, ...]:
    """The atom's args with bound variables replaced by sort dummies."""
    from ..core.substitution import Subst

    needed = {v: _DUMMY[v.var_sort] for v in a.free_vars() if v in bound}
    if not needed:
        return a.args
    theta = Subst._make(needed)
    return tuple(theta.apply(t) for t in a.args)


class _Conjunct:
    """One body literal with its scheduling classification."""

    __slots__ = ("lit", "kind", "rel_index", "src", "ready_for")

    def __init__(self, lit: Literal, kind: str, rel_index: int, src: int):
        self.lit = lit
        self.kind = kind          # "rel" | "eq" | "member" | "builtin" | "neg"
        self.rel_index = rel_index  # index among positive relational atoms
        self.src = src            # source position in the body
        #: Builtin readiness by the set of its variables bound, shared by
        #: every schedule ``compile_body`` tries.
        self.ready_for: dict[frozenset, bool] = {}


def _classify(
    body: Sequence[Literal], builtins: Mapping[str, Builtin]
) -> list[_Conjunct]:
    out: list[_Conjunct] = []
    rel_i = 0
    for src, lit in enumerate(body):
        a = lit.atom
        if not lit.positive:
            out.append(_Conjunct(lit, "neg", -1, src))
        elif a.pred == EQUALS:
            out.append(_Conjunct(lit, "eq", -1, src))
        elif a.pred == MEMBER:
            out.append(_Conjunct(lit, "member", -1, src))
        elif a.pred in builtins:
            out.append(_Conjunct(lit, "builtin", -1, src))
        else:
            out.append(_Conjunct(lit, "rel", rel_i, src))
            rel_i += 1
    return out


def _ready(c: _Conjunct, bound: set[Var], builtins: Mapping[str, Builtin]):
    """Whether the conjunct is schedulable now; mirrors ``Solver._priority``.

    Returns a priority tier (lower = sooner) or ``None``.  The tiers match
    the tuple path's: negation-as-check < equality < builtin < membership
    < relational scan.
    """
    a = c.lit.atom
    if c.kind == "neg":
        return 0 if a.free_vars() <= bound else None
    if c.kind == "eq":
        l, r = a.args
        if free_vars(l) <= bound or free_vars(r) <= bound:
            return 1
        return None
    if c.kind == "builtin":
        b = builtins[a.pred]
        if len(a.args) != b.arity:
            return None  # arity error: let the tuple path raise it
        key = a.free_vars() & bound
        ready = c.ready_for.get(key)
        if ready is None:
            ready = c.ready_for[key] = b.ready(_dummy_args(a, bound))
        return 2 if ready else None
    if c.kind == "member":
        return 3 if free_vars(a.args[1]) <= bound else None
    return 4  # relational atoms are always scannable


def _scan_order_key(
    c: _Conjunct, bound: set[Var], pin: Optional[int], pin_first: bool = True
):
    """Static join-order preference among schedulable relational atoms.

    The pinned delta occurrence goes first (semi-naive differentiation)
    unless ``pin_first`` is off, when it only wins ties among equally
    connected scans.  The planner then prefers scans connected to
    already-bound variables (avoids cross products) with the most
    constrained argument positions — the static residue of the tuple
    path's index-cardinality estimates, whose dynamic half lives in the
    executor's build-side selection.
    """
    pinned = 0 if (pin is not None and c.rel_index == pin) else 1
    a = c.lit.atom
    connected = 0
    constrained = 0
    for t in a.args:
        if t.__class__ is Var:
            if t in bound:
                constrained += 1
                connected = 1
            continue
        fv = free_vars(t)
        if not fv:
            constrained += 1
        elif fv <= bound:
            constrained += 1
            connected = 1
        elif fv & bound:
            connected = 1
    if pin_first:
        return (pinned, -connected, -constrained, c.src)
    return (-connected, pinned, -constrained, c.src)


def compile_body(
    body: Sequence[Literal],
    builtins: Mapping[str, Builtin],
    delta_index: Optional[int] = None,
) -> tuple[Optional[PlanNode], set[Var], Optional[str]]:
    """Schedule a literal conjunction into a plan.

    Returns ``(root, bound_vars, reason)``; ``reason`` is non-``None`` iff
    the body is not fully schedulable (the caller then uses tuple mode).

    The greedy schedule is kept unless it contains a cross join; then
    each other relational conjunct is tried as the first scan (the pinned
    one is the greedy order's own), and an order with fewer cross joins
    replaces it (ties keep the earlier candidate: the greedy order, then
    the others by :func:`_scan_order_key`).
    """
    conjuncts = _classify(body, builtins)
    if delta_index is not None:
        if not any(c.rel_index == delta_index for c in conjuncts):
            return None, set(), f"no relational occurrence {delta_index}"
    order, reason, crosses = _order(conjuncts, builtins, delta_index, None)
    if crosses:
        rels = sorted(
            (c for c in conjuncts
             if c.kind == "rel" and c.rel_index != delta_index),
            key=lambda c: _scan_order_key(c, set(), delta_index),
        )
        for first in rels:
            alt = _order(conjuncts, builtins, delta_index, first)
            if alt[1] is None and alt[2] < crosses:
                order, reason, crosses = alt
                if not crosses:
                    break
    node: Optional[PlanNode] = None
    bound: set[Var] = set()
    for c in order:
        node = _attach(node, c, bound, builtins, delta_index)
        bound |= c.lit.atom.free_vars()
    return (None if reason else node), bound, reason


def _order(
    conjuncts: Sequence[_Conjunct],
    builtins: Mapping[str, Builtin],
    delta_index: Optional[int],
    first: Optional[_Conjunct],
) -> tuple[list[_Conjunct], Optional[str], int]:
    """One greedy order of the conjuncts, the reason it stops short (if
    it does) and its number of cross joins — scans that share no variable
    with what precedes them.  With ``first`` that relational conjunct is
    the first scan and the pinned one loses its claim to the front."""
    pending = list(conjuncts)
    order: list[_Conjunct] = []
    bound: set[Var] = set()
    crosses = 0
    scanned = False
    while pending:
        ready = [
            (tier, c) for c in pending
            if (tier := _ready(c, bound, builtins)) is not None
        ]
        if not ready:
            blocked = ", ".join(str(c.lit) for c in pending)
            return order, f"unschedulable conjuncts: {blocked}", crosses
        tier = min(t for t, _ in ready)
        tied = [c for t, c in ready if t == tier]
        if tier == 4:
            if first is not None and not scanned:
                chosen = first
            else:
                chosen = min(tied, key=lambda c: _scan_order_key(
                    c, bound, delta_index, first is None
                ))
            scanned = True
        else:
            chosen = min(tied, key=lambda c: c.src)
        fv = chosen.lit.atom.free_vars()
        if tier == 4 and order and not fv & bound:
            crosses += 1
        pending.remove(chosen)
        order.append(chosen)
        bound |= fv
    return order, None, crosses


def _attach(
    node: Optional[PlanNode],
    c: _Conjunct,
    bound: set[Var],
    builtins: Mapping[str, Builtin],
    delta_index: Optional[int],
) -> PlanNode:
    a = c.lit.atom
    if c.kind == "rel":
        scan = Scan(a, delta=(delta_index is not None
                              and c.rel_index == delta_index))
        return scan if node is None else Join(node, scan)
    if node is None:
        node = Unit()
    if c.kind == "neg":
        return AntiJoin(node, a)
    new_vars = _sorted_vars(a.free_vars() - bound)
    if c.kind == "member":
        elem, source = a.args
        if not new_vars:
            return Select(node, c.lit, "member")
        if elem.__class__ is Var and elem not in bound:
            return Unnest(node, elem, source, "expand", (elem,))
        return Unnest(node, elem, source, "unify", new_vars)
    kind = "equals" if c.kind == "eq" else "builtin"
    if not new_vars:
        return Select(node, c.lit, kind)
    return Compute(node, a, kind, new_vars)


def range_restricted(
    clause: LPSClause, builtins: Mapping[str, Builtin]
) -> bool:
    """Whether the clause's own literals bind every variable it has: no
    quantifier prefix, and the greedy order schedules each literal and
    binds the head's variables.  The readiness test of
    :func:`compile_rule`, without building (or counting) a plan."""
    if clause.quantifiers:
        return False
    order, reason, _ = _order(
        _classify(clause.body, builtins), builtins, None, None
    )
    bound: set[Var] = set()
    for c in order:
        bound |= c.lit.atom.free_vars()
    return reason is None and clause.head.free_vars() <= bound


def compile_rule(
    clause: LPSClause | Rule,
    builtins: Mapping[str, Builtin],
    delta_index: Optional[int] = None,
) -> CompiledPlan:
    """Compile one LPS clause body to a plan producing full-width rows.

    The plan's output schema covers every body variable, so consumers that
    need whole derivations (DRed overdeletion, delta filtering) can use
    it directly; the evaluator wraps it with ``Project``/``Distinct`` via
    :func:`head_plan` for plain head derivation.  A :class:`Rule` (a
    positive-formula body) stays on the tuple path.
    """
    if isinstance(clause, Rule):
        return _tuple_plan(clause, "positive formula body")
    if clause.quantifiers:
        return _tuple_plan(clause, "restricted quantifiers")
    if not clause.body:
        return _tuple_plan(clause, "empty body (active-domain rule)")
    root, bound, reason = compile_body(clause.body, builtins, delta_index)
    if reason is not None:
        return _tuple_plan(clause, reason)
    head_fv = clause.head.free_vars()
    if not head_fv <= bound:
        missing = ", ".join(str(v) for v in _sorted_vars(head_fv - bound))
        return _tuple_plan(
            clause, f"head variables range over the active domain: {missing}"
        )
    return CompiledPlan(MODE_SET, root, clause, bound_vars=frozenset(bound))


def head_plan(
    compiled: CompiledPlan, subtract_head: bool = False
) -> Optional[PlanNode]:
    """Wrap a rule plan for head derivation: project to the head variables
    and deduplicate (tuple-path head dedup lifted to a plan operator).

    With ``subtract_head`` the plan ends in an anti-join on the head atom,
    ``Distinct(Project(body)) ▷ head``: the rows left are the head
    instances the interpretation does not hold yet."""
    if compiled.root is None:
        return None
    head = compiled.clause.head
    head_vars = _sorted_vars(head.free_vars())
    node = compiled.root
    if head_vars:
        node = Project(node, head_vars)
    node = Distinct(node)
    return AntiJoin(node, head) if subtract_head else node


def compile_grouping(
    g: GroupingClause, builtins: Mapping[str, Builtin]
) -> CompiledPlan:
    """Compile an LDL grouping body; SET mode requires the grouped variable
    and every head-argument variable bound by the body.

    When the head arguments are plain distinct variables the plan ends in
    a :class:`~repro.engine.ir.GroupBy` node; structured head arguments
    keep the full-width row plan and group on resolved argument values in
    the evaluator (same semantics, no dedicated operator).
    """
    root, bound, reason = compile_body(g.body, builtins)
    if reason is not None:
        return _tuple_plan(g, reason)
    needed = set(g.free_vars()) | {g.group_var}
    if not needed <= bound:
        missing = ", ".join(str(v) for v in _sorted_vars(needed - bound))
        return _tuple_plan(g, f"unbound grouping variables: {missing}")
    head_arg_vars = [t for t in g.head_args if t.__class__ is Var]
    if (
        len(head_arg_vars) == len(g.head_args)
        and len(set(head_arg_vars)) == len(head_arg_vars)
    ):
        root = GroupBy(root, tuple(head_arg_vars), g.group_var)
    return CompiledPlan(MODE_SET, root, g, bound_vars=frozenset(bound))
