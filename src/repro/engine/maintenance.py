"""Incremental model maintenance: batched insert/delete fact streams.

The paper's examples assume a static EDB; this module makes the computed
model survive a *stream* of fact changes without recomputing from scratch.
A :class:`MaterializedModel` owns a solved model and exposes
:meth:`MaterializedModel.apply_delta`, which implements the classical
maintenance discipline:

* **DRed (delete–rederive)** for recursive strata: overdelete everything
  transitively derivable from the deleted facts, then re-derive atoms with
  surviving alternative derivations by seeding the existing semi-naive
  machinery (``Evaluator._fixpoint(seed_deltas=…)``) from the rescued
  atoms; insertions are a plain delta-seeded semi-naive closure.
* **Candidate re-derivation** (``rederive``) for every nonrecursive
  stratum, whose body predicates are all maintained below: every head
  (for a grouping clause, every group key) the input delta can move is
  found by pinning each changed body occurrence — a negated one through
  a *flipped* variant that joins the delta instead of anti-joining the
  relation — and each candidate is then decided in the new state by a
  point probe.  Nothing is counted: a head that loses one derivation
  stays while its probe finds another, and deletions below a negation
  can *grow* the stratum, which a probe decides exactly.
* **Per-stratum recomputation** for what is left — restricted
  quantifiers, rules kept as positive formulas, negation or grouping
  inside a recursive stratum, and
  rederive strata whose input delta is not small against their input
  relations (bulk load): the stratum is cleared and re-evaluated
  set-at-a-time against the maintained lower strata.

Soundness gate.  The engine's active-domain semantics lets rules consult
the domain carriers (unconstrained variables, non-ground quantifier
ranges); such rules can change their output when the *domain* shrinks or
grows even though no predicate they read changed.  Every carrier
consultation goes through ``Solver._require_fallback``, so the gate is
dynamic and exact: a program whose initial evaluation consulted the domain
(``SolverStats.fallbacks``) is recomputed on every commit, and the model
keeps no domain, so in a maintenance sweep — delta joins, stratum
fixpoints, per-stratum recomputation — the first consultation raises
``SafetyError``, the incremental result is abandoned and the model is
recomputed from scratch.
The maintained model is therefore *always* identical to a from-scratch
``Evaluator.run()`` over the updated database (see
``tests/test_maintenance.py``), and incrementality is a pure optimisation.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
)

from ..core.atoms import Atom, pos
from ..core.clauses import GroupingClause, LPSClause
from ..core.errors import EvaluationError, SafetyError, SortError
from ..core.program import AnyClause, Program, check_arity
from ..core.sorts import sorts_compatible
from ..core.substitution import Subst
from ..core.terms import SetValue, Term, setvalue
from ..core.unify import match_atom
from ..semantics.interpretation import FactSlice, Interpretation
from ..lang.sortinfer import predicate_sorts
from .builtins import DEFAULT_BUILTINS, Builtin
from .commits import Commit, CommitStream
from .database import Database, as_fact
from .evaluation import (
    EvalReport,
    Evaluator,
    Model,
    SolverStats,
    _CompiledRule,
    _Engines,
)
from .ir import ExecStats
from .stratify import (
    PLAN_DRED,
    PLAN_RECOMPUTE,
    PLAN_REDERIVE,
    StratumRules,
)

_EMPTY: frozenset = frozenset()

#: Strategies reported by :meth:`MaterializedModel.apply_delta`.
STRATEGY_NOOP = "noop"
STRATEGY_INCREMENTAL = "incremental"
STRATEGY_RECOMPUTE = "recompute"


#: The size gate of the ``rederive`` plan.  Re-derivation pays a point
#: probe per candidate head, recomputation a set-at-a-time pass over the
#: stratum's input relations; a probe costs roughly this many times a
#: row of that pass, so a batch whose input delta reaches
#: ``|input relations| / REDERIVE_INPUT_RATIO`` atoms (bulk load, the
#: first batch of a recovery) recomputes the stratum instead.  Deltas
#: below ``REDERIVE_MIN_GATE`` atoms always re-derive: against relations
#: that small either plan costs microseconds.
REDERIVE_INPUT_RATIO = 8
REDERIVE_MIN_GATE = 16


def _one_fact(spec: tuple) -> Any:
    """Normalize ``add(...)``/``retract(...)`` argument forms to a fact spec."""
    if len(spec) == 1 and isinstance(spec[0], Atom):
        return spec[0]
    return spec


#: Per-stratum change events: atoms added and atoms removed, by predicate.
#: Each plan reports only *actual* interpretation mutations, so an atom in
#: both maps was removed and restored — a net no-change.
Events = tuple[dict[str, set[Atom]], dict[str, set[Atom]]]


class FactSortError(SortError):
    """A written fact whose argument sort conflicts with the sort the
    program's rules give that position."""

    code = "sort_conflict"


def check_fact(
    spec: Any,
    builtins: Mapping[str, Builtin],
    sorts: Optional[Mapping[tuple[str, int], str]] = None,
    arities: Optional[dict[str, int]] = None,
) -> Atom:
    """``spec`` as an EDB fact a model over ``builtins`` may hold: ground,
    not special, not a builtin predicate, at the arity ``arities`` give
    its predicate (:func:`~repro.core.program.check_arity`) — and, given
    the rules' ``sorts`` (:func:`~repro.lang.sortinfer.predicate_sorts`),
    of the sort the rules read at each position: a set where they read
    an individual (or the other way round) would be held and never
    answered."""
    a = as_fact(spec)
    if a.is_special():
        raise EvaluationError(
            f"special atom {a} cannot be asserted or retracted"
        )
    if a.pred in builtins:
        raise EvaluationError(
            f"database fact uses builtin predicate {a.pred!r}"
        )
    if arities is not None:
        check_arity(arities, a.pred, len(a.args))
    if sorts:
        for i, t in enumerate(a.args):
            want = sorts.get((a.pred, i))
            if want is not None and not sorts_compatible(want, t.sort):
                raise FactSortError(
                    f"fact {a}: argument {i + 1} of {a.pred!r} is of sort "
                    f"{want!r} in the program's rules, not {t.sort!r}"
                )
    return a


def _merge_net_changes(
    gained: dict[str, set[Atom]],
    lost: dict[str, set[Atom]],
    add_events: Mapping[str, set[Atom]],
    rem_events: Mapping[str, set[Atom]],
) -> None:
    """Fold one stratum's events into the cascading net delta."""
    for p, s in add_events.items():
        net = s - rem_events.get(p, _EMPTY)
        if net:
            gained.setdefault(p, set()).update(net)
    for p, s in rem_events.items():
        net = s - add_events.get(p, _EMPTY)
        if net:
            lost.setdefault(p, set()).update(net)


@dataclass(frozen=True)
class ModelChanges:
    """Exact per-predicate model-atom changes of one maintenance batch.

    ``adds``/``dels`` map predicate name to the set of *model* atoms (EDB
    and derived alike) that appeared/disappeared in this batch.  Per
    predicate the two sets are disjoint: each predicate is produced by at
    most one stratum and the per-stratum events are netted before they are
    folded in (`_merge_net_changes`).  The live-subscription dispatcher
    pins these sets into delta-variant plans to push exact answer-set
    diffs without re-running standing queries.
    """

    adds: Mapping[str, frozenset[Atom]]
    dels: Mapping[str, frozenset[Atom]]

    def touches(self, preds: Iterable[str]) -> bool:
        """Did this batch change any of the given predicates?"""
        return any(p in self.adds or p in self.dels for p in preds)


def _group_by_pred(atoms: Iterable[Atom]) -> dict[str, frozenset[Atom]]:
    by_pred: dict[str, set[Atom]] = {}
    for a in atoms:
        by_pred.setdefault(a.pred, set()).add(a)
    return {p: frozenset(s) for p, s in by_pred.items()}


class StratumPlan(NamedTuple):
    """The plan one touched stratum was maintained with, and — when that
    was ``recompute`` — why no delta-proportional plan ran."""

    index: int
    plan: str
    reason: Optional[str] = None


@dataclass
class MaintenanceReport:
    """What one :meth:`MaterializedModel.apply_delta` call did."""

    strategy: str = STRATEGY_INCREMENTAL
    net_added: int = 0          # net EDB facts added to the database
    net_removed: int = 0        # net EDB facts removed from the database
    atoms_added: int = 0        # model atoms that appeared (EDB + derived)
    atoms_removed: int = 0      # model atoms that disappeared
    stratum_plans: tuple[StratumPlan, ...] = ()
    fallback_reason: Optional[str] = None
    #: Per-predicate atom sets behind the two counters above (``None`` only
    #: for no-op batches, which publish nothing).
    changes: Optional[ModelChanges] = None


@dataclass(frozen=True)
class _Rederivable:
    """One clause of a ``rederive`` stratum, as the two questions
    maintenance asks of it.

    *Which heads can this delta move?*  ``variants`` are positive
    conjunctive clauses with the clause's head: the body with its negated
    literals dropped (any occurrence with a delta is pinned), and one per
    negated relational literal with that atom appended **positively** (the
    flipped variant: only that last occurrence is pinned, so the
    anti-join against the relation becomes a join on its delta).  Their
    pinned heads over Δ⁺ ∪ Δ⁻, joined against old ∪ new state, are a
    superset of the heads whose truth changed.

    *Does this head hold now?*  ``probe`` is the clause itself, asked
    through :meth:`_CompiledRule.solutions`.  For a grouping clause
    ``p(x̄, <y>) :- B`` it is the key rule ``p<key>(x̄) :- B`` — its heads
    are group keys, and its solutions under one key collect the group.
    """

    probe: _CompiledRule
    variants: tuple[tuple[_CompiledRule, Optional[int]], ...]
    grouping: Optional[GroupingClause] = None

    def candidates(self, engines: _Engines) -> list[Atom]:
        """Heads (group keys) reachable from ``engines.delta``."""
        return [
            h
            for variant, only in self.variants
            for pin in variant.pins(engines.delta)
            if only is None or pin == only
            for h in variant.heads(engines, pin)
        ]

    def group(self, engines: _Engines, key: Atom) -> set[Term]:
        """The grouped values under one key (grouping clauses only)."""
        group_var = self.grouping.group_var
        values: set[Term] = set()
        for env in self.probe.solutions(engines.solver, key):
            value = env.apply(group_var)
            if not value.is_ground():
                raise SafetyError(
                    f"grouping variable {group_var} not bound by body of "
                    f"{self.grouping}"
                )
            values.add(value)
        return values

    def key_of(self, h: Atom) -> Atom:
        """The key atom of a grouped head atom."""
        pos_ = self.grouping.group_pos
        return Atom(self.probe.head.pred, h.args[:pos_] + h.args[pos_ + 1:])

    def grouped(self, key: Atom, values: Iterable[Term]) -> Atom:
        """The head atom a key's group stands for."""
        g = self.grouping
        args = list(key.args)
        args.insert(g.group_pos, setvalue(values))
        return Atom(g.pred, tuple(args))

    def derives(self, engines: _Engines, h: Atom) -> bool:
        """Whether this clause yields the ground atom ``h`` right now."""
        if self.grouping is None:
            return self.probe.derives(engines, h)
        if len(h.args) != len(self.probe.head.args) + 1:
            return False
        collected = h.args[self.grouping.group_pos]
        if not isinstance(collected, SetValue) or not collected.elems:
            return False
        return self.group(engines, self.key_of(h)) == collected.elems


class MaterializedModel:
    """A solved model that absorbs batched EDB insertions and deletions.

    The model owns its :class:`~repro.engine.database.Database`: mutate the
    EDB only through :meth:`apply_delta` (or :meth:`add`/:meth:`retract`),
    never behind the model's back; the program's facts join it at
    construction, and :attr:`program` keeps the rules.  After every call
    the model is a from-scratch evaluation of the updated database.  It
    evaluates with the default :class:`~repro.engine.evaluation.EvalOptions`
    and never shards: options are a batch :class:`Evaluator` setting.
    """

    def __init__(
        self,
        program: Program,
        database: Optional[Database] = None,
        builtins: Mapping[str, Builtin] = DEFAULT_BUILTINS,
    ) -> None:
        program.validate()
        facts = [check_fact(f, builtins) for f in program.facts()]
        self.program = program.rules()
        #: ``(pred, position) -> sort`` and ``pred -> arity`` as the rules
        #: use them: what a written fact is :meth:`checked` against.
        self.sorts = predicate_sorts(self.program)
        self.arities = self.program.predicates()
        self.database = database if database is not None else Database()
        self.builtins = builtins
        self._evaluator = Evaluator(self.program, self.database, builtins)
        self._groups = self._evaluator.stratification.groups
        #: Compiled rules per DRed stratum and, per rederive stratum,
        #: its clauses by head predicate.  All share the
        #: evaluator's rule cache, so a plan is compiled once however many
        #: commits, seeded fixpoints and recomputations use it.
        self._compiled: dict[int, list[_CompiledRule]] = {}
        self._rederive: dict[int, dict[str, list[_Rederivable]]] = {}
        compiled = self._evaluator.compiled_rule
        for g in self._groups:
            if g.plan == PLAN_DRED:
                self._compiled[g.index] = [compiled(c) for c in g.clauses]
            elif g.plan == PLAN_REDERIVE:
                by_pred = self._rederive[g.index] = {}
                for c in g.clauses:
                    by_pred.setdefault(program.head_pred(c), []).append(
                        self._rederivable(c)
                    )
        self.last_report: Optional[MaintenanceReport] = None
        #: Aggregated set-at-a-time executor counters across the initial
        #: evaluation, every rebuild and every maintenance sweep (the REPL's
        #: ``:stats`` reads this).
        self.exec_stats = ExecStats()
        added, _ = self.database.apply_delta(adds=facts)
        try:
            self._rebuild()
        except BaseException:
            # The caller's database may back a model still in use.
            self.database.apply_delta(dels=added)
            raise

    # -- read API ---------------------------------------------------------------

    @property
    def model(self) -> Model:
        return self._model

    @property
    def interpretation(self) -> Interpretation:
        return self._interp

    def holds(self, a: Atom) -> bool:
        return self._model.holds(a)

    def query(self, pattern: Atom):
        return self._model.query(pattern)

    def relation(self, pred: str) -> set[tuple]:
        return self._model.relation(pred)

    def __len__(self) -> int:
        return len(self._interp)

    # -- write API --------------------------------------------------------------

    def add(self, *spec: Any) -> MaintenanceReport:
        """Insert one fact: ``m.add("edge", "a", "b")`` or ``m.add(atom)``."""
        return self.apply_delta(adds=[_one_fact(spec)])

    def retract(self, *spec: Any) -> MaintenanceReport:
        """Delete one fact (same argument forms as :meth:`add`)."""
        return self.apply_delta(dels=[_one_fact(spec)])

    def apply_delta(
        self, adds: Iterable[Any] = (), dels: Iterable[Any] = (),
        *, check_sorts: bool = True,
    ) -> MaintenanceReport:
        """Apply a batch of insertions and deletions; maintain the model.

        ``adds``/``dels`` accept atoms or ``(pred, arg, ...)`` tuples.  The
        database becomes ``(db − dels) ∪ adds``; the model is maintained
        incrementally where the per-stratum plans apply and recomputed
        from scratch when the soundness gate trips (see module docstring).

        The batch is :meth:`checked` first.
        """
        add_atoms, del_atoms = self.checked(adds, dels, check_sorts)
        added, removed = self.database.apply_delta(add_atoms, del_atoms)
        report = MaintenanceReport(
            net_added=len(added), net_removed=len(removed)
        )
        if not added and not removed:
            report.strategy = STRATEGY_NOOP
            self.last_report = report
            return report
        if not self._incremental_ok:
            self._full_recompute(report, "program is not incrementally "
                                 "maintainable (domain-dependent rules)")
            return report
        try:
            self._maintain(added, removed, report)
        except SafetyError:
            # The sweep consulted the active domain (see _engines).
            self._full_recompute(
                report, "maintenance join needs the active domain",
                abandoned=(added, removed),
            )
        except EvaluationError as exc:
            # A failed or resource-limited incremental attempt: discard the
            # partially-maintained state and recompute (a genuine error will
            # re-raise from the from-scratch evaluation).
            self._full_recompute(
                report, str(exc), abandoned=(added, removed)
            )
        self.last_report = report
        return report

    def checked(
        self, adds: Iterable[Any] = (), dels: Iterable[Any] = (),
        check_sorts: bool = True,
    ) -> tuple[list[Atom], list[Atom]]:
        """A batch's ``(adds, dels)`` as atoms (:func:`check_fact`) or
        its refusal.  An added fact is at the arity the rules, the held
        facts and the batch give its predicate, and of the rules' sorts
        unless ``check_sorts`` is off: a follower replays what its leader
        logged, and a leader that wrote such a fact before the sort check
        existed must still be read (``storage.durable.judge_record``)."""
        sorts = self.sorts if check_sorts else None
        arities = {**self.database.arities, **self.arities}
        add_atoms = [
            check_fact(s, self.builtins, sorts, arities) for s in adds
        ]
        del_atoms = [check_fact(s, self.builtins) for s in dels]
        return add_atoms, del_atoms

    # -- construction / recompute ------------------------------------------------

    def _rebuild(self) -> None:
        """(Re)compute the model from scratch and reset all bookkeeping."""
        self._model = self._evaluator.run()
        self.exec_stats.merge(self._model.report.exec)
        self._interp = self._model.interpretation
        self._incremental_ok = self._model.report.stats.fallbacks == 0

    def _full_recompute(
        self,
        report: MaintenanceReport,
        reason: str,
        abandoned: Optional[tuple[frozenset[Atom], frozenset[Atom]]] = None,
    ) -> None:
        """Recompute from scratch and report the exact model changes.

        ``abandoned`` is the batch's net ``(added, removed)`` EDB facts
        when an incremental sweep was given up half-way: the
        interpretation then no longer is the pre-batch model, which is
        re-evaluated from the pre-batch database instead (a rare path
        that already pays one full evaluation).
        """
        if abandoned is None:
            before = set(self._interp.atoms())
        else:
            added, removed = abandoned
            old = Database()
            for a in self.database.facts():
                if a not in added:
                    old.add_atom(a)
            for a in removed:
                old.add_atom(a)
            before = set(Evaluator(
                self.program, old, self.builtins
            ).run().interpretation.atoms())
        self._rebuild()
        after = set(self._interp.atoms())
        report.strategy = STRATEGY_RECOMPUTE
        report.fallback_reason = reason
        report.atoms_added = len(after - before)
        report.atoms_removed = len(before - after)
        report.changes = ModelChanges(
            adds=_group_by_pred(after - before),
            dels=_group_by_pred(before - after),
        )
        self.last_report = report

    def _engines(
        self,
        stats: SolverStats,
        delta: Optional[Mapping[str, Iterable[Atom]]] = None,
    ) -> _Engines:
        """Engines over the maintained state; ``delta`` holds the facts
        pinned occurrences range over.  Maintenance thereby **reuses the
        same plans as the fixpoint loop** instead of re-deriving join
        order per batch.  They get no active domain, and nor do the
        stratum fixpoints and recomputations of a sweep: whatever would
        consult it raises :class:`SafetyError`, which abandons the
        incremental attempt (the soundness gate of the module docstring).
        """
        return _Engines(
            self._interp, self.builtins, stats, self.exec_stats, delta
        )

    # -- the maintenance sweep ---------------------------------------------------

    def _maintain(
        self,
        added: Iterable[Atom],
        removed: Iterable[Atom],
        report: MaintenanceReport,
    ) -> None:
        stats = SolverStats()
        gained: dict[str, set[Atom]] = {}
        lost: dict[str, set[Atom]] = {}
        edb_plus: dict[int, set[Atom]] = {}
        edb_minus: dict[int, set[Atom]] = {}

        # Pure EDB predicates (no producing rules) change the model directly;
        # EDB changes to derived predicates are handled by their stratum.
        stratum_of = self._evaluator.stratification.stratum_of
        for a in added:
            g = stratum_of.get(a.pred)
            if g is None:
                if self._interp.add(a):
                    gained.setdefault(a.pred, set()).add(a)
            else:
                edb_plus.setdefault(g, set()).add(a)
        for a in removed:
            g = stratum_of.get(a.pred)
            if g is None:
                if self._interp.remove(a):
                    lost.setdefault(a.pred, set()).add(a)
            else:
                edb_minus.setdefault(g, set()).add(a)

        plans: list[StratumPlan] = []
        for group in self._groups:
            plus = edb_plus.get(group.index, set())
            minus = edb_minus.get(group.index, set())
            touched = {
                p for p in group.body_preds
                if gained.get(p) or lost.get(p)
            }
            if not touched and not plus and not minus:
                continue
            plan, reason = group.plan, group.recompute_reason
            if plan == PLAN_REDERIVE:
                # The size gate (see REDERIVE_INPUT_RATIO): a delta that
                # is not small against the stratum's input relations is
                # cheaper to absorb set-at-a-time.
                n_delta = len(plus) + len(minus) + sum(
                    len(gained.get(p, ())) + len(lost.get(p, ()))
                    for p in touched
                )
                gate = max(REDERIVE_MIN_GATE, sum(
                    len(self._interp.facts_of(p)) for p in group.body_preds
                ) // REDERIVE_INPUT_RATIO)
                if n_delta >= gate:
                    plan = PLAN_RECOMPUTE
                    reason = f"delta {n_delta} ≥ gate {gate}"
            if plan == PLAN_DRED:
                events = self._maintain_dred(
                    group, gained, lost, plus, minus, stats
                )
            elif plan == PLAN_REDERIVE:
                events = self._maintain_rederive(
                    group, gained, lost, plus, minus, stats
                )
            else:
                events = self._recompute_stratum(group, stats)
            plans.append(StratumPlan(group.index, plan, reason))
            _merge_net_changes(gained, lost, *events)

        report.stratum_plans = tuple(plans)
        report.atoms_added = sum(len(s) for s in gained.values())
        report.atoms_removed = sum(len(s) for s in lost.values())
        report.changes = ModelChanges(
            adds={p: frozenset(s) for p, s in gained.items() if s},
            dels={p: frozenset(s) for p, s in lost.items() if s},
        )

    # -- DRed strata -------------------------------------------------------------

    def _maintain_dred(
        self,
        group: StratumRules,
        gained: Mapping[str, set[Atom]],
        lost: Mapping[str, set[Atom]],
        edb_plus: set[Atom],
        edb_minus: set[Atom],
        stats: SolverStats,
    ) -> Events:
        rules = self._compiled[group.index]
        lps_clauses = [
            c for c in group.clauses if isinstance(c, LPSClause)
        ]
        dep_gained = {
            p: gained[p] for p in group.body_preds if gained.get(p)
        }
        dep_lost = {
            p: lost[p] for p in group.body_preds if lost.get(p)
        }

        # --- phase 1: overdelete everything reachable from a deletion ---
        overdeleted: set[Atom] = set()
        frontier: dict[str, set[Atom]] = {}
        for a in edb_minus:
            if a in self._interp and not self._protected(a):
                overdeleted.add(a)
                frontier.setdefault(a.pred, set()).add(a)
        for p, s in dep_lost.items():
            frontier.setdefault(p, set()).update(s)
        if frontier:
            readded = [
                a for s in dep_lost.values() for a in s
                if self._interp.add(a)
            ]
            try:
                engines = self._engines(stats, frontier)
                while frontier:
                    next_frontier: dict[str, set[Atom]] = {}
                    engines.rebind(frontier)
                    for rule in rules:
                        self._overdelete_rule(
                            rule, engines, next_frontier, overdeleted,
                            dep_gained,
                        )
                    frontier = next_frontier
            finally:
                for a in readded:
                    self._interp.remove(a)
        add_events: dict[str, set[Atom]] = {}
        rem_events: dict[str, set[Atom]] = {}
        for a in overdeleted:
            self._interp.remove(a)
            rem_events.setdefault(a.pred, set()).add(a)

        # --- phase 2: re-derive overdeleted atoms with surviving support ---
        if overdeleted:
            engines = self._engines(stats)
            by_head: dict[str, list[_CompiledRule]] = {}
            for rule in rules:
                by_head.setdefault(rule.head.pred, []).append(rule)
            rederived: dict[str, set[Atom]] = {}
            for h in overdeleted:
                if any(r.derives(engines, h) for r in by_head.get(h.pred, ())):
                    self._interp.add(h)
                    rederived.setdefault(h.pred, set()).add(h)
                    add_events.setdefault(h.pred, set()).add(h)
            if rederived:
                closure = self._seeded_fixpoint(
                    lps_clauses, rederived, stats
                )
                for p, slices in closure.items():
                    add_events.setdefault(p, set()).update(
                        itertools.chain.from_iterable(slices)
                    )

        # --- phase 3: close the insertions semi-naively from the deltas ---
        seed: dict[str, set[Atom]] = {}
        for a in edb_plus:
            if self._interp.add(a):
                seed.setdefault(a.pred, set()).add(a)
                add_events.setdefault(a.pred, set()).add(a)
        for p, s in dep_gained.items():
            seed.setdefault(p, set()).update(s)
        if seed:
            closure = self._seeded_fixpoint(lps_clauses, seed, stats)
            for p, slices in closure.items():
                add_events.setdefault(p, set()).update(
                    itertools.chain.from_iterable(slices)
                )
        return add_events, rem_events

    def _overdelete_rule(
        self,
        rule: _CompiledRule,
        engines: _Engines,
        next_frontier: dict[str, set[Atom]],
        overdeleted: set[Atom],
        dep_gained: Mapping[str, set[Atom]],
    ) -> None:
        """One overdeletion step: heads derivable through a frontier
        (``engines.delta``) fact at some occurrence join the next one."""
        rel = rule.relational
        for i in rule.pins(engines.delta):
            for env in rule.bindings(engines, i):
                # Overdeletion runs over the pre-batch state: facts
                # gained below this stratum are not part of it.
                if dep_gained and any(
                    dep_gained.get(a.pred)
                    and a.substitute(env) in dep_gained[a.pred]
                    for j, a in enumerate(rel) if j != i
                ):
                    continue
                h = rule.head.substitute(env)
                if (
                    h in overdeleted
                    or h not in self._interp
                    or self._protected(h)
                ):
                    continue
                overdeleted.add(h)
                next_frontier.setdefault(h.pred, set()).add(h)

    def _protected(self, a: Atom) -> bool:
        """EDB facts survive overdeletion unconditionally."""
        return a in self.database

    def _seeded_fixpoint(
        self,
        clauses: list[LPSClause],
        seed: Mapping[str, set[Atom]],
        stats: SolverStats,
    ) -> Mapping[str, list[FactSlice]]:
        """Close a stratum from the given deltas; returns the atoms added."""
        return self._evaluator._fixpoint(
            clauses,
            self._interp,
            None,
            EvalReport(stats=stats, exec=self.exec_stats),
            seed_deltas={p: frozenset(s) for p, s in seed.items()},
        )

    # -- rederive strata ---------------------------------------------------------

    def _rederivable(self, c: AnyClause) -> _Rederivable:
        """Analyse one clause of a rederive stratum (see `_Rederivable`)."""
        compiled = self._evaluator.compiled_rule
        grouping = c if isinstance(c, GroupingClause) else None
        probe = c if grouping is None else LPSClause(
            head=Atom(f"{c.pred}<key>", c.head_args), body=c.body
        )
        positive = tuple(l for l in probe.body if l.positive)
        base = compiled(
            probe if len(positive) == len(probe.body)
            else LPSClause(head=probe.head, body=positive)
        )
        variants: list[tuple[_CompiledRule, Optional[int]]] = [(base, None)]
        for l in probe.body:
            a = l.atom
            if not l.positive and not a.is_special() \
                    and a.pred not in self.builtins:
                flipped = LPSClause(head=probe.head, body=positive + (pos(a),))
                variants.append((compiled(flipped), len(base.relational)))
        return _Rederivable(compiled(probe), tuple(variants), grouping)

    def _maintain_rederive(
        self,
        group: StratumRules,
        gained: Mapping[str, set[Atom]],
        lost: Mapping[str, set[Atom]],
        edb_plus: set[Atom],
        edb_minus: set[Atom],
        stats: SolverStats,
    ) -> Events:
        """Find the heads the input delta can move, decide each by a probe.

        A head changes truth only through a derivation that holds in one
        of the two states and uses a changed fact: positively (a fact of
        Δ⁺ or Δ⁻) or under negation (an atom of Δ⁻ or Δ⁺).  So the pinned
        variants run over Δ⁺ ∪ Δ⁻ against old ∪ new state — the deleted
        inputs are re-added for the join — and
        whatever they reach is decided against the new state alone.  The
        stratum reads nothing it writes, so decisions are independent.
        """
        by_pred = self._rederive[group.index]
        dep_lost = {p: lost[p] for p in group.body_preds if lost.get(p)}
        delta = {
            p: gained.get(p, _EMPTY) | lost.get(p, _EMPTY)
            for p in group.body_preds if gained.get(p) or lost.get(p)
        }
        found: list[tuple[_Rederivable, list[Atom]]] = []
        if delta:
            readded = [
                a for s in dep_lost.values() for a in s
                if self._interp.add(a)
            ]
            try:
                engines = self._engines(stats, delta)
                for rules in by_pred.values():
                    for r in rules:
                        found.append((r, r.candidates(engines)))
            finally:
                for a in readded:
                    self._interp.remove(a)

        engines = self._engines(stats)
        # The candidates come from pinned scans over the delta sets, so
        # their order, and the order facts enter the interpretation in,
        # follows index bucket order, hence the process hash seed.  Every
        # output (models, answers, diffs) sorts through
        # ``cached_order_key``; ``explain`` may return another tree, and
        # ``test_cross_strategies`` checks every tree.  A sort here would
        # cost every commit.
        todo: dict[Atom, None] = dict.fromkeys(edb_minus)
        todo.update(dict.fromkeys(edb_plus))
        decided: dict[Atom, bool] = {}
        for r, heads in found:
            if r.grouping is None:
                todo.update(dict.fromkeys(heads))
                continue
            for key in dict.fromkeys(heads):
                # Whatever the predicate holds under this key is stale
                # unless something still supports it; the key's new group,
                # when there is one, is supported by construction.
                todo.update(dict.fromkeys(self._held_under(r, key)))
                values = r.group(engines, key)
                if values:
                    h = r.grouped(key, values)
                    decided[h] = True
                    todo[h] = None

        add_events: dict[str, set[Atom]] = {}
        rem_events: dict[str, set[Atom]] = {}
        for h in todo:
            holds = decided.get(h)
            if holds is None:
                holds = self._protected(h) or any(
                    r.derives(engines, h) for r in by_pred.get(h.pred, ())
                )
            if holds:
                if self._interp.add(h):
                    add_events.setdefault(h.pred, set()).add(h)
            elif self._interp.remove(h):
                rem_events.setdefault(h.pred, set()).add(h)
        return add_events, rem_events

    def _held_under(self, r: _Rederivable, key: Atom) -> list[Atom]:
        """The model's atoms of a grouping predicate under one group key."""
        g = r.grouping
        at = g.group_pos
        before, after = key.args[:at], key.args[at:]
        pattern = before + (g.group_var,) + after
        return [
            f for f in self._interp.candidates_for_pattern(g.pred, pattern)
            if len(f.args) == len(pattern)
            and f.args[:at] == before and f.args[at + 1:] == after
        ]

    # -- recompute strata --------------------------------------------------------

    def _recompute_stratum(
        self, group: StratumRules, stats: SolverStats
    ) -> Events:
        """Clear and re-evaluate one stratum against maintained lower strata."""
        add_events: dict[str, set[Atom]] = {}
        rem_events: dict[str, set[Atom]] = {}
        for p in group.head_preds:
            cleared = set(self._interp.facts_of(p))
            for a in cleared:
                self._interp.remove(a)
            if cleared:
                rem_events[p] = cleared
            for a in self.database.facts_of(p):
                if self._interp.add(a):
                    add_events.setdefault(p, set()).add(a)
        grouping = [
            c for c in group.clauses if isinstance(c, GroupingClause)
        ]
        normal = [
            c for c in group.clauses if not isinstance(c, GroupingClause)
        ]
        ereport = EvalReport(stats=stats, exec=self.exec_stats)
        for g in grouping:
            grouped = self._evaluator._apply_grouping(
                g, self._interp, None, ereport
            )
            if grouped:
                add_events.setdefault(g.pred, set()).update(grouped)
        closure = self._evaluator._fixpoint(
            normal, self._interp, None, ereport
        )
        for p, slices in closure.items():
            add_events.setdefault(p, set()).update(
                itertools.chain.from_iterable(slices)
            )
        return add_events, rem_events


# ---------------------------------------------------------------------------
# Versioned publication: snapshot-isolated reads over a maintained model
# ---------------------------------------------------------------------------

class RetiredVersionError(EvaluationError):
    """The requested snapshot version is no longer resolvable.

    Raised by :meth:`VersionedModel.at` when a reader asks for a version
    the registry has already retired (older than ``keep_versions`` and not
    pinned by any session).  The error is *per-request*: the shared model
    and every still-registered snapshot are unaffected.
    """


@dataclass(frozen=True)
class ModelSnapshot:
    """One published version: an immutable view of the maintained model.

    ``interpretation`` and ``database`` are frozen copy-on-write snapshots
    (see :meth:`Interpretation.snapshot`), so holding a ``ModelSnapshot``
    is O(#predicates) and reading it never blocks — or observes — the
    writer.  ``report`` is the maintenance report of the delta that
    produced this version (``None`` for version 0).
    """

    version: int
    interpretation: Interpretation
    database: Database
    report: Optional[MaintenanceReport] = None

    def holds(self, a: Atom) -> bool:
        from ..core.formulas import evaluate_ground_atom

        return evaluate_ground_atom(a, self.interpretation.holds)

    def query(self, pattern: Atom) -> Iterator[Subst]:
        """All substitutions matching a pattern atom, in deterministic order."""
        from ..core.atoms import atom_order_key

        for f in sorted(
            self.interpretation.facts_of(pattern.pred), key=atom_order_key
        ):
            yield from match_atom(pattern, f)

    def relation(self, pred: str) -> set[tuple]:
        from .database import from_term

        return {
            tuple(from_term(t) for t in a.args)
            for a in self.interpretation.facts_of(pred)
        }

    def pretty(self) -> str:
        return self.interpretation.pretty()

    def __len__(self) -> int:
        return len(self.interpretation)


class _WriteLock:
    """A reentrant lock that lets a waiting thread in.

    ``threading.RLock`` is not fair and a commit never blocks, so a thread
    committing in a loop takes the lock back before a thread waiting on it
    (``pin``, a cursor handoff) is scheduled, and as commits grow slower it
    never is.  Releasing the lock outright while another thread waits
    gives up the GIL once, which lets the waiter take it.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._count = threading.Lock()      # guards ``_waiting``
        self._waiting = 0

    def __enter__(self) -> bool:
        if self._lock.acquire(blocking=False):
            return True
        with self._count:
            self._waiting += 1
        try:
            return self._lock.acquire()
        finally:
            with self._count:
                self._waiting -= 1

    def __exit__(self, *exc) -> None:
        self._lock.release()
        if self._waiting and not self._lock._is_owned():
            time.sleep(0)


class VersionedModel:
    """A :class:`MaterializedModel` behind a single-writer / multi-reader
    snapshot discipline.

    * **One writer at a time.**  :meth:`apply_delta` (and
      :meth:`replace_program`) serialize on the write lock; each successful
      call publishes a new :class:`ModelSnapshot` with the next version
      number by a single attribute store (atomic under the GIL), so readers
      never observe a half-applied batch.
    * **Readers never lock.**  :attr:`current` is a plain attribute read;
      queries run against the frozen snapshot while the writer mutates its
      copy-on-write working state.
    * **Version registry.**  The last ``keep_versions`` snapshots stay
      resolvable through :meth:`at` for time-travel reads; sessions can
      :meth:`pin` a version to keep it alive past that window.  Asking for
      anything older raises :class:`RetiredVersionError`.
    """

    def __init__(
        self,
        program: Program,
        database: Optional[Database] = None,
        builtins: Mapping[str, Builtin] = DEFAULT_BUILTINS,
        keep_versions: int = 8,
        base_version: int = 0,
    ) -> None:
        if keep_versions < 1:
            raise ValueError("keep_versions must be >= 1")
        if base_version < 0:
            raise ValueError("base_version must be >= 0")
        self._lock = _WriteLock()
        self._keep = keep_versions
        self._materialized = MaterializedModel(
            program, database, builtins=builtins
        )
        self._pins: dict[int, int] = {}
        self._snapshots: dict[int, ModelSnapshot] = {}
        # ``base_version`` lets durable recovery resume the pre-crash
        # numbering: the initial publication becomes ``base_version + 1``
        # (the version the recovered checkpoint was taken at), so version
        # numbers stay monotone across restarts.
        self._version = base_version
        #: Every commit, in order, for whoever follows this model (see
        #: :mod:`repro.engine.commits`).
        self.commits = CommitStream(base_version)
        self.current: ModelSnapshot = self._publish(None)

    # -- read side ---------------------------------------------------------------

    @property
    def version(self) -> int:
        """The latest published version number."""
        return self.current.version

    @property
    def lock(self) -> "_WriteLock":
        """The write lock (reentrant; for multi-step writer transactions)."""
        return self._lock

    @property
    def program(self) -> Program:
        return self._materialized.program

    @property
    def builtins(self) -> Mapping[str, Builtin]:
        return self._materialized.builtins

    @property
    def sorts(self) -> Mapping[tuple[str, int], str]:
        """The sorts the program's rules read (see :func:`check_fact`)."""
        return self._materialized.sorts

    def checked(
        self, adds: Iterable[Any] = (), dels: Iterable[Any] = (),
        check_sorts: bool = True,
    ) -> tuple[list[Atom], list[Atom]]:
        """See :meth:`MaterializedModel.checked`."""
        return self._materialized.checked(adds, dels, check_sorts)

    def at(self, version: int) -> ModelSnapshot:
        """The snapshot published as ``version``.

        Raises :class:`RetiredVersionError` when that version has been
        retired (or never existed yet).
        """
        snap = self._snapshots.get(version)   # atomic lock-free fast path
        if snap is None:
            # Build the error under the lock: enumerating the registry
            # while the writer retires entries would race.
            with self._lock:
                snap = self._snapshots.get(version)
                if snap is None:
                    raise RetiredVersionError(
                        f"version {version} is retired or unknown "
                        f"(live: {sorted(self._snapshots)})"
                    )
        return snap

    def wait_version(
        self, version: int, timeout: Optional[float] = None
    ) -> int:
        """Block until the published version reaches ``version``.

        Returns the latest published version — ``>= version`` on success,
        smaller if the timeout expired first.  The wait parks on the
        commit stream's condition, never on the write lock: a writer in
        the middle of a long batch does not hold up a satisfied wait.
        """
        return self.commits.wait(version, timeout)

    def pin(self, version: Optional[int] = None) -> ModelSnapshot:
        """Resolve and pin a version so it survives retirement."""
        with self._lock:
            snap = self.current if version is None else self.at(version)
            self._pins[snap.version] = self._pins.get(snap.version, 0) + 1
            return snap

    def release(self, version: int) -> None:
        """Undo one :meth:`pin`; retires the version if now out of window."""
        with self._lock:
            n = self._pins.get(version, 0)
            if n <= 1:
                self._pins.pop(version, None)
            else:
                self._pins[version] = n - 1
            self._retire()

    # -- write side --------------------------------------------------------------

    def apply_delta(
        self, adds: Iterable[Any] = (), dels: Iterable[Any] = (),
        *, check_sorts: bool = True,
    ) -> ModelSnapshot:
        """Serialize one maintenance batch and publish the next version.

        Returns the snapshot that includes the batch.  A failed batch
        (bad fact spec, sort conflict, resource limit) publishes nothing:
        the previous snapshot stays current and the maintained state is
        unchanged or fully recomputed by :class:`MaterializedModel`'s own
        guards.  ``check_sorts`` as in
        :meth:`MaterializedModel.apply_delta`.
        """
        with self._lock:
            report = self._materialized.apply_delta(
                adds=adds, dels=dels, check_sorts=check_sorts
            )
            if report.strategy == STRATEGY_NOOP:
                return self.current
            return self._publish(report)

    def add(self, *spec: Any) -> ModelSnapshot:
        return self.apply_delta(adds=[_one_fact(spec)])

    def retract(self, *spec: Any) -> ModelSnapshot:
        return self.apply_delta(dels=[_one_fact(spec)])

    def replace_program(self, program: Program) -> ModelSnapshot:
        """Swap the rule program (same database), rebuild, publish.
        Facts ``program`` carries join the database, as at construction."""
        with self._lock:
            db = self._materialized.database
            self._materialized = MaterializedModel(
                program, db, builtins=self._materialized.builtins
            )
            return self._publish(self._materialized.last_report)

    @property
    def exec_stats(self) -> ExecStats:
        """The writer's aggregated executor counters (maintenance sweeps).

        Only the serialized writer mutates this; read a merged copy via
        the service layer when reader threads are active.
        """
        return self._materialized.exec_stats

    @property
    def last_report(self) -> Optional[MaintenanceReport]:
        return self._materialized.last_report

    # -- internals ---------------------------------------------------------------

    def _publish(self, report: Optional[MaintenanceReport]) -> ModelSnapshot:
        with self._lock:
            self._version += 1
            snap = ModelSnapshot(
                version=self._version,
                interpretation=self._materialized.interpretation.snapshot(),
                database=self._materialized.database.snapshot(),
                report=report,
            )
            self._snapshots[snap.version] = snap
            self.current = snap  # atomic publication point
            self._retire()
            self._announce(snap)
            return snap

    def _announce(self, snap: ModelSnapshot) -> None:
        """Put a publication on the commit stream (write lock held)."""
        self.commits.append(Commit(snap.version))

    def _retire(self) -> None:
        horizon = self._version - self._keep + 1
        for v in [v for v in self._snapshots if v < horizon]:
            if v not in self._pins:
                del self._snapshots[v]
