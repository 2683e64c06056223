"""Bottom-up evaluation of LPS/ELPS programs under active-domain semantics.

This is the runtime that makes the paper executable.  It computes the least
(perfect, when negation/grouping is present) model of a program **relative
to the active domain**: the set of ground a-terms and set values occurring
in the program, the database, or anything derived so far.  For programs
whose rules are range-restricted in the usual Datalog sense the result
coincides with ``M_P`` restricted to the derivable atoms; for rules such as
``subset(X, Y) :- (∀x ∈ X)(x ∈ Y)`` — whose full extension over the
Herbrand universe is infinite — it yields the restriction of ``M_P`` to
active-domain arguments, which is the standard finiteness discipline.

Design highlights (see DESIGN.md):

* **Formula solver.**  Rule bodies are solved by a generic backtracking
  solver over body *formulas* (conjunction, disjunction, restricted
  quantifiers, negation, built-ins).  A conjunct is scheduled when it is
  *ready* (can check or generate); when nothing is ready the solver falls
  back to enumerating an unbound variable over the active domain — that
  fallback is what gives non-range-restricted rules their active-domain
  meaning, and what realises the paper's vacuous-quantifier semantics
  (``(∀x ∈ ∅)φ`` is true even when φ's other conjuncts are false).
* **Stratified evaluation.**  Strata come from ``repro.engine.stratify``;
  negative literals and LDL grouping clauses only see fully computed lower
  strata, per Section 4.2 / Section 6 of the paper.
* **Semi-naive rounds.**  Plain conjunctive rules are differentiated on
  their recursive body atoms; rules with quantifiers or disjunction are
  re-evaluated only when a predicate they depend on (or the active domain)
  changed.
* **One pipeline.**  A rule application goes through
  ``_CompiledRule.heads`` / ``bindings``: the compiled plan when the body
  has one and it applies to the actual values, else the formula solver
  (see DESIGN.md, "Execution pipeline").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any, Collection, Iterable, Iterator, Mapping, Optional, Sequence,
)

from ..core.atoms import Atom, Literal
from ..core.clauses import GroupingClause, LPSClause
from ..core.errors import EvaluationError, SafetyError
from ..core.formulas import (
    AndF,
    AtomF,
    ExistsIn,
    ForallIn,
    Formula,
    NotF,
    OrF,
    TrueF,
    conj,
    evaluate,
)
from ..core.program import Program
from ..core.sorts import EQUALS, MEMBER, SORT_A, SORT_S, SORT_U, sorts_compatible
from ..core.substitution import Subst
from ..core.terms import (
    App,
    Const,
    SetExpr,
    SetValue,
    Term,
    Var,
    order_key,
    setvalue,
    subterms,
)
from ..core.atoms import atom_order_key
from ..core.unify import (
    MATCH_FAILED,
    MATCH_REFUSED,
    match_atom,
    match_atom_fast,
    unify,
)
from ..semantics.interpretation import Interpretation
from .builtins import DEFAULT_BUILTINS, Builtin
from .database import Database, from_term
from .columnar import distinct_terms, make_executor
from .executor import Executor, PlanInapplicable
from .ir import ExecStats, GroupBy, PlanNode, Row
from .planner import CompiledPlan, compile_grouping, compile_rule, head_plan
from .stratify import Stratification, stratify

#: Default bound on fixpoint rounds (a safety net, not a semantic limit).
DEFAULT_MAX_ROUNDS = 100_000

#: Default bound on the number of domain-fallback enumerations per rule
#: application round; ``None`` disables the check.
DEFAULT_FALLBACK_LIMIT = 5_000_000



class ActiveDomain:
    """The growing two-sorted active domain.

    ``atoms`` are ground sort-a terms, ``sets`` ground set values.  The
    empty set is always a member (Definition 4 makes ``∅`` semantically
    load-bearing).  ``version`` increments whenever the carriers grow, so
    the evaluator can detect domain growth cheaply.
    """

    def __init__(self) -> None:
        self._atoms: dict[Term, None] = {}
        self._sets: dict[SetValue, None] = {setvalue(()): None}
        self.version = 0
        self._carrier_cache: dict[str, tuple[int, list[Term]]] = {}
        self._noted: dict[Term, None] = {}

    def note_term(self, t: Term) -> None:
        # The domain only grows, so noting a term is idempotent — and terms
        # are interned with cached hashes, so one dict probe replaces the
        # subterm walk for every repeat (fact columns repeat constants
        # heavily; this is the hot path of bulk fact loading).
        if t in self._noted:
            return
        self._noted[t] = None
        for s in subterms(t):
            if isinstance(s, SetValue):
                if s not in self._sets:
                    self._sets[s] = None
                    self.version += 1
            elif isinstance(s, (Const, App)) and s.is_ground():
                if s not in self._atoms:
                    self._atoms[s] = None
                    self.version += 1

    def note_atom(self, a: Atom) -> None:
        for t in a.args:
            self.note_term(t)

    def note_terms(self, terms: Iterable[Term]) -> None:
        for t in terms:
            self.note_term(t)

    def note_rows(self, rows: Iterable[Sequence[Term]]) -> None:
        """Note every cell of a batch of ground rows, each distinct term
        once."""
        self.note_terms(set(itertools.chain.from_iterable(rows)))

    def carrier(self, sort: str) -> list[Term]:
        """The carrier list of a sort, cached per domain version.

        Callers must treat the returned list as read-only; fallback
        enumeration asks for carriers far more often than the domain grows.
        """
        cached = self._carrier_cache.get(sort)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        if sort == SORT_A:
            out: list[Term] = list(self._atoms)
        elif sort == SORT_S:
            out = list(self._sets)
        elif sort == SORT_U:
            out = list(self._atoms) + list(self._sets)
        else:
            raise EvaluationError(f"unknown sort {sort!r}")
        self._carrier_cache[sort] = (self.version, out)
        return out

    def carrier_size(self, sort: str) -> int:
        if sort == SORT_A:
            return len(self._atoms)
        if sort == SORT_S:
            return len(self._sets)
        if sort == SORT_U:
            return len(self._atoms) + len(self._sets)
        raise EvaluationError(f"unknown sort {sort!r}")

    @property
    def n_atoms(self) -> int:
        return len(self._atoms)

    @property
    def n_sets(self) -> int:
        return len(self._sets)


@dataclass
class SolverStats:
    """Counters exposed for benchmarks and the safety tests.

    A ``SolverStats`` is single-threaded state: every solver instance gets
    its own (or an explicitly shared one from a single-threaded caller).
    Concurrent consumers (the query service) keep one per session and
    combine them with :meth:`merge` on read, never sharing a live instance
    across threads.
    """

    matches: int = 0
    fallbacks: int = 0
    fallback_bindings: int = 0
    #: Results of rule applications, whichever engine ran them: distinct
    #: head atoms (``_CompiledRule.heads``) or distinct bindings
    #: (``_CompiledRule.bindings``), per application.
    derivations: int = 0

    def merge(self, other: "SolverStats") -> None:
        """Fold another stats object into this one (counter-wise sum)."""
        self.matches += other.matches
        self.fallbacks += other.fallbacks
        self.fallback_bindings += other.fallback_bindings
        self.derivations += other.derivations


class Solver:
    """Backtracking solver for body formulas against an interpretation.

    ``solve(f, env)`` yields extensions of ``env`` that bind **all** free
    variables of ``f`` and make ``f`` true.  Bindings created for variables
    the formula does not constrain come from the active domain (see module
    docstring).
    """

    def __init__(
        self,
        interp: Interpretation,
        domain: ActiveDomain,
        builtins: Mapping[str, Builtin] = DEFAULT_BUILTINS,
        allow_fallback: bool = True,
        fallback_limit: Optional[int] = DEFAULT_FALLBACK_LIMIT,
        stats: Optional[SolverStats] = None,
    ) -> None:
        self.interp = interp
        self.domain = domain
        self.builtins = builtins
        self.allow_fallback = allow_fallback
        self.fallback_limit = fallback_limit
        self.stats = stats if stats is not None else SolverStats()
        # Memoized restricted-quantifier unfoldings, keyed by (formula,
        # ground range set): the expansion is the same for every candidate
        # binding, so re-substituting per solver step is pure waste.
        self._forall_cache: dict[tuple, Formula] = {}
        self._exists_cache: dict[tuple, list[Formula]] = {}

    # -- public entry -----------------------------------------------------------

    def solve(
        self, f: Formula, env: Subst = Subst(), fv=None
    ) -> Iterator[Subst]:
        if fv is None:
            fv = f.free_vars()
        for out in self._solve(f, env):
            yield from self._complete_fv(f, fv, out)

    # -- helpers ----------------------------------------------------------------

    def _unbound(self, f: Formula, env: Subst) -> list[Var]:
        return sorted(
            (v for v in f.free_vars() if v not in env),
            key=lambda v: (v.sort, v.name),
        )

    def _complete_fv(
        self, f: Formula, fv: Iterable[Var], env: Subst
    ) -> Iterator[Subst]:
        """Like :meth:`_complete` with the free variables precomputed."""
        emap = env._map
        missing = [v for v in fv if v not in emap]
        if not missing:
            yield env
            return
        missing.sort(key=lambda v: (v.var_sort, v.name))
        self._require_fallback(missing, f)
        carriers = [self.domain.carrier(v.sort) for v in missing]
        total = 1
        for c in carriers:
            total *= max(len(c), 1)
        self._charge_fallback(total)
        for combo in itertools.product(*carriers):
            yield env.extend(dict(zip(missing, combo)))

    def _require_fallback(self, variables: Sequence[Var], f: Formula) -> None:
        if not self.allow_fallback:
            raise SafetyError(
                f"rule body {f} leaves variables {[str(v) for v in variables]} "
                "unconstrained; active-domain enumeration is disabled "
                "(allow_fallback=False)"
            )
        self.stats.fallbacks += 1

    def _charge_fallback(self, n: int) -> None:
        self.stats.fallback_bindings += n
        if self.fallback_limit is not None and (
            self.stats.fallback_bindings > self.fallback_limit
        ):
            raise EvaluationError(
                "active-domain fallback exceeded fallback_limit="
                f"{self.fallback_limit}; the program is likely not "
                "range-restricted enough for this database"
            )

    # -- readiness / priority -----------------------------------------------------

    def _priority(
        self, f: Formula, env: Subst, fv: Optional[Iterable[Var]] = None
    ) -> Optional[tuple]:
        """Scheduling priority (lower = sooner); ``None`` = not ready.

        For relational atoms the second component is an **estimated result
        cardinality** taken from the argument indexes (the exact size of the
        index bucket the join step would scan), so conjunctions are joined
        smallest-relation-first instead of most-bound-first.  This is the
        boundness-driven join planner of DESIGN.md.
        """
        if fv is None:
            fv = f.free_vars()
        unbound = sum(1 for v in fv if v not in env)
        if isinstance(f, TrueF):
            return (0, 0)
        if unbound == 0:
            # Pure check; NotF is only evaluable at this point.
            if isinstance(f, NotF):
                return (0, 0)
            return (0, 1)
        if isinstance(f, NotF):
            return None
        if isinstance(f, AtomF):
            a = f.atom
            if a.pred == EQUALS:
                l, r = (env.apply(t) for t in a.args)
                if l.is_ground() or r.is_ground():
                    return (1, unbound)
                return None
            if a.pred in self.builtins:
                args = tuple(env.apply(t) for t in a.args)
                if self.builtins[a.pred].ready(args):
                    return (2, unbound)
                return None
            if a.pred == MEMBER:
                container = env.apply(a.args[1])
                if isinstance(container, SetValue):
                    return (3, unbound)
                return None
            # Relational atom: join-plan by estimated selectivity.
            args = [env.apply(t) for t in a.args]
            bound_pos = tuple(
                i for i, t in enumerate(args)
                if not isinstance(t, SetExpr) and t.is_ground()
            )
            if bound_pos:
                est = self.interp.estimate_for_pattern(a.pred, args)
            else:
                est = len(self.interp.facts_of(a.pred))
            return (4, est, -len(bound_pos), unbound)
        if isinstance(f, ExistsIn):
            if isinstance(env.apply(f.source), SetValue):
                return (5, unbound)
            return None
        if isinstance(f, (AndF, OrF)):
            return (6, unbound)
        if isinstance(f, ForallIn):
            if isinstance(env.apply(f.source), SetValue):
                return (7, unbound)
            return None
        return None

    # -- dispatch ---------------------------------------------------------------

    def _solve(self, f: Formula, env: Subst) -> Iterator[Subst]:
        if isinstance(f, TrueF):
            yield env
        elif isinstance(f, AtomF):
            yield from self._solve_atom(f.atom, env)
        elif isinstance(f, NotF):
            yield from self._solve_not(f, env)
        elif isinstance(f, AndF):
            yield from self._solve_and(list(f.parts), env)
        elif isinstance(f, OrF):
            yield from self._solve_or(f, env)
        elif isinstance(f, ExistsIn):
            yield from self._solve_exists(f, env)
        elif isinstance(f, ForallIn):
            yield from self._solve_forall(f, env)
        else:  # pragma: no cover - defensive
            raise EvaluationError(f"cannot solve formula {f!r}")

    # -- atoms ------------------------------------------------------------------

    def _solve_atom(self, a: Atom, env: Subst) -> Iterator[Subst]:
        if a.pred == EQUALS:
            l, r = env.apply(a.args[0]), env.apply(a.args[1])
            if not (l.is_ground() or r.is_ground()):
                yield from self._solve_by_fallback(AtomF(a), env)
                return
            yield from unify(l, r, env)
            return
        if a.pred in self.builtins:
            b = self.builtins[a.pred]
            args = tuple(env.apply(t) for t in a.args)
            if len(args) != b.arity:
                raise EvaluationError(
                    f"builtin {a.pred!r} used with arity {len(args)}"
                )
            if b.ready(args):
                yield from b.solve(args, env)
            else:
                yield from self._solve_by_fallback(AtomF(a), env)
            return
        if a.pred == MEMBER:
            elem, container = env.apply(a.args[0]), env.apply(a.args[1])
            if isinstance(container, SetValue):
                cls = elem.__class__
                if cls is Var:
                    # Deterministic generate: one binding per element.
                    emap = env._map
                    sort = elem.var_sort
                    for e in container.sorted_elems():
                        if sorts_compatible(sort, e.sort):
                            new = dict(emap)
                            new[elem] = e
                            yield Subst._make(new)
                elif cls is not SetExpr and elem.is_ground():
                    if elem in container.elems:
                        yield env
                else:
                    for e in container.sorted_elems():
                        yield from unify(elem, e, env)
            else:
                yield from self._solve_by_fallback(AtomF(a), env)
            return
        yield from self._match_facts(a, env)

    def _match_facts(self, a: Atom, env: Subst) -> Iterator[Subst]:
        pattern = a.substitute(env)
        stats = self.stats
        if pattern.is_ground() and not any(
            t.__class__ is SetExpr for t in pattern.args
        ):
            # A ground check: on ground arguments matching is equality
            # (``match_atom_fast``), so one membership probe decides it.
            stats.matches += 1
            if self.interp.holds(pattern):
                yield env
            return
        arity = pattern.arity
        # Candidates come from the interpretation's incremental argument
        # indexes (shared between rounds, rules and solver instances); with
        # several bound positions the shared policy reads the most
        # selective single-position bucket — see
        # :meth:`Interpretation.candidates_for_pattern`.
        for f in self.interp.candidates_for_pattern(pattern.pred, pattern.args):
            stats.matches += 1
            if f.arity != arity:
                continue
            out = match_atom_fast(pattern, f, env)
            if out is MATCH_FAILED:
                continue
            if out is MATCH_REFUSED:
                yield from match_atom(pattern, f, env)
            else:
                yield out

    def _solve_by_fallback(self, f: Formula, env: Subst) -> Iterator[Subst]:
        """Enumerate one unbound variable and retry (used when stuck)."""
        unbound = self._unbound(f, env)
        if not unbound:
            return
        self._require_fallback(unbound[:1], f)
        v = min(unbound, key=lambda u: self.domain.carrier_size(u.sort))
        carrier = self.domain.carrier(v.sort)
        self._charge_fallback(len(carrier))
        for value in carrier:
            yield from self._solve(f, env.bind(v, value))

    # -- compound formulas ---------------------------------------------------------

    def _solve_not(self, f: NotF, env: Subst) -> Iterator[Subst]:
        if self._unbound(f, env):
            yield from self._solve_by_fallback(f, env)
            return
        if not self._holds_closed(f.sub, env):
            yield env

    def _holds_closed(self, f: Formula, env: Subst) -> bool:
        closed = f.substitute(env)
        return evaluate(closed, self._oracle)

    def _oracle(self, a: Atom) -> bool:
        if a.pred in self.builtins:
            b = self.builtins[a.pred]
            return next(iter(b.solve(a.args, Subst())), None) is not None
        return self.interp.holds(a)

    def _solve_and(self, parts: list[Formula], env: Subst) -> Iterator[Subst]:
        # Free variables per conjunct are computed once for the whole
        # conjunction chain; only env membership changes while joining.
        yield from self._solve_and_fv(
            [(p, p.free_vars()) for p in parts], env
        )

    def _solve_and_fv(
        self, parts: list[tuple[Formula, Iterable[Var]]], env: Subst
    ) -> Iterator[Subst]:
        if not parts:
            yield env
            return
        best_i: Optional[int] = None
        best_p: Optional[tuple] = None
        for i, (p, fv) in enumerate(parts):
            pr = self._priority(p, env, fv)
            if pr is not None and (best_p is None or pr < best_p):
                best_i, best_p = i, pr
        if best_i is None:
            # Nothing ready: bind one variable from the domain and retry.
            all_vars: set[Var] = set()
            for p, fv in parts:
                all_vars |= {v for v in fv if v not in env}
            if not all_vars:
                # All parts ground yet none "ready" — cannot happen, since
                # ground formulas always have priority 0.
                raise EvaluationError("scheduler stuck on ground conjunction")
            self._require_fallback(
                sorted(all_vars, key=str)[:1],
                AndF(tuple(p for p, _ in parts)),
            )
            v = min(
                all_vars,
                key=lambda u: (self.domain.carrier_size(u.sort), u.name),
            )
            carrier = self.domain.carrier(v.sort)
            self._charge_fallback(len(carrier))
            for value in carrier:
                yield from self._solve_and_fv(parts, env.bind(v, value))
            return
        chosen = parts[best_i][0]
        rest = parts[:best_i] + parts[best_i + 1:]
        for env2 in self._solve(chosen, env):
            yield from self._solve_and_fv(rest, env2)

    def _solve_or(self, f: OrF, env: Subst) -> Iterator[Subst]:
        seen: set[Subst] = set()
        fv = f.free_vars()
        for part in f.parts:
            for env2 in self._solve(part, env):
                for env3 in self._complete_fv(f, fv, env2):
                    key = env3.restrict(fv)
                    if key not in seen:
                        seen.add(key)
                        yield env3

    def _solve_exists(self, f: ExistsIn, env: Subst) -> Iterator[Subst]:
        source = env.apply(f.source)
        if not isinstance(source, SetValue):
            yield from self._solve_by_fallback(f, env)
            return
        seen: set[Subst] = set()
        fv = f.free_vars()
        cache_key = (f, source)
        bodies = self._exists_cache.get(cache_key)
        if bodies is None:
            bodies = [
                f.body.substitute(Subst._checked({f.var: e}))
                for e in source.sorted_elems()
            ]
            self._exists_cache[cache_key] = bodies
        for body in bodies:
            for env2 in self._solve(body, env):
                key = env2.restrict(fv)
                if key not in seen:
                    seen.add(key)
                    yield env2

    def _solve_forall(self, f: ForallIn, env: Subst) -> Iterator[Subst]:
        source = env.apply(f.source)
        if not isinstance(source, SetValue):
            yield from self._solve_by_fallback(f, env)
            return
        cache_key = (f, source)
        expansion = self._forall_cache.get(cache_key)
        if expansion is None:
            expansion = conj(*(
                f.body.substitute(Subst._checked({f.var: e}))
                for e in source.sorted_elems()
            ))
            self._forall_cache[cache_key] = expansion
        yield from self._solve(expansion, env)


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

@dataclass
class EvalOptions:
    """Evaluator knobs.

    ``allow_fallback``  — permit active-domain enumeration for unconstrained
                          variables (the paper's semantics needs it; turn off
                          to enforce Datalog-style range restriction).
    ``fallback_limit``  — abort if fallback enumerations exceed this many
                          candidate bindings (per run).
    ``max_rounds``      — abort runaway fixpoints.
    ``track_provenance``— record one derivation per atom for
                          ``Model.explain`` (runs every rule on the solver).
    ``shards``          — evaluate recursive conjunctive strata across this
                          many worker processes (see DESIGN.md, "Sharded
                          parallel evaluation"); ``<= 1`` or any stratum
                          the partitioner cannot prove safe falls back to
                          the single-process fixpoint, so the model is
                          bit-identical at every shard count.
    """

    allow_fallback: bool = True
    fallback_limit: Optional[int] = DEFAULT_FALLBACK_LIMIT
    max_rounds: int = DEFAULT_MAX_ROUNDS
    track_provenance: bool = False
    shards: int = 1


#: What :class:`_Engines` built without a domain or options use (one per
#: query on the read path).  The domain is never consulted — fallback is
#: off for such engines — and nothing grows it.
_NO_DOMAIN = ActiveDomain()
_DEFAULT_OPTIONS = EvalOptions()


class _Engines:
    """The two body engines for one batch of rule applications over one
    interpretation: the plan executor and the formula solver that rules
    fall back to (:meth:`_CompiledRule.heads` / ``bindings``).

    ``delta`` maps predicate names to the facts a pinned occurrence ranges
    over.  Provenance needs the solver's per-derivation environments, so
    under ``track_provenance`` there is no executor.  Without a ``domain``
    (queries against a finished model) nothing may be enumerated from the
    active domain, whatever the options say.  ``memo`` is the stratum
    fixpoint's builtin cache (:class:`~repro.engine.executor.Executor`).
    """

    __slots__ = ("solver", "executor", "delta")

    def __init__(
        self,
        interp: Interpretation,
        builtins: Mapping[str, Builtin],
        stats: SolverStats,
        exec_stats: ExecStats,
        delta: Optional[Mapping[str, Iterable[Atom]]] = None,
        domain: Optional[ActiveDomain] = None,
        options: Optional[EvalOptions] = None,
        memo: Optional[dict] = None,
    ) -> None:
        options = options or _DEFAULT_OPTIONS
        self.delta = delta
        self.solver = Solver(
            interp,
            domain if domain is not None else _NO_DOMAIN,
            builtins,
            allow_fallback=domain is not None and options.allow_fallback,
            fallback_limit=options.fallback_limit,
            stats=stats,
        )
        self.executor = None if options.track_provenance else make_executor(
            interp, builtins, delta=delta, stats=exec_stats, memo=memo
        )


@dataclass
class EvalReport:
    """Execution statistics for benchmarks and EXPERIMENTS.md."""

    rounds: int = 0
    derived: int = 0
    strata: int = 0
    passes: int = 0
    rule_applications: int = 0
    stats: SolverStats = field(default_factory=SolverStats)
    exec: ExecStats = field(default_factory=ExecStats)


class Model:
    """The computed (perfect) model plus query helpers."""

    def __init__(
        self,
        interp: Interpretation,
        report: EvalReport,
        provenance=None,
    ) -> None:
        self._interp = interp
        self.report = report
        self._provenance = provenance

    def explain(self, a: Atom, max_depth: int = 50):
        """Derivation tree for a ground atom (requires
        ``EvalOptions(track_provenance=True)``)."""
        if self._provenance is None:
            raise EvaluationError(
                "provenance was not tracked; evaluate with "
                "EvalOptions(track_provenance=True)"
            )
        if not self.holds(a):
            raise EvaluationError(f"{a} is not in the model")
        return self._provenance.explain(a, max_depth=max_depth)

    def explain_str(self, text: str, max_depth: int = 50) -> str:
        """Parse a ground atom and render its derivation tree."""
        from ..lang import parse_atom

        return self.explain(parse_atom(text), max_depth=max_depth).pretty()

    @property
    def interpretation(self) -> Interpretation:
        return self._interp

    def holds(self, a: Atom) -> bool:
        """Whether a ground atom is in the model (specials structurally)."""
        from ..core.formulas import evaluate_ground_atom

        return evaluate_ground_atom(a, self._interp.holds)

    def holds_str(self, text: str) -> bool:
        """Parse and test a ground atom, e.g. ``model.holds_str("p(a, {b})")``."""
        from ..lang import parse_atom

        return self.holds(parse_atom(text))

    def query(self, pattern: Atom) -> Iterator[Subst]:
        """All substitutions matching a pattern atom against the model."""
        for f in sorted(self._interp.facts_of(pattern.pred), key=atom_order_key):
            yield from match_atom(pattern, f)

    def query_str(self, text: str) -> list[dict[str, Any]]:
        """Parse a pattern and return bindings as Python values."""
        from ..lang import parse_atom

        pattern = parse_atom(text)
        out = []
        for theta in self.query(pattern):
            out.append({v.name: from_term(t) for v, t in theta.items()})
        return out

    def relation(self, pred: str) -> set[tuple]:
        """A predicate's extension as Python-value tuples."""
        return {
            tuple(from_term(t) for t in a.args)
            for a in self._interp.by_pred(pred)
        }

    def __len__(self) -> int:
        return len(self._interp)

    def __contains__(self, a: Atom) -> bool:
        return self.holds(a)

    def pretty(self) -> str:
        return self._interp.pretty()


class Evaluator:
    """Stratified bottom-up evaluator (semi-naive)."""

    def __init__(
        self,
        program: Program,
        database: Optional[Database] = None,
        builtins: Mapping[str, Builtin] = DEFAULT_BUILTINS,
        options: Optional[EvalOptions] = None,
    ) -> None:
        self.program = program
        self.database = database
        self.builtins = builtins
        self.options = options or EvalOptions()
        program.validate()
        self._check_builtin_heads()
        self.stratification: Stratification = stratify(
            program, ignore=set(builtins)
        )
        #: grouping clause -> compiled body plan.
        self._grouping_plans: dict[GroupingClause, CompiledPlan] = {}
        #: clause -> compiled rule (with its lazily compiled plans), shared
        #: by every fixpoint call and by the maintenance layer on top.
        self._rules: dict[LPSClause, _CompiledRule] = {}
        #: lazy ShardCoordinator (options.shards > 1 only); once sharding
        #: proves unavailable for this evaluator it stays off.
        self._coordinator = None
        self._sharding_unavailable = False

    def _check_builtin_heads(self) -> None:
        for c in self.program.clauses:
            head_pred = c.head.pred if isinstance(c, LPSClause) else c.pred
            if head_pred in self.builtins:
                raise EvaluationError(
                    f"clause head uses builtin predicate {head_pred!r}"
                )

    def compiled_rule(self, clause: LPSClause) -> "_CompiledRule":
        """The clause's :class:`_CompiledRule`, compiled once per evaluator."""
        rule = self._rules.get(clause)
        if rule is None:
            rule = self._rules[clause] = _CompiledRule(clause, self.builtins)
        return rule

    # -- sharding ----------------------------------------------------------------

    def _shard_coordinator(self):
        """The worker pool, spawned on first use — or ``None`` whenever
        this evaluator's configuration cannot shard (then the single-
        process path below is the only path, as before)."""
        if self._sharding_unavailable:
            return None
        if self._coordinator is not None:
            if self._coordinator.broken:
                self._sharding_unavailable = True
                return None
            return self._coordinator
        o = self.options
        if o.shards <= 1 or o.track_provenance:
            self._sharding_unavailable = True
            return None
        from ..parallel import ShardCoordinator, builtin_profile

        profile = builtin_profile(self.builtins)
        if profile is None:
            self._sharding_unavailable = True
            return None
        try:
            self._coordinator = ShardCoordinator(
                self.program, o.shards, o, profile
            )
        except Exception:
            self._sharding_unavailable = True
            return None
        return self._coordinator

    def close(self) -> None:
        """Shut down shard workers, if any were spawned."""
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- main loop ---------------------------------------------------------------

    def run(self) -> Model:
        """Evaluate to the perfect model over the (stabilised) active domain.

        Stratified evaluation assumes the domain is fixed, but derived set
        values (grouping results, head constructors, decomposition
        builtins) can grow the active domain *after* a lower stratum has
        already closed — and lower-stratum predicates are monotone in the
        domain.  We therefore run whole stratified passes until the domain
        stops growing, resetting the IDB between passes (negative
        conclusions drawn over the smaller domain may not survive).
        """
        domain = ActiveDomain()
        report = EvalReport(stats=SolverStats())
        for t in self.program.all_terms():
            domain.note_term(t)
        edb: list[Atom] = []
        if self.database is not None:
            edb = list(self.database.facts())
            builtin = {a.pred for a in edb} & self.builtins.keys()
            if builtin:
                raise EvaluationError(
                    "database fact uses builtin predicate "
                    f"{min(builtin)!r}"
                )
            domain.note_rows([a.args for a in edb])

        report.strata = self.stratification.depth
        passes = 0
        while True:
            passes += 1
            if passes > self.options.max_rounds:
                raise EvaluationError(
                    "active domain kept growing; the program has no "
                    "finite perfect model over its own derivations"
                )
            version_before = domain.version
            interp = Interpretation()
            provenance = None
            if self.options.track_provenance:
                from .provenance import ProvenanceStore

                provenance = ProvenanceStore()
            interp.update(edb)
            if provenance is not None:
                for a in edb:
                    provenance.note_given(a)
            groups = self.stratification.rule_groups()
            for gi, stratum in enumerate(self.stratification.strata):
                grouping = [c for c in stratum if isinstance(c, GroupingClause)]
                normal = [c for c in stratum if isinstance(c, LPSClause)]
                for g in grouping:
                    self._apply_grouping(g, interp, domain, report, provenance)
                if normal and provenance is None:
                    coord = self._shard_coordinator()
                    if coord is not None:
                        from ..parallel import shardable_group

                        if shardable_group(groups[gi], self.builtins):
                            result = coord.eval_stratum(
                                groups[gi], interp, domain, report
                            )
                            if result is not None:
                                continue
                self._fixpoint(normal, interp, domain, report, provenance)
            if domain.version == version_before:
                report.passes = passes
                return Model(interp, report, provenance)

    # -- stratum fixpoint -----------------------------------------------------------

    def _fixpoint(
        self,
        rules: Sequence[LPSClause],
        interp: Interpretation,
        domain: ActiveDomain,
        report: EvalReport,
        provenance=None,
        seed_deltas: Optional[Mapping[str, frozenset[Atom]]] = None,
        shard=None,
    ) -> dict[str, list[Atom]]:
        """Run one stratum to fixpoint; returns the atoms added, per
        predicate, as one list each — every atom once, in insertion order
        (the lists ``Interpretation.update``/``extend`` returned, so the
        gains are never hashed again here).

        With ``seed_deltas`` the loop starts **semi-naive from the given
        deltas** instead of with a naive first round: only rules depending
        on a seeded predicate fire, and delta-capable rules pin their
        differentiated conjunct to the seed.  This is how the incremental
        maintenance subsystem (``repro.engine.maintenance``) re-closes a
        stratum after a batch of fact insertions or DRed re-derivations —
        the interpretation is the already-materialized model, not the empty
        one, so a naive round would redo the entire join work.  The same
        subsystem consumes the return value as the stratum's exact gained
        set (the evaluator's own passes ignore it).

        ``shard`` (a ``repro.parallel.worker.ShardContext``) makes this
        the per-worker fixpoint of sharded evaluation: every derived head
        passes through ``shard.admit`` — owned heads proceed exactly as
        usual, foreign heads are dropped locally and, when the deriving
        rule read a partitioned predicate, queued for shipment to their
        owner shard.
        """
        added: dict[str, list[Atom]] = {}
        # Non-ground unit clauses (e.g. the ∅ base cases produced by the
        # Theorem 10 translation) are rules over the active domain, not
        # facts.
        facts = [c.head for c in rules if c.is_fact and c.head.is_ground()]
        proper = [c for c in rules if not (c.is_fact and c.head.is_ground())]
        if shard is not None:
            # Under sharding every worker sees the full program; a ground
            # fact clause belongs only to its owner (nothing is shipped —
            # the owner derives its own copy from the same clause).
            facts = [h for h in facts if shard.admit(h, False)]
        given = interp.update(facts)
        domain.note_rows([h.args for h in given])
        report.derived += len(given)
        for h in given:
            added.setdefault(h.pred, []).append(h)
        if provenance is not None:
            for h in facts:
                provenance.note_given(h)

        if not proper:
            return added

        compiled = [self.compiled_rule(c) for c in proper]
        changed_preds: Optional[set[str]] = None  # None = first round
        #: What each predicate gained last round.  From the second round
        #: on these are the row ranges the round's bulk insert appended
        #: (``FactSlice``); seeds are plain atom sets.
        deltas: Mapping[str, Collection[Atom]] = {}
        if seed_deltas is not None:
            # Seeded predicates may be lower-stratum inputs as well as this
            # stratum's own heads; any occurrence with a delta is pinnable.
            deltas = {p: frozenset(s) for p, s in seed_deltas.items() if s}
            changed_preds = set(deltas)
            if not deltas:
                return added
        round_no = 0
        prev_version = -1
        #: Builtin answers by input, shared by every round's executor and
        #: dropped on return (``Builtin.solve`` is a function of its args).
        memo: dict = {}

        while True:
            round_no += 1
            report.rounds += 1
            if round_no > self.options.max_rounds:
                raise EvaluationError(
                    f"stratum did not converge within {self.options.max_rounds} rounds"
                )
            domain_grew = domain.version != prev_version
            prev_version = domain.version
            #: head predicate -> the batches of new head rows this round's
            #: rule applications derived (each batch distinct, none held),
            #: each with its ID columns or ``None``.
            fresh: dict[str, list[tuple[list[Row], Optional[list]]]] = {}
            engines = _Engines(
                interp, self.builtins, report.stats, report.exec,
                delta=deltas, domain=domain, options=self.options,
                memo=memo,
            )
            for rule in compiled:
                if not rule.affected(changed_preds, domain_grew):
                    continue
                report.rule_applications += 1
                pred = rule.head.pred
                if provenance is not None:
                    rows: dict[Row, None] = {}
                    for env in rule.bindings(engines):
                        head = rule.head.substitute(env)
                        if head not in interp:
                            rows[head.args] = None
                        provenance.note_derived(
                            head, rule.clause, env,
                            rule.ground_premises(env, self.builtins),
                        )
                    if rows:
                        fresh.setdefault(pred, []).append((list(rows), None))
                    continue
                exportable = shard is not None and shard.exportable(rule.deps)
                # After the first round a delta-capable rule fires once per
                # body occurrence that has a delta, that occurrence pinned.
                pins: Iterable[Optional[int]] = (None,)
                if changed_preds is not None and rule.delta_capable:
                    pins = rule.pins(deltas)
                for pin in pins:
                    batch, id_cols = rule.fresh_rows(engines, pin)
                    if shard is not None:
                        batch, id_cols = [
                            r for r in batch
                            if shard.admit(Atom(pred, r), exportable)
                        ], None
                    if batch:
                        fresh.setdefault(pred, []).append((batch, id_cols))
            if not fresh:
                break
            deltas = {}
            for pred, batches in fresh.items():
                # Two applications may reach the same new head; one batch
                # is distinct as it stands (and keeps its ID columns).
                new, id_cols = batches[0] if len(batches) == 1 else (
                    list(dict.fromkeys(itertools.chain.from_iterable(
                        rows for rows, _ in batches
                    ))),
                    None,
                )
                gained = deltas[pred] = interp.extend(pred, new, id_cols)
                if id_cols is not None:
                    domain.note_terms(distinct_terms(id_cols))
                else:
                    domain.note_rows(new)
                report.derived += len(gained)
                added.setdefault(pred, []).extend(gained)
            changed_preds = set(deltas)
        return added

    # -- grouping ---------------------------------------------------------------

    def _apply_grouping(
        self,
        g: GroupingClause,
        interp: Interpretation,
        domain: ActiveDomain,
        report: EvalReport,
        provenance=None,
    ) -> set[Atom]:
        """Evaluate one LDL grouping clause (Definition 14).

        The grouped position receives the set of all group-variable values
        for which the body holds, per binding of the other head variables.
        Stratification guarantees the body's predicates are fully computed.
        Returns the head atoms actually added (consumed by maintenance).
        """
        premises: dict[tuple[Term, ...], list[Atom]] = {}
        engines = _Engines(
            interp, self.builtins, report.stats, report.exec,
            domain=domain, options=self.options,
        )
        groups = self._plan_grouping(g, engines.executor)
        if groups is None:
            body = conj(*(
                AtomF(l.atom) if l.positive else NotF(AtomF(l.atom))
                for l in g.body
            ))
            groups = {}
            for env in engines.solver.solve(body):
                key = tuple(env.apply(t) for t in g.head_args)
                gval = env.apply(g.group_var)
                if not gval.is_ground():
                    raise SafetyError(
                        f"grouping variable {g.group_var} not bound by body of {g}"
                    )
                groups.setdefault(key, set()).add(gval)
                if provenance is not None:
                    premises.setdefault(key, []).extend(
                        l.atom.substitute(env)
                        for l in g.body
                        if l.positive and not l.atom.is_special()
                        and l.atom.pred not in self.builtins
                    )
        heads: list[Atom] = []
        for key, values in groups.items():
            args = list(key)
            args.insert(g.group_pos, setvalue(values))
            head = Atom(g.pred, tuple(args))
            heads.append(head)
            if provenance is not None:
                provenance.note_grouped(
                    head, g, tuple(dict.fromkeys(premises.get(key, ())))
                )
        added = interp.update(heads)
        domain.note_rows([h.args for h in added])
        report.derived += len(added)
        return set(added)

    def _plan_grouping(
        self, g: GroupingClause, executor: Optional[Executor]
    ) -> Optional[dict[tuple[Term, ...], set[Term]]]:
        """Set-at-a-time grouping: execute the compiled body plan and
        collect the groups; ``None`` falls back to the tuple path."""
        if executor is None:
            return None
        cp = self._grouping_plans.get(g)
        if cp is None:
            cp = self._grouping_plans[g] = compile_grouping(g, self.builtins)
        if not cp.is_set:
            return None
        try:
            root = cp.root
            if isinstance(root, GroupBy):
                # Head args are plain distinct variables: the plan already
                # collected each group into a set column.
                rows = executor.batch(root)
                return {row[:-1]: set(row[-1].elems) for row in rows}
            rows = executor.batch(root)
            vars_ = root.out_vars
            pos = {v: i for i, v in enumerate(vars_)}
            gpos = pos[g.group_var]
            resolvers = [executor._resolver(t, vars_) for t in g.head_args]
            groups: dict[tuple[Term, ...], set[Term]] = {}
            for row in rows:
                k = tuple(f(row) for f in resolvers)
                groups.setdefault(k, set()).add(row[gpos])
            return groups
        except PlanInapplicable:
            return None


class _CompiledRule:
    """Per-rule compilation: body formula, dependencies, delta capability,
    and the one place a rule application picks its engine
    (:meth:`heads`, :meth:`bindings`)."""

    def __init__(self, clause: LPSClause, builtins: Mapping[str, Builtin]) -> None:
        self.clause = clause
        self.builtins = builtins
        self.head = clause.head
        self.head_vars = clause.head.free_vars()
        self.all_vars = frozenset(clause.free_vars())
        self.body = clause.body_formula()
        self._delta_rest_cache: dict[int, tuple[Formula, frozenset]] = {}
        # Plan IR compilation, keyed by pinned occurrence (``None`` = the
        # base plan); compiled lazily — rules that never reach a plan
        # consumer (e.g. under provenance tracking) pay nothing.
        self._plan_cache: dict[Optional[int], CompiledPlan] = {}
        self._head_plan_cache: dict[tuple[Optional[int], bool], tuple] = {}
        self.deps = {
            a.pred
            for l in clause.body
            for a in (l.atom,)
            if not a.is_special() and a.pred not in builtins
        }
        # Delta capability: a plain conjunction of positive literals whose
        # relational atoms can be individually restricted to the delta.
        self.delta_capable = (
            not clause.quantifiers
            and all(l.positive for l in clause.body)
        )
        self.relational = [
            l.atom
            for l in clause.body
            if l.positive and not l.atom.is_special() and l.atom.pred not in builtins
        ]
        # A rule is domain-sensitive if its evaluation can consult the
        # active domain: quantifiers (vacuous branch), negation, or head/body
        # variables that no positive body atom constrains.
        constrained: set[Var] = set()
        for a in self.relational:
            constrained |= a.free_vars()
        self.domain_sensitive = (
            bool(clause.quantifiers)
            or any(not l.positive for l in clause.body)
            or bool(clause.free_vars() - constrained)
        )

    def affected(self, changed: Optional[set[str]], domain_grew: bool) -> bool:
        if changed is None:
            return True
        if self.deps & changed:
            return True
        return self.domain_sensitive and domain_grew

    # -- the execution pipeline ---------------------------------------------------

    def plan(self, pin: Optional[int] = None) -> CompiledPlan:
        """The compiled body plan (full-width rows); with ``pin`` the
        delta variant whose ``pin``-th relational Scan reads the delta."""
        cp = self._plan_cache.get(pin)
        if cp is None:
            cp = self._plan_cache[pin] = compile_rule(
                self.clause, self.builtins, pin
            )
        return cp

    def _head_plan(self, pin: Optional[int], fresh: bool = False) -> tuple:
        """``(node, shape)``: the plan projected to head variables and
        deduplicated (``None`` in tuple mode), and for Datalog-shaped
        heads (args all variables) the columns to read head rows from
        straight off the row cells, no substitution.  With ``fresh`` a
        Datalog-shaped head's plan also subtracts the head relation
        (:func:`~repro.engine.planner.head_plan`); other heads are
        filtered atom by atom in :meth:`_apply`."""
        cached = self._head_plan_cache.get((pin, fresh))
        if cached is None:
            cp = self.plan(pin)
            node = head_plan(cp)
            shape = None
            if node is not None and all(
                t.__class__ is Var for t in self.head.args
            ):
                out = node.out_vars
                shape = tuple(out.index(t) for t in self.head.args)
                if fresh:
                    node = head_plan(cp, subtract_head=True)
            cached = self._head_plan_cache[pin, fresh] = (node, shape)
        return cached

    def pins(self, delta: Mapping[str, Iterable[Atom]]) -> list[int]:
        """The relational occurrences whose predicate has delta facts —
        the ``pin`` values a differentiated application ranges over."""
        return [
            i for i, a in enumerate(self.relational) if delta.get(a.pred)
        ]

    def rows(self, engines: _Engines, pin: Optional[int] = None) -> list[Row]:
        """The distinct head atoms one application of this rule derives,
        as their argument rows.

        With ``pin`` the ``pin``-th relational occurrence ranges over
        ``engines.delta`` only (semi-naive differentiation, maintenance
        and subscription deltas); every other occurrence reads the full
        interpretation.  The compiled plan runs when the body has one;
        a tuple-mode body, no executor, or a static prediction failing on
        real values (:class:`PlanInapplicable`) runs the solver instead.
        """
        return self._apply(engines, pin, False)[0]

    def fresh_rows(
        self, engines: _Engines, pin: Optional[int] = None
    ) -> tuple[Sequence[Row], Optional[list]]:
        """:meth:`rows` less the atoms the engines' interpretation holds
        — what one application adds — and the ID columns those rows
        decode from when the columnar path produced them (else ``None``),
        for :meth:`Interpretation.extend` to store as they are."""
        return self._apply(engines, pin, True)

    def id_rows(
        self, engines: _Engines
    ) -> tuple[Sequence[Row], Optional[list]]:
        """:meth:`rows` with their ID columns, as :meth:`fresh_rows` has
        them.  Rows that come with columns are decoded only if read, so
        an answer that stays in ID space (``engine.answers``) builds no
        term row."""
        return self._apply(engines, None, False)

    def _apply(
        self, engines: _Engines, pin: Optional[int], fresh: bool
    ) -> tuple[Sequence[Row], Optional[list]]:
        executor = engines.executor
        node, shape = (
            self._head_plan(pin, fresh) if executor is not None
            else (None, None)
        )
        stats = engines.solver.stats
        head = self.head
        heads: Optional[Iterable[Atom]] = None
        if node is not None:
            try:
                if shape is not None:
                    # Rows off the head columns are the head's arguments:
                    # no atom is built, and a ``fresh`` plan has already
                    # subtracted the head relation.
                    out, id_cols = executor.shaped_batch(node, shape)
                    stats.derivations += len(out)
                    return out, id_cols
                # Duplicate rows only cost decode and substitution time,
                # so let the executor collapse them.
                batch = executor.distinct_batch(node)
                vars_ = node.out_vars
                if not vars_:
                    heads = [head] if batch else []
                else:
                    heads = [
                        head.substitute(Subst._make(dict(zip(vars_, r))))
                        for r in batch
                    ]
            except PlanInapplicable:
                heads = None
        if heads is None:
            heads = (head.substitute(env) for env in self._solve(engines, pin))
        # Distinct bindings can substitute to one head (set arguments).
        heads = dict.fromkeys(heads)
        if fresh:
            held = engines.solver.interp.facts_of(head.pred)
            out = [h.args for h in heads if h not in held]
        else:
            out = [h.args for h in heads]
        stats.derivations += len(out)
        return out, None

    def heads(self, engines: _Engines, pin: Optional[int] = None) -> list[Atom]:
        """:meth:`rows` as atoms."""
        pred = self.head.pred
        return [Atom(pred, r) for r in self.rows(engines, pin)]

    def bindings(
        self, engines: _Engines, pin: Optional[int] = None
    ) -> Iterator[Subst]:
        """The distinct derivations of one application, as substitutions
        binding exactly the clause's free variables (``pin`` and engine
        choice as in :meth:`heads`)."""
        executor = engines.executor
        stats = engines.solver.stats
        cp = self.plan(pin) if executor is not None else None
        if cp is not None and cp.is_set:
            try:
                rows = executor.distinct_batch(cp.root)
            except PlanInapplicable:
                pass
            else:
                # A set-mode plan binds every body variable and those cover
                # the head's, so full-width rows are whole derivations.
                vars_ = cp.root.out_vars
                stats.derivations += len(rows)
                for row in rows:
                    yield Subst._make(dict(zip(vars_, row)))
                return
        seen: set[Subst] = set()
        free = self.all_vars
        for env in self._solve(engines, pin):
            key = env.restrict(free)
            if key not in seen:
                seen.add(key)
                stats.derivations += 1
                yield key

    def solutions(self, engines: _Engines, h: Atom) -> Iterator[Subst]:
        """The body solutions over the engines' interpretation whose head
        instance is the ground atom ``h`` (a point probe: the head match
        binds the body, so this is solver work)."""
        for env0 in match_atom(self.head, h):
            yield from engines.solver.solve(self.body, env0)

    def derives(self, engines: _Engines, h: Atom) -> bool:
        """Whether one application of this rule yields ``h``."""
        for _env in self.solutions(engines, h):
            return True
        return False

    def _solve(self, engines: _Engines, pin: Optional[int]) -> Iterator[Subst]:
        """The tuple path: solver environments with every body and head
        variable bound."""
        solver = engines.solver
        if pin is None:
            envs = solver.solve(self.body)
        else:
            # Seed the solver with each delta fact for the pinned conjunct,
            # then solve the remaining body under that binding.
            target = self.relational[pin]
            rest, rest_fv = self._delta_rest(pin)
            envs = (
                env
                for f in engines.delta.get(target.pred, ())
                for env0 in match_atom(target, f)
                for env in solver.solve(rest, env0, fv=rest_fv)
            )
        body, head_vars = self.body, self.head_vars
        for env in envs:
            if all(v in env for v in head_vars):
                yield env
            else:
                # Head variables absent from the body range over the domain.
                yield from solver._complete_fv(body, head_vars, env)

    def _delta_rest(self, i: int) -> tuple[Formula, frozenset]:
        """The body minus the pinned conjunct, with its free variables.

        Compiled against the rule's own builtin registry (the one it was
        constructed with), so the cache cannot go stale if a caller's solver
        carries a different registry.
        """
        cached = self._delta_rest_cache.get(i)
        if cached is None:
            builtins = self.builtins
            rest = conj(*(
                AtomF(a) for j, a in enumerate(self.relational) if j != i
            ), *(
                AtomF(l.atom)
                for l in self.clause.body
                if l.positive and (l.atom.is_special() or l.atom.pred in builtins)
            ))
            cached = (rest, frozenset(rest.free_vars()))
            self._delta_rest_cache[i] = cached
        return cached

    def ground_premises(
        self, env: Subst, builtins: Mapping[str, Builtin]
    ) -> tuple[Atom, ...]:
        """The ground positive IDB/EDB body atoms of this application —
        quantifiers unfolded per Lemma 4 (empty ranges give no premises)."""
        try:
            ground = self.clause.ground_instances(env.restrict(self.all_vars))
        except Exception:
            return ()
        return tuple(dict.fromkeys(
            l.atom
            for l in ground.body
            if l.positive and not l.atom.is_special()
            and l.atom.pred not in builtins
        ))


def solve(
    program: Program,
    database: Optional[Database] = None,
    **options: Any,
) -> Model:
    """One-call evaluation: build an :class:`Evaluator` and run it."""
    opts = EvalOptions(**options) if options else EvalOptions()
    return Evaluator(program, database, options=opts).run()
