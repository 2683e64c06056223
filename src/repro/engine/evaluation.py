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
  quantifiers, negation, built-ins).  A conjunct whose variables are all
  bound is decided at once by a closure compiled for it (no search); the
  others are scheduled when *ready* (can generate); when nothing is
  ready the solver falls back to enumerating an unbound variable over
  the active domain — that fallback is what gives non-range-restricted
  rules their active-domain meaning, and what realises the paper's
  vacuous-quantifier semantics (``(∀x ∈ ∅)φ`` is true even when φ's
  other conjuncts are false).
* **Stratified evaluation.**  Strata come from ``repro.engine.stratify``,
  one per dependency component, in topological order; negative literals
  and LDL grouping clauses only see fully computed lower strata, per
  Section 4.2 / Section 6 of the paper.
* **Passes.**  Derived terms can grow the domain after a stratum that
  consulted it closed, so whole stratified passes repeat until the domain
  holds still — but only while they consult it.  The domain is built at
  its first consultation (``ActiveDomain.carrier``/``carrier_size``
  count them), and a pass that made none is the last: the next would
  repeat its computation.  A range-restricted program takes one pass and
  notes no term.
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
from array import array
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Collection, Iterable, Iterator, Mapping, Optional,
    Sequence,
)

from ..core.atoms import Atom, Literal
from ..core.clauses import GroupingClause, LPSClause, Rule
from ..core.errors import EvaluationError, SafetyError, SortError
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
    atoms_of,
    evaluate,
)
from ..core.program import Program
from ..core.sorts import EQUALS, MEMBER, SORT_A, SORT_S, SORT_U, sorts_compatible
from ..core.substitution import EMPTY_SUBST, Subst
from ..core.terms import (
    App,
    Const,
    SetExpr,
    SetValue,
    Term,
    Var,
    canonicalize,
    order_key,
    setvalue,
    subterms,
)
from ..core.unify import (
    MATCH_FAILED,
    MATCH_REFUSED,
    match_atom,
    match_atom_fast,
    unify,
)
from ..semantics.interpretation import FactSlice, Interpretation
from .builtins import DEFAULT_BUILTINS, Builtin
from .database import Database, FactReads, from_term
from .columnar import make_executor
from .executor import Executor, PlanInapplicable, RowBatch
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

    ``consultations`` counts the carrier reads (:meth:`carrier`,
    :meth:`carrier_size`).  A domain made with a ``seed`` is built on its
    first one: ``seed(domain)`` notes what it holds at that moment.  Until
    then it is not :attr:`built`, and its owner notes nothing into it.
    """

    def __init__(
        self, seed: Optional[Callable[["ActiveDomain"], None]] = None
    ) -> None:
        self._atoms: dict[Term, None] = {}
        self._sets: dict[SetValue, None] = {setvalue(()): None}
        self.version = 0
        self._carrier_cache: dict[str, tuple[int, list[Term]]] = {}
        self._noted: dict[Term, None] = {}
        self.consultations = 0
        self._seed = seed

    @property
    def built(self) -> bool:
        return self._seed is None

    def _consult(self) -> None:
        self.consultations += 1
        if self._seed is not None:
            seed, self._seed = self._seed, None
            seed(self)

    def note_term(self, t: Term) -> None:
        # The domain only grows, so noting a term is idempotent — and terms
        # are interned with cached hashes, so one dict probe replaces the
        # subterm walk for every repeat.
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
        """Note each term not noted yet (a repeat costs one probe)."""
        noted = self._noted
        for t in terms:
            if t not in noted:
                self.note_term(t)

    def note_rows(self, rows: Iterable[Sequence[Term]]) -> None:
        """Note every cell of a batch of ground rows, each distinct term
        once."""
        self.note_terms(set(itertools.chain.from_iterable(rows)))

    def note_interpretation(self, interp: Interpretation) -> None:
        """Note every term of every fact ``interp`` holds."""
        for pred in interp.predicates():
            self.note_rows(interp.facts_of(pred).rows())

    def carrier(self, sort: str) -> list[Term]:
        """The carrier list of a sort, cached per domain version.

        Callers must treat the returned list as read-only; fallback
        enumeration asks for carriers far more often than the domain grows.
        """
        self._consult()
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
        self._consult()
        if sort == SORT_A:
            return len(self._atoms)
        if sort == SORT_S:
            return len(self._sets)
        if sort == SORT_U:
            return len(self._atoms) + len(self._sets)
        raise EvaluationError(f"unknown sort {sort!r}")


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
        # Unfoldings of a restricted quantifier whose body still binds
        # variables, keyed by (formula, ground range set); a closed one is
        # decided instead (:meth:`_decider`).
        self._forall_cache: dict[tuple, Formula] = {}
        self._exists_cache: dict[tuple, list[Formula]] = {}
        # Closed formulas compiled to deciders, and each conjunction's
        # parts with their free variables and deciders: built once per
        # formula for this solver's life (one stratum fixpoint, one query).
        self._deciders: dict[Formula, Decider] = {}
        self._conjuncts: dict[AndF, list[tuple]] = {}

    # -- public entry -----------------------------------------------------------

    def solve(
        self, f: Formula, env: Subst = Subst(), fv=None
    ) -> Iterator[Subst]:
        if fv is None:
            fv = f.free_vars()
        for out in self._solve(f, env):
            emap = out._map
            for v in fv:
                if v not in emap:
                    yield from self._complete_fv(f, fv, out)
                    break
            else:
                yield out

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
        self, f: Formula, env: Subst, unbound: int
    ) -> Optional[tuple]:
        """Scheduling priority (lower = sooner) of a conjunct with
        ``unbound`` (> 0) free variables still unbound; ``None`` = not
        ready.  A closed conjunct is decided, never ranked
        (:meth:`_solve_and_fv`).

        For relational atoms the second component is an **estimated result
        cardinality** taken from the argument indexes (the exact size of the
        index bucket the join step would scan), so conjunctions are joined
        smallest-relation-first instead of most-bound-first.  This is the
        boundness-driven join planner of DESIGN.md.
        """
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
            apply = env.apply
            args = [apply(t) for t in a.args]
            nbound = 0
            for t in args:
                if t.__class__ is not SetExpr and t.is_ground():
                    nbound += 1
            if nbound:
                est = self.interp.estimate_for_pattern(a.pred, args)
            else:
                est = len(self.interp.facts_of(a.pred))
            return (4, est, -nbound, unbound)
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

    def _relational(self, pred: str) -> bool:
        """Whether ``pred`` names a stored relation (not ``=``, ``in``
        or a builtin)."""
        return pred != EQUALS and pred != MEMBER and pred not in self.builtins

    # -- dispatch ---------------------------------------------------------------

    def _solve(self, f: Formula, env: Subst) -> Iterator[Subst]:
        # Returns the part's own generator (no wrapping frame per step).
        if isinstance(f, AtomF):
            return self._solve_atom(f.atom, env)
        if isinstance(f, AndF):
            return self._solve_and_fv(self._conjuncts_of(f), env)
        if isinstance(f, TrueF):
            return iter((env,))
        if isinstance(f, NotF):
            return self._solve_not(f, env)
        if isinstance(f, OrF):
            return self._solve_or(f, env)
        if isinstance(f, ExistsIn):
            return self._solve_exists(f, env)
        if isinstance(f, ForallIn):
            return self._solve_forall(f, env)
        raise EvaluationError(  # pragma: no cover - defensive
            f"cannot solve formula {f!r}"
        )

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
        # Candidates come from the interpretation's incremental argument
        # indexes (shared between rounds, rules and solver instances); with
        # several bound positions the shared policy reads the most
        # selective single-position bucket — see
        # :meth:`Interpretation.candidates_for_pattern`.  None has another
        # arity than the pattern's.
        for f in self.interp.candidates_for_pattern(pattern.pred, pattern.args):
            stats.matches += 1
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
        elif self._decider(f)(env._map):
            yield env

    def _oracle(self, a: Atom) -> bool:
        if a.pred in self.builtins:
            b = self.builtins[a.pred]
            return next(iter(b.solve(a.args, Subst())), None) is not None
        return self.interp.holds(a)

    def _decider(self, f: Formula) -> Decider:
        """``f`` compiled to its truth value under an environment map
        that binds its free variables (:func:`_compile_closed`)."""
        d = self._deciders.get(f)
        if d is None:
            d = self._deciders[f] = _compile_closed(f, self, False)
        return d

    def _decided(self, f: Formula, env: Subst) -> Optional[bool]:
        """``f``'s truth value if ``env`` closes it, else ``None``."""
        emap = env._map
        if emap.keys() >= f.free_vars():
            return self._decider(f)(emap)
        return None

    def _conjuncts_of(self, f: AndF) -> list[tuple]:
        """``f``'s parts as ``(part, free variables, decider)``."""
        parts = self._conjuncts.get(f)
        if parts is None:
            parts = self._conjuncts[f] = [
                (p, p.free_vars(), self._decider(p)) for p in f.parts
            ]
        return parts

    def _solve_and_fv(
        self, parts: list[tuple], env: Subst
    ) -> Iterator[Subst]:
        if not parts:
            yield env
            return
        if len(parts) == 1:
            a = parts[0][0]
            if a.__class__ is AtomF and self._relational(a.atom.pred):
                # A stored relation is always ready: nothing to rank.
                yield from self._match_facts(a.atom, env)
                return
        emap = env._map
        open_: list[tuple] = []
        best_i = 0
        best_p: Optional[tuple] = None
        for part in parts:
            unbound = 0
            for v in part[1]:
                if v not in emap:
                    unbound += 1
            if not unbound:
                # A closed conjunct has one truth value: decide it here,
                # so it never takes part in ranking or recursion.
                if not part[2](emap):
                    return
                continue
            pr = self._priority(part[0], env, unbound)
            if pr is not None:
                if pr[0] == 4 and not pr[1]:
                    # A relational conjunct whose index bucket is empty: no
                    # fact matches it, so the conjunction has no solution.
                    return
                if best_p is None or pr < best_p:
                    best_i, best_p = len(open_), pr
            open_.append(part)
        if not open_:
            yield env
            return
        if best_p is None:
            # Nothing ready: bind one variable from the domain and retry.
            all_vars: set[Var] = set()
            for _, fv, _ in open_:
                all_vars |= {v for v in fv if v not in emap}
            self._require_fallback(
                sorted(all_vars, key=str)[:1],
                AndF(tuple(p for p, _, _ in open_)),
            )
            v = min(
                all_vars,
                key=lambda u: (self.domain.carrier_size(u.sort), u.name),
            )
            carrier = self.domain.carrier(v.sort)
            self._charge_fallback(len(carrier))
            for value in carrier:
                yield from self._solve_and_fv(open_, env.bind(v, value))
            return
        chosen = open_.pop(best_i)[0]
        for env2 in self._solve(chosen, env):
            yield from self._solve_and_fv(open_, env2)

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
        closed = self._decided(f, env)
        if closed is not None:
            if closed:
                yield env
            return
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
        closed = self._decided(f, env)
        if closed is not None:
            if closed:
                yield env
            return
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
# Closed formulas
# ---------------------------------------------------------------------------

#: A closed formula's truth value under an environment map (a
#: :class:`Subst`'s bindings) that binds every free variable it has.
Decider = Callable[[dict], bool]


def _compile_closed(f: Formula, solver: Solver, strict: bool) -> Decider:
    """``f`` compiled to the solver's answer for it once its free variables
    are bound — one pass over each quantifier's range, with the bound
    variable set in a scratch map: no ranking, substitution or unfolding.

    The answers, and the errors, are the unfolding search's.  Positive, a
    membership in a non-set value is false, and so is a quantifier over
    one.  Under ``¬`` (``strict``) the formula answers as
    :func:`~repro.core.formulas.evaluate` does, which raises there.
    Wherever the search substituted into a formula it raised
    :class:`SortError` for a range element the bound variable's sort
    refuses, or for a quantifier left ranging over a non-set: for a whole
    range before its first copy when positive, element by element under
    ``¬``, and for the free ranges of a negated formula first.  Parts are
    decided in written order, and each stops at its first deciding part.
    """
    cls = f.__class__
    if cls is AtomF:
        return _compile_atom(f.atom, solver, strict)
    if cls is AndF or cls is OrF:
        parts = [_compile_closed(p, solver, strict) for p in f.parts]
        if cls is AndF:
            def every(m: dict) -> bool:
                for d in parts:
                    if not d(m):
                        return False
                return True
            return every

        def some(m: dict) -> bool:
            for d in parts:
                if d(m):
                    return True
            return False
        return some
    if cls is NotF:
        sub = _compile_closed(f.sub, solver, True)
        ranges = [] if strict else [
            _term_reader(v) for v in _free_ranges(f.sub, set())
        ]

        def negation(m: dict) -> bool:
            for read in ranges:
                value = read(m)
                if value.__class__ is not SetValue:
                    _refuse_range(value)
            return not sub(m)
        return negation
    if cls is ForallIn or cls is ExistsIn:
        return _compile_quantifier(f, solver, strict)
    if cls is TrueF:
        return lambda m: True
    raise EvaluationError(  # pragma: no cover - defensive
        f"cannot decide formula {f!r}"
    )


def _term_reader(t: Term) -> Callable[[dict], Term]:
    """``t``'s value under an environment map, as :meth:`Subst.apply`
    gives it (ground terms canonicalised once, variable chains followed)."""
    if t.__class__ is Var:
        def read(m: dict) -> Term:
            value = m.get(t)
            cls = value.__class__
            if cls is Const or cls is SetValue:
                return value
            return Subst._make(m).apply(t)
        return read
    if t.is_ground():
        value = canonicalize(t)
        return lambda m: value
    return lambda m: Subst._make(m).apply(t)


def _compile_atom(a: Atom, solver: Solver, strict: bool) -> Decider:
    pred = a.pred
    reads = [_term_reader(t) for t in a.args]
    if pred == EQUALS:
        left, right = reads
        return lambda m: left(m) == right(m)
    if pred == MEMBER:
        elem, source = reads

        def member(m: dict) -> bool:
            s = source(m)
            if s.__class__ is SetValue:
                return elem(m) in s.elems
            if strict:
                raise SortError(f"membership in non-set value {s}")
            return False
        return member
    builtin = solver.builtins.get(pred)
    if builtin is not None:
        def computed(m: dict) -> bool:
            args = tuple([r(m) for r in reads])
            if not strict:
                if len(args) != builtin.arity:
                    raise EvaluationError(
                        f"builtin {pred!r} used with arity {len(args)}"
                    )
                if not builtin.ready(args):
                    return False
            return next(iter(builtin.solve(args, EMPTY_SUBST)), None) \
                is not None
        return computed
    interp, stats = solver.interp, solver.stats

    def stored(m: dict) -> bool:
        if not strict:
            stats.matches += 1
        return interp.facts_of(pred).has_row([r(m) for r in reads])
    return stored


def _compile_quantifier(
    f: ForallIn | ExistsIn, solver: Solver, strict: bool
) -> Decider:
    body = _compile_closed(f.body, solver, strict)
    source, x = _term_reader(f.source), f.var
    sort, universal = x.var_sort, f.__class__ is ForallIn
    # Whether a quantifier in the body ranges over ``x`` itself: a
    # non-set element then leaves it ranging over an atom.
    sets_only = _ranges_over(f.body, x)
    check_first = not strict and (sort != SORT_U or sets_only)
    checked: set[SetValue] = set()      # ranges whose elements passed

    def check(e: Term) -> None:
        if not sorts_compatible(sort, e.sort):
            Subst._checked({x: e})          # raises SortError
        if sets_only and e.__class__ is not SetValue:
            _refuse_range(e)

    def quantifier(m: dict) -> bool:
        s = source(m)
        if s.__class__ is not SetValue:
            if strict:
                _refuse_range(s)
            return False
        elems = s.sorted_elems()
        if check_first and s not in checked:
            for e in elems:
                check(e)
            checked.add(s)
        scratch = dict(m)
        for e in elems:
            if strict:
                check(e)
            scratch[x] = e
            if body(scratch) != universal:
                return not universal
        return universal
    return quantifier


def _refuse_range(value: Term) -> None:
    """Raise the error building a quantifier over the non-set ``value``
    raises (:class:`~repro.core.formulas.ForallIn`)."""
    raise SortError(
        f"restricted quantifier ranges over {value} of sort 'a'; the "
        "range must be a set-sorted term"
    )


def _ranges_over(f: Formula, x: Var) -> bool:
    """Whether a quantifier in ``f`` ranges over ``x``, free in ``f``."""
    cls = f.__class__
    if cls is ForallIn or cls is ExistsIn:
        return f.source == x or (f.var != x and _ranges_over(f.body, x))
    if cls is AndF or cls is OrF:
        return any(_ranges_over(p, x) for p in f.parts)
    if cls is NotF:
        return _ranges_over(f.sub, x)
    return False


def _free_ranges(f: Formula, bound: set) -> list[Var]:
    """The variables free in ``f`` that its quantifiers range over, in
    the order substituting into ``f`` checks them (innermost first)."""
    cls = f.__class__
    if cls is ForallIn or cls is ExistsIn:
        src = f.source
        own = [src] if src.__class__ is Var and src not in bound else []
        return _free_ranges(f.body, bound | {f.var}) + own
    if cls is AndF or cls is OrF:
        return [v for p in f.parts for v in _free_ranges(p, bound)]
    if cls is NotF:
        return _free_ranges(f.sub, bound)
    return []


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
    ``shards``          — evaluate recursive conjunctive strata across this
                          many worker processes (see DESIGN.md, "Sharded
                          parallel evaluation"); ``<= 1`` or any stratum
                          the partitioner cannot prove safe falls back to
                          the single-process fixpoint, so the model is
                          bit-identical at every shard count.

    The options apply to batch :class:`Evaluator` runs only: maintained
    and served models (``MaterializedModel`` and everything built on it)
    take none and evaluate with the defaults, single-process.
    """

    allow_fallback: bool = True
    fallback_limit: Optional[int] = DEFAULT_FALLBACK_LIMIT
    max_rounds: int = DEFAULT_MAX_ROUNDS
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
    over.  Without a ``domain`` (queries against a finished model) nothing
    may be enumerated from the active domain, whatever the options say.
    ``memo`` is the fixpoint's builtin cache
    (:class:`~repro.engine.executor.Executor`).
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
        self.executor = make_executor(
            interp, builtins, delta=delta, stats=exec_stats, memo=memo
        )

    def rebind(self, delta: Mapping[str, Iterable[Atom]]) -> None:
        """Point both engines at a new round's deltas."""
        self.delta = delta
        self.executor.rebind(delta)


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


class Model(FactReads):
    """The computed (perfect) model plus query helpers, and what it is the
    model of (not the shard-owning :class:`Evaluator`) for :meth:`explain`."""

    def __init__(
        self,
        interp: Interpretation,
        report: EvalReport,
        program: Program,
        database: Optional[Database] = None,
        builtins: Mapping[str, Builtin] = DEFAULT_BUILTINS,
        options: EvalOptions = _DEFAULT_OPTIONS,
    ) -> None:
        self._interp = interp
        self.report = report
        self.program, self.database = program, database
        self.builtins, self.options = builtins, options

    def explain(self, a: Atom, max_depth: int = 50):
        """Derivation tree for a ground atom of the model
        (:func:`repro.engine.provenance.explain`)."""
        from .provenance import explain

        return explain(self, a, max_depth)

    def explain_str(self, text: str, max_depth: int = 50) -> str:
        """Parse a ground atom and render its derivation tree."""
        from ..lang import parse_atom

        return self.explain(parse_atom(text), max_depth=max_depth).pretty()

    @property
    def interpretation(self) -> Interpretation:
        return self._interp

    def holds_str(self, text: str) -> bool:
        """Parse and test a ground atom, e.g. ``model.holds_str("p(a, {b})")``."""
        from ..lang import parse_atom

        return self.holds(parse_atom(text))

    def query_str(self, text: str) -> list[dict[str, Any]]:
        """Parse a pattern and return bindings as Python values."""
        from ..lang import parse_atom

        pattern = parse_atom(text)
        out = []
        for theta in self.query(pattern):
            out.append({v.name: from_term(t) for v, t in theta.items()})
        return out

    def __contains__(self, a: Atom) -> bool:
        return self.holds(a)


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
        if not program.validated:
            program.validate()
        self._check_builtin_heads()
        # The program's facts are EDB (``run``); its rules are stratified.
        self.stratification: Stratification = stratify(
            program.rules(), ignore=set(builtins)
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
        if self.program.head_predicates().isdisjoint(self.builtins):
            return
        for c in self.program.clauses:      # the first one, in source order
            head_pred = self.program.head_pred(c)
            if head_pred in self.builtins:
                raise EvaluationError(
                    f"clause head uses builtin predicate {head_pred!r}"
                )

    def compiled_rule(self, clause: LPSClause | Rule) -> "_CompiledRule":
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
        if o.shards <= 1:
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

        Only a pass that consults the domain depends on it: one that made
        no consultation is the last, since the next would repeat its
        computation.  The domain is built at its first consultation, from
        the program's terms and every term the interpretation holds by
        then; until then nothing is noted into it.  A pass whose
        consultations all saw the domain it ends with is the last too.
        A database at another arity than the program is refused.
        """
        report = EvalReport(stats=SolverStats())
        facts = self.program.fact_groups
        db = self.database
        if db is not None:
            db.check_program(self.program)
            builtin = db.predicates() & self.builtins.keys()
            if builtin:
                raise EvaluationError(
                    f"database fact uses builtin predicate {min(builtin)!r}"
                )

        def seed(domain: ActiveDomain) -> None:
            nonlocal version_before
            domain.note_terms(self.program.all_terms())
            domain.note_interpretation(interp)      # the EDB among it
            # Every consultation of this pass sees this domain or a larger.
            version_before = domain.version

        domain = ActiveDomain(seed)
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
            consulted = domain.consultations
            interp = Interpretation()
            for f in facts:
                interp.extend(f.pred, f.n, f.cols, repeats=True)
            if db is not None:
                interp.update(db.facts())
            memo: dict = {}     # builtin answers, for the whole pass
            for group in self.stratification.groups:
                grouping = [
                    c for c in group.clauses if isinstance(c, GroupingClause)
                ]
                normal = [
                    c for c in group.clauses
                    if not isinstance(c, GroupingClause)
                ]
                for g in grouping:
                    self._apply_grouping(g, interp, domain, report)
                if normal:
                    coord = self._shard_coordinator()
                    if coord is not None:
                        from ..parallel import shardable_group

                        if shardable_group(group, self.builtins):
                            result = coord.eval_stratum(
                                group, interp, domain, report
                            )
                            if result is not None:
                                continue
                self._fixpoint(normal, interp, domain, report, memo=memo)
            if domain.consultations == consulted or (
                domain.version == version_before
            ):
                report.passes = passes
                return Model(
                    interp, report, self.program, self.database, self.builtins,
                    self.options,
                )

    # -- stratum fixpoint -----------------------------------------------------------

    def _fixpoint(
        self,
        rules: Sequence[LPSClause | Rule],
        interp: Interpretation,
        domain: Optional[ActiveDomain],
        report: EvalReport,
        seed_deltas: Optional[Mapping[str, frozenset[Atom]]] = None,
        shard=None,
        memo: Optional[dict] = None,
    ) -> dict[str, list[FactSlice]]:
        """Run one stratum's rules to fixpoint; returns the atoms added,
        per predicate, as the row ranges ``Interpretation.extend``
        returned — every atom once, none built unless the caller iterates
        them.  ``rules`` hold no ground fact: a program's facts are EDB,
        in ``interp`` before any stratum.

        With ``seed_deltas`` the loop starts **semi-naive from the given
        deltas** instead of with a naive first round: only rules depending
        on a seeded predicate fire, and delta-capable rules pin their
        differentiated conjunct to the seed.  This is how the incremental
        maintenance subsystem (``repro.engine.maintenance``) re-closes a
        stratum after a batch of fact insertions or DRed re-derivations —
        the interpretation is the already-materialized model, not the empty
        one, so a naive round would redo the entire join work.  The same
        subsystem consumes the return value as the stratum's exact gained
        set (the evaluator's own passes ignore it).  Without a ``domain``
        (maintenance) the first consultation raises ``SafetyError``.

        ``shard`` (a ``repro.parallel.worker.ShardContext``) makes this
        the per-worker fixpoint of sharded evaluation: every derived head
        passes through ``shard.admit`` — owned heads proceed exactly as
        usual, foreign heads are dropped locally and, when the deriving
        rule read a partitioned predicate, queued for shipment to their
        owner shard.

        ``memo`` caches builtin answers by input (``Builtin.solve`` is a
        function of its args) for every round's executor; an evaluator
        pass hands each group's fixpoint the same one.  Without it the
        cache lives for this call.
        """
        added: dict[str, list[FactSlice]] = {}
        if not rules:
            return added

        compiled = [self.compiled_rule(c) for c in rules]
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
        if memo is None:
            memo = {}
        #: One solver and executor for every round, rebound to its deltas.
        engines: Optional[_Engines] = None

        while True:
            round_no += 1
            report.rounds += 1
            if round_no > self.options.max_rounds:
                raise EvaluationError(
                    f"stratum did not converge within {self.options.max_rounds} rounds"
                )
            domain_grew = (
                0 if domain is None else domain.version
            ) != prev_version
            #: head predicate -> the batches of new head rows this round's
            #: rule applications derived (each batch distinct, none held).
            fresh: dict[str, list[RowBatch]] = {}
            if engines is None:
                engines = _Engines(
                    interp, self.builtins, report.stats, report.exec,
                    delta=deltas, domain=domain, options=self.options,
                    memo=memo,
                )
            else:
                engines.rebind(deltas)
            for rule in compiled:
                if not rule.affected(changed_preds, domain_grew):
                    continue
                report.rule_applications += 1
                pred = rule.head.pred
                exportable = shard is not None and shard.exportable(rule.deps)
                # After the first round a delta-capable rule fires once per
                # body occurrence that has a delta, that occurrence pinned.
                pins: Iterable[Optional[int]] = (None,)
                if changed_preds is not None and rule.delta_capable:
                    pins = rule.pins(deltas)
                for pin in pins:
                    batch = rule.fresh_rows(engines, pin)
                    if shard is not None:
                        batch = RowBatch.of_rows([
                            r for r in batch
                            if shard.admit(Atom(pred, r), exportable)
                        ])
                    if batch:
                        fresh.setdefault(pred, []).append(batch)
            if not fresh:
                break
            # What this round's consultations saw: a domain built during
            # the round already held everything derived before it.
            prev_version = 0 if domain is None else domain.version
            deltas = {}
            for pred, batches in fresh.items():
                if len(batches) == 1:
                    b = batches[0]
                    gained = interp.extend(
                        pred, b.n, rows=b.rows, atoms=b.atoms
                    ) if b.made_as_rows else interp.extend(pred, b.n, b.cols)
                # Two applications may reach the same new head; one batch
                # is distinct as it stands.
                elif all(b.made_as_rows for b in batches):
                    rows = list(itertools.chain.from_iterable(
                        b.rows for b in batches
                    ))
                    gained = interp.extend(
                        pred, len(rows), rows=rows, repeats=True
                    )
                else:
                    gained = interp.extend(
                        pred, sum(b.n for b in batches), [
                            array("q", itertools.chain.from_iterable(
                                c.tolist() for c in col
                            )) for col in zip(*(b.cols for b in batches))
                        ], repeats=True,
                    )
                if domain is not None and domain.built:
                    for b in batches:
                        domain.note_terms(b.terms())
                deltas[pred] = gained
                report.derived += len(gained)
                added.setdefault(pred, []).append(gained)
            changed_preds = set(deltas)
        return added

    # -- grouping ---------------------------------------------------------------

    def _apply_grouping(
        self,
        g: GroupingClause,
        interp: Interpretation,
        domain: Optional[ActiveDomain],
        report: EvalReport,
    ) -> set[Atom]:
        """Evaluate one LDL grouping clause (Definition 14).

        The grouped position receives the set of all group-variable values
        for which the body holds, per binding of the other head variables.
        Stratification guarantees the body's predicates are fully computed.
        Returns the head atoms actually added (consumed by maintenance).
        """
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
        at = g.group_pos
        heads = [
            Atom(g.pred, key[:at] + (setvalue(values),) + key[at:])
            for key, values in groups.items()
        ]
        added = interp.update(heads)
        if domain is not None and domain.built:
            domain.note_rows([h.args for h in added])
        report.derived += len(added)
        return set(added)

    def _plan_grouping(
        self, g: GroupingClause, executor: Executor
    ) -> Optional[dict[tuple[Term, ...], set[Term]]]:
        """Set-at-a-time grouping: execute the compiled body plan and
        collect the groups; ``None`` falls back to the tuple path."""
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
    (:meth:`heads`, :meth:`bindings`).

    A :class:`~repro.core.clauses.Rule` keeps its positive-formula body:
    it has no relational occurrence to pin, so it is never delta-capable,
    and the planner leaves it to the solver."""

    def __init__(
        self, clause: LPSClause | Rule, builtins: Mapping[str, Builtin]
    ) -> None:
        self.clause = clause
        self.builtins = builtins
        self.head = clause.head
        self.head_vars = clause.head.free_vars()
        self.all_vars = frozenset(clause.free_vars())
        self.body = clause.body_formula()
        self._delta_rest_cache: dict[int, tuple[Formula, frozenset]] = {}
        # Plan IR compilation, keyed by pinned occurrence (``None`` = the
        # base plan); compiled lazily — rules only ever probed
        # (:meth:`solutions`) pay nothing.
        self._plan_cache: dict[Optional[int], CompiledPlan] = {}
        self._head_plan_cache: dict[tuple[Optional[int], bool], tuple] = {}
        if isinstance(clause, Rule):
            self.deps = {
                a.pred for a in atoms_of(self.body)
                if not a.is_special() and a.pred not in builtins
            }
            self.delta_capable = False
            self.relational = []
            # A formula may consult the domain: a vacuous quantifier, a
            # disjunct that leaves a variable unbound, a negation.
            self.domain_sensitive = True
            return
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

    def rows(self, engines: _Engines, pin: Optional[int] = None) -> RowBatch:
        """The distinct head atoms one application of this rule derives,
        as their argument rows.

        With ``pin`` the ``pin``-th relational occurrence ranges over
        ``engines.delta`` only (semi-naive differentiation, maintenance
        and subscription deltas); every other occurrence reads the full
        interpretation.  The compiled plan runs when the body has one; a
        tuple-mode body or a static prediction failing on real values
        (:class:`PlanInapplicable`) runs the solver instead.
        """
        return self._apply(engines, pin, False)

    def fresh_rows(
        self, engines: _Engines, pin: Optional[int] = None
    ) -> RowBatch:
        """:meth:`rows` less the atoms the engines' interpretation holds
        — what one application adds — as the columnar path's ID columns
        or the tuple solver's atoms, for :meth:`Interpretation.extend`
        to store as they are."""
        return self._apply(engines, pin, True)

    def id_rows(self, engines: _Engines) -> RowBatch:
        """:meth:`rows` as their producer made them: an answer that stays
        in ID space (``engine.answers``) decodes no term row."""
        return self._apply(engines, None, False)

    def _apply(
        self,
        engines: _Engines,
        pin: Optional[int],
        fresh: bool,
        bound: Optional["BoundRule"] = None,
    ) -> RowBatch:
        """One application; with ``bound`` the plans' Params take its
        constants and the tuple path runs its :attr:`BoundRule.concrete`
        rule.  (Params occur in bodies only, so the head is shared.)"""
        executor = engines.executor
        if bound is not None and bound.params is not None:
            executor = executor.bound(bound.params)
        node, shape = self._head_plan(pin, fresh)
        stats = engines.solver.stats
        head = self.head
        heads: Optional[Iterable[Atom]] = None
        if node is not None:
            try:
                if shape is not None:
                    # Rows off the head columns are the head's arguments:
                    # no atom is built, and a ``fresh`` plan has already
                    # subtracted the head relation.
                    out = executor.shaped_batch(node, shape)
                    stats.derivations += len(out)
                    return out
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
            solving = self if bound is None else bound.concrete
            heads = (
                head.substitute(env) for env in solving._solve(engines, pin)
            )
        # Distinct bindings can substitute to one head (set arguments).
        heads = dict.fromkeys(heads)
        if fresh:
            held = engines.solver.interp.facts_of(head.pred)
            out = [h for h in heads if h not in held]
        else:
            out = list(heads)
        stats.derivations += len(out)
        return RowBatch.of_atoms(out)

    def heads(self, engines: _Engines, pin: Optional[int] = None) -> list[Atom]:
        """:meth:`rows` as atoms."""
        batch = self.rows(engines, pin)
        if batch.atoms is not None:
            return batch.atoms
        pred = self.head.pred
        return [Atom(pred, r) for r in batch]

    def bindings(
        self, engines: _Engines, pin: Optional[int] = None
    ) -> Iterator[Subst]:
        """The distinct derivations of one application, as substitutions
        binding exactly the clause's free variables (``pin`` and engine
        choice as in :meth:`heads`).  DRed's overdeletion is the one
        caller: it checks each derivation's other conjuncts against the
        batch's gains."""
        stats = engines.solver.stats
        cp = self.plan(pin)
        if cp.is_set:
            try:
                rows = engines.executor.distinct_batch(cp.root)
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

    def solutions(self, solver: Solver, h: Atom) -> Iterator[Subst]:
        """The body solutions over the solver's interpretation whose head
        instance is the ground atom ``h`` (a point probe: the head match
        binds the body, so this is solver work)."""
        for env0 in match_atom(self.head, h):
            yield from solver.solve(self.body, env0)

    def derives(self, engines: _Engines, h: Atom) -> bool:
        """Whether one application of this rule yields ``h``."""
        head = self.head
        if h.pred != head.pred or len(h.args) != len(head.args):
            return False
        # The head match is deterministic unless a head argument is
        # structured (:func:`match_atom_fast`); DRed asks this of every
        # overdeleted atom, so skip the generic enumerator's generator.
        env0 = match_atom_fast(head, h, EMPTY_SUBST)
        if env0 is MATCH_FAILED:
            return False
        if env0 is MATCH_REFUSED:
            return next(self.solutions(engines.solver, h), None) is not None
        return next(engines.solver.solve(self.body, env0), None) is not None

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

    def ground_premises(self, env: Subst, solver: Solver) -> tuple[Atom, ...]:
        """The ground positive IDB/EDB body atoms of this application —
        quantifiers unfolded per Lemma 4 (empty ranges give no premises).
        A formula body's disjunction or ``∃`` contributes the atoms of its
        first branch true over ``solver``'s interpretation."""
        env = env.restrict(self.all_vars)
        if isinstance(self.clause, Rule):
            atoms = _premises(self.body.substitute(env), solver._oracle)
        else:
            ground = self.clause.ground_instances(env)
            atoms = (l.atom for l in ground.body if l.positive)
        return tuple(dict.fromkeys(
            a for a in atoms
            if not a.is_special() and a.pred not in self.builtins
        ))


def _premises(f: Formula, holds) -> Iterator[Atom]:
    """The positive atoms the truth of a closed formula rests on: every
    conjunct's and every range element's (Lemma 4), the first true
    disjunct's or witness's, none under ``¬``."""
    if isinstance(f, AtomF):
        yield f.atom
    elif isinstance(f, AndF):
        for p in f.parts:
            yield from _premises(p, holds)
    elif isinstance(f, OrF):
        for p in f.parts:
            if evaluate(p, holds):
                yield from _premises(p, holds)
                return
    elif isinstance(f, (ForallIn, ExistsIn)):
        for e in f.source.sorted_elems():
            inst = f.body.substitute(Subst._checked({f.var: e}))
            if isinstance(f, ForallIn):
                yield from _premises(inst, holds)
            elif evaluate(inst, holds):
                yield from _premises(inst, holds)
                return


class BoundRule:
    """One goal text, compiled: its shape's rule, whose
    :class:`~repro.core.terms.Param` slots take the text's constants
    (``params``; ``None`` for a rule without slots), and the names of its
    answer columns (``vars``, in the head's order).

    The plans are the shared rule's, bound per execution
    (:meth:`Executor.bound`).  The tuple path — a body the planner left
    to the solver, a plan that proved inapplicable, the exactness probes
    of :meth:`derives` — runs :attr:`concrete`, the rule of the text's
    own clause, built when first needed.
    """

    __slots__ = ("rule", "params", "vars", "_concrete")

    def __init__(
        self,
        rule: _CompiledRule,
        params: Optional[Sequence[Term]],
        vars: tuple[str, ...],
    ) -> None:
        self.rule = rule
        self.params = params
        self.vars = vars
        self._concrete = rule if params is None else None

    @property
    def concrete(self) -> _CompiledRule:
        c = self._concrete
        if c is None:
            rule = self.rule
            c = self._concrete = _CompiledRule(
                rule.clause.bind(self.params), rule.builtins
            )
        return c

    @property
    def deps(self) -> set[str]:
        return self.rule.deps

    @property
    def delta_capable(self) -> bool:
        return self.rule.delta_capable

    @property
    def relational(self) -> list[Atom]:
        return self.rule.relational

    def pins(self, delta: Mapping[str, Iterable[Atom]]) -> list[int]:
        return self.rule.pins(delta)

    def plan(self, pin: Optional[int] = None) -> CompiledPlan:
        """The plan with this text's constants (for display: execution
        runs the shared rule's)."""
        return self.concrete.plan(pin)

    def rows(self, engines: _Engines, pin: Optional[int] = None) -> RowBatch:
        return self.rule._apply(engines, pin, False, self)

    def id_rows(self, engines: _Engines) -> RowBatch:
        return self.rule._apply(engines, None, False, self)

    def heads(
        self, engines: _Engines, pin: Optional[int] = None
    ) -> list[Atom]:
        pred = self.rule.head.pred
        return [Atom(pred, r) for r in self.rows(engines, pin)]

    def derives(self, engines: _Engines, h: Atom) -> bool:
        return self.concrete.derives(engines, h)


def solve(
    program: Program,
    database: Optional[Database] = None,
    **options: Any,
) -> Model:
    """One-call evaluation: build an :class:`Evaluator` and run it."""
    opts = EvalOptions(**options) if options else EvalOptions()
    return Evaluator(program, database, options=opts).run()
