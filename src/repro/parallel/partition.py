"""Hash partitioning and shardability analysis for parallel evaluation.

The partitioning scheme (the classic parallel-Datalog recipe):

* Only the predicates **defined by** a recursive conjunctive stratum
  (its ``head_preds``) are partitioned; every relation the stratum reads
  from below is replicated to all workers.  A worker's interpretation is
  therefore complete for every body conjunct except occurrences of the
  stratum's own predicates, of which it holds exactly its shard.
* A fact's owner is a stable content hash (CRC-32 of the canonical
  concrete syntax — never the process-local ``TERM_DICT`` id) of its
  argument at the predicate's **partition position**, chosen as the most
  selective position by the same per-position index statistics the join
  planner reads (:meth:`Interpretation.estimate_for_pattern`'s buckets).
* A rule with at most **one** body occurrence of a partitioned predicate
  is complete under this split: each derivation consumes exactly one
  partitioned fact, and the shard owning that fact performs it (rules
  reading only replicated relations are derived everywhere and filtered
  to owned heads).  Rules with two or more such occurrences — nonlinear
  recursion — are not partitionable, and the stratum falls back to the
  single-process fixpoint.
"""

from __future__ import annotations

import zlib
from typing import Mapping, Optional

from ..core.atoms import Atom
from ..core.clauses import LPSClause
from ..core.terms import Var
from ..engine.stratify import PLAN_DRED, StratumRules
from ..lang.pretty import pretty_term
from ..semantics.interpretation import Interpretation


def stable_hash(text: str) -> int:
    """A process-independent hash (CRC-32 of UTF-8): identical in every
    worker regardless of ``PYTHONHASHSEED`` or interning order."""
    return zlib.crc32(text.encode("utf-8"))


def shard_of(atom: Atom, spec: Mapping[str, int], n_shards: int) -> int:
    """The worker index owning a ground fact under a partition spec."""
    pos = spec.get(atom.pred, 0)
    if pos >= len(atom.args):
        # Propositional (or mis-specified) predicate: a single owner,
        # chosen by predicate name so routing stays deterministic.
        return stable_hash(atom.pred) % n_shards
    return stable_hash(pretty_term(atom.args[pos])) % n_shards


def preserved_positions(group: StratumRules, builtins) -> dict[str, set[int]]:
    """Positions at which every recursive rule's head copies the variable
    of its recursive body occurrence.

    Partitioning a predicate on such a position makes recursion
    *communication-free*: a derivation's head hashes to the very shard
    that owned the consumed fact, so nothing ever crosses shards (the
    classic parallel-TC trick — ``t(X, Z) :- e(X, Y), t(Y, Z)`` ships
    nothing when ``t`` is split on position 1, everything when split on
    position 0).  Only self-recursion is analysed; mutual recursion
    yields no preserved positions (correct either way — just chattier).
    """
    from ..engine.evaluation import _CompiledRule

    heads = group.head_preds
    out: dict[str, Optional[set[int]]] = {}
    for c in group.clauses:
        if not isinstance(c, LPSClause):
            continue
        rule = _CompiledRule(c, builtins)
        occs = [a for a in rule.relational if a.pred in heads]
        if not occs:
            continue
        p = c.head.pred
        occ = occs[0]
        if occ.pred != p:
            out[p] = set()
            continue
        cand = {
            j
            for j in range(min(len(c.head.args), len(occ.args)))
            if isinstance(c.head.args[j], Var)
            and c.head.args[j] == occ.args[j]
        }
        prev = out.get(p)
        out[p] = cand if prev is None else prev & cand
    return {p: s for p, s in out.items() if s}


def choose_partition(
    interp: Interpretation,
    preds,
    preferred: Optional[Mapping[str, set[int]]] = None,
    min_facts: int = 2,
) -> dict[str, int]:
    """Pick each predicate's partition position from current stats.

    Within the allowed positions — the ``preferred`` communication-free
    set from :func:`preserved_positions` when one exists, else every
    position — the most selective one (most distinct values among the
    facts currently materialized) balances shards best; it is read off
    the same per-position hash indexes that back
    ``estimate_for_pattern``.  Predicates with too few facts to judge
    take the lowest allowed position.
    """
    spec: dict[str, int] = {}
    for pred in sorted(preds):
        allowed = sorted((preferred or {}).get(pred) or ())
        facts = interp.facts_of(pred)
        if len(facts) < min_facts:
            spec[pred] = allowed[0] if allowed else 0
            continue
        arity = len(next(iter(facts)).args)
        positions = [j for j in allowed if j < arity] or range(arity)
        best_pos, best_distinct = 0, -1
        for pos in positions:
            distinct = len(interp._index_for(pred, (pos,)))
            if distinct > best_distinct:
                best_pos, best_distinct = pos, distinct
        spec[pred] = best_pos
    return spec


def shardable_group(group: StratumRules, builtins) -> bool:
    """Whether a stratum's rules are safe to evaluate sharded.

    The fallback matrix (strata failing any row run on the coordinator):

    * negation / grouping / quantifier strata (``PLAN_RECOMPUTE``, or
      ``PLAN_REDERIVE`` when nonrecursive) — a worker cannot see the
      complete extension its strictness needs;
    * nonrecursive strata (``PLAN_REDERIVE``) — every body relation is
      replicated, so sharding would only duplicate the work N times;
    * domain-sensitive rules — a worker keeps no active domain;
    * rules with >1 body occurrence of a stratum predicate (nonlinear
      recursion) — a derivation could need facts from two shards.
    """
    from ..engine.evaluation import _CompiledRule

    if group.plan != PLAN_DRED:
        return False
    heads = group.head_preds
    for c in group.clauses:
        if not isinstance(c, LPSClause):
            return False
        rule = _CompiledRule(c, builtins)
        if not rule.delta_capable or rule.domain_sensitive:
            return False
        if sum(1 for a in rule.relational if a.pred in heads) > 1:
            return False
    return True
