"""Stratification of programs with negation and grouping.

Section 4.2 of the paper adds (stratified) negation to LPS "in a
straightforward way", citing [ABW86]; Section 6 treats LDL grouping, which —
like negation — needs the *complete* extension of its body predicates before
it can fire, and therefore induces the same strictness constraint.

A **stratification** assigns each predicate a stratum number such that for
every clause with head predicate ``p``:

* if ``q`` occurs positively in the body, ``stratum(q) ≤ stratum(p)``;
* if ``q`` occurs negatively (or the clause is a grouping clause),
  ``stratum(q) < stratum(p)``.

A program is stratifiable iff no cycle of the dependency graph contains a
negative edge.  We compute strongly connected components with an iterative
Tarjan algorithm (no recursion limits), check the condition, and emit the
components in topological order with minimal stratum numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ..core.clauses import GroupingClause, LPSClause, Rule
from ..core.errors import StratificationError
from ..core.formulas import atoms_of, has_quantifier
from ..core.program import AnyClause, Program


#: Maintenance strategies a stratum can be planned for (see
#: ``repro.engine.maintenance``): delete–rederive for recursive strata,
#: candidate re-derivation for every nonrecursive one, and full
#: per-stratum recomputation for what is left (restricted quantifiers,
#: formula bodies, negation or grouping inside a recursive stratum).
PLAN_DRED = "dred"
PLAN_REDERIVE = "rederive"
PLAN_RECOMPUTE = "recompute"


@dataclass(frozen=True)
class StratumRules:
    """One stratum's rule group, pre-analysed for the maintenance planner."""

    index: int
    clauses: tuple[AnyClause, ...]
    head_preds: frozenset[str]
    body_preds: frozenset[str]
    has_negation: bool
    has_grouping: bool
    has_quantifiers: bool
    #: Whether a rule keeps its positive-formula body (``Rule``): no
    #: literal list to pin a delta on or to probe.
    has_formulas: bool = False

    @property
    def recursive(self) -> bool:
        return bool(self.head_preds & self.body_preds)

    @property
    def plan(self) -> str:
        """Which maintenance strategy is sound and cheapest for this group.

        A stratum that reads its own heads is closed by DRed.  Any other
        stratum reads only predicates maintained *below* it, so the heads
        a delta can move are enumerable from the delta and each is
        decidable by a point probe, whatever negation or grouping its
        rules use: ``rederive``.  Anything else is re-evaluated wholesale
        from the maintained lower strata, and :attr:`recompute_reason`
        says why.
        """
        if self.recompute_reason is not None:
            return PLAN_RECOMPUTE
        if self.recursive:
            return PLAN_DRED
        return PLAN_REDERIVE

    @property
    def recompute_reason(self) -> Optional[str]:
        """Why no delta-proportional plan applies (``None`` when one does)."""
        if self.has_quantifiers:
            return "restricted quantifier"
        if self.has_formulas:
            return "positive formula body"
        if self.recursive and self.has_negation:
            return "recursive negation"
        if self.recursive and self.has_grouping:
            return "recursive grouping"
        return None


@dataclass(frozen=True)
class Stratification:
    """The result: stratum number per predicate, and clauses per stratum."""

    stratum_of: Mapping[str, int]
    strata: tuple[tuple[AnyClause, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.strata)

    def rule_groups(self) -> tuple[StratumRules, ...]:
        """The strata as analysed rule groups (maintenance planner input)."""
        out = []
        for i, clauses in enumerate(self.strata):
            head_preds: set[str] = set()
            body_preds: set[str] = set()
            has_negation = has_grouping = has_quantifiers = False
            has_formulas = False
            for c in clauses:
                if isinstance(c, GroupingClause):
                    has_grouping = True
                    head_preds.add(c.pred)
                else:
                    head_preds.add(c.head.pred)
                    if c.has_negation():
                        has_negation = True
                if isinstance(c, Rule):
                    has_formulas = True
                    if has_quantifier(c.body):
                        has_quantifiers = True
                    atoms = list(atoms_of(c.body))
                else:
                    if isinstance(c, LPSClause) and c.quantifiers:
                        has_quantifiers = True
                    atoms = [lit.atom for lit in c.body]
                for a in atoms:
                    if not a.is_special():
                        body_preds.add(a.pred)
            out.append(StratumRules(
                index=i,
                clauses=clauses,
                head_preds=frozenset(head_preds),
                body_preds=frozenset(body_preds),
                has_negation=has_negation,
                has_grouping=has_grouping,
                has_quantifiers=has_quantifiers,
                has_formulas=has_formulas,
            ))
        return tuple(out)


def _tarjan_sccs(
    nodes: Sequence[str], succ: Mapping[str, set[str]]
) -> list[list[str]]:
    """Strongly connected components, iteratively, in reverse topological order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = sorted(succ.get(node, ()))
            for i in range(child_i, len(children)):
                ch = children[i]
                if ch not in index:
                    work[-1] = (node, i + 1)
                    work.append((ch, 0))
                    advanced = True
                    break
                if ch in on_stack:
                    low[node] = min(low[node], index[ch])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
    return sccs


def stratify(
    program: Program,
    extra_negative: Iterable[tuple[str, str]] = (),
    ignore: Iterable[str] = (),
) -> Stratification:
    """Compute a stratification, or raise :class:`StratificationError`.

    ``extra_negative`` lets callers add negative edges (used by tests and by
    the setof transformation to document intent); normally the edges come
    from the program itself via
    :meth:`~repro.core.program.Program.dependency_edges`.  Predicates in
    ``ignore`` (typically engine builtins like ``neq``) contribute no
    dependency edges.
    """
    ignored = set(ignore)
    preds = set(program.predicates()) - ignored
    succ: dict[str, set[str]] = {p: set() for p in preds}
    negative_pairs: set[tuple[str, str]] = set(extra_negative)
    for head, body, positive in program.dependency_edges():
        if head in ignored or body in ignored:
            continue
        succ.setdefault(head, set()).add(body)
        succ.setdefault(body, set())
        preds.add(head)
        preds.add(body)
        if not positive:
            negative_pairs.add((head, body))
    for head, body in extra_negative:
        succ.setdefault(head, set()).add(body)
        succ.setdefault(body, set())
        preds.update((head, body))

    sccs = _tarjan_sccs(sorted(preds), succ)
    comp_of: dict[str, int] = {}
    for i, comp in enumerate(sccs):
        for p in comp:
            comp_of[p] = i

    # Negative edge inside one SCC => unstratifiable.
    for head, body in negative_pairs:
        if comp_of.get(head) == comp_of.get(body) and head in comp_of:
            raise StratificationError(
                f"negation/grouping cycle through {head!r} and {body!r}; "
                "the program is not stratified ([ABW86], Section 4.2)"
            )

    # Tarjan emits SCCs in reverse topological order of the condensation
    # (every successor component is emitted before its predecessors), so a
    # single pass assigns minimal stratum numbers.
    stratum_of: dict[str, int] = {}
    comp_stratum: list[int] = [0] * len(sccs)
    for i, comp in enumerate(sccs):
        s = 0
        for p in comp:
            for q in succ.get(p, ()):
                qi = comp_of[q]
                if qi == i:
                    continue
                needed = comp_stratum[qi] + (1 if (p, q) in negative_pairs else 0)
                s = max(s, needed)
        # All negative edges out of this component force a strictly higher
        # stratum; positive edges only a >= constraint.
        for p in comp:
            for q in succ.get(p, ()):
                if comp_of[q] != i and (p, q) in negative_pairs:
                    s = max(s, comp_stratum[comp_of[q]] + 1)
        comp_stratum[i] = s
        for p in comp:
            stratum_of[p] = s

    depth = (max(comp_stratum) + 1) if comp_stratum else 1
    buckets: list[list[AnyClause]] = [[] for _ in range(depth)]
    for c in program.clauses:
        pred = c.pred if isinstance(c, GroupingClause) else c.head.pred
        buckets[stratum_of.get(pred, 0)].append(c)
    return Stratification(
        stratum_of=stratum_of,
        strata=tuple(tuple(b) for b in buckets),
    )


def is_stratified(program: Program) -> bool:
    """Whether the program admits a stratification."""
    try:
        stratify(program)
        return True
    except StratificationError:
        return False
