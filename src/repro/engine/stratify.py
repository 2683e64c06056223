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
negative edge.  The perfect model is the same for every stratification,
so we take the finest: one rule group per strongly connected component
that defines a predicate, in topological order (every component a group
reads is evaluated before it).  We compute the components with an
iterative Tarjan algorithm (no recursion limits), whose emission order is
that order, and check the condition.  A group then reads its own heads
exactly when its component has a cycle, which is what the maintenance
planner keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """One dependency component's rule group, pre-analysed for the
    maintenance planner; ``index`` is its place in evaluation order."""

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


def _rule_group(index: int, clauses: tuple[AnyClause, ...]) -> StratumRules:
    """One component's clauses, analysed for the maintenance planner."""
    head_preds: set[str] = set()
    body_preds: set[str] = set()
    has_negation = has_grouping = has_quantifiers = has_formulas = False
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
    return StratumRules(
        index=index,
        clauses=clauses,
        head_preds=frozenset(head_preds),
        body_preds=frozenset(body_preds),
        has_negation=has_negation,
        has_grouping=has_grouping,
        has_quantifiers=has_quantifiers,
        has_formulas=has_formulas,
    )


@dataclass(frozen=True)
class Stratification:
    """The rule groups in evaluation order, and each defined predicate's."""

    groups: tuple[StratumRules, ...]
    #: defined predicate -> index of its group in :attr:`groups`.
    stratum_of: Mapping[str, int]

    @property
    def depth(self) -> int:
        return len(self.groups)


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


def stratify(program: Program, ignore: Iterable[str] = ()) -> Stratification:
    """Compute the stratification, or raise :class:`StratificationError`.

    The edges come from the program via
    :meth:`~repro.core.program.Program.dependency_edges`.  Predicates in
    ``ignore`` (typically engine builtins like ``neq``) contribute no
    dependency edges.
    """
    ignored = set(ignore)
    succ: dict[str, set[str]] = {
        p: set() for p in program.predicates() if p not in ignored
    }
    negative_pairs: set[tuple[str, str]] = set()
    for head, body, positive in program.dependency_edges():
        if head in ignored or body in ignored:
            continue
        succ[head].add(body)
        if not positive:
            negative_pairs.add((head, body))

    comp_of: dict[str, int] = {}
    for i, comp in enumerate(_tarjan_sccs(sorted(succ), succ)):
        for p in comp:
            comp_of[p] = i

    # Negative edge inside one SCC => unstratifiable.
    for head, body in negative_pairs:
        if comp_of[head] == comp_of[body]:
            raise StratificationError(
                f"negation/grouping cycle through {head!r} and {body!r}; "
                "the program is not stratified ([ABW86], Section 4.2)"
            )

    # Tarjan emits every successor component before its predecessors, so
    # component order is evaluation order; components that define no
    # predicate form no group.
    by_comp: dict[int, list[AnyClause]] = {}
    for c in program.clauses:
        by_comp.setdefault(comp_of[program.head_pred(c)], []).append(c)
    groups = tuple(
        _rule_group(gi, tuple(by_comp[ci]))
        for gi, ci in enumerate(sorted(by_comp))
    )
    return Stratification(
        groups=groups,
        stratum_of={p: g.index for g in groups for p in g.head_preds},
    )


def is_stratified(program: Program) -> bool:
    """Whether the program admits a stratification."""
    try:
        stratify(program)
        return True
    except StratificationError:
        return False
