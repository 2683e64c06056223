"""Why-provenance: derivation trees for atoms of a finished model.

Every atom of the least model has a finite derivation whose steps are
clause instances holding in the model, so :func:`explain` searches for one
over the model alone; evaluation records nothing.  This is classical
why-provenance for Datalog, extended to LPS's quantified clauses (Lemma 4
unfolds them: an empty range gives a step with zero premises), to rules
kept as positive formulas (the same unfolding, under the head) and LDL
grouping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..core.atoms import Atom
from ..core.clauses import GroupingClause, LPSClause
from ..core.errors import EvaluationError
from .evaluation import ActiveDomain, Model, Solver, _CompiledRule

#: How an atom entered the model.
GIVEN = "given"          # EDB fact or ground fact clause
DERIVED = "derived"      # via an LPS clause
GROUPED = "grouped"      # via an LDL grouping clause
STRUCTURAL = "structural"  # special/builtin atom, true by Definition 3


@dataclass
class DerivationNode:
    """A node of a derivation tree."""

    atom: Atom
    kind: str
    clause: Optional[object] = None
    children: list["DerivationNode"] = field(default_factory=list)

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        label = {
            GIVEN: "(given)",
            STRUCTURAL: "(structural)",
            GROUPED: "(grouping)",
            DERIVED: "",
        }[self.kind]
        rule = f"   [{self.clause}]" if self.clause is not None else ""
        lines = [f"{pad}{self.atom} {label}{rule}".rstrip()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def depth(self) -> int:
        return 1 + max((c.depth() for c in self.children), default=0)


def explain(model: Model, atom: Atom, max_depth: int = 50) -> DerivationNode:
    """A derivation tree for ``atom``, searched backwards over ``model``.

    Each body solution of a clause with the head bound
    (:meth:`_CompiledRule.solutions`, maintenance's point probe) is a step
    whose premises are its ``ground_premises``; a grouping clause is solved
    with its key bound and must reproduce the atom's set.  An atom gets a step
    once all premises of one have theirs (a Horn-SAT count), so trees are
    finite, and no atom or step is searched twice.  Built-in and special
    atoms are leaves ("structural"), as are EDB facts and ground fact
    clauses ("given"); nodes below ``max_depth`` keep their clause and
    lose their children.  Raises ``EvaluationError`` for an atom not in
    the model."""
    program, builtins, interp = model.program, model.builtins, model.interpretation
    given = set(program.facts())
    given.update(model.database.facts() if model.database is not None else ())
    clauses: dict[str, list[tuple[object, _CompiledRule]]] = {}
    for c in program.rules():
        # A grouping clause's key rule: its solutions under a key are the group.
        rule = LPSClause(
            Atom(f"{c.pred}<key>", c.head_args), body=c.body
        ) if isinstance(c, GroupingClause) else c
        clauses.setdefault(program.head_pred(c), []).append(
            (c, _CompiledRule(rule, builtins))
        )
    def seed(domain: ActiveDomain) -> None:
        # The model's active domain, per call, since a maintained model
        # changes under it; built only if a step consults it.
        domain.note_terms(program.all_terms())
        domain.note_interpretation(interp)

    domain = ActiveDomain(seed)
    solver = Solver(interp, domain, builtins, model.options.allow_fallback,
                    model.options.fallback_limit)
    #: atom -> its (kind, clause, premises) step; an atom's premises are
    #: all recorded before it, so the records are acyclic.
    steps: dict[Atom, tuple[str, object, tuple[Atom, ...]]] = {}

    def known(a: Atom) -> bool:
        return a.is_special() or a in given or a in steps

    def alternatives(a: Atom) -> Iterator[tuple]:
        """The steps that conclude ``a`` in the model."""
        for c, rule in clauses.get(a.pred, ()):
            if not isinstance(c, GroupingClause):
                for env in rule.solutions(solver, a):
                    yield DERIVED, c, rule.ground_premises(env, solver)
                continue
            at = c.group_pos
            key = Atom(rule.head.pred, a.args[:at] + a.args[at + 1:])
            envs = list(rule.solutions(solver, key))
            if envs and {e.apply(c.group_var) for e in envs} == a.args[at].elems:
                yield GROUPED, c, tuple(dict.fromkeys(
                    p for e in envs for p in rule.ground_premises(e, solver)
                ))

    def tree(a: Atom, fuel: int) -> DerivationNode:
        if a.is_special():
            return DerivationNode(a, STRUCTURAL)
        if a in given:
            return DerivationNode(a, GIVEN)
        kind, c, premises = steps[a]
        below = [tree(p, fuel - 1) for p in premises] if fuel > 0 else []
        return DerivationNode(a, kind, c, below)

    #: premise -> the ``[head, step, unproved premises]`` waiting on it
    waiting: dict[Atom, list[list]] = {}
    # Depth-first, on a stack (derivations can be deeper than the recursion
    # limit) of ``[atom, alternatives, premises to search]`` frames; a step
    # that meets an atom searched and unproved waits for it.
    stack, seen = deque([[atom, None, []]]), set()
    while stack and not known(atom):
        frame = stack[-1]
        a, rest, todo = frame
        if a in steps or (rest is None and a in seen):
            stack.pop()
        elif rest is None:
            seen.add(a)
            frame[1] = alternatives(a)
        elif todo:
            p = todo[-1]
            if known(p):
                todo.pop()
            elif p not in seen:
                stack.append([p, None, []])
            else:  # set aside: what else it needs is searched last
                stack.extendleft([q, None, []] for q in todo)
                frame[2] = []
        elif (step := next(rest, None)) is None:
            stack.pop()
        else:
            pending = [p for p in step[2] if not known(p)]
            ready = [[a, step, len(pending)]]
            for p in pending:
                waiting.setdefault(p, []).append(ready[0])
            while ready:
                head, proved, n = ready.pop()
                if n == 0 and head not in steps:
                    steps[head] = proved
                    for entry in waiting.pop(head, ()):
                        entry[2] -= 1
                        ready.append(entry)
            frame[2] = pending[::-1]

    if not (model.holds(atom) and known(atom)):
        raise EvaluationError(f"{atom} is not in the model")
    return tree(atom, max_depth)
