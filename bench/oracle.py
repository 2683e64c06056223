"""Correctness oracles: from-scratch evaluation and the paper's ``T_P``.

The serving workloads compare what the servers answered with a
from-scratch evaluation of the same text in this process; a down-sized
instance of each program is also checked against the brute-force
``TpOperator`` least fixpoint, the repository's reference semantics.
``T_P`` is defined for positive LPS clauses without built-ins, so the
``dead`` (negation), ``succ``/``owns`` (grouping), ``disj`` (``!=``) and
parts-explosion (``choose_min``, arithmetic) rules are checked against
from-scratch evaluation and the generators' analytic answers instead.
"""

from __future__ import annotations

import re

from repro import least_fixpoint
from repro.core import SetValue, setvalue
from repro.engine import Evaluator, Model
from repro.engine.setops import with_set_builtins
from repro.lang import parser
from repro.semantics import Universe

from inputs import Commit


def evaluate(text: str) -> Model:
    """From-scratch model of a program text, as ``lps run`` computes it.

    ``parser.parse_program`` is looked up through its module on every call,
    so the traced pass sees the parse this function pays for.
    """
    program = parser.parse_program(text)
    return Evaluator(program, builtins=with_set_builtins()).run()


def final_edges(edges, commits: list[Commit]) -> set[tuple[str, str]]:
    """The edge set after applying ``commits`` (deletes first, per commit)."""
    live = set(edges)
    for c in commits:
        live.difference_update(c.dels)
        live.update(c.adds)
    return live


def program_text(rules: str, facts: list[str], edges=None) -> str:
    """``rules`` plus ``facts`` as one program, the ``e`` facts optionally
    replaced by ``edges`` (the edge set a run ended with)."""
    if edges is not None:
        facts = [f for f in facts if not f.startswith("e(")]
        facts += [f"e({u}, {v})" for u, v in sorted(edges)]
    return rules + "".join(f"{f}.\n" for f in facts)


_NODE = re.compile(r"v\d+")


class GraphAnswers:
    """Expected answer-row counts of the read shapes over one model."""

    def __init__(self, model: Model) -> None:
        self.t = model.relation("t")
        self.reach: dict[str, set[str]] = {}
        for a, b in self.t:
            self.reach.setdefault(a, set()).add(b)
        self.out: dict[str, set[str]] = {}
        for a, b in model.relation("e"):
            self.out.setdefault(a, set()).add(b)

    def rows(self, shape: str, text: str) -> int:
        nodes = _NODE.findall(text)
        if shape == "scan":
            return len(self.t)
        if shape == "point":
            return int((nodes[0], nodes[1]) in self.t)
        if shape == "prefix":
            return len(self.reach.get(nodes[0], ()))
        if shape == "join":
            return sum(
                len(self.out.get(y, ())) for y in self.reach.get(nodes[0], ())
            )
        if shape == "setval":
            return len(self.out.get(nodes[0], ()))
        raise ValueError(shape)


def tp_agrees(text: str) -> tuple[bool, str]:
    """Engine model == ``T_P`` least fixpoint over the program's own
    constants and sets (plus ``{}``, which the active domain always holds)."""
    program = parser.parse_program(text)
    atoms, sets = set(), {setvalue([])}
    for c in program.clauses:
        if not c.is_fact:
            continue
        for term in c.head.args:
            if isinstance(term, SetValue):
                sets.add(term)
                atoms.update(term.sorted_elems())
            else:
                atoms.add(term)
    universe = Universe(
        tuple(sorted(atoms, key=str)), tuple(sorted(sets, key=str))
    )
    ref = least_fixpoint(program, universe, max_rounds=200).interpretation
    got = evaluate(text).interpretation
    if got == ref:
        return True, f"{len(ref)} atoms"
    extra = sorted(map(str, set(got.atoms()) - set(ref.atoms())))[:3]
    missing = sorted(map(str, set(ref.atoms()) - set(got.atoms())))[:3]
    return False, f"engine-only {extra} / T_P-only {missing}"


#: Down-sized instance of the serving program's positive rules.
TP_SERVING = """\
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
mem(X) :- sf(S), X in S.
e(v0, v1). e(v1, v2). e(v2, v0). e(v3, v1). e(v4, v4).
sf({v0, v3}). sf({v2}).
"""

#: Down-sized instance of the quantified set rules (Examples 2 and 3).
TP_SETS = """\
subset(X, Y) :- s(X), s(Y), forall A in X (A in Y).
un(X, Y, Z) :- s(X), s(Y), s(Z),
               forall A in X (A in Z), forall B in Y (B in Z),
               forall C in Z (C in X or C in Y).
s({v0}). s({v1}). s({v0, v1}). s({v2}).
"""
