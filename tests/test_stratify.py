"""Tests for stratification (Section 4.2 / [ABW86], grouping per Section 6)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    GroupingClause,
    Program,
    StratificationError,
    atom,
    fact,
    horn,
    neg,
    pos,
    var_a,
)
from repro.engine.stratify import is_stratified, stratify

x, y = var_a("x"), var_a("y")
a = __import__("repro.core", fromlist=["const"]).const("a")


class TestPositivePrograms:
    def test_single_stratum(self):
        p = Program.of(
            fact(atom("e", a, a)),
            horn(atom("t", x, y), atom("e", x, y)),
            horn(atom("t", x, y), atom("t", x, x), atom("t", x, y)),
        )
        s = stratify(p)
        # ``e``'s fact clause is a component of its own, before ``t``'s.
        assert [g.head_preds for g in s.groups] == [{"e"}, {"t"}]
        assert len(s.groups[1].clauses) == 2

    def test_positive_recursion_allowed(self):
        p = Program.of(horn(atom("p", x), atom("p", x)))
        assert is_stratified(p)


class TestNegation:
    def test_negation_forces_higher_stratum(self):
        p = Program.of(
            fact(atom("q", a)),
            horn(atom("p", x), pos(atom("q", x)), neg(atom("r", x))),
            horn(atom("r", x), atom("q", x)),
        )
        s = stratify(p)
        assert s.stratum_of["r"] < s.stratum_of["p"]
        assert s.stratum_of["q"] <= s.stratum_of["r"]

    def test_negative_cycle_rejected(self):
        p = Program.of(
            horn(atom("p", x), neg(atom("q", x))),
            horn(atom("q", x), neg(atom("p", x))),
        )
        with pytest.raises(StratificationError):
            stratify(p)
        assert not is_stratified(p)

    def test_negative_self_loop_rejected(self):
        p = Program.of(horn(atom("p", x), neg(atom("p", x))))
        with pytest.raises(StratificationError):
            stratify(p)

    def test_clauses_bucketed_by_stratum(self):
        p = Program.of(
            fact(atom("q", a)),
            horn(atom("r", x), atom("q", x)),
            horn(atom("p", x), pos(atom("q", x)), neg(atom("r", x))),
        )
        s = stratify(p)
        heads_by_stratum = [
            {c.head.pred for c in g.clauses} for g in s.groups
        ]
        assert heads_by_stratum == [{"q"}, {"r"}, {"p"}]


class TestGrouping:
    def grouping(self, pred, body_pred):
        return GroupingClause(
            pred=pred,
            head_args=(x,),
            group_pos=1,
            group_var=y,
            body=(pos(atom(body_pred, x, y)),),
        )

    def test_grouping_acts_like_negation(self):
        p = Program.of(
            fact(atom("c", a, a)),
            self.grouping("g", "c"),
        )
        s = stratify(p)
        assert s.stratum_of["c"] < s.stratum_of["g"]

    def test_grouping_cycle_rejected(self):
        p = Program.of(
            self.grouping("g", "h"),
            horn(atom("h", x, y), atom("g", x, y)),
        )
        with pytest.raises(StratificationError):
            stratify(p)


class TestIgnoreAndExtras:
    def test_ignored_predicates_form_no_nodes(self):
        p = Program.of(
            horn(atom("p", x), pos(atom("neq", x, x))),
        )
        s = stratify(p, ignore={"neq"})
        assert "neq" not in s.stratum_of

    def test_deep_chain(self):
        clauses = [fact(atom("p0", a))]
        for i in range(6):
            clauses.append(
                horn(atom(f"p{i+1}", x), neg(atom(f"p{i}", x)))
            )
        s = stratify(Program.of(*clauses))
        assert s.depth == 7
        for i in range(6):
            assert s.stratum_of[f"p{i}"] < s.stratum_of[f"p{i+1}"]


# -- property: groups are the defining SCCs, in topological order ----------------

_PREDS = [f"p{i}" for i in range(5)]


@st.composite
def stratifiable_programs(draw):
    """A random program that is stratifiable by construction: every
    predicate gets a level, a positive body atom reads its level or
    below, a negated one (or a grouping body) strictly below, so every
    cycle stays inside one level and has no negative edge."""
    level = {p: draw(st.integers(0, 2)) for p in _PREDS}
    clauses = []
    for _ in range(draw(st.integers(1, 10))):
        head = draw(st.sampled_from(_PREDS))
        below = [q for q in _PREDS if level[q] < level[head]]
        if below and draw(st.booleans()) and draw(st.booleans()):
            bodies = draw(st.lists(st.sampled_from(below), min_size=1,
                                   max_size=2))
            clauses.append(GroupingClause(
                pred=head, head_args=(), group_pos=0, group_var=x,
                body=tuple(pos(atom(q, x)) for q in bodies),
            ))
            continue
        # Half the body atoms come from the head's own level, where
        # the cycles are.
        level_mates = [q for q in _PREDS if level[q] == level[head]]
        body = []
        for q, positive in draw(st.lists(
            st.tuples(
                st.sampled_from(level_mates) | st.sampled_from(_PREDS),
                st.booleans(),
            ),
            min_size=1, max_size=3,
        )):
            if level[q] < level[head] or positive and level[q] == level[head]:
                body.append(pos(atom(q, x)) if positive else neg(atom(q, x)))
        if not any(lit.positive for lit in body):
            body.insert(0, pos(atom(draw(st.sampled_from(_PREDS)) + "e", x)))
        clauses.append(horn(atom(head, x), *body))
    return Program.of(*clauses)


def _reach(edges, nodes):
    """Transitive closure of the edge relation (Floyd–Warshall)."""
    r = {(u, v) for u, v in edges}
    for k, i, j in itertools.product(nodes, repeat=3):
        if (i, k) in r and (k, j) in r:
            r.add((i, j))
    return r


@settings(max_examples=150, deadline=None)
@given(program=stratifiable_programs())
def test_groups_are_the_defining_components_in_topological_order(program):
    s = stratify(program)
    edges = {(h, b, positive) for h, b, positive in program.dependency_edges()}
    plain = {(h, b) for h, b, _ in edges}
    nodes = sorted({p for e in plain for p in e} | set(program.predicates()))
    reach = _reach(plain, nodes)
    heads = {program.head_pred(c) for c in program.clauses}

    def component(p):
        return frozenset(
            q for q in nodes if q == p or (p, q) in reach and (q, p) in reach
        )

    # Each group is exactly one SCC that defines a predicate, holding
    # exactly the clauses whose head is in it.
    assert [g.index for g in s.groups] == list(range(len(s.groups)))
    assert sorted(map(sorted, (g.head_preds for g in s.groups))) == \
        sorted(map(sorted, {component(p) for p in heads}))
    assert set(s.stratum_of) == heads
    for g in s.groups:
        assert g.clauses == tuple(
            c for c in program.clauses if program.head_pred(c) in g.head_preds
        )
        # ``recursive`` holds exactly when the component has a cycle.
        cyclic = len(g.head_preds) > 1 or any(
            (p, p) in plain for p in g.head_preds
        )
        assert g.recursive == cyclic
    # An edge leaving a group points to an earlier one; a negated edge
    # (grouping included) always points to an earlier group.
    for h, b, positive in edges:
        if b not in heads:
            continue
        if not positive or b not in s.groups[s.stratum_of[h]].head_preds:
            assert s.stratum_of[b] < s.stratum_of[h]
