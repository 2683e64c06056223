"""Tests for evaluable predicates (arithmetic, neq, card, set operations)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Subst, const, setvalue, var_a, var_s
from repro.core.errors import EvaluationError
from repro.engine.builtins import DEFAULT_BUILTINS, default_builtins
from repro.engine.setops import (
    MAX_DECOMP_WIDTH,
    set_builtins,
    with_set_builtins,
)

x, y, z = var_a("x"), var_a("y"), var_a("z")
X, Y, Z = var_s("X"), var_s("Y"), var_s("Z")


def solve(name, *args, registry=None):
    registry = registry or with_set_builtins()
    b = registry[name]
    if not b.ready(args):
        return None
    return list(b.solve(args, Subst()))


class TestArithmetic:
    def test_plus_forward(self):
        (sigma,) = solve("plus", const(2), const(3), z)
        assert sigma[z] == const(5)

    def test_plus_backward_modes(self):
        (sigma,) = solve("plus", x, const(3), const(5))
        assert sigma[x] == const(2)
        (sigma,) = solve("plus", const(2), y, const(5))
        assert sigma[y] == const(3)

    def test_plus_check_mode(self):
        assert solve("plus", const(2), const(3), const(5)) != []
        assert solve("plus", const(2), const(3), const(6)) == []

    def test_plus_not_ready(self):
        assert solve("plus", x, y, const(5)) is None

    def test_plus_non_integer_fails(self):
        assert solve("plus", const("a"), const(3), z) == []

    def test_minus(self):
        (sigma,) = solve("minus", const(5), const(3), z)
        assert sigma[z] == const(2)
        (sigma,) = solve("minus", x, const(3), const(2))
        assert sigma[x] == const(5)

    def test_times(self):
        (sigma,) = solve("times", const(4), const(3), z)
        assert sigma[z] == const(12)

    def test_times_exact_division_only(self):
        (sigma,) = solve("times", const(4), y, const(12))
        assert sigma[y] == const(3)
        assert solve("times", const(5), y, const(12)) == []

    def test_comparisons(self):
        assert solve("lt", const(1), const(2))
        assert not solve("lt", const(2), const(2))
        assert solve("le", const(2), const(2))
        assert solve("gt", const(3), const(2))
        assert solve("ge", const(2), const(2))


class TestNeqAndCard:
    def test_neq_atoms(self):
        assert solve("neq", const("a"), const("b"))
        assert solve("neq", const("a"), const("a")) == []

    def test_neq_sets(self):
        assert solve("neq", setvalue([const(1)]), setvalue([const(2)]))
        assert solve("neq", setvalue([const(1)]), setvalue([const(1)])) == []

    def test_card(self):
        (sigma,) = solve("card", setvalue([const(1), const(2)]), z)
        assert sigma[z] == const(2)

    def test_card_check(self):
        assert solve("card", setvalue([]), const(0))
        assert solve("card", setvalue([]), const(1)) == []


class TestUnionBuiltin:
    def test_forward(self):
        s1, s2 = setvalue([const(1)]), setvalue([const(2)])
        (sigma,) = solve("union", s1, s2, Z)
        assert sigma[Z] == setvalue([const(1), const(2)])

    def test_decomposition_count(self):
        """union(X, Y, Z) with Z bound: 3^|Z| covering pairs."""
        target = setvalue([const(1), const(2)])
        sigmas = solve("union", X, Y, target)
        assert len(sigmas) == 9
        for s in sigmas:
            got = setvalue(list(s[X]) + list(s[Y]))
            assert got == target

    def test_xz_mode(self):
        sx = setvalue([const(1)])
        sz = setvalue([const(1), const(2)])
        sigmas = solve("union", sx, Y, sz)
        ys = {s[Y] for s in sigmas}
        assert setvalue([const(2)]) in ys
        assert setvalue([const(1), const(2)]) in ys
        for s in sigmas:
            assert setvalue(list(sx) + list(s[Y])) == sz

    def test_xz_mode_requires_subset(self):
        assert solve("union", setvalue([const(9)]), Y,
                     setvalue([const(1)])) == []


class TestSconsBuiltin:
    def test_forward(self):
        (sigma,) = solve("scons", const(1), setvalue([const(2)]), Z)
        assert sigma[Z] == setvalue([const(1), const(2)])

    def test_forward_idempotent(self):
        (sigma,) = solve("scons", const(1), setvalue([const(1)]), Z)
        assert sigma[Z] == setvalue([const(1)])

    def test_decompose(self):
        target = setvalue([const(1), const(2)])
        sigmas = solve("scons", x, Y, target)
        for s in sigmas:
            assert setvalue(list(s[Y]) + [s[x]]) == target
        xs = {s[x] for s in sigmas}
        assert xs == {const(1), const(2)}

    def test_decompose_bound_elem(self):
        target = setvalue([const(1), const(2)])
        sigmas = solve("scons", const(1), Y, target)
        ys = {s[Y] for s in sigmas}
        assert setvalue([const(2)]) in ys and target in ys

    def test_elem_not_in_target(self):
        assert solve("scons", const(9), Y, setvalue([const(1)])) == []


class TestChooseMin:
    def test_deterministic(self):
        target = setvalue([const(3), const(1), const(2)])
        (sigma,) = solve("choose_min", x, Y, target)
        assert sigma[x] == const(1)
        assert sigma[Y] == setvalue([const(2), const(3)])

    def test_empty_fails(self):
        assert solve("choose_min", x, Y, setvalue([])) == []


class TestSetOps:
    def test_setdiff(self):
        (sigma,) = solve(
            "setdiff", setvalue([const(1), const(2)]), setvalue([const(2)]), Z
        )
        assert sigma[Z] == setvalue([const(1)])

    def test_intersect(self):
        (sigma,) = solve(
            "intersect", setvalue([const(1), const(2)]),
            setvalue([const(2), const(3)]), Z,
        )
        assert sigma[Z] == setvalue([const(2)])

    def test_subset_enum(self):
        sigmas = solve("subset_enum", X, setvalue([const(1), const(2)]))
        assert len(sigmas) == 4

    def test_decomp_width_guard(self):
        big = setvalue([const(i) for i in range(MAX_DECOMP_WIDTH + 1)])
        with pytest.raises(EvaluationError):
            solve("union", X, Y, big)


class TestRegistries:
    def test_default_registry_contents(self):
        names = set(default_builtins())
        assert {"plus", "minus", "times", "lt", "le", "gt", "ge",
                "neq", "card"} <= names
        assert "union" not in names

    def test_set_registry_contents(self):
        assert {"union", "scons", "choose_min", "setdiff", "intersect",
                "subset_enum"} == set(set_builtins())

    def test_with_set_builtins_is_superset(self):
        assert set(DEFAULT_BUILTINS) < set(with_set_builtins())


# -- the contract the per-fixpoint builtin memo relies on -------------------------

_VALUES = [const(i) for i in range(-1, 4)] + [const("a"), const("b")]
_SETS = st.lists(st.sampled_from(_VALUES), max_size=3).map(setvalue)
#: Half sets: ``setdiff`` / ``intersect`` are ready on two of them only,
#: and still most draws for them are not ready (hence the health check).
_ARG = st.one_of(
    _SETS, _SETS, st.sampled_from(_VALUES), st.sampled_from([x, y, X, Y, Z])
)


@pytest.mark.parametrize("name", sorted(with_set_builtins()))
@settings(
    max_examples=30, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(data=st.data())
def test_solve_is_a_function_of_its_arguments(name, data):
    """``Builtin.solve`` answers from its arguments alone: the same list
    of substitutions on every call, whatever was solved in between —
    what lets a stratum fixpoint solve each builtin input once."""
    b = with_set_builtins()[name]
    ready_args = st.tuples(*[_ARG] * b.arity).filter(b.ready)
    args, other = data.draw(ready_args), data.draw(ready_args)
    first = list(b.solve(args, Subst()))
    assert list(b.solve(args, Subst())) == first
    list(b.solve(other, Subst()))
    assert list(b.solve(args, Subst())) == first
    assert list(with_set_builtins()[name].solve(args, Subst())) == first
