"""Evaluable (computed) predicates for the engine.

The paper's Examples 5 and 6 use arithmetic (``m + n = k``) next to the set
machinery; a practical engine therefore needs *evaluable predicates*:
predicates with an infinite, fixed interpretation that are computed rather
than stored.  They are not part of the LPS logic proper — the theory modules
never see them — but the engine and the parser accept them in rule bodies.

Each builtin declares which binding *modes* it supports; the planner treats
an occurrence as ready once one of its modes is satisfied.  Modes use the
conventional ``b``/``f`` (bound/free) notation.

Provided builtins:

``plus(m, n, k)``   — m + n = k; any two arguments bound computes the third.
``times(m, n, k)``  — m * n = k; mode ``bbf``, plus exact division modes.
``minus(m, n, k)``  — m - n = k (delegates to plus).
``lt/le/gt/ge(m,n)``— numeric comparison, both bound.
``neq(x, y)``       — disequality of ground terms (the paper's ``x ≠ y``).
``card(X, n)``      — n is the cardinality of set X (mode ``bf``/``bb``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence

from ..core.atoms import Atom
from ..core.errors import EvaluationError
from ..core.substitution import Subst
from ..core.terms import Const, SetValue, Term, Var
from ..core.unify import unify


def _int_of(t: Term) -> Optional[int]:
    if isinstance(t, Const) and isinstance(t.value, int):
        return t.value
    return None


class Builtin:
    """An evaluable predicate.

    **Contract: ``solve`` is a function of its arguments.**  Its answers
    (and whether ``ready`` holds) depend on the resolved argument terms
    alone — no state, no clock, nothing read from the interpretation —
    and come in the same order on every call.  The fixpoint semantics
    ``T_P`` needs this (a builtin atom has one fixed interpretation), and
    the plan executor relies on it: within one stratum fixpoint it solves
    each distinct builtin input once and reuses the answer
    (:meth:`repro.engine.executor.Executor._compute`).
    """

    name: str
    arity: int

    def ready(self, args: Sequence[Term]) -> bool:
        """Whether the argument binding pattern is evaluable."""
        raise NotImplementedError

    def solve(self, args: Sequence[Term], env: Subst) -> Iterator[Subst]:
        """Extend ``env`` with solutions.  ``args`` are already resolved."""
        raise NotImplementedError


@dataclass
class ArithPlus(Builtin):
    """``plus(m, n, k)`` ⇔ m + n = k."""

    name: str = "plus"
    arity: int = 3

    def ready(self, args: Sequence[Term]) -> bool:
        ground = [a.is_ground() for a in args]
        return sum(ground) >= 2

    def solve(self, args: Sequence[Term], env: Subst) -> Iterator[Subst]:
        m, n, k = args
        vm, vn, vk = _int_of(m), _int_of(n), _int_of(k)
        if vm is not None and vn is not None:
            yield from unify(k, Const(vm + vn), env)
        elif vm is not None and vk is not None:
            yield from unify(n, Const(vk - vm), env)
        elif vn is not None and vk is not None:
            yield from unify(m, Const(vk - vn), env)
        # Non-integer ground args simply fail (no solutions).


@dataclass
class ArithTimes(Builtin):
    """``times(m, n, k)`` ⇔ m * n = k."""

    name: str = "times"
    arity: int = 3

    def ready(self, args: Sequence[Term]) -> bool:
        ground = [a.is_ground() for a in args]
        return sum(ground) >= 2

    def solve(self, args: Sequence[Term], env: Subst) -> Iterator[Subst]:
        m, n, k = args
        vm, vn, vk = _int_of(m), _int_of(n), _int_of(k)
        if vm is not None and vn is not None:
            yield from unify(k, Const(vm * vn), env)
        elif vm is not None and vk is not None:
            if vm != 0 and vk % vm == 0:
                yield from unify(n, Const(vk // vm), env)
        elif vn is not None and vk is not None:
            if vn != 0 and vk % vn == 0:
                yield from unify(m, Const(vk // vn), env)


@dataclass
class ArithMinus(Builtin):
    """``minus(m, n, k)`` ⇔ m - n = k."""

    name: str = "minus"
    arity: int = 3

    def ready(self, args: Sequence[Term]) -> bool:
        ground = [a.is_ground() for a in args]
        return sum(ground) >= 2

    def solve(self, args: Sequence[Term], env: Subst) -> Iterator[Subst]:
        m, n, k = args
        vm, vn, vk = _int_of(m), _int_of(n), _int_of(k)
        if vm is not None and vn is not None:
            yield from unify(k, Const(vm - vn), env)
        elif vm is not None and vk is not None:
            yield from unify(n, Const(vm - vk), env)
        elif vn is not None and vk is not None:
            yield from unify(m, Const(vk + vn), env)


@dataclass
class Comparison(Builtin):
    """A two-argument numeric comparison; both arguments must be bound."""

    name: str
    op: Callable[[int, int], bool]
    arity: int = 2

    def ready(self, args: Sequence[Term]) -> bool:
        return all(a.is_ground() for a in args)

    def solve(self, args: Sequence[Term], env: Subst) -> Iterator[Subst]:
        vm, vn = _int_of(args[0]), _int_of(args[1])
        if vm is not None and vn is not None and self.op(vm, vn):
            yield env


@dataclass
class NotEqual(Builtin):
    """``neq(x, y)`` — disequality of ground terms of either sort.

    The paper (Example 1) notes ``x ≠ y`` "could be defined as ¬(x = y)";
    providing it as an evaluable check keeps core examples negation-free.
    """

    name: str = "neq"
    arity: int = 2

    def ready(self, args: Sequence[Term]) -> bool:
        return all(a.is_ground() for a in args)

    def solve(self, args: Sequence[Term], env: Subst) -> Iterator[Subst]:
        if args[0] != args[1]:
            yield env


@dataclass
class Cardinality(Builtin):
    """``card(X, n)`` — n = |X| for a bound set X."""

    name: str = "card"
    arity: int = 2

    def ready(self, args: Sequence[Term]) -> bool:
        return args[0].is_ground()

    def solve(self, args: Sequence[Term], env: Subst) -> Iterator[Subst]:
        x, n = args
        if not isinstance(x, SetValue):
            return
        yield from unify(n, Const(len(x)), env)


def default_builtins() -> dict[str, Builtin]:
    """The standard registry used by the engine and the parser."""
    import operator

    registry: dict[str, Builtin] = {}
    for b in (
        ArithPlus(),
        ArithTimes(),
        ArithMinus(),
        Comparison("lt", operator.lt),
        Comparison("le", operator.le),
        Comparison("gt", operator.gt),
        Comparison("ge", operator.ge),
        NotEqual(),
        Cardinality(),
    ):
        registry[b.name] = b
    return registry


#: Shared immutable default registry.
DEFAULT_BUILTINS: Mapping[str, Builtin] = default_builtins()


def is_builtin(pred: str, registry: Mapping[str, Builtin] = DEFAULT_BUILTINS) -> bool:
    return pred in registry


def check_builtin_atom(a: Atom, registry: Mapping[str, Builtin] = DEFAULT_BUILTINS) -> None:
    b = registry.get(a.pred)
    if b is not None and a.arity != b.arity:
        raise EvaluationError(
            f"builtin {a.pred!r} used with arity {a.arity}, expects {b.arity}"
        )
