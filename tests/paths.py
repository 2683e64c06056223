"""Forcing each path of the execution pipeline from outside the engine.

The engine picks a path per rule application from what it can observe
(DESIGN.md, "Execution pipeline"); no option selects one.  The equivalence
tests run their inputs once per *arm* and require every arm to compute the
shipped model (and, where ``T_P`` applies, the brute-force oracle's):

* ``default``    — as shipped: vector kernels on batches of at least
  ``_MIN_VECTOR_ROWS`` rows, row kernels below (most test inputs);
* ``vector``     — the size gate at 0: numpy kernels on every capable node;
* ``no-numpy``   — numpy masked: the row ``Executor`` everywhere;
* ``solver``     — the planner answers tuple-mode for every body, so
  ``_CompiledRule`` falls back to the tuple ``Solver`` everywhere,
  including the pinned delta variants of maintenance and subscriptions.
"""

from contextlib import contextmanager

import repro.engine.columnar as columnar
import repro.engine.evaluation as evaluation
from repro.core import fact
from repro.engine.evaluation import EvalOptions
from repro.engine.planner import _tuple_plan
from repro.semantics import Universe, least_fixpoint

#: The arms every equivalence test runs, from-scratch evaluation and
#: maintained models alike.
PATHS = ("default", "vector", "no-numpy", "solver")


def _tuple_mode(clause, builtins, pin=None):
    return _tuple_plan(clause, "forced by the test")


#: Arm -> ``(owner, attribute, value)`` patches that force it.
_PATCHES = {
    "default": (),
    "vector": ((columnar.ColumnarExecutor, "min_vector_rows", 0),),
    "no-numpy": ((columnar, "_np", None),),
    "solver": ((evaluation, "compile_rule", _tuple_mode),
               (evaluation, "compile_grouping", _tuple_mode)),
}


@contextmanager
def forced(path, **options):
    """Force one arm for the duration of the block; yields the
    ``EvalOptions`` to evaluate with (``options`` pass through)."""
    saved = [(o, name, getattr(o, name)) for o, name, _ in _PATCHES[path]]
    try:
        for owner, name, value in _PATCHES[path]:
            setattr(owner, name, value)
        yield EvalOptions(**options)
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def same_on_every_path(run, paths=PATHS):
    """``run(options)`` under each arm, asserted all equal; returns the
    first arm's (``default``) result."""
    results = []
    for path in paths:
        with forced(path) as options:
            results.append(run(options))
    for path, other in zip(paths[1:], results[1:]):
        assert other == results[0], f"path {path!r} differs from {paths[0]!r}"
    return results[0]


def tp_model(program, db=None):
    """The oracle: ``T_P ↑ ω`` (positive, built-in-free programs only)
    over the active domain the engine starts from — every ground a-term
    and set value occurring in the program or database, plus ``{}``."""
    if db is not None:
        program = program.with_clauses([fact(a) for a in db.facts()])
    domain = evaluation.ActiveDomain()
    for t in program.all_terms():
        domain.note_term(t)
    universe = Universe(
        tuple(sorted(domain.carrier("a"), key=str)),
        tuple(sorted(domain.carrier("s"), key=str)),
    )
    return least_fixpoint(program, universe).interpretation
