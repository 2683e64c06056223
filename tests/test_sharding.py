"""Sharded parallel evaluation (`repro.parallel`).

The contract under test: ``EvalOptions(shards=N)`` changes *nothing* but
wall-clock — for every program the engine accepts, batch evaluation
produces an interpretation **bit-identical** to the single-process path
at every shard count, whether a stratum actually runs sharded (linear
recursion) or falls back to the coordinator (negation, grouping,
nonlinear recursion, domain-sensitive rules).  Maintained and served
models take no options and never shard.

The rule pool deliberately mixes both kinds so random programs exercise
the fallback matrix, and the path axis forces each path of the execution
pipeline (``tests/paths.py``; workers are forked inside the forced block,
so they run the same path) like ``test_maintenance.py`` does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from paths import PATHS, forced
from repro import parse_program
from repro.engine import Database, Evaluator
from repro.engine.builtins import DEFAULT_BUILTINS
from repro.engine.evaluation import EvalOptions
from repro.engine.setops import with_set_builtins
from repro.parallel import (
    builtin_profile,
    choose_partition,
    shard_of,
    shardable_group,
)
from repro.parallel.partition import stable_hash

#: Shardable linear recursion, unshardable nonlinear recursion, negation
#: strata, and builtins — any subset stratifies over ``e/2`` and ``n/1``.
RULE_POOL = [
    "t(X, Y) :- e(X, Y).",
    "t(X, Z) :- e(X, Y), t(Y, Z).",
    "d(X, Y) :- e(X, Y).",
    "d(X, Z) :- d(X, Y), d(Y, Z).",
    "p(X) :- e(X, X).",
    "q(X) :- t(X, Y), n(Y).",
    "v(X, Y) :- e(X, Y), X != Y.",
    "s(X) :- n(X), not t(X, X).",
    "w(X) :- n(X), not s(X).",
]

_CONSTS = ["a", "b", "c", "d", "f"]
FACT_SPACE = (
    [("e", u, v) for u in _CONSTS for v in _CONSTS]
    + [("n", u) for u in _CONSTS]
)


def _database(facts):
    db = Database()
    for spec in facts:
        db.add(spec[0], *spec[1:])
    return db


def _run(program, facts, shards=1, path="default"):
    with forced(path, shards=shards) as options:
        ev = Evaluator(
            program, _database(facts), builtins=with_set_builtins(),
            options=options,
        )
        try:
            return ev.run().interpretation.sorted_atoms()
        finally:
            ev.close()


# ---------------------------------------------------------------------------
# The property: shards=N ≡ single-process
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(
    rule_idx=st.sets(
        st.integers(0, len(RULE_POOL) - 1), min_size=1, max_size=5
    ),
    facts=st.sets(st.sampled_from(FACT_SPACE), max_size=10),
    path=st.sampled_from(PATHS),
)
def test_evaluation_is_shard_count_invariant(rule_idx, facts, path):
    program = parse_program(
        "\n".join(RULE_POOL[i] for i in sorted(rule_idx))
    )
    baseline = _run(program, sorted(facts), shards=1)
    for n in (2, 4):
        assert _run(program, sorted(facts), shards=n, path=path) == baseline


# ---------------------------------------------------------------------------
# Partitioning and the fallback matrix
# ---------------------------------------------------------------------------

class TestPartition:
    def test_stable_hash_is_process_independent(self):
        # CRC-32 of the text: a fixed value, not PYTHONHASHSEED-relative.
        assert stable_hash("n(a)") == 4072114942
        assert stable_hash("") == 0

    def test_shard_of_routes_by_partition_position(self):
        from repro.core import atom, const

        a = atom("e", const("x"), const("y"))
        owners = {
            shard_of(a, {"e": pos}, 4) for pos in (0, 1)
        }
        assert all(0 <= o < 4 for o in owners)
        # Propositional atoms route by predicate name.
        p = atom("done")
        assert 0 <= shard_of(p, {}, 4) < 4
        assert shard_of(p, {}, 4) == shard_of(p, {"done": 3}, 4)

    def test_choose_partition_picks_most_selective_position(self):
        from repro.core import atom, const
        from repro.semantics.interpretation import Interpretation

        interp = Interpretation()
        # Position 0 is constant, position 1 has 5 distinct values.
        for i in range(5):
            interp.add(atom("e", const("hub"), const(f"v{i}")))
        assert choose_partition(interp, {"e"}) == {"e": 1}

    def test_builtin_profiles(self):
        assert builtin_profile(DEFAULT_BUILTINS) == "default"
        assert builtin_profile(with_set_builtins()) == "setops"
        assert builtin_profile({**DEFAULT_BUILTINS, "magic": None}) is None


class TestFallbackMatrix:
    def _groups(self, text):
        ev = Evaluator(parse_program(text), builtins=with_set_builtins())
        return [
            (g, shardable_group(g, ev.builtins))
            for g in ev.stratification.groups
        ]

    def test_linear_recursion_is_shardable(self):
        groups = self._groups("""
        t(X, Y) :- e(X, Y).
        t(X, Z) :- e(X, Y), t(Y, Z).
        """)
        assert any(ok for _, ok in groups)

    def test_nonlinear_recursion_is_not_shardable(self):
        groups = self._groups("""
        d(X, Y) :- e(X, Y).
        d(X, Z) :- d(X, Y), d(Y, Z).
        """)
        assert not any(ok for _, ok in groups)

    def test_negation_stratum_is_not_shardable(self):
        groups = self._groups("""
        t(X, Y) :- e(X, Y).
        t(X, Z) :- e(X, Y), t(Y, Z).
        s(X) :- n(X), not t(X, X).
        """)
        flags = {
            frozenset(g.head_preds): ok for g, ok in groups
        }
        assert flags[frozenset({"t"})]
        assert not flags[frozenset({"s"})]

    def test_nonrecursive_stratum_is_not_shardable(self):
        groups = self._groups("p(X) :- e(X, X).")
        assert not any(ok for _, ok in groups)

    def test_unshardable_program_still_correct_with_shards(self):
        # Every stratum falls back; shards=4 must be a silent no-op.
        program = parse_program("""
        d(X, Y) :- e(X, Y).
        d(X, Z) :- d(X, Y), d(Y, Z).
        s(X) :- n(X), not d(X, X).
        """)
        facts = [("e", "a", "b"), ("e", "b", "a"), ("n", "a"), ("n", "c")]
        assert (_run(program, facts, shards=4)
                == _run(program, facts, shards=1))


# ---------------------------------------------------------------------------
# Worker-pool lifecycle
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_close_terminates_workers(self):
        program = parse_program("""
        t(X, Y) :- e(X, Y).
        t(X, Z) :- e(X, Y), t(Y, Z).
        """)
        ev = Evaluator(program, _database([("e", "a", "b")]),
                       options=EvalOptions(shards=2))
        ev.run()
        coord = ev._coordinator
        assert coord is not None and not coord.broken
        procs = list(coord._procs)
        assert all(p.is_alive() for p in procs)
        ev.close()
        assert all(not p.is_alive() for p in procs)
        assert ev._coordinator is None

    def test_shards_one_never_spawns(self):
        program = parse_program("t(X, Y) :- e(X, Y).")
        ev = Evaluator(program, _database([("e", "a", "b")]))
        ev.run()
        assert ev._coordinator is None
        assert ev._sharding_unavailable

    def test_a_sharded_model_explains(self):
        program = parse_program("""
        t(X, Y) :- e(X, Y).
        t(X, Z) :- e(X, Y), t(Y, Z).
        """)
        ev = Evaluator(
            program, _database([("e", "a", "b"), ("e", "b", "c")]),
            options=EvalOptions(shards=2),
        )
        model = ev.run()
        coord = ev._coordinator
        assert coord is not None and not coord.broken
        # The model searches itself; it needs no evaluator, live or closed.
        ev.close()
        assert model.explain_str("t(a, c)") == (
            "t(a, c)    [t(X, Z) :- e(X, Y), t(Y, Z).]\n"
            "  e(a, b) (given)\n"
            "  t(b, c)    [t(X, Y) :- e(X, Y).]\n"
            "    e(b, c) (given)"
        )
