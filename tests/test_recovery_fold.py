"""Recovery evaluates once (DESIGN.md, "Log-before-publish and recovery").

In LPS a program has one minimal model, so the state at a version is
``(program, EDB)``.  ``DurableModel.from_image`` judges each committed WAL
record after the checkpoint (``judge_record``, the rule a follower's
``apply_record`` uses too), folds deltas into the checkpoint's database,
takes program and epoch records as they come, and evaluates the model
once, at the last version.  Two kinds of test:

* **counts**, no clocks: for WAL tails of 1, 10 and 200 records recovery
  runs no maintenance sweep and exactly one ``Evaluator.run``, and
  ``_records_since_checkpoint`` is the number of versions rolled forward;
* **a differential** over random tails — single facts, ``:begin``
  batches, program extensions, epoch bumps, abort pairs and checkpoints,
  on the random programs of ``tests/test_durability.py``: the recovered
  atoms, EDB, program, version and epoch are the live model's, and the
  atoms are from-scratch evaluation's (and ``T_P``'s, where it is
  defined).
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from paths import tp_model
from repro import parse_program
from repro.engine import Database, Evaluator, MaterializedModel
from repro.engine.database import as_fact
from repro.engine.evaluation import EvalOptions
from repro.engine.setops import with_set_builtins
from repro.lang.pretty import pretty_atom
from repro.server import QueryService
from repro.storage import DurableModel
from test_durability import FACT_SPACE, RULE_POOL, TC

OPTS = dict(builtins=with_set_builtins(), fsync="never", checkpoint_every=None)

#: Rules outside T_P's reach: negation, grouping, a builtin.
NOT_POSITIVE = {
    "dead(X) :- n(X), not t(X, X).",
    "succ(X, <Y>) :- e(X, Y).",
    "pair(X, Y) :- mem(X), mem(Y), X != Y.",
}


def state(model):
    return (
        model.version, model.epoch, model.program,
        model.current.interpretation.sorted_atoms(),
        sorted(map(str, model.current.database.facts())),
    )


def count_calls(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tail", [1, 10, 200])
def test_recovery_evaluates_once(tail, tmp_path, monkeypatch):
    m = DurableModel(parse_program(TC), tmp_path, Database(), **OPTS)
    for i in range(tail):
        dels = [("e", f"n{i - 2}", f"n{i - 1}")] if i % 3 == 2 else []
        m.apply_delta(adds=[("e", f"n{i}", f"n{i + 1}")], dels=dels)
    live = state(m)
    m.close()

    sweeps = count_calls(monkeypatch, MaterializedModel, "_maintain")
    runs = count_calls(monkeypatch, Evaluator, "run")
    recovered = DurableModel.recover(tmp_path, **OPTS)
    try:
        assert sweeps == []
        assert len(runs) == 1
        assert recovered._records_since_checkpoint == tail
        assert state(recovered) == live
    finally:
        recovered.close()


def test_replayed_count_is_versions_not_records(tmp_path, monkeypatch):
    """Epoch records publish no version, so they are not counted; a
    program record is, and is not evaluated on its own either."""
    m = DurableModel(parse_program(TC), tmp_path, Database(), **OPTS)
    m.apply_delta(adds=[("e", "a", "b")])
    m.bump_epoch(1)
    m.replace_program(parse_program(TC + "p(X) :- t(a, X).\n"))
    m.bump_epoch(2)
    m.apply_delta(adds=[("e", "b", "c")])
    live = state(m)
    m.close()

    runs = count_calls(monkeypatch, Evaluator, "run")
    recovered = DurableModel.recover(tmp_path, **OPTS)
    try:
        assert len(runs) == 1
        assert recovered._records_since_checkpoint == 3
        assert state(recovered) == live
        assert recovered.current.holds(
            parse_program("p(c).").clauses[0].head
        )
    finally:
        recovered.close()


# ---------------------------------------------------------------------------
# Differential: the fold against the live model, from-scratch and T_P
# ---------------------------------------------------------------------------

facts = st.sampled_from(FACT_SPACE)
ops = st.one_of(
    st.tuples(st.just("fact"), st.booleans(), facts),
    st.tuples(
        st.just("batch"),
        st.lists(st.tuples(st.booleans(), facts), min_size=1, max_size=3),
    ),
    st.tuples(st.just("extend"), st.integers(0, len(RULE_POOL) - 1)),
    st.tuples(st.just("epoch")),
    st.tuples(st.just("abort"), facts),
    st.tuples(st.just("checkpoint")),
)


def text(add, spec) -> str:
    return ("+" if add else "-") + pretty_atom(as_fact(spec)) + "."


def aborted_commit(svc, spec) -> None:
    """A commit whose apply fails after its record is logged: the store
    appends an abort tombstone, and the pair must vanish on recovery."""
    real = MaterializedModel.apply_delta

    def fail(self, *args, **kwargs):
        raise RuntimeError("apply failed")

    MaterializedModel.apply_delta = fail
    try:
        with pytest.raises(RuntimeError):
            svc.apply_delta(adds=[spec])
    finally:
        MaterializedModel.apply_delta = real


def run(svc, session, rules, op) -> None:
    kind = op[0]
    if kind == "fact":
        assert session.execute(text(op[1], op[2])).ok
    elif kind == "batch":
        for line in [":begin", *(text(*w) for w in op[1]), ":commit"]:
            assert session.execute(line).ok
    elif kind == "extend":
        rule = RULE_POOL[op[1]]
        if rule not in rules:
            svc.extend_program(rule)
            rules.add(rule)
    elif kind == "epoch":
        svc.model.bump_epoch(svc.model.epoch + 1)
    elif kind == "abort":
        aborted_commit(svc, op[1])
    else:
        svc.checkpoint()


@settings(max_examples=25, deadline=None)
@given(
    rule_idx=st.sets(
        st.integers(0, len(RULE_POOL) - 1), min_size=1, max_size=4
    ),
    initial=st.sets(facts, max_size=6),
    tail=st.lists(ops, min_size=1, max_size=12),
)
def test_fold_equals_live_and_scratch(rule_idx, initial, tail):
    rules = {RULE_POOL[i] for i in rule_idx}
    source = "\n".join(RULE_POOL[i] for i in sorted(rule_idx))
    root = Path(tempfile.mkdtemp(prefix="lps-fold-"))
    db = Database()
    for spec in sorted(initial, key=str):
        db.add(*spec)
    svc = QueryService(
        source, database=db, builtins=with_set_builtins(), data_dir=root,
        fsync="never", checkpoint_every=None,
    )
    try:
        session = svc.open_session()
        for op in tail:
            run(svc, session, rules, op)
        live = state(svc.model)
    finally:
        svc.shutdown()
    try:
        recovered = DurableModel.recover(root, **OPTS)
        try:
            assert state(recovered) == live
            program = recovered.program
            edb = recovered.current.database
            atoms = recovered.current.interpretation.sorted_atoms()
        finally:
            recovered.close()
        fresh = Evaluator(
            program, edb, builtins=with_set_builtins(),
            options=EvalOptions(),
        ).run()
        assert fresh.interpretation.sorted_atoms() == atoms
        if not NOT_POSITIVE.intersection(rules):
            assert sorted(tp_model(program, edb), key=str) == \
                sorted(atoms, key=str)
    finally:
        shutil.rmtree(root, ignore_errors=True)
