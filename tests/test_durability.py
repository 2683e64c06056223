"""Fault-injection harness for the durable storage subsystem.

The contract (DESIGN.md, "Durability"): **acknowledged ⇒ recoverable** —
for a crash at *any byte boundary* of the recorded run,
``DurableModel.recover(data_dir)`` reproduces exactly the model at the
last acknowledged version, bit-identical to from-scratch evaluation of
the surviving facts.  The harness records a run (capturing the reference
model after every acknowledged batch), then simulates the crash by
truncating the on-disk state at every byte boundary of the WAL and of a
checkpoint, recovering each prefix into a scratch directory, and
comparing against the reference (by default at every record boundary and
a fixed sample of offsets inside records; ``LPS_EXHAUSTIVE_SWEEPS=1`` cuts
at every byte).  Corruption (bit flips) must either be
quarantined at the torn tail or refuse recovery — never produce a model
that matches no acknowledged state.
"""

import os
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import parse_program
from repro.engine import Database, Evaluator
from repro.engine.setops import with_set_builtins
from repro.server import QueryService
from repro.storage import (
    DurableModel,
    RecoveryError,
    StorageError,
    WriteAheadLog,
    has_state,
)
from repro.storage.checkpoint import TMP_SUFFIX, list_checkpoints
from repro.storage.codec import encode_record
from repro.workloads import crash_recovery, mixed_traffic, random_graph

TC = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""


def render(snap):
    """The comparable identity of a snapshot: model atoms + EDB facts."""
    return (
        tuple(sorted(str(a) for a in snap.interpretation)),
        tuple(sorted(str(a) for a in snap.database.facts())),
    )


def durable(source, data_dir, facts=(), **kw):
    db = Database()
    for spec in facts:
        db.add(*spec)
    kw.setdefault("fsync", "never")
    kw.setdefault("checkpoint_every", None)
    return DurableModel(
        parse_program(source), data_dir, db,
        builtins=with_set_builtins(), **kw
    )


def recover(data_dir):
    return DurableModel.recover(
        data_dir, builtins=with_set_builtins(), fsync="never",
        checkpoint_every=None,
    )


def record_run(source, data_dir, facts, batches, checkpoint_at=None):
    """Run the batches durably; return the per-version reference states.

    ``reference[v]`` is the rendered model at acknowledged version ``v``;
    every non-noop batch appends exactly one WAL record, so the model
    after the ``k``-th complete WAL record is ``reference[base + k]``.
    """
    m = durable(source, data_dir, facts=facts)
    reference = {m.version: render(m.current)}
    for i, batch in enumerate(batches):
        snap = m.apply_delta(adds=batch.adds, dels=batch.dels)
        reference[snap.version] = render(m.current)
        if checkpoint_at is not None and i == checkpoint_at:
            m.checkpoint()
    m.close()
    return reference


def single_wal_segment(data_dir):
    segs = WriteAheadLog(data_dir).segments()
    assert len(segs) == 1, "harness assumes an unrotated WAL"
    return segs[0]


def crash_copy(run_dir, work_dir):
    if work_dir.exists():
        shutil.rmtree(work_dir)
    shutil.copytree(run_dir, work_dir)
    return work_dir


def assert_recovers_exactly(work_dir, expected_version, reference,
                            scratch_eval=False):
    m = recover(work_dir)
    try:
        assert m.version == expected_version, (
            f"recovered at version {m.version}, expected {expected_version}"
        )
        assert render(m.current) == reference[expected_version]
        if scratch_eval:
            fresh = Evaluator(
                m.program, m._materialized.database,
                builtins=with_set_builtins(),
            ).run()
            assert m.current.interpretation == fresh.interpretation
    finally:
        m.close()


# ---------------------------------------------------------------------------
# The headline property: crash at EVERY byte boundary of the WAL
# ---------------------------------------------------------------------------

#: Set ``LPS_EXHAUSTIVE_SWEEPS=1`` to truncate at every byte in the two
#: sweeps below (the CI ``durability`` job does).
EXHAUSTIVE = bool(os.environ.get("LPS_EXHAUSTIVE_SWEEPS"))

#: Interior offsets a sampled sweep adds to the record boundaries.
SAMPLED_OFFSETS = 40


def crash_points(raw, seed, stop=None):
    """The prefix lengths a sweep truncates ``raw`` to, all below ``stop``
    (default ``len(raw) + 1``, the intact file included): every one under
    :data:`EXHAUSTIVE`; otherwise 0, the intact length, both sides of
    every record's newline, and :data:`SAMPLED_OFFSETS` interior offsets
    drawn with ``seed``."""
    stop = len(raw) + 1 if stop is None else stop
    if EXHAUSTIVE:
        return range(stop)
    cuts = {0, len(raw)}
    for i, byte in enumerate(raw):
        if byte == ord("\n"):
            cuts.update((i, i + 1))
    cuts.update(random.Random(seed).sample(
        range(stop), min(SAMPLED_OFFSETS, stop)
    ))
    return sorted(c for c in cuts if c < stop)


class TestCrashAtEveryWalByte:
    def test_mixed_feature_program_every_byte(self, tmp_path):
        """Sets, negation and grouping under churn: for every prefix of
        the WAL byte stream, recovery lands exactly on the model at the
        last acknowledged version."""
        plan = crash_recovery(
            n_nodes=8, n_edges=12, n_batches=8, batch_size=1,
            n_sets=2, seed=1,
        )
        run_dir = tmp_path / "run"
        reference = record_run(
            plan.program, run_dir, plan.initial_facts, plan.batches
        )
        seg = single_wal_segment(run_dir)
        raw = seg.read_bytes()
        base = min(reference)
        assert len(reference) == raw.count(b"\n") + 1
        work = tmp_path / "crash"
        for cut in crash_points(raw, seed=1):
            crash_copy(run_dir, work)
            (work / seg.name).write_bytes(raw[:cut])
            k = raw[:cut].count(b"\n")
            # From-scratch equivalence is re-checked at record boundaries
            # (between them the recovered state cannot change).
            boundary = cut == 0 or raw[cut - 1:cut] == b"\n"
            assert_recovers_exactly(
                work, base + k, reference, scratch_eval=boundary
            )

    def test_every_byte_of_a_checkpoint(self, tmp_path):
        """A torn checkpoint (non-atomic rename, bit rot) is quarantined
        and recovery falls back to the previous checkpoint + full WAL —
        landing on the *final* acknowledged state for every byte prefix."""
        # Kept small: every byte prefix forces a fallback that replays the
        # whole WAL, so the matrix is |checkpoint| × full recoveries.
        plan = crash_recovery(
            n_nodes=6, n_edges=9, n_batches=6, batch_size=1,
            n_sets=1, seed=2,
        )
        run_dir = tmp_path / "run"
        reference = record_run(
            plan.program, run_dir, plan.initial_facts, plan.batches,
            checkpoint_at=2,
        )
        final_version = max(reference)
        ckpts = list_checkpoints(run_dir)
        assert len(ckpts) == 2, "mid-run checkpoint plus the initial one"
        latest = ckpts[-1]
        raw = latest.read_bytes()
        work = tmp_path / "crash"
        # len(raw) itself is the intact file.
        for cut in crash_points(raw, seed=2, stop=len(raw)):
            crash_copy(run_dir, work)
            (work / latest.name).write_bytes(raw[:cut])
            assert_recovers_exactly(work, final_version, reference)
            # Every strict prefix except "all but the trailing newline"
            # (still a complete record sequence) must be quarantined.
            if cut < len(raw) - 1:
                assert any(
                    p.name.endswith(".corrupt") for p in work.iterdir()
                ), "torn checkpoint must be quarantined, not deleted"

    def test_crash_before_checkpoint_rename(self, tmp_path):
        """A crash mid-checkpoint leaves only a temp file: recovery
        ignores and removes it, and loses nothing."""
        plan = crash_recovery(n_nodes=6, n_edges=8, n_batches=4, seed=3)
        run_dir = tmp_path / "run"
        reference = record_run(
            plan.program, run_dir, plan.initial_facts, plan.batches
        )
        final_version = max(reference)
        ckpt = list_checkpoints(run_dir)[0]
        stray = run_dir / (f"ckpt-{final_version:016d}.json" + TMP_SUFFIX)
        stray.write_bytes(ckpt.read_bytes()[:37])
        assert_recovers_exactly(run_dir, final_version, reference)
        assert not stray.exists()


# ---------------------------------------------------------------------------
# Corruption: detected and contained, never a silently wrong model
# ---------------------------------------------------------------------------

class TestCorruptionNeverLies:
    def test_bitflip_anywhere_in_wal_is_detected_or_exact(self, tmp_path):
        """Flip one bit at every (sampled) byte of the WAL: recovery must
        either refuse (RecoveryError) or — when the flip hits the final
        record, which is indistinguishable from a torn write — quarantine
        it and land exactly on the previous acknowledged state."""
        plan = crash_recovery(
            n_nodes=8, n_edges=12, n_batches=6, batch_size=1, seed=4,
        )
        run_dir = tmp_path / "run"
        reference = record_run(
            plan.program, run_dir, plan.initial_facts, plan.batches
        )
        seg = single_wal_segment(run_dir)
        raw = seg.read_bytes()
        work = tmp_path / "crash"
        refused = accepted = 0
        for pos in range(0, len(raw), 3):
            crash_copy(run_dir, work)
            flipped = bytearray(raw)
            flipped[pos] ^= 0x04
            (work / seg.name).write_bytes(bytes(flipped))
            try:
                m = recover(work)
            except RecoveryError:
                refused += 1
                continue
            try:
                accepted += 1
                assert m.version in reference, (
                    f"bit flip at byte {pos} recovered to unknown "
                    f"version {m.version}"
                )
                assert render(m.current) == reference[m.version], (
                    f"bit flip at byte {pos} produced a wrong model at "
                    f"version {m.version}"
                )
            finally:
                m.close()
        # Both behaviors must actually occur across the scan.
        assert refused and accepted

    def test_all_checkpoints_corrupt_refuses(self, tmp_path):
        run_dir = tmp_path / "run"
        m = durable(TC, run_dir, facts=[("e", "a", "b")])
        m.close()
        for ckpt in list_checkpoints(run_dir):
            data = bytearray(ckpt.read_bytes())
            data[10] ^= 0xFF
            ckpt.write_bytes(bytes(data))
        with pytest.raises(RecoveryError, match="no loadable checkpoint"):
            recover(run_dir)

    def test_wal_version_gap_refuses(self, tmp_path):
        run_dir = tmp_path / "run"
        m = durable(TC, run_dir, facts=[("e", "a", "b")])
        m.apply_delta(adds=[("e", "b", "c")])
        m.close()
        with open(single_wal_segment(run_dir), "a") as f:
            f.write(encode_record("delta", {
                "version": 9, "adds": ["e(x, y)"], "dels": [],
            }) + "\n")
        with pytest.raises(RecoveryError, match="WAL gap"):
            recover(run_dir)

    def test_unknown_record_kind_refuses(self, tmp_path):
        run_dir = tmp_path / "run"
        m = durable(TC, run_dir, facts=[("e", "a", "b")])
        m.close()
        with open(single_wal_segment(run_dir) if WriteAheadLog(
            run_dir
        ).segments() else run_dir / "wal-0000000000000002.log", "a") as f:
            f.write(encode_record("mystery", {"version": 2}) + "\n")
        with pytest.raises(RecoveryError, match="unknown WAL record kind"):
            recover(run_dir)

    def test_abort_tombstones_are_skipped(self, tmp_path):
        """A logged-but-never-applied batch (apply failed before publish)
        is tombstoned; replay skips the pair and continues with the next
        genuine record for the same version."""
        run_dir = tmp_path / "run"
        m = durable(TC, run_dir, facts=[("e", "a", "b")])
        m.apply_delta(adds=[("e", "b", "c")])      # version 2
        m.close()
        wal = WriteAheadLog(run_dir, fsync="never")
        from repro.core import atom, const

        dead = atom("e", const("c"), const("dead"))
        live = atom("e", const("c"), const("d"))
        wal.append_delta(3, [dead], [])
        wal.append_abort(3)
        wal.append_delta(3, [live], [])
        wal.close()
        r = recover(run_dir)
        try:
            assert r.version == 3
            assert r.current.holds(live)
            assert not r.current.holds(dead)
        finally:
            r.close()


# ---------------------------------------------------------------------------
# Hypothesis: the crash property over random Kuper87 programs
# ---------------------------------------------------------------------------

#: Stratified for any subset; covers DRed (strata that read their own
#: heads) and rederive (every other stratum: negation, grouping, sets,
#: and plain joins such as ``mem`` or ``t``'s base rule alone).
RULE_POOL = [
    "t(X, Y) :- e(X, Y).",
    "t(X, Z) :- e(X, Y), t(Y, Z).",
    "dead(X) :- n(X), not t(X, X).",
    "succ(X, <Y>) :- e(X, Y).",
    "mem(X) :- sf(S), X in S.",
    "pair(X, Y) :- mem(X), mem(Y), X != Y.",
]

_NODES = ["a", "b", "c"]
FACT_SPACE = (
    [("e", u, v) for u in _NODES for v in _NODES]
    + [("n", u) for u in _NODES]
    + [("sf", frozenset(s)) for s in [("a",), ("a", "b"), ("b", "c")]]
)


@settings(max_examples=12, deadline=None)
@given(
    rule_idx=st.sets(
        st.integers(0, len(RULE_POOL) - 1), min_size=1, max_size=4
    ),
    initial=st.sets(st.sampled_from(FACT_SPACE), max_size=6),
    batches=st.lists(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(FACT_SPACE)),
            min_size=1, max_size=3,
        ),
        min_size=1, max_size=3,
    ),
)
def test_random_program_crash_property(rule_idx, initial, batches):
    """For random programs and churn batches: recovery at every record
    boundary and at probe offsets inside every record reproduces the model
    at the last acknowledged version, equal to from-scratch evaluation."""
    source = "\n".join(RULE_POOL[i] for i in sorted(rule_idx))
    root = Path(tempfile.mkdtemp(prefix="lps-durability-"))
    try:
        run_dir = root / "run"
        m = durable(source, run_dir, facts=sorted(initial, key=str))
        reference = {m.version: render(m.current)}
        for batch in batches:
            adds = [spec for add, spec in batch if add]
            dels = [spec for add, spec in batch if not add]
            snap = m.apply_delta(adds=adds, dels=dels)
            reference[snap.version] = render(m.current)
        m.close()
        seg = single_wal_segment(run_dir) \
            if WriteAheadLog(run_dir).segments() else None
        raw = seg.read_bytes() if seg else b""
        base = min(reference)
        # Crash points: every record boundary plus three offsets into the
        # following record (first byte, middle, last byte).
        cuts = {0, len(raw)}
        offset = 0
        for line in raw.split(b"\n")[:-1]:
            ln = len(line) + 1
            cuts.update({
                offset + 1, offset + ln // 2, offset + ln - 1, offset + ln,
            })
            offset += ln
        work = root / "crash"
        for cut in sorted(cuts):
            crash_copy(run_dir, work)
            if seg is not None:
                (work / seg.name).write_bytes(raw[:cut])
            k = raw[:cut].count(b"\n")
            assert_recovers_exactly(
                work, base + k, reference, scratch_eval=True
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# Service-level durability: restart mid-workload
# ---------------------------------------------------------------------------

class TestServiceRestart:
    def test_commit_is_logged_before_it_is_acknowledged(self, tmp_path):
        d = tmp_path / "store"
        svc = QueryService(TC, data_dir=d, fsync="never")
        try:
            s = svc.open_session()
            s.execute(":begin")
            s.execute("+e(a, b).")
            s.execute("+e(b, c).")
            resp = s.execute(":commit")
            assert resp.ok and resp.version == 2
            # The acknowledged commit is already on disk.
            recs = WriteAheadLog(d).records()
            assert recs[-1][0] == "delta"
            assert recs[-1][1]["version"] == 2
            assert sorted(recs[-1][1]["adds"]) == ["e(a, b)", "e(b, c)"]
        finally:
            svc.shutdown()

    def test_restart_mid_mixed_traffic(self, tmp_path):
        """Crash-restart halfway through a mixed_traffic run: versions
        resume monotonically, pre-restart pins return retired_version,
        and the durable service stays equivalent to an in-memory service
        fed the same batches."""
        edges = random_graph(10, 20, seed=6)
        plan = mixed_traffic(
            edges, n_readers=2, queries_per_reader=6, n_batches=10,
            batch_size=2, n_nodes=10, seed=6,
        )
        d = tmp_path / "traffic"

        def edge_db():
            db = Database()
            for u, v in edges:
                db.add("e", u, v)
            return db

        svc = QueryService(TC, database=edge_db(), data_dir=d,
                           fsync="never")
        versions = [svc.model.version]
        half = len(plan.writer_batches) // 2
        for batch in plan.writer_batches[:half]:
            versions.append(
                svc.apply_delta(adds=batch.adds, dels=batch.dels).version
            )
        sess = svc.open_session()
        pin_version = versions[-2]
        assert sess.execute(f":at {pin_version}").ok
        # Simulated kill -9: the service object is abandoned un-shut-down;
        # every acknowledged append is already flushed to the WAL file.
        del svc, sess

        svc2 = QueryService(data_dir=d, fsync="never")
        try:
            assert svc2.model.version == versions[-1]
            s2 = svc2.open_session()
            resp = s2.execute(f":at {pin_version}")
            assert resp.code == "retired_version"
            for batch in plan.writer_batches[half:]:
                versions.append(svc2.apply_delta(
                    adds=batch.adds, dels=batch.dels
                ).version)
            assert all(a < b for a, b in zip(versions, versions[1:])), (
                "version numbers must stay strictly monotone across the "
                f"restart: {versions}"
            )
            # Reader equivalence against a from-scratch in-memory service.
            ref = QueryService(TC, database=edge_db())
            try:
                for batch in plan.writer_batches:
                    ref.apply_delta(adds=batch.adds, dels=batch.dels)
                rs = ref.open_session()
                for stream in plan.reader_streams:
                    for q in stream:
                        got = s2.execute(f"?- {q}.")
                        want = rs.execute(f"?- {q}.")
                        assert got.ok and want.ok
                        assert got.data["rows"] == want.data["rows"], q
            finally:
                ref.shutdown()
        finally:
            svc2.shutdown()

    def test_repl_save_open_round_trip(self, tmp_path):
        """The REPL facade: :save freezes an in-memory session into a
        durable store; :open recovers it with the version preserved."""
        from repro.repl.cli import Session as ReplSession

        repl = ReplSession(TC)
        repl._session.assert_fact("e(a, b)")
        repl._session.assert_fact("e(b, c)")
        saved_version = repl.service.model.version
        target = str(tmp_path / "snap")
        repl.save(target)
        assert has_state(target)
        reopened = repl.open(target)
        try:
            assert reopened.service.model.version == saved_version
            result = reopened._session.query("t(a, X)")
            assert [str(t) for row in result.rows for t in row] == ["b", "c"]
            # :save on the durable session itself is a checkpoint.
            reopened._session.assert_fact("e(c, d)")
            reopened.save(target)
            assert len(list_checkpoints(Path(target))) == 2
        finally:
            reopened.service.shutdown()

    def test_extend_program_after_recovery_with_tricky_constants(
        self, tmp_path
    ):
        """The recovered source lines must come from the round-trip-verified
        pretty-printer: quoted, keyword and capitalized constants in the
        stored program survive a restart *and* later program extension."""
        d = tmp_path / "store"
        svc = QueryService(
            "p('don''t stop'). p('true'). p('Abc').\nq(X) :- p(X).",
            data_dir=d, fsync="never",
        )
        svc.shutdown()
        svc2 = QueryService(data_dir=d, fsync="never")
        try:
            s = svc2.open_session()
            s.execute("r(X) :- p(X).")     # re-parses the joined source
            rows = s.execute("?- r(X).").data["rows"]
            assert sorted(r["X"] for r in rows) == \
                ["Abc", "don't stop", "true"]
        finally:
            svc2.shutdown()

    def test_save_refuses_existing_state(self, tmp_path):
        from repro.repl.cli import Session as ReplSession

        repl = ReplSession(TC)
        target = str(tmp_path / "snap")
        repl.save(target)
        with pytest.raises(StorageError, match="already holds"):
            repl.save(target)
        repl.service.shutdown()
