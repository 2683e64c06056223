"""Fault-injection harness for the replication subsystem.

The contract (DESIGN.md, "Replication & failover"): **acknowledged ⇒
survives failover** — for leader crashes (in-process socket drops, torn
streams, and a real ``kill -9``) at injected points under churn,
promoting the most caught-up follower yields a state that contains every
acknowledged write, is bit-identical to from-scratch evaluation at the
reported version, and never shows any client a version regression.  The
other side of the coin is **fencing**: once a follower has durably seen
epoch *E*, anything from an epoch < *E* lineage — a deposed leader's
stream, or its records spliced into a WAL — is provably rejected.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import parse_program
from repro.engine import Database, Evaluator
from repro.engine.setops import with_set_builtins
from repro.replication import (
    FollowerService,
    ReplicaClient,
    ReplicationError,
    ReplicationHub,
    promote_best,
)
from repro.server import (
    E_NOT_YET,
    E_READ_ONLY,
    LineClient,
    QueryService,
    run_in_thread,
)
from repro.storage import DurableModel, RecoveryError, WriteAheadLog
from repro.storage.durable import FencingError
from repro.workloads import failover_plan

TC = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""

# Fast-reconnect knobs for every follower in the suite: the fault
# harness tears streams on purpose, so waiting out production backoff
# would dominate the runtime.  ``checkpoint_every=None`` keeps the
# leader's WAL floor at the beginning of time, so a reconnecting
# follower never needs a mid-stream re-seed.
FAST = dict(
    fsync="never", checkpoint_every=None, connect_timeout=2.0,
    read_timeout=0.25, backoff_initial=0.02, backoff_max=0.2,
)


def leader_service(data_dir, source=TC, database=None, **kw):
    kw.setdefault("fsync", "never")
    kw.setdefault("checkpoint_every", None)
    svc = QueryService(source, database=database, data_dir=data_dir, **kw)
    ReplicationHub.attach(svc)
    return svc


def render(model):
    """The comparable identity of a node's state: IDB atoms + EDB facts."""
    snap = model.current
    return (
        tuple(sorted(str(a) for a in snap.interpretation)),
        tuple(sorted(str(a) for a in snap.database.facts())),
    )


def facts_of(model):
    return {str(a) for a in model.current.database.facts()}


def sever(follower):
    """Inject a torn stream: hard-drop the follower's live socket."""
    sock = follower._sock
    if sock is not None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# WAL shipping: replay equivalence, bootstrap, idempotent reconnect
# ---------------------------------------------------------------------------

class TestShipping:
    def test_follower_replays_bit_identical(self, tmp_path):
        svc = leader_service(tmp_path / "leader")
        with run_in_thread(svc) as h:
            f = FollowerService(h.addr, tmp_path / "f", **FAST)
            f.start()
            try:
                for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
                    svc.apply_delta(adds=[("e", u, v)])
                svc.extend_program("p(X) :- t(X, d).")
                assert f.wait_applied(svc.model.version)
                assert render(f.model) == render(svc.model)
                # The replica is a real model, not a fact mirror:
                # from-scratch evaluation of its own EDB agrees.
                fresh = Evaluator(
                    f.model.program, f.model.current.database,
                    builtins=with_set_builtins(),
                ).run()
                assert f.model.current.interpretation == \
                    fresh.interpretation
            finally:
                f.stop()
        svc.shutdown()

    def test_an_idle_stream_heartbeats(self, tmp_path, monkeypatch):
        acks = []
        ack = FollowerService._ack
        monkeypatch.setattr(FollowerService, "_ack",
                            lambda self, sock: acks.append(1) or ack(self, sock))
        svc = leader_service(tmp_path / "leader")
        with run_in_thread(svc) as h:
            f = FollowerService(h.addr, tmp_path / "f",
                                **dict(FAST, read_timeout=0.02))
            f.start()
            acks.clear()
            try:
                assert wait_until(lambda: len(acks) >= 2)   # no records
                assert svc.hub.replica_info()["acked"] == [svc.model.version]
            finally:
                f.stop()
        svc.shutdown()

    def test_a_leader_without_replication_refuses_a_follower(self, tmp_path):
        svc = QueryService(TC)
        with run_in_thread(svc) as h:
            f = FollowerService(h.addr, tmp_path / "f", **FAST)
            with pytest.raises(ReplicationError,
                               match="leader refused replication"):
                f.start(timeout=1.0)
        svc.shutdown()

    def test_fresh_follower_bootstraps_from_snapshot(self, tmp_path):
        """A follower that joins late starts from a shipped snapshot (a
        fresh store's initial version lives only in the leader's
        checkpoint, never in its WAL)."""
        db = Database()
        db.add("e", "a", "b")
        svc = leader_service(tmp_path / "leader", database=db)
        with run_in_thread(svc) as h:
            for i in range(4):
                svc.apply_delta(adds=[("e", f"n{i}", f"m{i}")])
            f = FollowerService(h.addr, tmp_path / "late", **FAST)
            f.start()
            try:
                assert f.wait_applied(svc.model.version)
                assert render(f.model) == render(svc.model)
            finally:
                f.stop()
        svc.shutdown()

    def test_torn_stream_reconnect_is_idempotent(self, tmp_path):
        """Severing the stream between every pair of commits loses
        nothing and doubles nothing: redelivered records are skipped by
        version, and the final state matches the leader exactly."""
        svc = leader_service(tmp_path / "leader")
        with run_in_thread(svc) as h:
            f = FollowerService(h.addr, tmp_path / "f", **FAST)
            f.start()
            try:
                for i in range(6):
                    sever(f)
                    svc.apply_delta(adds=[("e", f"u{i}", f"v{i}")],
                                    dels=[("e", f"u{i-1}", f"v{i-1}")]
                                    if i else [])
                assert f.wait_applied(svc.model.version, timeout=20)
                assert f.model.version == svc.model.version
                assert render(f.model) == render(svc.model)
            finally:
                f.stop()
        svc.shutdown()

    def test_follower_is_independently_crash_recoverable(self, tmp_path):
        """Kill a follower, restart it over the same data-dir: it
        recovers locally and resumes the stream from its durable applied
        version — not from zero, not from a snapshot."""
        svc = leader_service(tmp_path / "leader")
        with run_in_thread(svc) as h:
            f = FollowerService(h.addr, tmp_path / "f", **FAST)
            f.start()
            svc.apply_delta(adds=[("e", "a", "b")])
            assert f.wait_applied(svc.model.version)
            f.stop()                      # follower "crash"
            svc.apply_delta(adds=[("e", "b", "c")])   # progress meanwhile
            f2 = FollowerService(h.addr, tmp_path / "f", **FAST)
            f2.start()
            try:
                assert f2.model.version >= 2   # recovered, not re-seeded
                assert f2.wait_applied(svc.model.version)
                assert render(f2.model) == render(svc.model)
            finally:
                f2.stop()
        svc.shutdown()

    def test_follower_behind_wal_floor_reseeds(self, tmp_path):
        """A follower that falls behind the leader's checkpoint-truncated
        WAL floor cannot replay the gap, so the leader ships a snapshot;
        the follower must discard its stale local state and re-seed from
        it (regression: this used to raise ``ReplicationError`` and wedge
        the follower permanently)."""
        # One record per WAL segment + a single retained checkpoint, so
        # one checkpoint() pushes the replayable floor to the present.
        model = DurableModel(
            parse_program(TC), tmp_path / "leader",
            builtins=with_set_builtins(),
            fsync="never", checkpoint_every=None,
            keep_checkpoints=1, segment_max_bytes=1,
        )
        svc = QueryService(model=model)
        ReplicationHub.attach(svc)
        with run_in_thread(svc) as h:
            f = FollowerService(h.addr, tmp_path / "f", **FAST)
            f.start()
            svc.apply_delta(adds=[("e", "a", "b")])
            assert f.wait_applied(svc.model.version)
            behind = svc.model.version
            f.stop()                            # follower goes dark
            for i in range(4):                  # leader moves on ...
                svc.apply_delta(adds=[("e", f"u{i}", f"v{i}")])
            model.checkpoint()                  # ... and truncates its WAL
            floor = WriteAheadLog(tmp_path / "leader").records()[0][1]["version"]
            assert floor is not None and floor > behind + 1
            f2 = FollowerService(h.addr, tmp_path / "f", **FAST)
            f2.start()
            try:
                assert f2.wait_applied(svc.model.version)
                assert render(f2.model) == render(svc.model)
                # The re-seeded replica keeps streaming deltas after the
                # snapshot — it is a live follower, not a one-shot copy.
                svc.apply_delta(adds=[("e", "z", "w")])
                assert f2.wait_applied(svc.model.version)
                assert render(f2.model) == render(svc.model)
            finally:
                f2.stop()
            # And it stays independently crash-recoverable over the
            # re-seeded store.
            f3 = FollowerService(h.addr, tmp_path / "f", **FAST)
            f3.start()
            try:
                assert f3.wait_applied(svc.model.version)
                assert render(f3.model) == render(svc.model)
            finally:
                f3.stop()
        svc.shutdown()


# ---------------------------------------------------------------------------
# Ack gating and role surfaces
# ---------------------------------------------------------------------------

class TestAckGating:
    def test_ack_replicas_satisfied_by_follower(self, tmp_path):
        svc = leader_service(tmp_path / "leader", ack_replicas=1,
                             ack_timeout=20.0)
        with run_in_thread(svc) as h:
            f = FollowerService(h.addr, tmp_path / "f", **FAST)
            f.start()
            try:
                snap = svc.apply_delta(adds=[("e", "a", "b")])
                # Returning at all means a follower confirmed durability.
                assert f.model.version >= snap.version
            finally:
                f.stop()
        svc.shutdown()

    def test_replication_lag_is_structured(self, tmp_path):
        """``ack_replicas`` unsatisfiable: the write stays locally
        durable but the session answer is the stable ``replication_lag``
        code, not a hang or a bare exception."""
        svc = leader_service(tmp_path / "leader", ack_replicas=1,
                             ack_timeout=0.2)
        s = svc.open_session()
        r = s.execute("+e(a, b).")
        assert not r.ok and r.code == "replication_lag"
        assert svc.model.version == 2     # locally committed regardless
        svc.shutdown()
        m = DurableModel.recover(
            tmp_path / "leader", builtins=with_set_builtins(),
            fsync="never", checkpoint_every=None,
        )
        try:
            assert "e(a, b)" in facts_of(m)
        finally:
            m.close()


class TestRoles:
    def test_follower_refuses_writes_with_leader_hint(self, tmp_path):
        svc = leader_service(tmp_path / "leader")
        with run_in_thread(svc) as h:
            f = FollowerService(h.addr, tmp_path / "f", **FAST)
            fsvc = f.start()
            try:
                s = fsvc.open_session()
                r = s.execute("+e(x, y).")
                assert not r.ok and r.code == E_READ_ONLY
                assert r.data["leader"] == h.addr
                # Batched writes are refused at staging time, clause
                # extensions at dispatch.
                assert s.execute(":begin").ok
                r = s.execute("+e(p, q).")
                assert not r.ok and r.code == E_READ_ONLY
                r = s.execute("p(X) :- e(X, X).")
                assert not r.ok and r.code == E_READ_ONLY
            finally:
                f.stop()
        svc.shutdown()

    def test_role_payloads(self, tmp_path):
        svc = leader_service(tmp_path / "leader")
        with run_in_thread(svc) as h:
            assert svc.role_info()["role"] == "leader"
            f = FollowerService(h.addr, tmp_path / "f", **FAST)
            fsvc = f.start()
            try:
                info = fsvc.open_session().execute(":role").data
                assert info["role"] == "follower"
                assert info["leader"] == h.addr
                hub_info = svc.role_info()["replication"]
                assert hub_info["replicas"] == 1
            finally:
                f.stop()
        svc.shutdown()

    def test_sync_waits_for_replication(self, tmp_path):
        svc = leader_service(tmp_path / "leader")
        with run_in_thread(svc) as h:
            f = FollowerService(h.addr, tmp_path / "f", **FAST)
            fsvc = f.start()
            try:
                snap = svc.apply_delta(adds=[("e", "a", "b")])
                s = fsvc.open_session()
                r = s.execute(f":sync {snap.version} 10")
                assert r.ok and r.data["latest"] >= snap.version
                # An unreachable version times out with the retryable code.
                r = s.execute(":sync 999 0.05")
                assert not r.ok and r.code == E_NOT_YET
                assert r.data["retryable"] is True
            finally:
                f.stop()
        svc.shutdown()


# ---------------------------------------------------------------------------
# ReplicaClient routing
# ---------------------------------------------------------------------------

class TestReplicaClient:
    def test_read_your_writes_across_followers(self, tmp_path):
        svc = leader_service(tmp_path / "leader")
        with run_in_thread(svc) as h:
            fs, handles = [], []
            for i in range(2):
                f = FollowerService(h.addr, tmp_path / f"f{i}", **FAST)
                fs.append(f)
                handles.append(run_in_thread(f.start()))
            try:
                with ReplicaClient(
                    h.addr, [hh.addr for hh in handles]
                ) as client:
                    for i in range(5):
                        r = client.assert_fact(f"e(n{i}, m{i})")
                        assert r.ok
                        # Immediately read back through a follower: the
                        # :sync token forbids observing an older state.
                        got = client.read(f"e(n{i}, X)")
                        assert got.ok and got.data["rows"] == [
                            {"X": f"m{i}"}
                        ]
                    assert client.last_write_version == svc.model.version
            finally:
                for hh in handles:
                    hh.stop()
                for f in fs:
                    f.stop()
        svc.shutdown()

    def test_write_to_follower_redirects_to_leader(self, tmp_path):
        svc = leader_service(tmp_path / "leader")
        with run_in_thread(svc) as h:
            f = FollowerService(h.addr, tmp_path / "f", **FAST)
            fh = run_in_thread(f.start())
            try:
                # Aim the client at the follower: the read_only refusal
                # carries the leader's address and the write lands there.
                with ReplicaClient(fh.addr) as client:
                    r = client.assert_fact("e(a, b)")
                    assert r.ok
                    assert client.leader_addr == (h.host, h.port)
                    assert svc.model.version == r.version
            finally:
                fh.stop()
                f.stop()
        svc.shutdown()


# ---------------------------------------------------------------------------
# The headline harness: kill the leader under churn, promote, verify
# ---------------------------------------------------------------------------

class TestFailoverHarness:
    def test_kill_leader_under_churn_promote_and_verify(self, tmp_path):
        """The acceptance property end to end, on a seeded fault plan:
        stream drops at the plan's injection points, leader death at its
        kill point, promotion of the most caught-up follower, survivor
        retargeting — every acknowledged write survives, the promoted
        state is bit-identical to the acknowledged reference at its
        version, and a polling reader never observes a regression."""
        plan = failover_plan(
            n_nodes=10, n_edges=18, n_batches=12, batch_size=2,
            n_drops=2, n_sets=3, seed=2,
        )
        db = Database()
        for spec in plan.initial_facts:
            db.add(*spec)
        svc = leader_service(
            tmp_path / "leader", source=plan.program, database=db,
            ack_replicas=1, ack_timeout=30.0,
        )
        h_leader = run_in_thread(svc)
        followers, handles = {}, {}
        for name in ("f0", "f1"):
            f = FollowerService(h_leader.addr, tmp_path / name, **FAST)
            followers[name] = f
            handles[name] = run_in_thread(f.start())
        observer = LineClient(handles["f0"].host, handles["f0"].port,
                              timeout=10.0)
        try:
            reference = {svc.model.version: render(svc.model)}
            acked = [svc.model.version]
            observed = []
            for i, batch in enumerate(
                plan.batches[:plan.kill_leader_after]
            ):
                if i in plan.drop_stream_after:
                    sever(followers["f0"])
                snap = svc.apply_delta(adds=batch.adds, dels=batch.dels)
                acked.append(snap.version)
                reference[snap.version] = render(svc.model)
                observed.append(observer.send(":version").data["latest"])

            # Leader dies at the kill point.  (The real SIGKILL variant
            # lives in TestSubprocessKill; here the servers share one
            # process, so the crash is a hard server stop.)
            h_leader.stop()
            svc.shutdown()

            addr_of = {
                (handles[n].host, handles[n].port): n for n in followers
            }
            best, role = promote_best(
                [handles[n].addr for n in followers]
            )
            promoted = followers[addr_of[best]]
            survivor = followers[
                next(n for n in followers if addr_of[best] != n)
            ]
            assert role["role"] == "leader"
            assert promoted.model.epoch >= 1

            # acknowledged ⇒ survived, bit-identical at the promoted
            # node's reported version.
            pv = promoted.model.version
            assert pv >= max(acked)
            assert render(promoted.model) == reference[pv]

            # The survivor re-subscribes to the new leader and the rest
            # of the plan's churn lands on the new lineage.
            survivor.retarget(best)
            new_leader = promoted.service
            for batch in plan.batches[plan.kill_leader_after:]:
                snap = new_leader.apply_delta(
                    adds=batch.adds, dels=batch.dels
                )
                acked.append(snap.version)
                reference[snap.version] = render(new_leader.model)
                observed.append(
                    observer.send(":version").data["latest"]
                )

            final = acked[-1]
            assert acked == sorted(acked)      # versions never regress
            assert survivor.wait_applied(final, timeout=30)
            assert render(survivor.model) == reference[final]
            assert render(promoted.model) == reference[final]
            # No reader observed a version regression across the kill.
            assert all(a <= b for a, b in zip(observed, observed[1:]))
            # Bit-identical to from-scratch evaluation of the survivors'
            # facts — the replicated lineage is a real model.
            fresh = Evaluator(
                promoted.model.program,
                promoted.model.current.database,
                builtins=with_set_builtins(),
            ).run()
            assert promoted.model.current.interpretation == \
                fresh.interpretation
        finally:
            observer.close()
            for n in followers:
                handles[n].stop()
                followers[n].stop()

    def test_fenced_old_leader_is_rejected_end_to_end(self, tmp_path):
        """Split brain, resolved by epochs: after a partition and a
        promotion, the deposed leader keeps accepting writes on the old
        lineage — and any follower of the new lineage that hears from it
        fences the stream instead of applying them."""
        svc = leader_service(tmp_path / "leader")
        h_leader = run_in_thread(svc)
        f1 = FollowerService(h_leader.addr, tmp_path / "f1", **FAST)
        h1 = run_in_thread(f1.start())
        f2 = FollowerService(h_leader.addr, tmp_path / "f2", **FAST)
        f2.start()
        try:
            svc.apply_delta(adds=[("e", "a", "b")])           # v2, epoch 0
            assert f1.wait_applied(2) and f2.wait_applied(2)

            # Partition: the followers fail over; the old leader is
            # still alive and takes one more (doomed) write.
            f1.promote()                                      # epoch 1
            f2.retarget(h1.addr)
            svc.apply_delta(adds=[("w", "stale", "x")])       # old lineage
            f1.service.apply_delta(adds=[("e", "b", "c")])    # new lineage
            assert f2.wait_applied(3, timeout=20)
            assert f2.model.epoch == 1       # epoch adopted durably
            assert "e(b, c)" in facts_of(f2.model)
            assert "w(stale, x)" not in facts_of(f2.model)

            # Splice the fenced lineage back in: point the survivor at
            # the deposed leader.  Its hello announces epoch 0 — the
            # stream is fenced terminally, nothing is applied.
            before = render(f2.model)
            f2.retarget(h_leader.addr)
            assert wait_until(lambda: f2.role_info()["fenced"], timeout=10)
            assert render(f2.model) == before
            assert "w(stale, x)" not in facts_of(f2.model)
        finally:
            h1.stop()
            f1.stop()
            f2.stop()
            h_leader.stop()
            svc.shutdown()

    def test_promote_is_idempotent_and_leader_refuses(self, tmp_path):
        svc = leader_service(tmp_path / "leader")
        with run_in_thread(svc) as h:
            # A plain leader has nothing to promote.
            s = svc.open_session()
            r = s.execute(":promote")
            assert not r.ok and r.code == "not_a_follower"
            f = FollowerService(h.addr, tmp_path / "f", **FAST)
            fsvc = f.start()
            try:
                first = f.promote()
                second = f.promote()
                assert first["role"] == second["role"] == "leader"
                assert fsvc.model.epoch == 1   # bumped exactly once
            finally:
                f.stop()
        svc.shutdown()


class TestSubprocessKill:
    def test_kill9_leader_then_promote(self, tmp_path):
        """The real thing: a leader process dies by SIGKILL; a follower
        that confirmed the writes is promoted and carries on."""
        prog = tmp_path / "prog.lps"
        prog.write_text(TC)
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.repl.cli", "serve",
             str(prog), "--host", "127.0.0.1", "--port", "0",
             "--data-dir", str(tmp_path / "leader"), "--fsync", "never"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, cwd="/root/repo", env=env,
        )
        follower = None
        fh = None
        try:
            addr = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    addr = line.rsplit(" ", 1)[-1].strip()
                    break
            assert addr, "leader subprocess never reported its address"

            follower = FollowerService(addr, tmp_path / "f", **FAST)
            fh = run_in_thread(follower.start())
            host, port = addr.rsplit(":", 1)
            with LineClient(host, int(port), timeout=10.0) as c:
                for i in range(3):
                    assert c.send(f"+e(k{i}, k{i+1}).").ok
                latest = c.send(":version").data["latest"]
            assert follower.wait_applied(latest, timeout=20)

            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

            best, role = promote_best([fh.addr])
            assert role["role"] == "leader" and best == (fh.host, fh.port)
            with LineClient(fh.host, fh.port, timeout=10.0) as c:
                # Every write the dead leader acknowledged survives …
                assert c.query("t(k0, k3)").data["truth"]
                # … and the promoted node accepts new writes.
                r = c.send("+e(k3, k4).")
                assert r.ok and r.version > latest
                assert c.query("t(k0, k4)").data["truth"]
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
            if fh is not None:
                fh.stop()
            if follower is not None:
                follower.stop()


# ---------------------------------------------------------------------------
# Fencing at the storage layer: stale-epoch appends rejected on replay
# ---------------------------------------------------------------------------

class TestFencingOnReplay:
    def _store(self, tmp_path):
        m = DurableModel(
            parse_program(TC), tmp_path, Database(),
            builtins=with_set_builtins(), fsync="never",
            checkpoint_every=None,
        )
        m.apply_delta(adds=[("e", "a", "b")])     # v2, epoch 0
        m.bump_epoch(1)
        m.close()
        return m

    def _recover(self, tmp_path):
        return DurableModel.recover(
            tmp_path, builtins=with_set_builtins(), fsync="never",
            checkpoint_every=None,
        )

    def test_stale_epoch_append_rejected(self, tmp_path):
        """A deposed leader's record (epoch 0 after the store durably
        saw epoch 1) spliced into the WAL refuses to replay."""
        self._store(tmp_path)
        from repro.core import atom, const

        wal = WriteAheadLog(tmp_path, fsync="never")
        wal.append_delta(3, [atom("w", const("stale"))], [], epoch=0)
        wal.close()
        with pytest.raises(FencingError, match="stale-epoch"):
            self._recover(tmp_path)

    def test_unannounced_epoch_rejected(self, tmp_path):
        self._store(tmp_path)
        from repro.core import atom, const

        wal = WriteAheadLog(tmp_path, fsync="never")
        wal.append_delta(3, [atom("w", const("x"))], [], epoch=5)
        wal.close()
        with pytest.raises(RecoveryError, match="no epoch record"):
            self._recover(tmp_path)

    def test_epoch_survives_recovery(self, tmp_path):
        self._store(tmp_path)
        m = self._recover(tmp_path)
        try:
            assert m.epoch == 1 and m.version == 2
        finally:
            m.close()


# ---------------------------------------------------------------------------
# Backpressure: a stalled subscriber is cut off, not buffered without bound
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_stalled_subscriber_is_cut_off_not_buffered(self, tmp_path):
        """A follower that subscribes and never reads must be dropped
        once its bounded record queue overflows — leader memory stays
        O(max_queue) and writers never block on the dead stream.  (The
        follower would then reconnect through the ordinary
        snapshot/history handoff; reconnect idempotence is covered
        above.)"""
        svc = QueryService(
            TC, data_dir=tmp_path / "leader", fsync="never",
            checkpoint_every=None,
        )
        hub = ReplicationHub.attach(svc, max_queue=4)
        with run_in_thread(svc) as h:
            sock = socket.create_connection((h.host, h.port), timeout=5)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
                sock.sendall(b":repl from 0\n")
                assert wait_until(
                    lambda: hub.replica_info()["replicas"] == 1
                )
                # Big records fill the transport buffer fast, parking the
                # serve loop in drain(); the queue then overflows.
                blob = "x" * 262144
                for i in range(120):
                    svc.apply_delta(adds=[("e", f"{blob}{i}", f"v{i}")])
                    if hub.replica_info()["replicas"] == 0:
                        break
                assert wait_until(
                    lambda: hub.replica_info()["replicas"] == 0
                ), "stalled subscriber was never dropped"
                # The leader is unaffected: writes still commit.
                before = svc.model.version
                snap = svc.apply_delta(adds=[("e", "a", "b")])
                assert snap.version == before + 1
            finally:
                sock.close()
        svc.shutdown()
