"""The commit stream's own contract (``repro.engine.commits``).

Every commit leaves the writer through one ordered, bounded stream read
by cursors.  These tests pin what each consumer relies on: a cursor sees
every version exactly once and in order, or is told — once — that it fell
off the retained tail; what the stream retains is bounded however far a
consumer lags — in entries and in bytes: an entry is a version and a WAL
line, never a snapshot; waiting for a version never needs the write lock;
and the lag of every consumer is visible from the running server.
"""

import gc
import random
import socket
import sys
import threading
import time
import weakref

import pytest

from repro import parse_program
from repro.engine import commits
from repro.engine.commits import FellBehind
from repro.engine.maintenance import VersionedModel
from repro.replication import ReplicationHub
from repro.server import QueryService, run_in_thread
from repro.server.subscriptions import SubscriptionManager

TC = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def retain(monkeypatch):
    """Shrink the stream's retention so falling behind is cheap to reach."""
    monkeypatch.setattr(commits, "RETAIN", 8)
    return 8


@pytest.fixture
def model():
    return VersionedModel(parse_program(TC))


def commit(model, i):
    return model.add("e", f"n{i}", f"n{i + 1}")


def read_to(cursor, head, delay=lambda: 0.0):
    """Read ``cursor`` until it delivers version ``head``; returns the
    versions read and, for every fell-behind signal, the last version
    read before it."""
    seen, signals = [cursor.version], []
    while seen[-1] < head:
        try:
            entries = cursor.read(wait=True)
        except FellBehind:
            signals.append(seen[-1])
            continue
        assert entries, f"closed at {seen[-1]} of {head}"
        for entry in entries:              # a consumer's per-commit work
            seen.append(entry.version)
            time.sleep(delay())
    return seen, signals


def assert_in_order_or_told(seen, signals):
    """Consecutive versions, except directly after a fell-behind signal —
    and a signal always stands for commits really skipped.  (A reader
    that resumes and falls behind again before it reads is told again.)"""
    holes = [a for a, b in zip(seen, seen[1:]) if b != a + 1]
    assert holes == sorted(set(signals))
    assert all(b > a for a, b in zip(seen, seen[1:]))


class TestCursorContract:
    def test_each_cursor_reads_every_version_once_or_is_told(
        self, model, retain
    ):
        """One writer, cursors of different speeds, more threads than
        cores: each reads every version exactly once, in order, or gets
        one signal per hole and reads on from where it was cut loose."""
        total = 40 * retain
        rng = random.Random(16)
        behind = threading.Event()

        def parked():
            # The slowest reader stops at its first entry until the
            # writer is more than ``retain`` versions past it, so it
            # falls behind however fast the box is.
            behind.wait(timeout=30.0)
            return 0.0

        delays = [
            lambda: 0.0,
            lambda: 0.0,
            lambda: rng.choice((0.0, 0.0, 0.002)),
            parked,
        ]
        cursors = [model.commits.open(f"reader {i}") for i in range(4)]
        start = model.version
        results = [None] * len(cursors)

        def reader(i):
            results[i] = read_to(cursors[i], start + total, delays[i])

        threads = [
            threading.Thread(target=reader, args=(i,))
            for i in range(len(cursors))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for i in range(total):
                commit(model, i)
                assert model.commits.info()["retained"] <= retain
                if cursors[-1].lag > retain:
                    behind.set()
        finally:
            behind.set()
            sys.setswitchinterval(interval)
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
        for seen, signals in results:
            assert seen[0] == start and seen[-1] == start + total
            assert_in_order_or_told(seen, signals)
        # The slowest reader cannot keep up with 40x the retention.
        assert results[-1][1], "the slow cursor never fell behind"
        for c in cursors:
            c.close()
        assert model.commits.info() == {
            "head": start + total, "retained": 0, "cursors": [],
        }

    def test_fell_behind_is_signalled_once_then_reads_on_in_order(
        self, model, retain
    ):
        cursor = model.commits.open("stalled")
        start = model.version
        for i in range(3 * retain + 5):
            commit(model, i)
            assert model.commits.info()["retained"] <= retain
        assert cursor.lag == 3 * retain + 5
        with pytest.raises(FellBehind):
            cursor.read()
        # One signal however often the writer cut the cursor loose; then
        # consecutive versions up to the head — which is what a resync
        # from the newest snapshot needs to lose nothing.
        versions = [c.version for c in cursor.read()]
        assert 0 < len(versions) <= retain
        assert versions == list(range(versions[0], start + 3 * retain + 6))
        assert cursor.lag == 0 and cursor.read() == []
        assert model.current.version == cursor.version

    def test_cursor_opened_under_the_write_lock_is_gap_free(self, model):
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                commit(model, i)
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(20):
                with model.lock:
                    base = model.current.version
                    cursor = model.commits.open("handoff")
                assert model.wait_version(base + 2, timeout=10.0) >= base + 2
                versions = [c.version for c in cursor.read()]
                cursor.close()
                assert versions[:2] == [base + 1, base + 2]
                assert versions == list(range(base + 1, versions[-1] + 1))
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_closing_a_cursor_wakes_its_blocked_reader(self, model):
        cursor = model.commits.open("parked")
        got = []
        thread = threading.Thread(
            target=lambda: got.append(cursor.read(wait=True))
        )
        thread.start()
        time.sleep(0.05)                   # let it park
        cursor.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive() and got == [[]]

    def test_durable_entries_carry_the_line_the_wal_wrote(self, tmp_path):
        from repro.storage import DurableModel

        with DurableModel(parse_program(TC), tmp_path, fsync="never") as m:
            cursor = m.commits.open("shipper")
            commit(m, 0)
            m.bump_epoch(3)
            delta, epoch = cursor.read()
            assert (delta.version, epoch.version) == (2, 2)
            wal = b"".join(
                seg.read_bytes() for seg in sorted(tmp_path.glob("wal-*"))
            )
            assert wal == delta.line + epoch.line
            cursor.close()

    def test_stalled_cursor_retains_records_not_model_versions(
        self, tmp_path
    ):
        """A reader that never reads (a follower that stopped draining its
        socket) costs the leader its unread WAL lines: the snapshots those
        commits published die with ``keep_versions``, however large the
        relations each one copied."""
        from repro.storage import DurableModel

        with DurableModel(
            parse_program(TC), tmp_path, fsync="never", checkpoint_every=None
        ) as m:
            m.apply_delta(adds=[("e", f"a{i}", f"b{i}") for i in range(2000)])
            cursor = m.commits.open("stalled replica")
            snapshots = [
                weakref.ref(commit(m, i)) for i in range(20 * m._keep)
            ]
            gc.collect()
            alive = [ref() for ref in snapshots if ref() is not None]
            assert len(alive) <= m._keep
            assert cursor.lag == len(snapshots)
            retained = cursor.read()
            assert len(retained) == len(snapshots)
            record = len(retained[0].line)
            assert record < 200
            assert sum(len(c.line) for c in retained) <= (
                len(snapshots) * (record + 8)
            )
            cursor.close()


class TestWaitVersion:
    def test_wait_does_not_take_the_write_lock(self, model):
        """A writer holding the lock through a long batch stops neither a
        satisfied wait nor one its own publication satisfies."""
        done = []

        def wait(version):
            done.append(model.wait_version(version, timeout=10.0))

        with model.lock:
            satisfied = threading.Thread(
                target=wait, args=(model.version,)
            )
            satisfied.start()
            satisfied.join(timeout=5.0)
            assert not satisfied.is_alive() and done == [model.version]
            parked = threading.Thread(
                target=wait, args=(model.version + 1,)
            )
            parked.start()
            time.sleep(0.05)               # let it park
            snap = commit(model, 0)        # still inside the batch
            parked.join(timeout=5.0)
            assert not parked.is_alive() and done[-1] == snap.version

    def test_timeout_returns_the_version_reached(self, model):
        assert model.wait_version(model.version + 3, timeout=0.05) \
            == model.version


class TestBoundedDispatch:
    @pytest.mark.parametrize("keep_versions", [2, 8])
    def test_blocked_dispatcher_retains_a_bounded_tail_and_recovers(
        self, monkeypatch, retain, keep_versions
    ):
        """Stall the subscription dispatcher for 10x the retention bound:
        writers keep committing, the stream never holds more than the
        bound (nor keeps a snapshot alive past ``keep_versions``), and
        the subscriber's initial answer plus delivered diffs still equal
        the final answer set.  With 2 kept versions the dispatcher meets
        retired versions before it falls off the tail."""
        gate = threading.Event()
        dispatch = SubscriptionManager._dispatch

        def stalled(self, prev, snap, subs):
            gate.wait(timeout=30.0)
            return dispatch(self, prev, snap, subs)

        monkeypatch.setattr(SubscriptionManager, "_dispatch", stalled)
        svc = QueryService(
            TC, max_pending_diffs=4096, keep_versions=keep_versions
        )
        try:
            session = svc.open_session()
            response = session.execute(":subscribe t(X, Y).")
            assert response.ok, response.error
            state = {tuple(r) for r in response.data["rows"]}
            stream = svc.model.commits
            snapshots = []
            for i in range(10 * retain):
                snap = svc.apply_delta(adds=[("e", f"n{i}", f"n{i + 1}")])
                if i % 3 == 2:
                    snap = svc.apply_delta(dels=[("e", f"n{i - 1}", f"n{i}")])
                snapshots.append(weakref.ref(snap))
                assert stream.info()["retained"] <= retain
            del snap
            gc.collect()
            # The registry's window, the dispatcher's baseline and the one
            # it is stalled on.
            alive = sum(ref() is not None for ref in snapshots)
            assert alive <= keep_versions + 2
            lag = stream.info()["cursors"][0]
            assert lag["consumer"] == "subscriptions"
            assert lag["lag_versions"] > retain
            gate.set()
            assert svc.subscriptions.wait_caught_up(
                svc.model.version, timeout=30.0
            )
            for frame in session.take_push_frames():
                assert frame["kind"] == "diff"
                state -= {tuple(r) for r in frame["dels"]}
                state |= {tuple(r) for r in frame["adds"]}
            final = svc.open_session().execute("?- t(X, Y).")
            assert state == {
                (row["X"], row["Y"]) for row in final.data["rows"]
            }
            assert stream.info()["cursors"][0]["lag_versions"] == 0
            assert stream.info()["retained"] == 0
        finally:
            gate.set()
            svc.shutdown()


class TestLagIsVisible:
    def test_stalled_replica_lag_grows_then_returns_to_zero(self, tmp_path):
        svc = QueryService(
            TC, data_dir=tmp_path / "leader", fsync="never",
            checkpoint_every=None,
        )
        hub = ReplicationHub.attach(svc)
        # The stream cuts a cursor loose at RETAIN whatever the hub allows.
        big = ReplicationHub(svc, max_queue=10 * commits.RETAIN)
        assert big.max_queue == commits.RETAIN
        session = svc.open_session()

        def replica_lag():
            stream = session.execute(":stats").data["commit_stream"]
            assert stream == session.execute(":role").data["commit_stream"]
            assert stream["head"] == svc.model.version
            return {
                c["consumer"]: c["lag_versions"] for c in stream["cursors"]
            }

        with run_in_thread(svc) as h:
            sock = socket.create_connection((h.host, h.port), timeout=5)
            try:
                # Small enough to stall soon, large enough to drain fast.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 65536)
                sock.sendall(b":repl from 0\n")
                assert wait_until(
                    lambda: hub.replica_info()["replicas"] == 1
                )
                assert replica_lag() == {"replica 1": 0}
                # Big records fill the transport buffer fast, parking the
                # serve loop in drain() with commits it has not read.
                blob = "x" * 262144
                for i in range(60):
                    svc.apply_delta(adds=[("e", f"{blob}{i}", f"v{i}")])
                stalled = replica_lag()["replica 1"]
                assert stalled > 0
                sock.settimeout(0.2)

                def drained():
                    try:
                        while sock.recv(1 << 20):
                            pass
                    except socket.timeout:
                        pass
                    return replica_lag() == {"replica 1": 0}

                assert wait_until(drained, timeout=60.0, interval=0.0)
                assert svc.model.commits.info()["retained"] == 0
            finally:
                sock.close()
            assert wait_until(lambda: replica_lag() == {})
        svc.shutdown()
