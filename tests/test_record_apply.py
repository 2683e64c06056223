"""One way to apply a logged record (DESIGN.md, "Durability").

``DurableModel.apply_record`` is the only code that decides what a
``delta`` / ``program`` / ``epoch`` record may do to a store.  Recovery
replays the local WAL through it; a follower hands it every frame of the
leader's stream together with the line the frame arrived as, and that
line — not a re-encoding of it — is what the follower logs and re-ships.

* **one table, two doors**: the same bad records spliced into a WAL and
  then recovered, and fed as frames to a follower, get the same verdict
  (fenced / refused / skipped / applied), and a refusal leaves the model
  and the WAL as they were;
* **a malformed but well-checksummed frame** of any kind leaves the
  follower's tail thread alive, reconnecting, with the reason in
  ``role_info()["last_error"]``;
* **a record is encoded once** (counts, no clocks): applying a leader's
  lines to a second store calls neither ``pretty_atom`` nor
  ``encode_record``, the two WALs hold the same bytes, the second store
  recovers to the first one's model and re-ships the lines it logged.
"""

import socket
import threading
import time

import pytest

from repro import parse_program
from repro.engine import Database, Evaluator
from repro.engine.evaluation import EvalOptions
from repro.engine.setops import with_set_builtins
from repro.replication import FollowerService, ReplicationHub
from repro.server import QueryService, run_in_thread
from repro.storage import DurableModel, StorageError, WriteAheadLog
from repro.storage.codec import decode_record, encode_record
from repro.storage.durable import FencingError

TC = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""

OPTS = dict(builtins=with_set_builtins(), fsync="never", checkpoint_every=None)


def frame(kind, data) -> bytes:
    return encode_record(kind, data).encode("ascii")


def wal_bytes(data_dir) -> bytes:
    return b"".join(
        p.read_bytes() for p in WriteAheadLog(data_dir).segments()
    )


def state(model):
    return (
        model.version, model.epoch,
        sorted(str(a) for a in model.current.interpretation),
        sorted(str(a) for a in model.current.database.facts()),
    )


def store(data_dir) -> None:
    """A closed store at version 2 that has durably seen epoch 1."""
    m = DurableModel(parse_program(TC), data_dir, Database(), **OPTS)
    m.apply_delta(adds=[("e", "a", "b")])     # v2, epoch 0
    m.bump_epoch(1)
    m.close()


def delta(version, epoch=1, adds=("e(b, c)",), **extra):
    return "delta", {
        "version": version, "epoch": epoch, "adds": list(adds), "dels": [],
        **extra,
    }


#: name -> (kind, data, verdict) against the store above.
RECORDS = {
    "next version": (*delta(3), "applied"),
    "version gap": (*delta(4), "refused"),
    "redelivered version": (*delta(2, adds=("e(x, y)",)), "skipped"),
    "stale epoch": (*delta(3, epoch=0), "fenced"),
    "unannounced epoch": (*delta(3, epoch=5), "refused"),
    "epoch regression": ("epoch", {"version": 2, "epoch": 0}, "fenced"),
    "epoch already adopted": ("epoch", {"version": 2, "epoch": 1}, "skipped"),
    "epoch record without an epoch": ("epoch", {"version": 2}, "refused"),
    "unknown kind": ("mystery", {"version": 3, "epoch": 1}, "refused"),
    "non-dict data": ("delta", [1, 2], "refused"),
    "non-int version": (*delta("3"), "refused"),
    "non-int epoch": (*delta(3, epoch="1"), "refused"),
    "adds not a list": ("delta", {"version": 3, "epoch": 1, "adds": 5},
                        "refused"),
    "non-ground atom": (*delta(3, adds=("e(X, c)",)), "refused"),
    "special atom": (*delta(3, adds=("a in {a}",)), "refused"),
    "unparseable program": (
        "program", {"version": 3, "epoch": 1, "source": "t(X :-"}, "refused",
    ),
}


def verdict(action, before, after):
    """Run ``action``; classify what it did to the store."""
    try:
        action()
    except FencingError:
        return "fenced"
    except StorageError:
        return "refused"
    return "skipped" if after() == before else "applied"


class AckSink:
    """Stands in for the follower's socket: swallows ``:ack`` lines."""

    def sendall(self, data: bytes) -> None:
        pass


@pytest.mark.parametrize("name", RECORDS)
def test_same_verdict_through_both_doors(name, tmp_path):
    kind, data, expected = RECORDS[name]
    line = frame(kind, data)
    store(tmp_path / "r")
    store(tmp_path / "f")

    # Door (a): spliced into the WAL, then recovery.
    baseline = DurableModel.recover(tmp_path / "r", **OPTS)
    before = state(baseline)
    baseline.close()
    with open(WriteAheadLog(tmp_path / "r").segments()[-1], "ab") as f:
        f.write(line + b"\n")
    spliced = wal_bytes(tmp_path / "r")
    recovered = []

    def recover():
        recovered.append(DurableModel.recover(tmp_path / "r", **OPTS))

    got = verdict(recover, before, lambda: state(recovered[0]))
    for m in recovered:
        m.close()
    assert got == expected
    assert wal_bytes(tmp_path / "r") == spliced     # replay logs nothing

    # Door (b): the same line as a frame of the leader's stream.
    follower = FollowerService("127.0.0.1:1", tmp_path / "f", **OPTS)
    follower.model = DurableModel.recover(tmp_path / "f", **OPTS)
    try:
        assert state(follower.model) == before
        log_before = wal_bytes(tmp_path / "f")
        got = verdict(
            lambda: follower._handle_line(line, AckSink()),
            before, lambda: state(follower.model),
        )
        assert got == expected
        if expected == "applied":
            assert wal_bytes(tmp_path / "f") == log_before + line + b"\n"
        else:
            assert state(follower.model) == before
            assert wal_bytes(tmp_path / "f") == log_before
    finally:
        follower.model.close()


# ---------------------------------------------------------------------------
# A malformed frame must not kill the tail thread
# ---------------------------------------------------------------------------

BAD_FRAMES = {
    "delta with list data": frame("delta", [1, 2]),
    "delta with a string epoch": frame("delta", delta(3, epoch="1")[1]),
    "epoch with a string epoch": frame("epoch", {"version": 2, "epoch": "1"}),
    "hello with a string epoch": frame("repl-hello", {"epoch": "1"}),
    "hello with list data": frame("repl-hello", [1, 2]),
    "snapshot with a string epoch": frame(
        "repl-snapshot",
        {"version": 9, "epoch": "1", "program": "", "facts": []},
    ),
    "snapshot with a number for facts": frame(
        "repl-snapshot",
        {"version": 9, "epoch": 1, "program": "", "facts": 7},
    ),
    "snapshot with a non-string fact": frame(
        "repl-snapshot",
        {"version": 9, "epoch": 1, "program": "", "facts": [3]},
    ),
    "json that is no record": b"[1, 2]",
    "bytes that are no ascii": b'{"crc": 1, "rec": [1, "delta", "\xff"]}',
}


@pytest.mark.parametrize("name", BAD_FRAMES)
def test_bad_frame_is_a_storage_error(name, tmp_path):
    store(tmp_path)
    follower = FollowerService("127.0.0.1:1", tmp_path, **OPTS)
    follower.model = DurableModel.recover(tmp_path, **OPTS)
    try:
        before, log_before = state(follower.model), wal_bytes(tmp_path)
        with pytest.raises(StorageError):
            follower._handle_line(BAD_FRAMES[name], AckSink())
        assert state(follower.model) == before
        assert wal_bytes(tmp_path) == log_before
    finally:
        follower.model.close()


def test_bad_frame_leaves_the_tail_thread_reconnecting(tmp_path):
    """Over a real socket: a leader that answers every ``:repl from``
    with a well-checksummed ``delta`` whose data is a list."""
    store(tmp_path)
    server = socket.create_server(("127.0.0.1", 0))
    connections = []

    def serve():
        while True:
            try:
                conn, _ = server.accept()
            except OSError:
                return
            connections.append(conn)
            conn.sendall(frame("repl-hello", {"epoch": 1}) + b"\n")
            conn.sendall(BAD_FRAMES["delta with list data"] + b"\n")

    threading.Thread(target=serve, daemon=True).start()
    follower = FollowerService(
        server.getsockname(), tmp_path, **OPTS, connect_timeout=2.0,
        read_timeout=0.25, backoff_initial=0.02, backoff_max=0.05,
    )
    follower.start()
    try:
        before = state(follower.model)
        deadline = time.monotonic() + 10
        while len(connections) < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(connections) >= 3            # it keeps coming back
        info = follower.role_info()
        assert follower._thread.is_alive()
        assert info["last_error"].startswith("RecoveryError: ")
        assert "version number" in info["last_error"]
        assert not info["fenced"]
        assert state(follower.model) == before
    finally:
        follower.stop()
        server.close()
        for conn in connections:
            conn.close()


# ---------------------------------------------------------------------------
# A record is encoded once
# ---------------------------------------------------------------------------

def test_applying_a_leaders_lines_encodes_nothing(tmp_path, monkeypatch):
    small = dict(OPTS, segment_max_bytes=256)       # rotates every few
    leader = DurableModel(
        parse_program(TC), tmp_path / "l", Database(), **small
    )
    replica = DurableModel(
        parse_program(TC), tmp_path / "r", Database(), **small
    )
    shipped = leader.commits.open("test")
    for i in range(12):
        leader.apply_delta(adds=[("e", f"n{i}", f"n{i + 1}")])
    leader.replace_program(parse_program(TC + "p(X) :- t(n0, X).\n"))
    leader.bump_epoch(1)
    for i in range(12):
        leader.apply_delta(
            adds=[("e", f"m{i}", f"n{i}")], dels=[("e", f"n{i}", f"n{i + 1}")]
        )
    lines = [c.line for c in shipped.read()]
    assert len(lines) == 26

    calls = {"pretty_atom": 0, "encode_record": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    from repro.storage import codec, wal
    counted(codec, "pretty_atom")
    counted(codec, "encode_record")
    counted(wal, "encode_record")
    reshipped = replica.commits.open("test")
    for line in lines:
        kind, data = decode_record(line.decode("ascii"))
        replica.apply_record(kind, data, line=line)
    assert calls == {"pretty_atom": 0, "encode_record": 0}
    monkeypatch.undo()

    assert state(replica) == state(leader)
    assert [c.line for c in reshipped.read()] == lines
    leader.close()
    replica.close()
    assert len(WriteAheadLog(tmp_path / "r").segments()) > 3
    assert wal_bytes(tmp_path / "r") == wal_bytes(tmp_path / "l") \
        == b"".join(lines)
    assert [p.name for p in WriteAheadLog(tmp_path / "r").segments()] == \
        [p.name for p in WriteAheadLog(tmp_path / "l").segments()]
    recovered = DurableModel.recover(tmp_path / "r", **small)
    try:
        assert state(recovered) == state(leader)
    finally:
        recovered.close()


def test_follower_wal_equals_leader_wal_byte_for_byte(tmp_path):
    """Leader + follower over TCP, 60 mixed commits with a program change
    and an epoch bump in the middle: the follower's WAL is the leader's,
    and both recover to from-scratch evaluation of the final EDB."""
    svc = QueryService(
        TC, data_dir=tmp_path / "l", fsync="never", checkpoint_every=None
    )
    ReplicationHub.attach(svc)
    with run_in_thread(svc) as h:
        follower = FollowerService(
            h.addr, tmp_path / "f", fsync="never", checkpoint_every=None,
            read_timeout=0.25, backoff_initial=0.02, backoff_max=0.2,
        )
        follower.start()
        try:
            for i in range(60):
                if i == 20:
                    svc.extend_program("p(X) :- t(k0, X).")
                if i == 40:
                    svc.model.bump_epoch(svc.model.epoch + 1)
                adds = [("e", f"k{i}", f"k{i + 1}")]
                dels = [("e", f"k{i - 7}", f"k{i - 6}")] if i % 5 == 4 else []
                svc.apply_delta(adds=adds, dels=dels)
            assert follower.wait_applied(svc.model.version)
            assert follower.model.epoch == svc.model.epoch == 1
            expected = state(svc.model)
        finally:
            follower.stop()
    svc.shutdown()
    # The follower bootstrapped from a snapshot of version 1, so its log
    # is the leader's from version 2 on — which is all of it.
    assert wal_bytes(tmp_path / "f") == wal_bytes(tmp_path / "l")
    for d in ("l", "f"):
        m = DurableModel.recover(tmp_path / d, **OPTS)
        try:
            assert state(m) == expected
            fresh = Evaluator(
                m.program, m.current.database,
                builtins=with_set_builtins(), options=EvalOptions(),
            ).run()
            assert m.current.interpretation == fresh.interpretation
        finally:
            m.close()
