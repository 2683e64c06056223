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
  recovers to the first one's model and re-ships the lines it logged;
* **so is a state image**: a follower bootstraps from the lines of the
  leader's checkpoint format, verified whole before any local state is
  touched, installs them byte for byte and encodes nothing; the leader
  encodes them off its write lock.
"""

import socket
import threading
import time

import pytest

from repro import parse_program
from repro.engine import Database, Evaluator
from repro.engine.evaluation import EvalOptions
from repro.engine.setops import with_set_builtins
from repro.replication import FollowerService, ReplicationHub, hub
from repro.server import QueryService, run_in_thread
from repro.storage import (
    DurableModel,
    StorageError,
    WriteAheadLog,
    list_checkpoints,
    write_checkpoint,
)
from repro.storage.checkpoint import checkpoint_name, image_lines
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


def checkpoint_files(data_dir) -> dict:
    return {p.name: p.read_bytes() for p in list_checkpoints(data_dir)}


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
    "adds a string": ("delta", {"version": 3, "epoch": 1, "adds": "ab",
                                "dels": []}, "refused"),
    "dels a string": ("delta", {"version": 3, "epoch": 1, "adds": [],
                                "dels": "ab"}, "refused"),
    "adds a dict": ("delta", {"version": 3, "epoch": 1,
                              "adds": {"e(x, y)": 1}, "dels": []}, "refused"),
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

def image(version=5, epoch=1, program=TC, facts=("e(a, b)",)):
    """The frames of a state image for the store above to re-seed from."""
    return (
        frame("checkpoint-header", {
            "version": version, "epoch": epoch, "mode": "lps",
            "program": program, "facts": len(facts),
        }),
        *(frame("fact", {"atom": f}) for f in facts),
        frame("checkpoint-footer", {"facts": len(facts)}),
    )


#: name -> one frame, or the frames of a sequence that must be refused.
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
    "image fact before any header": frame("fact", {"atom": "e(a, b)"}),
    "image header with a string version": image(version="5"),
    "image footer disagreeing with its header": (
        *image()[:-1], frame("checkpoint-footer", {"facts": 2}),
    ),
    "image footer with no header": frame("checkpoint-footer", {"facts": 0}),
    "image header with a program that does not parse": image(
        program="t(X :-"
    ),
    "delta mid-image": (*image()[:-1], frame(*delta(3))),
    "image fact that is no string": (
        image()[0], frame("fact", {"atom": 3}), image()[-1],
    ),
}


@pytest.mark.parametrize("name", BAD_FRAMES)
def test_bad_frame_is_a_storage_error(name, tmp_path):
    store(tmp_path)
    follower = FollowerService("127.0.0.1:1", tmp_path, **OPTS)
    follower.model = DurableModel.recover(tmp_path, **OPTS)
    frames = BAD_FRAMES[name]
    try:
        before, log_before = state(follower.model), wal_bytes(tmp_path)
        files_before = checkpoint_files(tmp_path)
        with pytest.raises(StorageError):
            for f in [frames] if isinstance(frames, bytes) else frames:
                follower._handle_line(f, AckSink())
        assert state(follower.model) == before
        assert wal_bytes(tmp_path) == log_before
        assert checkpoint_files(tmp_path) == files_before
    finally:
        follower.model.close()


def test_the_tables_image_reseeds_when_whole(tmp_path):
    """The image the rows above spoil, sent whole, re-seeds the store."""
    store(tmp_path)
    follower = FollowerService("127.0.0.1:1", tmp_path, **OPTS)
    follower.model = DurableModel.recover(tmp_path, **OPTS)
    try:
        for f in image():
            follower._handle_line(f, AckSink())
        assert state(follower.model)[:2] == (5, 1)
        assert list(checkpoint_files(tmp_path)) == [checkpoint_name(5)]
        assert wal_bytes(tmp_path) == b""
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

def count_encodes(monkeypatch) -> dict:
    """Count ``pretty_atom`` and ``encode_record`` calls from here on."""
    from repro.storage import checkpoint, codec, wal

    calls = {"pretty_atom": 0, "encode_record": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(codec, "pretty_atom")
    for module in (codec, wal, checkpoint):
        counted(module, "encode_record")
    return calls


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

    calls = count_encodes(monkeypatch)
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
    # The follower bootstrapped from the state image of version 1, so its
    # log is the leader's from version 2 on — which is all of it.
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


# ---------------------------------------------------------------------------
# A state image is encoded once, off the leader's write lock
# ---------------------------------------------------------------------------

def leader_at_epoch_1(data_dir) -> DurableModel:
    leader = DurableModel(parse_program(TC), data_dir, Database(), **OPTS)
    for i in range(6):
        leader.apply_delta(adds=[("e", f"n{i}", f"n{i + 1}")])
    leader.bump_epoch(1)
    return leader


def test_image_severed_midway_keeps_local_state(tmp_path):
    """Over a real socket: the first stream breaks off inside the image,
    the second delivers it whole.  In between, the follower still holds
    its own state and no checkpoint but its own."""
    store(tmp_path / "f")
    leader = leader_at_epoch_1(tmp_path / "l")
    lines = image_lines(
        leader.version, leader.epoch, leader.program, leader.current.database
    )
    hello = frame("repl-hello", {"version": leader.version, "epoch": 1})
    server = socket.create_server(("127.0.0.1", 0))
    connections = []
    second = threading.Event()

    def serve():
        while True:
            try:
                conn, _ = server.accept()
            except OSError:
                return
            connections.append(conn)
            if len(connections) == 1:
                conn.sendall(hello + b"\n" + b"".join(lines[:3]))
                conn.close()
            else:
                second.wait(10)
                conn.sendall(hello + b"\n" + b"".join(lines))

    threading.Thread(target=serve, daemon=True).start()
    files_before = checkpoint_files(tmp_path / "f")
    log_before = wal_bytes(tmp_path / "f")
    follower = FollowerService(
        server.getsockname(), tmp_path / "f", **OPTS, connect_timeout=2.0,
        read_timeout=0.25, backoff_initial=0.02, backoff_max=0.05,
    )
    follower.start()
    try:
        before = state(follower.model)
        deadline = time.monotonic() + 10
        while len(connections) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(connections) == 2               # severed, came back
        assert state(follower.model) == before
        assert checkpoint_files(tmp_path / "f") == files_before
        assert wal_bytes(tmp_path / "f") == log_before
        second.set()
        assert follower.wait_applied(leader.version)
        assert state(follower.model) == state(leader)
        assert checkpoint_files(tmp_path / "f") == {
            checkpoint_name(leader.version): b"".join(lines)
        }
    finally:
        second.set()
        follower.stop()
        leader.close()
        server.close()
        for conn in connections:
            conn.close()


def test_bootstrap_installs_the_leaders_checkpoint_bytes(tmp_path):
    """A fresh follower's checkpoint is, byte for byte, the one
    ``write_checkpoint`` writes for the leader's program and EDB."""
    svc = QueryService(
        TC, data_dir=tmp_path / "l", fsync="never", checkpoint_every=None
    )
    ReplicationHub.attach(svc)
    with run_in_thread(svc) as h:
        for i in range(30):
            svc.apply_delta(adds=[("e", f"k{i}", f"k{i + 1}")])
        svc.model.bump_epoch(1)
        version = svc.model.version
        expected = write_checkpoint(
            tmp_path / "x", version, svc.model.program,
            svc.model.current.database, fsync=False, epoch=1,
        ).read_bytes()
        follower = FollowerService(
            h.addr, tmp_path / "f", fsync="never", checkpoint_every=None,
            read_timeout=0.25, backoff_initial=0.02, backoff_max=0.2,
        )
        follower.start()
        try:
            assert follower.wait_applied(version)
            assert state(follower.model) == state(svc.model)
        finally:
            follower.stop()
    svc.shutdown()
    assert checkpoint_files(tmp_path / "f") == {
        checkpoint_name(version): expected
    }


def test_bootstrap_encodes_nothing(tmp_path, monkeypatch):
    """Pinning the image under the write lock encodes nothing, and
    neither does the follower that installs it."""
    leader = leader_at_epoch_1(tmp_path / "l")
    calls = count_encodes(monkeypatch)
    history, pinned, version, epoch, cursor = leader.subscribe_replication(0)
    cursor.close()
    assert history == [] and pinned is not None
    assert calls == {"pretty_atom": 0, "encode_record": 0}
    monkeypatch.undo()

    lines = image_lines(*pinned)
    follower = FollowerService("127.0.0.1:1", tmp_path / "f", **OPTS)
    calls = count_encodes(monkeypatch)
    follower._handle_line(
        frame("repl-hello", {"version": version, "epoch": epoch}), AckSink()
    )
    for line in lines:
        follower._handle_line(line.rstrip(b"\n"), AckSink())
    assert calls == {"pretty_atom": 0, "encode_record": 0}
    monkeypatch.undo()
    try:
        assert state(follower.model) == state(leader)
        assert checkpoint_files(tmp_path / "f") == {
            checkpoint_name(version): b"".join(lines)
        }
    finally:
        follower.model.close()
        leader.close()


def test_image_encoding_does_not_block_the_leaders_writers(
    tmp_path, monkeypatch
):
    """Hold the hub's ``image_lines`` on an event: a commit on the leader
    still returns, and reaches the follower right after the image."""
    entered, release = threading.Event(), threading.Event()
    real = hub.image_lines

    def held(*args):
        entered.set()
        release.wait(10)
        return real(*args)

    monkeypatch.setattr(hub, "image_lines", held)
    svc = QueryService(
        TC, data_dir=tmp_path / "l", fsync="never", checkpoint_every=None
    )
    ReplicationHub.attach(svc)
    with run_in_thread(svc) as h:
        svc.apply_delta(adds=[("e", "a", "b")])
        follower = FollowerService(
            h.addr, tmp_path / "f", fsync="never", checkpoint_every=None,
            read_timeout=0.25, backoff_initial=0.02, backoff_max=0.2,
        )
        starting = threading.Thread(target=follower.start, daemon=True)
        starting.start()
        try:
            assert entered.wait(10)
            writer = threading.Thread(
                target=svc.model.apply_delta,
                kwargs={"adds": [("e", "b", "c")]}, daemon=True,
            )
            writer.start()
            writer.join(5)
            assert not writer.is_alive()           # the commit returned
            release.set()
            starting.join(10)
            assert not starting.is_alive()         # bootstrapped
            assert follower.wait_applied(svc.model.version)
            assert state(follower.model) == state(svc.model)
        finally:
            release.set()
            starting.join(10)
            follower.stop()
    svc.shutdown()
