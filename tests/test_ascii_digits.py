"""Version numbers and ports are ASCII decimal digits.

``'²'.isdigit()`` and ``'١٢'.isdigit()`` are true, but ``int('²')`` raises
and ``int('١٢')`` is 12.  Every place that reads a number out of a request
line, a file name or an address accepts ASCII digits only, so such text is
refused the way any other malformed input is.
"""

import socket
import time

import pytest

from repro.replication import FollowerService, ReplicationHub
from repro.replication.follower import _parse_addr
from repro.server import QueryService, Response, run_in_thread
from repro.storage import DurableModel, WriteAheadLog, list_checkpoints
from repro.storage.checkpoint import checkpoint_version

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
def leader(tmp_path):
    svc = QueryService(
        TC, data_dir=tmp_path / "leader", fsync="never",
        checkpoint_every=None,
    )
    hub = ReplicationHub.attach(svc)
    with run_in_thread(svc) as handle:
        yield svc, hub, handle
    svc.shutdown()


def test_repl_from_superscript_is_a_protocol_error(leader):
    _, hub, handle = leader
    with socket.create_connection((handle.host, handle.port), timeout=10) \
            as sock:
        sock.sendall(":repl from ²\n".encode())
        reply = Response.from_json(sock.makefile("rb").readline().decode())
    assert not reply.ok and reply.code == "repl_protocol"
    assert hub.replica_info()["replicas"] == 0


def test_ack_superscript_is_ignored(leader):
    svc, hub, handle = leader
    svc.apply_delta(adds=[("e", "a", "b")])
    with socket.create_connection((handle.host, handle.port), timeout=10) \
            as sock:
        sock.sendall(b":repl from 0\n")
        assert wait_until(lambda: hub.replica_info()["replicas"] == 1)
        sock.sendall(":ack ²\n:ack ١٢\n:ack x\n".encode())
        sock.sendall(b":ack 1\n")
        assert wait_until(lambda: hub.replica_info()["acked"] == [1])
        # The stream survived the malformed acks and still ships.
        svc.apply_delta(adds=[("e", "b", "c")])
        sock.sendall(f":ack {svc.model.version}\n".encode())
        assert wait_until(
            lambda: hub.replica_info()["acked"] == [svc.model.version]
        )


def test_stray_non_ascii_files_are_not_segments_or_checkpoints(tmp_path):
    store = tmp_path / "store"
    svc = QueryService(TC, data_dir=store, fsync="never")
    svc.apply_delta(adds=[("e", "a", "b")])
    version = svc.model.version
    svc.shutdown()
    stray_wal = store / "wal-²000000000000000.log"
    stray_ckpt = store / "ckpt-١٢.json"
    stray_wal.write_bytes(b"not a segment\n")
    stray_ckpt.write_bytes(b"not a checkpoint\n")

    assert checkpoint_version(stray_ckpt) is None
    assert stray_ckpt not in list_checkpoints(store)
    wal = WriteAheadLog(store, fsync="never")
    try:
        assert stray_wal not in wal.segments()
    finally:
        wal.close()
    model = DurableModel.recover(store, fsync="never")
    try:
        assert model.version == version
    finally:
        model.close()


@pytest.mark.parametrize("addr", ["h:²", "h:١٢"])
def test_follow_address_needs_ascii_port(addr, tmp_path):
    with pytest.raises(ValueError, match="expected HOST:PORT"):
        _parse_addr(addr)
    with pytest.raises(ValueError, match="expected HOST:PORT"):
        FollowerService(addr, tmp_path / "follower")
