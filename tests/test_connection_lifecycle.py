"""However a connection ends, the server keeps nothing of it.

One server with a replication hub serves connections that end in every
way a client can end one: a plain ``:quit``, a drop mid-batch, a drop
while a ``:sync`` is parked, a drop with subscription pushes queued, a
``line_too_long`` request, a dropped ``:repl`` stream, and an idle
connection still open when the server stops.  Afterwards the process must
hold exactly the threads and file descriptors it held before, no
session, no pinned version and no commit-stream cursor.
"""

import gc
import os
import socket
import threading
import time

from repro.replication import ReplicationHub
from repro.server import (
    E_CLOSING, LineClient, QueryService, Response, run_in_thread,
)
from repro.server.protocol import MAX_LINE_BYTES

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


def open_fds() -> set:
    return set(os.listdir("/proc/self/fd"))


def read_reply(sock) -> Response:
    with sock.makefile("rb") as stream:
        return Response.from_json(stream.readline().decode())


def test_no_thread_fd_session_or_pin_outlives_its_connection(tmp_path):
    # Collect earlier tests' garbage first, so that none of their sockets
    # closes under the comparison below.
    gc.collect()
    threads_before = set(threading.enumerate())
    fds_before = open_fds()

    svc = QueryService(
        TC, data_dir=tmp_path / "leader", fsync="never",
        checkpoint_every=None,
    )
    hub = ReplicationHub.attach(svc)
    handle = run_in_thread(svc)
    addr = (handle.host, handle.port)
    no_sessions = lambda: svc.session_count() == 0  # noqa: E731
    try:
        svc.apply_delta(adds=[("e", "a", "b"), ("e", "b", "c")])

        # Plain reads, a pinned time-travel read, then :quit.
        with LineClient(*addr) as c:
            assert c.query("t(a, X)").ok
            assert c.send(":at 1").ok
            assert c.query("t(a, X)").ok
            assert c.send(":quit").kind == "bye"
        assert wait_until(no_sessions)

        # A disconnect mid-batch.
        with LineClient(*addr) as c:
            assert c.send(":begin").ok
            assert c.send("+e(x, y).").ok
        assert wait_until(no_sessions)
        with LineClient(*addr) as c:
            assert not c.query("e(x, y)").data["truth"]
        assert wait_until(no_sessions)

        # A disconnect while a :sync is parked: the thread leaves once
        # the wait runs out.
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(f":sync {svc.model.version + 100} 0.5\n".encode())
            assert wait_until(lambda: svc.session_count() == 1)
        assert wait_until(no_sessions)

        # A subscriber that leaves with pushes queued.
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(b":subscribe t(a, X).\n")
            assert read_reply(sock).ok
            for i in range(5):
                svc.apply_delta(adds=[("e", "c", f"n{i}")])
            assert svc.subscriptions.wait_caught_up(svc.model.version)
        assert wait_until(no_sessions)

        # A request longer than MAX_LINE_BYTES: refused, then closed.
        with socket.create_connection(addr, timeout=10) as sock:
            # Exactly one byte too many, so the server has read all of
            # it when it answers and closes.
            sock.sendall(b"x" * (MAX_LINE_BYTES + 1))
            with sock.makefile("rb") as stream:
                reply = Response.from_json(stream.readline().decode())
                assert not reply.ok and reply.code == "line_too_long"
                assert stream.readline() == b""
        assert wait_until(no_sessions)

        # A replication stream the follower drops.
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(b":repl from 0\n")
            assert wait_until(lambda: hub.replica_info()["replicas"] == 1)
            svc.apply_delta(adds=[("e", "d", "e")])
        assert wait_until(lambda: hub.replica_info()["replicas"] == 0)
        assert wait_until(no_sessions)

        # An idle connection open across stop(): one server_closing, EOF.
        with socket.create_connection(addr, timeout=10) as idle, \
                idle.makefile("rb") as stream:
            idle.sendall(b":version\n")
            assert Response.from_json(stream.readline().decode()).ok
            handle.stop()
            closing = Response.from_json(stream.readline().decode())
            assert not closing.ok and closing.code == E_CLOSING
            assert stream.readline() == b""
    finally:
        handle.stop()
        svc.shutdown()

    assert svc.session_count() == 0
    assert svc.model._pins == {}
    assert svc.model.commits.info()["cursors"] == []
    # Subsets, not equality: a thread or descriptor left by an earlier
    # test may end meanwhile; nothing this test started may remain.
    assert wait_until(lambda: set(threading.enumerate()) <= threads_before)
    assert open_fds() <= fds_before
