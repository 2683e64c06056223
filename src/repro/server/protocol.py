"""Line-oriented TCP protocol: the REPL grammar, one thread per connection.

Wire format — deliberately minimal so any language can speak it:

* **Request:** one UTF-8 line, exactly what you would type at the REPL
  (``?- path(a, X).``, ``+edge(a, b).``, ``-edge(a, b).``, ``:stats``,
  ``:begin`` / ``:commit`` / ``:abort``, ``:at 3``, ``:version``,
  ``:sync N``, ``:role``, ``:promote``, or a program clause).  ``:quit``
  ends the connection.
* **Response:** one JSON line (:meth:`Response.to_json`): ``{"ok": …,
  "kind": …, "data": …, "version": …, "error": …, "code": …}``.
* **Replication:** ``:repl from N`` switches the connection into WAL
  shipping — the server streams :mod:`repro.storage.codec` record frames
  and reads ``:ack N`` lines back (see :mod:`repro.replication.hub`).
* **Subscription pushes:** after ``:subscribe goal.`` the server
  interleaves asynchronous ``diff`` / ``sub_dropped`` frames (ordinary
  ``Response`` JSON lines) with request/reply traffic.  Push frames are
  only ever written while the connection is idle — between a response
  and the next request — so a client reads its reply by skipping (and
  stashing) any push-kind frames that arrive first; :class:`LineClient`
  does exactly that.

**One thread per connection.**  :class:`Server` accepts on one thread
and gives each connection a :class:`~repro.server.session.Session` and a
thread of its own, which reads a request line, executes it and sends
the reply.  Between requests it waits in ``poll`` on its
socket and a wake pipe that a subscription push, a commit on a
replication stream and shutdown write to.  A long query or a parked
``:sync`` holds only its own connection; the session guarantees snapshot
isolation.  A dropped connection closes the session — pending batches
are discarded, pinned versions released, and the shared model is
untouched.

**Graceful shutdown.**  :meth:`Server.stop` stops accepting, lets every
in-flight request finish and deliver its response, then sends each
surviving connection one structured ``server_closing`` response before
closing it — a client mid-request never sees its acknowledged work
vanish into a reset socket.

:func:`run_in_thread` hosts a server on a daemon thread and returns the
bound address — how the tests, the benchmark and the demo drive a real
socket server in-process; ``lps serve`` runs one on its main thread.
:class:`LineClient` is a minimal blocking client for those callers; with
``max_attempts > 1`` it reconnects on connection failure with
exponential backoff plus jitter.
"""

from __future__ import annotations

import logging
import os
import random
import select
import signal
import socket
import threading
import time
from typing import Optional

from .service import QueryService
from .session import E_CLOSING, Response
from .subscriptions import FRAME_DIFF, FRAME_DROPPED

logger = logging.getLogger("repro.server")

#: Requests longer than this are refused (also bounds the reader buffer).
MAX_LINE_BYTES = 1 << 20

#: Response kinds a server sends without a matching request.
PUSH_KINDS = frozenset({FRAME_DIFF, FRAME_DROPPED})


class Backoff:
    """Exponential backoff with full jitter (shared by clients/followers).

    Delays grow ``initial * factor**n`` capped at ``maximum``; each delay
    is drawn uniformly from ``[delay/2, delay]`` so a herd of reconnecting
    clients does not resynchronize on the failed endpoint.
    """

    def __init__(
        self,
        initial: float = 0.05,
        maximum: float = 2.0,
        factor: float = 2.0,
    ) -> None:
        self.initial = initial
        self.maximum = maximum
        self.factor = factor
        self._attempt = 0

    def reset(self) -> None:
        self._attempt = 0

    def next_delay(self) -> float:
        delay = min(
            self.maximum, self.initial * (self.factor ** self._attempt)
        )
        self._attempt += 1
        return delay * (0.5 + 0.5 * random.random())


class Connection:
    """One socket, its read buffer and the wake pipe its thread waits on.

    :meth:`poke` and :meth:`cut` may be called from any thread and never
    block: a subscription push (``session.on_push``), a replication
    stream's commit callback, which runs under the leader's write lock,
    and shutdown all use them.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        #: Bytes received past the last line taken.
        self.buf = bytearray()
        #: Set by :meth:`Server.stop`: finish the request in hand, then go.
        self.closing = False
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)
        self._poll.register(self._wake_r, select.POLLIN)
        #: Keeps a late poke or cut off descriptors close() has released.
        self._lock = threading.Lock()
        self._closed = False

    def poke(self) -> None:
        """Wake the connection's thread out of :meth:`wait`."""
        with self._lock:
            if not self._closed:
                try:
                    os.write(self._wake_w, b"!")
                except BlockingIOError:
                    pass                   # a full pipe already wakes it

    def cut(self) -> None:
        """Shut the socket down under its thread, so a ``sendall`` parked
        on a full socket raises and the thread unwinds."""
        with self._lock:
            if not self._closed:
                try:
                    self.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def wait(self) -> bool:
        """Block until the socket is readable or a poke arrives; returns
        whether the socket is readable."""
        readable = False
        for fd, _ in self._poll.poll():
            if fd == self._wake_r:
                os.read(self._wake_r, 4096)
            else:
                readable = True
        return readable

    def recv(self) -> bool:
        """Append what the socket holds to :attr:`buf`; ``False`` at EOF."""
        chunk = self.sock.recv(65536)
        self.buf += chunk
        return bool(chunk)

    def send(self, response: Response) -> None:
        self.sock.sendall(response.to_json().encode() + b"\n")

    def close(self) -> None:
        with self._lock:
            self._closed = True
            os.close(self._wake_r)
            os.close(self._wake_w)
            self.sock.close()


def _converse(service: QueryService, conn: Connection, session) -> None:
    """Serve requests until the client leaves or the server closes."""
    buf = conn.buf
    while True:
        # Queued push frames go out while the line is idle, between a
        # reply and the next request, so replies stay unambiguous.
        frames = session.take_push_frames()
        if frames:
            conn.sock.sendall(b"".join(
                Response(
                    ok=True, kind=f.get("kind", FRAME_DIFF), data=f,
                    version=f.get("version"),
                ).to_json().encode() + b"\n"
                for f in frames
            ))
        if conn.closing:
            conn.send(Response.failure(E_CLOSING, "server is shutting down"))
            return
        end = buf.find(b"\n")
        if end < 0 and len(buf) <= MAX_LINE_BYTES:
            if conn.wait() and not conn.recv():
                if not buf:
                    return                 # EOF: client went away
                buf += b"\n"               # a last line without its newline
            continue
        if end < 0 or end > MAX_LINE_BYTES:
            conn.send(Response.failure(
                "line_too_long", f"request exceeds {MAX_LINE_BYTES} bytes"
            ))
            return
        line = buf[:end].decode("utf-8", errors="replace").strip()
        del buf[:end + 1]
        if line in (":quit", ":q"):
            conn.send(Response(ok=True, kind="bye"))
            return
        if line == ":repl" or line.startswith(":repl "):
            if service.hub is None:
                conn.send(Response.failure(
                    "repl_unavailable",
                    "replication is not enabled on this server",
                ))
                continue
            # The connection is dedicated to WAL shipping from here.
            service.hub.serve_subscriber(line, conn)
            return
        conn.sock.sendall(session.execute(line).to_json().encode() + b"\n")


class Server:
    """A listening socket and one thread per accepted connection.

    :meth:`serve_forever` accepts on the calling thread; :meth:`stop`
    drains from any other.
    """

    def __init__(
        self, service: QueryService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        listener = socket.create_server((host, port))
        # Non-blocking, so an accept() whose peer gave up after poll()
        # cannot park the acceptor where stop() does not reach it.
        listener.setblocking(False)
        self._listening = Connection(listener)
        self.host, self.port = listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._conns: dict[Connection, threading.Thread] = {}
        self._stopping = threading.Event()

    def serve_forever(self) -> None:
        """Accept until :meth:`stop`; closes the listening socket.

        On the main thread a signal wakes the accept loop too, so its
        handler (Ctrl-C's ``KeyboardInterrupt``) runs whichever thread
        the signal was delivered to.
        """
        on_main = threading.current_thread() is threading.main_thread()
        if on_main:
            old_wakeup = signal.set_wakeup_fd(self._listening._wake_w)
        try:
            while not self._stopping.is_set():
                if self._listening.wait():
                    self._accept()
        finally:
            if on_main:
                signal.set_wakeup_fd(old_wakeup)
            self._listening.close()

    def _accept(self) -> None:
        try:
            sock, _ = self._listening.sock.accept()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = Connection(sock)
        except BlockingIOError:
            return
        except OSError as exc:
            # Out of descriptors, say: pause rather than spin on a
            # listener that stays readable.
            logger.warning("accept failed: %s", exc)
            self._stopping.wait(1.0)
            return
        thread = threading.Thread(
            target=self._serve, args=(conn,), name="lps-connection",
            daemon=True,
        )
        with self._lock:
            conn.closing = self._stopping.is_set()
            self._conns[conn] = thread
            # Started under the lock: ``stop`` joins every thread it
            # finds registered, and joining one not yet started raises.
            thread.start()

    def _serve(self, conn: Connection) -> None:
        """One connection's thread: a session for the connection's life."""
        session = None
        try:
            session = self.service.open_session()
            session.on_push = conn.poke
            _converse(self.service, conn, session)
        except (ConnectionError, OSError):
            pass                           # mid-session disconnect
        finally:
            if session is not None:
                session.close()            # discards pending, releases pins
            conn.close()
            with self._lock:
                del self._conns[conn]

    def stop(self, timeout: float = 10.0) -> None:
        """Drain: stop accepting, let each request in hand deliver its
        reply, send every connection one ``server_closing``; past
        ``timeout`` cut the sockets of those still busy."""
        deadline = time.monotonic() + timeout
        with self._lock:
            self._stopping.set()
            busy = dict(self._conns)
        self._listening.poke()
        for conn in busy:
            conn.closing = True
            conn.poke()
        for conn, thread in busy.items():
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                conn.cut()


class ServerHandle:
    """A server running on a background thread: address + clean shutdown."""

    def __init__(self, host: str, port: int, stop) -> None:
        self.host = host
        self.port = port
        self._stop = stop

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        self._stop()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_in_thread(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    start_timeout: float = 10.0,
    stop_timeout: float = 10.0,
) -> ServerHandle:
    """Serve on a daemon thread; returns the bound address.

    The socket is bound on the calling thread, so a bind error raises
    here and ``start_timeout`` is never reached.  ``stop()`` drains as
    :meth:`Server.stop` does, bounded by ``stop_timeout``.
    """
    server = Server(service, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="lps-server", daemon=True
    )
    thread.start()

    def stop() -> None:
        server.stop(stop_timeout)
        thread.join(stop_timeout)

    return ServerHandle(server.host, server.port, stop)


class LineClient:
    """A minimal blocking client for the line protocol (tests/benchmarks).

    Not thread-safe: give each client thread its own connection, exactly
    as a real deployment would.

    ``max_attempts=1`` (the default) preserves the historical behavior —
    any socket failure raises immediately.  With ``max_attempts > 1`` a
    failed connect or send tears the socket down and retries on a fresh
    connection under exponential backoff with jitter.  Note the retry
    semantics: a request whose response was lost mid-flight may have been
    applied — safe for this protocol's reads and for fact deltas (set
    operations are idempotent), but the knob stays opt-in.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        max_attempts: int = 1,
        backoff_initial: float = 0.05,
        backoff_max: float = 2.0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._backoff = Backoff(backoff_initial, backoff_max)
        #: Set by close(); wakes any reconnect backoff sleep immediately,
        #: so a closing client never sits out a full ``next_delay()``.
        self._closed = threading.Event()
        self._sock: Optional[socket.socket] = None
        #: Bytes received past the last line handed out.  The client does
        #: its own line buffering: a buffered socket *file* refuses every
        #: read after one timed-out read, which made ``recv_push(timeout)``
        #: single-use.
        self._rbuf = bytearray()
        #: Asynchronous ``diff``/``sub_dropped`` frames read while waiting
        #: for a reply; drain via :meth:`take_pushes` / :meth:`recv_push`.
        self.pushes: list[Response] = []
        self._connect()

    def _connect(self) -> None:
        last_exc: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            if attempt:
                self._backoff_sleep()
            if self._closed.is_set():
                raise ConnectionError("client closed during reconnect")
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                self._backoff.reset()
                return
            except OSError as exc:
                last_exc = exc
                self._teardown()
        raise ConnectionError(
            f"could not connect to {self.host}:{self.port} after "
            f"{self.max_attempts} attempt(s): {last_exc}"
        )

    def _backoff_sleep(self) -> None:
        """Wait out one backoff delay, returning early if close() fires.

        ``Event.wait`` instead of ``time.sleep``: a concurrent ``close()``
        wakes the sleeper immediately and the next loop iteration raises,
        so teardown latency is bounded by scheduling, not by the (up to
        seconds-long) jittered delay.
        """
        if self._closed.wait(self._backoff.next_delay()):
            raise ConnectionError("client closed during reconnect")

    def _teardown(self) -> None:
        self._rbuf.clear()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def send(self, line: str) -> Response:
        last_exc: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            if self._sock is None:
                try:
                    self._connect()
                except ConnectionError as exc:
                    last_exc = exc
                    continue
            try:
                return self._send_once(line)
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                self._teardown()
                if attempt + 1 < self.max_attempts:
                    self._backoff_sleep()
        raise ConnectionError(
            f"request failed after {self.max_attempts} attempt(s): "
            f"{last_exc}"
        )

    def _send_once(self, line: str) -> Response:
        self._sock.sendall(line.encode() + b"\n")
        while True:
            response = self._read_response()
            if response.kind in PUSH_KINDS:
                # Push frames written while our request was in flight:
                # stash them; the reply is the next non-push line.
                self.pushes.append(response)
                continue
            return response

    def _read_line(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """The next protocol line.  Without ``timeout`` the socket's own
        timeout bounds each receive; with one, ``None`` is returned once
        it passes with no complete line buffered — the wait is a
        ``select``, so it leaves nothing behind and can be repeated."""
        buf, sock = self._rbuf, self._sock
        deadline = None if timeout is None else time.monotonic() + timeout
        searched = 0
        while True:
            end = buf.find(b"\n", searched)
            if end >= 0:
                line = bytes(buf[:end + 1])
                del buf[:end + 1]
                return line
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
                if not select.select([sock], [], [], remaining)[0]:
                    return None
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            searched = len(buf)
            buf += chunk

    def _read_response(
        self, timeout: Optional[float] = None
    ) -> Optional[Response]:
        raw = self._read_line(timeout)
        if raw is None:
            return None
        response = Response.from_json(raw.decode())
        if response.code == E_CLOSING:
            # A graceful-shutdown notice, possibly buffered before our
            # request was even written: the connection is dying, not
            # answering.  Surface it as a connection failure so the
            # bounded-reconnect path retries against the replacement.
            raise ConnectionError("server is shutting down")
        return response

    def take_pushes(self) -> list[Response]:
        """Already-received push frames, oldest first (non-blocking)."""
        out, self.pushes = self.pushes, []
        return out

    def recv_push(self, timeout: Optional[float] = None) -> Optional[Response]:
        """Wait for one asynchronous push frame; ``None`` on timeout.

        Returns a stashed frame immediately when one is queued, otherwise
        blocks on the socket.  Must not race a concurrent :meth:`send`
        (the client is single-threaded by contract).
        """
        if self.pushes:
            return self.pushes.pop(0)
        if self._sock is None:
            raise ConnectionError("not connected")
        return self._read_response(
            timeout if timeout is not None else self.timeout
        )

    def query(self, goal: str) -> Response:
        return self.send(f"?- {goal.rstrip('.')}.")

    def close(self) -> None:
        self._closed.set()
        self._teardown()

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
