"""Line-oriented TCP protocol: the REPL grammar over asyncio streams.

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

Each connection owns one :class:`~repro.server.session.Session`; request
handling is pushed onto the service's thread pool so a long query never
stalls the event loop, while the session itself guarantees snapshot
isolation.  A dropped connection closes the session — pending batches are
discarded, pinned versions released, and the shared model is untouched.

**Graceful shutdown.**  :meth:`ServerHandle.stop` stops accepting, lets
every in-flight request finish and deliver its response, then sends each
surviving connection one structured ``server_closing`` response before
closing it — a client mid-request never sees its acknowledged work
vanish into a reset socket.

:func:`run_in_thread` hosts the asyncio server on a daemon thread and
returns the bound address — how the tests, the benchmark and the demo
drive a real socket server in-process.  :class:`LineClient` is a minimal
blocking client for those callers; with ``max_attempts > 1`` it
reconnects on connection failure with exponential backoff plus jitter.
"""

from __future__ import annotations

import asyncio
import random
import select
import socket
import threading
import time
from typing import Optional

from .service import QueryService
from .session import E_CLOSING, Response
from .subscriptions import FRAME_DIFF, FRAME_DROPPED

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


class _ServerState:
    """Live-connection registry backing the graceful drain shutdown."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self.closing = False
        self._waiters: set[asyncio.Future] = set()
        self._active = 0
        #: Set (from the loop thread) once closing is underway and every
        #: connection handler has exited — the drain barrier stop() waits
        #: on from the caller's thread.
        self.drained = threading.Event()
        #: Loop-side twin of ``drained``: ``Server.close()`` cancels
        #: ``serve_forever`` immediately, so the runner must park on
        #: this future to keep the loop alive while handlers deliver
        #: their ``server_closing`` responses — otherwise teardown
        #: cancels them mid-send and idle clients read EOF.
        self._drained_fut = loop.create_future()

    def register(self) -> asyncio.Future:
        waiter = self.loop.create_future()
        self._waiters.add(waiter)
        self._active += 1
        return waiter

    def unregister(self, waiter: asyncio.Future) -> None:
        self._waiters.discard(waiter)
        self._active -= 1
        if self.closing and self._active <= 0:
            self._mark_drained()

    def begin_close(self) -> None:
        """Loop thread only: flag shutdown and wake idle readers."""
        self.closing = True
        for waiter in list(self._waiters):
            if not waiter.done():
                waiter.set_result(None)
        if self._active <= 0:
            self._mark_drained()

    def _mark_drained(self) -> None:
        self.drained.set()
        if not self._drained_fut.done():
            self._drained_fut.set_result(None)

    async def wait_drained(self) -> None:
        await self._drained_fut


async def _send_closing(writer: asyncio.StreamWriter) -> None:
    payload = Response.failure(
        E_CLOSING, "server is shutting down"
    )
    try:
        writer.write(payload.to_json().encode() + b"\n")
        await writer.drain()
    except (ConnectionError, OSError):
        pass


def _reply_bytes(session, line: str) -> bytes:
    """One request served down to its wire bytes (pool thread)."""
    return session.execute(line).to_json().encode() + b"\n"


def _push_payload(frame: dict) -> Response:
    return Response(
        ok=True,
        kind=frame.get("kind", FRAME_DIFF),
        data=frame,
        version=frame.get("version"),
    )


async def _flush_pushes(
    session, writer: asyncio.StreamWriter, push_event: asyncio.Event
) -> None:
    """Write every queued subscription frame (connection-idle only)."""
    push_event.clear()
    frames = session.take_push_frames()
    if not frames:
        return
    for frame in frames:
        writer.write(_push_payload(frame).to_json().encode() + b"\n")
    await writer.drain()


async def handle_connection(
    service: QueryService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    state: Optional[_ServerState] = None,
) -> None:
    """Serve one client connection: a session for the connection's life."""
    session = service.open_session()
    loop = asyncio.get_running_loop()
    waiter = state.register() if state is not None else None
    # Subscription frames land in the session's bounded queue from the
    # dispatcher thread; the event hops them onto this loop so the idle
    # connection wakes and flushes without polling.
    push_event = asyncio.Event()
    session.on_push = lambda: loop.call_soon_threadsafe(push_event.set)
    #: The in-flight readline, persistent across loop iterations: a push
    #: wake-up must not cancel (and thereby lose) a partial request.
    read_task: Optional[asyncio.Future] = None
    try:
        while True:
            if state is not None and state.closing:
                await _send_closing(writer)
                break
            # Deliver queued push frames while the line is idle — frames
            # only ever appear between a response and the next request,
            # so replies stay unambiguous for naive clients.
            await _flush_pushes(session, writer, push_event)
            if read_task is None:
                read_task = asyncio.ensure_future(reader.readline())
            push_wait = asyncio.ensure_future(push_event.wait())
            waits = {read_task, push_wait}
            if waiter is not None:
                waits.add(waiter)
            try:
                await asyncio.wait(
                    waits, return_when=asyncio.FIRST_COMPLETED
                )
            finally:
                if not push_wait.done():
                    push_wait.cancel()
                    try:
                        await push_wait
                    except asyncio.CancelledError:
                        pass
            if waiter is not None and waiter.done() \
                    and not read_task.done():
                # Shutdown arrived while this connection was idle.
                read_task.cancel()
                try:
                    await read_task
                except (asyncio.CancelledError, Exception):
                    pass
                read_task = None
                await _send_closing(writer)
                break
            if not read_task.done():
                continue                   # woken by a push; flush above
            try:
                raw = read_task.result()
            except (asyncio.LimitOverrunError, ValueError):
                payload = Response.failure(
                    "line_too_long",
                    f"request exceeds {MAX_LINE_BYTES} bytes",
                )
                writer.write(payload.to_json().encode() + b"\n")
                await writer.drain()
                break
            finally:
                read_task = None
            if not raw:
                break                      # EOF: client went away
            line = raw.decode("utf-8", errors="replace").strip()
            if line in (":quit", ":q"):
                writer.write(
                    Response(ok=True, kind="bye").to_json().encode() + b"\n"
                )
                await writer.drain()
                break
            if line == ":repl" or line.startswith(":repl "):
                hub = getattr(service, "hub", None)
                if hub is None:
                    payload = Response.failure(
                        "repl_unavailable",
                        "replication is not enabled on this server",
                    )
                    writer.write(payload.to_json().encode() + b"\n")
                    await writer.drain()
                    continue
                # The connection is dedicated to WAL shipping from here.
                await hub.serve_subscriber(
                    line, reader, writer, shutdown=waiter
                )
                break
            # Session work runs on the service pool: parsing and query
            # evaluation are CPU-bound and must not block the event loop.
            # Blocking waits (:sync) go to the dedicated waiter pool so
            # parked clients never pin query workers.
            # The reply is serialized there too: the loop only writes bytes,
            # so a large answer never stalls the other connections.
            writer.write(await loop.run_in_executor(
                service.executor_for(line), _reply_bytes, session, line
            ))
            await writer.drain()
    except ConnectionError:
        pass                               # mid-session disconnect
    finally:
        session.on_push = None
        if read_task is not None and not read_task.done():
            read_task.cancel()
            try:
                await read_task
            except (asyncio.CancelledError, Exception):
                pass
        if state is not None:
            state.unregister(waiter)
        session.close()                    # discards pending, releases pins
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass                           # forced teardown mid-close


async def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    state: Optional[_ServerState] = None,
) -> asyncio.base_events.Server:
    """Start the asyncio server; ``port=0`` binds an ephemeral port."""
    return await asyncio.start_server(
        lambda r, w: handle_connection(service, r, w, state),
        host,
        port,
        limit=MAX_LINE_BYTES,
    )


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
    """Host the protocol server on a daemon thread; returns its address.

    ``stop()`` drains gracefully: accepting stops immediately, in-flight
    requests run to completion (bounded by ``stop_timeout``) and every
    idle connection receives a ``server_closing`` response before the
    loop is torn down.
    """
    started = threading.Event()
    box: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        async def main() -> None:
            state = _ServerState(asyncio.get_running_loop())
            server = await serve(service, host, port, state=state)
            box["addr"] = server.sockets[0].getsockname()[:2]
            box["loop"] = loop
            box["server"] = server
            box["state"] = state
            started.set()
            try:
                async with server:
                    await server.serve_forever()
            except asyncio.CancelledError:
                pass
            # stop()'s server.close() cancels serve_forever at once;
            # hold the loop open until every connection handler has
            # unregistered (closing responses sent), else the teardown
            # below cancels them mid-send.  A stuck handler is bounded
            # by stop()'s _finish, which cancels this wait too.
            await state.wait_drained()

        try:
            loop.run_until_complete(main())
        except asyncio.CancelledError:
            pass
        finally:
            # Let cancelled handlers run their cleanup before the loop
            # goes away — otherwise teardown leaks "task was destroyed
            # but it is pending" noise on busy shutdowns.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(
        target=runner, name="lps-server", daemon=True
    )
    thread.start()
    if not started.wait(timeout=start_timeout):
        raise RuntimeError(
            f"server failed to start within {start_timeout:g}s"
        )
    bound_host, bound_port = box["addr"]
    loop: asyncio.AbstractEventLoop = box["loop"]
    state: _ServerState = box["state"]
    stopped = threading.Event()

    def stop() -> None:
        if stopped.is_set():
            return
        stopped.set()

        def _begin() -> None:
            box["server"].close()
            state.begin_close()

        def _finish() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()

        if loop.is_running():
            loop.call_soon_threadsafe(_begin)
            state.drained.wait(timeout=stop_timeout)
            if loop.is_running():
                loop.call_soon_threadsafe(_finish)
        thread.join(timeout=stop_timeout)

    return ServerHandle(bound_host, bound_port, stop)


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
