"""Follower side: tail the leader's WAL stream into a local durable model.

A :class:`FollowerService` owns three things:

* a **DurableModel of its own** — every shipped record is re-logged into
  the follower's data directory, as the line it arrived as, before its
  version is published locally, so a follower crash recovers exactly
  like a leader crash (same code path), and a recovered follower resumes
  the stream from its durable applied version, not from zero.  A
  follower the leader's WAL cannot catch up (a fresh one, or one behind
  the checkpoint-truncated floor) receives the leader's **state image**
  instead: the lines of a checkpoint file, verified whole
  (:func:`~repro.storage.checkpoint.parse_image`) before any local state
  is touched, written to disk as received, and opened the way recovery
  opens a checkpoint (:meth:`DurableModel.from_image`);
* the **tail loop** — a daemon thread that connects to the leader, sends
  ``:repl from <applied>``, hands each record frame to
  :meth:`~repro.storage.durable.DurableModel.apply_record` (the one
  place that decides what a record may do to a store, recovery's too),
  acks every applied version, and reconnects with exponential backoff +
  jitter when the stream drops or a frame is refused.  Redelivered
  records (``version <= applied``) are skipped there, so a torn stream
  plus reconnect is idempotent;
* a read-only :class:`~repro.server.service.QueryService` — sessions are
  :class:`FollowerSession`: writes come back ``read_only`` with the
  leader's address, and ``:at N`` beyond the applied high-water mark is
  the *retryable* ``not_yet_applied`` (the version may exist upstream).

**Fencing.**  The follower tracks the leader's epoch from the stream.  A
record carrying a *lower* epoch than the follower has durably seen raises
:class:`~repro.storage.durable.FencingError` and stops the tail loop for
good — that is the deposed leader trying to extend a fenced lineage.
:meth:`FollowerService.promote` is the other side: stop tailing, bump the
local epoch past anything the old leader ever announced, attach a
:class:`~repro.replication.hub.ReplicationHub`, and open for writes.
Version numbers continue monotonically from the applied high-water mark.
"""

from __future__ import annotations

import logging
import select
import socket
import threading
import time
from pathlib import Path
from typing import Any, Optional, Union

from ..engine.setops import with_set_builtins
from ..server.protocol import Backoff
from ..server.service import QueryService
from ..server.session import E_NOT_YET, E_READ_ONLY, Response, Session
from ..storage.codec import (
    KIND_CKPT_FACT,
    KIND_CKPT_FOOTER,
    KIND_CKPT_HEADER,
    KIND_REPL_HELLO,
    CodecError,
    StorageError,
    decode_record,
)
from ..storage.checkpoint import list_checkpoints, parse_image, write_image
from ..storage.durable import DurableModel, FencingError, has_state
from ..storage.wal import FSYNC_ALWAYS, WriteAheadLog

logger = logging.getLogger("repro.replication")


class ReplicationError(StorageError):
    """The replication stream violated its protocol (gap, bad frame,
    refused subscription, divergent replay).  Recoverable by reconnecting
    — unlike :class:`FencingError`, which is terminal for the stream."""


def _parse_addr(addr: Union[str, tuple]) -> tuple[str, int]:
    if isinstance(addr, tuple):
        return addr[0], int(addr[1])
    host, _, port = addr.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()):
        raise ValueError(f"expected HOST:PORT, got {addr!r}")
    return host, int(port)


class FollowerSession(Session):
    """Read-only session over a follower's applied state.

    All divergences from the base session are structural responses: a
    write is ``read_only`` plus the leader's address, ``:at N`` past the
    applied high-water mark is the retryable ``not_yet_applied``, and
    ``:promote`` triggers failover.  After promotion the hooks fall
    through to the base behavior — existing connections become writable
    without reconnecting.
    """

    def _follower(self) -> Optional["FollowerService"]:
        return self._service.follower if self._service is not None else None

    def _future_version(self, version: int, latest: int) -> Response:
        if self._follower() is None:
            return super()._future_version(version, latest)
        with self._lock:
            self.stats.errors += 1
        return Response(
            ok=False, kind="error", code=E_NOT_YET,
            error=(
                f"version {version} is not applied on this follower yet "
                f"(applied up to {latest})"
            ),
            data={"retryable": True, "latest": latest},
        )

    def _promote(self) -> Response:
        follower = self._follower()
        if follower is None:
            return super()._promote()
        data = follower.promote()
        return Response(
            ok=True, kind="role", data=data, version=self._model.version
        )


class FollowerService:
    """Maintain a read-only replica of a leader over the line protocol
    (a :class:`DurableModel`, evaluated with the default options)."""

    def __init__(
        self,
        leader: Union[str, tuple],
        data_dir: Union[str, Path],
        builtins=None,
        keep_versions: int = 8,
        fsync: str = FSYNC_ALWAYS,
        checkpoint_every: Optional[int] = 512,
        max_batch: int = 10_000,
        connect_timeout: float = 5.0,
        read_timeout: float = 5.0,
        backoff_initial: float = 0.05,
        backoff_max: float = 2.0,
    ) -> None:
        self.leader_host, self.leader_port = _parse_addr(leader)
        self.data_dir = Path(data_dir)
        #: What this follower's store is opened with, by restart and
        #: bootstrap alike (both end in :meth:`DurableModel.from_image`).
        self._store = dict(
            builtins=builtins if builtins is not None else with_set_builtins(),
            keep_versions=keep_versions,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
        )
        self._max_batch = max_batch
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self._backoff = Backoff(backoff_initial, backoff_max)
        self.model: Optional[DurableModel] = None
        self.service: Optional[QueryService] = None
        self.promoted = False
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._cond = threading.Condition()
        self._connected = False
        self._fenced = False
        self._leader_epoch = 0
        self._last_error: Optional[str] = None
        self._promote_lock = threading.Lock()
        #: The lines of a state image being received, header first.
        self._image: Optional[list[bytes]] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self, timeout: float = 30.0) -> QueryService:
        """Recover or bootstrap, start tailing, return the read service.

        Blocks until the replica holds *some* applied state: recovered
        locally, or bootstrapped from the leader's state image (a fresh
        store's initial version lives only in its checkpoint, so a new
        follower always starts from a shipped image).
        """
        if has_state(self.data_dir):
            self.model = DurableModel.recover(self.data_dir, **self._store)
        self._thread = threading.Thread(
            target=self._run, name="lps-follower", daemon=True
        )
        self._thread.start()
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.model is None:
                if self._fenced:
                    raise FencingError(
                        self._last_error or "follower was fenced"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(remaining, 0.1))
        if self.model is None:
            self.stop()
            raise ReplicationError(
                f"could not bootstrap from leader {self.leader_host}:"
                f"{self.leader_port} within {timeout:g}s"
                + (f": {self._last_error}" if self._last_error else "")
            )
        service = QueryService(
            model=self.model,
            max_batch=self._max_batch,
        )
        service.follower = self
        service.session_class = FollowerSession
        with self._cond:
            # A floor-lag re-seed may have swapped ``self.model`` while
            # the service was being built; publish the service and the
            # freshest model together so neither can be missed.
            service.model = self.model
            self.service = service
        return self.service

    def stop_tailing(self) -> None:
        """Stop the shipping thread (keeps serving reads)."""
        self._stop.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)

    def stop(self) -> None:
        """Full shutdown: tail loop, service, durable model."""
        self.stop_tailing()
        if self.service is not None:
            self.service.shutdown()        # closes the model too
        elif self.model is not None:
            self.model.close()

    def __enter__(self) -> "FollowerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- role --------------------------------------------------------------------

    def refuse_write(self) -> Response:
        return Response(
            ok=False, kind="error", code=E_READ_ONLY,
            error=(
                "this server is a follower; send writes to the leader"
            ),
            data={"leader": f"{self.leader_host}:{self.leader_port}"},
        )

    def role_info(self) -> dict:
        return {
            "role": "follower",
            "leader": f"{self.leader_host}:{self.leader_port}",
            "connected": self._connected,
            "fenced": self._fenced,
            "leader_epoch": self._leader_epoch,
            "last_error": self._last_error,
        }

    def promote(self) -> dict:
        """Fail over: stop tailing, fence the old lineage, open writes.

        The epoch is bumped past both the follower's durable epoch and
        anything the old leader ever *announced* (hello frames), the bump
        is WAL-logged before it takes effect, and a
        :class:`~repro.replication.hub.ReplicationHub` is attached so
        surviving peers can re-subscribe here.  Idempotent.
        """
        from .hub import ReplicationHub

        with self._promote_lock:
            if self.service is None or self.model is None:
                raise ReplicationError(
                    "cannot promote: the follower is not started"
                )
            if self.promoted:
                return self.service.role_info()
            self.stop_tailing()
            new_epoch = max(self.model.epoch, self._leader_epoch) + 1
            self.model.bump_epoch(new_epoch)
            ReplicationHub.attach(self.service)
            self.service.follower = None   # writes flow from here on
            self.service.session_class = Session
            self.promoted = True
            logger.warning(
                "promoted to leader at version %d epoch %d",
                self.model.version, new_epoch,
            )
            return self.service.role_info()

    def retarget(self, leader: Union[str, tuple]) -> None:
        """Re-point a surviving follower at a newly promoted leader.

        Drops the current stream (if any); the tail loop reconnects to
        the new address from the follower's applied version.  The new
        leader's higher epoch arrives as an ordinary epoch record and is
        adopted durably — while any straggling frame still carrying the
        old leader's epoch is refused as a fenced leader's write.
        """
        host, port = _parse_addr(leader)
        if (host, port) == (self.leader_host, self.leader_port):
            return
        logger.info(
            "retargeting follower from %s:%d to %s:%d",
            self.leader_host, self.leader_port, host, port,
        )
        self.leader_host, self.leader_port = host, port
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def wait_applied(self, version: int, timeout: float = 10.0) -> bool:
        """Test/demo helper: block until ``version`` is applied here."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.model is None or self.model.version < version:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    # -- the tail loop -----------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self._sync_once()
                self._backoff.reset()
            except FencingError as exc:
                with self._cond:
                    self._fenced = True
                    self._last_error = f"{type(exc).__name__}: {exc}"
                    self._cond.notify_all()
                logger.error("follower fenced, tailing stops: %s", exc)
                return
            except (OSError, ConnectionError, StorageError) as exc:
                with self._cond:
                    self._last_error = f"{type(exc).__name__}: {exc}"
                if not self._stop.is_set():
                    logger.warning(
                        "replication stream to %s:%d dropped (%s); "
                        "reconnecting", self.leader_host, self.leader_port,
                        exc,
                    )
            finally:
                self._set_connected(False)
            if self._stop.wait(self._backoff.next_delay()):
                return

    def _sync_once(self) -> None:
        applied = self.model.version if self.model is not None else 0
        sock = socket.create_connection(
            (self.leader_host, self.leader_port),
            timeout=self.connect_timeout,
        )
        self._sock = sock
        try:
            sock.settimeout(self.connect_timeout)   # bounds sendall only
            sock.sendall(f":repl from {applied}\n".encode("ascii"))
            self._set_connected(True)
            # Select-driven line reader: a blocking buffered readline
            # cannot be safely interrupted for heartbeats, so buffer by
            # hand and poll with ``read_timeout`` as the idle interval.
            buf = b""
            while not self._stop.is_set():
                while b"\n" in buf:
                    raw, buf = buf.split(b"\n", 1)
                    raw = raw.strip()
                    if raw:
                        self._handle_line(raw, sock)
                try:
                    ready, _, _ = select.select(
                        [sock], [], [], self.read_timeout
                    )
                except (ValueError, OSError):
                    # The socket was closed under us (stop/sever/retarget).
                    raise ConnectionError(
                        "replication socket closed"
                    ) from None
                if self._stop.is_set():
                    return
                if not ready:
                    # Idle stream: heartbeat our applied version.
                    if self.model is not None:
                        self._ack(sock)
                    continue
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError(
                        "leader closed the replication stream"
                    )
                buf += chunk
        finally:
            self._sock = None
            try:
                sock.close()
            except OSError:
                pass

    def _handle_line(self, raw: bytes, sock: socket.socket) -> None:
        try:
            kind, data = decode_record(raw.decode("ascii"))
        except (CodecError, UnicodeDecodeError) as exc:
            resp = _maybe_response(raw)
            if resp is not None:
                raise ReplicationError(
                    f"leader refused replication: {resp.error} "
                    f"({resp.code})"
                ) from None
            raise ReplicationError(
                f"undecodable replication frame: {exc}"
            ) from exc
        self._apply_record(kind, data, sock, raw + b"\n")

    def _apply_record(
        self, kind: str, data: Any, sock: socket.socket, line: bytes
    ) -> None:
        """One verified frame: the greeting and the state image are
        replication's own; every other kind is a WAL record, which the
        store judges, logs as ``line`` and applies
        (:meth:`DurableModel.apply_record`)."""
        if kind == KIND_REPL_HELLO:
            epoch = data.get("epoch", 0) if isinstance(data, dict) else None
            if not isinstance(epoch, int):
                raise ReplicationError(
                    f"{kind!r} frame carries no usable epoch"
                )
            if self.model is not None and epoch < self.model.epoch:
                raise FencingError(
                    f"leader announces epoch {epoch} but this follower "
                    f"has durably seen epoch {self.model.epoch}; that "
                    "leader was fenced"
                )
            self._leader_epoch = max(self._leader_epoch, epoch)
            self._image = None             # a new stream starts afresh
            return
        if kind == KIND_CKPT_HEADER or self._image is not None:
            self._take_image_line(kind, line)
            if self._image is not None:
                return                     # acked once it is installed
        elif self.model is None:
            raise ReplicationError(
                f"{kind!r} record arrived before any state image or local "
                "state"
            )
        else:
            self.model.apply_record(kind, data, line=line)
            self._note_applied()
        self._ack(sock)

    def _take_image_line(self, kind: str, line: bytes) -> None:
        """Collect one line of a state image; install it after its
        footer."""
        image, self._image = self._image, None
        if kind == KIND_CKPT_HEADER and image is None:
            image = []
        elif image is None or kind not in (KIND_CKPT_FACT, KIND_CKPT_FOOTER):
            raise ReplicationError(
                f"{kind!r} record out of place in a state image"
            )
        image.append(line)
        if kind == KIND_CKPT_FOOTER:
            self._bootstrap(image)
        else:
            self._image = image

    def _bootstrap(self, lines: list[bytes]) -> None:
        """Become the store a received state image describes: verified
        whole first, then installed as this directory's checkpoint and
        opened the way recovery opens one (:meth:`DurableModel.from_image`,
        the facts decoded once)."""
        image = parse_image(lines)
        version, epoch = image[:2]
        if self.model is not None:
            if version <= self.model.version:
                return                     # we already cover it
            if epoch < self.model.epoch:
                raise FencingError(
                    f"state image at epoch {epoch} after this follower "
                    f"durably saw epoch {self.model.epoch}; that leader "
                    "was fenced"
                )
            # The leader only sends a *newer* image when it can no longer
            # replay the gap from its WAL (this follower fell behind the
            # checkpoint-truncated floor).  Local state is a strict-past
            # prefix of the image, so — now that the image has verified
            # whole — discard it and seed afresh.
            logger.warning(
                "behind the leader's WAL floor (local version %d, image "
                "at %d): discarding local state and re-seeding",
                self.model.version, version,
            )
            self._discard_local_state()
        write_image(
            self.data_dir, version, lines,
            fsync=self._store["fsync"] == FSYNC_ALWAYS,
        )
        model = DurableModel.from_image(self.data_dir, image, **self._store)
        with self._cond:
            self.model = model
            if self.service is not None:
                # Re-seed while serving: new sessions read the fresh
                # model; existing sessions keep their pinned snapshots.
                self.service.model = model
            self._cond.notify_all()
        if self.service is not None:
            # Standing queries follow the replacement model; subscribers
            # get one catch-up diff spanning the re-seed jump.
            self.service.subscriptions.retarget(model)
        logger.info(
            "bootstrapped from the leader's state image at version %d "
            "epoch %d (%d facts)", version, epoch, len(lines) - 2,
        )

    def _discard_local_state(self) -> None:
        """Close and delete the local WAL + checkpoints (floor-lag
        re-seed): the caller immediately installs the leader's image in
        the same directory and opens a fresh durable model on it.  The stale
        model object stays installed (closed models still serve reads)
        until the caller swaps in the fresh one, so concurrent readers
        never observe a model-less follower."""
        model = self.model
        if model is not None:
            model.close()
        for p in WriteAheadLog(self.data_dir).segments():
            p.unlink()
        for p in list_checkpoints(self.data_dir):
            p.unlink()

    def _ack(self, sock: socket.socket) -> None:
        sock.sendall(f":ack {self.model.version}\n".encode("ascii"))

    def _note_applied(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _set_connected(self, connected: bool) -> None:
        with self._cond:
            self._connected = connected
            self._cond.notify_all()


def _maybe_response(line: bytes) -> Optional[Response]:
    try:
        return Response.from_json(line)
    except (ValueError, KeyError, TypeError):
        return None
