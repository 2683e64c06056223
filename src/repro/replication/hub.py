"""Leader-side WAL shipping: fan commits out, collect follower acks.

A follower opens an ordinary protocol connection and sends
``:repl from N`` — "I have durably applied every version up to N".  The
connection then becomes a dedicated replication stream:

* **downstream** (leader → follower): :mod:`repro.storage.codec` record
  frames, one per line.  First a ``repl-hello`` (the leader's epoch and
  latest version), then — if the leader's WAL no longer covers ``N`` —
  the state image, i.e. the lines of a checkpoint file of the leader's
  program + EDB (:func:`~repro.storage.checkpoint.image_lines`), then
  the committed history after ``N``, then live commits as they happen.
  History and live commits are the WAL's own lines; the image is
  encoded here, on the connection's thread, from a frozen snapshot the
  subscription pinned — off the model's write lock.
* **upstream** (follower → leader): ``:ack V`` lines, "version V is
  durable here".  Acks drive :meth:`ReplicationHub.wait_replicated`, the
  ``ack_replicas`` write-acknowledgement gate.

**Gap freedom.**  :meth:`DurableModel.subscribe_replication` reads the
WAL tail and opens a cursor on the model's commit stream
(:mod:`repro.engine.commits`) under the write lock, so no commit falls
between "what the file held" and "what the cursor reads".  A follower
that stops reading never blocks the leader's writers: once its cursor's
lag passes ``max_queue`` its socket is shut down under the connection's
thread, whose parked ``sendall`` then raises, and it reconnects from
its applied version through the same handoff (DESIGN.md, "Commit
stream").
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Optional

from ..engine import commits
from ..storage.checkpoint import image_lines
from ..storage.codec import KIND_REPL_HELLO, StorageError, encode_record
from ..server.protocol import MAX_LINE_BYTES, Connection
from ..server.session import Response

logger = logging.getLogger("repro.replication")


class ReplicationLagError(StorageError):
    """``ack_replicas`` could not be satisfied in time.

    The write *is* locally durable and published — what failed is the
    replication guarantee the deployment asked for.  Carries the stable
    protocol code ``replication_lag`` so sessions surface it structurally.
    """

    code = "replication_lag"


#: Default bound on a subscriber's lag: all the commit stream retains,
#: which is also the most ``max_queue`` can mean (larger values are
#: clamped: the stream cuts a cursor loose at ``commits.RETAIN`` whatever
#: the hub would have tolerated).
DEFAULT_MAX_QUEUE = commits.RETAIN


class ReplicationHub:
    """Fan a leader's commit stream out to its follower subscribers."""

    def __init__(self, service, max_queue: int = DEFAULT_MAX_QUEUE) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.service = service
        self.model = service.model
        self.max_queue = min(max_queue, commits.RETAIN)
        if not hasattr(self.model, "subscribe_replication"):
            raise StorageError(
                "replication requires a durable model (data_dir); an "
                "in-memory model has no WAL to ship"
            )
        self._ids = 0
        self._cond = threading.Condition()
        #: subscriber id -> highest version it acknowledged as durable.
        self._acks: dict[int, int] = {}

    @classmethod
    def attach(
        cls, service, max_queue: int = DEFAULT_MAX_QUEUE
    ) -> "ReplicationHub":
        """Create a hub and install it as ``service.hub``."""
        hub = cls(service, max_queue=max_queue)
        service.hub = hub
        return hub

    # -- ack bookkeeping (any thread) --------------------------------------------

    def _register(self, from_version: int) -> int:
        with self._cond:
            self._ids += 1
            sub_id = self._ids
            self._acks[sub_id] = from_version
            self._cond.notify_all()
            return sub_id

    def _unregister(self, sub_id: int) -> None:
        with self._cond:
            self._acks.pop(sub_id, None)
            self._cond.notify_all()

    def note_ack(self, sub_id: int, version: int) -> None:
        with self._cond:
            if sub_id in self._acks and version > self._acks[sub_id]:
                self._acks[sub_id] = version
                self._cond.notify_all()

    def replica_info(self) -> dict:
        with self._cond:
            return {
                "replicas": len(self._acks),
                "acked": sorted(self._acks.values(), reverse=True),
            }

    def wait_replicated(
        self, version: int, replicas: int, timeout: float = 30.0
    ) -> None:
        """Block until ``replicas`` followers acked ``version`` durable.

        Called by the service *after* the local commit and *outside* the
        model write lock (stalled acks must not stall other writers).
        Raises :class:`ReplicationLagError` on timeout — the write stays
        locally durable; only the requested replication level failed.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                confirmed = sum(
                    1 for v in self._acks.values() if v >= version
                )
                if confirmed >= replicas:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ReplicationLagError(
                        f"version {version} confirmed durable by only "
                        f"{confirmed}/{replicas} replicas within "
                        f"{timeout:g}s"
                    )
                self._cond.wait(remaining)

    # -- the streaming connection (its own thread) ------------------------------

    def serve_subscriber(self, line: str, conn: Connection) -> None:
        """Run one ``:repl from N`` connection until it drops."""
        from_version = _parse_repl_request(line)
        if from_version is None:
            conn.send(Response.failure(
                "repl_protocol", f"usage: :repl from VERSION (got {line!r})"
            ))
            return
        cursor = None

        def on_commit() -> None:
            # The writer's thread, under the write lock, once per commit.
            # A lag past the bound means the loop below has been parked in
            # sendall() on a stalled socket for max_queue commits: cut the
            # subscriber off rather than retain without bound.  The cut
            # makes the parked sendall() raise, so the stream unwinds; the
            # follower reconnects from its applied version through the
            # image/history handoff.
            if cursor is not None and cursor.lag > self.max_queue:
                logger.warning(
                    "%s is more than %d commits behind (stalled "
                    "consumer); dropping the stream",
                    cursor.consumer, self.max_queue,
                )
                conn.cut()
            conn.poke()

        history, image, version, epoch, cursor = \
            self.model.subscribe_replication(from_version, on_commit)
        sub_id = self._register(from_version)
        cursor.consumer = f"replica {sub_id}"
        logger.info(
            "replica %d subscribed from version %d (leader at %d, "
            "epoch %d, %s)", sub_id, from_version, version, epoch,
            "image bootstrap" if image is not None
            else f"{len(history)} backlog records",
        )
        sock = conn.sock
        try:
            out = [encode_record(KIND_REPL_HELLO, {
                "version": version, "epoch": epoch, "from": from_version,
            }).encode("ascii") + b"\n"]
            if image is not None:
                out += image_lines(*image)
            sock.sendall(b"".join(out + history))
            # The follower hanging up and shutdown end the stream.
            while not conn.closing:
                if conn.wait() and not self._read_acks(conn, sub_id):
                    break
                batch = cursor.read()
                if batch:
                    sock.sendall(b"".join(c.line for c in batch))
        except (ConnectionError, OSError):
            pass
        except commits.FellBehind as exc:
            logger.warning("%s; dropping the stream", exc)
        finally:
            cursor.close()
            self._unregister(sub_id)
            logger.info("replica %d unsubscribed", sub_id)

    def _read_acks(self, conn: Connection, sub_id: int) -> bool:
        """Take the ``:ack N`` lines received; ``False`` once the follower
        hung up or sent a line past ``MAX_LINE_BYTES``."""
        alive = conn.recv()
        *lines, rest = conn.buf.split(b"\n")
        conn.buf[:] = rest
        for raw in lines:
            parts = raw.decode("ascii", errors="replace").split()
            if len(parts) == 2 and parts[0] == ":ack" \
                    and parts[1].isascii() and parts[1].isdigit():
                self.note_ack(sub_id, int(parts[1]))
        return alive and len(rest) <= MAX_LINE_BYTES


def _parse_repl_request(line: str) -> Optional[int]:
    parts = line.split()
    if len(parts) == 3 and parts[0] == ":repl" and parts[1] == "from" \
            and parts[2].isascii() and parts[2].isdigit():
        return int(parts[2])
    return None
