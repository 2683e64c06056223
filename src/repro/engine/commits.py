"""The commit stream: the one way a commit leaves the writer.

A :class:`~repro.engine.maintenance.VersionedModel` owns one
:class:`CommitStream`.  The writer appends a :class:`Commit` per
publication while it holds the write lock; ``:sync`` waiters, the
replication hub and the subscription dispatcher read the stream, never
the writer (DESIGN.md, "Commit stream", has the consumers and their
policies).

The stream is a linked list that holds only its newest entry: an older
one lives exactly as long as some cursor has yet to read it, and a cursor
more than :data:`RETAIN` entries behind is cut loose by the writer, so an
idle stream retains nothing and a stalled consumer a bounded tail.  An
entry is a version number and the bytes the WAL wrote for it, never the
model: a consumer that wants the snapshot resolves the version against
the model's own registry (``keep_versions``), so a stalled cursor costs
its unread records, not ``RETAIN`` copies of the relations they touched.

Lock order: write lock, then the stream's lock; the stream's lock is a
leaf and no callback runs under it.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Optional

logger = logging.getLogger("repro.engine")

#: Unread entries a cursor may leave behind it.  Also the ceiling (and the
#: default) of the replication hub's ``max_queue``: enough to ride out
#: transient stalls (GC pauses, a slow fsync on a follower) without
#: letting a wedged consumer pin records without limit.
RETAIN = 1024


class FellBehind(Exception):
    """The cursor fell off the retained tail; it reads on from where the
    writer cut it loose.  What to do about the commits it skipped is the
    consumer's one policy choice."""


class Commit:
    """One entry: the version the commit published (for a fencing bump,
    the version it was recorded at) and, from a durable model, the line
    the WAL wrote for it (newline included; ``None`` for an unlogged
    publication)."""

    __slots__ = ("version", "line", "_next")

    def __init__(self, version: int, line: Optional[bytes] = None) -> None:
        self.version = version
        self.line = line
        self._next: Optional[Commit] = None


class CommitStream:
    """The bounded in-memory tail of one model's commits."""

    def __init__(self, head: int) -> None:
        #: Version of the newest commit.
        self.head = head
        self._cond = threading.Condition(threading.Lock())
        self._tail = Commit(head)
        self._cursors: list[Cursor] = []

    def append(self, commit: Commit) -> None:
        """Writer only, under the model's write lock."""
        with self._cond:
            for c in self._cursors:
                c._unread += 1
                if c._unread > RETAIN:
                    c._at, c._unread, c._fell = self._tail, 1, True
            self._tail._next = commit
            self._tail = commit
            self.head = commit.version
            wakes = [c._wake for c in self._cursors if c._wake is not None]
            self._cond.notify_all()
        for wake in wakes:
            try:
                wake()
            except Exception:
                # A consumer's connection is gone; never the writer's problem.
                logger.exception("commit stream wake callback failed")

    def wait(self, version: int, timeout: Optional[float] = None) -> int:
        """Block until :attr:`head` reaches ``version`` or the timeout
        expires; returns the head either way."""
        with self._cond:
            self._cond.wait_for(lambda: self.head >= version, timeout)
            return self.head

    def open(
        self, consumer: str, wake: Optional[Callable[[], None]] = None
    ) -> "Cursor":
        """A cursor at the head.  Opened under the model's write lock it
        is gap-free: every later commit is read exactly once, in order.
        ``wake()`` carries nothing; it is called on the writer's thread
        after every append and must not block."""
        with self._cond:
            cursor = Cursor(self, consumer, wake)
            self._cursors.append(cursor)
            return cursor

    def info(self) -> dict:
        """The ``commit_stream`` gauge of ``:stats`` and ``:role``."""
        with self._cond:
            return {
                "head": self.head,
                "retained": max((c._unread for c in self._cursors), default=0),
                "cursors": [
                    {"consumer": c.consumer, "lag_versions": c.lag}
                    for c in self._cursors
                ],
            }


class Cursor:
    """One consumer's position in a :class:`CommitStream`."""

    def __init__(self, stream: CommitStream, consumer: str, wake) -> None:
        #: Who reads here (``:stats`` shows it beside the lag).
        self.consumer = consumer
        #: Version of the last commit read (at first, of the head).
        self.version = stream.head
        self._stream = stream
        #: The last entry read; ``None`` once closed.
        self._at: Optional[Commit] = stream._tail
        self._unread = 0
        self._fell = False
        self._wake = wake

    @property
    def lag(self) -> int:
        """Versions committed since the last one this cursor read."""
        return self._stream.head - self.version

    def read(self, wait: bool = False) -> list[Commit]:
        """Every commit not yet read, in order.  With ``wait`` an empty
        answer means the cursor was closed; without, nothing is unread.
        Raises :class:`FellBehind` once per stretch of skipped commits."""
        cond = self._stream._cond
        with cond:
            if wait:
                cond.wait_for(lambda: self._unread or self._at is None)
            if self._fell:
                self._fell = False
                raise FellBehind(
                    f"{self.consumer} fell more than {RETAIN} commits "
                    f"behind version {self._stream.head}"
                )
            out: list[Commit] = []
            for _ in range(self._unread):
                self._at = self._at._next
                out.append(self._at)
            if out:
                self._unread = 0
                self.version = out[-1].version
            return out

    def close(self) -> None:
        """Stop reading: lets go of the unread tail and wakes a blocked
        :meth:`read`."""
        with self._stream._cond:
            if self._at is not None:
                self._stream._cursors.remove(self)
                # Off the list, this object must not pin the commits to
                # come either.
                self._at, self._unread = None, 0
                self._stream._cond.notify_all()
