"""The concurrent query service: many sessions, one maintained model.

:class:`QueryService` is the process-level front end the TCP protocol and
the REPL both sit on:

* it owns the :class:`~repro.engine.maintenance.VersionedModel` (and with
  it the single write lock and the snapshot registry),
* it hands out :class:`~repro.server.session.Session` objects — one per
  client, whose requests run on the caller's thread (the TCP server
  gives each connection a thread of its own),
* it owns program changes: ``extend_program`` parses the new text with
  the served rules (the REPL's validation discipline), commits its facts
  as one delta and rebuilds under the write lock only for new rules,
* it merges per-session statistics on read (``:stats``), so counters are
  exact under parallel queries without any shared mutable counter on the
  read path.

Reads scale with snapshot isolation: a query pins a published snapshot
and never takes the write lock, so readers proceed while the writer's
maintenance sweep mutates its private copy-on-write state.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Iterable, Mapping, Optional, Union

from ..core.errors import SortError
from ..core.program import Program
from ..engine.builtins import Builtin
from ..engine.database import Database
from ..engine.evaluation import Evaluator
from ..engine.maintenance import ModelSnapshot, VersionedModel, check_fact
from ..engine.setops import with_set_builtins
from ..lang import parse_program, pretty_program
from .session import Session, SessionStats
from .subscriptions import SubscriptionManager


class QueryService:
    """Multiplex concurrent sessions over one versioned model.

    With ``data_dir`` set the service runs in **durable mode**: the model
    is a :class:`~repro.storage.durable.DurableModel`, every committed
    batch is WAL-logged *before* the write (or ``:commit``) is
    acknowledged, and constructing the service over a directory that
    already holds state recovers it — the stored program wins over the
    ``program`` argument, which only seeds brand-new directories.  Either
    way the model evaluates with the default options and never shards.
    """

    #: Session type handed out by :meth:`open_session`; a follower
    #: service swaps in its read-only ``FollowerSession``.
    session_class = Session

    def __init__(
        self,
        program: Union[Program, str, None] = None,
        database: Optional[Database] = None,
        builtins: Optional[Mapping[str, Builtin]] = None,
        keep_versions: int = 8,
        max_batch: int = 10_000,
        data_dir: Optional[Union[str, os.PathLike]] = None,
        fsync: str = "always",
        checkpoint_every: Optional[int] = 512,
        model: Optional[VersionedModel] = None,
        ack_replicas: int = 0,
        ack_timeout: float = 30.0,
        max_pending_diffs: int = 256,
    ) -> None:
        self.max_pending_diffs = max_pending_diffs
        if model is not None:
            # An externally managed model (the follower path: the
            # FollowerService owns a DurableModel the shipping thread
            # writes into, and the service serves reads over it).
            self.max_batch = max_batch
            self.model = model
            self._init_runtime(ack_replicas, ack_timeout)
            return
        if not isinstance(program, Program):
            program = parse_program(program or "")
        self.max_batch = max_batch
        builtins = builtins if builtins is not None else with_set_builtins()
        if data_dir is not None:
            from ..storage.durable import DurableModel

            self.model: VersionedModel = DurableModel.open(
                program,
                data_dir,
                database=database,
                builtins=builtins,
                keep_versions=keep_versions,
                fsync=fsync,
                checkpoint_every=checkpoint_every,
            )
        else:
            self.model = VersionedModel(
                program,
                database,
                builtins=builtins,
                keep_versions=keep_versions,
            )
        self._init_runtime(ack_replicas, ack_timeout)

    def _init_runtime(self, ack_replicas: int, ack_timeout: float) -> None:
        self._sessions: dict[int, Session] = {}
        self._sessions_lock = threading.Lock()
        #: Stats of already-closed sessions (so totals never regress).
        self._retired_stats = SessionStats()
        self._closed = False
        #: Replication attachments (see :mod:`repro.replication`): a
        #: leader gets a ReplicationHub, a follower a FollowerService.
        self.hub = None
        self.follower = None
        self.ack_replicas = ack_replicas
        self.ack_timeout = ack_timeout
        #: Standing-query registry + diff dispatcher (:subscribe).
        self.subscriptions = SubscriptionManager(self)

    # -- sessions ----------------------------------------------------------------

    def open_session(self) -> Session:
        if self._closed:
            raise RuntimeError("service is shut down")
        session = self.session_class(
            self.model, max_batch=self.max_batch, service=self,
            max_pending_diffs=self.max_pending_diffs,
        )
        with self._sessions_lock:
            self._sessions[session.session_id] = session
        return session

    def forget_session(self, session: Session) -> None:
        """Called by ``Session.close``: fold its stats into the retired
        aggregate and stop tracking it."""
        with self._sessions_lock:
            if self._sessions.pop(session.session_id, None) is not None:
                self._retired_stats.merge(session.stats_snapshot())
        self.subscriptions.drop_session(session)

    def session_count(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    # -- writes / program --------------------------------------------------------

    def apply_delta(
        self, adds: Iterable[Any] = (), dels: Iterable[Any] = ()
    ) -> ModelSnapshot:
        """Direct writer entry (the churn generator and benchmarks)."""
        snap = self.model.apply_delta(adds=adds, dels=dels)
        self.wait_replicated(snap.version)
        return snap

    def extend_program(self, text: str) -> ModelSnapshot:
        """Add clause source: parse it after the served rules (typed by
        their own sorts, then the EDB's), validate and stratify the whole,
        check it against the EDB's arities, commit its facts as one delta,
        then swap in the rules if they changed.  A bad clause changes
        nothing; after the delta only a resource limit can fail the
        rebuild, and a retry is idempotent.
        A retracted fact is not in the served rules: it stays retracted.
        """
        with self.model.lock:
            rules = self.model.program
            try:
                program = parse_program(
                    f"{pretty_program(rules)}\n{text}",
                    signatures={
                        **self.model.current.database.signatures,
                        **self.model.sorts,
                    },
                )
            except SortError:
                # A fact the rules read at another sort is refused as a
                # written one is: FactSortError, naming the fact.
                for f in parse_program(text).facts():
                    check_fact(f, self.model.builtins, self.model.sorts)
                raise
            Evaluator(program, builtins=self.model.builtins)
            self.model.current.database.check_program(program)
            snap = self.model.apply_delta(adds=program.facts())
            if program.rules() != rules:
                snap = self.model.replace_program(program.rules())
        self.wait_replicated(snap.version)
        return snap

    # -- replication role --------------------------------------------------------

    def refuse_write(self):
        """Role hook: return a structured refusal ``Response`` when this
        service must not accept writes (a follower), ``None`` otherwise."""
        follower = self.follower
        if follower is not None:
            return follower.refuse_write()
        return None

    def role_info(self) -> dict:
        """The ``:role`` payload: who we are, where we are, who leads."""
        info = {
            "role": "leader",
            "version": self.model.version,
            "epoch": getattr(self.model, "epoch", 0),
            "durable": hasattr(self.model, "data_dir"),
        }
        if self.hub is not None:
            info["replication"] = self.hub.replica_info()
            info["commit_stream"] = self.model.commits.info()
        follower = self.follower
        if follower is not None:
            info.update(follower.role_info())
        return info

    def wait_replicated(self, version: int) -> None:
        """Leader-side ack gating: with ``ack_replicas=k`` a write is not
        acknowledged to its client until *k* followers have confirmed
        durable application of ``version``.  No-op otherwise."""
        if self.hub is not None and self.ack_replicas > 0:
            self.hub.wait_replicated(
                version, self.ack_replicas, timeout=self.ack_timeout
            )

    # -- stats -------------------------------------------------------------------

    def merged_session_stats(self) -> SessionStats:
        """Exact service-wide totals: live sessions + retired aggregate."""
        out = SessionStats()
        with self._sessions_lock:
            live = list(self._sessions.values())
            out.merge(self._retired_stats)
        for session in live:
            out.merge(session.stats_snapshot())
        return out

    def stats_data(self) -> dict:
        """The service-wide ``:stats`` payload (see ``Session.stats_data``)."""
        from .session import stats_payload

        return stats_payload(self.model, self.merged_session_stats())

    # -- lifecycle ---------------------------------------------------------------

    def checkpoint(self):
        """Durable mode: snapshot now and truncate the WAL (no-op otherwise)."""
        checkpoint = getattr(self.model, "checkpoint", None)
        if checkpoint is None:
            return None
        return checkpoint()

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._sessions_lock:
            live = list(self._sessions.values())
        for session in live:
            session.close()
        self.subscriptions.stop()
        close = getattr(self.model, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
