"""``DurableModel``: a versioned model whose committed state survives crashes.

The durability discipline is **log-before-publish**:

1. a committed batch is normalized and its net effect predicted against
   the current EDB (the same set algebra ``Database.apply_delta`` uses);
   genuine no-ops publish nothing and are not logged;
2. the batch is appended to the WAL — :meth:`apply_delta` cannot return
   (and the service cannot acknowledge ``:commit``) before the record is
   on disk under the configured fsync policy;
3. only then is the delta applied through the maintenance engine and the
   next version published.

So *acknowledged ⇒ logged*, and recovery replays the log through the same
``MaterializedModel.apply_delta`` engine that produced the live state —
durability reuses the maintenance discipline (``apply_delta ≡ recompute``)
instead of introducing a second evaluation path.  A logged record is
applied in one place, :meth:`DurableModel.apply_record`, by recovery and
by a follower tailing a leader alike.

:meth:`recover` reconstructs a model from a data directory:

* load the **newest loadable checkpoint** (corrupt ones are quarantined to
  ``*.corrupt`` and skipped — with ``keep_checkpoints >= 2`` a torn latest
  checkpoint falls back to its predecessor, whose WAL suffix is retained
  exactly for this);
* replay the WAL records *after* the checkpoint's version, in order,
  without the abort tombstones and what they cancel — a gap, or any
  divergence between log and replayed state, is a
  :class:`~repro.storage.codec.RecoveryError`, never a silently wrong
  model;
* a torn final record (the crash signature) is quarantined and ignored:
  it belongs to a batch that was never acknowledged.

The resulting guarantee, property-tested byte-by-byte in
``tests/test_durability.py``: for a crash at **any** byte boundary of the
recorded run, ``recover(data_dir)`` reproduces exactly the model at the
last acknowledged version.
"""

from __future__ import annotations

import logging
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional

from ..core.errors import EvaluationError
from ..core.program import Program
from ..engine.builtins import DEFAULT_BUILTINS, Builtin
from ..engine.commits import Commit, Cursor
from ..engine.database import Database
from ..engine.evaluation import EvalOptions
from ..engine.maintenance import ModelSnapshot, VersionedModel
from .codec import (
    KIND_DELTA,
    KIND_EPOCH,
    KIND_PROGRAM,
    CodecError,
    RecoveryError,
    StorageError,
    decode_atoms,
    decode_program,
    encode_program,
)
from .checkpoint import (
    checkpoint_version,
    clean_temp_files,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)
from .wal import FSYNC_ALWAYS, WriteAheadLog, committed_records

logger = logging.getLogger("repro.storage")

QUARANTINE_SUFFIX = ".corrupt"


class FencingError(StorageError):
    """A write (or replayed record) carries a stale replication epoch.

    Raised when a record from a fenced old leader reaches a store that
    has already seen a higher epoch — the replication safety property is
    precisely that such writes are *rejected*, never silently merged into
    the promoted lineage.
    """


def has_state(data_dir: Path | str) -> bool:
    """Whether a directory holds recoverable durable state."""
    d = Path(data_dir)
    if not d.is_dir():
        return False
    if list_checkpoints(d):
        return True
    return bool(WriteAheadLog(d).segments())


def save_snapshot(data_dir: Path | str, model: VersionedModel) -> Path:
    """Freeze any versioned model into a fresh durable directory.

    The REPL's ``:save DIR``: writes one checkpoint of the model's current
    program + EDB, creating a directory :meth:`DurableModel.recover` (and
    ``:open DIR``) accepts.  Refuses a directory that already holds state.
    """
    d = Path(data_dir)
    if has_state(d):
        raise StorageError(
            f"{d} already holds durable state; refusing to overwrite it"
        )
    with model.lock:
        mm = model._materialized
        return write_checkpoint(
            d, model.version, mm.program, mm.database, fsync=True,
            epoch=getattr(model, "epoch", 0),
        )


class DurableModel(VersionedModel):
    """A :class:`VersionedModel` with a write-ahead log and checkpoints.

    Same read/write surface as its base (sessions and the query service
    use it unchanged); every committed batch is durable before it is
    acknowledged, and :meth:`checkpoint` bounds recovery time by snapshots
    plus WAL truncation.
    """

    def __init__(
        self,
        program: Program,
        data_dir: Path | str,
        database: Optional[Database] = None,
        builtins: Mapping[str, Builtin] = DEFAULT_BUILTINS,
        options: Optional[EvalOptions] = None,
        keep_versions: int = 8,
        fsync: str = FSYNC_ALWAYS,
        checkpoint_every: Optional[int] = 512,
        keep_checkpoints: int = 2,
        segment_max_bytes: int = 1 << 20,
        base_version: int = 0,
        epoch: int = 0,
        _recovering: bool = False,
    ) -> None:
        if keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be >= 1")
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        if not _recovering and has_state(self.data_dir):
            raise StorageError(
                f"{self.data_dir} already holds durable state; use "
                "DurableModel.recover() or DurableModel.open()"
            )
        if not _recovering:
            # A crash inside checkpoint() — after creating ``ckpt-*.tmp``
            # but before os.replace — leaves an orphan that contributes no
            # durable state, so ``open()`` routes back through this fresh
            # path (recover() sweeps its own).  Sweep here too, or the
            # orphan shadows this store's checkpoints forever.
            clean_temp_files(self.data_dir)
        #: Replication fencing epoch: stamped into every WAL record,
        #: bumped by :meth:`bump_epoch` at promotion (see DESIGN.md,
        #: "Replication & failover").  Single-node stores stay at 0.
        self.epoch = epoch
        self._fsync = fsync
        self._checkpoint_every = checkpoint_every
        self._keep_checkpoints = keep_checkpoints
        self._records_since_checkpoint = 0
        #: The WAL line of a logged operation, from its log write until
        #: :meth:`_notify_commit` puts it on the commit stream (or
        #: :meth:`_abort_logged` drops it); the operation's own
        #: publication stays off the stream meanwhile.
        self._logged: Optional[bytes] = None
        self._closed = False
        self._wal = WriteAheadLog(
            self.data_dir, fsync=fsync, segment_max_bytes=segment_max_bytes
        )
        super().__init__(
            program,
            database,
            builtins=builtins,
            options=options,
            keep_versions=keep_versions,
            base_version=base_version,
        )
        if not _recovering:
            # A fresh store always has a base checkpoint, so recovery never
            # depends on replaying from an empty implicit state.
            self.checkpoint()

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def open(
        cls, program: Program, data_dir: Path | str, **kwargs: Any
    ) -> "DurableModel":
        """Recover an existing store, or create a fresh one from ``program``.

        When the directory holds state, the *stored* program wins —
        ``program`` only seeds brand-new directories.
        """
        if has_state(data_dir):
            kwargs.pop("database", None)
            return cls.recover(data_dir, **kwargs)
        return cls(program, data_dir, **kwargs)

    @classmethod
    def recover(cls, data_dir: Path | str, **options: Any) -> "DurableModel":
        """Reconstruct the model at the last acknowledged version.

        ``options`` are the constructor's store options (``builtins``,
        ``fsync``, ``keep_checkpoints``, ...); the program, EDB, version
        and epoch come from the directory.
        """
        d = Path(data_dir)
        if not has_state(d):
            raise RecoveryError(f"no durable state at {d}")
        clean_temp_files(d)
        base = None
        for path in reversed(list_checkpoints(d)):
            try:
                base = load_checkpoint(path)
                break
            except CodecError as exc:
                quarantined = path.with_name(path.name + QUARANTINE_SUFFIX)
                path.rename(quarantined)
                logger.error(
                    "checkpoint %s is unusable (%s); quarantined to %s and "
                    "falling back to an older checkpoint",
                    path.name, exc, quarantined.name,
                )
        if base is None:
            raise RecoveryError(
                f"{d} holds no loadable checkpoint; cannot recover"
            )
        model = cls.from_image(d, base, **options)
        logger.info(
            "recovered %s at version %d epoch %d (checkpoint %d + %d "
            "replayed records)", d, model.version, model.epoch, base[0],
            model._records_since_checkpoint,
        )
        return model

    @classmethod
    def from_image(
        cls,
        data_dir: Path | str,
        image: tuple[int, int, Program, Database],
        **options: Any,
    ) -> "DurableModel":
        """The store in ``data_dir`` whose newest checkpoint holds the
        decoded ``image`` (:func:`~repro.storage.checkpoint.parse_image`),
        rolled forward through the WAL after it: what :meth:`recover`
        loaded, or what a follower just installed."""
        version, epoch, program, db = image
        model = cls(
            program, data_dir, db, base_version=version - 1, epoch=epoch,
            _recovering=True, **options,
        )
        model._replay(model._wal.recover_records())
        return model

    def close(self) -> None:
        """Flush and release the WAL; further writes are refused."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wal.close()

    def __enter__(self) -> "DurableModel":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- write side (log-before-publish) ------------------------------------------

    def apply_delta(
        self, adds: Iterable[Any] = (), dels: Iterable[Any] = ()
    ) -> ModelSnapshot:
        with self._lock:
            self._check_writable()
            mm = self._materialized
            add_atoms = [mm._check_fact(s) for s in adds]
            del_atoms = [mm._check_fact(s) for s in dels]
            apply = partial(super().apply_delta, add_atoms, del_atoms)
            # Predict the net effect with the same set algebra
            # Database.apply_delta uses: deletions first, then additions.
            db = mm.database
            removed = {a for a in del_atoms if a in db}
            added = {a for a in add_atoms if a not in db or a in removed}
            if not (added - removed) and not (removed - added):
                # True no-op: publishes nothing, so nothing to log.
                return apply()
            target = self._version + 1
            logged = self._wal.append_delta(
                target, add_atoms, del_atoms, epoch=self.epoch
            )
            return self._publish_logged(KIND_DELTA, target, logged, apply)

    def replace_program(self, program: Program) -> ModelSnapshot:
        with self._lock:
            self._check_writable()
            source = encode_program(program)  # verified round trip
            target = self._version + 1
            logged = self._wal.append_program(target, source, epoch=self.epoch)
            return self._publish_logged(
                KIND_PROGRAM, target, logged,
                partial(super().replace_program, program),
            )

    def apply_record(
        self, kind: str, data: Any, line: Optional[bytes] = None
    ) -> None:
        """Apply one logged ``delta`` / ``program`` / ``epoch`` record.

        The one rule for what a record may do to a store, whoever brings
        it.  Recovery replays the local WAL through here with no ``line``:
        the record is on disk already, so nothing is logged.  A follower
        hands over each frame of the leader's stream with the ``line`` it
        arrived as: those bytes are appended to the local WAL before the
        record is applied, and go on the commit stream after.

        A record at or below the applied version is skipped (redelivery
        after a reconnect, history a checkpoint covers), as is an epoch
        already adopted.  Refused, with model and WAL untouched: a lower
        epoch than the store has seen (:class:`FencingError` — a fenced
        leader's write), and with :class:`RecoveryError` a malformed
        record, a version gap, an epoch that was never announced, an
        unknown kind, an undecodable or ill-formed payload.
        """
        with self._lock:
            self._check_writable()
            if not isinstance(data, dict) or not isinstance(
                data.get("version"), int
            ):
                raise RecoveryError(
                    f"{kind!r} record carries no version number"
                )
            version = data["version"]
            # Records from before replication carry no epoch: read as 0.
            epoch = data.get("epoch", None if kind == KIND_EPOCH else 0)
            if not isinstance(epoch, int):
                raise RecoveryError(
                    f"{kind!r} record at version {version} carries no "
                    "epoch number"
                )
            if kind == KIND_EPOCH:
                # Fencing bumps are recorded *at* a version, publishing
                # nothing; a regression in the stream is an old leader's
                # lineage spliced after a promotion.
                if epoch < self.epoch:
                    raise FencingError(
                        f"epoch regression: record announces epoch {epoch} "
                        f"after {self.epoch} was already established; "
                        "refusing a fenced lineage"
                    )
                if epoch > self.epoch:
                    # Named as a segment by the next version it can
                    # publish, as the leader's append_epoch names it.
                    self._adopt_epoch(
                        epoch, self._relog(self._version + 1, line)
                    )
                return
            if version <= self._version:
                return
            if version != self._version + 1:
                raise RecoveryError(
                    f"WAL gap: expected version {self._version + 1}, "
                    f"found {version}; refusing to apply past a missing "
                    "record"
                )
            if epoch < self.epoch:
                raise FencingError(
                    f"stale-epoch append: record for version {version} "
                    f"carries epoch {epoch} but the store has seen epoch "
                    f"{self.epoch}; rejecting a fenced leader's write"
                )
            if epoch > self.epoch:
                raise RecoveryError(
                    f"record for version {version} claims epoch {epoch} "
                    f"which no epoch record announced (current "
                    f"{self.epoch}); the log is corrupt"
                )
            check = self._materialized._check_fact
            try:
                if kind == KIND_DELTA:
                    apply = partial(
                        super().apply_delta,
                        [check(a) for a in decode_atoms(data.get("adds", []))],
                        [check(a) for a in decode_atoms(data.get("dels", []))],
                    )
                elif kind == KIND_PROGRAM:
                    apply = partial(
                        super().replace_program,
                        decode_program(data.get("source")),
                    )
                else:
                    raise RecoveryError(f"unknown WAL record kind {kind!r}")
            except (CodecError, EvaluationError) as exc:
                raise RecoveryError(
                    f"record for version {version} is undecodable: {exc}"
                ) from exc
            self._publish_logged(
                kind, version, self._relog(version, line), apply
            )

    def bump_epoch(self, epoch: int) -> None:
        """Raise the fencing epoch (promotion): durable before effective.

        The bump is WAL-logged at the store's current version — epoch
        records publish no model version of their own — and every later
        record carries the new epoch.  :meth:`apply_record` rejects any
        record whose epoch is lower than one already seen, which is what
        fences a deposed leader out of the promoted lineage.
        """
        with self._lock:
            self._check_writable()
            if epoch <= self.epoch:
                raise FencingError(
                    f"cannot move the epoch backwards or in place: "
                    f"current {self.epoch}, requested {epoch}"
                )
            self._adopt_epoch(
                epoch, self._wal.append_epoch(self._version, epoch)
            )

    def subscribe_replication(
        self, from_version: int = 0, wake: Optional[Callable[[], None]] = None
    ) -> tuple[list, Optional[tuple], int, int, Cursor]:
        """Gap-free subscription handoff for WAL shipping.

        Atomically — under the write lock, so no commit can slip between
        the history read and the cursor — read the committed WAL lines
        after ``from_version`` and open a cursor on the commit stream for
        every subsequent commit.  Returns ``(history, image, version,
        epoch, cursor)``.  When the WAL no longer covers ``from_version``
        — always the case for a brand-new follower, because a fresh
        store's initial version lives only in its base checkpoint —
        ``history`` is empty and ``image`` pins the state instead: the
        arguments of :func:`~repro.storage.checkpoint.image_lines`, with
        the frozen database of the current snapshot, for the caller to
        encode once the lock is released.
        """
        with self._lock:
            history = self._wal.records_from(from_version)
            image = None
            if from_version < self._version:
                published = [
                    d["version"] for k, d, _ in history
                    if k in (KIND_DELTA, KIND_PROGRAM)
                ]
                if not published or published[0] != from_version + 1:
                    image = (
                        self._version, self.epoch, self.program,
                        self.current.database,
                    )
                    history = []
            cursor = self.commits.open("replica", wake)
            lines = [line for _, _, line in history]
            return lines, image, self._version, self.epoch, cursor

    def checkpoint(self) -> Path:
        """Snapshot the current state, prune old checkpoints, truncate WAL.

        The newest ``keep_checkpoints`` snapshots are retained; the WAL is
        truncated only through the *oldest retained* checkpoint's version,
        so a later corrupt-latest-checkpoint fallback still finds every
        record it needs.
        """
        with self._lock:
            self._check_writable()
            path = write_checkpoint(
                self.data_dir,
                self._version,
                self._materialized.program,
                self._materialized.database,
                fsync=self._fsync == FSYNC_ALWAYS,
                epoch=self.epoch,
            )
            self._records_since_checkpoint = 0
            kept = list_checkpoints(self.data_dir)
            while len(kept) > self._keep_checkpoints:
                old = kept.pop(0)
                old.unlink()
                logger.info("checkpoint %s pruned", old.name)
            self._wal.truncate_through(checkpoint_version(kept[0]))
            return path

    # -- internals ---------------------------------------------------------------

    def _check_writable(self) -> None:
        if self._closed:
            raise StorageError("durable model is closed")

    def _announce(self, snap: ModelSnapshot) -> None:
        # A logged operation's publication reaches the stream from
        # _notify_commit, with its line; any other goes as it is.
        if self._logged is None:
            super()._announce(snap)

    def _notify_commit(self, kind: str, line: bytes) -> None:
        """Put one logged, applied operation on the commit stream."""
        self._logged = None
        self.commits.append(Commit(self._version, line))

    def _publish_logged(
        self,
        kind: str,
        version: int,
        logged: Optional[bytes],
        apply: Callable[[], ModelSnapshot],
    ) -> ModelSnapshot:
        """The second half of log-before-publish, for every writer: run
        ``apply`` for the record ``logged`` holds (``None`` when replay
        reads it back from the WAL), insist that it published exactly
        ``version``, and only then let the line onto the commit stream."""
        self._logged = logged
        try:
            snap = apply()
        except Exception:
            # Applied nothing (resource limit mid-recompute): tombstone
            # the logged record so replay skips it, then surface the
            # error exactly like the in-memory model would.
            self._abort_logged(version)
            raise
        if snap.version != version:
            self._abort_logged(version)
            raise RecoveryError(
                f"applying the record for version {version} published "
                f"{snap.version}; refusing to continue with a log that "
                "diverges from the state"
            )
        if logged is not None:
            self._notify_commit(kind, logged)
            self._note_record()
        return snap

    def _relog(self, version: int, line: Optional[bytes]) -> Optional[bytes]:
        """Log a record as the line it arrived as; replay brings none."""
        return None if line is None else self._wal.append_line(version, line)

    def _adopt_epoch(self, epoch: int, logged: Optional[bytes]) -> None:
        self.epoch = epoch
        if logged is not None:
            self._notify_commit(KIND_EPOCH, logged)
            self._note_record()

    def _abort_logged(self, version: int) -> None:
        if self._logged is None:
            return
        self._logged = None
        try:
            self._wal.append_abort(version)
        except Exception:  # pragma: no cover - disk gone mid-failure
            logger.exception(
                "could not tombstone WAL version %d after a failed apply",
                version,
            )

    def _note_record(self) -> None:
        self._records_since_checkpoint += 1
        if (
            self._checkpoint_every
            and self._records_since_checkpoint >= self._checkpoint_every
        ):
            self.checkpoint()

    def _replay(self, records: list[tuple[str, Any]]) -> None:
        """Apply the WAL suffix after the recovered checkpoint, strictly.

        Intermediate replayed versions are not retained in the snapshot
        registry (``keep`` is pinned to 1 for the duration): a restart
        deterministically retires every pre-crash version, so a session
        that pinned one gets ``retired_version`` rather than a registry
        whose contents depend on how much WAL happened to be replayed.
        """
        keep, self._keep = self._keep, 1
        start = self._version
        try:
            for kind, data in committed_records(records, start):
                self.apply_record(kind, data)
        finally:
            self._keep = keep
        # Each applied record published exactly the next version.
        self._records_since_checkpoint = self._version - start
