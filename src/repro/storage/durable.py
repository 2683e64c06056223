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
instead of introducing a second evaluation path.

:meth:`recover` reconstructs a model from a data directory:

* load the **newest loadable checkpoint** (corrupt ones are quarantined to
  ``*.corrupt`` and skipped — with ``keep_checkpoints >= 2`` a torn latest
  checkpoint falls back to its predecessor, whose WAL suffix is retained
  exactly for this);
* replay the WAL records *after* the checkpoint's version, in order,
  skipping abort tombstones and enforcing gap-free version continuity —
  any divergence between log and replayed state is a
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
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional

from ..core.program import Program
from ..engine.builtins import DEFAULT_BUILTINS, Builtin
from ..engine.commits import Commit, Cursor
from ..engine.database import Database
from ..engine.evaluation import EvalOptions
from ..engine.maintenance import ModelSnapshot, VersionedModel
from .codec import (
    KIND_ABORT,
    KIND_DELTA,
    KIND_EPOCH,
    KIND_PROGRAM,
    CodecError,
    RecoveryError,
    StorageError,
    decode_atoms,
    decode_program,
    encode_atom,
    encode_program,
)
from .checkpoint import (
    checkpoint_version,
    clean_temp_files,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)
from .wal import FSYNC_ALWAYS, WriteAheadLog

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
        self._replaying = False
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
    def recover(
        cls,
        data_dir: Path | str,
        builtins: Mapping[str, Builtin] = DEFAULT_BUILTINS,
        options: Optional[EvalOptions] = None,
        keep_versions: int = 8,
        fsync: str = FSYNC_ALWAYS,
        checkpoint_every: Optional[int] = 512,
        keep_checkpoints: int = 2,
        segment_max_bytes: int = 1 << 20,
    ) -> "DurableModel":
        """Reconstruct the model at the last acknowledged version."""
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
        version, epoch, program, db = base
        model = cls(
            program,
            d,
            db,
            builtins=builtins,
            options=options,
            keep_versions=keep_versions,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
            keep_checkpoints=keep_checkpoints,
            segment_max_bytes=segment_max_bytes,
            base_version=version - 1,
            epoch=epoch,
            _recovering=True,
        )
        records = model._wal.recover_records()
        model._replay(records)
        logger.info(
            "recovered %s at version %d epoch %d (checkpoint %d + %d "
            "replayed records)", d, model.version, model.epoch, version,
            model._records_since_checkpoint,
        )
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
            if self._replaying:
                return super().apply_delta(adds=add_atoms, dels=del_atoms)
            # Predict the net effect with the same set algebra
            # Database.apply_delta uses: deletions first, then additions.
            db = mm.database
            removed = {a for a in del_atoms if a in db}
            added = {a for a in add_atoms if a not in db or a in removed}
            if not (added - removed) and not (removed - added):
                # True no-op: publishes nothing, so nothing to log.
                return super().apply_delta(adds=add_atoms, dels=del_atoms)
            target = self._version + 1
            logged = self._logged = self._wal.append_delta(
                target, add_atoms, del_atoms, epoch=self.epoch
            )
            try:
                snap = super().apply_delta(adds=add_atoms, dels=del_atoms)
            except Exception:
                # Applied nothing (resource limit mid-recompute): tombstone
                # the logged record so replay skips it, then surface the
                # error exactly like the in-memory model would.
                self._abort_logged(target)
                raise
            if snap.version != target:
                self._abort_logged(target)
                raise StorageError(
                    f"published version {snap.version} does not match the "
                    f"logged version {target}; refusing to continue with a "
                    "log that diverges from the state"
                )
            self._notify_commit(KIND_DELTA, logged)
            self._note_record()
            return snap

    def replace_program(self, program: Program) -> ModelSnapshot:
        with self._lock:
            self._check_writable()
            if self._replaying:
                return super().replace_program(program)
            source = encode_program(program)  # verified round trip
            target = self._version + 1
            logged = self._logged = self._wal.append_program(
                target, source, epoch=self.epoch
            )
            try:
                snap = super().replace_program(program)
            except Exception:
                self._abort_logged(target)
                raise
            if snap.version != target:  # pragma: no cover - defensive
                self._abort_logged(target)
                raise StorageError(
                    f"program replacement published {snap.version}, "
                    f"logged {target}"
                )
            self._notify_commit(KIND_PROGRAM, logged)
            self._note_record()
            return snap

    def bump_epoch(self, epoch: int) -> None:
        """Raise the fencing epoch (promotion): durable before effective.

        The bump is WAL-logged at the store's current version — epoch
        records publish no model version of their own — and every later
        record carries the new epoch.  Replay (and followers) reject any
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
            logged = self._wal.append_epoch(self._version, epoch)
            self.epoch = epoch
            self._notify_commit(KIND_EPOCH, logged)
            self._note_record()

    def subscribe_replication(
        self, from_version: int = 0, wake: Optional[Callable[[], None]] = None
    ) -> tuple[list, Optional[dict], int, int, Cursor]:
        """Gap-free subscription handoff for WAL shipping.

        Atomically — under the write lock, so no commit can slip between
        the history read and the cursor — read the committed WAL tail
        after ``from_version`` and open a cursor on the commit stream for
        every subsequent commit.  Returns ``(history, snapshot, version,
        epoch, cursor)``; ``snapshot`` is a bootstrap payload (and
        ``history`` restarts after it) when the WAL no longer covers
        ``from_version`` — which is always the case for a brand-new
        follower, because a fresh store's initial version lives only in
        its base checkpoint.
        """
        with self._lock:
            history = self._wal.records_from(from_version)
            snapshot = None
            if from_version < self._version:
                published = [
                    d["version"] for k, d in history
                    if k in (KIND_DELTA, KIND_PROGRAM)
                ]
                if not published or published[0] != from_version + 1:
                    snapshot = self.replication_snapshot()
                    history = []
            cursor = self.commits.open("replica", wake)
            return history, snapshot, self._version, self.epoch, cursor

    def replication_snapshot(self) -> dict:
        """Bootstrap payload for a follower behind the WAL floor: the
        current program + EDB inline — exactly a checkpoint's content,
        shipped as one wire record.  Caller holds the write lock."""
        mm = self._materialized
        return {
            "version": self._version,
            "epoch": self.epoch,
            "mode": mm.program.mode,
            "program": encode_program(mm.program),
            "facts": sorted(
                (encode_atom(a) for a in mm.database.facts()), key=str
            ),
        }

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

    def _abort_logged(self, version: int) -> None:
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
        self._replaying = True
        keep, self._keep = self._keep, 1
        applied = 0
        try:
            i = 0
            while i < len(records):
                kind, data = records[i]
                if not isinstance(data, dict) or not isinstance(
                    data.get("version"), int
                ):
                    raise RecoveryError(
                        f"WAL record {i} carries no version number"
                    )
                version = data["version"]
                if kind == KIND_EPOCH:
                    # Fencing bumps are recorded *at* a version, publishing
                    # nothing; a regression in the stream is an old
                    # leader's lineage spliced after a promotion.
                    epoch = data.get("epoch")
                    if not isinstance(epoch, int):
                        raise RecoveryError(
                            f"epoch record at version {version} carries no "
                            "epoch number"
                        )
                    if epoch < self.epoch:
                        raise FencingError(
                            f"epoch regression in the WAL: record announces "
                            f"epoch {epoch} after {self.epoch} was already "
                            "established; refusing a fenced lineage"
                        )
                    self.epoch = epoch
                    i += 1
                    continue
                if kind == KIND_ABORT or version <= self._version:
                    # A stray tombstone, or a record the checkpoint already
                    # covers (retained for older-checkpoint fallback).
                    i += 1
                    continue
                nxt = records[i + 1] if i + 1 < len(records) else None
                if (
                    nxt is not None
                    and nxt[0] == KIND_ABORT
                    and isinstance(nxt[1], dict)
                    and nxt[1].get("version") == version
                ):
                    # Logged but never applied/acknowledged: skip the pair.
                    i += 2
                    continue
                if version != self._version + 1:
                    raise RecoveryError(
                        f"WAL gap: expected version {self._version + 1}, "
                        f"found {version}; refusing a partial recovery"
                    )
                rec_epoch = data.get("epoch", 0)
                if not isinstance(rec_epoch, int):
                    raise RecoveryError(
                        f"WAL record for version {version} carries a "
                        "malformed epoch"
                    )
                if rec_epoch < self.epoch:
                    raise FencingError(
                        f"stale-epoch append: record for version {version} "
                        f"carries epoch {rec_epoch} but the store has seen "
                        f"epoch {self.epoch}; rejecting a fenced leader's "
                        "write"
                    )
                if rec_epoch > self.epoch:
                    raise RecoveryError(
                        f"record for version {version} claims epoch "
                        f"{rec_epoch} which no epoch record announced "
                        f"(current {self.epoch}); the log is corrupt"
                    )
                try:
                    if kind == KIND_DELTA:
                        snap = self.apply_delta(
                            adds=decode_atoms(data.get("adds", ())),
                            dels=decode_atoms(data.get("dels", ())),
                        )
                    elif kind == KIND_PROGRAM:
                        snap = self.replace_program(
                            decode_program(data.get("source"))
                        )
                    else:
                        raise RecoveryError(
                            f"unknown WAL record kind {kind!r}"
                        )
                except CodecError as exc:
                    raise RecoveryError(
                        f"WAL record for version {version} is "
                        f"undecodable: {exc}"
                    ) from exc
                if snap.version != version:
                    raise RecoveryError(
                        f"replaying version {version} published "
                        f"{snap.version}; the log diverges from the state"
                    )
                applied += 1
                i += 1
        finally:
            self._replaying = False
            self._keep = keep
        self._records_since_checkpoint = applied
