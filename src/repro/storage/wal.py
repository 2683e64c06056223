"""Append-only write-ahead log of committed delta batches.

Layout: a data directory holds numbered **segments** ``wal-%016d.log``,
named by the first version they can publish: their first record's, one
past it when that is an ``epoch`` record.  Records are the JSON-lines
frames of :mod:`repro.storage.codec`, one per line, with strictly
increasing ``version`` fields across the whole log.  Three kinds ride in
the WAL:

* ``delta``    — one committed batch: ``{version, epoch, adds, dels}``
  with atoms in concrete syntax (sorted, so records are deterministic);
* ``program``  — a program replacement: ``{version, epoch, source}``;
* ``abort``    — a tombstone: the *previous* record with the same version
  was logged but its application failed before publication; recovery
  skips the pair (see
  :meth:`repro.storage.durable.DurableModel.apply_delta`);
* ``epoch``    — a fencing bump: ``{version, epoch}`` recorded at
  promotion time.  ``version`` is the version the store held when the
  bump happened (epoch records publish nothing); every later delta and
  program record carries the new epoch, and the judge rejects any record
  whose epoch is *lower* than one already seen — a fenced old leader's
  appends can never sneak into a promoted lineage (see
  DESIGN.md, "Replication & failover").

Records written before the replication PR carry no ``epoch`` field;
decoders treat a missing epoch as ``0``, so pre-existing logs replay
unchanged.

Durability contract.  :meth:`append` returns only after the line is
written and — under the default ``fsync="always"`` policy — flushed to
stable storage, so a batch acknowledged to a client survives any later
crash.  ``fsync="never"`` leaves flushing to the OS (fast, survives
process death but not power loss); both policies keep the byte stream
identical, only the moment of stability differs.

Crash anatomy.  A crash can only tear the **final** record (single
appender, append-only file): recovery treats an undecodable suffix after
the last complete record as torn, moves the bytes to a
``*.quarantine-<n>`` sidecar (never silently discarded), truncates the
segment, and logs what it did.  An undecodable record *before* a decodable
one cannot be produced by a crash — that is corruption, and recovery
refuses with :class:`~repro.storage.codec.RecoveryError` rather than
serve a model missing an acknowledged batch.
"""

from __future__ import annotations

import logging
import os
from pathlib import Path
from typing import Any, Iterable, Optional

from ..core.atoms import Atom
from .codec import (
    KIND_ABORT,
    KIND_DELTA,
    KIND_EPOCH,
    KIND_PROGRAM,
    CodecError,
    RecoveryError,
    decode_record,
    encode_atoms,
    encode_record,
)

logger = logging.getLogger("repro.storage")

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"

#: fsync policies.
FSYNC_ALWAYS = "always"
FSYNC_NEVER = "never"


def _segment_name(version: int) -> str:
    return f"{SEGMENT_PREFIX}{version:016d}{SEGMENT_SUFFIX}"


def _segment_version(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    digits = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    return int(digits) if digits.isascii() and digits.isdigit() else None


class WriteAheadLog:
    """Segmented append-only log in one directory (single appender)."""

    def __init__(
        self,
        directory: os.PathLike | str,
        fsync: str = FSYNC_ALWAYS,
        segment_max_bytes: int = 1 << 20,
    ) -> None:
        if fsync not in (FSYNC_ALWAYS, FSYNC_NEVER):
            raise ValueError(f"unknown fsync policy {fsync!r}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_max_bytes = segment_max_bytes
        self._file = None          # open append handle for the active segment
        self._active: Optional[Path] = None

    # -- inventory ---------------------------------------------------------------

    def segments(self) -> list[Path]:
        """All segment files, oldest first."""
        out = [
            p for p in self.directory.iterdir()
            if _segment_version(p) is not None
        ]
        return sorted(out, key=lambda p: _segment_version(p))

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    # -- appending ---------------------------------------------------------------

    def append_delta(
        self,
        version: int,
        adds: Iterable[Atom],
        dels: Iterable[Atom],
        epoch: int = 0,
    ) -> bytes:
        """Log one committed batch; returns once it is durable."""
        return self._append(KIND_DELTA, version, {
            "version": version,
            "epoch": epoch,
            "adds": encode_atoms(adds),
            "dels": encode_atoms(dels),
        })

    def append_program(
        self, version: int, source: str, epoch: int = 0
    ) -> bytes:
        """Log a program replacement publishing ``version``."""
        return self._append(KIND_PROGRAM, version, {
            "version": version, "epoch": epoch, "source": source,
        })

    def append_abort(self, version: int) -> bytes:
        """Tombstone: the record logged for ``version`` was never applied."""
        return self._append(KIND_ABORT, version, {"version": version})

    def append_epoch(self, version: int, epoch: int) -> bytes:
        """Log a fencing bump to ``epoch`` at the store's ``version``.

        A segment this record opens is named ``version + 1``, the first
        version it can publish: record ``version`` itself sits in the
        previous segment, which :meth:`truncate_through` must keep while
        a checkpoint below ``version`` is retained.
        """
        return self._append(KIND_EPOCH, version + 1, {
            "version": version, "epoch": epoch,
        })

    def _append(self, kind: str, version: int, data: dict) -> bytes:
        """Encode one record — the only time it ever is — and log it."""
        line = encode_record(kind, data).encode("ascii") + b"\n"
        return self.append_line(version, line)

    def append_line(self, version: int, line: bytes) -> bytes:
        """Write one encoded record (newline included) durably; returns
        it.  A follower logs the leader's line through here as it came, and
        every reader downstream (recovery, shipping) gets these bytes.
        ``version`` names the segment if the line opens one."""
        f = self._handle(version, len(line))
        f.write(line)
        f.flush()
        if self.fsync == FSYNC_ALWAYS:
            os.fsync(f.fileno())
        return line

    def _handle(self, version: int, incoming: int):
        """The active segment's append handle, rotating when full."""
        if self._file is None:
            existing = self.segments()
            if existing:
                self._active = existing[-1]
            else:
                self._active = self.directory / _segment_name(version)
            self._file = open(self._active, "ab")
        if (
            self._file.tell() > 0
            and self._file.tell() + incoming > self.segment_max_bytes
        ):
            self.close()
            self._active = self.directory / _segment_name(version)
            self._file = open(self._active, "ab")
        return self._file

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self.fsync == FSYNC_ALWAYS:
                os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    # -- reading / recovery ------------------------------------------------------

    def records_from(self, version: int) -> list[tuple[str, Any, bytes]]:
        """Committed records with ``version > version`` — the tail a
        follower at ``version`` must replay to catch up — each as
        ``(kind, data, line)``, the line being what is shipped.

        Abort tombstones and the failed appends they cancel are dropped
        (the shipping stream only ever carries published history); epoch
        bumps are kept because followers must learn the fencing state.
        Strict like :meth:`records`: an undecodable line raises — the tail
        of a live leader's WAL is only read under the model write lock,
        where a torn final record cannot be observed.
        """
        return committed_records(self._decoded(), from_version=version)

    def records(self) -> list[tuple[str, Any]]:
        """Decode every record, strict: any undecodable line raises."""
        return [(kind, data) for kind, data, _ in self._decoded()]

    def _decoded(self) -> list[tuple[str, Any, bytes]]:
        out: list[tuple[str, Any, bytes]] = []
        for seg in self.segments():
            for i, line in enumerate(self._lines(seg)):
                try:
                    kind, data = decode_record(line)
                except CodecError as exc:
                    raise RecoveryError(
                        f"corrupt WAL record {seg.name}:{i + 1}: {exc}"
                    ) from exc
                raw = line.encode("ascii", errors="surrogateescape")
                out.append((kind, data, raw + b"\n"))
        return out

    def recover_records(self) -> list[tuple[str, Any]]:
        """Decode the log for recovery, repairing a torn tail.

        A decode failure on the **last line of the last segment** is the
        crash signature: the bytes are moved to a quarantine sidecar, the
        segment truncated to its last complete record, and the surviving
        records returned.  A failure anywhere else is corruption and
        raises :class:`RecoveryError` — an acknowledged batch would be
        missing from the replayed state.
        """
        segments = self.segments()
        out: list[tuple[str, Any]] = []
        for seg_idx, seg in enumerate(segments):
            raw = seg.read_bytes()
            lines = raw.split(b"\n")
            # A well-formed segment ends with a newline, so the final
            # split element is empty; anything else is a torn tail.
            complete, tail = lines[:-1], lines[-1]
            good_bytes = 0
            for i, bline in enumerate(complete):
                is_final_line = (
                    seg_idx == len(segments) - 1
                    and i == len(complete) - 1
                    and not tail
                )
                try:
                    text = bline.decode("ascii")
                    rec = decode_record(text)
                except (CodecError, UnicodeDecodeError) as exc:
                    if is_final_line:
                        # Complete line, bad payload, at the very end:
                        # indistinguishable from a torn write that happened
                        # to stop after a stray newline — quarantine it.
                        tail = bline
                        break
                    raise RecoveryError(
                        f"corrupt WAL record {seg.name}:{i + 1} is not the "
                        f"final record; refusing to recover past it: {exc}"
                    ) from exc
                out.append(rec)
                good_bytes += len(bline) + 1
            if tail:
                if seg_idx != len(segments) - 1:
                    raise RecoveryError(
                        f"segment {seg.name} has a torn tail but is not the "
                        "final segment; the log is corrupt"
                    )
                self._quarantine(seg, raw, good_bytes)
        return out

    def _quarantine(self, seg: Path, raw: bytes, good_bytes: int) -> None:
        """Move the torn suffix to a sidecar and truncate the segment."""
        n = 0
        while True:
            sidecar = seg.with_name(f"{seg.name}.quarantine-{n}")
            if not sidecar.exists():
                break
            n += 1
        sidecar.write_bytes(raw[good_bytes:])
        with open(seg, "r+b") as f:
            f.truncate(good_bytes)
            f.flush()
            os.fsync(f.fileno())
        logger.warning(
            "WAL %s: torn final record (%d trailing bytes) quarantined to "
            "%s; recovering through the last complete record",
            seg.name, len(raw) - good_bytes, sidecar.name,
        )

    @staticmethod
    def _lines(seg: Path) -> list[str]:
        text = seg.read_text(encoding="ascii", errors="surrogateescape")
        return [l for l in text.split("\n") if l]

    # -- truncation ---------------------------------------------------------------

    def truncate_through(self, version: int) -> list[Path]:
        """Delete whole segments containing only records ``<= version``.

        Segment boundaries are version-aligned (a segment covers versions
        from its own first version up to the next segment's first version,
        exclusive), so a segment is removable exactly when the *next*
        segment starts at or below ``version + 1``.  The active (last)
        segment is never removed.  Returns the deleted paths.
        """
        segments = self.segments()
        removed: list[Path] = []
        for seg, nxt in zip(segments, segments[1:]):
            if _segment_version(nxt) <= version + 1:
                seg.unlink()
                removed.append(seg)
                logger.info("WAL %s truncated (covered by checkpoint at "
                            "version %d)", seg.name, version)
            else:
                break
        return removed


def committed_records(records: list[tuple], from_version: int = 0) -> list:
    """The published suffix of a list of ``(kind, data, ...)`` records:
    versions ``> from_version``, with abort tombstones and the appends
    they cancel removed.  Records pass through whole and unjudged — one
    without a version number included, for the applier to refuse.

    This is the shared filter between recovery and WAL shipping: a
    ``(record, abort)`` pair for the same version documents a logged batch
    that was never applied or acknowledged, so neither a recovering store
    nor a follower must ever see it.
    """
    out = []
    for rec, nxt in zip(records, [*records[1:], None]):
        kind, data = rec[0], rec[1]
        version = data.get("version") if isinstance(data, dict) else None
        if kind == KIND_ABORT:
            continue
        if (
            nxt is not None
            and nxt[0] == KIND_ABORT
            and isinstance(nxt[1], dict)
            and nxt[1].get("version") == version
        ):
            continue
        if kind == KIND_EPOCH and version == from_version:
            # Bumps recorded at the reader's own version: it may hold any
            # of them already (a checkpoint taken after them, a redelivery)
            # and only the last says what holds from here on — an earlier
            # one would read as a regression.
            out = [
                r for r in out
                if r[0] != KIND_EPOCH or not isinstance(r[1], dict)
                or r[1].get("version") != from_version
            ]
        # Epoch bumps publish no version of their own (they are recorded
        # *at* the store's current version), so a follower sitting exactly
        # on the bump version still needs them; application is idempotent.
        floor = from_version - 1 if kind == KIND_EPOCH else from_version
        if not isinstance(version, int) or version > floor:
            out.append(rec)
    return out
