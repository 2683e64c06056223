"""Checkpoints: the EDB + program at a recorded version — the one state
image, on disk and on the replication wire.

A checkpoint file ``ckpt-%016d.json`` (named by the version it captures)
is a JSON-lines document of :mod:`repro.storage.codec` records::

    checkpoint-header   {version, epoch, mode, program, facts: N}
    fact                {atom}          × N   (sorted, deterministic)
    checkpoint-footer   {facts: N}

:func:`image_lines` encodes those lines and :func:`parse_image` verifies
and decodes them; nothing else builds or reads these records.  A leader
ships the same lines to a follower its WAL cannot catch up, and the
follower installs them as received (:func:`write_image`).

Only the *extensional* state is stored — the program's rules and the
database facts (an older image's program text may still hold facts).
Recovery rebuilds the derived model by evaluation, which
is exactly the engine's correctness anchor (``apply_delta ≡ recompute``):
a checkpoint can never disagree with what from-scratch evaluation of its
facts produces, because it stores nothing else.

**Atomicity.**  :func:`write_image` writes to a ``ckpt-*.tmp`` name,
fsyncs, then atomically renames into place and fsyncs the directory — a
crash mid-write leaves only a temp file, which recovery ignores (and
cleans up).  The footer record doubles as a completeness marker for
filesystems that fail the atomic-rename assumption: a truncated or
bit-flipped checkpoint fails its per-record CRCs or its fact count and is
rejected by :func:`load_checkpoint` — callers then quarantine it and fall
back to an older checkpoint (see ``DurableModel.recover``).
"""

from __future__ import annotations

import logging
import os
from pathlib import Path
from typing import Optional

from ..core.errors import ArityError
from ..core.program import MODE_ELPS, MODE_LPS, Program
from ..engine.database import Database
from .codec import (
    KIND_CKPT_FACT,
    KIND_CKPT_FOOTER,
    KIND_CKPT_HEADER,
    CodecError,
    RecoveryError,
    decode_atom,
    decode_program,
    decode_record,
    encode_atom,
    encode_program,
    encode_record,
)

logger = logging.getLogger("repro.storage")

CHECKPOINT_PREFIX = "ckpt-"
CHECKPOINT_SUFFIX = ".json"
TMP_SUFFIX = ".tmp"


def checkpoint_name(version: int) -> str:
    return f"{CHECKPOINT_PREFIX}{version:016d}{CHECKPOINT_SUFFIX}"


def checkpoint_version(path: Path) -> Optional[int]:
    name = path.name
    if not (
        name.startswith(CHECKPOINT_PREFIX)
        and name.endswith(CHECKPOINT_SUFFIX)
    ):
        return None
    digits = name[len(CHECKPOINT_PREFIX):-len(CHECKPOINT_SUFFIX)]
    return int(digits) if digits.isascii() and digits.isdigit() else None


def list_checkpoints(directory: Path) -> list[Path]:
    """Checkpoint files, oldest first (temp/quarantined files excluded)."""
    out = [
        p for p in Path(directory).iterdir()
        if checkpoint_version(p) is not None
    ]
    return sorted(out, key=lambda p: checkpoint_version(p))


def image_lines(
    version: int, epoch: int, program: Program, database: Database
) -> list[bytes]:
    """The lines (newline-terminated) of a checkpoint of ``(program,
    EDB)`` at ``version``.  ``epoch`` is the replication fencing epoch the
    store held; it survives WAL truncation through the header so a
    recovered store cannot forget it was promoted."""
    facts = sorted(
        (encode_atom(a) for a in database.facts()), key=str
    )
    records = [encode_record(KIND_CKPT_HEADER, {
        "version": version,
        "epoch": epoch,
        "mode": program.mode,
        "program": encode_program(program),
        "facts": len(facts),
    })]
    records.extend(
        encode_record(KIND_CKPT_FACT, {"atom": f}) for f in facts
    )
    records.append(encode_record(KIND_CKPT_FOOTER, {"facts": len(facts)}))
    return [r.encode("ascii") + b"\n" for r in records]


def write_checkpoint(
    directory: Path,
    version: int,
    program: Program,
    database: Database,
    fsync: bool = True,
    epoch: int = 0,
) -> Path:
    """Serialize ``(program, EDB)`` at ``version``; atomic temp+rename."""
    return write_image(
        directory, version, image_lines(version, epoch, program, database),
        fsync=fsync,
    )


def write_image(
    directory: Path, version: int, lines: list[bytes], fsync: bool = True
) -> Path:
    """Install image ``lines`` as the checkpoint for ``version``: written
    to a temp name, fsynced, renamed into place, directory fsynced."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = directory / checkpoint_name(version)
    tmp = directory / (checkpoint_name(version) + TMP_SUFFIX)
    with open(tmp, "wb") as f:
        f.writelines(lines)
        f.flush()
        if fsync:
            os.fsync(f.fileno())
    os.replace(tmp, final)
    if fsync:
        _fsync_dir(directory)
    logger.info("checkpoint %s written (%d facts at version %d)",
                final.name, len(lines) - 2, version)
    return final


def load_checkpoint(path: Path) -> tuple[int, int, Program, Database]:
    """Read, parse and verify one checkpoint file (see :func:`parse_image`);
    its header must also agree with its file name about the version."""
    path = Path(path)
    image = parse_image([l for l in path.read_bytes().split(b"\n") if l])
    named_version = checkpoint_version(path)
    if named_version is not None and named_version != image[0]:
        raise CodecError(
            f"checkpoint {path.name} claims version {image[0]}; "
            "file name disagrees"
        )
    return image


def parse_image(lines: list[bytes]) -> tuple[int, int, Program, Database]:
    """Decode and verify a state image; raises :class:`CodecError` when it
    is torn, bit-flipped, incomplete or otherwise untrustworthy, and
    :class:`RecoveryError` (intact: not quarantined) when it holds a
    predicate at two arities.

    Returns ``(version, epoch, program, database)``; a header without
    an epoch field (written before replication existed) loads as epoch 0.
    """
    if not lines:
        raise CodecError("image is empty")
    records = []
    for i, line in enumerate(lines):
        try:
            records.append(decode_record(line.decode("ascii")))
        except (CodecError, UnicodeDecodeError) as exc:
            raise CodecError(f"line {i + 1}: {exc}") from exc
    kind, header = records[0]
    if kind != KIND_CKPT_HEADER or not isinstance(header, dict):
        raise CodecError("image does not start with a header record")
    version = header.get("version")
    epoch = header.get("epoch", 0)
    n_facts = header.get("facts")
    mode = header.get("mode")
    if (
        not isinstance(version, int)
        or not isinstance(n_facts, int)
        or not isinstance(epoch, int)
        or version < 1
        or epoch < 0
    ):
        raise CodecError("image header is malformed")
    if mode not in (MODE_LPS, MODE_ELPS):
        raise CodecError(f"image has unknown mode {mode!r}")
    kind, footer = records[-1]
    if (
        kind != KIND_CKPT_FOOTER
        or not isinstance(footer, dict)
        or footer.get("facts") != n_facts
    ):
        raise CodecError(
            "image is incomplete (missing or inconsistent footer)"
        )
    body = records[1:-1]
    if len(body) != n_facts:
        raise CodecError(
            f"image holds {len(body)} fact records, header promises "
            f"{n_facts}"
        )
    program = decode_program(header.get("program"))
    if program.mode != mode:
        raise CodecError(
            f"stored program mode {program.mode!r} disagrees with header "
            f"mode {mode!r}"
        )
    db = Database()
    try:
        for kind, data in body:
            if kind != KIND_CKPT_FACT or not isinstance(data, dict):
                raise CodecError(
                    f"image has a stray {kind!r} record in its fact section"
                )
            db.add_atom(decode_atom(data.get("atom")))
        db.check_program(program)
    except ArityError as exc:
        raise RecoveryError(f"image at version {version}: {exc}") from exc
    if len(db) != n_facts:
        # image_lines writes each fact once: a repeated line is a copy.
        raise CodecError(
            f"image holds {len(db)} distinct facts, header promises "
            f"{n_facts}"
        )
    return version, epoch, program, db


def clean_temp_files(directory: Path) -> list[Path]:
    """Remove leftovers of checkpoints that crashed before their rename."""
    removed = []
    for p in Path(directory).glob(f"{CHECKPOINT_PREFIX}*{TMP_SUFFIX}"):
        p.unlink()
        removed.append(p)
        logger.info("removed unfinished checkpoint temp file %s", p.name)
    return removed


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)
