"""Canonical, versioned, checksummed encoding of terms, atoms and programs.

The durable subsystem stores everything as **JSON-lines records**.  Each
record is one line::

    {"crc": 2847193640, "rec": [1, "delta", {...}]}

where ``rec`` is ``[format_version, kind, data]`` and ``crc`` is the CRC-32
of the *canonical* JSON serialization of ``rec`` (sorted keys, no spaces,
ASCII-only).  Canonical serialization makes the checksum reproducible from
the parsed value, so verification needs no byte-offset bookkeeping: decode
the line, re-serialize ``rec``, compare checksums.

Terms, atoms and programs ride inside records as **concrete LPS syntax**,
reusing the :mod:`repro.lang` pretty-printer and parser instead of a second
serialization format.  That round trip is *structural* — set terms
(canonical :class:`~repro.core.terms.SetValue`), nested ELPS sets, negative
integers, quoted payloads with embedded quotes and keywords all come back
bit-identical (property-tested in ``tests/test_pretty.py``) — and
:func:`encode_atom` / :func:`encode_program` additionally verify their own
round trip at encode time, so a value the concrete syntax cannot express is
a loud :class:`CodecError` at write time, never a silently different model
at recovery time.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Iterable

from ..core.atoms import Atom, atom_order_key
from ..core.errors import LPSError
from ..core.program import Program
from ..lang import parse_atom, parse_program, pretty_atom, pretty_program

#: Bump when the record layout changes; decoders reject other versions.
FORMAT_VERSION = 1

#: Record kinds used by the WAL and checkpoint layers.
KIND_DELTA = "delta"
KIND_PROGRAM = "program"
KIND_ABORT = "abort"
KIND_EPOCH = "epoch"
KIND_CKPT_HEADER = "checkpoint-header"
KIND_CKPT_FACT = "fact"
KIND_CKPT_FOOTER = "checkpoint-footer"

#: The replication stream's greeting, the one record kind that is never
#: in a file (a bootstrap ships the checkpoint's own records).
KIND_REPL_HELLO = "repl-hello"


class StorageError(LPSError):
    """Base class for durable-storage failures."""


class CodecError(StorageError):
    """A record or value cannot be (de)serialized faithfully.

    Raised at *encode* time when a value does not survive its own
    round trip, and at *decode* time on malformed JSON, an unsupported
    format version, or a checksum mismatch.
    """


class RecoveryError(StorageError):
    """Durable state on disk is unusable (see :mod:`repro.storage.durable`).

    Raised when recovery cannot reconstruct a trustworthy model: corruption
    in the middle of the WAL, no loadable checkpoint, or a replay that
    diverges from the logged version numbers.  Never raised for a torn
    *final* WAL record — that is the expected crash signature and is
    quarantined instead.
    """


def _canonical(obj: Any) -> str:
    """The one true JSON serialization (checksums depend on it)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def encode_record(kind: str, data: Any) -> str:
    """One JSON-lines record (no trailing newline)."""
    rec = [FORMAT_VERSION, kind, data]
    crc = zlib.crc32(_canonical(rec).encode("ascii"))
    return _canonical({"crc": crc, "rec": rec})


def decode_record(line: str) -> tuple[str, Any]:
    """Parse and verify one record line; returns ``(kind, data)``.

    Raises :class:`CodecError` on malformed JSON, a record that is not the
    ``{"crc": ..., "rec": [fmt, kind, data]}`` shape, a checksum mismatch,
    or an unsupported format version.
    """
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CodecError(f"unparseable record: {exc}") from exc
    if (
        not isinstance(obj, dict)
        or not isinstance(obj.get("crc"), int)
        or not isinstance(obj.get("rec"), list)
        or len(obj["rec"]) != 3
    ):
        raise CodecError("record is not a {crc, rec:[fmt, kind, data]} object")
    rec = obj["rec"]
    crc = zlib.crc32(_canonical(rec).encode("ascii"))
    if crc != obj["crc"]:
        raise CodecError(
            f"checksum mismatch: stored {obj['crc']}, computed {crc}"
        )
    fmt, kind, data = rec
    if fmt != FORMAT_VERSION:
        raise CodecError(
            f"unsupported record format version {fmt!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    if not isinstance(kind, str):
        raise CodecError(f"record kind {kind!r} is not a string")
    return kind, data


# -- terms / atoms / programs as concrete syntax ------------------------------

def encode_atom(a: Atom) -> str:
    """A ground atom as verified concrete syntax."""
    if not a.is_ground():
        raise CodecError(f"cannot encode non-ground atom {a!r}")
    text = pretty_atom(a)
    try:
        back = parse_atom(text)
    except LPSError as exc:
        raise CodecError(
            f"atom {a!r} does not round-trip through {text!r}: {exc}"
        ) from exc
    if back != a:
        raise CodecError(
            f"atom {a!r} round-trips to a different atom {back!r} "
            f"(via {text!r})"
        )
    return text


def decode_atom(text: str) -> Atom:
    if not isinstance(text, str):
        raise CodecError(f"atom entry {text!r} is not a string")
    try:
        a = parse_atom(text)
    except LPSError as exc:
        raise CodecError(f"bad atom {text!r}: {exc}") from exc
    if not a.is_ground():
        raise CodecError(f"decoded atom {text!r} is not ground")
    return a


def encode_atoms(atoms: Iterable[Atom]) -> list[str]:
    """A deterministic (sorted) list of encoded ground atoms."""
    return [encode_atom(a) for a in sorted(atoms, key=atom_order_key)]


def decode_atoms(texts: Any) -> list[Atom]:
    """A list of encoded atoms, decoded; anything but a list — a string
    or a dict would iterate as characters or keys — is refused."""
    if not isinstance(texts, list):
        raise CodecError(f"atom list is a {type(texts).__name__}, not a list")
    return [decode_atom(t) for t in texts]


def encode_program(p: Program) -> str:
    """A program as verified concrete syntax (multi-line text)."""
    text = pretty_program(p)
    try:
        back = parse_program(text)
    except LPSError as exc:
        raise CodecError(
            f"program does not round-trip through its pretty form: {exc}"
        ) from exc
    if back != p:
        raise CodecError(
            "program round-trips to a structurally different program; "
            "refusing to persist it"
        )
    return text


def decode_program(text: str) -> Program:
    if not isinstance(text, str):
        raise CodecError(f"program payload {text!r} is not a string")
    try:
        return parse_program(text)
    except LPSError as exc:
        raise CodecError(f"bad stored program: {exc}") from exc
