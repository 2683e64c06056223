"""Unit tests for the durable-storage layers: codec, WAL, checkpoints.

The contract under test is *exactness of failure*: every torn or
bit-flipped field of a WAL record or checkpoint file must produce the
specified behavior — :class:`CodecError`/:class:`RecoveryError`, or a
logged quarantine-and-skip for the one legal crash signature (a torn
**final** WAL record) — and never a silently wrong value.  The end-to-end
crash property lives in ``tests/test_durability.py``.
"""

import json
import logging

import pytest

from repro import parse_program
from repro.core import app, atom, const, setvalue
from repro.lang import pretty_program
from repro.storage import (
    CodecError,
    DurableModel,
    RecoveryError,
    WriteAheadLog,
    decode_record,
    encode_record,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)
from repro.storage.checkpoint import clean_temp_files
from repro.storage.codec import (
    FORMAT_VERSION,
    decode_atom,
    decode_atoms,
    decode_program,
    encode_atom,
    encode_program,
)
from repro.engine.database import Database


# ---------------------------------------------------------------------------
# Codec: record framing
# ---------------------------------------------------------------------------

class TestRecordFraming:
    def test_round_trip(self):
        line = encode_record("delta", {"version": 3, "adds": ["e(a, b)"]})
        assert "\n" not in line
        kind, data = decode_record(line)
        assert kind == "delta"
        assert data == {"version": 3, "adds": ["e(a, b)"]}

    def test_bad_json(self):
        with pytest.raises(CodecError, match="unparseable"):
            decode_record("{not json")

    def test_wrong_shape(self):
        for bad in ("[]", '"x"', '{"crc": 1}', '{"rec": [1, "k", {}]}',
                    '{"crc": "x", "rec": [1, "k", {}]}',
                    '{"crc": 1, "rec": [1, "k"]}'):
            with pytest.raises(CodecError, match="crc|unparseable"):
                decode_record(bad)

    def test_crc_detects_any_payload_change(self):
        line = encode_record("delta", {"version": 7, "adds": ["p(a)"]})
        obj = json.loads(line)
        # Tamper with every framing field without fixing the checksum.
        for mutate in (
            lambda o: o["rec"].__setitem__(0, FORMAT_VERSION + 1),
            lambda o: o["rec"].__setitem__(1, "program"),
            lambda o: o["rec"][2].__setitem__("version", 8),
            lambda o: o["rec"][2].__setitem__("adds", ["p(b)"]),
            lambda o: o["rec"][2].__setitem__("extra", 1),
        ):
            tampered = json.loads(line)
            mutate(tampered)
            with pytest.raises(CodecError, match="checksum mismatch"):
                decode_record(json.dumps(tampered))
        # Tampering with the crc itself is equally fatal.
        obj["crc"] ^= 1
        with pytest.raises(CodecError, match="checksum mismatch"):
            decode_record(json.dumps(obj))

    def test_future_format_version_rejected(self):
        line = encode_record("delta", {"version": 1})
        obj = json.loads(line)
        obj["rec"][0] = FORMAT_VERSION + 1
        import zlib
        body = json.dumps(obj["rec"], sort_keys=True,
                          separators=(",", ":"), ensure_ascii=True)
        obj["crc"] = zlib.crc32(body.encode())
        with pytest.raises(CodecError, match="unsupported record format"):
            decode_record(json.dumps(obj, sort_keys=True,
                                     separators=(",", ":")))

    def test_bitflip_every_byte_is_detected(self):
        """No single-bit flip anywhere in a record line decodes cleanly
        to the original payload."""
        line = encode_record("delta", {"version": 3, "adds": ["e(a, b)"]})
        raw = line.encode("ascii")
        original = decode_record(line)
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0x01
            try:
                got = decode_record(flipped.decode("ascii", "replace"))
            except CodecError:
                continue
            assert got != original, f"byte {i}: flip decoded to original"


# ---------------------------------------------------------------------------
# Codec: terms / atoms / programs as concrete syntax
# ---------------------------------------------------------------------------

class TestValueCodec:
    def test_atom_round_trip(self):
        cases = [
            atom("e", const("a"), const("b")),
            atom("n", const(-42)),
            atom("s", setvalue([const(1), const("x y'z")])),
            atom("f1", app("f", const("a"))),
            atom("k", const("true")),
            atom("z"),
        ]
        for a in cases:
            assert decode_atom(encode_atom(a)) == a

    def test_non_ground_atom_rejected(self):
        from repro.core import var_a

        with pytest.raises(CodecError, match="non-ground"):
            encode_atom(atom("p", var_a("X")))
        with pytest.raises(CodecError, match="not ground"):
            decode_atom("p(X)")

    def test_atoms_list_is_sorted_and_typed(self):
        from repro.storage.codec import encode_atoms

        texts = encode_atoms([atom("p", const(2)), atom("p", const(1))])
        assert texts == ["p(1)", "p(2)"]
        with pytest.raises(CodecError, match="not a string"):
            decode_atoms([1])
        with pytest.raises(CodecError, match="bad atom"):
            decode_atoms(["p((("])

    def test_program_round_trip_lps_and_elps(self):
        p = parse_program("""
            t(X, Y) :- e(X, Y).
            t(X, Z) :- e(X, Y), t(Y, Z).
            s(X) :- n(X), not t(X, X).
            sf({1, 2, -3}).
        """)
        assert decode_program(encode_program(p)) == p
        q = parse_program("#elps\nnsf({{1, 2}, {}, 3}).")
        assert decode_program(encode_program(q)) == q

    def test_bad_program_payloads(self):
        with pytest.raises(CodecError, match="not a string"):
            decode_program(None)
        with pytest.raises(CodecError, match="bad stored program"):
            decode_program("p(X :-")


# ---------------------------------------------------------------------------
# WAL
# ---------------------------------------------------------------------------

def _wal_with_records(tmp_path, n=4, **kw):
    wal = WriteAheadLog(tmp_path, fsync="never", **kw)
    for v in range(2, 2 + n):
        wal.append_delta(v, [atom("e", const(f"a{v}"), const("b"))], [])
    wal.close()
    return wal


class TestWal:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        wal.append_delta(2, [atom("e", const("a"), const("b"))],
                         [atom("e", const("b"), const("c"))])
        wal.append_program(3, "p(a).")
        wal.append_abort(4)
        wal.close()
        recs = WriteAheadLog(tmp_path).records()
        assert [k for k, _ in recs] == ["delta", "program", "abort"]
        assert recs[0][1] == {
            "version": 2, "epoch": 0,
            "adds": ["e(a, b)"], "dels": ["e(b, c)"],
        }
        assert recs[1][1] == {"version": 3, "epoch": 0, "source": "p(a)."}
        assert recs[2][1] == {"version": 4}

    def test_segment_rotation_and_truncation(self, tmp_path):
        wal = _wal_with_records(tmp_path, n=6, segment_max_bytes=100)
        segs = wal.segments()
        assert len(segs) > 1
        # Order and content survive rotation.
        versions = [d["version"] for _, d in wal.records()]
        assert versions == [2, 3, 4, 5, 6, 7]
        # Truncation removes only fully-covered, non-active segments.
        wal.truncate_through(versions[-1])
        remaining = wal.segments()
        assert len(remaining) == 1
        kept_versions = [d["version"] for _, d in wal.records()]
        assert kept_versions and kept_versions[-1] == 7

    def test_truncate_keeps_uncovered_segments(self, tmp_path):
        wal = _wal_with_records(tmp_path, n=6, segment_max_bytes=100)
        before = wal.segments()
        wal.truncate_through(2)   # only records <= 2 are covered
        after = wal.segments()
        assert after and len(after) >= len(before) - 1
        assert [d["version"] for _, d in wal.records()][-1] == 7

    def test_torn_tail_at_every_byte_of_final_record(self, tmp_path, caplog):
        """Truncating anywhere inside the final record recovers every
        earlier record and quarantines the torn bytes (logged)."""
        wal = _wal_with_records(tmp_path, n=3)
        seg = wal.segments()[0]
        raw = seg.read_bytes()
        lines = raw.split(b"\n")
        last_start = len(raw) - len(lines[-2]) - 1
        for cut in range(last_start + 1, len(raw)):
            seg.write_bytes(raw[:cut])
            for q in tmp_path.glob("*.quarantine-*"):
                q.unlink()
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.storage"):
                recs = WriteAheadLog(tmp_path, fsync="never") \
                    .recover_records()
            assert [d["version"] for _, d in recs] == [2, 3]
            assert list(tmp_path.glob("*.quarantine-*"))
            assert any("torn final record" in r.message
                       for r in caplog.records)
        seg.write_bytes(raw)

    def test_complete_final_line_with_bad_crc_is_quarantined(
        self, tmp_path, caplog
    ):
        wal = _wal_with_records(tmp_path, n=3)
        seg = wal.segments()[0]
        raw = bytearray(seg.read_bytes())
        lines = raw.split(b"\n")
        # Flip one payload bit in the final (complete) record.
        raw[len(raw) - len(lines[-2]) // 2] ^= 0x02
        seg.write_bytes(bytes(raw))
        with caplog.at_level(logging.WARNING, logger="repro.storage"):
            recs = WriteAheadLog(tmp_path, fsync="never").recover_records()
        assert [d["version"] for _, d in recs] == [2, 3]
        assert list(tmp_path.glob("*.quarantine-*"))

    def test_bitflip_in_every_nonfinal_record_raises(self, tmp_path):
        """Corruption before the final record is never skippable: flip one
        bit in each byte region of each non-final record."""
        wal = _wal_with_records(tmp_path, n=3)
        seg = wal.segments()[0]
        raw = seg.read_bytes()
        lines = raw.split(b"\n")
        offset = 0
        for line in lines[:-2]:          # every non-final record
            for i in range(0, len(line), 7):   # sampled byte positions
                tampered = bytearray(raw)
                tampered[offset + i] ^= 0x01
                seg.write_bytes(bytes(tampered))
                with pytest.raises(RecoveryError,
                                   match="not the final record|torn tail"):
                    WriteAheadLog(tmp_path, fsync="never").recover_records()
            offset += len(line) + 1
        seg.write_bytes(raw)

    def test_torn_tail_in_nonfinal_segment_raises(self, tmp_path):
        wal = _wal_with_records(tmp_path, n=6, segment_max_bytes=100)
        segs = wal.segments()
        assert len(segs) > 1
        first = segs[0]
        first.write_bytes(first.read_bytes()[:-3])
        with pytest.raises(RecoveryError, match="not the final segment"):
            WriteAheadLog(tmp_path, fsync="never").recover_records()

    def test_strict_records_raises_even_on_torn_tail(self, tmp_path):
        wal = _wal_with_records(tmp_path, n=2)
        seg = wal.segments()[0]
        seg.write_bytes(seg.read_bytes()[:-5])
        with pytest.raises(RecoveryError, match="corrupt WAL record"):
            WriteAheadLog(tmp_path, fsync="never").records()


# ---------------------------------------------------------------------------
# Recovery idempotence: quarantine sidecars vs truncation, double recovery
# ---------------------------------------------------------------------------

class TestRecoveryIdempotence:
    def test_quarantine_sidecar_orphaned_by_truncation_is_harmless(
        self, tmp_path
    ):
        """A repair leaves a ``*.quarantine-<n>`` sidecar next to its
        segment; when a later checkpoint truncates that segment away,
        the orphaned sidecar must never confuse subsequent recoveries —
        it is evidence, not state."""
        wal = _wal_with_records(tmp_path, n=6, segment_max_bytes=100)
        torn = wal.segments()[-1]
        torn.write_bytes(torn.read_bytes()[:-4])
        recs = WriteAheadLog(tmp_path, fsync="never").recover_records()
        sidecars = list(tmp_path.glob("*.quarantine-*"))
        assert len(sidecars) == 1
        assert sidecars[0].name.startswith(torn.name)
        last = recs[-1][1]["version"]

        # More traffic rotates past the repaired segment, then a
        # checkpoint-driven truncation deletes it — the sidecar stays.
        wal2 = WriteAheadLog(tmp_path, fsync="never",
                             segment_max_bytes=100)
        for v in range(last + 1, last + 5):
            wal2.append_delta(v, [atom("e", const(f"x{v}"), const("y"))],
                              [])
        wal2.close()
        removed = wal2.truncate_through(last + 4)
        assert torn in removed
        assert not torn.exists() and sidecars[0].exists()

        # Recovery is now a pure read: run it twice, demand identical
        # records, an unchanged directory, and no second sidecar.
        def listing():
            return sorted(
                (p.name, p.stat().st_size) for p in tmp_path.iterdir()
            )

        first = WriteAheadLog(tmp_path, fsync="never").recover_records()
        files = listing()
        second = WriteAheadLog(tmp_path, fsync="never").recover_records()
        assert first == second
        assert listing() == files
        assert len(list(tmp_path.glob("*.quarantine-*"))) == 1

    def test_double_recovery_same_dir_is_noop(self, tmp_path):
        """``DurableModel.recover`` twice over one directory: the first
        pass may repair a torn tail; the second must reproduce the same
        version and model while touching nothing on disk."""
        from repro.engine.setops import with_set_builtins

        m = DurableModel(
            parse_program("t(X, Y) :- e(X, Y)."), tmp_path, Database(),
            builtins=with_set_builtins(), fsync="never",
            checkpoint_every=None,
        )
        for i in range(3):
            m.apply_delta(adds=[("e", f"a{i}", "b")], dels=[])
        m.close()
        seg = WriteAheadLog(tmp_path).segments()[-1]
        seg.write_bytes(seg.read_bytes()[:-3])   # crash signature

        def recover():
            model = DurableModel.recover(
                tmp_path, builtins=with_set_builtins(), fsync="never",
                checkpoint_every=None,
            )
            try:
                return (
                    model.version,
                    model.epoch,
                    sorted(str(a) for a in model.current.interpretation),
                    sorted(str(a) for a in model.current.database.facts()),
                )
            finally:
                model.close()

        def listing():
            return sorted(
                (p.name, p.stat().st_size) for p in tmp_path.iterdir()
            )

        first = recover()
        assert first[0] == 3               # the torn fourth batch is gone
        files = listing()
        assert any("quarantine" in name for name, _ in files)
        assert recover() == first
        assert listing() == files          # second recovery wrote nothing


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

PROGRAM = parse_program("""
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
sf({1, 2}).
""")


def _db():
    db = Database()
    db.add("e", "a", "b")
    db.add("e", "b", "c")
    db.add("n", -5)
    return db


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = write_checkpoint(tmp_path, 7, PROGRAM, _db(), fsync=False)
        assert path.name == "ckpt-0000000000000007.json"
        version, epoch, program, db = load_checkpoint(path)
        assert version == 7
        assert epoch == 0
        assert program == PROGRAM
        assert sorted(map(str, db.facts())) == \
            sorted(map(str, _db().facts()))

    def test_truncation_at_every_line_is_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path, 3, PROGRAM, _db(), fsync=False)
        raw = path.read_bytes()
        offsets = [i + 1 for i, b in enumerate(raw) if b == 0x0A]
        for cut in [0, *offsets[:-1]]:
            path.write_bytes(raw[:cut])
            with pytest.raises(CodecError):
                load_checkpoint(path)
        path.write_bytes(raw)
        load_checkpoint(path)   # intact file still loads

    def test_bitflip_every_field_is_rejected(self, tmp_path):
        """Re-frame each record with one field changed but a *stale* CRC:
        every field of header, facts and footer is covered."""
        path = write_checkpoint(tmp_path, 3, PROGRAM, _db(), fsync=False)
        raw_lines = path.read_text().splitlines()
        for ln, line in enumerate(raw_lines):
            obj = json.loads(line)
            fields = list(obj["rec"][2]) if isinstance(obj["rec"][2], dict) \
                else []
            for fieldname in fields:
                tampered = json.loads(line)
                value = tampered["rec"][2][fieldname]
                tampered["rec"][2][fieldname] = (
                    value + 1 if isinstance(value, int) else str(value) + "x"
                )
                new_lines = list(raw_lines)
                new_lines[ln] = json.dumps(tampered)
                path.write_text("\n".join(new_lines) + "\n")
                with pytest.raises(CodecError, match="checksum mismatch"):
                    load_checkpoint(path)
        path.write_text("\n".join(raw_lines) + "\n")
        load_checkpoint(path)

    def test_semantic_corruption_with_valid_crc_is_rejected(self, tmp_path):
        """Even a correctly-checksummed record is rejected when its content
        contradicts the checkpoint structure."""
        path = write_checkpoint(tmp_path, 3, PROGRAM, _db(), fsync=False)
        lines = path.read_text().splitlines()

        def reframe(ln, mutate):
            obj = json.loads(lines[ln])
            fmt, kind, data = obj["rec"]
            kind, data = mutate(kind, data)
            out = list(lines)
            out[ln] = encode_record(kind, data)
            path.write_text("\n".join(out) + "\n")

        # Header promises more facts than the body holds.
        reframe(0, lambda k, d: (k, {**d, "facts": d["facts"] + 1}))
        with pytest.raises(CodecError, match="footer|fact records"):
            load_checkpoint(path)
        # A stray record kind inside the fact section.
        reframe(1, lambda k, d: ("delta", d))
        with pytest.raises(CodecError, match="stray"):
            load_checkpoint(path)
        # Header version disagreeing with the file name.
        reframe(0, lambda k, d: (k, {**d, "version": 99}))
        with pytest.raises(CodecError, match="file name disagrees"):
            load_checkpoint(path)
        # Unknown language mode.
        reframe(0, lambda k, d: (k, {**d, "mode": "prolog"}))
        with pytest.raises(CodecError, match="unknown mode"):
            load_checkpoint(path)

    def test_duplicated_fact_line_is_rejected(self, tmp_path):
        """Each line keeps a valid CRC and the line count still matches
        the header, but the image holds one fact fewer than promised."""
        path = write_checkpoint(tmp_path, 3, PROGRAM, _db(), fsync=False)
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 5                   # header, 3 facts, footer
        path.write_bytes(b"".join([lines[0], lines[1], lines[2], lines[1],
                                   lines[4]]))
        with pytest.raises(CodecError, match="2 distinct facts"):
            load_checkpoint(path)

    def test_missing_footer_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path, 2, PROGRAM, _db(), fsync=False)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CodecError, match="fact records|footer"):
            load_checkpoint(path)

    def test_clean_temp_files(self, tmp_path):
        write_checkpoint(tmp_path, 1, PROGRAM, _db(), fsync=False)
        stray = tmp_path / "ckpt-0000000000000002.json.tmp"
        stray.write_text("half-written")
        removed = clean_temp_files(tmp_path)
        assert [p.name for p in removed] == [stray.name]
        assert len(list_checkpoints(tmp_path)) == 1

    def test_orphan_tmp_swept_on_recovery(self, tmp_path):
        """Crash inside checkpoint() after creating ``ckpt-*.tmp`` but
        before ``os.replace``: the orphan holds no durable state and must
        be swept on the next open, not accumulate forever."""
        m = DurableModel(
            PROGRAM, tmp_path, _db(), fsync="never", checkpoint_every=None,
        )
        m.apply_delta(adds=[("e", "c", "d")], dels=[])
        m.close()
        orphan = tmp_path / "ckpt-0000000000000009.json.tmp"
        orphan.write_text('{"rec": ["half-written')
        model = DurableModel.open(PROGRAM, tmp_path, fsync="never")
        try:
            assert list(tmp_path.glob("*.tmp")) == []
            assert ("c", "d") in model.current.database.relation("e")
        finally:
            model.close()

    def test_orphan_tmp_swept_on_fresh_store(self, tmp_path):
        """Crash during a *fresh* store's very first base checkpoint: the
        directory holds only a ``.tmp``, so ``has_state`` is false and
        ``open()`` takes the fresh-create path — which must sweep the
        orphan too, or it shadows this store's checkpoints forever."""
        orphan = tmp_path / "ckpt-0000000000000000.json.tmp"
        orphan.write_text('{"rec": ["half-written')
        model = DurableModel.open(PROGRAM, tmp_path, fsync="never")
        try:
            model.apply_delta(adds=[("e", "c", "d")], dels=[])
            assert list(tmp_path.glob("*.tmp")) == []
            committed = model.version
        finally:
            model.close()
        reopened = DurableModel.open(PROGRAM, tmp_path, fsync="never")
        try:
            assert reopened.version == committed
            assert ("c", "d") in reopened.current.database.relation("e")
        finally:
            reopened.close()

    def test_list_checkpoints_skips_quarantined(self, tmp_path):
        p1 = write_checkpoint(tmp_path, 1, PROGRAM, _db(), fsync=False)
        write_checkpoint(tmp_path, 2, PROGRAM, _db(), fsync=False)
        p1.rename(p1.with_name(p1.name + ".corrupt"))
        assert [checkpoint.name for checkpoint in
                list_checkpoints(tmp_path)] == \
            ["ckpt-0000000000000002.json"]
