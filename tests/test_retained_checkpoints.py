"""Every retained checkpoint can still recover the head (DESIGN.md,
"Checkpoints").

A store keeps its newest ``keep_checkpoints`` checkpoints and truncates
the WAL only through the oldest of them, so that a corrupt newest
checkpoint falls back to an older one that still finds every record it
needs.  The invariant, stated directly: *for every retained checkpoint,
deleting all newer ones and recovering yields the model at the head
version* — across adds and deletes, epoch bumps, checkpoints, WAL
segment sizes that rotate on every record, every few records or never,
and every retention depth.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro import parse_program
from repro.engine import Database
from repro.engine.setops import with_set_builtins
from repro.storage import DurableModel, list_checkpoints

TC = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""

OPTS = dict(builtins=with_set_builtins(), fsync="never", checkpoint_every=None)


def state(model):
    return (
        model.version, model.epoch,
        sorted(str(a) for a in model.current.interpretation),
        sorted(str(a) for a in model.current.database.facts()),
    )


def recovered_state(data_dir, **kw):
    model = DurableModel.recover(data_dir, **OPTS, **kw)
    try:
        return state(model)
    finally:
        model.close()


def test_epoch_first_segment_keeps_an_older_checkpoints_records(tmp_path):
    """An ``epoch`` record that opens a WAL segment must not let
    truncation drop the segment holding the record an older retained
    checkpoint needs next."""
    model = DurableModel(
        parse_program(TC), tmp_path, Database(), **OPTS,
        keep_checkpoints=2, segment_max_bytes=1 << 20,
    )
    model.apply_delta(adds=[("e", "a", "b")])      # v2
    model.apply_delta(adds=[("e", "b", "c")])      # v3
    model.checkpoint()
    model.apply_delta(adds=[("e", "c", "d")])      # v4
    model._wal.segment_max_bytes = 1               # the bump opens a segment
    model.bump_epoch(1)
    model._wal.segment_max_bytes = 1 << 20
    model.apply_delta(adds=[("e", "d", "e")])      # v5
    model.checkpoint()
    head = state(model)
    model.close()
    list_checkpoints(tmp_path)[-1].write_text("garbage\n")
    assert recovered_state(tmp_path, keep_checkpoints=2) == head


def test_bumps_at_the_readers_own_version_replay_only_the_last(tmp_path):
    """Two promotions with no write between them, then a checkpoint: the
    earlier bump, recorded at the checkpoint's own version, is neither
    replayed nor shipped to a follower sitting at that version."""
    model = DurableModel(parse_program(TC), tmp_path, Database(), **OPTS)
    model.apply_delta(adds=[("e", "a", "b")])
    model.bump_epoch(1)
    model.bump_epoch(2)
    model.checkpoint()
    head = state(model)
    shipped = model._wal.records_from(model.version)
    model.close()
    assert [(k, d["epoch"]) for k, d, _ in shipped] == [("epoch", 2)]
    assert recovered_state(tmp_path) == head


NODES = ["a", "b", "c", "d"]
EDGE = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), EDGE),
        st.tuples(st.just("del"), EDGE),
        st.tuples(st.just("epoch"), st.none()),
        st.tuples(st.just("checkpoint"), st.none()),
    ),
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(
    ops=OPS,
    segment_max_bytes=st.sampled_from([1, 200, 1 << 20]),
    keep_checkpoints=st.sampled_from([1, 2, 3]),
)
def test_every_retained_checkpoint_recovers_the_head(
    ops, segment_max_bytes, keep_checkpoints
):
    store = dict(
        keep_checkpoints=keep_checkpoints, segment_max_bytes=segment_max_bytes
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        model = DurableModel(
            parse_program(TC), root / "store", Database(), **OPTS, **store
        )
        for op, edge in ops:
            if op == "add":
                model.apply_delta(adds=[("e", *edge)])
            elif op == "del":
                model.apply_delta(dels=[("e", *edge)])
            elif op == "epoch":
                model.bump_epoch(model.epoch + 1)
            else:
                model.checkpoint()
        head = state(model)
        model.close()
        retained = list_checkpoints(root / "store")
        assert 1 <= len(retained) <= keep_checkpoints
        for i in range(len(retained)):
            copy = root / f"from-{i}"
            shutil.copytree(root / "store", copy)
            for newer in list_checkpoints(copy)[i + 1:]:
                newer.unlink()
            assert recovered_state(copy, **store) == head
