"""Live subscription queries: exact per-commit diffs, proven by replay.

The contract (DESIGN.md, "Live subscription queries"): for every standing
query, the answer set returned at subscription time plus the accumulated
pushed diffs is **bit-identical to a from-scratch evaluation at every
version** — diffs are exact (no echoed unchanged rows, no misses), gap
free (every committed version after the baseline is covered exactly
once), and computed from the commit's per-predicate delta, not by
re-running the query.  The property must hold on every forced path of
the execution pipeline (``tests/paths.py``), for delta-capable goals and for
goals the delta path cannot serve (negation), through unsubscribes
mid-churn, batched writes, session teardown, and on followers applying a
replicated stream.

This module also pins two concurrency fixes: ``:sync`` parks on the
model's version condition (no polling) and blocks only its own
connection's thread, so waiting clients cannot starve queries, and a
subscriber that never drains its diffs is dropped instead of buffering
without bound.
"""

import select
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from paths import PATHS, forced
from repro.engine import Database
from repro.server import (
    E_NOT_YET, LineClient, QueryService, Response, run_in_thread,
)
from repro.server.subscriptions import FRAME_DIFF, FRAME_DROPPED, REASON_SLOW
from repro.workloads import subscriber_plan

TC = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""

#: Closure plus a negation stratum: ``dead`` is *not* delta-capable, so
#: the suite exercises the evaluate-and-diff fallback alongside the
#: delta-plan path in the same run.
PROGRAM = TC + """
n(v0). n(v1). n(v2).
dead(X) :- n(X), not t(X, X).
"""

#: Goal shapes: half-bound, open dump, negation, conjunctive, ground.
GOALS = [
    "t(v0, X)",
    "t(X, Y)",
    "dead(X)",
    "t(X, Y), e(Y, Z)",
    "t(v0, v1)",
]

FACTS = [
    ("e", f"v{a}", f"v{b}") for a in range(4) for b in range(4) if a != b
]


def scratch_rows(facts, goal, program=PROGRAM):
    """From-scratch oracle: a brand-new service over the same facts."""
    db = Database()
    for spec in sorted(facts):
        db.add(*spec)
    with QueryService(program, database=db) as svc:
        result = svc.open_session().query(goal)
        return {tuple(str(t) for t in row) for row in result.rows}


def drain(session, subs):
    """Apply a session's queued diff frames to the per-sub replay state.

    Checks the frame invariants along the way: versions strictly
    increase per subscription, a diff is never empty, adds are new rows
    and dels are live rows.
    """
    for frame in session.take_push_frames():
        assert frame["kind"] == FRAME_DIFF
        entry = subs[frame["sub"]]
        adds = {tuple(r) for r in frame["adds"]}
        dels = {tuple(r) for r in frame["dels"]}
        assert frame["version"] > entry["version"]
        assert frame["vars"] == entry["vars"]
        assert adds or dels
        assert not adds & entry["state"]
        assert dels <= entry["state"]
        entry["version"] = frame["version"]
        entry["state"] = (entry["state"] - dels) | adds


def register(session, subs, goal):
    response = session.subscribe(goal)
    assert response.ok, response.error
    subs[response.data["sub"]] = {
        "goal": goal,
        "vars": response.data["vars"],
        "state": {tuple(r) for r in response.data["rows"]},
        "version": response.version,
    }
    return response.data["sub"]


# ---------------------------------------------------------------------------
# The equivalence property
# ---------------------------------------------------------------------------


class TestDiffEquivalence:
    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_initial_rows_plus_diffs_replay_scratch_evaluation(
        self, path, data
    ):
        """baseline ∪ accumulated diffs ≡ from-scratch, at every version."""
        goal_picks = data.draw(st.lists(
            st.sampled_from(range(len(GOALS))),
            min_size=1, max_size=3, unique=True,
        ))
        ops = data.draw(st.lists(
            st.sampled_from(range(len(FACTS))), min_size=1, max_size=8,
        ))
        replayed = []   # (goal, facts, replayed answer set) per version
        with forced(path):
            svc = QueryService(PROGRAM)
            try:
                session = svc.open_session()
                subs: dict[int, dict] = {}
                for gi in goal_picks:
                    register(session, subs, GOALS[gi])
                live: set[tuple] = set()
                for fi in ops:
                    fact = FACTS[fi]
                    if fact in live:
                        live.discard(fact)
                        svc.apply_delta(dels=[fact])
                    else:
                        live.add(fact)
                        svc.apply_delta(adds=[fact])
                    assert svc.subscriptions.wait_caught_up(
                        svc.model.version
                    )
                    drain(session, subs)
                    replayed += [
                        (e["goal"], frozenset(live), set(e["state"]))
                        for e in subs.values()
                    ]
            finally:
                svc.shutdown()
        # The oracle is the shipped engine, outside the forced block.
        for goal, facts, state in replayed:
            assert state == scratch_rows(facts, goal), (goal, sorted(facts))

    def test_subscriber_plan_replay(self):
        """The workload generator end to end: staggered subscribes and
        unsubscribes riding a churn stream over the full program mix."""
        plan = subscriber_plan(n_batches=10, n_subscribers=5, seed=3)
        db = Database()
        for spec in plan.initial_facts:
            db.add(*spec)
        svc = QueryService(plan.program, database=db)
        try:
            session = svc.open_session()
            subs: dict[int, dict] = {}
            by_goal: dict[int, int] = {}
            for i, batch in enumerate(plan.batches):
                for k, goal in enumerate(plan.goals):
                    if plan.subscribe_at[k] == i:
                        by_goal[k] = register(session, subs, goal)
                    if plan.unsubscribe_at[k] == i and k in by_goal:
                        svc.subscriptions.wait_caught_up(svc.model.version)
                        drain(session, subs)
                        assert session.unsubscribe(by_goal.pop(k)).ok
                svc.apply_delta(adds=batch.adds, dels=batch.dels)
            assert svc.subscriptions.wait_caught_up(svc.model.version)
            drain(session, subs)
            facts = {
                tuple([a.pred, *map(str, a.args)])
                for a in svc.model.current.database.facts()
            }
            for k, sub_id in by_goal.items():
                assert subs[sub_id]["state"] == scratch_rows(
                    facts, plan.goals[k], program=plan.program
                )
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# Lifecycle: unsubscribe, batches, teardown
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_unsubscribe_mid_churn_stops_frames(self):
        svc = QueryService(TC)
        try:
            session = svc.open_session()
            subs: dict[int, dict] = {}
            sub_id = register(session, subs, "t(a, X)")
            svc.apply_delta(adds=[("e", "a", "b")])
            assert svc.subscriptions.wait_caught_up(svc.model.version)
            cutoff = svc.model.version
            assert session.unsubscribe(sub_id).ok
            for x in ("c", "d", "f"):
                svc.apply_delta(adds=[("e", "a", x)])
            assert svc.subscriptions.wait_caught_up(svc.model.version)
            frames = session.take_push_frames()
            assert all(f["version"] <= cutoff for f in frames)
            assert svc.subscriptions.active_count() == 0
        finally:
            svc.shutdown()

    def test_subscribe_inside_batch_diffs_only_at_commit(self):
        """Staged writes are invisible until ``:commit``; the commit then
        arrives as a single diff covering the whole batch."""
        svc = QueryService(TC)
        try:
            session = svc.open_session()
            assert session.execute(":begin").ok
            assert session.execute("+e(a, b)").ok
            subs: dict[int, dict] = {}
            register(session, subs, "t(a, X)")
            assert subs[1]["state"] == set()          # staged, not visible
            assert session.execute("+e(b, c)").ok
            assert session.pending_push_count() == 0  # nothing committed
            assert session.execute(":commit").ok
            assert svc.subscriptions.wait_caught_up(svc.model.version)
            frames = session.take_push_frames()
            assert len(frames) == 1
            assert {tuple(r) for r in frames[0]["adds"]} == {("b",), ("c",)}
        finally:
            svc.shutdown()

    def test_session_close_clears_subscriptions(self):
        svc = QueryService(TC)
        try:
            session = svc.open_session()
            subs: dict[int, dict] = {}
            register(session, subs, "t(X, Y)")
            assert svc.subscriptions.active_count() == 1
            session.close()
            assert svc.subscriptions.active_count() == 0
            svc.apply_delta(adds=[("e", "a", "b")])   # must not blow up
        finally:
            svc.shutdown()

    def test_slow_consumer_is_dropped_not_buffered(self):
        """A session that never drains its diffs loses the subscription
        (with a forced ``sub_dropped`` frame), bounding server memory."""
        svc = QueryService(TC, max_pending_diffs=3)
        try:
            session = svc.open_session()
            subs: dict[int, dict] = {}
            register(session, subs, "t(a, X)")
            for i in range(6):
                svc.apply_delta(adds=[("e", "a", f"x{i}")])
            assert svc.subscriptions.wait_caught_up(svc.model.version)
            assert svc.subscriptions.active_count() == 0
            frames = session.take_push_frames()
            assert [f["kind"] for f in frames[:-1]] == [FRAME_DIFF] * 3
            assert frames[-1]["kind"] == FRAME_DROPPED
            assert frames[-1]["reason"] == REASON_SLOW
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# The protocol path and the follower path
# ---------------------------------------------------------------------------


class TestTransport:
    def test_tcp_pushes_interleave_with_requests(self):
        svc = QueryService(TC)
        with run_in_thread(svc) as handle:
            with LineClient(handle.host, handle.port, timeout=10.0) as sub, \
                    LineClient(handle.host, handle.port,
                               timeout=10.0) as writer:
                response = sub.send(":subscribe t(a, X).")
                assert response.ok and response.data["rows"] == []
                writer.send("+e(a, b).")
                push = sub.recv_push(timeout=10.0)
                assert push is not None and push.kind == FRAME_DIFF
                assert push.data["adds"] == [["b"]]
                # The connection still serves requests after a push, and
                # pushes arriving mid-request are stashed, not lost.
                answer = sub.send("?- t(a, X).")
                assert answer.ok and answer.data["truth"]
                writer.send("+e(b, c).")
                push = sub.recv_push(timeout=10.0)
                assert push is not None and push.data["adds"] == [["c"]]
                # Ownership: another connection cannot cancel the sub.
                foreign = writer.send(":unsubscribe 1")
                assert not foreign.ok
                assert sub.send(":unsubscribe 1").ok
        svc.shutdown()

    def test_subscription_on_a_grouped_predicate(self):
        """``:subscribe`` types its goal against the program like ``?-``
        does: a standing query on a grouped predicate starts from the
        sets and is pushed each regrouping as one row out, one row in."""
        svc = QueryService(TC + "succ(X, <Y>) :- e(X, Y).\n")
        with run_in_thread(svc) as handle:
            with LineClient(handle.host, handle.port, timeout=10.0) as sub, \
                    LineClient(handle.host, handle.port,
                               timeout=10.0) as writer:
                writer.send("+e(a, b).")
                response = sub.send(":subscribe succ(X, S).")
                assert response.ok
                assert response.data["rows"] == [["a", "{b}"]]
                writer.send("+e(a, c).")
                push = sub.recv_push(timeout=10.0)
                assert push is not None and push.kind == FRAME_DIFF
                assert push.data["adds"] == [["a", "{b, c}"]]
                assert push.data["dels"] == [["a", "{b}"]]
        svc.shutdown()

    def test_follower_serves_subscriptions_at_applied_version(self, tmp_path):
        from repro.replication import FollowerService, ReplicationHub

        fast = dict(
            fsync="never", checkpoint_every=None, connect_timeout=2.0,
            read_timeout=0.25, backoff_initial=0.02, backoff_max=0.2,
        )
        svc = QueryService(
            TC, data_dir=tmp_path / "leader", fsync="never",
            checkpoint_every=None,
        )
        ReplicationHub.attach(svc)
        with run_in_thread(svc) as handle:
            follower = FollowerService(
                handle.addr, tmp_path / "f", **fast
            )
            fsvc = follower.start()
            try:
                session = fsvc.open_session()
                subs: dict[int, dict] = {}
                register(session, subs, "t(a, X)")
                for u, v in [("a", "b"), ("b", "c")]:
                    svc.apply_delta(adds=[("e", u, v)])
                assert follower.wait_applied(svc.model.version)
                assert fsvc.subscriptions.wait_caught_up(
                    fsvc.model.version
                )
                drain(session, subs)
                assert subs[1]["state"] == {("b",), ("c",)}
                svc.apply_delta(dels=[("e", "a", "b")])
                assert follower.wait_applied(svc.model.version)
                assert fsvc.subscriptions.wait_caught_up(
                    fsvc.model.version
                )
                drain(session, subs)
                assert subs[1]["state"] == set()
            finally:
                follower.stop()
        svc.shutdown()


# ---------------------------------------------------------------------------
# The :sync bugfix: condition wait, dedicated waiter pool
# ---------------------------------------------------------------------------


class TestSync:
    def test_sync_wakes_on_publish_not_by_polling(self):
        svc = QueryService(TC)
        try:
            session = svc.open_session()
            target = svc.model.version + 1
            woke = []

            def wait():
                woke.append(session.execute(f":sync {target} 10"))

            thread = threading.Thread(target=wait)
            thread.start()
            time.sleep(0.05)           # let the waiter park
            svc.apply_delta(adds=[("e", "a", "b")])
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert woke and woke[0].ok
            assert woke[0].data["latest"] >= target
        finally:
            svc.shutdown()

    def test_sync_timeout_reports_not_yet(self):
        svc = QueryService(TC)
        try:
            session = svc.open_session()
            response = session.execute(
                f":sync {svc.model.version + 5} 0.05"
            )
            assert not response.ok and response.code == E_NOT_YET
            assert response.data["retryable"] is True
        finally:
            svc.shutdown()

    def test_parked_syncs_do_not_starve_queries(self):
        """Concurrent ``:sync`` waits over TCP must leave queries on other
        connections answerable: each parked wait blocks only its own
        connection's thread.  The waits are released by the commit they
        wait for, not by their timeout."""
        svc = QueryService(TC)
        try:
            with run_in_thread(svc) as handle:
                target = svc.model.version + 1
                waiters = [
                    socket.create_connection(
                        (handle.host, handle.port), timeout=10.0
                    )
                    for _ in range(2)
                ]
                try:
                    for sock in waiters:
                        sock.sendall(f":sync {target} 30\n".encode())
                    with LineClient(handle.host, handle.port) as client:
                        start = time.monotonic()
                        answer = client.query("t(X, Y)")
                        elapsed = time.monotonic() - start
                    assert answer.ok
                    assert elapsed < 2.0
                    assert not select.select(waiters, [], [], 0)[0]
                    svc.apply_delta(adds=[("e", "a", "b")])  # commits target
                    for sock in waiters:
                        line = sock.makefile("rb").readline()
                        assert Response.from_json(line.decode()).ok
                finally:
                    for sock in waiters:
                        sock.close()
        finally:
            svc.shutdown()
