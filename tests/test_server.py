"""Conformance tests for the query-service layer (`repro.server`).

Two contracts:

* **Equivalence** — session query answers are exactly the model of the
  pinned snapshot: bit-identical to a from-scratch evaluation of the
  database at that version, whether the query runs set-at-a-time through
  the plan executor or on the tuple solver.
* **Structured failure** — every error path (parse error, retired
  version, oversized batch, unsafe query, closed session, unknown
  command) returns a :class:`Response` with a stable ``code`` and leaves
  the shared model fully usable.
"""

import re
import socket
import time

import pytest

from repro import parse_program
from repro.core import atom, const
from repro.core.errors import LPSError
from repro.engine import Database, Evaluator
from repro.engine.setops import with_set_builtins
from repro.server import (
    Backoff,
    E_BATCH,
    E_CLOSED,
    E_CLOSING,
    E_COMMAND,
    E_EVAL,
    E_NOT_YET,
    E_PARSE,
    E_RETIRED,
    E_UNKNOWN_VERSION,
    E_UNSAFE,
    LineClient,
    QueryService,
    Response,
    run_in_thread,
)

TC_SOURCE = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""

STRAT_SOURCE = TC_SOURCE + """
n(a). n(b). n(c).
iso(X) :- n(X), not t(X, X).
"""


def service(source=TC_SOURCE, **kw):
    return QueryService(source, **kw)


def scratch_relation(source, facts, pred):
    db = Database()
    for spec in facts:
        db.add(*spec)
    model = Evaluator(
        parse_program(source), db, builtins=with_set_builtins()
    ).run()
    return model.relation(pred)


class TestSessionQueries:
    def test_pattern_query_matches_scratch(self):
        svc = service()
        s = svc.open_session()
        for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
            s.assert_fact(f"e({u}, {v})")
        got = {tuple(str(t) for t in row)
               for row in s.query("t(a, X)").rows}
        want = {(v,) for u, v in scratch_relation(
            TC_SOURCE,
            [("e", "a", "b"), ("e", "b", "c"), ("e", "c", "d")], "t",
        ) if u == "a"}
        assert got == want
        svc.shutdown()

    def test_conjunctive_query(self):
        svc = service()
        s = svc.open_session()
        for u, v in [("a", "b"), ("b", "a"), ("b", "c")]:
            s.assert_fact(f"e({u}, {v})")
        result = s.query("t(X, Y), e(Y, X)")
        assert ("X", "Y") == result.vars
        rows = {tuple(str(t) for t in r) for r in result.rows}
        # t(X,Y) ∧ e(Y,X): the two orientations of the a↔b cycle (c has
        # no outgoing edge, so t(c, b) never holds).
        assert rows == {("a", "b"), ("b", "a")}
        svc.shutdown()

    def test_query_through_negation_stratum(self):
        svc = service(STRAT_SOURCE)
        s = svc.open_session()
        s.assert_fact("e(a, a)")
        got = {str(r[0]) for r in s.query("iso(X)").rows}
        assert got == {"b", "c"}
        svc.shutdown()

    def test_ground_query_truth(self):
        svc = service()
        s = svc.open_session()
        s.assert_fact("e(a, b)")
        assert s.query("t(a, b)").truth
        assert not s.query("t(b, a)").truth
        svc.shutdown()


class TestSetValuedGoals:
    """A goal is sort-inferred against the served program: ``S`` in
    ``succ(a, S)`` is a set because the program's grouping clause says
    so, not because the goal happens to mention ``M in S``."""

    SOURCE = TC_SOURCE + "succ(X, <Y>) :- e(X, Y).\n"

    def test_grouped_predicate_answers_with_its_sets(self):
        svc = service(self.SOURCE)
        s = svc.open_session()
        for fact in ("e(a, b)", "e(a, c)", "e(b, c)"):
            s.assert_fact(fact)
        bound = s.execute("?- succ(a, S).")
        assert bound.ok and bound.data["rows"] == [{"S": "{b, c}"}]
        free = s.execute("?- succ(X, S).")
        assert free.data["rows"] == [
            {"S": "{b, c}", "X": "a"}, {"S": "{c}", "X": "b"},
        ]
        # The same sets the goal that mentions membership always got.
        members = s.execute("?- succ(a, S), M in S.")
        assert {r["S"] for r in members.data["rows"]} == {"{b, c}"}
        svc.shutdown()

    def test_goals_are_retyped_when_the_program_changes(self):
        svc = service(TC_SOURCE)
        s = svc.open_session()
        s.assert_fact("e(a, b)")
        assert s.execute("?- succ(a, S).").data["rows"] == []
        s.execute("succ(X, <Y>) :- e(X, Y).")
        assert s.execute("?- succ(a, S).").data["rows"] == [{"S": "{b}"}]
        svc.shutdown()


class TestQueryCache:
    def test_plan_cache_is_a_bounded_lru(self, monkeypatch):
        """``QUERY_CACHE_SIZE`` + 1 distinct goal shapes leave the shape
        cache at its cap, and a shape re-asked in between stays a hit (is
        not compiled a second time) while the least recently asked one is
        evicted.  (A text asked before is a hit in the text map and
        leaves the shape map as it is.)  ``cap`` texts of one shape
        compile once, and the text map is bounded by the same cap."""
        import repro.server.session as session_mod
        from repro.lang import goal_shape

        compiled = []
        real = session_mod._CompiledRule

        def counting(clause, builtins):
            compiled.append(str(clause))
            return real(clause, builtins)

        monkeypatch.setattr(session_mod, "_CompiledRule", counting)
        cap = session_mod.QUERY_CACHE_SIZE
        assert cap >= 256
        svc = service()
        s = svc.open_session()
        s.assert_fact("e(a, b)")
        # One shape per predicate name; ``t0`` is the served ``t``.
        texts = ["t(a, X)"] + [f"t{i}(a, X)" for i in range(1, cap + 1)]
        shape = {text: goal_shape(text)[0] for text in texts}
        for text in texts[:cap]:
            s.query(text)
        assert len(s._shapes) == cap and len(compiled) == cap
        # A new text of a cached shape: now the most recent shape.
        assert s.query("t(a, Y)").rows
        assert len(compiled) == cap
        s.query(texts[cap])               # one over: evicts texts[1]
        assert len(s._shapes) == cap
        assert shape[texts[0]] in s._shapes
        assert shape[texts[1]] not in s._shapes
        s.query(texts[0])
        assert len(compiled) == cap + 1
        s.query(texts[1])
        assert len(compiled) == cap + 2

        s = svc.open_session()
        compiled.clear()
        texts = [f"t(v{i}, X{i})" for i in range(cap + 1)]
        for i, text in enumerate(texts):
            assert s.query(text).vars == (f"X{i}",)
        assert len(compiled) == 1
        assert len(s._shapes) == 1 and len(s._texts) == cap
        assert texts[0] not in s._texts and texts[cap] in s._texts
        svc.shutdown()


class TestWriteBatches:
    def test_immediate_writes_publish_versions(self):
        svc = service()
        s = svc.open_session()
        r1 = s.execute("+e(a, b).")
        r2 = s.execute("+e(b, c).")
        assert r1.version == 2 and r2.version == 3
        assert s.execute("-e(b, c).").version == 4
        svc.shutdown()

    def test_batch_commit_is_one_version(self):
        svc = service()
        s = svc.open_session()
        s.execute(":begin")
        for i in range(5):
            assert s.execute(f"+e(v{i}, v{i+1}).").data["staged"] == i + 1
        assert svc.model.version == 1          # nothing published yet
        r = s.execute(":commit")
        assert r.ok and r.version == 2 and r.data["applied"] == 5
        svc.shutdown()

    def test_read_your_writes_flushes_pending(self):
        svc = service()
        s = svc.open_session()
        s.execute(":begin")
        s.execute("+e(a, b).")
        s.execute("+e(b, c).")
        r = s.execute("?- t(a, c).")
        assert r.ok and r.data["truth"] and r.version == 2
        svc.shutdown()

    def test_other_sessions_never_see_pending(self):
        svc = service()
        writer, reader = svc.open_session(), svc.open_session()
        writer.execute(":begin")
        writer.execute("+e(a, b).")
        assert not reader.execute("?- e(a, b).").data["truth"]
        writer.execute(":commit")
        assert reader.execute("?- e(a, b).").data["truth"]
        svc.shutdown()

    def test_abort_discards(self):
        svc = service()
        s = svc.open_session()
        s.execute(":begin")
        s.execute("+e(a, b).")
        assert s.execute(":abort").data["dropped"] == 1
        assert not s.execute("?- e(a, b).").data["truth"]
        svc.shutdown()

    def test_a_staged_fact_of_the_wrong_sort_is_refused_alone(self):
        with service("q(X) :- sf(X).") as svc:
            s = svc.open_session()
            s.execute(":begin")
            assert s.execute("+sf(a).").data == {"staged": 1}
            refused = s.execute("+sf({a}).")
            assert refused.code == "sort_conflict" and "sf({a})" in refused.error
            assert s.execute("?- q(X).").data["rows"] == [{"X": "a"}]
            # A rule that arrives after staging is checked at :commit,
            # which fails and keeps the batch.
            s.execute(":begin")
            assert s.execute("+r({b}).").data == {"staged": 1}
            svc.open_session().add_clause("p(X) :- r(X).")
            assert s.execute(":commit").code == "sort_conflict"
            assert s.execute(":abort").data == {"dropped": 1}

    def test_a_program_fact_of_the_wrong_sort_is_refused_as_a_write(self):
        with service("q(X) :- sf(X).") as svc:
            s = svc.open_session()
            written = s.execute("+sf({c}).")
            line = s.execute("sf({c}).")
            assert written.code == line.code == "sort_conflict"
            assert line.error == written.error
            assert "argument 1 of 'sf'" in written.error
            with pytest.raises(LPSError, match=re.escape(written.error)):
                svc.extend_program("p(b). sf({c}).")
            # A rule whose sorts conflict is no write: a plain sort error.
            assert s.execute("r(S) :- sf(S), a in S.").code == E_EVAL
            assert svc.model.version == 1


class TestTimeTravel:
    def test_at_reads_old_version_and_latest_returns(self):
        svc = service()
        s = svc.open_session()
        s.execute("+e(a, b).")                 # version 2
        s.execute("+e(b, c).")                 # version 3
        assert s.execute(":at 2").ok
        assert not s.execute("?- t(a, c).").data["truth"]
        assert s.execute(":latest").ok
        assert s.execute("?- t(a, c).").data["truth"]
        svc.shutdown()

    def test_noop_write_reports_zero_applied(self):
        svc = service()
        s = svc.open_session()
        assert s.execute("+e(a, b).").data["applied"] == 1
        dup = s.execute("+e(a, b).")
        assert dup.ok and dup.data["applied"] == 0
        assert dup.version == 2                # no new version published
        s.execute(":begin")
        s.execute("+e(a, b).")                 # nets to nothing
        assert s.execute(":commit").data["applied"] == 0
        svc.shutdown()

    def test_at_pins_against_retirement(self):
        """A version a session reads via ``:at`` must not retire out from
        under it while more writes land."""
        svc = service(keep_versions=2)
        s = svc.open_session()
        s.execute("+e(a, b).")                 # version 2
        assert s.execute(":at 2").ok
        for i in range(5):                     # would retire v2 if unpinned
            svc.apply_delta(adds=[("e", f"n{i}", f"m{i}")])
        r = s.execute("?- e(a, b).")
        assert r.ok and r.version == 2 and r.data["truth"]
        s.execute(":latest")                   # releases the pin
        assert not s.execute(":at 2").ok       # now genuinely retired
        svc.shutdown()

    def test_version_report(self):
        svc = service()
        s = svc.open_session()
        s.execute("+e(a, b).")
        data = s.execute(":version").data
        assert data["latest"] == 2 and data["reading"] == 2
        svc.shutdown()

    def test_at_beyond_latest_is_unknown_version(self):
        """``:at N`` for a version that was never created (beyond
        ``latest``, not retired) is its own structured error — on a
        leader the version cannot exist anywhere, so it is not
        retryable."""
        svc = service()
        s = svc.open_session()
        s.execute("+e(a, b).")                 # latest == 2
        r = s.execute(":at 99")
        assert not r.ok and r.code == E_UNKNOWN_VERSION
        assert r.data["latest"] == 2
        # The session still follows the head afterwards.
        assert s.execute("?- e(a, b).").data["truth"]
        assert s.execute(":version").data["reading"] == 2
        svc.shutdown()

    def test_at_beyond_applied_on_follower_is_retryable(self, tmp_path):
        """The same probe against a follower is ``not_yet_applied``:
        the version may exist upstream, so the client can wait-or-retry
        (and ``:sync`` is the wait)."""
        from repro.replication import FollowerService, ReplicationHub

        svc = QueryService(
            TC_SOURCE, data_dir=tmp_path / "leader", fsync="never",
            checkpoint_every=None,
        )
        ReplicationHub.attach(svc)
        with run_in_thread(svc) as h:
            f = FollowerService(
                h.addr, tmp_path / "f", fsync="never",
                checkpoint_every=None, backoff_initial=0.02,
                read_timeout=0.25,
            )
            fsvc = f.start()
            try:
                s = fsvc.open_session()
                r = s.execute(":at 99")
                assert not r.ok and r.code == E_NOT_YET
                assert r.data["retryable"] is True
                assert isinstance(r.data["latest"], int)
            finally:
                f.stop()
        svc.shutdown()


class TestErrorPaths:
    def test_parse_error_is_structured_and_harmless(self):
        svc = service()
        s = svc.open_session()
        s.execute("+e(a, b).")
        bad = s.execute("?- t(a")
        assert not bad.ok and bad.code == E_PARSE
        bad_fact = s.execute("+e(a")
        assert not bad_fact.ok and bad_fact.code == E_PARSE
        # The model survives untouched.
        assert s.execute("?- e(a, b).").data["truth"]
        assert svc.model.version == 2
        svc.shutdown()

    @pytest.mark.parametrize("line, column", [
        ("?- p(²).", 14), ("+p(١).", 3), ("+e(a, 1٣).", 7),
    ])
    def test_non_ascii_digit_is_a_parse_error(self, line, column, caplog):
        """Integers are ASCII digits: ``²`` used to reach ``int()`` and
        fail as an evaluation error, ``١`` used to be stored as ``1``."""
        svc = service()
        s = svc.open_session()
        with caplog.at_level("ERROR", logger="repro.server"):
            r = s.execute(line)
        assert not r.ok and r.code == E_PARSE
        assert r.error.startswith(f"1:{column}: unexpected character")
        assert "unexpected error" not in caplog.text
        assert svc.model.version == 1
        svc.shutdown()

    def test_fact_takes_at_most_one_terminator(self):
        svc = service()
        s = svc.open_session()
        for bad in ("+e(a, b)..", "+e(a, b)...", "+e(a, b). ."):
            r = s.execute(bad)
            assert not r.ok and r.code == E_PARSE, bad
        assert svc.model.version == 1
        assert s.execute("+e(a, b).").ok
        assert s.execute("+e(b, c)").ok
        assert s.execute("-e(b, c) .").ok
        assert svc.model.version == 4
        svc.shutdown()

    def test_non_ascii_constant_is_durable(self, tmp_path):
        """A quoted constant whose text ends in a combining mark is
        written quoted, so the durable store's verify parse accepts it."""
        svc = service(data_dir=str(tmp_path), fsync="never")
        s = svc.open_session()
        for text in ("+e('á', 'ß').", "+e('中', 'éx')."):
            assert s.execute(text).ok, text
        rows = s.execute("?- e(X, Y).").data["rows"]
        assert len(rows) == 2
        svc.shutdown()
        again = QueryService(data_dir=str(tmp_path), fsync="never")
        r = again.open_session().execute("?- e('á', 'ß').")
        assert r.data["truth"]
        again.shutdown()

    def test_non_ground_fact_is_structured(self):
        svc = service()
        s = svc.open_session()
        r = s.execute("+e(a, X).")
        assert not r.ok and "not ground" in r.error
        svc.shutdown()

    def test_retired_version_is_structured(self):
        svc = service(keep_versions=2)
        s = svc.open_session()
        for i in range(4):
            s.execute(f"+e(n{i}, m{i}).")
        r = s.execute(":at 1")
        assert not r.ok and r.code == E_RETIRED
        # Session still follows the head afterwards.
        assert s.execute("?- e(n0, m0).").ok
        svc.shutdown()

    def test_oversized_batch_is_structured(self):
        svc = service(max_batch=3)
        s = svc.open_session()
        s.execute(":begin")
        for i in range(3):
            assert s.execute(f"+e(a{i}, b{i}).").ok
        r = s.execute("+e(a3, b3).")
        assert not r.ok and r.code == E_BATCH
        # The staged batch itself is still intact and committable.
        assert s.execute(":commit").data["applied"] == 3
        svc.shutdown()

    def test_unsafe_query_is_structured(self):
        svc = service(STRAT_SOURCE)
        s = svc.open_session()
        r = s.execute("?- not t(X, Y).")
        assert not r.ok and r.code == E_UNSAFE
        svc.shutdown()

    def test_unknown_command(self):
        svc = service()
        s = svc.open_session()
        r = s.execute(":frobnicate")
        assert not r.ok and r.code == E_COMMAND
        svc.shutdown()

    def test_closed_session_is_structured(self):
        svc = service()
        s = svc.open_session()
        s.close()
        r = s.execute("?- e(a, b).")
        assert not r.ok and r.code == E_CLOSED
        svc.shutdown()

    def test_close_discards_pending_writes(self):
        svc = service()
        s = svc.open_session()
        s.execute(":begin")
        s.execute("+e(a, b).")
        s.close()
        other = svc.open_session()
        assert not other.execute("?- e(a, b).").data["truth"]
        assert svc.model.version == 1
        svc.shutdown()

    def test_bad_clause_leaves_program_unchanged(self):
        svc = service()
        s = svc.open_session()
        r = s.execute("p(X) :-")
        assert not r.ok and r.code == E_PARSE
        good = s.execute("p(X) :- e(X, X).")
        assert good.ok
        s.execute("+e(a, a).")
        assert s.execute("?- p(a).").data["truth"]
        svc.shutdown()

    @pytest.mark.parametrize("timeout", ["inf", "nan", "-1", "1e400"])
    def test_sync_rejects_timeouts_no_wait_accepts(self, timeout):
        svc = service()
        s = svc.open_session()
        r = s.execute(f":sync 99 {timeout}")
        assert not r.ok and r.code == E_COMMAND
        assert r.error.startswith("usage: :sync VERSION [TIMEOUT]")
        assert s.execute(":sync 1 0").ok
        svc.shutdown()

    def test_unexpected_exception_is_a_response_not_a_raise(
        self, monkeypatch, caplog
    ):
        """``execute`` never raises: a bug behind a request is logged and
        answered, and the session keeps working."""
        svc = service()
        s = svc.open_session()

        def boom(version, timeout=None):
            raise OverflowError("timestamp too large")

        monkeypatch.setattr(svc.model, "wait_version", boom)
        with caplog.at_level("ERROR", logger="repro.server"):
            r = s.execute(":sync 99 5")
        assert not r.ok and r.code == E_EVAL
        assert "timestamp too large" in r.error
        assert "unexpected error serving ':sync 99 5'" in caplog.text
        assert s.execute(":version").ok
        svc.shutdown()


class TestServiceFrontEnd:
    def test_session_accounting(self):
        svc = service()
        s1, s2 = svc.open_session(), svc.open_session()
        assert svc.session_count() == 2
        s1.close()
        assert svc.session_count() == 1
        svc.shutdown()
        assert svc.session_count() == 0

    def test_stats_name_each_stratum_plan_and_why_it_recomputed(self):
        # Groups, one per dependency component, in evaluation order:
        # all, t, iso, p, r.
        svc = service(
            STRAT_SOURCE + "p(X) :- n(X), not q(X).\nr(X) :- p(X).\n"
            "all(z) :- forall A in {a, b} (n(A)).\n"
        )
        s = svc.open_session()
        s.execute("+e(a, a).")
        last = s.execute(":stats").data["last_delta"]
        assert last["strategy"] == "incremental"
        assert last["fallback_reason"] is None
        assert last["strata"] == [
            {"stratum": 1, "plan": "dred", "reason": None},
            {"stratum": 2, "plan": "rederive", "reason": None},
        ]
        s.execute("+n(d).")
        last = s.execute(":stats").data["last_delta"]
        assert last["strata"] == [
            {"stratum": 0, "plan": "recompute",
             "reason": "restricted quantifier"},
            {"stratum": 2, "plan": "rederive", "reason": None},
            {"stratum": 3, "plan": "rederive", "reason": None},
            {"stratum": 4, "plan": "rederive", "reason": None},
        ]
        svc.shutdown()

    def test_stats_include_closed_sessions(self):
        svc = service()
        s = svc.open_session()
        s.execute("+e(a, b).")
        s.execute("?- e(a, b).")
        s.close()
        data = svc.stats_data()
        assert data["queries"] == 1 and data["writes"] == 1
        svc.shutdown()


class TestProtocol:
    def test_round_trip_and_json_shape(self):
        svc = service()
        with run_in_thread(svc) as h, LineClient(h.host, h.port) as c:
            r = c.send("+e(a, b).")
            assert r.ok and r.kind == "write"
            r = c.query("t(a, X)")
            assert r.data["rows"] == [{"X": "b"}]
            r = c.send("?- t(a")
            assert not r.ok and r.code == E_PARSE
            assert c.send(":quit").kind == "bye"
        svc.shutdown()

    def test_disconnect_mid_batch_does_not_poison(self):
        svc = service()
        with run_in_thread(svc) as h:
            with LineClient(h.host, h.port) as c1:
                c1.send(":begin")
                c1.send("+e(x, y).")
            # c1 dropped without commit; a new client sees nothing.
            with LineClient(h.host, h.port) as c2:
                assert not c2.query("e(x, y)").data["truth"]
        svc.shutdown()

    def test_concurrent_clients_are_isolated(self):
        svc = service()
        with run_in_thread(svc) as h:
            clients = [LineClient(h.host, h.port) for _ in range(4)]
            try:
                clients[0].send("+e(a, b).")
                for c in clients:
                    assert c.query("e(a, b)").data["truth"]
                versions = {c.send(":version").data["latest"]
                            for c in clients}
                assert versions == {2}
            finally:
                for c in clients:
                    c.close()
        svc.shutdown()

    @pytest.mark.parametrize("timeout", ["inf", "nan", "-1"])
    def test_bad_sync_timeout_leaves_the_connection_usable(self, timeout):
        svc = service()
        with run_in_thread(svc) as h, LineClient(h.host, h.port) as c:
            r = c.send(f":sync 99 {timeout}")
            assert not r.ok and r.code == E_COMMAND
            assert c.send(":version").data["latest"] == 1
        svc.shutdown()

    def test_response_json_round_trip(self):
        r = Response(ok=True, kind="answers", data={"x": 1}, version=3)
        assert Response.from_json(r.to_json()) == r

    def test_recv_push_can_be_polled(self):
        """A ``recv_push`` that timed out must leave the connection as it
        found it: poll twice with nothing to receive, then receive a real
        push frame, then keep using the connection for requests."""
        svc = service()
        with run_in_thread(svc) as h, \
                LineClient(h.host, h.port, timeout=10.0) as sub, \
                LineClient(h.host, h.port, timeout=10.0) as writer:
            assert sub.send(":subscribe t(a, X).").ok
            assert sub.recv_push(timeout=0.05) is None
            assert sub.recv_push(timeout=0.05) is None
            assert writer.send("+e(a, b).").ok
            push = sub.recv_push(timeout=10.0)
            assert push is not None and push.data["adds"] == [["b"]]
            assert sub.recv_push(timeout=0.05) is None
            assert sub.query("t(a, X)").data["rows"] == [{"X": "b"}]
        svc.shutdown()


class TestClientReconnect:
    def test_default_is_single_attempt(self):
        with pytest.raises(ConnectionError, match="after 1 attempt"):
            LineClient("127.0.0.1", 1).send(":version")

    def test_bounded_attempts_are_counted(self):
        start = time.monotonic()
        with pytest.raises(ConnectionError, match="after 3 attempt"):
            LineClient(
                "127.0.0.1", 1, max_attempts=3,
                backoff_initial=0.01, backoff_max=0.05,
            ).send(":version")
        assert time.monotonic() - start < 5.0   # bounded, not unbounded

    def test_send_retries_across_server_restart(self):
        # Pin a port so a second server can come back on the same address.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        svc1 = service()
        h1 = run_in_thread(svc1, port=port)
        client = LineClient(
            "127.0.0.1", port, max_attempts=5,
            backoff_initial=0.02, backoff_max=0.2,
        )
        try:
            assert client.send("+e(a, b).").ok
            h1.stop()
            svc1.shutdown()
            svc2 = service()
            with run_in_thread(svc2, port=port):
                # The dead connection is torn down and rebuilt under the
                # same send() call — no exception reaches the caller.
                assert client.send(":version").ok
            svc2.shutdown()
        finally:
            client.close()

    def test_close_wakes_backoff_sleep_promptly(self):
        """close() during a reconnect backoff must interrupt the sleep:
        the retry loop waits on an Event, not time.sleep, so a client
        configured with a 30 s backoff still tears down in milliseconds."""
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        client = LineClient(
            "127.0.0.1", port, max_attempts=5,
            backoff_initial=30.0, backoff_max=30.0,
        )
        conn, _ = listener.accept()
        conn.close()
        listener.close()

        elapsed: list[float] = []

        def worker() -> None:
            start = time.monotonic()
            with pytest.raises(ConnectionError):
                client.send(":version")
            elapsed.append(time.monotonic() - start)

        t = threading.Thread(target=worker)
        t.start()
        time.sleep(0.3)              # let send() enter its backoff sleep
        client.close()
        t.join(timeout=5.0)
        assert not t.is_alive()      # woke immediately, not after 30 s
        assert elapsed and elapsed[0] < 5.0

    def test_backoff_is_bounded_with_jitter(self):
        b = Backoff(initial=0.1, maximum=1.0, factor=2.0)
        delays = [b.next_delay() for _ in range(8)]
        for i, d in enumerate(delays):
            ceiling = min(1.0, 0.1 * 2.0 ** i)
            assert ceiling / 2 <= d <= ceiling
        b.reset()
        assert b.next_delay() <= 0.1


class TestGracefulShutdown:
    def test_idle_connection_gets_server_closing(self):
        """stop() drains and notifies: an idle client receives a
        structured ``server_closing`` response instead of a dropped
        socket mid-line."""
        svc = service()
        h = run_in_thread(svc)
        raw = socket.create_connection((h.host, h.port), timeout=10)
        try:
            raw.sendall(b"+e(a, b).\n")
            reply = raw.makefile().readline()
            assert Response.from_json(reply).ok
            h.stop()
            closing = raw.makefile().readline()
            r = Response.from_json(closing)
            assert not r.ok and r.code == E_CLOSING
        finally:
            raw.close()
            svc.shutdown()

    def test_stop_timeout_is_configurable(self):
        svc = service()
        h = run_in_thread(svc, stop_timeout=2.0)
        with LineClient(h.host, h.port) as c:
            assert c.send(":version").ok
        h.stop()
        h.stop()                           # idempotent
        svc.shutdown()

    def test_in_flight_response_completes_before_close(self):
        svc = service()
        h = run_in_thread(svc)
        with LineClient(h.host, h.port) as c:
            for i in range(20):
                assert c.send(f"+e(v{i}, v{i+1}).").ok
            # Stop while the connection is live: the last acknowledged
            # write must be durable in the model, not dropped mid-line.
            h.stop()
        assert svc.model.version == 21
        svc.shutdown()
