"""A file's facts are data (DESIGN.md, "File facts are data").

A ground fact clause means what a database fact means, so every load
boundary moves a program's ground facts into the EDB and the model keeps
the rules.  The contracts:

* **a file fact is retractable**: ``-e(a1, b1).`` on a fact written in
  the program answers ``applied: 1``, and the model equals a from-scratch
  evaluation of the rules over the remaining facts — after an ``:extend``
  with a rule, after close and recover, and on a follower;
* **records and images carry rules only**: an ``:extend`` with only facts
  is one delta (one version, no program record), and no program record
  or checkpoint image written afterwards holds a ground fact clause;
* **read-compat**: a store written before, whose image carries a fact in
  its program text and whose log then asserts the same fact, recovers,
  and a follower takes the same two records from a leader that still
  writes them;
* **typing keeps what file facts gave it**: ``?- sf(S).`` over the file
  fact ``sf({a, b}).`` answers the set, before and after a checkpoint
  and recover, and rules keep the sorts a retracted fact gave them; a
  stored program is typed by its own rules, never by the EDB;
* **a failed rebuild leaves the caller's database as it was**;
* **a commit costs no walk over the file's facts** (a count, no clocks).
"""

import pytest

from repro import parse_program
from repro.core.atoms import Atom
from repro.core.terms import Const, setvalue
from repro.engine import Database, Evaluator
from repro.engine.maintenance import MaterializedModel
from repro.engine.setops import with_set_builtins
from repro.semantics.interpretation import Interpretation
from repro.server import QueryService
from repro.storage import DurableModel, WriteAheadLog, list_checkpoints
from repro.storage.checkpoint import load_checkpoint, write_checkpoint
from repro.storage.codec import KIND_DELTA, KIND_PROGRAM, decode_record

RULES = """
t(X, Y) :- e(X, Y).
t(X, Z) :- e(X, Y), t(Y, Z).
"""

FACTS = ["e(a1, b1)", "e(a2, b2)", "e(b1, c1)"]

PROGRAM = "".join(f"{f}.\n" for f in FACTS) + RULES

OPTS = dict(builtins=with_set_builtins(), fsync="never", checkpoint_every=None)


def scratch(rules: str, facts) -> list[str]:
    """The from-scratch model of ``rules`` over the EDB ``facts``."""
    db = Database()
    for f in facts:
        db.add_atom(parse_program(f"{f}.").clauses[0].head)
    model = Evaluator(
        parse_program(rules), db, builtins=with_set_builtins()
    ).run()
    return sorted(str(a) for a in model.interpretation)


def model_of(model) -> list[str]:
    return sorted(str(a) for a in model.current.interpretation)


def program_sources(data_dir) -> list[str]:
    """Every program text the store holds: WAL records and images."""
    sources = [
        data["source"] for kind, data in WriteAheadLog(data_dir).records()
        if kind == KIND_PROGRAM
    ]
    for path in list_checkpoints(data_dir):
        header = decode_record(path.read_text().splitlines()[0])[1]
        sources.append(header["program"])
    return sources


@pytest.fixture(params=["memory", "durable"])
def open_service(request, tmp_path):
    """``open_service()`` serves PROGRAM, in memory or over a data dir;
    a second call on a durable store recovers it."""
    services = []

    def make():
        kwargs = (
            dict(OPTS, data_dir=tmp_path / "d")
            if request.param == "durable" else {}
        )
        svc = QueryService(PROGRAM, **kwargs)
        services.append(svc)
        return svc

    make.durable = request.param == "durable"
    yield make
    for svc in services:
        svc.shutdown()


class TestRetract:
    def test_a_file_fact_is_retracted_and_stays_retracted(self, open_service):
        svc = open_service()
        s = svc.open_session()
        assert s.execute("?- t(a1, c1).").data["truth"]
        r = s.execute("-e(a1, b1).")
        assert r.ok and r.data == {"applied": 1}
        left = FACTS[1:]
        assert model_of(svc.model) == scratch(RULES, left)

        rules = RULES + "u(X) :- t(X, c1).\n"
        s.add_clause("u(X) :- t(X, c1).")
        assert model_of(svc.model) == scratch(rules, left)
        assert not s.execute("?- e(a1, b1).").data["truth"]
        if not open_service.durable:
            return
        svc.shutdown()
        back = open_service()
        assert model_of(back.model) == scratch(rules, left)
        assert list(back.model.program.facts()) == []

    def test_a_fact_added_by_extend_is_retracted_and_recovers(
        self, open_service
    ):
        svc = open_service()
        s = svc.open_session()
        before = svc.model.version
        s.add_clause("e(c1, d1).")
        assert svc.model.version == before + 1
        assert s.execute("?- t(a1, d1).").data["truth"]
        assert s.execute("-e(c1, d1).").data == {"applied": 1}
        s.add_clause("u(X) :- t(X, c1).")
        want = scratch(RULES + "u(X) :- t(X, c1).\n", FACTS)
        assert model_of(svc.model) == want
        if not open_service.durable:
            return
        svc.shutdown()
        assert model_of(open_service().model) == want

    def test_a_follower_retracts_a_file_fact(self, tmp_path):
        leader = QueryService(PROGRAM, data_dir=tmp_path / "l", **OPTS)
        replica = DurableModel(parse_program(PROGRAM), tmp_path / "r", **OPTS)
        try:
            shipped = leader.model.commits.open("test")
            s = leader.open_session()
            assert s.execute("-e(a1, b1).").data == {"applied": 1}
            s.add_clause("u(X) :- t(X, c1).\ne(c1, d1).")
            for c in shipped.read():
                replica.apply_record(
                    *decode_record(c.line.decode("ascii")), line=c.line
                )
            want = scratch(
                RULES + "u(X) :- t(X, c1).\n", FACTS[1:] + ["e(c1, d1)"]
            )
            assert model_of(leader.model) == model_of(replica) == want
            assert replica.version == leader.model.version
            replica.close()
            back = DurableModel.recover(tmp_path / "r", **OPTS)
            assert model_of(back) == want
            back.close()
        finally:
            leader.shutdown()
            replica.close()


class TestRecords:
    def test_an_extend_with_only_facts_is_one_delta(self, tmp_path):
        svc = QueryService(PROGRAM, data_dir=tmp_path, **OPTS)
        try:
            before = svc.model.version
            svc.extend_program("e(c1, d1).\ne(d1, e1).")
            assert svc.model.version == before + 1
            kinds = [
                kind for kind, data in WriteAheadLog(tmp_path).records()
                if data.get("version", 0) > before
            ]
            assert kinds == [KIND_DELTA]
            svc.extend_program("u(X) :- t(X, e1).\ne(e1, f1).")
            assert svc.model.version == before + 3
            svc.checkpoint()
            sources = program_sources(tmp_path)
            assert len(sources) >= 3      # a record, the images
            for source in sources:
                assert list(parse_program(source).facts()) == []
        finally:
            svc.shutdown()

    def test_a_store_written_with_facts_in_its_program_recovers(
        self, tmp_path
    ):
        """The old format, built by hand: the image's program text holds
        ``e(a, b).`` and the log then asserts ``+e(a, b).`` — which
        changed an EDB that did not hold the file's facts."""
        old = parse_program("e(a, b).\n" + RULES)
        write_checkpoint(tmp_path, 1, old, Database(), fsync=False)
        assert "e(a, b)." in load_checkpoint(
            list_checkpoints(tmp_path)[0]
        )[2].pretty()
        wal = WriteAheadLog(tmp_path, fsync="never")
        wal.append_delta(2, [Atom("e", (Const("a"), Const("b")))], [])
        wal.close()

        back = DurableModel.recover(tmp_path, **OPTS)
        try:
            assert back.version == 2
            assert model_of(back) == scratch(RULES, ["e(a, b)"])
            # Logged after the old image: recovery must not fold it there.
            back.apply_delta(dels=[Atom("e", (Const("a"), Const("b")))])
            assert model_of(back) == []
        finally:
            back.close()
        again = DurableModel.recover(tmp_path, **OPTS)
        try:
            assert model_of(again) == []
            assert list(again.program.facts()) == []
        finally:
            again.close()


    def test_a_follower_takes_an_older_leaders_program_record(
        self, tmp_path
    ):
        """A leader running the older version logs its whole program
        text, facts included, then asserts one of those facts (its EDB
        lacked it); the follower publishes every version, and recovers
        to the same model.  The retraction then reads as it reads now."""
        replica = DurableModel(parse_program(RULES), tmp_path / "r", **OPTS)
        rules = RULES + "u(X) :- t(X, b).\n"
        e = Atom("e", (Const("a"), Const("b")))
        v = replica.version
        old = WriteAheadLog(tmp_path / "old", fsync="never")
        lines = [
            old.append_program(v + 1, "e(a, b).\n" + rules),
            old.append_delta(v + 2, [e], []),
            old.append_delta(v + 3, [], [e]),
        ]
        old.close()
        wants = [scratch(rules, ["e(a, b)"])] * 2 + [scratch(rules, [])]
        try:
            for line, want in zip(lines, wants):
                replica.apply_record(
                    *decode_record(line.decode("ascii")), line=line
                )
                assert model_of(replica) == want
            assert replica.version == v + 3
            replica.close()
            back = DurableModel.recover(tmp_path / "r", **OPTS)
            assert back.version == v + 3 and model_of(back) == wants[-1]
            back.close()
        finally:
            replica.close()

    def test_a_follower_takes_a_set_an_older_leader_asserted(self, tmp_path):
        """A leader that predates the write-time sort check logged
        ``+sf({a, b})`` against ``q(X) :- sf(X)``; the follower applies
        that record as recovery folds it — once, and recovers to the
        same model — instead of refusing it at every retry."""
        rules = "q(X) :- sf(X).\n"
        replica = DurableModel(parse_program(rules), tmp_path / "r", **OPTS)
        v = replica.version
        fact = Atom("sf", (setvalue([Const("a"), Const("b")]),))
        old = WriteAheadLog(tmp_path / "old", fsync="never")
        line = old.append_delta(v + 1, [fact], [])
        old.close()
        try:
            replica.apply_record(
                *decode_record(line.decode("ascii")), line=line
            )
            assert replica.version == v + 1
            want = model_of(replica)
            assert "sf({a, b})" in want
            replica.close()
            back = DurableModel.recover(tmp_path / "r", **OPTS)
            assert back.version == v + 1 and model_of(back) == want
            back.close()
        finally:
            replica.close()

    def test_a_failed_rebuild_leaves_the_callers_database(
        self, monkeypatch
    ):
        db = Database()
        db.add_atom(Atom("e", (Const("a1"), Const("b1"))))

        def limit(self):
            raise MemoryError("resource limit")

        monkeypatch.setattr(MaterializedModel, "_rebuild", limit)
        with pytest.raises(MemoryError):
            MaterializedModel(parse_program("e(z, z).\n" + PROGRAM), db)
        assert sorted(str(a) for a in db.facts()) == ["e(a1, b1)"]


class TestTyping:
    SETS = "sf({a, b}).\nq(X) :- sf(X).\n"

    @pytest.mark.parametrize("durable", [False, True])
    def test_a_file_set_fact_answers_across_recovery(self, tmp_path, durable):
        kwargs = dict(OPTS, data_dir=tmp_path) if durable else {}
        goals = ["?- sf(S).", "?- q(S).", "?- sf(S), X in S."]
        with QueryService(self.SETS, **kwargs) as svc:
            s = svc.open_session()
            before = [s.execute(g).data for g in goals]
            assert before[0]["rows"] == [{"S": "{a, b}"}]
            assert before[1] == before[0]
            if not durable:
                return
            svc.checkpoint()
        with QueryService(**kwargs) as back:
            s = back.open_session()
            assert [s.execute(g).data for g in goals] == before

    @pytest.mark.parametrize("durable", [False, True])
    def test_rules_keep_the_sorts_a_retracted_fact_gave(
        self, tmp_path, durable
    ):
        kwargs = dict(OPTS, data_dir=tmp_path) if durable else {}
        svc = QueryService(self.SETS, **kwargs)
        typed = svc.model.program
        r = svc.open_session().execute("-sf({a, b}).")
        assert r.data == {"applied": 1}
        if durable:
            svc.checkpoint()
            sources = program_sources(tmp_path)
            assert sources and all(
                src.startswith("% sorts ") for src in sources
            )
            svc.shutdown()
            svc = QueryService(**kwargs)    # no sf fact in the EDB now
        try:
            assert svc.model.program == typed
            s = svc.open_session()
            s.add_clause("r(X) :- q(X).")
            assert svc.model.program == parse_program(
                self.SETS + "r(X) :- q(X).\n"
            ).rules()
            assert s.execute("+sf({c}).").data == {"applied": 1}
            assert s.execute("?- r(S).").data["rows"] == [{"S": "{c}"}]
        finally:
            svc.shutdown()

    @pytest.mark.parametrize("rules", ["q(X) :- sf(X).\n", "q :- sf(a).\n"])
    def test_a_set_asserted_against_a_rule_leaves_the_store_writable(
        self, tmp_path, rules
    ):
        """The assert is refused (the rule reads an individual there, so
        the set would be held and never answered); the store still takes
        a fact of the rule's sort, checkpoints, extends and recovers."""
        with QueryService(rules, data_dir=tmp_path, **OPTS) as svc:
            s = svc.open_session()
            version = svc.model.version
            refused = s.execute("+sf({a, b}).")
            assert refused.code == "sort_conflict"
            assert svc.model.version == version
            assert s.execute("+sf(a).").data == {"applied": 1}
            svc.checkpoint()
            s.add_clause("r(X) :- sf(X).")
            svc.checkpoint()
            program, want = svc.model.program, model_of(svc.model)
            assert "sf(a)" in want and "sf({a, b})" not in want
        with QueryService(data_dir=tmp_path, **OPTS) as back:
            assert back.model.program == program
            assert model_of(back.model) == want


#: What one ``+e(new, x).`` asserts: the fact and the ``p`` it derives.
CALLS_PER_COMMIT = 2


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_a_commit_does_not_walk_the_files_facts(monkeypatch, n):
    """``_check_assertable`` calls per one-fact commit do not depend on
    how many facts the program file holds."""
    text = "".join(f"e(a{i}, b{i}).\n" for i in range(n))
    svc = QueryService(text + "p(X) :- e(X, Y).\n")
    try:
        calls = []
        real = Interpretation._check_assertable
        monkeypatch.setattr(
            Interpretation, "_check_assertable",
            staticmethod(lambda a: calls.append(a) or real(a)),
        )
        svc.apply_delta(adds=[("e", "new", "x")])
        assert svc.model.current.holds(Atom("p", (Const("new"),)))
        assert len(calls) == CALLS_PER_COMMIT
    finally:
        svc.shutdown()

