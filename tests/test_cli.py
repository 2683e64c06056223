"""Tests for the ``lps`` command-line front end."""

import pytest

from repro.repl.cli import main


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.lps"
    path.write_text(
        "edge(a, b). edge(b, c).\n"
        "path(X, Y) :- edge(X, Y).\n"
        "path(X, Z) :- edge(X, Y), path(Y, Z).\n"
    )
    return str(path)


class TestRun:
    def test_run_prints_model(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out
        assert "path(a, c)." in out
        assert "edge(a, b)." in out

    def test_run_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.lps"
        bad.write_text("p(a")
        assert main(["run", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_shards_prints_the_same_model(self, tmp_path, capsys,
                                              monkeypatch):
        """``run --shards 2`` shards the recursive conjunctive stratum,
        falls back on the negation stratum, and prints byte-identical
        output.  (A file's facts share stratum 0 with ``s``, so each
        recursive rule may read ``s`` once and no fact predicate.)"""
        from repro.parallel import ShardCoordinator

        prog = tmp_path / "mixed.lps"
        prog.write_text(
            "e(a, b). e(b, c). e(c, d). n(a). n(b). n(e).\n"
            "s(X, Y) :- e(X, Y).\n"
            "s(Y, X) :- s(X, Y).\n"
            "s(X, X) :- s(X, Y).\n"
            "lone(X) :- n(X), not s(X, X).\n"
        )
        assert main(["run", str(prog)]) == 0
        single = capsys.readouterr().out
        sharded_strata = []
        eval_stratum = ShardCoordinator.eval_stratum

        def spy(self, group, *args):
            added = eval_stratum(self, group, *args)
            if added is not None:
                sharded_strata.append(group.index)
            return added

        monkeypatch.setattr(ShardCoordinator, "eval_stratum", spy)
        assert main(["run", str(prog), "--shards", "2"]) == 0
        assert capsys.readouterr().out == single
        assert sharded_strata == [0]
        assert "s(d, c)." in single
        assert "lone(e)." in single and "lone(a)." not in single


class TestQuery:
    def test_query_bindings(self, program_file, capsys):
        assert main(["query", program_file, "path(a, W)"]) == 0
        out = capsys.readouterr().out
        assert "W = b" in out and "W = c" in out

    def test_query_ground_true(self, program_file, capsys):
        main(["query", program_file, "path(a, c)"])
        assert "true" in capsys.readouterr().out

    def test_query_false(self, program_file, capsys):
        main(["query", program_file, "path(c, a)"])
        assert "false" in capsys.readouterr().out

    def test_query_with_sets(self, tmp_path, capsys):
        path = tmp_path / "sets.lps"
        path.write_text(
            "s({1, 2}). s({3}).\n"
            "disj(X, Y) :- s(X), s(Y), "
            "forall A in X (forall B in Y (A != B)).\n"
        )
        main(["query", str(path), "disj({1, 2}, {3})"])
        assert "true" in capsys.readouterr().out


class TestRepl:
    def test_repl_session(self, monkeypatch, capsys):
        lines = iter([
            "p(a).",
            "q(X) :- p(X).",
            "?- q(a).",
            ":model",
            ":quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "true" in out
        assert "q(a)." in out

    def test_repl_reports_errors(self, monkeypatch, capsys):
        lines = iter(["p(a", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        assert "error" in capsys.readouterr().err

    def test_repl_fact_churn_maintains_model(self, monkeypatch, capsys):
        lines = iter([
            "edge(a, b).",
            "path(X, Y) :- edge(X, Y).",
            "path(X, Z) :- edge(X, Y), path(Y, Z).",
            "+edge(b, c).",
            "?- path(a, c).",
            ":stats",
            "-edge(b, c).",
            "?- path(a, c).",
            "+edge(b, c).",
            "+edge(b, c).",
            ":quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "added." in out
        assert "removed." in out
        assert "no change." in out          # second +edge(b, c).
        assert "strategy=incremental" in out
        # path(a, c): true after insert, false after delete.
        assert "true" in out and "false" in out

    def test_repl_plan_command(self, monkeypatch, capsys):
        lines = iter([
            ":plan t(X, Z) :- e(X, Y), t(Y, Z).",
            ":plan subset(X, Y) :- s(X), s(Y), forall A in X (A in Y).",
            ":quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "Join[Y]" in out
        assert "Scan[e(X, Y)]" in out
        assert "Scan[t(Y, Z)]" in out
        assert "tuple-mode" in out          # the quantified clause

    def test_repl_stats_include_executor_counters(self, monkeypatch, capsys):
        lines = iter([
            "path(X, Y) :- edge(X, Y).",
            "path(X, Z) :- edge(X, Y), path(Y, Z).",
            *(f"+edge(v{i}, v{i+1})." for i in range(10)),
            ":stats",
            ":quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "strategy=incremental" in out
        assert "executor:" in out
        assert "batches" in out
        assert "Scan" in out and "Join" in out

    def test_repl_rejects_non_ground_fact(self, monkeypatch, capsys):
        lines = iter(["p(a).", "+p(X).", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        assert "not ground" in capsys.readouterr().err

    def test_repl_clause_after_facts_keeps_fact_store(
        self, monkeypatch, capsys
    ):
        lines = iter([
            "+edge(a, b).",
            "path(X, Y) :- edge(X, Y).",
            "?- path(a, b).",
            ":quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "true" in out


class TestReplServiceParity:
    def test_repl_conjunctive_query(self, monkeypatch, capsys):
        """The REPL answers conjunctive goals through the same session
        query path as the TCP server (parse → plan → execute)."""
        lines = iter([
            "edge(a, b). edge(b, a). edge(b, c).",
            "path(X, Y) :- edge(X, Y).",
            "path(X, Z) :- edge(X, Y), path(Y, Z).",
            "?- path(X, Y), edge(Y, X).",
            ":quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "X = a, Y = b" in out
        assert "X = b, Y = a" in out

    def test_repl_queries_count_in_stats(self, monkeypatch, capsys):
        lines = iter([
            "p(a).",
            "?- p(X).",
            "?- p(a).",
            ":stats",
            ":quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "2 queries" in out


class TestReplCommandTable:
    """Any ``:command`` of ``server.session.COMMANDS`` works at ``lps>``
    (they used to be parse errors: the REPL forwarded three by name)."""

    @staticmethod
    def run(monkeypatch, capsys, *typed):
        lines = iter([
            "t(X, Y) :- e(X, Y).", "+e(a, b).", *typed, ":quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        return capsys.readouterr()

    def test_versions_and_time_travel(self, monkeypatch, capsys):
        captured = self.run(
            monkeypatch, capsys,
            ":version", "+e(b, c).", ":at 3", "?- t(b, c).", ":version",
            ":latest", "?- t(b, c).", ":at 99",
        )
        out = captured.out.splitlines()
        assert '{"latest": 3, "pinned": false, "reading": 3}' in out
        assert '{"latest": 4, "pinned": true, "reading": 3}' in out
        assert out.count("ok.") == 2                # :at 3, :latest
        assert out.index("false") < out.index("true")
        assert "version 99 has never been published" in captured.err
        assert "parse" not in captured.err.lower()

    def test_explicit_batches(self, monkeypatch, capsys):
        captured = self.run(
            monkeypatch, capsys,
            ":begin", "+e(b, c).", "-e(a, b).", ":commit", "?- t(X, Y).",
            ":begin", "+e(c, d).", ":abort", "?- t(c, d).",
        )
        out = captured.out
        assert out.count("staged.") == 3
        assert '{"applied": 2}' in out
        assert "X = b, Y = c" in out and "X = a" not in out
        assert out.rstrip().endswith("false")
        assert captured.err == ""

    def test_role_and_sync(self, monkeypatch, capsys):
        captured = self.run(
            monkeypatch, capsys, ":role", ":sync 3", ":sync 9 0.01", ":sync",
        )
        assert '"role": "leader"' in captured.out
        assert '{"latest": 3}' in captured.out
        assert "version 9 not applied within" in captured.err
        assert "usage: :sync VERSION [TIMEOUT]" in captured.err

    def test_unknown_command_comes_from_the_table(self, monkeypatch, capsys):
        captured = self.run(monkeypatch, capsys, ":frobnicate now")
        assert "unknown command ':frobnicate'" in captured.err
        assert "parse" not in captured.err.lower()


class TestReplDurability:
    """The REPL's :save/:open commands and the --data-dir flag."""

    def test_save_then_open_then_data_dir(self, monkeypatch, capsys,
                                          tmp_path):
        store = str(tmp_path / "store")
        lines = iter([
            "t(X, Y) :- e(X, Y).",
            "t(X, Z) :- e(X, Y), t(Y, Z).",
            "+e(a, b).",
            f":save {store}",
            ":quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        assert "saved" in capsys.readouterr().out

        # :open recovers the store in a fresh REPL; new writes are durable.
        lines = iter([
            f":open {store}",
            "?- t(a, X).",
            "+e(b, c).",
            ":quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "opened" in out
        assert "X = b" in out

        # --data-dir recovers everything, including the post-:open write.
        lines = iter(["?- t(a, X).", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl", "--data-dir", store]) == 0
        out = capsys.readouterr().out
        assert "X = b" in out
        assert "X = c" in out

    def test_save_checkpoints_own_store_under_any_spelling(
        self, monkeypatch, capsys, tmp_path
    ):
        """:save on the session's own data dir is a checkpoint even when
        the path is spelled differently (./store vs store)."""
        store = tmp_path / "store"
        alt = str(store) + "/"        # same directory, different spelling
        lines = iter(["+e(a, b).", f":save {alt}", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl", "--data-dir", str(store)]) == 0
        captured = capsys.readouterr()
        assert "saved" in captured.out
        assert "already holds" not in captured.err

    def test_save_requires_a_directory(self, monkeypatch, capsys):
        lines = iter([":save", ":open", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        err = capsys.readouterr().err
        assert "usage: :save DIR" in err
        assert "usage: :open DIR" in err

    def test_save_refusal_is_reported_not_fatal(self, monkeypatch, capsys,
                                                tmp_path):
        store = str(tmp_path / "store")
        lines = iter([
            "p(a).",
            f":save {store}",
            f":save {store}",     # second save: refused, REPL keeps going
            "?- p(a).",
            ":quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        captured = capsys.readouterr()
        assert "already holds durable state" in captured.err
        assert "true" in captured.out


def test_cli_import_leaves_asyncio_out():
    """``lps`` starts without asyncio: the server is plain threads, and
    the import would cost every ``lps serve``, ``lps run`` and cold
    start tens of milliseconds."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, repro.repl.cli; print('asyncio' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert out.strip() == "False"


class TestServeArguments:
    """Flags ``lps serve`` refuses before it binds a socket."""

    @pytest.fixture(autouse=True)
    def no_server(self, monkeypatch):
        import repro.server.protocol as protocol

        def refuse(*args, **kwargs):
            raise AssertionError("lps serve bound a socket")

        monkeypatch.setattr(protocol, "Server", refuse)

    @pytest.mark.parametrize("argv, message", [
        (["--ack-replicas", "2"], "--data-dir"),
        (["--ack-replicas", "1", "--follow", "127.0.0.1:1",
          "--data-dir", "{tmp}"], "--follow"),
        (["--ack-replicas", "-1"], ">= 0"),
        (["--ack-replicas", "-1", "--data-dir", "{tmp}"], ">= 0"),
    ])
    def test_ack_replicas_needs_a_replicating_leader(
        self, tmp_path, capsys, argv, message
    ):
        argv = [a.format(tmp=tmp_path / "d") for a in argv]
        assert main(["serve", "--port", "0", *argv]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_shards_is_not_a_serve_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--shards", "2"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err


def test_serve_stops_gracefully_on_ctrl_c(tmp_path):
    """SIGINT stops ``lps serve`` like ``Server.stop``: an idle client
    gets one ``server_closing`` and the process exits 0, whichever of
    the server's threads the signal was delivered to."""
    import os
    import signal
    import socket
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from repro.server import E_CLOSING, Response

    prog = tmp_path / "prog.lps"
    prog.write_text("e(a, b).\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-u", "-W", "ignore", "-m", "repro.repl.cli",
         "serve", str(prog), "--host", "127.0.0.1", "--port", "0"],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line
        port = int(line.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=10) \
                as sock, sock.makefile("rb") as stream:
            sock.sendall(b"?- e(a, X).\n")
            assert Response.from_json(stream.readline().decode()).ok
            proc.send_signal(signal.SIGINT)
            closing = Response.from_json(stream.readline().decode())
            assert closing.code == E_CLOSING
        assert proc.wait(timeout=10) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
