"""``lps`` — a small command-line front end.

Usage::

    lps run PROGRAM.lps            evaluate and print the model
    lps query PROGRAM.lps 'p(X)'   evaluate, then print query bindings
    lps repl [PROGRAM.lps]         interactive loop
    lps serve [PROGRAM.lps]        line-protocol TCP server (--host/--port);
                                   --data-dir makes it durable + replicable,
                                   --follow HOST:PORT runs it as a follower
    lps ctl status ADDR...         role/version/epoch of each server
    lps ctl promote ADDR...        fail over to the most caught-up follower

The REPL is a **thin client of the query-service session API**
(:mod:`repro.server`): it owns one
:class:`~repro.server.service.QueryService` with one local
:class:`~repro.server.session.Session`, the same objects the TCP server
multiplexes across many concurrent clients — so interactive behaviour and
served behaviour cannot drift apart.

* clauses terminated by ``.`` extend the program: a ground fact is
  committed like ``+fact.``, a rule rebuilds the model over the facts,
* ``+fact.`` asserts and ``-fact.`` retracts a ground fact — the model is
  *maintained*, not recomputed, so churning facts against a large program
  stays cheap,
* ``?- goal.`` queries the current snapshot (conjunctive goals are
  planned and executed like rule bodies), ``:model`` prints the model,
* ``:plan rule.`` pretty-prints the relational-algebra plan the engine
  compiles the rule body to (or why it stays on the tuple path),
* ``:stats`` shows what the last delta did plus the set-at-a-time
  executor's counters (batches, rows in/out per operator), ``:quit``
  exits,
* ``:subscribe goal.`` registers a standing query: the full answer set
  prints once, then every commit that moves it prints an exact
  ``[sub N vV] +row -row`` diff (computed from the commit's delta, not
  by re-running the query).  ``:unsubscribe N`` cancels, ``:diffs``
  drains queued frames explicitly,
* every other ``:command`` the server knows (``:version``, ``:at N``,
  ``:latest``, ``:begin`` / ``:commit`` / ``:abort``, ``:role``,
  ``:sync N``) goes to the session's command table and prints ``ok.``,
  the reply's data or the error; only ``:quit``, ``:save``, ``:open``
  and the rendering of ``:stats`` are the REPL's own.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ..core.errors import LPSError
from ..engine.evaluation import EvalOptions, Evaluator, Model
from ..engine.setops import with_set_builtins
from ..lang import parse_atom, parse_program
from ..server import QueryService
from ..server.session import Session as ServiceSession


def _evaluate(source: str, shards: int = 1) -> Model:
    program = parse_program(source)
    evaluator = Evaluator(
        program, builtins=with_set_builtins(),
        options=EvalOptions(shards=shards),
    )
    try:
        return evaluator.run()
    finally:
        evaluator.close()


def cmd_run(path: str, shards: int = 1) -> int:
    with open(path) as f:
        source = f.read()
    model = _evaluate(source, shards=shards)
    print(model.pretty())
    return 0


def _print_answers(model, pattern) -> None:
    found = False
    for theta in model.query(pattern):
        found = True
        if len(theta) == 0:
            print("true")
        else:
            print(", ".join(f"{v.name} = {t}" for v, t in sorted(
                theta.items(), key=lambda kv: kv[0].name)))
    if not found:
        print("false")


def cmd_query(path: str, query: str) -> int:
    with open(path) as f:
        source = f.read()
    model = _evaluate(source)
    _print_answers(model, parse_atom(query))
    return 0


class Session:
    """The REPL's client state: one service, one session.

    A thin facade over :class:`~repro.server.session.Session`: what the
    REPL adds is ``:save`` / ``:open`` and its renderings; everything
    semantic happens in the service layer.
    """

    def __init__(
        self, source: str = "", data_dir: Optional[str] = None
    ) -> None:
        self._service = QueryService(
            source if source.strip() else None, data_dir=data_dir
        )
        self._session: ServiceSession = self._service.open_session()
        self.data_dir = data_dir

    @property
    def service(self) -> QueryService:
        return self._service

    def add_clause(self, line: str) -> None:
        self._session.add_clause(line)

    def print_answers(self, goal: str) -> None:
        """Answer a (possibly conjunctive) goal through the session's
        parse → plan → execute path, REPL-formatted."""
        result = self._session.query(goal)
        if not result.rows:
            print("false")
            return
        for row in result.rows:
            if not row:
                print("true")
            else:
                print(", ".join(
                    f"{v} = {t}" for v, t in zip(result.vars, row)
                ))

    def save(self, path: str) -> str:
        """``:save DIR`` — persist the current state as a durable store.

        On a durable session pointing at the same directory this is a
        checkpoint (snapshot + WAL truncation); otherwise the model is
        frozen into a fresh directory that ``:open DIR`` (or ``lps repl
        --data-dir DIR``) recovers.
        """
        from pathlib import Path

        from ..storage import save_snapshot

        model = self._service.model
        own_dir = getattr(model, "data_dir", None)
        if own_dir is not None and \
                Path(path).resolve() == Path(own_dir).resolve():
            return str(model.checkpoint())
        return str(save_snapshot(path, model))

    def open(self, path: str) -> "Session":
        """``:open DIR`` — switch to the durable store at ``DIR``.

        Recovers existing state (or creates an empty store), shuts the
        current service down, and returns the replacement session.
        """
        replacement = Session(data_dir=path)
        self._service.shutdown()
        return replacement

    def command(self, line: str) -> "object":
        """Run one protocol line through the service session, whose
        command table (``server.session.COMMANDS``) is the grammar."""
        return self._session.execute(line)

    def take_diffs(self) -> list[dict]:
        """Drain queued push frames (``diff`` / ``sub_dropped``).

        The diff dispatcher runs on its own thread; when standing
        queries are active, wait (briefly) until it has processed the
        latest published version so a ``+fact.`` prints its diff
        immediately rather than one prompt later.
        """
        manager = self._service.subscriptions
        if manager.active_count():
            manager.wait_caught_up(
                self._service.model.version, timeout=2.0
            )
        return self._session.take_push_frames()

    def stats_text(self) -> str:
        """The ``:stats`` payload: last-delta summary + executor counters."""
        data = self._session.stats_data()
        last = data["last_delta"]
        if last is None:
            lines = ["no deltas applied yet"]
        else:
            lines = [
                f"last delta: strategy={last['strategy']} "
                f"+{last['atoms_added']}/-{last['atoms_removed']} "
                "model atoms"
            ]
            if last["fallback_reason"]:
                lines.append(f"  recomputed: {last['fallback_reason']}")
            for sp in last["strata"]:
                why = f" ({sp['reason']})" if sp["reason"] else ""
                lines.append(f"  stratum {sp['stratum']}: {sp['plan']}{why}")
        lines.append(
            f"session: {data['queries']} queries, {data['answers']} "
            f"answers, {data['writes']} writes, {data['errors']} errors"
        )
        lines.append(data["executor"])
        return "\n".join(lines)


def _print_push_frame(frame: dict) -> None:
    """One queued push frame, REPL-formatted."""
    sub = frame.get("sub")
    version = frame.get("version")
    if frame.get("kind") == "sub_dropped":
        print(f"[sub {sub}] dropped at version {version}: "
              f"{frame.get('reason')}")
        return
    changes = [f"+({', '.join(row)})" for row in frame.get("adds") or []]
    changes += [f"-({', '.join(row)})" for row in frame.get("dels") or []]
    print(f"[sub {sub} v{version}] " + " ".join(changes))


def _print_response(response, done: Optional[str] = None) -> None:
    """A session reply: ``ok.``, its data, or ``error: …``; for a
    ``+fact.`` / ``-fact.`` line, ``done`` is the word for its effect."""
    data = response.data
    if not response.ok:
        print(f"error: {response.error}", file=sys.stderr)
    elif done is not None:
        print("staged." if "staged" in data
              else done if data["applied"] else "no change.")
    elif response.kind == "subscribed":
        head = ", ".join(data["vars"])
        print(f"sub {data['sub']} on ({head}) at version "
              f"{response.version}: {len(data['rows'])} row(s)")
        for row in data["rows"]:
            print("  " + (", ".join(row) if row else "true"))
    elif response.kind == "diffs":
        for frame in data["frames"]:
            _print_push_frame(frame)
        if data["pending"]:
            print(f"({data['pending']} more pending)")
    elif response.kind == "ok":
        print("ok.")
    else:
        print(data if isinstance(data, str) else json.dumps(
            data, sort_keys=True
        ))


def cmd_repl(path: Optional[str], data_dir: Optional[str] = None) -> int:
    session = Session(data_dir=data_dir)
    if path:
        with open(path) as f:
            session.add_clause(f.read())
    print("LPS repl — clauses end with '.', queries start with '?-', "
          "+fact./-fact. insert/delete facts, :model prints the model, "
          ":plan rule. shows its compiled plan, :subscribe goal. pushes "
          "per-commit diffs of a standing query (:unsubscribe N cancels), "
          ":save DIR/:open DIR persist/recover durable state, :quit "
          "exits.")
    while True:
        try:
            line = input("lps> ").strip()
        except EOFError:
            print()
            return 0
        if not line:
            continue
        if line in (":quit", ":q"):
            return 0
        try:
            if line == ":stats":
                print(session.stats_text())
            elif line.startswith(":save"):
                target = line[len(":save"):].strip() or session.data_dir
                if not target:
                    print("usage: :save DIR", file=sys.stderr)
                else:
                    print(f"saved {session.save(target)}")
            elif line.startswith(":open"):
                target = line[len(":open"):].strip()
                if not target:
                    print("usage: :open DIR", file=sys.stderr)
                else:
                    session = session.open(target)
                    print(f"opened {target} at version "
                          f"{session.service.model.version}")
            elif line.startswith(":"):
                _print_response(session.command(line))
            elif line.startswith("+"):
                _print_response(session.command(line), "added.")
            elif line.startswith("-"):
                _print_response(session.command(line), "removed.")
            elif line.startswith("?-"):
                session.print_answers(line[2:].strip().removesuffix("."))
            else:
                session.add_clause(line)
            for frame in session.take_diffs():
                _print_push_frame(frame)
        except LPSError as exc:
            print(f"error: {exc}", file=sys.stderr)


def cmd_serve(
    path: Optional[str], host: str, port: int,
    data_dir: Optional[str] = None,
    follow: Optional[str] = None,
    ack_replicas: int = 0,
    fsync: str = "always",
) -> int:
    """Serve the line protocol over TCP until interrupted.

    With ``--data-dir`` the server is durable *and replicable*: followers
    may subscribe with ``:repl from N``.  With ``--follow HOST:PORT`` it
    runs as a read-only follower of that leader instead (``--data-dir``
    required — a follower is independently crash-recoverable), serving
    reads at its applied version until promoted with ``lps ctl promote``.
    """
    from ..server.protocol import Server

    if ack_replicas < 0:
        print("error: --ack-replicas must be >= 0", file=sys.stderr)
        return 2
    if ack_replicas and (follow or not data_dir):
        print("error: --ack-replicas needs a replicating leader "
              "(--data-dir, without --follow)", file=sys.stderr)
        return 2
    follower = None
    if follow:
        if not data_dir:
            print("error: --follow requires --data-dir", file=sys.stderr)
            return 2
        from ..replication import FollowerService

        follower = FollowerService(follow, data_dir, fsync=fsync)
        service = follower.start()
        print(f"following {follow} "
              f"(applied version {service.model.version})")
    else:
        source = ""
        if path:
            with open(path) as f:
                source = f.read()
        service = QueryService(
            source if source.strip() else None, data_dir=data_dir,
            fsync=fsync, ack_replicas=ack_replicas,
        )
        if data_dir:
            from ..replication import ReplicationHub

            ReplicationHub.attach(service)
            print(f"durable state in {data_dir} "
                  f"(recovered at version {service.model.version}, "
                  f"epoch {getattr(service.model, 'epoch', 0)}; "
                  "replication enabled)")

    try:
        server = Server(service, host, port)
        print(f"lps server listening on {server.host}:{server.port}")
        try:
            server.serve_forever()
        finally:
            server.stop()
    except KeyboardInterrupt:
        pass
    finally:
        if follower is not None:
            follower.stop()
        else:
            service.shutdown()
    return 0


def cmd_ctl(action: str, addrs: list[str]) -> int:
    """Operate a running deployment: ``status`` and ``promote``."""
    from ..replication import promote_best
    from ..replication.follower import _parse_addr
    from ..server.protocol import LineClient

    if action == "status":
        failures = 0
        for addr in addrs:
            s_host, s_port = _parse_addr(addr)
            try:
                with LineClient(s_host, s_port, timeout=5.0) as client:
                    response = client.send(":role")
            except (ConnectionError, OSError) as exc:
                print(f"{addr}: unreachable ({exc})")
                failures += 1
                continue
            data = response.data if response.ok and \
                isinstance(response.data, dict) else {}
            line = (f"{addr}: role={data.get('role')} "
                    f"version={data.get('version')} "
                    f"epoch={data.get('epoch')}")
            if data.get("role") == "follower":
                line += (f" leader={data.get('leader')} "
                         f"connected={data.get('connected')} "
                         f"fenced={data.get('fenced')}")
            repl = data.get("replication")
            if repl:
                line += (f" replicas={repl.get('replicas')} "
                         f"acked={repl.get('acked')}")
            print(line)
        return 1 if failures == len(addrs) else 0
    # promote: pick the most caught-up reachable follower.
    try:
        best, role = promote_best(addrs)
    except (ConnectionError, LPSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"promoted {best[0]}:{best[1]} "
          f"(version {role.get('version')}, epoch {role.get('epoch')})")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="lps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="evaluate a program, print the model")
    p_run.add_argument("path")
    p_run.add_argument("--shards", type=int, default=1,
                       help="evaluate recursive strata across this many "
                            "worker processes (default: 1, single-process)")
    p_query = sub.add_parser("query", help="evaluate, then answer a query")
    p_query.add_argument("path")
    p_query.add_argument("query")
    p_repl = sub.add_parser("repl", help="interactive loop")
    p_repl.add_argument("path", nargs="?")
    p_repl.add_argument("--data-dir", default=None,
                        help="durable state directory (recovered if it "
                             "already holds a store)")
    p_serve = sub.add_parser("serve", help="line-protocol TCP server")
    p_serve.add_argument("path", nargs="?")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=4712)
    p_serve.add_argument("--data-dir", default=None,
                         help="durable state directory; commits are "
                              "WAL-logged before they are acknowledged "
                              "(also enables replication)")
    p_serve.add_argument("--follow", default=None, metavar="HOST:PORT",
                         help="run as a read-only follower replicating "
                              "from this leader (requires --data-dir)")
    p_serve.add_argument("--ack-replicas", type=int, default=0,
                         help="leader only (requires --data-dir): "
                              "acknowledge a write after this many "
                              "followers confirmed it durable")
    p_serve.add_argument("--fsync", choices=["always", "never"],
                         default="always",
                         help="WAL fsync policy (default: always)")
    p_ctl = sub.add_parser(
        "ctl", help="operate a running deployment (status / promote)"
    )
    p_ctl.add_argument("action", choices=["status", "promote"])
    p_ctl.add_argument("addrs", nargs="+", metavar="HOST:PORT")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.path, shards=args.shards)
        if args.command == "query":
            return cmd_query(args.path, args.query)
        if args.command == "serve":
            return cmd_serve(
                args.path, args.host, args.port, args.data_dir,
                follow=args.follow, ack_replicas=args.ack_replicas,
                fsync=args.fsync,
            )
        if args.command == "ctl":
            return cmd_ctl(args.action, args.addrs)
        return cmd_repl(args.path, args.data_dir)
    except LPSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
